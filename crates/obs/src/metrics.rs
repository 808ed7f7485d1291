//! The typed metrics registry: the single schema for every named metric
//! the simulator emits.
//!
//! Historically `SimStats` accepted free-form string keys (`dab.flushes`,
//! `engine.sms_ticked`, ...) with no collision check and no statement of
//! which keys are deterministic. This module replaces that convention with
//! an explicit contract:
//!
//! # Namespace contract
//!
//! Every metric name is dot-separated lowercase ASCII and must live in one
//! of two top-level namespaces:
//!
//! * `det.*` — **deterministic** metrics: byte-stable architectural
//!   counts, merged in cluster-index order, identical at any `DAB_JOBS`
//!   setting. Two sub-classes refine the contract:
//!   - [`MetricClass::DetArch`] (everything under `det.*` except the
//!     family below): additionally identical across `DAB_ENGINE`
//!     settings — the dense and event engines must agree bit-for-bit.
//!   - [`MetricClass::DetEngine`] (`det.engine.*`): deterministic for a
//!     *fixed* configuration but **engine-variant by design** (the event
//!     engine skips work the dense engine performs, and counts it).
//!     Cross-engine comparisons strip this family; fixed-config
//!     regression gates compare it exactly.
//! * `wall.*` — host wall-clock measurements (phase timings, profiler
//!   spans). Timing-variant run to run; never merged into `SimStats`,
//!   never part of any determinism digest. `SimStats::bump` rejects
//!   `wall.*` keys outright, which is what guarantees wall data can
//!   never leak into a results digest.
//!
//! Two further properties are keyed off the name, not stored state:
//!
//! * `det.engine.*` and `det.obs.*` are **coordinator-only**: the engine
//!   books them for its own work (activity it skipped or did, trace
//!   volume), not for the simulated machine, so cross-engine and
//!   cross-trace-mode comparisons strip them ([`is_coordinator_only`]).
//! * `det.obs.*` exists only when tracing is enabled, so equivalence
//!   comparisons must fix the trace mode on both sides.
//!
//! # Merge ordering
//!
//! Counters and histogram buckets are summed; gauges are high-watermarks
//! and merge by `max`. Within a run every component books into the run's
//! one `SimStats`; `SimStats::merge` combines whole runs, so merged values
//! do not depend on how a sweep was scheduled.
//!
//! # Registration
//!
//! Components register their metrics at construction —
//! the engine registers `det.engine.*`/`det.obs.*`/`det.stall.*`, the
//! interconnect and memory partitions their `det.icnt.*`/`det.rop.*`/
//! `det.dram.*` families, and each execution model its own family via
//! `ExecutionModel::register_metrics`. Registering the same name twice
//! panics naming both call sites; bumping a key the run's registry never
//! registered panics at the end of the run. Direct string-key insertion
//! into `SimStats` without a matching registration is **deprecated**:
//! it still compiles (the map is public), but any run through
//! `GpuSim::run` will fail fast on the unregistered key.
//!
//! # Examples
//!
//! ```
//! use obs::metrics::{MetricClass, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter("det.dab.flushes", "global flush epochs");
//! reg.gauge("det.dab.flush_entries_max", "largest single flush");
//! assert!(reg.is_registered("det.dab.flushes"));
//! assert_eq!(
//!     MetricsRegistry::class_of("det.engine.sms_ticked"),
//!     Some(MetricClass::DetEngine)
//! );
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::panic::Location;

/// Determinism class of a metric, derived from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// `det.*` (except `det.engine.*`): thread- and engine-invariant;
    /// byte-stable.
    DetArch,
    /// `det.engine.*`: thread-invariant, engine-variant by design.
    DetEngine,
    /// `wall.*`: host timing; variant run to run.
    Wall,
}

impl MetricClass {
    /// Canonical short label (`det`, `det.engine`, `wall`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::DetArch => "det",
            MetricClass::DetEngine => "det.engine",
            MetricClass::Wall => "wall",
        }
    }
}

/// What kind of value a registered metric carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum; merges by addition.
    Counter,
    /// High-watermark; merges by `max`.
    Gauge,
    /// One bucket counter of a fixed-bucket histogram; merges by
    /// addition. The `le` bound is encoded in the key suffix.
    HistogramBucket,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Value semantics.
    pub kind: MetricKind,
    /// One-line human description.
    pub help: &'static str,
    /// Where the metric was registered (for duplicate diagnostics).
    pub site: &'static Location<'static>,
}

/// A fixed-bucket histogram schema: cumulative-style `le` buckets plus an
/// overflow bucket, each materialized as an ordinary counter key so the
/// existing sum-merge machinery applies unchanged.
///
/// The key list must be `bounds.len() + 1` long: one `<name>.le<bound>`
/// key per bound (in strictly increasing order) and a final
/// `<name>.le_inf` overflow key. Keys are spelled out statically because
/// `SimStats` counters are `&'static str`-keyed.
///
/// # Examples
///
/// ```
/// use obs::metrics::HistSpec;
///
/// static H: HistSpec = HistSpec {
///     name: "det.dab.flush_entries_hist",
///     bounds: &[1, 8, 64],
///     buckets: &[
///         "det.dab.flush_entries_hist.le1",
///         "det.dab.flush_entries_hist.le8",
///         "det.dab.flush_entries_hist.le64",
///         "det.dab.flush_entries_hist.le_inf",
///     ],
/// };
/// assert_eq!(H.bucket_key(5), "det.dab.flush_entries_hist.le8");
/// assert_eq!(H.bucket_key(1000), "det.dab.flush_entries_hist.le_inf");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HistSpec {
    /// Base metric name (namespace rules apply).
    pub name: &'static str,
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: &'static [u64],
    /// Bucket counter keys: one per bound plus the `le_inf` overflow.
    pub buckets: &'static [&'static str],
}

impl HistSpec {
    /// The bucket counter key a sample of `value` falls into: the first
    /// bucket whose bound is `>= value`, else the overflow bucket.
    pub fn bucket_key(&self, value: u64) -> &'static str {
        for (i, &b) in self.bounds.iter().enumerate() {
            if value <= b {
                return self.buckets[i];
            }
        }
        self.buckets[self.bounds.len()]
    }
}

/// Why a metric name was rejected by [`MetricsRegistry::class_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameError {
    message: String,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for NameError {}

/// Validates a metric name against the namespace contract and returns its
/// class, or an error naming the violation.
pub fn validate_name(name: &str) -> Result<MetricClass, NameError> {
    let bad = |why: &str| {
        Err(NameError {
            message: format!("invalid metric name {name:?}: {why}"),
        })
    };
    if name.is_empty() {
        return bad("empty");
    }
    for seg in name.split('.') {
        if seg.is_empty() {
            return bad("empty dotted segment");
        }
        if !seg
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return bad("segments must be lowercase ASCII, digits, or '_'");
        }
    }
    if let Some(rest) = name.strip_prefix("det.") {
        if rest.is_empty() {
            return bad("nothing after the det. namespace");
        }
        if name.starts_with("det.engine.") {
            Ok(MetricClass::DetEngine)
        } else {
            Ok(MetricClass::DetArch)
        }
    } else if let Some(rest) = name.strip_prefix("wall.") {
        if rest.is_empty() {
            return bad("nothing after the wall. namespace");
        }
        Ok(MetricClass::Wall)
    } else {
        bad("must live under the det. or wall. namespace")
    }
}

/// Whether a key names a coordinator-only family: engine bookkeeping
/// (`det.engine.*`, `det.obs.*`) or host timing (`wall.*`) rather than an
/// observation of the simulated machine. Equivalence checks strip these.
pub fn is_coordinator_only(name: &str) -> bool {
    name.starts_with("det.engine.") || name.starts_with("det.obs.") || name.starts_with("wall.")
}

/// The per-run metric schema: every name the run is allowed to emit.
///
/// Built once at simulator construction; components add their families as
/// they are constructed. See the module docs for the full contract.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    defs: BTreeMap<&'static str, MetricDef>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter.
    ///
    /// # Panics
    ///
    /// Panics when `name` violates the namespace contract or is already
    /// registered (the message names both call sites).
    #[track_caller]
    pub fn counter(&mut self, name: &'static str, help: &'static str) {
        self.insert(name, MetricKind::Counter, help, Location::caller());
    }

    /// Registers a high-watermark gauge (merged by `max`).
    ///
    /// # Panics
    ///
    /// Same conditions as [`counter`](Self::counter).
    #[track_caller]
    pub fn gauge(&mut self, name: &'static str, help: &'static str) {
        self.insert(name, MetricKind::Gauge, help, Location::caller());
    }

    /// Registers a fixed-bucket histogram: every bucket key of `spec`
    /// becomes a [`MetricKind::HistogramBucket`] counter.
    ///
    /// # Panics
    ///
    /// Panics when the spec is malformed (bucket/bound count mismatch,
    /// bounds not strictly increasing, bucket keys not derived from the
    /// base name) or any key violates the registration rules.
    #[track_caller]
    pub fn histogram(&mut self, spec: &'static HistSpec, help: &'static str) {
        let site = Location::caller();
        assert_eq!(
            spec.buckets.len(),
            spec.bounds.len() + 1,
            "histogram {}: need one bucket key per bound plus the le_inf overflow",
            spec.name
        );
        assert!(
            spec.bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {}: bounds must be strictly increasing",
            spec.name
        );
        for (i, &key) in spec.buckets.iter().enumerate() {
            let expect = if i < spec.bounds.len() {
                format!("{}.le{}", spec.name, spec.bounds[i])
            } else {
                format!("{}.le_inf", spec.name)
            };
            assert_eq!(
                key, expect,
                "histogram {}: bucket key {key:?} must be {expect:?}",
                spec.name
            );
            self.insert(key, MetricKind::HistogramBucket, help, site);
        }
    }

    #[track_caller]
    fn insert(
        &mut self,
        name: &'static str,
        kind: MetricKind,
        help: &'static str,
        site: &'static Location<'static>,
    ) {
        if let Err(e) = validate_name(name) {
            panic!("metric registration at {site}: {e}");
        }
        if let Some(prev) = self.defs.get(name) {
            panic!(
                "duplicate metric registration: {name:?} registered at {} and again at {site}",
                prev.site
            );
        }
        self.defs.insert(name, MetricDef { kind, help, site });
    }

    /// Whether `name` has been registered.
    pub fn is_registered(&self, name: &str) -> bool {
        self.defs.contains_key(name)
    }

    /// The definition of a registered metric.
    pub fn def(&self, name: &str) -> Option<&MetricDef> {
        self.defs.get(name)
    }

    /// Number of registered names (histogram buckets count individually).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Iterates registered `(name, def)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &MetricDef)> {
        self.defs.iter().map(|(k, v)| (*k, v))
    }

    /// Asserts every key in `keys` is registered; `what` names the
    /// source map for the panic message. Catches typo'd bump sites and
    /// unregistered families at the end of a run.
    ///
    /// # Panics
    ///
    /// Panics naming the first offending key.
    pub fn assert_covers<'k>(&self, keys: impl IntoIterator<Item = &'k str>, what: &str) {
        for key in keys {
            assert!(
                self.is_registered(key),
                "{what} contains unregistered metric {key:?}; register it at \
                 construction (engine, interconnect, partition, or the model's \
                 register_metrics hook) so typos fail fast"
            );
        }
    }

    /// Class of a syntactically valid metric name, `None` if invalid.
    pub fn class_of(name: &str) -> Option<MetricClass> {
        validate_name(name).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_namespaces() {
        assert_eq!(validate_name("det.dab.flushes"), Ok(MetricClass::DetArch));
        assert_eq!(
            validate_name("det.engine.sms_ticked"),
            Ok(MetricClass::DetEngine)
        );
        assert_eq!(validate_name("wall.phase.commit"), Ok(MetricClass::Wall));
    }

    #[test]
    fn bad_names_are_rejected() {
        for bad in [
            "",
            "det.",
            "wall.",
            "dab.flushes",
            "engine.sms_ticked",
            "det..x",
            "det.Flushes",
            "det.fl ushes",
            "obs.samples",
        ] {
            assert!(validate_name(bad).is_err(), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn coordinator_only_families() {
        assert!(is_coordinator_only("det.engine.sms_ticked"));
        assert!(is_coordinator_only("det.obs.samples"));
        assert!(is_coordinator_only("wall.phase.merge"));
        assert!(!is_coordinator_only("det.dab.flushes"));
        assert!(!is_coordinator_only("det.stall.l1_mshr"));
    }

    #[test]
    fn registration_and_lookup() {
        let mut reg = MetricsRegistry::new();
        reg.counter("det.dab.flushes", "flush epochs");
        reg.gauge("det.dab.flush_entries_max", "largest flush");
        assert!(reg.is_registered("det.dab.flushes"));
        assert!(!reg.is_registered("det.dab.typo"));
        assert_eq!(reg.len(), 2);
        assert_eq!(
            reg.def("det.dab.flushes").map(|d| d.kind),
            Some(MetricKind::Counter)
        );
        reg.assert_covers(["det.dab.flushes"], "test stats");
    }

    #[test]
    #[should_panic(expected = "duplicate metric registration")]
    fn duplicate_registration_panics_with_sites() {
        let mut reg = MetricsRegistry::new();
        reg.counter("det.dab.flushes", "first");
        reg.counter("det.dab.flushes", "second");
    }

    #[test]
    #[should_panic(expected = "must live under the det. or wall. namespace")]
    fn unknown_namespace_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("dab.flushes", "legacy key");
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unregistered_key_is_caught() {
        let reg = MetricsRegistry::new();
        reg.assert_covers(["det.dab.typo"], "run counters");
    }

    static HIST: HistSpec = HistSpec {
        name: "det.dab.flush_entries_hist",
        bounds: &[1, 8, 64],
        buckets: &[
            "det.dab.flush_entries_hist.le1",
            "det.dab.flush_entries_hist.le8",
            "det.dab.flush_entries_hist.le64",
            "det.dab.flush_entries_hist.le_inf",
        ],
    };

    #[test]
    fn histogram_buckets_register_and_classify() {
        let mut reg = MetricsRegistry::new();
        reg.histogram(&HIST, "entries per flush");
        assert_eq!(reg.len(), 4);
        assert!(reg.is_registered("det.dab.flush_entries_hist.le_inf"));
        assert_eq!(HIST.bucket_key(0), "det.dab.flush_entries_hist.le1");
        assert_eq!(HIST.bucket_key(1), "det.dab.flush_entries_hist.le1");
        assert_eq!(HIST.bucket_key(2), "det.dab.flush_entries_hist.le8");
        assert_eq!(HIST.bucket_key(64), "det.dab.flush_entries_hist.le64");
        assert_eq!(HIST.bucket_key(65), "det.dab.flush_entries_hist.le_inf");
    }

    static BAD_HIST: HistSpec = HistSpec {
        name: "det.x.h",
        bounds: &[4, 2],
        buckets: &["det.x.h.le4", "det.x.h.le2", "det.x.h.le_inf"],
    };

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_bounds_must_increase() {
        let mut reg = MetricsRegistry::new();
        reg.histogram(&BAD_HIST, "broken");
    }
}
