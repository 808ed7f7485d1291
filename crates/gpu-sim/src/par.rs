//! Per-cluster shards and the strict parsing of the engine's count and
//! engine-selector environment variables.
//!
//! One simulation is split by *compute cluster*: each [`ClusterShard`] owns
//! a cluster's SMs plus everything those SMs produce ahead of the
//! globally-ordered part of a cycle — prebuilt warp views, scheduler census
//! rows, locally-staged outbound packets ([`PacketOutbox`]), and an issue
//! statistics accumulator. The engine prepares every shard, then commits —
//! issues instructions, consults the execution model, and drains every
//! outbox into the interconnect — in cluster-index order on the simulating
//! thread (see DESIGN.md, "Per-cluster staging and the merge point").
//!
//! The module also owns the strict parsing of the `DAB_JOBS` count
//! environment variable and of the `DAB_ENGINE` cycle-loop selector: an
//! unparseable value is an operator error and is rejected loudly instead
//! of silently falling back to a default.

use std::collections::VecDeque;

use crate::config::EngineKind;
use crate::exec::{IssueGate, SchedCensus};
use crate::mem::packet::Packet;
use crate::sched::WarpView;
use crate::sm::Sm;
use crate::stats::SimStats;

/// Environment variable selecting the cycle-loop implementation
/// (`dense` or `event`; see [`EngineKind`]).
pub const ENGINE_VAR: &str = "DAB_ENGINE";

/// Error from [`parse_count`]: a worker-count environment variable held
/// something other than a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountError {
    var: String,
    raw: String,
    reason: &'static str,
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be a positive integer, got {:?} ({}); unset it to use the default",
            self.var, self.raw, self.reason
        )
    }
}

impl std::error::Error for CountError {}

/// Strictly parses a worker-count environment value: a positive integer,
/// surrounding whitespace allowed. `0`, empty, and non-numeric values are
/// rejected — masking an operator typo by silently using a default has cost
/// hours before ("DAB_JOBS=O8").
///
/// # Errors
///
/// Returns a [`CountError`] naming `var` when `raw` is not a positive
/// integer.
///
/// # Examples
///
/// ```
/// use gpu_sim::par::parse_count;
///
/// assert_eq!(parse_count("DAB_JOBS", " 8 "), Ok(8));
/// assert!(parse_count("DAB_JOBS", "0").is_err());
/// assert!(parse_count("DAB_JOBS", "eight").is_err());
/// ```
pub fn parse_count(var: &str, raw: &str) -> Result<usize, CountError> {
    let err = |reason| {
        Err(CountError {
            var: var.to_string(),
            raw: raw.to_string(),
            reason,
        })
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => err("zero workers cannot make progress"),
        Ok(n) => Ok(n),
        Err(_) => err("not an unsigned integer"),
    }
}

/// Environment variables earlier versions read to parallelize or batch
/// simulations and that no code reads any more. [`reject_removed_vars`]
/// refuses them, so an old script line cannot silently get a different
/// run.
pub const REMOVED_VARS: [&str; 3] = ["DAB_SIM_THREADS", "DAB_COMMIT_SHARD", "DAB_REPLICATIONS"];

/// Panics if any of [`REMOVED_VARS`] is set, to any value.
///
/// # Panics
///
/// Panics with a message naming the variable, saying it was removed and
/// pointing to `DAB_JOBS`.
pub fn reject_removed_vars() {
    if let Some(var) = REMOVED_VARS
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        panic!(
            "{var} was removed; unset it — sweep jobs run in parallel only \
             through DAB_JOBS, one simulation per thread"
        );
    }
}

/// Error from [`parse_engine`]: `DAB_ENGINE` held something other than
/// `dense` or `event`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    raw: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{ENGINE_VAR} must be \"dense\" or \"event\", got {:?}; unset it to use the default",
            self.raw
        )
    }
}

impl std::error::Error for EngineError {}

/// Strictly parses a `DAB_ENGINE` value: `dense` or `event`, surrounding
/// whitespace allowed. Anything else is rejected — same policy as
/// [`parse_count`].
///
/// # Errors
///
/// Returns an [`EngineError`] when `raw` names no engine.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::EngineKind;
/// use gpu_sim::par::parse_engine;
///
/// assert_eq!(parse_engine(" dense "), Ok(EngineKind::Dense));
/// assert_eq!(parse_engine("event"), Ok(EngineKind::Event));
/// assert!(parse_engine("fast").is_err());
/// ```
pub fn parse_engine(raw: &str) -> Result<EngineKind, EngineError> {
    match raw.trim() {
        "dense" => Ok(EngineKind::Dense),
        "event" => Ok(EngineKind::Event),
        _ => Err(EngineError {
            raw: raw.to_string(),
        }),
    }
}

/// Reads `DAB_ENGINE`; absent means [`EngineKind::default`] (the event
/// engine).
///
/// # Panics
///
/// Panics with the [`EngineError`] message on an invalid value — a typo
/// must stop the run, not silently pick an engine.
pub fn engine_from_env() -> EngineKind {
    match std::env::var(ENGINE_VAR) {
        Ok(raw) => match parse_engine(&raw) {
            Ok(kind) => kind,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => EngineKind::default(),
        Err(e) => panic!("{ENGINE_VAR} is not valid unicode: {e}"),
    }
}

/// Per-cluster staging buffer for outbound interconnect packets.
///
/// During issue, packets are staged here instead of entering the
/// interconnect directly; the engine drains every outbox in cluster-index
/// order at the cycle's merge point. Staged flits count against the
/// cluster's injection budget (the engine adds [`flits`](Self::flits) to
/// every admission check), so staging never admits traffic the serial
/// engine would have refused — per-cluster packet order and admission
/// decisions are bit-identical either way.
#[derive(Debug, Default)]
pub struct PacketOutbox {
    staged: VecDeque<Packet>,
    flits: u32,
}

impl PacketOutbox {
    /// Stages `pkt` for the next merge point.
    pub fn stage(&mut self, pkt: Packet) {
        self.flits += pkt.flits;
        self.staged.push_back(pkt);
    }

    /// Removes and returns the oldest staged packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.staged.pop_front()?;
        self.flits -= pkt.flits;
        Some(pkt)
    }

    /// Total flits currently staged (pending injection-budget debit).
    pub fn flits(&self) -> u32 {
        self.flits
    }

    /// Whether nothing is staged. A non-empty outbox is in-flight traffic:
    /// quiescence checks must treat it as busy.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Number of staged packets.
    pub fn len(&self) -> usize {
        self.staged.len()
    }
}

/// One compute cluster's share of the machine, plus everything its
/// cluster-local cycle phases produce.
#[derive(Debug)]
pub struct ClusterShard {
    /// Cluster index (also the shard's rank in every merge).
    pub id: usize,
    /// The cluster's SMs, locally indexed (`global = id * per_cluster + i`).
    pub sms: Vec<Sm>,
    /// Prebuilt warp views, indexed `local_sm * num_schedulers + sched`.
    /// Each row is a buffer reused across cycles: prepare refills it and
    /// the commit walk borrows it for the scheduler's visit.
    pub views: Vec<Vec<WarpView>>,
    /// Aggregate timer bound per scheduler row (same indexing as `views`),
    /// valid for rows whose views were built this cycle: the exact
    /// post-visit `ready_bound` to install if the visit issues nothing.
    pub view_bounds: Vec<u64>,
    /// Census rows, indexed `local_sm * num_schedulers + sched`.
    pub census: Vec<SchedCensus>,
    /// Outbound packets staged until the cycle's merge point.
    pub outbox: PacketOutbox,
    /// Issue-path statistics, accumulated per shard and merged into the
    /// global [`SimStats`] in cluster-index order at the end of a run.
    pub stats: SimStats,
    /// Scratch buffer for a load's L1-missing sectors, reused by every
    /// load the commit walk issues.
    pub missing_sectors: Vec<u64>,
    /// Per-local-SM flag: a barrier release during commit mutated warps of
    /// other schedulers on that SM, so its remaining prebuilt views are
    /// stale and must be rebuilt serially.
    dirty: Vec<bool>,
    num_schedulers: usize,
}

impl ClusterShard {
    /// Wraps a cluster's SMs (each with `num_schedulers` schedulers).
    pub fn new(id: usize, sms: Vec<Sm>, num_schedulers: usize) -> Self {
        let rows = sms.len() * num_schedulers;
        Self {
            id,
            views: vec![Vec::new(); rows],
            view_bounds: vec![u64::MAX; rows],
            census: vec![SchedCensus::default(); rows],
            outbox: PacketOutbox::default(),
            stats: SimStats::default(),
            missing_sectors: Vec::new(),
            dirty: vec![false; sms.len()],
            num_schedulers,
            sms,
        }
    }

    /// Rebuilds every scheduler's warp views for `cycle` and clears the
    /// dirty flags.
    ///
    /// With `use_ready_bound` (the event engine), schedulers whose cached
    /// [`ready_bound`](crate::sm::SchedulerCtx::ready_bound) lies past
    /// `cycle` are skipped: the bound invariant guarantees their
    /// `build_views` would return empty, which is exactly what the commit
    /// loop treats a skipped entry as. So are schedulers the model's issue
    /// `gate` does not admit: their `can_issue` answers would all be
    /// `false`, which the commit loop treats the same way.
    pub fn prepare_views(
        &mut self,
        cycle: u64,
        det_aware: bool,
        srr_like: bool,
        use_ready_bound: bool,
        gate: IssueGate,
    ) {
        let Self {
            sms,
            views,
            view_bounds,
            dirty,
            num_schedulers,
            ..
        } = self;
        dirty.fill(false);
        for (local, sm) in sms.iter().enumerate() {
            for sched in 0..*num_schedulers {
                let row = local * *num_schedulers + sched;
                let parked = sm.schedulers[sched].live == 0
                    || (use_ready_bound
                        && (sm.schedulers[sched].ready_bound > cycle
                            || !gate.admits(sm.id, sched)));
                view_bounds[row] = if parked {
                    views[row].clear();
                    u64::MAX
                } else {
                    sm.build_views(sched, cycle, det_aware, srr_like, &mut views[row])
                };
            }
        }
    }

    /// Rebuilds every scheduler's census row. Cluster-local work: policy
    /// `note_atomic_pending` updates stay within the shard's SMs.
    pub fn prepare_census(&mut self, det_aware: bool) {
        let Self {
            sms,
            census,
            num_schedulers,
            ..
        } = self;
        for (local, sm) in sms.iter_mut().enumerate() {
            let base = local * *num_schedulers;
            sm.census_into(det_aware, &mut census[base..base + *num_schedulers]);
        }
    }

    /// Marks local SM `local`'s remaining prebuilt views stale.
    pub fn mark_dirty(&mut self, local: usize) {
        self.dirty[local] = true;
    }

    /// Whether local SM `local`'s prebuilt views are stale.
    pub fn is_dirty(&self, local: usize) -> bool {
        self.dirty[local]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::mem::packet::{Payload, WarpRef};
    use crate::sched::SchedKind;

    #[test]
    fn parse_count_accepts_positive_integers() {
        assert_eq!(parse_count("DAB_JOBS", "1"), Ok(1));
        assert_eq!(parse_count("DAB_JOBS", "64"), Ok(64));
        assert_eq!(parse_count("DAB_JOBS", "  4\n"), Ok(4));
    }

    #[test]
    fn parse_count_rejects_zero_and_garbage() {
        for bad in ["0", "", "abc", "-2", "3.5", "0x8", "O8"] {
            let err = parse_count("DAB_JOBS", bad)
                .expect_err("must reject")
                .to_string();
            assert!(
                err.contains("DAB_JOBS") && err.contains("positive integer"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn count_error_reports_the_offending_value() {
        let err = parse_count("DAB_JOBS", "many").expect_err("must reject");
        assert!(err.to_string().contains("\"many\""));
    }

    fn load_pkt(flit_size: usize) -> Packet {
        Packet::new(
            0,
            Payload::LoadReq {
                sector_addr: 0x40,
                warp: WarpRef { sm: 0, slot: 0 },
            },
            flit_size,
        )
    }

    #[test]
    fn outbox_is_fifo_and_tracks_flits() {
        let mut outbox = PacketOutbox::default();
        assert!(outbox.is_empty());
        assert_eq!(outbox.flits(), 0);
        let a = load_pkt(40);
        let b = load_pkt(8);
        let (fa, fb) = (a.flits, b.flits);
        outbox.stage(a);
        outbox.stage(b);
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox.flits(), fa + fb);
        assert_eq!(outbox.pop().expect("first").flits, fa);
        assert_eq!(outbox.flits(), fb);
        assert_eq!(outbox.pop().expect("second").flits, fb);
        assert!(outbox.pop().is_none());
        assert!(outbox.is_empty());
    }

    fn shards(cfg: &GpuConfig) -> Vec<ClusterShard> {
        (0..cfg.num_clusters)
            .map(|c| {
                let sms = (0..cfg.sms_per_cluster)
                    .map(|i| Sm::new(c * cfg.sms_per_cluster + i, cfg, SchedKind::Gto))
                    .collect();
                ClusterShard::new(c, sms, cfg.num_schedulers_per_sm)
            })
            .collect()
    }

    #[test]
    fn dirty_flags_cleared_by_prepare() {
        let cfg = GpuConfig::tiny();
        let mut shard = shards(&cfg).remove(0);
        shard.mark_dirty(0);
        assert!(shard.is_dirty(0));
        shard.prepare_views(0, false, false, false, IssueGate::All);
        assert!(!shard.is_dirty(0));
    }

    #[test]
    fn parse_engine_accepts_both_engines() {
        assert_eq!(parse_engine("dense"), Ok(EngineKind::Dense));
        assert_eq!(parse_engine(" event\n"), Ok(EngineKind::Event));
    }

    #[test]
    fn parse_engine_rejects_garbage() {
        for bad in ["", "Dense", "EVENT", "fast", "dense,event", "1"] {
            let err = parse_engine(bad).expect_err("must reject").to_string();
            assert!(
                err.contains("DAB_ENGINE") && err.contains("dense"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }
}
