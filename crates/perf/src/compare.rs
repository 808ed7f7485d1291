//! Two-document comparison with the det/wall regression policy.
//!
//! * `det` metrics must be **exactly equal** — numbers bitwise (they are
//!   integer counters, digests-as-strings, or derived ratios of
//!   deterministic quantities), strings verbatim. Any drift, and any det
//!   metric present in the baseline but missing from the candidate, is a
//!   regression.
//! * `wall` metrics are host timings: the candidate may be *worse* than
//!   the baseline by up to the relative tolerance before it counts as a
//!   regression. "Worse" is direction-aware — higher is worse for
//!   `*secs*`/`*overhead*` leaves, lower is worse for `*speedup*` and
//!   `*per_sec*` (throughput) leaves.
//!   Near-zero baselines (trace overheads wobble around 0.0) are
//!   normalized by an absolute floor instead of their own magnitude.
//! * `info` metrics (host identity) are never compared.
//!
//! Metrics that only exist in the candidate are reported as additions,
//! not failures: growing a results schema must not require regenerating
//! every committed baseline first.

use crate::json::Json;
use crate::metrics::{flatten, Class, Metric, Value};

/// Relative wall-clock tolerance used when the caller passes none.
/// Generous on purpose: CI runners vary widely, and the hard gate is the
/// det section — wall only catches order-of-magnitude cliffs by default.
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.5;

/// Denominator floor for wall deltas, so overheads measured around zero
/// compare by absolute drift instead of exploding relatively.
const WALL_FLOOR: f64 = 0.05;

/// Outcome of one metric's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Values agree (det) or are within tolerance (wall).
    Ok,
    /// Det drift or wall degradation beyond tolerance.
    Regressed,
    /// Wall metric improved beyond tolerance (reported, never fails).
    Improved,
    /// Present only in the candidate.
    Added,
    /// Present only in the baseline (a regression for det metrics).
    Removed,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The flattened path.
    pub path: String,
    /// Its class.
    pub class: Class,
    /// Baseline value, if present.
    pub a: Option<Value>,
    /// Candidate value, if present.
    pub b: Option<Value>,
    /// Signed worse-direction relative delta for wall metrics
    /// (positive = candidate worse), `None` elsewhere.
    pub rel: Option<f64>,
    /// The verdict.
    pub status: Status,
}

/// A full comparison: every metric of either document, in baseline order
/// (candidate-only additions last).
#[derive(Debug)]
pub struct Comparison {
    /// All per-metric deltas.
    pub deltas: Vec<Delta>,
}

impl Comparison {
    /// The deltas that fail the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.status == Status::Regressed)
    }

    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
    }
}

/// Compares candidate `b` against baseline `a`.
pub fn compare(a: &Json, b: &Json, wall_tolerance: f64) -> Comparison {
    let base = flatten(a);
    let cand = flatten(b);
    let mut deltas = Vec::with_capacity(base.len());
    let mut used = vec![false; cand.len()];
    for m in &base {
        let found = cand.iter().position(|c| c.path == m.path);
        match found {
            Some(i) => {
                used[i] = true;
                deltas.push(compare_one(m, &cand[i], wall_tolerance));
            }
            None => deltas.push(Delta {
                path: m.path.clone(),
                class: m.class,
                a: Some(m.value.clone()),
                b: None,
                rel: None,
                status: match m.class {
                    Class::Det => Status::Regressed,
                    Class::Wall | Class::Info => Status::Removed,
                },
            }),
        }
    }
    for (c, used) in cand.iter().zip(&used) {
        if !used {
            deltas.push(Delta {
                path: c.path.clone(),
                class: c.class,
                a: None,
                b: Some(c.value.clone()),
                rel: None,
                status: Status::Added,
            });
        }
    }
    Comparison { deltas }
}

fn compare_one(a: &Metric, b: &Metric, wall_tolerance: f64) -> Delta {
    let status;
    let mut rel = None;
    match a.class {
        Class::Info => status = Status::Ok,
        Class::Det => {
            status = if a.value == b.value {
                Status::Ok
            } else {
                Status::Regressed
            };
        }
        Class::Wall => match (&a.value, &b.value) {
            (Value::Num(x), Value::Num(y)) => {
                let worse = worse_direction_delta(&a.path, *x, *y);
                rel = Some(worse);
                status = if worse > wall_tolerance {
                    Status::Regressed
                } else if worse < -wall_tolerance {
                    Status::Improved
                } else {
                    Status::Ok
                };
            }
            _ => {
                status = if a.value == b.value {
                    Status::Ok
                } else {
                    Status::Regressed
                };
            }
        },
    }
    Delta {
        path: a.path.clone(),
        class: a.class,
        a: Some(a.value.clone()),
        b: Some(b.value.clone()),
        rel,
        status,
    }
}

/// Signed relative delta in the *worse* direction: positive means the
/// candidate `y` is worse than the baseline `x`. Higher is better for
/// speedups and throughputs (`cycles_per_sec`), worse for everything else
/// (seconds, overheads).
fn worse_direction_delta(path: &str, x: f64, y: f64) -> f64 {
    let denom = x.abs().max(WALL_FLOOR);
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf.contains("speedup") || leaf.contains("per_sec") {
        (x - y) / denom
    } else {
        (y - x) / denom
    }
}

/// Renders the comparison as an aligned table; `verbose` includes the
/// metrics that agreed, otherwise only notable rows print.
pub fn render(cmp: &Comparison, verbose: bool) -> String {
    let mut rows: Vec<[String; 5]> = Vec::new();
    for d in &cmp.deltas {
        if !verbose && d.status == Status::Ok {
            continue;
        }
        let show = |v: &Option<Value>| v.as_ref().map_or("-".to_string(), Value::display);
        rows.push([
            format!("{:?}", d.status).to_lowercase(),
            d.class.label().to_string(),
            d.path.clone(),
            show(&d.a),
            match d.rel {
                Some(r) => format!("{} ({:+.1}%)", show(&d.b), r * 100.0),
                None => show(&d.b),
            },
        ]);
    }
    if rows.is_empty() {
        return String::new();
    }
    let header = ["status", "class", "metric", "baseline", "candidate"];
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let mut out = fmt(&header.map(str::to_string));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt(&row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(det_cycles: u64, digest: &str, secs: f64, speedup: f64) -> Json {
        Json::parse(&format!(
            r#"{{ "workloads": [ {{ "name": "w",
                 "det": {{ "cycles": {det_cycles}, "digest": "{digest}" }},
                 "wall": {{ "event_secs": {secs}, "speedup": {speedup} }} }} ],
                 "host": {{ "nproc": 4 }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let a = doc(100, "0xabc", 1.0, 1.5);
        let cmp = compare(&a, &a.clone(), DEFAULT_WALL_TOLERANCE);
        assert!(cmp.passed());
        assert!(cmp.deltas.iter().all(|d| d.status == Status::Ok));
    }

    #[test]
    fn det_drift_fails_regardless_of_magnitude() {
        let a = doc(100, "0xabc", 1.0, 1.5);
        let b = doc(101, "0xabc", 1.0, 1.5);
        let cmp = compare(&a, &b, 1e9);
        let bad: Vec<_> = cmp.regressions().map(|d| d.path.clone()).collect();
        assert_eq!(bad, vec!["workloads.w.det.cycles".to_string()]);
    }

    #[test]
    fn digest_drift_fails() {
        let a = doc(100, "0xabc", 1.0, 1.5);
        let b = doc(100, "0xdef", 1.0, 1.5);
        assert!(!compare(&a, &b, DEFAULT_WALL_TOLERANCE).passed());
    }

    #[test]
    fn wall_within_tolerance_passes_beyond_fails() {
        let a = doc(100, "0xabc", 1.0, 1.5);
        // 40% slower: inside the default 50% tolerance.
        assert!(compare(&a, &doc(100, "0xabc", 1.4, 1.5), 0.5).passed());
        // 60% slower: outside.
        let cmp = compare(&a, &doc(100, "0xabc", 1.6, 1.5), 0.5);
        assert!(!cmp.passed());
        assert_eq!(
            cmp.regressions().next().unwrap().path,
            "workloads.w.wall.event_secs"
        );
    }

    #[test]
    fn speedup_is_higher_is_better() {
        let a = doc(100, "0xabc", 1.0, 2.0);
        // Speedup dropped 2.0 -> 0.8: 60% worse, fails at 50%.
        assert!(!compare(&a, &doc(100, "0xabc", 1.0, 0.8), 0.5).passed());
        // Speedup *grew*: improvement, never fails.
        let cmp = compare(&a, &doc(100, "0xabc", 1.0, 4.0), 0.5);
        assert!(cmp.passed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.status == Status::Improved && d.path.ends_with("speedup")));
    }

    #[test]
    fn throughput_is_higher_is_better() {
        let run = |cycles_per_sec: f64| {
            Json::parse(&format!(
                r#"{{ "runs": [ {{ "label": "x", "cycles": 5, "cycles_per_sec": {cycles_per_sec} }} ] }}"#
            ))
            .unwrap()
        };
        let a = run(1000.0);
        // Twice as fast: an improvement, never a regression.
        let cmp = compare(&a, &run(2000.0), 0.5);
        assert!(cmp.passed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.status == Status::Improved && d.path.ends_with("cycles_per_sec")));
        // A third of the throughput: 67% worse, fails at 50%.
        assert!(!compare(&a, &run(333.0), 0.5).passed());
    }

    #[test]
    fn near_zero_overheads_use_the_absolute_floor() {
        let a = Json::parse(r#"{ "max_trace_off_overhead": 0.001 }"#).unwrap();
        // 0.001 -> 0.03 is a 30x relative jump but only +0.029 absolute:
        // normalized by the 0.05 floor that is +58% — under a 0.6 gate.
        let b = Json::parse(r#"{ "max_trace_off_overhead": 0.03 }"#).unwrap();
        assert!(compare(&a, &b, 0.6).passed());
        let c = Json::parse(r#"{ "max_trace_off_overhead": 0.5 }"#).unwrap();
        assert!(!compare(&a, &c, 0.6).passed());
    }

    #[test]
    fn missing_det_metric_fails_added_metric_passes() {
        let a = Json::parse(r#"{ "runs": [ { "label": "x", "cycles": 5 } ] }"#).unwrap();
        let b = Json::parse(r#"{ "runs": [ { "label": "x" } ] }"#).unwrap();
        let cmp = compare(&a, &b, 0.5);
        assert!(!cmp.passed());
        // The other direction is an addition and passes.
        let cmp = compare(&b, &a, 0.5);
        assert!(cmp.passed());
        assert!(cmp.deltas.iter().any(|d| d.status == Status::Added));
    }

    #[test]
    fn info_differences_never_fail() {
        let a = doc(100, "0xabc", 1.0, 1.5);
        let mut b = doc(100, "0xabc", 1.0, 1.5);
        if let Json::Obj(members) = &mut b {
            for (k, v) in members.iter_mut() {
                if k == "host" {
                    *v = Json::parse(r#"{ "nproc": 64 }"#).unwrap();
                }
            }
        }
        assert!(compare(&a, &b, 0.5).passed());
    }

    #[test]
    fn render_lists_regressions() {
        let a = doc(100, "0xabc", 1.0, 1.5);
        let b = doc(101, "0xabc", 9.0, 1.5);
        let cmp = compare(&a, &b, 0.5);
        let table = render(&cmp, false);
        assert!(table.contains("regressed"), "{table}");
        assert!(table.contains("workloads.w.det.cycles"), "{table}");
        assert!(table.contains("event_secs"), "{table}");
        assert!(table.contains("+800.0%"), "{table}");
    }
}
