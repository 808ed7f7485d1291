//! Parallel sweep execution over independent simulations.
//!
//! A figure regenerates dozens of runs that share nothing but the machine
//! configuration, so they parallelize trivially: [`Sweep`] collects the
//! whole design-point matrix up front and [`Runner::run_many`] executes it
//! on a scoped thread pool. Results come back **in submission order**
//! regardless of which worker finished first, so tables, geomeans, and
//! digests are bit-identical to a serial run — parallelism only changes
//! wall-clock (and each run is internally deterministic for a given seed,
//! so even `DAB_JOBS=1` vs `DAB_JOBS=64` agree bitwise).
//!
//! Worker count comes from `DAB_JOBS` (default: available parallelism);
//! tests that must not race on the environment use
//! [`Runner::run_many_with_workers`] / [`Sweep::run_with_workers`].
//! `DAB_PROGRESS=1` adds a per-job heartbeat line (completion count and a
//! linear ETA) so long sweeps are observable from CI logs. Each simulation
//! runs on one thread, so `DAB_JOBS` is the only way to run in parallel.
//!
//! With `DAB_REPLICATIONS=N` (default 1) the sweep additionally *lowers*
//! seed-only-differing job groups — same kernel slice, same
//! [`replication_key`](ExecutionModel::replication_key) — into one
//! replication-batched pass of up to `N` lanes
//! ([`GpuSim::run_replicated`]): per-kernel shared state is built once and
//! every lane reuses it, while each job still gets its own effective seed
//! and a per-seed [`RunReport`] bit-identical to its solo run. Jobs whose
//! model opts out of batching (`replication_key() == None`), and whole
//! sweeps with tracing enabled, fall back to solo passes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dab::{DabConfig, DabModel};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

use crate::Runner;

/// Environment variable selecting how many sweep jobs run concurrently.
pub const JOBS_VAR: &str = "DAB_JOBS";

/// Environment variable enabling the sweep progress heartbeat
/// (`DAB_PROGRESS=1`): one line per completed job with the running
/// completion count and an ETA for the rest of the sweep.
pub const PROGRESS_VAR: &str = "DAB_PROGRESS";

/// Resolves the sweep progress heartbeat: `DAB_PROGRESS=1` turns it on,
/// `0` or unset leaves it off.
///
/// # Panics
///
/// Panics when `DAB_PROGRESS` is set to anything other than `0` or `1` —
/// a typo'd value must stop the run, not silently disable the heartbeat
/// someone asked for.
pub fn progress_from_env() -> bool {
    match std::env::var(PROGRESS_VAR) {
        Ok(raw) => match raw.as_str() {
            "1" => true,
            "0" => false,
            other => panic!("{PROGRESS_VAR} must be `0` or `1`, got {other:?}"),
        },
        Err(std::env::VarError::NotPresent) => false,
        Err(e) => panic!("{PROGRESS_VAR} is not valid unicode: {e}"),
    }
}

/// Formats one progress heartbeat line: completion count, the job that
/// just finished (with its own wall time), sweep elapsed, and a linear
/// ETA extrapolated from the per-job completion rate so far.
fn progress_line(
    finished: usize,
    total: usize,
    label: &str,
    job_wall: Duration,
    sweep_elapsed: Duration,
) -> String {
    let remaining = total.saturating_sub(finished);
    let eta = if finished == 0 {
        Duration::ZERO
    } else {
        sweep_elapsed.mul_f64(remaining as f64 / finished as f64)
    };
    format!(
        "    [{finished}/{total}] {label} done in {job_wall:.1?} \
         (sweep {sweep_elapsed:.1?}, eta {eta:.1?})"
    )
}

/// Resolves the sweep worker count: `DAB_JOBS` if set, otherwise the
/// machine's available parallelism.
///
/// # Panics
///
/// Panics when `DAB_JOBS` is set to anything other than a positive integer
/// (`0`, empty, or garbage). A typo'd worker count used to fall back to the
/// default silently, turning an intended `DAB_JOBS=16` sweep into a slow
/// serial one with no warning; an invalid value now stops the run instead.
pub fn jobs_from_env() -> usize {
    match std::env::var(JOBS_VAR) {
        Ok(raw) => match gpu_sim::par::parse_count(JOBS_VAR, &raw) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        Err(e) => panic!("{JOBS_VAR} is not valid unicode: {e}"),
    }
}

/// One simulation in a sweep: a model, the kernels to run it on, a label
/// for progress/results output, and the timing-perturbation seed.
pub struct SweepJob<'k> {
    /// Display label, also recorded in the results JSON.
    pub label: String,
    /// Timing-perturbation seed override; `None` inherits the runner's.
    seed: Option<u64>,
    model: Box<dyn ExecutionModel>,
    kernels: &'k [KernelGrid],
}

impl<'k> SweepJob<'k> {
    /// A job running `model` over `kernels` (seed inherited from the
    /// runner unless overridden).
    pub fn new(
        label: impl Into<String>,
        model: Box<dyn ExecutionModel>,
        kernels: &'k [KernelGrid],
    ) -> Self {
        Self {
            label: label.into(),
            seed: None,
            model,
            kernels,
        }
    }

    /// Overrides the timing seed (figures that sweep seeds use this).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

impl std::fmt::Debug for SweepJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .field("model", &self.model.name())
            .field("kernels", &self.kernels.len())
            .finish()
    }
}

/// Handle to one submitted job; index into [`SweepResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobId(usize);

/// One completed run, in submission order.
#[derive(Debug)]
pub struct SweepRun {
    /// The submitted label.
    pub label: String,
    /// The seed the run used.
    pub seed: u64,
    /// The full simulation report.
    pub report: RunReport,
}

/// All runs of a sweep, in submission order, plus sweep-level timing.
#[derive(Debug)]
pub struct SweepResults {
    runs: Vec<SweepRun>,
    /// Wall-clock for the whole sweep (all workers).
    pub wall: Duration,
    /// Worker count the sweep actually used.
    pub workers: usize,
}

impl SweepResults {
    /// The report for a submitted job.
    pub fn report(&self, id: JobId) -> &RunReport {
        &self.runs[id.0].report
    }

    /// Shorthand: cycles of a submitted job.
    pub fn cycles(&self, id: JobId) -> u64 {
        self.report(id).cycles()
    }

    /// All runs in submission order.
    pub fn runs(&self) -> &[SweepRun] {
        &self.runs
    }
}

impl std::ops::Index<JobId> for SweepResults {
    type Output = RunReport;

    fn index(&self, id: JobId) -> &RunReport {
        self.report(id)
    }
}

/// Builder collecting a matrix of simulations to run in parallel.
///
/// ```no_run
/// # use dab_bench::{Runner, Sweep};
/// # use dab_workloads::suite::full_suite;
/// # use dab::DabConfig;
/// let runner = Runner::from_env();
/// let suite = full_suite(runner.scale);
/// let mut sweep = Sweep::new(&runner);
/// let ids: Vec<_> = suite
///     .iter()
///     .map(|b| {
///         (
///             sweep.baseline(format!("{}/baseline", b.name), &b.kernels),
///             sweep.dab(format!("{}/dab", b.name), DabConfig::paper_default(), &b.kernels),
///         )
///     })
///     .collect();
/// let results = sweep.run();
/// for (base, dab) in ids {
///     let slowdown = results.cycles(dab) as f64 / results.cycles(base) as f64;
///     println!("{slowdown:.2}x");
/// }
/// ```
#[derive(Debug)]
pub struct Sweep<'k> {
    runner: Runner,
    jobs: Vec<SweepJob<'k>>,
}

impl<'k> Sweep<'k> {
    /// Starts an empty sweep sharing `runner`'s machine, scale, and seed.
    pub fn new(runner: &Runner) -> Self {
        Self {
            runner: runner.clone(),
            jobs: Vec::new(),
        }
    }

    /// Submits an arbitrary pre-built job.
    pub fn push(&mut self, job: SweepJob<'k>) -> JobId {
        self.jobs.push(job);
        JobId(self.jobs.len() - 1)
    }

    /// Submits a run of the non-deterministic baseline GPU.
    pub fn baseline(&mut self, label: impl Into<String>, kernels: &'k [KernelGrid]) -> JobId {
        self.push(SweepJob::new(
            label,
            Box::new(BaselineModel::new()),
            kernels,
        ))
    }

    /// Submits a DAB run at the given design point.
    pub fn dab(
        &mut self,
        label: impl Into<String>,
        cfg: DabConfig,
        kernels: &'k [KernelGrid],
    ) -> JobId {
        cfg.validate().expect("invalid DAB design point");
        let model = DabModel::new(&self.runner.gpu, cfg);
        self.push(SweepJob::new(label, Box::new(model), kernels))
    }

    /// Submits a GPUDet run with its default configuration.
    pub fn gpudet(&mut self, label: impl Into<String>, kernels: &'k [KernelGrid]) -> JobId {
        self.gpudet_with(label, GpuDetConfig::default(), kernels)
    }

    /// Submits a GPUDet run at an explicit operating point.
    pub fn gpudet_with(
        &mut self,
        label: impl Into<String>,
        cfg: GpuDetConfig,
        kernels: &'k [KernelGrid],
    ) -> JobId {
        let model = GpuDetModel::new(&self.runner.gpu, cfg);
        self.push(SweepJob::new(label, Box::new(model), kernels))
    }

    /// Submits a run of an arbitrary execution model.
    pub fn model(
        &mut self,
        label: impl Into<String>,
        model: Box<dyn ExecutionModel>,
        kernels: &'k [KernelGrid],
    ) -> JobId {
        self.push(SweepJob::new(label, model, kernels))
    }

    /// Number of submitted jobs so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs everything with the `DAB_JOBS` worker count.
    pub fn run(self) -> SweepResults {
        self.run_with_workers(jobs_from_env())
    }

    /// Runs everything with an explicit worker count.
    pub fn run_with_workers(self, workers: usize) -> SweepResults {
        let started = Instant::now();
        let workers = workers.max(1).min(self.jobs.len().max(1));
        let reports = self.runner.run_many_with_workers(self.jobs, workers);
        SweepResults {
            runs: reports,
            wall: started.elapsed(),
            workers,
        }
    }
}

impl Runner {
    /// Runs `jobs` in parallel (`DAB_JOBS` workers, default available
    /// parallelism; `DAB_REPLICATIONS` lanes per batched pass), returning
    /// reports in submission order.
    pub fn run_many(&self, jobs: Vec<SweepJob<'_>>) -> Vec<SweepRun> {
        let workers = jobs_from_env().min(jobs.len().max(1));
        self.run_many_with_workers(jobs, workers)
    }

    /// Runs `jobs` on exactly `workers` scoped threads, with the
    /// replication-lane count taken from `DAB_REPLICATIONS`.
    pub fn run_many_with_workers(&self, jobs: Vec<SweepJob<'_>>, workers: usize) -> Vec<SweepRun> {
        self.run_many_batched(jobs, workers, gpu_sim::par::replications_from_env())
    }

    /// Runs `jobs` on exactly `workers` scoped threads with an explicit
    /// replication-lane cap (`replications <= 1` disables batching).
    ///
    /// Workers claim *execution units* — a solo job, or a seed-only-
    /// differing group lowered to one replicated pass (see `plan_units`)
    /// — from a shared index and deposit each report into the slot matching
    /// its submission position, so the returned order — and therefore
    /// everything derived from it — is independent of scheduling. Each
    /// job's report is deterministic for its effective seed and
    /// bit-identical whether it ran solo or as a replication lane, so
    /// results are invariant to `workers` *and* `replications`.
    pub fn run_many_batched(
        &self,
        jobs: Vec<SweepJob<'_>>,
        workers: usize,
        replications: usize,
    ) -> Vec<SweepRun> {
        let total = jobs.len();
        let units = plan_units(&jobs, replications, self.gpu.trace.enabled());
        let workers = workers.max(1).min(units.len().max(1));
        let next = AtomicUsize::new(0);
        let progress = progress_from_env();
        let done = AtomicUsize::new(0);
        let sweep_started = Instant::now();
        let job_slots: Vec<Mutex<Option<SweepJob<'_>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let result_slots: Vec<Mutex<Option<SweepRun>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    if u >= units.len() {
                        break;
                    }
                    let claimed: Vec<(usize, SweepJob<'_>)> = units[u]
                        .iter()
                        .map(|&i| {
                            (
                                i,
                                job_slots[i]
                                    .lock()
                                    .expect("sweep slot poisoned")
                                    .take()
                                    .expect("sweep job claimed twice"),
                            )
                        })
                        .collect();
                    let kernels = claimed[0].1.kernels;
                    let started = Instant::now();
                    // Every lane's effective seed is resolved per job — an
                    // explicit `.with_seed` override and the runner default
                    // never mix within one lane.
                    let mut idxs = Vec::with_capacity(claimed.len());
                    let mut labels = Vec::with_capacity(claimed.len());
                    let mut seeds = Vec::with_capacity(claimed.len());
                    let lanes: Vec<GpuSim> = claimed
                        .into_iter()
                        .map(|(i, job)| {
                            let seed = job.seed.unwrap_or(self.seed);
                            idxs.push(i);
                            labels.push(job.label);
                            seeds.push(seed);
                            GpuSim::new(self.gpu.clone(), job.model, NdetSource::seeded(seed))
                        })
                        .collect();
                    let reports = if lanes.len() == 1 {
                        vec![lanes.into_iter().next().expect("one lane").run(kernels)]
                    } else {
                        GpuSim::run_replicated(lanes, kernels)
                    };
                    let elapsed = started.elapsed();
                    for ((i, label), (seed, report)) in idxs
                        .into_iter()
                        .zip(labels)
                        .zip(seeds.into_iter().zip(reports))
                    {
                        if self.verbose {
                            eprintln!(
                                "    [{:>3}/{total} {label}] {} cycles, {:.1?}",
                                i + 1,
                                report.cycles(),
                                elapsed
                            );
                        }
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if progress {
                            eprintln!(
                                "{}",
                                progress_line(
                                    finished,
                                    total,
                                    &label,
                                    elapsed,
                                    sweep_started.elapsed()
                                )
                            );
                        }
                        crate::maybe_write_trace(&label, &report);
                        *result_slots[i].lock().expect("sweep slot poisoned") = Some(SweepRun {
                            label,
                            seed,
                            report,
                        });
                    }
                });
            }
        });
        result_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("sweep job never completed")
            })
            .collect()
    }
}

/// Groups submitted jobs into execution units: each inner vec holds the
/// submission indices of one unit — a single solo job, or up to
/// `replications` jobs lowered to one replication-batched pass.
///
/// Jobs batch together only when they run the *same kernel slice* (pointer
/// identity — labels and seeds are irrelevant) and their models return the
/// same [`replication_key`](ExecutionModel::replication_key); per the trait
/// contract, equal keys mean the lanes can differ only in timing seed.
/// `None`-keyed models always run solo, as does everything when
/// `replications <= 1` or tracing is on (a replicated pass cannot produce
/// per-job traces).
fn plan_units(jobs: &[SweepJob<'_>], replications: usize, trace_on: bool) -> Vec<Vec<usize>> {
    if replications <= 1 || trace_on {
        return (0..jobs.len()).map(|i| vec![i]).collect();
    }
    let mut units: Vec<Vec<usize>> = Vec::new();
    // Per distinct (kernel identity, model key): the still-fillable unit.
    let mut open: Vec<((usize, usize, String), usize)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let Some(model_key) = job.model.replication_key() else {
            units.push(vec![i]);
            continue;
        };
        let key = (job.kernels.as_ptr() as usize, job.kernels.len(), model_key);
        match open.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) if units[entry.1].len() < replications => units[entry.1].push(i),
            Some(entry) => {
                units.push(vec![i]);
                entry.1 = units.len() - 1;
            }
            None => {
                units.push(vec![i]);
                open.push((key, units.len() - 1));
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use dab_workloads::microbench::atomic_sum_grid;
    use dab_workloads::scale::Scale;

    fn tiny_runner() -> Runner {
        let mut r = Runner::at_scale(Scale::Ci);
        r.gpu = gpu_sim::config::GpuConfig::tiny();
        r
    }

    #[test]
    fn sweep_preserves_submission_order() {
        let r = tiny_runner();
        let grids: Vec<Vec<KernelGrid>> = (0..6)
            .map(|i| vec![atomic_sum_grid(64 + 32 * i, 0x2000_0000)])
            .collect();
        let mut sweep = Sweep::new(&r);
        let ids: Vec<JobId> = grids
            .iter()
            .enumerate()
            .map(|(i, g)| sweep.baseline(format!("job{i}"), g))
            .collect();
        let res = sweep.run_with_workers(3);
        assert_eq!(res.runs().len(), 6);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(res.runs()[i].label, format!("job{i}"));
            assert_eq!(res.runs()[i].report.cycles(), res.cycles(*id));
        }
        // Bigger grids take longer; order must still match submission.
        assert!(res.runs()[5].report.cycles() > res.runs()[0].report.cycles());
    }

    #[test]
    fn seed_override_sticks() {
        let r = tiny_runner();
        let grid = vec![atomic_sum_grid(64, 0x2000_0000)];
        let mut sweep = Sweep::new(&r);
        sweep.push(SweepJob::new("seeded", Box::new(BaselineModel::new()), &grid).with_seed(7));
        let res = sweep.run_with_workers(1);
        assert_eq!(res.runs()[0].seed, 7);
    }

    #[test]
    fn worker_count_is_clamped() {
        let r = tiny_runner();
        let grid = vec![atomic_sum_grid(64, 0x2000_0000)];
        let mut sweep = Sweep::new(&r);
        sweep.baseline("only", &grid);
        let res = sweep.run_with_workers(64);
        assert_eq!(res.workers, 1);
    }

    fn fingerprint(run: &SweepRun) -> (String, u64, u64, u64, String) {
        (
            run.label.clone(),
            run.seed,
            run.report.cycles(),
            run.report.digest(),
            format!("{:?}", run.report.stats),
        )
    }

    #[test]
    fn batched_sweep_matches_solo_per_job() {
        let r = tiny_runner();
        let grid = vec![atomic_sum_grid(96, 0x2000_0000)];
        let other = vec![atomic_sum_grid(64, 0x3000_0000)];
        let jobs = || {
            vec![
                SweepJob::new("s1", Box::new(BaselineModel::new()), &grid).with_seed(1),
                SweepJob::new("s2", Box::new(BaselineModel::new()), &grid).with_seed(2),
                // Different kernel slice: must not join the group above.
                SweepJob::new("other", Box::new(BaselineModel::new()), &other).with_seed(1),
                SweepJob::new("s3", Box::new(BaselineModel::new()), &grid).with_seed(3),
            ]
        };
        let solo: Vec<_> = r
            .run_many_batched(jobs(), 2, 1)
            .iter()
            .map(fingerprint)
            .collect();
        let batched: Vec<_> = r
            .run_many_batched(jobs(), 2, 4)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(solo, batched);
    }

    #[test]
    fn mixed_seed_overrides_use_effective_seeds_in_batches() {
        // Regression (satellite: `with_seed` audit): a batch mixing
        // seed-overridden jobs with jobs inheriting the runner seed must
        // resolve each lane's effective seed independently.
        let mut r = tiny_runner();
        r.seed = 5;
        let grid = vec![atomic_sum_grid(96, 0x2000_0000)];
        let jobs = || {
            vec![
                SweepJob::new("override7", Box::new(BaselineModel::new()), &grid).with_seed(7),
                SweepJob::new("inherit", Box::new(BaselineModel::new()), &grid),
                SweepJob::new("override5", Box::new(BaselineModel::new()), &grid).with_seed(5),
            ]
        };
        let batched = r.run_many_batched(jobs(), 1, 4);
        assert_eq!(
            batched.iter().map(|x| x.seed).collect::<Vec<_>>(),
            vec![7, 5, 5]
        );
        // The inheriting lane is bit-identical to the explicit seed-5 lane
        // and to its own solo run.
        assert_eq!(batched[1].report.digest(), batched[2].report.digest());
        assert_eq!(batched[1].report.cycles(), batched[2].report.cycles());
        let solo = r.run_many_batched(jobs(), 1, 1);
        for (b, s) in batched.iter().zip(&solo) {
            assert_eq!(fingerprint(b), fingerprint(s));
        }
    }

    #[test]
    fn plan_units_groups_by_kernels_and_model_key() {
        // A model that opts out of replication batching.
        #[derive(Debug)]
        struct Opaque;
        impl ExecutionModel for Opaque {
            fn name(&self) -> String {
                "opaque".to_string()
            }
        }
        let grid_a = vec![atomic_sum_grid(64, 0x2000_0000)];
        let grid_b = vec![atomic_sum_grid(64, 0x2000_0000)];
        let jobs = vec![
            SweepJob::new("a0", Box::new(BaselineModel::new()), &grid_a),
            SweepJob::new("b0", Box::new(BaselineModel::new()), &grid_b),
            SweepJob::new("a1", Box::new(BaselineModel::new()), &grid_a),
            SweepJob::new("opaque", Box::new(Opaque), &grid_a),
            SweepJob::new("a2", Box::new(BaselineModel::new()), &grid_a),
        ];
        // Identical kernel *content* but distinct slices stay separate;
        // None-keyed models stay solo; groups cap at `replications`.
        assert_eq!(
            plan_units(&jobs, 2, false),
            vec![vec![0, 2], vec![1], vec![3], vec![4]]
        );
        assert_eq!(
            plan_units(&jobs, 4, false),
            vec![vec![0, 2, 4], vec![1], vec![3]]
        );
        // Tracing or replications<=1 force the solo plan.
        let solo: Vec<Vec<usize>> = (0..jobs.len()).map(|i| vec![i]).collect();
        assert_eq!(plan_units(&jobs, 4, true), solo);
        assert_eq!(plan_units(&jobs, 1, false), solo);
    }

    #[test]
    fn progress_line_reports_eta() {
        // 2 of 6 jobs done after 4s -> 4 remain at 2s/job -> eta 8s.
        let line = progress_line(
            2,
            6,
            "BC_1k/dab",
            Duration::from_secs(1),
            Duration::from_secs(4),
        );
        assert!(line.contains("[2/6]"), "{line}");
        assert!(line.contains("BC_1k/dab"), "{line}");
        assert!(line.contains("eta 8.0s"), "{line}");
        // Everything done: eta hits zero.
        let last = progress_line(
            6,
            6,
            "tail",
            Duration::from_secs(1),
            Duration::from_secs(12),
        );
        assert!(last.contains("eta 0.0ns"), "{last}");
    }

    #[test]
    fn plan_units_overflow_chunks_stay_ordered() {
        let grid = vec![atomic_sum_grid(64, 0x2000_0000)];
        let jobs: Vec<SweepJob<'_>> = (0..5)
            .map(|i| {
                SweepJob::new(format!("s{i}"), Box::new(BaselineModel::new()), &grid)
                    .with_seed(i as u64)
            })
            .collect();
        assert_eq!(
            plan_units(&jobs, 2, false),
            vec![vec![0, 1], vec![2, 3], vec![4]]
        );
    }
}
