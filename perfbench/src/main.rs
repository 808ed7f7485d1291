//! Simulation program of the reproduction benchmark.
//!
//! Runs one workload (`conv_gpudet`, `graph_dab` or `micro_seeds`, see
//! `perfbench/README.md` for why each exists) as repeated sweeps at CI scale
//! with one sweep worker per available CPU, and prints one JSON record per
//! line on stdout. It derives nothing: `perfbench/run.py` turns the records
//! into metrics and checks the outputs against the committed fig10 oracle.
//!
//! ```text
//! perfbench-sim --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Records, in order:
//! - `host`: worker count and scale;
//! - `sweep`: one per sweep — wall time, per-job label/seed/cycles/digest/
//!   wall, and the sweep's summed phase times, `det.*` counters and (traced
//!   sweeps only) span-profiler totals;
//! - `calls` (`--trace 1` only): `GpuSim::new` and `KernelStatics::build`
//!   timed from outside;
//! - `setup`: seconds of each timed generator call that builds the inputs;
//! - `rss`: the process's peak resident set.
//!
//! With `--trace 0` every sweep is untraced. With `--trace 1` the first half
//! of the time budget runs untraced sweeps and the second half traced ones
//! (`GpuConfig::profile`), so the two halves give the profiler's overhead.
//! A sweep that panics is reported as `sweep_panic` and ends the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dab::{DabConfig, DabModel};
use dab_bench::{Runner, Sweep, SweepJob, SweepResults};
use dab_workloads::scale::Scale;
use dab_workloads::suite::{conv_suite, graph_suite, micro_suite, Benchmark};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::{GpuSim, KernelStatics};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

/// Consecutive ndet seeds one `micro_seeds` sweep covers, starting at the
/// workload seed.
const MICRO_SEEDS: u64 = 16;

/// Every sweep runs on freshly generated inputs. Before it the generator
/// is timed at least once and until this much time is spent, so the set-up
/// samples span the whole run the way the sweeps do...
const SETUP_SLICE: Duration = Duration::from_millis(20);
/// ...but never more than this many calls at a time.
const SETUP_MAX_CALLS: usize = 10;

/// Passes over the workload's jobs and kernels when timing `GpuSim::new`
/// and `KernelStatics::build` from outside.
const CALL_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ConvGpudet,
    GraphDab,
    MicroSeeds,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "conv_gpudet" => Some(Self::ConvGpudet),
            "graph_dab" => Some(Self::GraphDab),
            "micro_seeds" => Some(Self::MicroSeeds),
            _ => None,
        }
    }

    /// The `dab-workloads` generator call that builds this workload's
    /// inputs.
    fn generate(self) -> Vec<Benchmark> {
        match self {
            Self::ConvGpudet => conv_suite(Scale::Ci),
            Self::GraphDab => graph_suite(Scale::Ci),
            Self::MicroSeeds => micro_suite(Scale::Ci),
        }
    }

    /// Models run on every benchmark of the workload.
    fn models(self) -> &'static [Model] {
        match self {
            Self::ConvGpudet => &[Model::GpuDet],
            Self::GraphDab | Self::MicroSeeds => &[Model::Baseline, Model::Dab],
        }
    }

    /// Ndet seeds each (benchmark, model) pair runs under.
    fn seeds(self, seed: u64) -> std::ops::Range<u64> {
        match self {
            Self::MicroSeeds => seed..seed + MICRO_SEEDS,
            Self::ConvGpudet | Self::GraphDab => seed..seed + 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Baseline,
    Dab,
    GpuDet,
}

impl Model {
    /// Label suffix, matching the fig10 results labels.
    fn name(self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::Dab => "dab",
            Self::GpuDet => "gpudet",
        }
    }

    /// The model fig10 runs under this name.
    fn build(self, gpu: &GpuConfig) -> Box<dyn ExecutionModel> {
        match self {
            Self::Baseline => Box::new(BaselineModel::new()),
            Self::Dab => Box::new(DabModel::new(gpu, DabConfig::paper_default())),
            Self::GpuDet => Box::new(GpuDetModel::new(gpu, GpuDetConfig::default())),
        }
    }
}

/// One job of a sweep, before its model is built.
struct JobSpec<'k> {
    label: String,
    model: Model,
    seed: u64,
    bench: &'k Benchmark,
}

/// Every job of one sweep, in submission order. Labels are
/// `<benchmark>/<model>` as in `results/fig10_overall.json`; `micro_seeds`
/// appends `@<seed>`.
fn job_specs(workload: Workload, suite: &[Benchmark], seed: u64) -> Vec<JobSpec<'_>> {
    let mut specs = Vec::new();
    for bench in suite {
        for &model in workload.models() {
            for s in workload.seeds(seed) {
                let mut label = format!("{}/{}", bench.name, model.name());
                if workload == Workload::MicroSeeds {
                    write!(label, "@{s}").expect("writing to a String cannot fail");
                }
                specs.push(JobSpec {
                    label,
                    model,
                    seed: s,
                    bench,
                });
            }
        }
    }
    specs
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(&flag[2..], value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload =
        Workload::parse(get("workload")?).ok_or_else(|| "unknown --workload".to_string())?;
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| "--seconds must be a positive number".to_string())?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_map<V: std::fmt::Display>(m: &BTreeMap<&str, V>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Times generator calls into `secs` until [`SETUP_SLICE`] is spent or
/// [`SETUP_MAX_CALLS`] calls are made. Returns the last call's inputs; each
/// earlier call's are dropped before the next call.
fn time_setup(workload: Workload, secs: &mut Vec<f64>) -> Vec<Benchmark> {
    let mut spent = Duration::ZERO;
    let mut calls = 0;
    loop {
        let started = Instant::now();
        let suite = black_box(workload.generate());
        let took = started.elapsed();
        secs.push(took.as_secs_f64());
        spent += took;
        calls += 1;
        if spent >= SETUP_SLICE || calls >= SETUP_MAX_CALLS {
            return suite;
        }
    }
}

/// Runs one sweep of `specs`; `None` when a job panicked.
fn run_sweep(runner: &Runner, specs: &[JobSpec<'_>], workers: usize) -> Option<SweepResults> {
    let mut sweep = Sweep::new(runner);
    for spec in specs {
        let model = spec.model.build(&runner.gpu);
        sweep.push(
            SweepJob::new(spec.label.clone(), model, &spec.bench.kernels).with_seed(spec.seed),
        );
    }
    catch_unwind(AssertUnwindSafe(|| sweep.run_with_workers(workers))).ok()
}

/// One `sweep` record: per-job outputs plus the sweep's summed layer data.
fn sweep_record(traced: bool, specs: &[JobSpec<'_>], results: &SweepResults) -> String {
    let mut jobs = Vec::with_capacity(specs.len());
    let mut phase: BTreeMap<&str, f64> = BTreeMap::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut profile_us: BTreeMap<&str, u64> = BTreeMap::new();
    for (spec, run) in specs.iter().zip(results.runs()) {
        let r = &run.report;
        jobs.push(format!(
            "{{\"label\":{},\"model\":{},\"seed\":{},\"cycles\":{},\"digest\":\"0x{:016x}\",\"wall_s\":{}}}",
            json_str(&run.label),
            json_str(spec.model.name()),
            run.seed,
            r.cycles(),
            r.digest(),
            r.wall_secs()
        ));
        let (prepare, commit, merge) = r.phase_wall.secs();
        *phase.entry("prepare_s").or_default() += prepare;
        *phase.entry("commit_s").or_default() += commit;
        *phase.entry("merge_s").or_default() += merge;
        let s = &r.stats;
        for (name, n) in [
            ("cycles", s.cycles),
            ("warp_instrs", s.warp_instrs),
            ("icnt_stall_cycles", s.icnt_stall_cycles),
        ] {
            *counters.entry(name).or_default() += n;
        }
        for (&name, &n) in &s.counters {
            *counters.entry(name).or_default() += n;
        }
        if let Some(p) = &r.profile {
            for (name, us, _) in p.rows() {
                *profile_us.entry(name).or_default() += us;
            }
        }
    }
    format!(
        "{{\"record\":\"sweep\",\"traced\":{traced},\"wall_s\":{},\"workers\":{},\"jobs\":[{}],\"phase\":{},\"counters\":{},\"profile_us\":{}}}",
        results.wall.as_secs_f64(),
        results.workers,
        jobs.join(","),
        json_map(&phase),
        json_map(&counters),
        json_map(&profile_us)
    )
}

/// Runs sweeps for `budget` (at least one, and none that the longest sweep
/// so far says would overrun it), each on inputs generated just before it
/// with the generator calls timed into `setup`, and prints a record per
/// sweep. Returns `false` when a sweep panicked.
fn measure(
    workload: Workload,
    runner: &Runner,
    workers: usize,
    budget: Duration,
    setup: &mut Vec<f64>,
) -> bool {
    let traced = runner.gpu.profile;
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    loop {
        // One suite alive at a time, so peak RSS is the workload's own.
        let suite = time_setup(workload, setup);
        let specs = job_specs(workload, &suite, runner.seed);
        let Some(results) = run_sweep(runner, &specs, workers) else {
            println!(
                "{{\"record\":\"sweep_panic\",\"traced\":{traced},\"jobs\":{}}}",
                specs.len()
            );
            return false;
        };
        longest = longest.max(results.wall);
        println!("{}", sweep_record(traced, &specs, &results));
        if started.elapsed() + longest > budget {
            return true;
        }
    }
}

/// Times `GpuSim::new` for every job and `KernelStatics::build` for every
/// kernel of the workload, [`CALL_PASSES`] times; prints the totals.
fn time_calls(gpu: &GpuConfig, specs: &[JobSpec<'_>], suite: &[Benchmark]) {
    let (mut new_calls, mut new_secs) = (0u64, 0f64);
    let (mut statics_calls, mut statics_secs) = (0u64, 0f64);
    for _ in 0..CALL_PASSES {
        for spec in specs {
            let model = spec.model.build(gpu);
            let ndet = NdetSource::seeded(spec.seed);
            let started = Instant::now();
            let sim = black_box(GpuSim::new(gpu.clone(), model, ndet));
            new_secs += started.elapsed().as_secs_f64();
            new_calls += 1;
            drop(sim);
        }
        for grid in suite.iter().flat_map(|b| &b.kernels) {
            let started = Instant::now();
            let statics = black_box(KernelStatics::build(gpu, grid));
            statics_secs += started.elapsed().as_secs_f64();
            statics_calls += 1;
            drop(statics);
        }
    }
    println!(
        "{{\"record\":\"calls\",\"gpu_sim_new\":{{\"calls\":{new_calls},\"secs\":{new_secs}}},\"kernel_statics\":{{\"calls\":{statics_calls},\"secs\":{statics_secs}}}}}"
    );
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() {
    // The measured program must see no knob: every `DAB_*` variable changes
    // what or how the simulator runs.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DAB_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench-sim: refusing to run with {} set",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-sim: {e}");
            eprintln!(
                "usage: perfbench-sim --workload conv_gpudet|graph_dab|micro_seeds \
                 --seed <n> --seconds <s> --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{{\"record\":\"host\",\"workers\":{workers},\"scale\":{}}}",
        json_str(Scale::Ci.label())
    );

    let mut setup = Vec::new();
    let mut runner = Runner::at_scale(Scale::Ci);
    runner.seed = args.seed;
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let half = budget / 2;
        let mut traced = runner.clone();
        traced.gpu.profile = true;
        if measure(args.workload, &runner, workers, half, &mut setup)
            && measure(args.workload, &traced, workers, half, &mut setup)
        {
            let suite = args.workload.generate();
            let specs = job_specs(args.workload, &suite, args.seed);
            time_calls(&runner.gpu, &specs, &suite);
        }
    } else {
        measure(args.workload, &runner, workers, budget, &mut setup);
    }

    let secs: Vec<String> = setup.iter().map(f64::to_string).collect();
    println!("{{\"record\":\"setup\",\"secs\":[{}]}}", secs.join(","));
    match peak_rss_mb() {
        Ok(mb) => println!("{{\"record\":\"rss\",\"peak_rss_mb\":{mb}}}"),
        Err(e) => {
            eprintln!("perfbench-sim: {e}");
            std::process::exit(1);
        }
    }
}
