//! Property: the structured event trace is an *observation*, never a
//! perturbation — and the observation itself is deterministic.
//!
//! Random microbench traces run at full trace detail under both engines:
//!
//! - at a fixed engine, the **whole serialized trace** (arch events,
//!   sample rows, and engine skip spans) is byte-identical across repeated
//!   runs;
//! - across dense vs. event engines, the deterministic `[arch]` and
//!   `[samples]` sections are identical (the `[engine]` skip spans differ
//!   by design — that is what the event engine is for), checked with the
//!   same `first_divergence` bisector `dab-trace diff` uses;
//! - recording the trace does not change the simulation: cycles and
//!   digest match an untraced run bit for bit.

use proptest::prelude::*;

use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::GpuSim;
use gpu_sim::exec::BaselineModel;
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, LockKind, MemAccess, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;

const LANES: usize = 8;

/// Decodes one drawn `(opcode, operand, count)` triple into an instruction
/// (same shape as the engine-equivalence suite: small address window so
/// warps collide on sectors, partitions, and atomic cells).
fn decode(opcode: u32, operand: u64, count: u32) -> Instr {
    match opcode {
        0 => Instr::Alu {
            cycles: 1 + count % 3,
            count: 1 + count % 4,
        },
        1 => Instr::Load {
            accesses: vec![MemAccess::per_lane_f32(
                0x1_0000 + (operand % 4) * 0x100,
                LANES,
            )],
        },
        2 => Instr::Store {
            accesses: vec![MemAccess::per_lane_f32(
                0x2_0000 + (operand % 4) * 0x100,
                LANES,
            )],
        },
        3 => Instr::Red {
            op: AtomicOp::AddU32,
            accesses: (0..LANES)
                .map(|l| AtomicAccess::new(l, 0x3_0000 + (operand % 4) * 4, Value::U32(1)))
                .collect(),
        },
        4 => Instr::Atom {
            op: AtomicOp::AddU32,
            accesses: vec![AtomicAccess::new(
                0,
                0x4_0000 + (operand % 2) * 4,
                Value::U32(3),
            )],
        },
        5 => Instr::Bar,
        6 => Instr::Fence,
        // Cross-cluster interaction on purpose: every warp contends on one
        // of two shared ticket locks whose home cells sit in the same
        // small window as the atomics above, so lock grants and
        // same-partition atomic traffic interleave in the traces.
        _ => Instr::LockedSection {
            kind: if operand.is_multiple_of(2) {
                LockKind::TestAndSet
            } else {
                LockKind::TestAndSetBackoff
            },
            lock_addr: 0x5_0000 + (operand % 2) * 0x40,
            op: AtomicOp::AddF32,
            accesses: (0..LANES)
                .map(|l| AtomicAccess::new(l, 0x3_0000 + (operand % 4) * 4, Value::F32(1.0)))
                .collect(),
            critical_cycles: 1 + count % 3,
        },
    }
}

/// Raw drawn shape: CTAs → warps → instruction triples.
type RawGrid = Vec<Vec<Vec<(u32, u64, u32)>>>;

/// Builds a grid from the raw draw, trimming every warp of a CTA to the
/// same barrier count so barriers always release.
fn build_grid(raw: RawGrid) -> KernelGrid {
    let ctas = raw
        .into_iter()
        .enumerate()
        .map(|(i, warps)| {
            let decoded: Vec<Vec<Instr>> = warps
                .into_iter()
                .map(|instrs| {
                    instrs
                        .into_iter()
                        .map(|(op, operand, count)| decode(op, operand, count))
                        .collect()
                })
                .collect();
            let min_bars = decoded
                .iter()
                .map(|p| p.iter().filter(|x| matches!(x, Instr::Bar)).count())
                .min()
                .unwrap_or(0);
            let programs = decoded
                .into_iter()
                .map(|instrs| {
                    let mut kept = 0usize;
                    let body: Vec<Instr> = instrs
                        .into_iter()
                        .filter(|x| {
                            if matches!(x, Instr::Bar) {
                                kept += 1;
                                kept <= min_bars
                            } else {
                                true
                            }
                        })
                        .collect();
                    WarpProgram::new(body, LANES)
                })
                .collect();
            CtaSpec::new(i, programs)
        })
        .collect();
    KernelGrid::new("random", ctas)
}

/// Runs `grid` with full tracing and returns (cycles, digest, trace).
fn run_traced(grid: &KernelGrid, engine: EngineKind, seed: u64) -> (u64, u64, obs::Trace) {
    let mut cfg = GpuConfig::tiny();
    cfg.engine = engine;
    cfg.trace = obs::TraceMode::Full;
    cfg.trace_sample_interval = 64;
    let sim = GpuSim::new(
        cfg,
        Box::new(BaselineModel::new()),
        NdetSource::seeded(seed),
    );
    let mut r = sim.run(std::slice::from_ref(grid));
    let trace = r.trace.take().expect("tracing was enabled");
    (r.cycles(), r.digest(), trace)
}

/// Runs `grid` untraced and returns (cycles, digest).
fn run_untraced(grid: &KernelGrid, engine: EngineKind, seed: u64) -> (u64, u64) {
    let mut cfg = GpuConfig::tiny();
    cfg.engine = engine;
    let sim = GpuSim::new(
        cfg,
        Box::new(BaselineModel::new()),
        NdetSource::seeded(seed),
    );
    let r = sim.run(std::slice::from_ref(grid));
    assert!(r.trace.is_none(), "untraced run must not record a trace");
    (r.cycles(), r.digest())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn traces_are_repeatable_and_engine_invariant(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u32..8, 0u64..4, 0u32..8), 1..6),
                1..3,
            ),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        let grid = build_grid(raw);
        let mut per_engine = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let (c1, d1, t1) = run_traced(&grid, engine, seed);
            let (c2, d2, t2) = run_traced(&grid, engine, seed);
            // Whole trace (including engine skip spans) is byte-identical
            // across repeated runs.
            prop_assert_eq!(t1.to_text(), t2.to_text(), "repeat diverges, {:?}", engine);
            prop_assert_eq!((c1, d1), (c2, d2), "results diverge, {:?}", engine);
            // Observation never perturbs: untraced run agrees bitwise.
            prop_assert_eq!(
                (c1, d1),
                run_untraced(&grid, engine, seed),
                "tracing perturbed the run, {:?}", engine
            );
            per_engine.push(t1);
        }
        // Across engines the deterministic sections agree; use the same
        // bisector `dab-trace diff` runs (engine section excluded).
        let d = obs::diff::first_divergence(&per_engine[0], &per_engine[1], 5, false);
        prop_assert!(
            d.is_none(),
            "dense vs event trace divergence:\n{}",
            obs::diff::render(d.as_ref().expect("just checked"), "dense", "event")
        );
    }
}

/// The trace must actually contain events and samples on a trace with
/// memory traffic — otherwise the invariance above is vacuous.
#[test]
fn traced_run_records_arch_events_and_samples() {
    let program = WarpProgram::new(
        (0..8)
            .map(|i| Instr::Load {
                accesses: vec![MemAccess::per_lane_f32(0x1_0000 + i * 0x400, LANES)],
            })
            .collect(),
        LANES,
    );
    let grid = KernelGrid::new("idle", vec![CtaSpec::new(0, vec![program])]);
    let (cycles, _, trace) = run_traced(&grid, EngineKind::Event, 0);
    assert!(!trace.arch.is_empty(), "no arch events recorded");
    assert!(
        !trace.skips.is_empty(),
        "event engine recorded no skip spans on a latency-bound trace"
    );
    assert_eq!(
        trace.samples.len() as u64,
        cycles / 64 + 1,
        "one sample per grid point up to the final cycle"
    );
    // Round-trips through the text format.
    let parsed = obs::Trace::parse(&trace.to_text()).expect("well-formed trace");
    assert_eq!(parsed.to_text(), trace.to_text());
}
