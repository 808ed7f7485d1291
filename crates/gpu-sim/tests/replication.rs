//! Property: replication batching is a throughput knob, never a results knob.
//!
//! Random microbench traces — mixed ALU / load / store / reduction /
//! blocking-atomic / barrier / fence programs — run once per seed as
//! independent solo simulations (the equivalence oracle) and once as a
//! single [`GpuSim::run_replicated`] bank whose lanes differ only in their
//! `NdetSource` seed. Every lane's `RunReport` — final cycle, memory
//! digest, per-kernel cycle breakdown, and the *full* statistics set
//! including the `det.engine.*` activity counters — must be byte-identical to
//! its solo counterpart, at lane counts 1 and 4.
//!
//! Unlike the engine-equivalence suite, nothing is stripped from the
//! stats: a batched lane shares only immutable per-kernel statics with its
//! siblings, so even activity bookkeeping must not notice the batching.

use proptest::prelude::*;

use gpu_sim::config::GpuConfig;
use gpu_sim::engine::GpuSim;
use gpu_sim::exec::BaselineModel;
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, MemAccess, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;

const LANES: usize = 8;

/// Decodes one drawn `(opcode, operand, count)` triple into an instruction.
/// Addresses stay in a small window so warps genuinely collide on sectors,
/// partitions, and atomic cells.
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
        _ => Instr::Fence,
    }
}

/// Raw drawn shape: CTAs → warps → instruction triples.
type RawGrid = Vec<Vec<Vec<(u32, u64, u32)>>>;

/// Builds a grid from the raw draw. Every warp of a CTA is trimmed to the
/// same barrier count (the minimum across its warps), so barriers always
/// release.
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

/// Everything a `RunReport` determines, rendered comparable. No stats are
/// stripped: batching must be invisible even to activity counters.
fn fingerprint(r: &gpu_sim::RunReport) -> (u64, u64, String, String) {
    (
        r.cycles(),
        r.digest(),
        format!("{:?}", r.kernel_cycles),
        format!("{:?}", r.stats),
    )
}

/// Runs one seed solo and returns its fingerprint.
fn run_solo(grid: &KernelGrid, seed: u64) -> (u64, u64, String, String) {
    let sim = GpuSim::new(
        GpuConfig::tiny(),
        Box::new(BaselineModel::new()),
        NdetSource::seeded(seed),
    );
    fingerprint(&sim.run(std::slice::from_ref(grid)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn replicated_lanes_match_solo_runs(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u32..7, 0u64..4, 0u32..8), 1..6),
                1..3,
            ),
            1..5,
        ),
        seeds in proptest::collection::vec(any::<u64>(), 4..5),
    ) {
        let grid = build_grid(raw);
        let kernels = vec![grid];
        for lane_count in [1usize, 4] {
            let lane_seeds = &seeds[..lane_count];
            let lanes: Vec<GpuSim> = lane_seeds
                .iter()
                .map(|&s| {
                    GpuSim::new(
                        GpuConfig::tiny(),
                        Box::new(BaselineModel::new()),
                        NdetSource::seeded(s),
                    )
                })
                .collect();
            let reports = GpuSim::run_replicated(lanes, &kernels);
            prop_assert_eq!(reports.len(), lane_count);
            for (report, &seed) in reports.iter().zip(lane_seeds) {
                prop_assert_eq!(
                    fingerprint(report),
                    run_solo(&kernels[0], seed),
                    "lanes={}, seed={}", lane_count, seed
                );
            }
        }
    }
}

/// Duplicate seeds in one bank must yield byte-identical sibling reports —
/// lanes share statics but never mutable state, so equal seeds cannot
/// diverge or collapse into one another.
#[test]
fn duplicate_seeds_produce_identical_lanes() {
    let red = Instr::Red {
        op: AtomicOp::AddF32,
        accesses: (0..LANES)
            .map(|l| AtomicAccess::new(l, 0x1000, Value::F32(1.5)))
            .collect(),
    };
    let cta = CtaSpec::new(0, vec![WarpProgram::new(vec![red.clone(), red], LANES)]);
    let kernels = vec![KernelGrid::new("dup", vec![cta])];
    let lanes: Vec<GpuSim> = (0..3)
        .map(|_| {
            GpuSim::new(
                GpuConfig::tiny(),
                Box::new(BaselineModel::new()),
                NdetSource::seeded(7),
            )
        })
        .collect();
    let reports = GpuSim::run_replicated(lanes, &kernels);
    let first = fingerprint(&reports[0]);
    for r in &reports[1..] {
        assert_eq!(fingerprint(r), first, "equal-seed lanes diverged");
    }
}
