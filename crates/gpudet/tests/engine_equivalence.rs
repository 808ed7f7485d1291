//! Property: under GPUDet, `DAB_ENGINE` is a throughput knob, never a
//! results knob.
//!
//! GPUDet is the one model that closes its issue gate (commit mode shuts
//! every scheduler out, serial mode admits only the token holder's), so
//! the event engine parks whole schedulers and skips the cycles between
//! serialized atomics and commit deadlines. These grids run through the
//! dense engine (the oracle) and the event engine: cycles, digest, memory
//! values and every statistic except the by-design-divergent
//! `det.engine.*` activity counters must be identical. The grids cover
//! atomics, buffered stores, barriers that span quanta and back-to-back
//! kernels, at a short and the default quantum and several seeds.

use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, MemAccess, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

const LANES: usize = 32;

fn red(op: AtomicOp, addr: u64, value: impl Fn(usize) -> Value) -> Instr {
    Instr::Red {
        op,
        accesses: (0..LANES)
            .map(|l| AtomicAccess::new(l, addr, value(l)))
            .collect(),
    }
}

/// Order-sensitive float reductions and returning atomics on two cells,
/// behind a short ALU burst: serial mode dominates.
fn atomics(ctas: usize) -> KernelGrid {
    let specs = (0..ctas)
        .map(|c| {
            let warps = (0..2)
                .map(|w| {
                    let seed = (c * 2 + w) as f32;
                    WarpProgram::new(
                        vec![
                            Instr::Alu {
                                cycles: 2,
                                count: 3 + w as u32,
                            },
                            red(AtomicOp::AddF32, 0x400, |l| {
                                Value::F32(0.1 * (seed * 32.0 + l as f32 + 1.0))
                            }),
                            Instr::Atom {
                                op: AtomicOp::AddU32,
                                accesses: vec![AtomicAccess::new(0, 0x480, Value::U32(1))],
                            },
                            red(AtomicOp::AddU32, 0x404, |_| Value::U32(1)),
                        ],
                        LANES,
                    )
                })
                .collect();
            CtaSpec::new(c, warps)
        })
        .collect();
    KernelGrid::new("atomics", specs)
}

/// Loads, stores (buffered in parallel mode) and ALU work over several
/// quanta, with a trailing reduction so serial mode still runs.
fn stores(ctas: usize) -> KernelGrid {
    let specs = (0..ctas)
        .map(|c| {
            let base = 0x1_0000 + c as u64 * 0x400;
            let body = (0..6)
                .flat_map(|i| {
                    [
                        Instr::Load {
                            accesses: vec![MemAccess::per_lane_f32(base + i * 0x80, LANES)],
                        },
                        Instr::Alu {
                            cycles: 1,
                            count: 4,
                        },
                        Instr::Store {
                            accesses: vec![MemAccess::per_lane_f32(
                                0x8_0000 + base + i * 0x80,
                                LANES,
                            )],
                        },
                    ]
                })
                .chain([red(AtomicOp::AddU32, 0x800, |_| Value::U32(1))])
                .collect();
            CtaSpec::new(c, vec![WarpProgram::new(body, LANES)])
        })
        .collect();
    KernelGrid::new("stores", specs)
}

/// One warp per CTA spins through many quanta of ALU work before a barrier
/// its peers reached long ago; every warp then reduces.
fn barriers(ctas: usize) -> KernelGrid {
    let prog = |spin: u32| {
        WarpProgram::new(
            vec![
                Instr::Alu {
                    cycles: 1,
                    count: spin,
                },
                Instr::Bar,
                red(AtomicOp::AddU32, 0xc00, |_| Value::U32(1)),
                Instr::Bar,
                Instr::Store {
                    accesses: vec![MemAccess::per_lane_f32(0x2_0000, LANES)],
                },
            ],
            LANES,
        )
    };
    let specs = (0..ctas)
        .map(|c| CtaSpec::new(c, vec![prog(3), prog(450 + 7 * c as u32), prog(20)]))
        .collect();
    KernelGrid::new("barriers", specs)
}

fn run(kernels: &[KernelGrid], quantum: u32, engine: EngineKind, ndet: NdetSource) -> RunReport {
    let mut gpu = GpuConfig::tiny();
    gpu.engine = engine;
    let cfg = GpuDetConfig {
        quantum,
        ..GpuDetConfig::default()
    };
    let model = GpuDetModel::new(&gpu, cfg);
    GpuSim::new(gpu, Box::new(model), ndet).run(kernels)
}

/// Runs `kernels` under both engines, asserts they agree on everything but
/// the engine activity counters, and returns the event run.
fn assert_engine_invariant(kernels: &[KernelGrid], quantum: u32, seed: Option<u64>) -> RunReport {
    let ndet = || seed.map_or_else(NdetSource::disabled, NdetSource::seeded);
    let dense = run(kernels, quantum, EngineKind::Dense, ndet());
    let event = run(kernels, quantum, EngineKind::Event, ndet());
    let ctx = format!(
        "kernels {:?}, quantum {quantum}, seed {seed:?}",
        kernels.iter().map(|k| &k.name).collect::<Vec<_>>()
    );
    assert_eq!(dense.cycles(), event.cycles(), "cycles: {ctx}");
    assert_eq!(
        dense.kernel_cycles, event.kernel_cycles,
        "kernel cycles: {ctx}"
    );
    assert_eq!(dense.digest(), event.digest(), "digest: {ctx}");
    assert!(dense.values == event.values, "memory values: {ctx}");
    for key in [
        "det.gpudet.parallel_cycles",
        "det.gpudet.commit_cycles",
        "det.gpudet.serial_cycles",
        "det.gpudet.quanta",
    ] {
        assert_eq!(
            dense.stats.counter(key),
            event.stats.counter(key),
            "{key}: {ctx}"
        );
    }
    let strip = |r: &RunReport| {
        let mut stats = r.stats.clone();
        stats.counters.retain(|k, _| !k.starts_with("det.engine."));
        format!("{stats:?}")
    };
    assert_eq!(strip(&dense), strip(&event), "statistics: {ctx}");
    event
}

const QUANTA: [u32; 2] = [10, 200];
const SEEDS: [Option<u64>; 4] = [None, Some(1), Some(7), Some(0x5eed)];

#[test]
fn atomic_grids_are_engine_invariant() {
    for quantum in QUANTA {
        for seed in SEEDS {
            assert_engine_invariant(&[atomics(12)], quantum, seed);
        }
    }
}

#[test]
fn buffered_store_grids_are_engine_invariant() {
    for quantum in QUANTA {
        for seed in SEEDS {
            assert_engine_invariant(&[stores(6)], quantum, seed);
        }
    }
}

#[test]
fn barriers_spanning_quanta_are_engine_invariant() {
    for quantum in QUANTA {
        for seed in SEEDS {
            let r = assert_engine_invariant(&[barriers(4)], quantum, seed);
            assert!(r.stats.counter("det.gpudet.quanta") >= 2);
        }
    }
}

#[test]
fn two_kernel_runs_are_engine_invariant() {
    for quantum in QUANTA {
        for seed in SEEDS {
            assert_engine_invariant(&[stores(4), atomics(8)], quantum, seed);
        }
    }
}

/// The event engine must actually elide GPUDet's serialized cycles — the
/// waits for each token holder's atomic and for commit deadlines —
/// otherwise the equivalence above holds only because nothing is skipped.
#[test]
fn event_engine_skips_serial_and_commit_cycles() {
    for quantum in QUANTA {
        let r = assert_engine_invariant(&[atomics(12)], quantum, Some(1));
        let skipped = r.stats.counter("det.engine.cycles_skipped");
        let gated = r.stats.counter("det.gpudet.serial_cycles")
            + r.stats.counter("det.gpudet.commit_cycles");
        assert!(
            skipped * 2 > gated,
            "quantum {quantum}: only {skipped} of {gated} serial and commit cycles skipped"
        );
    }
}
