//! A from-scratch, cycle-level, trace-driven GPU timing simulator.
//!
//! `gpu-sim` is the substrate on which the *Deterministic Atomic Buffering*
//! (MICRO 2020) reproduction is built. It models a modern GPU at the level
//! the paper's evaluation depends on:
//!
//! - SIMT cores (SMs) with warp contexts, CTA occupancy, and per-SM warp
//!   schedulers (GTO plus the paper's determinism-aware SRR/GTRR/GTAR/GWAT
//!   policies in [`sched`]);
//! - a sectored, set-associative memory hierarchy (per-SM L1s, partitioned
//!   L2 slices) behind a flit-accurate interconnect with bounded buffers
//!   ([`mem`]);
//! - memory partitions whose ROP units apply atomic operations *in queue
//!   order* to a functional value memory ([`values`]), so floating-point
//!   reduction results are bit-exact for whatever commit order a given
//!   architecture produces;
//! - seeded non-determinism injection ([`ndet`]) modeling the run-to-run
//!   timing variation of real hardware.
//!
//! Execution-model hooks ([`exec::ExecutionModel`]) let architecture
//! extensions change how atomics are routed and when warps may issue; the
//! `dab` and `gpudet` crates plug in through that trait. The default
//! [`exec::BaselineModel`] is the non-deterministic GPU the paper normalizes
//! against.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::config::GpuConfig;
//! use gpu_sim::engine::GpuSim;
//! use gpu_sim::exec::BaselineModel;
//! use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
//! use gpu_sim::kernel::{CtaSpec, KernelGrid};
//! use gpu_sim::ndet::NdetSource;
//!
//! // One warp, 32 lanes, each atomically adding 1.0 to the same cell.
//! let red = Instr::Red {
//!     op: AtomicOp::AddF32,
//!     accesses: (0..32)
//!         .map(|l| AtomicAccess::new(l, 0x1000, Value::F32(1.0)))
//!         .collect(),
//! };
//! let cta = CtaSpec::new(0, vec![WarpProgram::new(vec![red], 32)]);
//! let grid = KernelGrid::new("sum", vec![cta]);
//!
//! let mut sim = GpuSim::new(
//!     GpuConfig::tiny(),
//!     Box::new(BaselineModel::new()),
//!     NdetSource::disabled(),
//! );
//! let report = sim.run(&[grid]);
//! assert_eq!(report.values.read_f32(0x1000), 32.0);
//! ```

pub mod config;
pub mod engine;
pub mod exec;
pub mod imeta;
pub mod isa;
pub mod kernel;
pub mod lock;
pub mod mem;
pub mod ndet;
pub mod oracle;
pub mod par;
pub mod sched;
pub mod sm;
pub mod stats;
pub mod values;

pub use config::GpuConfig;
pub use engine::{GpuSim, RunReport};
pub use exec::{BaselineModel, ExecutionModel};
pub use ndet::NdetSource;
pub use stats::SimStats;
