//! Pins committed results: members of the Fig. 10 suite are re-simulated
//! at CI scale under each execution model and must reproduce the cycles
//! and digests that `results/fig10_overall.json` records for them. A change
//! that alters simulated behaviour fails here instead of only in a
//! regenerated figure.
//!
//! The runs are built as `fig10_overall` builds them: the suite member from
//! `full_suite`, the model at its figure design point, seed 1. Two GPUDet
//! convolution layers cover the model-gated issue path, and `BC_1k` under
//! the baseline and DAB the graph runs. `PRK_coA` under the baseline is the
//! one Fig. 10 run whose requests the interconnect refuses (its
//! `icnt_stall_cycles` is the only nonzero one), so it is the run that pins
//! the per-cluster injection admission rule.

use std::path::Path;

use dab_repro::dab::{DabConfig, DabModel};
use dab_repro::gpu_sim::config::GpuConfig;
use dab_repro::gpu_sim::engine::GpuSim;
use dab_repro::gpu_sim::exec::{BaselineModel, ExecutionModel};
use dab_repro::gpu_sim::ndet::NdetSource;
use dab_repro::gpudet::{GpuDetConfig, GpuDetModel};
use dab_repro::workloads::scale::Scale;
use dab_repro::workloads::suite::full_suite;

/// The committed `(cycles, digest)` of run `label` at seed 1. Each run
/// record opens with its label, seed, cycles and digest on one line.
fn committed(label: &str) -> (u64, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/fig10_overall.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let needle = format!("\"label\": \"{label}\",");
    let line = text
        .lines()
        .find(|l| l.contains(&needle) && l.contains("\"seed\": 1,"))
        .unwrap_or_else(|| panic!("no seed-1 run {label:?} in {}", path.display()));
    let field = |key: &str| -> &str {
        let start = line
            .find(&format!("\"{key}\": "))
            .unwrap_or_else(|| panic!("run {label:?} has no {key}"))
            + key.len()
            + 4;
        let rest = &line[start..];
        rest[..rest.find(',').unwrap_or(rest.len())].trim_matches('"')
    };
    let cycles = field("cycles")
        .parse()
        .unwrap_or_else(|e| panic!("run {label:?}: bad cycles: {e}"));
    (cycles, field("digest").to_string())
}

/// Re-simulates suite member `bench` under the model `make` builds and
/// checks it against the committed run `<bench>/<tag>`.
fn check(bench: &str, tag: &str, make: impl FnOnce(&GpuConfig) -> Box<dyn ExecutionModel>) {
    let scale = Scale::Ci;
    let gpu = scale.gpu();
    let member = full_suite(scale)
        .into_iter()
        .find(|b| b.name == bench)
        .unwrap_or_else(|| panic!("no suite member {bench}"));
    let model = make(&gpu);
    let report = GpuSim::new(gpu, model, NdetSource::seeded(1)).run(&member.kernels);
    let label = format!("{bench}/{tag}");
    assert_eq!(
        (report.cycles(), format!("{:#018x}", report.digest())),
        committed(&label),
        "{label} no longer reproduces results/fig10_overall.json"
    );
}

fn gpudet(gpu: &GpuConfig) -> Box<dyn ExecutionModel> {
    Box::new(GpuDetModel::new(gpu, GpuDetConfig::default()))
}

#[test]
fn gpudet_cnv2_3_reproduces_committed_fig10_run() {
    check("cnv2_3", "gpudet", gpudet);
}

#[test]
fn gpudet_cnv4_2_reproduces_committed_fig10_run() {
    check("cnv4_2", "gpudet", gpudet);
}

#[test]
fn baseline_bc_1k_reproduces_committed_fig10_run() {
    check("BC_1k", "baseline", |_| Box::new(BaselineModel::new()));
}

#[test]
fn dab_bc_1k_reproduces_committed_fig10_run() {
    check("BC_1k", "dab", |gpu| {
        Box::new(DabModel::new(gpu, DabConfig::paper_default()))
    });
}

#[test]
fn baseline_prk_coa_reproduces_committed_fig10_run() {
    check("PRK_coA", "baseline", |_| Box::new(BaselineModel::new()));
}
