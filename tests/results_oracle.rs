//! Pins committed results: two GPUDet convolution layers of Fig. 10 are
//! re-simulated at CI scale and must reproduce the cycles and digests that
//! `results/fig10_overall.json` records for them. A change that alters
//! simulated behaviour fails here instead of only in a regenerated figure.

use std::path::Path;

use dab_repro::gpu_sim::engine::GpuSim;
use dab_repro::gpu_sim::ndet::NdetSource;
use dab_repro::gpudet::{GpuDetConfig, GpuDetModel};
use dab_repro::workloads::conv::{conv_trace, layer_by_name};
use dab_repro::workloads::scale::Scale;

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

fn check_gpudet_layer(layer: &str) {
    let scale = Scale::Ci;
    let gpu = scale.gpu();
    let conv = layer_by_name(layer).unwrap_or_else(|| panic!("unknown layer {layer}"));
    let model = GpuDetModel::new(&gpu, GpuDetConfig::default());
    let report =
        GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[conv_trace(&conv, scale)]);
    let label = format!("{layer}/gpudet");
    assert_eq!(
        (report.cycles(), format!("{:#018x}", report.digest())),
        committed(&label),
        "{label} no longer reproduces results/fig10_overall.json"
    );
}

#[test]
fn gpudet_cnv2_3_reproduces_committed_fig10_run() {
    check_gpudet_layer("cnv2_3");
}

#[test]
fn gpudet_cnv4_2_reproduces_committed_fig10_run() {
    check_gpudet_layer("cnv4_2");
}
