#!/usr/bin/env python3
"""The reproduction benchmark: build, run one workload, derive and check.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload conv_gpudet|graph_dab|micro_seeds \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The script builds `perfbench/` (a package of its own) with cargo, runs its
`perfbench-sim` program with every `DAB_*` variable removed from the
environment, checks every job's outputs against the committed
`results/fig10_overall.json` oracle, and prints the host block, the metrics
by name and unit, and as its last line one JSON object
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. `--workload all` runs
every workload at both trace settings and prints every metric.

See `perfbench/README.md` for why each workload and metric exists.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter

WORKLOADS = ("conv_gpudet", "graph_dab", "micro_seeds")
ORACLE = os.path.join("results", "fig10_overall.json")
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# Checked before anything runs: without them there is nothing to build or
# check against.
REQUIRED = ("Cargo.toml", "crates", ORACLE, MANIFEST)
# Models whose digest must not depend on the ndet seed.
DETERMINISTIC_MODELS = ("dab", "gpudet")
# Racy by design (an atom-return race the analyzer allowlists), so DAB may
# give it several digest classes.
RACY_MICROS = ("micro_ticket_counter",)
PAPER_DAB_VS_BASELINE = 1.23
# The benchmark must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170

# Per-layer counters: metric name -> key in the sweep's summed counters.
COUNTS = {
    "engine.wakeup_events": "det.engine.wakeup_events",
    "engine.scheduler_scans": "det.engine.scheduler_scans",
    "mem.partitions_ticked": "det.engine.partitions_ticked",
    "mem.icnt_packets": "det.icnt.packets_routed",
    "mem.rop_ops": "det.rop.ops",
    "mem.dram_accesses": "det.dram.accesses",
    "stall.l1_mshr": "det.stall.l1_mshr",
    "stall.icnt_cycles": "icnt_stall_cycles",
    "dab.flushes": "det.dab.flushes",
    "dab.flush_cycles": "det.dab.flush_cycles",
    "dab.fused_ops": "det.dab.fused_ops",
    "stall.atomic_buffer_full": "det.stall.atomic_buffer_full",
    "gpudet.commit_cycles": "det.gpudet.commit_cycles",
    "gpudet.quanta": "det.gpudet.quanta",
}

# Per-layer span-profiler times: metric name -> profiler metric name.
SPANS = {
    "engine.wheel_s": "wall.profile.wheel",
    "engine.dispatch_s": "wall.profile.dispatch",
    "mem.partitions_s": "wall.profile.mem_partitions",
    "mem.icnt_s": "wall.profile.mem_icnt",
    "mem.responses_s": "wall.profile.mem_responses",
    "lock.service_s": "wall.profile.locks",
    "model.tick_s": "wall.profile.model_tick",
    "model.wakes_s": "wall.profile.model_wakes",
}

MODELS = ("baseline", "dab", "gpudet")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------- statistics


def median(xs):
    if not xs:
        raise BenchError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as `statistics.quantiles(xs, n=4)` gives them."""
    if len(xs) < 2:
        m = median(xs)
        return (m, m, m)
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def spread(xs):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, m, q3 = quartiles(xs)
    return (q3 - q1) / m


def ratio(num, den):
    """num / den, or 0 when nothing was measured (den == 0)."""
    return num / den if den else 0.0


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# ------------------------------------------------------------------ records


def parse_records(lines):
    """Groups `perfbench-sim`'s JSON lines by record kind."""
    out = {"host": None, "setup": None, "sweeps": [], "panics": [], "calls": None, "rss": None}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec["record"]
        if kind == "sweep":
            out["sweeps"].append(rec)
        elif kind == "sweep_panic":
            out["panics"].append(rec)
        elif kind in out:
            out[kind] = rec
        else:
            raise BenchError(f"unknown record {kind!r}")
    for kind in ("host", "setup", "rss"):
        if out[kind] is None:
            raise BenchError(f"perfbench-sim printed no {kind} record")
    return out


def load_oracle(path=ORACLE):
    """label -> (cycles, digest) of the committed fig10 results, and the
    seed they were taken at."""
    with open(path) as f:
        doc = json.load(f)
    runs = {r["label"]: (r["cycles"], int(r["digest"], 16)) for r in doc["runs"]}
    return runs, doc["seed"]


# ------------------------------------------------------------- output check


def bench_name(label):
    """`BC_1k` of `BC_1k/dab`, `micro_lock_ts` of `micro_lock_ts/dab@3`."""
    return label.split("/", 1)[0]


def digest_classes(sweeps, model):
    """micro name -> Counter of digests over every seed and sweep."""
    classes = {}
    for sweep in sweeps:
        for job in sweep["jobs"]:
            if job["model"] == model:
                d = int(job["digest"], 16)
                classes.setdefault(bench_name(job["label"]), Counter())[d] += 1
    return classes


def check_outputs(workload, seed, sweeps, oracle, oracle_seed):
    """Returns the failing (sweep index, label) executions and a message
    for each.

    - Every job gives the same cycles and digest in every sweep of the run
      (the majority outcome is the reference).
    - `conv_gpudet`/`graph_dab`: at the oracle's seed every job matches the
      oracle's cycles and digest; at any seed DAB and GPUDet match its
      digest.
    - `micro_seeds`: DAB gives one digest class per hazard-free micro over
      all seeds.
    """
    failed = {}

    def fail(i, label, why):
        failed.setdefault((i, label), why)

    outcomes = {}
    for sweep in sweeps:
        for job in sweep["jobs"]:
            outcomes.setdefault(job["label"], Counter())[(job["cycles"], job["digest"])] += 1
    reference = {label: c.most_common(1)[0][0] for label, c in outcomes.items()}

    if workload == "micro_seeds":
        dab = digest_classes(sweeps, "dab")
        majority = {m: c.most_common(1)[0][0] for m, c in dab.items()}
    for i, sweep in enumerate(sweeps):
        for job in sweep["jobs"]:
            label, digest = job["label"], int(job["digest"], 16)
            if (job["cycles"], job["digest"]) != reference[label]:
                fail(i, label, f"{label}: differs between sweeps of one run")
            if workload == "micro_seeds":
                m = bench_name(label)
                if job["model"] == "dab" and m not in RACY_MICROS and digest != majority[m]:
                    fail(i, label, f"{label}: DAB digest 0x{digest:016x} outside its one class")
                continue
            if label not in oracle:
                fail(i, label, f"{label}: no entry in {ORACLE}")
                continue
            want_cycles, want_digest = oracle[label]
            if seed == oracle_seed and job["cycles"] != want_cycles:
                fail(i, label, f"{label}: {job['cycles']} cycles, oracle {want_cycles}")
            if (seed == oracle_seed or job["model"] in DETERMINISTIC_MODELS) and digest != want_digest:
                fail(i, label, f"{label}: digest 0x{digest:016x}, oracle 0x{want_digest:016x}")
    return failed


# ------------------------------------------------------------------ metrics


def sweep_efficiency(sweep):
    """Sum of job walls over (workers x sweep wall): 1 when every worker is
    busy from the first job's start to the last job's end."""
    return sum(j["wall_s"] for j in sweep["jobs"]) / (sweep["workers"] * sweep["wall_s"])


def model_kcycles_per_s(sweep, model=None):
    """Simulated kilocycles per host second over the sweep's jobs (of one
    model, or all), 0 when the sweep ran no such job."""
    jobs = [j for j in sweep["jobs"] if model is None or j["model"] == model]
    return ratio(sum(j["cycles"] for j in jobs), sum(j["wall_s"] for j in jobs)) / 1e3


def model_cycles(sweep, model):
    return sum(j["cycles"] for j in sweep["jobs"] if j["model"] == model)


def end_to_end(recs):
    untraced = [s for s in recs["sweeps"] if not s["traced"]]
    if not untraced:
        raise BenchError("no untraced sweep completed")
    return {
        "wall_s": (median([s["wall_s"] for s in untraced]), "s"),
        "setup_s": (median(recs["setup"]["secs"]), "s"),
        "kcycles_per_s": (median([model_kcycles_per_s(s) for s in untraced]), "kcycles/s"),
        "peak_rss_mb": (recs["rss"]["peak_rss_mb"], "MiB"),
    }


def per_layer(recs):
    untraced = [s for s in recs["sweeps"] if not s["traced"]]
    traced = [s for s in recs["sweeps"] if s["traced"]]
    if not untraced or not traced or recs["calls"] is None:
        raise BenchError("the traced run needs an untraced sweep, a traced sweep and call timings")
    first = untraced[0]
    c = first["counters"]
    jobs = [j for s in untraced for j in s["jobs"]]
    calls = recs["calls"]

    def phase(name):
        return median([s["phase"][name] for s in untraced])

    def span(name):
        return median([s["profile_us"].get(name, 0) / 1e6 for s in traced])

    job_wall = median([sum(j["wall_s"] for j in s["jobs"]) for s in untraced])
    m = {
        "workloads.gen_s": (median(recs["setup"]["secs"]), "s"),
        "sweep.efficiency": (median([sweep_efficiency(s) for s in untraced]), "ratio"),
        "sweep.longest_job_s": (median([max(j["wall_s"] for j in s["jobs"]) for s in untraced]), "s"),
        "sweep.job_p50_ms": (median([j["wall_s"] for j in jobs]) * 1e3, "ms"),
        "sweep.job_samples": (len(jobs), "count"),
        "gpu_sim.new_ms": (calls["gpu_sim_new"]["secs"] / calls["gpu_sim_new"]["calls"] * 1e3, "ms"),
        "gpu_sim.statics_ms": (
            calls["kernel_statics"]["secs"] / calls["kernel_statics"]["calls"] * 1e3,
            "ms",
        ),
        "engine.prepare_s": (phase("prepare_s"), "s"),
        "engine.commit_s": (phase("commit_s"), "s"),
        "engine.merge_s": (phase("merge_s"), "s"),
        "engine.issue_share": ((phase("prepare_s") + phase("commit_s")) / job_wall, "ratio"),
        "engine.instrs_per_sm_visit": (ratio(c["warp_instrs"], c["det.engine.sms_ticked"]), "ratio"),
        "engine.visit_ratio": (
            (c["cycles"] - c.get("det.engine.cycles_skipped", 0)) / c["cycles"],
            "ratio",
        ),
        "engine.ns_per_cycle": (
            median([ratio(sum(j["wall_s"] for j in s["jobs"]), s["counters"]["cycles"]) for s in untraced])
            * 1e9,
            "ns",
        ),
        "gpudet.serial_share": (
            ratio(c.get("det.gpudet.serial_cycles", 0), model_cycles(first, "gpudet")),
            "ratio",
        ),
    }
    for name, key in COUNTS.items():
        m[name] = (c.get(key, 0), "count")
    for name, key in SPANS.items():
        m[name] = (span(key), "s")
    for model in MODELS:
        m[f"{model}.kcycles_per_s"] = (
            median([model_kcycles_per_s(s, model) for s in untraced]),
            "kcycles/s",
        )
    m["profile.overhead"] = (
        median([s["wall_s"] for s in traced]) / median([s["wall_s"] for s in untraced]) - 1,
        "ratio",
    )
    return m


def accuracy(workload, recs):
    """Simulated results beside the paper's values, for the report."""
    sweeps = recs["sweeps"]
    if not sweeps:
        return {}
    if workload == "graph_dab":
        cycles = {j["label"]: j["cycles"] for j in sweeps[0]["jobs"]}
        benches = sorted({bench_name(label) for label in cycles})
        dab_vs_base = geomean([cycles[f"{b}/dab"] / cycles[f"{b}/baseline"] for b in benches])
        return {"sim.dab_vs_baseline": dab_vs_base, "paper.dab_vs_baseline": PAPER_DAB_VS_BASELINE}
    if workload == "micro_seeds":
        def most(model):
            classes = digest_classes(sweeps, model)
            return max(len(c) for m, c in classes.items() if m not in RACY_MICROS)

        return {"ndet.baseline_classes": most("baseline"), "ndet.dab_classes": most("dab")}
    return {}


def evaluate(workload, seed, trace, recs, oracle, oracle_seed):
    """(result object, failure messages, accuracy figures)."""
    failed = check_outputs(workload, seed, recs["sweeps"], oracle, oracle_seed)
    messages = list(failed.values())
    attempted = sum(len(s["jobs"]) for s in recs["sweeps"])
    panicked = sum(p["jobs"] for p in recs["panics"])
    if panicked:
        messages.append(f"{panicked} jobs lost to a panicking sweep")
    acc = accuracy(workload, recs)
    if workload == "micro_seeds" and acc.get("ndet.baseline_classes", 0) <= 1:
        messages.append("baseline gave one digest class per micro: no non-determinism injected")
    metrics = end_to_end(recs) if trace == 0 else per_layer(recs)
    result = {
        "correct": not messages,
        "attempted": attempted + panicked,
        "failed": len(failed) + panicked,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, messages, acc


# ------------------------------------------------------------------ running


def clean_env():
    """The environment without any `DAB_*` knob, and the names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DAB_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env, sorted(k for k in os.environ if k.startswith("DAB_"))


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=30)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_block(workload, seed, trace, workers, scale):
    sha = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "scale": scale,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "rustc": command_output(["rustc", "-V"]),
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    if done.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench-sim")


def run_once(binary, env, oracle, oracle_seed, workload, seed, seconds, trace):
    argv = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"perfbench-sim exited with {done.returncode}")
    recs = parse_records(done.stdout.splitlines())
    result, messages, acc = evaluate(workload, seed, trace, recs, oracle, oracle_seed)
    host = host_block(workload, seed, trace, recs["host"]["workers"], recs["host"]["scale"])
    if trace == 1:
        host["profile_overhead"] = result["metrics"]["profile.overhead"]["value"]
    else:
        host["profile_overhead"] = "measured by --trace 1"
    print("host " + json.dumps(host))
    untraced = [s["wall_s"] for s in recs["sweeps"] if not s["traced"]]
    if untraced:
        q1, m, q3 = quartiles(untraced)
        print(f"sweeps: {len(untraced)} untraced, wall_s median {m:.4f} q1 {q1:.4f} q3 {q3:.4f}")
    for name, value in acc.items():
        print(f"{name} {value:.4g}" if isinstance(value, float) else f"{name} {value}")
    if "sim.dab_vs_baseline" in acc:
        print("  (the repo's own model measured against the paper's value; fig09's hardware reference is analytical)")
    print(f"jobs {result['attempted']} jobs_failed {result['failed']}")
    for msg in messages[:20]:
        print(f"FAILED {msg}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"run.py: not at the root of the repository (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    env, removed = clean_env()
    if removed:
        print(f"run.py: removed {', '.join(removed)} from the measured program's environment", file=sys.stderr)
    try:
        oracle, oracle_seed = load_oracle()
        binary = build(env)
        if args.workload != "all":
            result = run_once(binary, env, oracle, oracle_seed, args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
            return 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                run_once(binary, env, oracle, oracle_seed, workload, args.seed, args.seconds, trace)
        return 0
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
