"""Tests of the benchmark's own logic: metric derivations and the output
check. Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

ORACLE = {
    "BC_1k/baseline": (100, 0xA),
    "BC_1k/dab": (130, 0xB),
    "cnv2_1/gpudet": (500, 0xC),
}


def job(label, model, cycles, digest, wall=1.0, seed=1):
    return {"label": label, "model": model, "seed": seed, "cycles": cycles,
            "digest": f"0x{digest:016x}", "wall_s": wall}


def sweep(jobs, wall=2.0, workers=2, traced=False, counters=None, phase=None, profile_us=None):
    return {"record": "sweep", "traced": traced, "wall_s": wall, "workers": workers, "jobs": jobs,
            "counters": counters or {"cycles": sum(j["cycles"] for j in jobs)},
            "phase": phase or {"prepare_s": 0.0, "commit_s": 0.0, "merge_s": 0.0},
            "profile_us": profile_us or {}}


def graph_jobs(dab_digest=0xB, dab_cycles=130, base_cycles=100):
    return [job("BC_1k/baseline", "baseline", base_cycles, 0xA),
            job("BC_1k/dab", "dab", dab_cycles, dab_digest)]


def micro_jobs(dab_digests, base_digests):
    jobs = [job(f"micro_atomic_sum/dab@{s}", "dab", 10, d, seed=s) for s, d in enumerate(dab_digests)]
    jobs += [job(f"micro_atomic_sum/baseline@{s}", "baseline", 10, d, seed=s)
             for s, d in enumerate(base_digests)]
    return jobs


def records(sweeps, panics=(), calls=None):
    return {"host": {"workers": 2, "scale": "ci"}, "setup": {"secs": [0.3, 0.1, 0.2]},
            "sweeps": list(sweeps), "panics": list(panics), "calls": calls,
            "rss": {"peak_rss_mb": 20.5}}


def failed(workload, seed, sweeps):
    return len(run.check_outputs(workload, seed, sweeps, ORACLE, 1))


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, m, q3 = run.quartiles(xs)
        self.assertEqual((q1, m, q3), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(m, run.median(xs))
        self.assertAlmostEqual(run.spread(xs), (q3 - q1) / m)

    def test_one_sample_has_no_spread(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(run.spread([2.5]), 0.0)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.median([])

    def test_ratio_and_geomean(self):
        self.assertEqual(run.ratio(3, 0), 0.0)
        self.assertEqual(run.ratio(3, 2), 1.5)
        self.assertAlmostEqual(run.geomean([1.0, 4.0]), 2.0)


class Derivations(unittest.TestCase):
    def test_sweep_efficiency(self):
        busy = sweep([job("a", "dab", 1, 0, wall=2.0), job("b", "dab", 1, 0, wall=1.0),
                      job("c", "dab", 1, 0, wall=1.0)], wall=2.0, workers=2)
        self.assertAlmostEqual(run.sweep_efficiency(busy), 1.0)
        idle = sweep([job("a", "dab", 1, 0, wall=1.0)], wall=2.0, workers=2)
        self.assertAlmostEqual(run.sweep_efficiency(idle), 0.25)

    def test_kcycles_per_s_per_model(self):
        s = sweep([job("a", "dab", 4000, 0, wall=2.0), job("b", "baseline", 1000, 0, wall=0.5)])
        self.assertAlmostEqual(run.model_kcycles_per_s(s, "dab"), 2.0)
        self.assertAlmostEqual(run.model_kcycles_per_s(s, "baseline"), 2.0)
        self.assertAlmostEqual(run.model_kcycles_per_s(s), 2.0)
        self.assertEqual(run.model_kcycles_per_s(s, "gpudet"), 0.0)

    def test_end_to_end_takes_medians_of_untraced_sweeps(self):
        sweeps = [sweep(graph_jobs(), wall=w) for w in (3.0, 1.0, 2.0)]
        sweeps.append(sweep(graph_jobs(), wall=100.0, traced=True))
        m = run.end_to_end(records(sweeps))
        self.assertEqual(m["wall_s"], (2.0, "s"))
        self.assertEqual(m["setup_s"], (0.2, "s"))
        self.assertEqual(m["peak_rss_mb"], (20.5, "MiB"))
        self.assertAlmostEqual(m["kcycles_per_s"][0], 230 / 2.0 / 1e3)

    def test_per_layer_ratios(self):
        counters = {"cycles": 1000, "warp_instrs": 300, "icnt_stall_cycles": 7,
                    "det.engine.sms_ticked": 600, "det.engine.cycles_skipped": 250,
                    "det.gpudet.serial_cycles": 400}
        jobs = [job("cnv2_1/gpudet", "gpudet", 800, 0xC, wall=3.0),
                job("cnv2_2/gpudet", "gpudet", 200, 0xC, wall=1.0)]
        phase = {"prepare_s": 2.0, "commit_s": 1.2, "merge_s": 0.1}
        untraced = sweep(jobs, wall=2.0, counters=counters, phase=phase)
        traced = sweep(jobs, wall=2.5, traced=True, counters=counters, phase=phase,
                       profile_us={"wall.profile.wheel": 1_500_000})
        calls = {"gpu_sim_new": {"calls": 4, "secs": 0.002},
                 "kernel_statics": {"calls": 2, "secs": 0.004}}
        m = run.per_layer(records([untraced, traced], calls=calls))
        self.assertAlmostEqual(m["engine.visit_ratio"][0], 0.75)
        self.assertAlmostEqual(m["engine.instrs_per_sm_visit"][0], 0.5)
        self.assertAlmostEqual(m["gpudet.serial_share"][0], 0.4)
        self.assertAlmostEqual(m["engine.issue_share"][0], 0.8)
        self.assertAlmostEqual(m["engine.ns_per_cycle"][0], 4.0 / 1000 * 1e9)
        self.assertAlmostEqual(m["profile.overhead"][0], 0.25)
        self.assertAlmostEqual(m["engine.wheel_s"][0], 1.5)
        self.assertEqual(m["engine.dispatch_s"][0], 0.0)
        self.assertAlmostEqual(m["gpu_sim.new_ms"][0], 0.5)
        self.assertAlmostEqual(m["gpu_sim.statics_ms"][0], 2.0)
        self.assertAlmostEqual(m["sweep.efficiency"][0], 1.0)
        self.assertEqual(m["sweep.longest_job_s"][0], 3.0)
        self.assertEqual(m["sweep.job_samples"][0], 2)
        self.assertEqual(m["stall.icnt_cycles"], (7, "count"))
        self.assertEqual(m["dab.flushes"], (0, "count"))
        self.assertEqual(m["dab.kcycles_per_s"][0], 0.0)
        self.assertAlmostEqual(m["gpudet.kcycles_per_s"][0], 0.25)

    def test_per_layer_needs_a_traced_sweep(self):
        with self.assertRaises(run.BenchError):
            run.per_layer(records([sweep(graph_jobs())], calls={}))


class OutputCheck(unittest.TestCase):
    def test_matching_run_passes(self):
        self.assertEqual(failed("graph_dab", 1, [sweep(graph_jobs())]), 0)

    def test_wrong_digest_at_the_oracle_seed_fails_one_job(self):
        self.assertEqual(failed("graph_dab", 1, [sweep(graph_jobs(dab_digest=0xBAD))]), 1)

    def test_wrong_cycles_at_the_oracle_seed_fails_one_job(self):
        self.assertEqual(failed("graph_dab", 1, [sweep(graph_jobs(base_cycles=99))]), 1)

    def test_other_seed_checks_only_deterministic_digests(self):
        jobs = graph_jobs(dab_cycles=140, base_cycles=99)
        jobs[0]["digest"] = "0x00000000000000ff"
        self.assertEqual(failed("graph_dab", 7, [sweep(jobs)]), 0)
        self.assertEqual(failed("graph_dab", 7, [sweep(graph_jobs(dab_digest=0xBAD))]), 1)

    def test_gpudet_digest_is_checked_at_every_seed(self):
        bad = [job("cnv2_1/gpudet", "gpudet", 510, 0xD)]
        self.assertEqual(failed("conv_gpudet", 3, [sweep(bad)]), 1)

    def test_label_missing_from_oracle_fails(self):
        self.assertEqual(failed("conv_gpudet", 1, [sweep([job("cnv9_9/gpudet", "gpudet", 1, 1)])]), 1)

    def test_a_sweep_disagreeing_with_the_others_fails_one_job(self):
        jobs = graph_jobs(base_cycles=99)
        good = [sweep(graph_jobs(base_cycles=99)) for _ in range(2)]
        bad = sweep([dict(jobs[0], cycles=98), jobs[1]])
        self.assertEqual(failed("graph_dab", 7, good + [bad]), 1)

    def test_micro_dab_must_give_one_class(self):
        self.assertEqual(failed("micro_seeds", 1, [sweep(micro_jobs([5, 5, 5], [1, 2, 3]))]), 0)
        self.assertEqual(failed("micro_seeds", 1, [sweep(micro_jobs([5, 6, 5], [1, 2, 3]))]), 1)

    def test_racy_micro_may_give_several_classes(self):
        jobs = [job(f"micro_ticket_counter/dab@{s}", "dab", 10, s, seed=s) for s in range(3)]
        self.assertEqual(failed("micro_seeds", 1, [sweep(jobs)]), 0)


class Evaluate(unittest.TestCase):
    def test_injected_wrong_digest_reports_one_failed_job(self):
        recs = records([sweep(graph_jobs(dab_digest=0xBAD))])
        result, messages, _ = run.evaluate("graph_dab", 1, 0, recs, ORACLE, 1)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 2, 1))
        self.assertIn("BC_1k/dab", messages[0])

    def test_result_has_exactly_the_contract_keys(self):
        result, messages, acc = run.evaluate("graph_dab", 1, 0, records([sweep(graph_jobs())]), ORACLE, 1)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(messages, [])
        self.assertAlmostEqual(acc["sim.dab_vs_baseline"], 1.3)
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})

    def test_panicked_sweep_counts_its_jobs_as_failed(self):
        recs = records([sweep(graph_jobs())], panics=[{"record": "sweep_panic", "traced": False, "jobs": 2}])
        result, _, _ = run.evaluate("graph_dab", 1, 0, recs, ORACLE, 1)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 4, 2))

    def test_micro_without_injected_nondeterminism_is_not_correct(self):
        recs = records([sweep(micro_jobs([5, 5], [1, 1]))])
        result, messages, acc = run.evaluate("micro_seeds", 1, 0, recs, ORACLE, 1)
        self.assertEqual((acc["ndet.baseline_classes"], acc["ndet.dab_classes"]), (1, 1))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)


class Environment(unittest.TestCase):
    def test_knobs_are_removed(self):
        with mock.patch.dict(os.environ, {"DAB_JOBS": "1", "DAB_SIM_THREADS": "2", "HOME_X": "y"}):
            env, removed = run.clean_env()
        self.assertEqual(removed, ["DAB_JOBS", "DAB_SIM_THREADS"])
        self.assertFalse(any(k.startswith("DAB_") for k in env))
        self.assertEqual(env["HOME_X"], "y")

    def test_parse_records_requires_every_record(self):
        with self.assertRaises(run.BenchError):
            run.parse_records(['{"record": "host", "workers": 2, "scale": "ci"}'])


if __name__ == "__main__":
    unittest.main()
