"""Fast self-test of the benchmark itself (about a second, no timing).

    python3 benchmark/selftest.py          # from the root of a checkout

Checks that every metric BENCHMARK.json names is emitted with its unit,
that timings are divided by the host slowdown measured in their window,
that the output checks count a corrupted C1 or an oracle_err above 1e-3 as
a failure, and that the tracer rebinds
mcflab's functions and attributes self time so the layers add up.
"""

import json
import math
import os
import shutil
import sys
import tempfile
import time
import unittest

import numpy as np

import run
import tracing
import workloads
from workloads import WORKLOADS, check_problems

ROOT = os.getcwd()


def _scratch_dir():
    """A fresh directory under the checkout's benchmark work area."""
    base = os.path.join(ROOT, run.WORK_DIR)
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def _reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)


def _call(**extra):
    call = {"problems": [], "wall_s": 2.0, "call_slowdown": 1.25, "setup_s": 0.2,
            "cpu_s": 1.9, "peak_rss_kib": 40000, "digest_match": True,
            "report_bytes": 10}
    call.update(extra)
    return call


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spans = [[0, -1, 0.0, 10.0, None]]
        trace = {"names": [tracing.ROOT], "spans": spans}
        calls = [_call(), _call(wall_s=2.2), _call(oracle_err=4e-6)]
        traced = _call(layers=tracing.layer_metrics(trace))
        res = {"workload": "torus-flow", "trace": 0, "attempted": 4, "failed": 0,
               "calls": 3, "wall_s": [2.0, 2.2, 2.0], "call_slowdown": [1.25] * 3,
               "setup_s": [0.2, 0.3, 0.25], "setup_slowdown": [1.0, 1.5, 1.25]}
        res.update(run.collect_metrics(res, calls, traced, calls + [traced]))
        self.assertAlmostEqual(res["end_to_end"]["wall_s"], 1.6)
        self.assertAlmostEqual(res["end_to_end"]["setup_s"], 0.2)
        self.assertAlmostEqual(res["raw"]["wall_s"], 2.0)
        units = run.metric_units(ROOT)
        for trace_flag, key in ((0, "end_to_end"), (1, "per_layer")):
            res["trace"] = trace_flag
            out = run.result_json(res, units)
            self.assertTrue(out["correct"])
            self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, units[key])
        line = run.summary_line(res, units)
        for name in ("wall_s", "setup_s", "peak_rss_mb", "fail_ratio", "oracle_err"):
            self.assertIn(name + "=", line)

    def test_every_listed_workload_runs(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))

    def test_failed_call_makes_result_incorrect(self):
        calls = [_call(), _call(problems=["verb returned 1"])]
        res = {"workload": "circle-pair", "trace": 0, "attempted": 2, "failed": 1,
               "calls": 2, "wall_s": [2.0, 2.0], "call_slowdown": [1.25] * 2,
               "setup_s": [0.2], "setup_slowdown": [1.0]}
        res.update(run.collect_metrics(res, calls, {}, calls))
        out = run.result_json(res, run.metric_units(ROOT))
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)
        self.assertEqual(res["summary"]["fail_ratio"], 0.5)


class HostSpeedTest(unittest.TestCase):
    def test_slowdown_is_window_mean_over_reference(self):
        probe = run.HostSpeed()
        ref = probe.REFERENCE_KERNEL_S
        # reference speed before t=1, half speed after
        probe.samples = [(0.02 * i, ref if 0.02 * i < 1.0 else 2 * ref) for i in range(100)]
        self.assertAlmostEqual(probe.slowdown((0.1, 0.5)), 1.0)
        self.assertAlmostEqual(probe.slowdown((1.2, 1.8)), 2.0)
        # a window too short for MIN_SAMPLES is widened symmetrically
        self.assertAlmostEqual(probe.slowdown((0.999, 1.001)), 1.6)

    def test_probe_thread_samples_and_stops(self):
        with run.HostSpeed() as probe:
            time.sleep(0.2)
        self.assertFalse(probe._thread.is_alive())
        self.assertGreater(len(probe.samples), 3)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.out = _scratch_dir()
        self.addCleanup(shutil.rmtree, self.out)

    def _write(self, name, body):
        with open(os.path.join(self.out, name), "w") as fh:
            fh.write(body)

    def _diff_outputs(self, keys, C1):
        self._write("inequality_report.txt", "".join(
            f"{k} = {v!r}\n" for k, v in
            dict(keys, C1=C1, flagged_nodes=0).items() if k not in ("F_final", "c_star")
        ))
        self._write("gronwall_envelope.csv", "t,F,G,dFdt,envelope,c_star\n"
                    f"0.3,{keys['F_final']!r},1.0,0.0,{keys['F_final']!r},{keys['c_star']!r}\n")

    def test_corrupted_C1_is_a_failure(self):
        wl = WORKLOADS["circle-pair"]
        ref = _reference()["circle-pair"]["analytic"]
        self._diff_outputs(ref["keys"], ref["keys"]["C1"])
        problems, _, _ = check_problems(wl, self.out, ref)
        self.assertEqual(problems, [])
        for bad in (ref["keys"]["C1"] * 1.001, math.nan, math.inf):
            self._diff_outputs(ref["keys"], bad)
            problems, _, _ = check_problems(wl, self.out, ref)
            self.assertTrue(any("C1" in p for p in problems), (bad, problems))

    def _torus_outputs(self, keys, radius):
        T = workloads.TORUS_T
        u, v = np.meshgrid(*[np.arange(64) * 2 * np.pi / 64] * 2, indexing="ij")
        pos = np.stack([radius * np.cos(u), radius * np.sin(u),
                        radius * np.cos(v), radius * np.sin(v)], axis=-1).reshape(-1, 4)
        # the check drops the two node-index columns, so zeros do
        np.savetxt(os.path.join(self.out, "checkpoint_0008.txt"),
                   np.hstack([np.zeros((len(pos), 2)), pos]), header=f"2 2 64 {T!r}", comments="")
        rows = [f"{T * k / 8!r},checkpoint_{k:04d}.txt,{keys[f'volume_{k}']!r}"
                for k in range(9)]
        self._write("trajectory.csv", "t,file,volume\n" + "\n".join(rows) + "\n")
        self._write("summary.txt", f"simulate: {keys['steps']} steps to T={T}\n")

    def test_oracle_error_above_gate_is_a_failure(self):
        wl = WORKLOADS["torus-flow"]
        ref = _reference()["torus-flow"]["analytic"]
        exact = math.sqrt(1 - 2 * workloads.TORUS_T)
        self._torus_outputs(ref["keys"], exact + ref["keys"]["oracle_err"])
        problems, _, extra = check_problems(wl, self.out, ref)
        self.assertEqual(problems, [])
        self.assertAlmostEqual(extra["oracle_err"], ref["keys"]["oracle_err"], delta=1e-12)
        self._torus_outputs(ref["keys"], exact + 2e-3)
        problems, _, _ = check_problems(wl, self.out, ref)
        self.assertTrue(any(p.startswith("oracle_err") and "not below" in p
                            for p in problems), problems)


class TracerTest(unittest.TestCase):
    """Traces tiny real calls of the package in ./src."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import mcflab.cli

        cls.cli = mcflab.cli
        cls.tracer = tracing.Tracer()
        cls.tracer.install()
        cls.out = _scratch_dir()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out)

    def _traced(self, config):
        self.tracer.spans.clear()
        rc = self.tracer.run(self.cli.run_experiment, config, self.out)
        self.assertEqual(rc, 0)
        return tracing.layer_metrics({"names": self.tracer.names,
                                      "spans": self.tracer.spans})

    def _assert_self_times_add_up(self, m):
        layers = sum(m[f"{l}.self_s"] for l in ("grid", "geometry", "shapes", "flow",
                                                 "identities", "differences"))
        self.assertAlmostEqual(layers + m["cli.self_s"], m["trace.wall_s"], delta=1e-9)

    def test_run_flow_counts(self):
        m = self._traced({"kind": "simulate", "grid": {"m": 1, "resolution": 16},
                          "geometry": {"kind": "circle"}, "T": 0.01,
                          "sample_times": [0.0, 0.005, 0.01]})
        self.assertGreater(m["flow.steps"], 0)
        self.assertEqual(m["flow.geom_evals_per_step"], 5.0)
        self.assertEqual(m["grid.write_immersion.calls"], 3)
        self.assertGreater(m["grid.write_immersion.bytes"], 0)
        self.assertEqual(m["geometry.compute_geometry.calls"], 5 * m["flow.steps"] + 3)
        self._assert_self_times_add_up(m)

    def test_identity_suite_counts(self):
        m = self._traced({"kind": "convergence", "grid": {"m": 1},
                          "geometry": {"kind": "circle"}, "dt": 1e-5,
                          "resolutions": [16, 32, 64], "min_order": 0.0})
        self.assertEqual(m["flow.geom_evals_per_step"], 4.0)
        self.assertAlmostEqual(m["identities.geom_evals_per_state"], 4.2)
        self.assertGreater(m["identities.check_simons.s"], 0.0)
        self._assert_self_times_add_up(m)


if __name__ == "__main__":
    unittest.main()
