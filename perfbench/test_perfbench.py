#!/usr/bin/env python3
"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Every workload runs once untraced and once traced. Each run must pass
its output checks and print exactly the metrics BENCHMARK.json names,
each with its unit. The traced runs must also meet the layer isolation
predictions in perfbench/README.md, and crash-recover's simulated
figures must repeat exactly for a seed. The output checks themselves are
unit-tested by `cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=1, check=True):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if check:
        assert out.returncode == 0, out.stderr[-3000:]
        return json.loads(out.stdout.strip().splitlines()[-1])
    return out


class Smoke(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                cls.results[(w["name"], trace)] = run(w["name"], trace)

    def test_every_metric_is_printed_with_its_unit(self):
        for (name, trace), r in self.results.items():
            want = SPEC["per_layer" if trace else "end_to_end"]
            self.assertEqual(sorted(r["metrics"]), sorted(m["name"] for m in want), (name, trace))
            for m in want:
                got = r["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], (name, m["name"]))
                self.assertTrue(math.isfinite(got["value"]), (name, m["name"]))

    def test_runs_are_correct(self):
        for key, r in self.results.items():
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"], key)
            self.assertEqual(r["failed"], 0, key)
            self.assertGreaterEqual(r["attempted"], 1, key)

    def test_end_to_end_metrics_are_never_zero(self):
        for (name, trace), r in self.results.items():
            if not trace:
                for k, v in r["metrics"].items():
                    self.assertGreater(v["value"], 0, (name, k))

    def test_isolation_predictions_hold(self):
        layer = {name: r["metrics"] for (name, trace), r in self.results.items() if trace}
        for name, m in layer.items():
            self.assertEqual(m["trace.events_dropped"]["value"], 0, name)
            self.assertEqual(m["ds.queue.empty_dequeues"]["value"], 0, name)
            recovery = [v["value"] for k, v in m.items() if k.startswith("recovery.")]
            if name == "crash-recover":
                self.assertGreater(m["recovery.allocator_sweep.sim_ns"]["value"], 0)
            else:
                self.assertEqual(recovery, [0] * len(recovery), name)
        self.assertEqual(layer["map-zipf"]["alloc.allocs_per_op"]["value"], 0)
        self.assertEqual(layer["queue-backlog"]["smr.pins_per_op"]["value"], 0)

    def test_crash_recover_simulated_figures_repeat(self):
        again = {t: run("crash-recover", t) for t in (0, 1)}
        for k in ("sim_ns_per_op", "recovery_sim_us"):
            self.assertEqual(again[0]["metrics"][k], self.results[("crash-recover", 0)]["metrics"][k], k)
        first = self.results[("crash-recover", 1)]["metrics"]
        for k, v in again[1]["metrics"].items():
            if k.startswith("backend.") and k.endswith("_per_op") or k.endswith(".sim_ns"):
                self.assertEqual(v, first[k], k)

    def test_bad_arguments_fail(self):
        out = run("no-such-workload", 0, check=False)
        self.assertNotEqual(out.returncode, 0)


if __name__ == "__main__":
    unittest.main()
