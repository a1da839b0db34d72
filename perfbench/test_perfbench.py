#!/usr/bin/env python3
"""Self-test of the benchmark's metric hygiene.

    python3 perfbench/test_perfbench.py

Checks, without running a workload: tail-percentile selection and its printed
sample count, and that peak RSS counts child processes (both in the perfbench
binary's --self-test); metric-name validation; that BENCHMARK.json declares
valid, unique names; that run.py rejects results whose metrics do not match
the declaration; and that the workload seed is a required argument.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def result(metrics, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


class MetricHygiene(unittest.TestCase):
    def test_binary_self_test(self):
        # Tail selection and its sample count, peak RSS of a child.
        binary = run.build()
        proc = subprocess.run([binary, "--self-test"], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, universal_newlines=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_declared_names_are_valid_and_unique(self):
        spec = run.load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.NAME_RE)

    def test_name_pattern(self):
        for good in ("setup_s", "crypto.d1_decode_ns_per_pkt", "a-b", "9lives"):
            self.assertRegex(good, run.NAME_RE)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65):
            self.assertNotRegex(bad, run.NAME_RE)

    def test_check_result(self):
        expected = {"setup_s": "s", "ops_per_s": "1/s"}
        ok = result({"setup_s": (0.5, "s"), "ops_per_s": (100.0, "1/s")})
        self.assertEqual(run.check_result(ok, expected, trace=0), [])
        missing = result({"setup_s": (0.5, "s")})
        self.assertTrue(run.check_result(missing, expected, trace=0))
        extra = result({"setup_s": (0.5, "s"), "ops_per_s": (1.0, "1/s"), "x": (1.0, "s")})
        self.assertTrue(run.check_result(extra, expected, trace=0))
        zero = result({"setup_s": (0.0, "s"), "ops_per_s": (1.0, "1/s")})
        self.assertTrue(run.check_result(zero, expected, trace=0))
        self.assertEqual(run.check_result(zero, expected, trace=1), [])  # per-layer may be 0
        unit = result({"setup_s": (0.5, "ms"), "ops_per_s": (1.0, "1/s")})
        self.assertTrue(run.check_result(unit, expected, trace=0))
        bad_name = result({"setup_s": (0.5, "s"), "ops_per_s": (1.0, "1/s"), "b d": (1.0, "s")})
        self.assertTrue(run.check_result(bad_name, dict(expected, **{"b d": "s"}), trace=0))
        self.assertTrue(run.check_result(result({}, correct=False), expected, trace=0))

    def test_seed_is_a_required_argument(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               "map_socket", "--seconds", "1", "--trace", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertEqual(proc.returncode, 2)
        self.assertIn(b"--seed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
