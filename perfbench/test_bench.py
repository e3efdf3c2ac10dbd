#!/usr/bin/env python3
"""Self-test of the benchmark: every workload passes its checks in smoke
mode, and each correctness check fails when its observed output is
perturbed by one ulp.

    python3 perfbench/test_bench.py

Run from the repository root; builds through run.py like the benchmark.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# (workload, trace) -> the checks that run there.
CHECKS = {
    ("train_ndsnn", 0): ["final_sparsity", "test_accuracy_floor", "train_repeatable"],
    ("train_ndsnn", 1): ["replay_vs_train_step", "replay_loss_count", "traced_vs_untraced",
                         "loop_vs_trainer_run"],
    ("infer_offline", 0): ["compiled_vs_predict", "fixture_repeatable"],
    ("infer_offline", 1): ["traced_vs_untraced"],
    ("serve_stream", 0): ["serve_vs_direct", "stream_vs_direct_session",
                          "direct_session_vs_window"],
}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_smoke_every_workload_is_correct(self):
        self.assertEqual(run.smoke(), 0)

    def test_every_check_trips_on_a_perturbed_output(self):
        for (workload, trace), checks in CHECKS.items():
            for check in checks:
                with self.subTest(workload=workload, trace=trace, check=check):
                    code, lines, result = run.run(workload, 1, 1, trace, smoke=True,
                                                  perturb=check)
                    self.assertIsNotNone(result, "\n".join(lines))
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertNotEqual(code, 0)
                    self.assertTrue(any(check in line for line in lines), "\n".join(lines))

    def test_unknown_workload_fails_without_a_result(self):
        code, _, result = run.run("no_such_workload", 1, 1, 0, smoke=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
