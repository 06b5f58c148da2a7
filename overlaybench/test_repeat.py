#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 overlaybench/test_repeat.py

With a fixed number of rounds (--rounds) every simulated counter is a
function of (workload, seed) alone. This test runs each workload's traced
mode twice on one seed and requires those counters to repeat exactly, so
that later count-based claims can rest on them. It also runs every workload
once on a held-out seed that was not used while the benchmark was written,
and requires every delivery to match the oracle.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("feed_fanout", "sub_churn", "dense_topk")
SEED = 7
HELD_OUT_SEED = 20261017
ROUNDS = 2
# Counters that are 0 by design on a workload: nothing is scored outside
# dense_topk, and only sub_churn has a lossy link.
ZERO_ON = {
    "feed_fanout": {"scoring.scored_matches", "scoring.suppressed_by_k",
                    "reliable_channel.retransmits"},
    "sub_churn": {"scoring.scored_matches", "scoring.suppressed_by_k"},
    "dense_topk": {"reliable_channel.retransmits"},
}
# Simulated counters of the traced run (--trace 1) and of the end-to-end run
# (--trace 0) that must repeat exactly.
REPEATED = {
    1: ("client.deliveries", "network.messages", "network.bytes_per_delivery",
        "scoring.scored_matches", "scoring.suppressed_by_k",
        "simulator.events_executed", "matcher.events",
        "reliable_channel.retransmits"),
    0: ("deliver_latency_sim_ms_p50", "deliver_latency_sim_ms_p99"),
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--rounds", str(ROUNDS)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"run.py exited with {out.returncode}")
    return json.loads(lines[-1])


class RepeatTest(unittest.TestCase):
    def test_sim_counters_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            for trace, names in REPEATED.items():
                with self.subTest(workload=workload, trace=trace):
                    first = run(workload, SEED, trace)
                    second = run(workload, SEED, trace)
                    self.assertTrue(first["correct"] and second["correct"])
                    for name in names:
                        if name not in ZERO_ON[workload]:
                            self.assertGreater(first["metrics"][name]["value"], 0, name)
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"], name)

    def test_held_out_seed_matches_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, HELD_OUT_SEED, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
