#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Run from the repository root (builds the runner first, like run.py):

    python3 perfbench/test_determinism.py

For every workload it makes three short runs of the runner: seed 1 untraced,
seed 1 traced, seed 2 untraced. It checks that

  * the two seed-1 runs agree bit for bit on every deterministic record:
    stretch, lightness, max_degree, rounds, messages, the PhaseStats and
    BatchStats sums, and the instance and spanner fingerprints (so turning
    obs on changes no output);
  * seed 2 draws a different instance;
  * no run has a failed operation;
  * on span-audit, the bounded cap-2.0 audit equals the cap-64 stretch.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: build() and the runner timeout)

# Short count-bounded runs (the real workloads, fewer ops): enough to
# exercise every checked path.
SHORT = {
    "span-audit": {"ops": 2},
    "build-scale": {"ops": 2},
    "churn-serve": {"ops": 6},
    "dist-build": {"ops": 2},
}
QUALITY_KEYS = ("stretch", "lightness", "max_degree", "instance", "spanner", "spanner_edges")
COUNT_KEYS = {
    "span-audit": ("phase.edges_in_bin", "phase.covered", "phase.candidates", "phase.queries",
                   "phase.added", "phase.removed", "stretch_cap2", "stretch_cap64"),
    "build-scale": ("phase.edges_in_bin", "phase.covered", "phase.candidates", "phase.queries",
                    "phase.added", "phase.removed"),
    "churn-serve": ("batch.regions", "batch.merged_events", "batch.ball_union", "batch.sub_edges",
                    "batch.certify_scope", "batch.edges_added", "batch.edges_removed",
                    "batch.fallbacks", "active_nodes"),
    "dist-build": ("rounds", "messages", "mis_invocations", "max_luby_iterations",
                   "phase.edges_in_bin", "phase.added", "phase.removed"),
}

RUNNER = None


def short_run(workload, seed, trace):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--ops", str(SHORT[workload]["ops"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=run.RUNNER_TIMEOUT_S)
    if proc.returncode == 3:
        raise unittest.SkipTest(f"{workload} needs more threads than the host has CPUs")
    proc.check_returncode()
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    def check_workload(self, workload):
        a = short_run(workload, 1, 0)
        b = short_run(workload, 1, 1)
        c = short_run(workload, 2, 0)
        for res in (a, b, c):
            self.assertEqual(res["failed"], 0, res["errors"])
            self.assertGreater(res["attempted"], 0)
        for key in QUALITY_KEYS + COUNT_KEYS[workload]:
            self.assertIn(key, a["detail"], key)
            self.assertEqual(a["detail"][key], b["detail"][key], key)
        shared = set(a["detail"]) & set(b["detail"])
        for key in shared:
            self.assertEqual(a["detail"][key], b["detail"][key], key)
        self.assertNotEqual(a["detail"]["instance"], c["detail"]["instance"])
        if workload == "span-audit":
            self.assertEqual(a["detail"]["stretch_cap2"], a["detail"]["stretch_cap64"])

    def test_span_audit(self):
        self.check_workload("span-audit")

    def test_build_scale(self):
        self.check_workload("build-scale")

    def test_churn_serve(self):
        self.check_workload("churn-serve")

    def test_dist_build(self):
        self.check_workload("dist-build")


if __name__ == "__main__":
    RUNNER = run.build()
    unittest.main()
