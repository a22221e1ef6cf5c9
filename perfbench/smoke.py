"""Smoke tests of the benchmark itself (about a minute).

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Covers a seconds-long run of every workload in both modes, generator
determinism per seed, the traced-time accounting, server hygiene (a port in
use or a dead server fails fast and leaves no scratch files) and the refusal
to run without the repo's sources. The file name keeps pytest from
collecting it into the repo's own test suite.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import runners  # noqa: E402
import inputs  # noqa: E402
from layers import LAYERS  # noqa: E402
from plan_server import ServerError, ServerProcess, drive, scratch_root  # noqa: E402

WORKLOADS = ("search_sweep", "dlws_solve", "serve_fabrics")


def bench(workload: str, trace: int, seconds: float = 1.0, cwd=ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    completed = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=300)
    return completed.returncode, completed.stdout.splitlines()


def keys(scenarios):
    return [scenario.cache_key() for scenario in scenarios]


class GeneratorTests(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for seed in (0, 1):
            self.assertEqual(keys(inputs.sweep_scenarios(seed)),
                             keys(inputs.sweep_scenarios(seed)))
            self.assertEqual(keys(inputs.solve_scenarios(seed)),
                             keys(inputs.solve_scenarios(seed)))
            first, second = (inputs.RequestSequence(seed),
                             inputs.RequestSequence(seed))
            self.assertEqual(keys(first.pool), keys(second.pool))
            self.assertEqual([first.rank(i) for i in range(5000)],
                             [second.rank(i) for i in range(5000)])

    def test_seed_changes_inputs(self):
        self.assertNotEqual(keys(inputs.sweep_scenarios(0)),
                            keys(inputs.sweep_scenarios(1)))
        self.assertNotEqual(keys(inputs.solve_scenarios(0)),
                            keys(inputs.solve_scenarios(1)))
        self.assertNotEqual(keys(inputs.serve_pool(0)),
                            keys(inputs.serve_pool(1)))

    def test_workload_shapes(self):
        self.assertEqual(len(inputs.sweep_scenarios(3)), 70)
        self.assertEqual(len(inputs.solve_scenarios(3)), 18)
        sequence = inputs.RequestSequence(3)
        self.assertEqual(len(sequence.pool), 180)
        self.assertEqual(len(set(keys(sequence.pool))), 180)
        self.assertEqual(len(set(sequence.fabrics)), 5)


class RunTests(unittest.TestCase):

    def result(self, workload, trace, seconds=1.0):
        code, lines = bench(workload, trace, seconds)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return {name: metric["value"]
                for name, metric in result["metrics"].items()}

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 0)
                self.assertEqual(list(metrics),
                                 list(runners.END_TO_END_UNITS))
                for name, value in metrics.items():
                    self.assertGreater(value, 0, name)

    def test_traced_shares_sum_to_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 1, seconds=2.0)
                self.assertEqual(list(metrics),
                                 list(runners.PER_LAYER_UNITS))
                wall = metrics["trace_wall_s"]
                accounted = (sum(metrics[f"{layer}_s"] for layer in LAYERS)
                             + metrics["server.sweep_overhead_s"]
                             + metrics["other_s"])
                self.assertAlmostEqual(accounted / wall, 1.0, delta=0.05)
                self.assertGreater(metrics["other_s"], -0.05 * wall)
                self.assertGreater(metrics["mapping.maps"], 0)
                solver = [name for name in metrics
                          if name.startswith("solver.")]
                if workload == "dlws_solve":
                    self.assertTrue(all(metrics[name] > 0
                                        for name in solver))
                else:
                    self.assertTrue(all(metrics[name] == 0
                                        for name in solver))

    def test_refuses_to_run_without_sources(self):
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch_root()))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("dlws_solve", 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare)


class ServerHygieneTests(unittest.TestCase):

    def test_port_in_use_fails_fast_and_cleans_up(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = ServerProcess(port=taken.getsockname()[1])
            start = time.monotonic()
            with self.assertRaises(ServerError):
                with server:
                    pass
        self.assertLess(time.monotonic() - start, 30)
        self.assertIsNone(server.process)
        self.assertFalse(server.directory.exists())

    def test_dead_server_fails_the_run(self):
        sequence = inputs.RequestSequence(0)
        with ServerProcess() as server:
            directory = server.directory
            server.process.kill()
            server.process.wait()
            with self.assertRaises(ServerError):
                drive(server, sequence, clients=2, seconds=1.0,
                      min_requests=10)
        self.assertFalse(directory.exists())


if __name__ == "__main__":
    unittest.main()
