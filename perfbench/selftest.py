"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json
with its unit, that a corrupted digest, oracle result or packet count
trips the correctness gate, that a binding the program no longer has is
reported as absent, and that the benchmark refuses to report without
the program's sources. The corruption is applied by the harness to its
own copy of the checked value; the program is never changed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, *extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class EveryMetricEmitted(unittest.TestCase):
    def check(self, trace: int, section: str) -> None:
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = last_json(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(units, expected)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    self.assertNotIsInstance(m["value"], bool, name)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class GatesTrip(unittest.TestCase):
    def assert_gate_fails(self, workload: str, fault: str, text: str) -> None:
        proc = bench(workload, "--trace", "0", "--fault", fault)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIs(last_json(proc)["correct"], False)
        self.assertIn(f"GATE FAILED {text}", proc.stdout)

    def test_digest_mismatch(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_gate_fails(workload, "digest", "digest")

    def test_oracle_mismatch(self):
        self.assert_gate_fails("digits_float", "oracle", "oracle")

    def test_packet_count_mismatch(self):
        self.assert_gate_fails("trace_replay", "packets", "packet counts disagree")


class AbsentBinding(unittest.TestCase):
    def test_missing_binding_is_absent_not_an_error(self):
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        import aersnn.event_engine as event_engine
        import tracing

        tracing.SPANS["event_engine.gone"] = [("aersnn.event_engine", "NoSuchClass.method"),
                                              ("aersnn.no_such_module", "function")]
        original = event_engine.EventEngine.integrate_handler
        try:
            tracer = tracing.Tracer()
            tracer.install()
            self.assertIsNot(event_engine.EventEngine.integrate_handler, original)
            tracer.uninstall()
        finally:
            del tracing.SPANS["event_engine.gone"]
        self.assertIs(event_engine.EventEngine.integrate_handler, original)
        self.assertIn("event_engine.gone", tracer.absent_spans)
        self.assertEqual(tracer.absent_bindings,
                         ["aersnn.event_engine.NoSuchClass.method",
                          "aersnn.no_such_module.function"])


class WithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = bench("digits_float", "--trace", "0", root=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
