#!/usr/bin/env python3
"""Tests of the benchmark itself, run at the tiny size.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first test builds the benchmark. Each
run is short (the tiny workloads take milliseconds per repetition).
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, cwd=ROOT, size="tiny"):
    """Run the benchmark; return (exit code, stdout lines, result or None)."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.05",
         "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def fingerprint(lines):
    line = next(l for l in lines if l.startswith("fingerprint "))
    return line.split(" ", 3)[3]


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_passes_its_gate_and_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run(workload, trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines))
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        self.assertTrue(
                            any(l.split()[:3] == ["metric", name, unit]
                                for l in lines), name)
                    self.assertTrue(any(l.startswith("metric error_rate")
                                        for l in lines))
                    self.assertTrue(any(l.startswith("host {")
                                        for l in lines))

    def test_counts_repeat_exactly(self):
        counts = ("sim.events", "mpisim.requests", "pfs.resolves")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, trace=1)[2]["metrics"]
                second = run(workload, trace=1)[2]["metrics"]
                for name in counts:
                    self.assertEqual(first[name], second[name], name)
                    self.assertGreater(first[name]["value"], 0, name)
                allocs = [run(workload, trace=0)[2]["metrics"]
                          ["allocs_per_req"] for _ in range(2)]
                self.assertEqual(allocs[0], allocs[1])

    def test_twins_share_one_fingerprint(self):
        direct = fingerprint(run("hacc_direct")[1])
        recorded = fingerprint(run("hacc_recorded")[1])
        self.assertEqual(direct, recorded)
        pins = json.loads((HERE / "fingerprints.json").read_text())
        for size in ("full", "tiny"):
            self.assertEqual(pins[size]["hacc_direct"],
                             pins[size]["hacc_recorded"])

    def test_seed_changes_noisy_fingerprint_but_not_its_invariants(self):
        _, lines_a, result_a = run("hacc_noisy", seed=1)
        _, lines_b, result_b = run("hacc_noisy", seed=2)
        self.assertNotEqual(fingerprint(lines_a), fingerprint(lines_b))
        for result in (result_a, result_b):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

        def seed_free(fp):
            # Request, verify and byte counts are invariants; time is not.
            return [f for f in fp.split() if not f.startswith("elapsed_s=")
                    and not f.startswith("limit_changes=")]

        self.assertEqual(seed_free(fingerprint(lines_a)),
                         seed_free(fingerprint(lines_b)))

    def test_fails_without_library_sources(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, _, result = run("hacc_direct", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_compare_refuses_unpairable_results(self):
        scratch = ROOT / ".bench_build" / "compare_test"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            lines = run("hacc_direct")[1]
            host_line = next(l for l in lines if l.startswith("host "))
            host = json.loads(host_line[5:])

            def write(name, **changes):
                changed = "host " + json.dumps(dict(host, **changes))
                path = scratch / name
                path.write_text("\n".join(changed if l == host_line else l
                                          for l in lines) + "\n")
                return str(path)

            same = write("same.txt")
            other_cpu = write("cpu.txt", cpu="Other CPU")
            debug = write("debug.txt", flags="-g", build_type="Debug")
            compare = [sys.executable, str(HERE / "compare.py")]

            def code(base, head):
                return subprocess.run(compare + ["--base", base, "--head",
                                                 head],
                                      capture_output=True).returncode

            self.assertEqual(code(same, same), 0)
            self.assertEqual(code(same, other_cpu), 3)
            self.assertEqual(code(debug, debug), 3)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
