#!/usr/bin/env python3
"""Build and run the iobts end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR or .bench_build; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. On the pinned default seed the run's simulated fingerprint must
equal the one in perfbench/fingerprints.json; on other seeds the seed-free
invariants are checked instead (see perfbench/README.md).
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The two HACC twins simulate the same run and must share one fingerprint.
TWINS = ("hacc_direct", "hacc_recorded")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (pathlib.Path.cwd() / base / "perfbench").resolve()


def build(out):
    """Configure (once) and build the benchmark binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", str(out), "--target", "perfbench",
                "-j", jobs]

    def run(command):
        return subprocess.run(command, stdout=sys.stderr).returncode == 0

    # A configured tree rebuilds incrementally (and reconfigures itself when
    # a CMakeLists.txt changed). A missing or stale one (say, from a moved
    # checkout) is configured from scratch.
    if (out / "CMakeCache.txt").is_file() and run(compile_):
        return out / "perfbench"
    shutil.rmtree(out, ignore_errors=True)
    if run(configure) and run(compile_):
        return out / "perfbench"
    fail("build failed")


def load_pins():
    pins = json.loads((HERE / "fingerprints.json").read_text())
    for size in ("full", "tiny"):
        if pins[size][TWINS[0]] != pins[size][TWINS[1]]:
            fail(f"pinned {size} fingerprints of {' and '.join(TWINS)} differ")
    return pins


def main():
    pins = load_pins()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=pins["full"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--size", args.size]
    if args.seed == pins["default_seed"]:
        command += ["--expect", pins[args.size][args.workload]]
    tmp = out / f"tmp.{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        sys.stdout.flush()
        code = subprocess.run(command + ["--tmp-dir", str(tmp)]).returncode
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
