#!/usr/bin/env python3
"""Build the benchmark binary and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload fig11-grid --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
idyll library and the perfbench binary (Release) under .bench_build/perfbench, or
under $CARGO_TARGET_DIR/perfbench when that variable is set. The binary's
provenance and digest lines are passed through; the last line printed is
one JSON object {"correct", "attempted", "failed", "metrics"}, where
each metric carries the unit BENCHMARK.json gives it. --trace 0 reports
the end_to_end metrics, --trace 1 the per_layer metrics.

Exits non-zero without printing a result when the sources, the build or
the run fail.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def run_logged(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if done.returncode != 0:
        raise BenchError(f"command failed ({done.returncode}): "
                         + " ".join(str(c) for c in cmd))


def cached_build_type(bdir):
    cache = bdir / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configure (once) and build the binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if not cmake:
        raise BenchError("cmake not found")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        run_logged([cmake, "-S", str(HERE), "-B", str(bdir),
                    "-DCMAKE_BUILD_TYPE=Release"])
    build_type = cached_build_type(bdir)
    if build_type in ("", "Debug"):
        raise BenchError(f"refusing to benchmark a '{build_type}' build")
    run_logged([cmake, "--build", str(bdir), "--target", "perfbench",
                "-j", str(os.cpu_count() or 1)])
    return bdir / "perfbench"


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def to_result(raw, spec, trace):
    """Attach units to the binary's values; every listed metric must be
    present, finite and alone."""
    listed = spec["per_layer" if trace else "end_to_end"]
    values = raw["values"]
    names = [m["name"] for m in listed]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise BenchError(f"metric mismatch: missing {missing}, extra {extra}")
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{m['name']} is not a finite number: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(raw["correct"]),
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads(SPEC.read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload}")
        exe = build()
        done = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--git-sha", git_sha()],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"perfbench exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError("perfbench printed nothing")
        result = to_result(json.loads(lines[-1]), spec, args.trace)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
