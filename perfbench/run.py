#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, Release) into .bench_build/perfbench under the
checkout root, then runs one workload for S seconds. The benchmark binary
prints a human-readable report and, as its last stdout line, one JSON
object with the keys correct, attempted, failed and metrics. `--workload
all` runs every workload in turn and ends with one merged JSON line whose
metric names are prefixed with the workload. `--smoke` shrinks every
input (the benchmark's own tests use it). Exits non-zero, without a
result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ["fleet_stress", "fleet_operating", "pool_qos", "paper_sweep"]
RUN_TIMEOUT_S = 175


def build():
    """Configures and incrementally builds the perfbench binary (both are
    quick no-ops once built)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the report.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=850)
    return BUILD / "perfbench"


def run_workload(binary, args, workload):
    """Runs one workload; returns its report lines and parsed result."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={OUT}"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    try:
        binary = build()
        OUT.mkdir(parents=True, exist_ok=True)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            report, results[name] = run_workload(binary, args, name)
            print("\n".join(report), flush=True)
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    if len(names) == 1:
        merged = results[names[0]]
    else:
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
