#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder_seq --seed 0 --seconds 20 --trace 0

Every run configures and builds perfbench/ (which compiles ../src) into
.bench_build/ under the checkout; only the first run compiles everything. Build
output goes to stderr, so the last line of stdout is the run's JSON result.
A traced run (--trace 1) also writes its spans as Chrome trace-event JSON to
.bench_build/traces/. The metric names and units come from BENCHMARK.json:
a traced run reports the per-layer metrics its workload does not exercise as
0, and any other mismatch is an error. Exits non-zero, without a result, when
the build fails or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ladder_seq", "ladder_par", "service_mixed")
RUN_TIMEOUT_S = 175


def build(root: Path) -> Path:
    """Configure and build the benchmark; return the binary's path."""
    build_dir = root / ".bench_build"
    subprocess.run(
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "janus_perfbench"],
        check=True, stdout=sys.stderr)
    return build_dir / "janus_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Any integer is a seed: fold it into the 64 bits the program takes, so
    # that negative and very large seeds each still give their own inputs.
    seed = args.seed % 2**64
    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    traces = root / ".bench_build" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_out = traces / f"{args.workload}-seed{seed}.json"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-out", str(trace_out)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = result.stdout.strip().splitlines()
    if not lines:
        return result.returncode or 1
    try:
        line = conform(root, args.trace, json.loads(lines[-1]))
    except (ValueError, KeyError) as err:
        print(f"perfbench: bad result: {err}", file=sys.stderr)
        return 1
    print(line, flush=True)
    return result.returncode


def conform(root: Path, trace: int, result: dict) -> str:
    """The result line with the metric set BENCHMARK.json names, in its order."""
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        return json.dumps(result)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(got) - names)
    if unknown:
        raise ValueError(f"metrics {unknown} are not in BENCHMARK.json")
    metrics = {}
    for m in wanted:
        value = got.get(m["name"])
        if value is None and not trace:
            raise ValueError(f"end-to-end metric {m['name']} is missing")
        if value is not None and value["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} is in {value['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = value or {"value": 0, "unit": m["unit"]}
    result["metrics"] = metrics
    return json.dumps(result)


if __name__ == "__main__":
    sys.exit(main())
