#!/usr/bin/env python3
"""The benchmark's own test: ladder_seq counters repeat exactly.

Runs the traced ladder_seq workload twice in separate processes with the same
seed and fails (exit 1) unless every deterministic counter (sat.* counts,
synth.probes*, lm.sessions_created and switches) is identical, and unless
both runs pass their correctness checks. Inside each run the traced pass is
already compared with an untraced pass, so this covers both in-process and
cross-process repeatability. With --par it also runs ladder_par twice and
prints how far its counters moved (they are expected to vary: probe fan-out
and primal/dual races depend on timing).

Usage, from the root of a checkout:

    python3 perfbench/test_counters.py [--seed N] [--par]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

COUNTERS = (
    "sat.conflicts", "sat.propagations", "sat.decisions",
    "sat.learned_clauses", "sat.eliminated_vars", "sat.vivified",
    "sat.subsumed", "sat.strengthened", "sat.substituted_vars",
    "sat.probed_failed_lits", "synth.probes", "synth.probes_unsat",
    "synth.probes_pruned", "synth.probes_cancelled", "lm.sessions_created",
)


def traced(run_py: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"FAIL: traced {workload} seed {seed} failed its checks")
    return {k: result["metrics"][k]["value"] for k in COUNTERS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--par", action="store_true")
    args = parser.parse_args()
    run_py = Path(__file__).resolve().parent / "run.py"

    first = traced(run_py, "ladder_seq", args.seed)
    second = traced(run_py, "ladder_seq", args.seed)
    differ = [k for k in COUNTERS if first[k] != second[k]]
    for k in COUNTERS:
        print(f"{k:28s} {first[k]:>14.0f} {second[k]:>14.0f}")
    if differ:
        print("FAIL: ladder_seq counters differ: " + ", ".join(differ))
        return 1
    print("ok: ladder_seq counters repeat exactly")

    if args.par:
        a = traced(run_py, "ladder_par", args.seed)
        b = traced(run_py, "ladder_par", args.seed)
        for k in COUNTERS:
            base = max(a[k], b[k], 1.0)
            print(f"ladder_par {k:28s} {a[k]:>12.0f} {b[k]:>12.0f} "
                  f"({100.0 * abs(a[k] - b[k]) / base:.1f}% apart)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
