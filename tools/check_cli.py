#!/usr/bin/env python3
"""Check that the janus command line rejects bad arguments.

Runs the built `janus` binary with a set of malformed command lines and
fails (exit 1) unless each one exits 2 with a message on stderr; then checks
that a well-formed synthesis still exits 0. Guards against flags that are
silently ignored or values that silently fall back to a default.

Usage: python3 tools/check_cli.py path/to/janus
"""

import subprocess
import sys

# Each entry is the argument list after `janus`; all must exit 2.
REJECTED = (
    ["synth", "ab + c", "--bogus"],
    ["synth", "ab + c", "--restart", "ema"],
    ["synth", "ab + c", "-j", "abc"],
    ["synth", "ab + c", "-j", "0"],
    ["synth", "ab + c", "-o", "xyz"],
    ["synth", "ab + c", "-t", "abc"],
)
ACCEPTED = (["synth", "ab + c", "-t", "5"],)
TIMEOUT_S = 60


def run(janus: str, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([janus, *args], capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    janus = sys.argv[1]
    failures = []
    for args in REJECTED:
        result = run(janus, args)
        if result.returncode != 2 or not result.stderr.strip():
            failures.append(f"{' '.join(args)!r}: exit {result.returncode}, "
                            f"stderr {result.stderr.strip()!r} "
                            "(want exit 2 and a message)")
    for args in ACCEPTED:
        result = run(janus, args)
        if result.returncode != 0:
            failures.append(f"{' '.join(args)!r}: exit {result.returncode}, "
                            f"stderr {result.stderr.strip()!r} (want exit 0)")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"ok: {len(REJECTED)} bad command lines rejected, "
          f"{len(ACCEPTED)} good one accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
