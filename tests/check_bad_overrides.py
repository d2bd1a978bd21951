#!/usr/bin/env python3
"""Bad command-line input must fail fast with a diagnostic.

    python3 tests/check_bad_overrides.py --ulpsim build/tools/ulpsim

Runs ulpsim with each malformed `run` override, campaign flag and Mica2
flag below. Every case must exit non-zero within 3 s and name the
offending flag on stderr. A run that hangs, succeeds, or fails without
naming its flag makes the exit code 1.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO = os.path.join(ROOT, "examples", "chain.ini")

# (arguments after the ulpsim binary, flag the diagnostic must name)
CASES = [
    (["run", SCENARIO, "--seconds=-1"], "--seconds"),
    (["run", SCENARIO, "--seconds=nan"], "--seconds"),
    (["run", SCENARIO, "--seconds=0.1x"], "--seconds"),
    (["run", SCENARIO, "--seed=12z"], "--seed"),
    (["run", SCENARIO, "--threads=0"], "--threads"),
    (["run", SCENARIO, "--trace=EP"], "--trace"),
    (["campaign", "report", "missing.results.jsonl", "--tolerance=abc"],
     "--tolerance"),
    (["--platform=mica2", "--seconds=0.1x"], "--seconds"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ulpsim", required=True, help="path to ulpsim")
    args = ap.parse_args()

    failures = 0
    for argv, flag in CASES:
        label = " ".join(os.path.relpath(a, ROOT) if a == SCENARIO else a
                         for a in argv)
        try:
            proc = subprocess.run([args.ulpsim] + argv, capture_output=True,
                                  text=True, timeout=3)
        except subprocess.TimeoutExpired:
            print(f"FAIL  {label}: still running after 3 s")
            failures += 1
            continue
        if proc.returncode == 0:
            print(f"FAIL  {label}: exited 0")
            failures += 1
        elif flag not in proc.stderr:
            print(f"FAIL  {label}: diagnostic does not name {flag}: "
                  f"{proc.stderr.strip()!r}")
            failures += 1
        else:
            print(f"ok    {label}: {proc.stderr.splitlines()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
