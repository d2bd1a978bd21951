#!/usr/bin/env python3
"""Golden behaviour corpus: one FNV-1a digest per scenario run.

    python3 tests/golden/check_golden.py --ulpsim build/tools/ulpsim
    python3 tests/golden/check_golden.py --ulpsim build/tools/ulpsim \\
        --update-golden

Runs `ulpsim run <ini> --threads=1 --stats` for every scenario file in
examples/ (campaign specs are skipped: they are not single runs) and for
the small scenarios kept next to this script, hashes each run's standard
output with 64-bit FNV-1a, and compares the hash with the committed
tests/golden/<name>.digest. Any mismatch, missing digest or failed run
makes the exit code 1. --update-golden rewrites the digest files instead.

Scenarios with a [trace] section write their trace to a temporary
directory; its path is replaced by a fixed token before hashing. The
horizons of the longer examples are capped (CAPS) so the whole corpus
runs in well under a minute in an unoptimised build. Run from any
directory: the scenarios are resolved against the repository root.
"""

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Simulated-seconds caps, by scenario file name.
CAPS = {"battery_life.ini": 40}

TRACE_TOKEN = "<trace-dir>"


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def is_campaign(path):
    with open(path) as f:
        return any(re.match(r"\s*\[campaign\]", line) for line in f)


def corpus():
    """(digest name, scenario path) pairs, examples first."""
    entries = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.ini"))):
        if not is_campaign(path):
            entries.append(("examples_" + os.path.basename(path)[:-4], path))
    for path in sorted(glob.glob(os.path.join(HERE, "*.ini"))):
        entries.append((os.path.basename(path)[:-4], path))
    return entries


def has_trace_section(path):
    with open(path) as f:
        return any(re.match(r"\s*\[trace\]", line) for line in f)


def run(ulpsim, path, scratch):
    cmd = [ulpsim, "run", path, "--threads=1", "--stats"]
    cap = CAPS.get(os.path.basename(path))
    if cap is not None:
        cmd.append(f"--seconds={cap}")
    trace_dir = None
    if has_trace_section(path):
        trace_dir = os.path.join(scratch, os.path.basename(path)[:-4])
        cmd.append(f"--trace-out={trace_dir}")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return None
    out = proc.stdout
    if trace_dir:
        out = out.replace(trace_dir.encode(), TRACE_TOKEN.encode())
    return fnv1a64(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ulpsim", required=True, help="path to ulpsim")
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite the .digest files from this build")
    args = ap.parse_args()
    ulpsim = os.path.abspath(args.ulpsim)

    bad = 0
    with tempfile.TemporaryDirectory(prefix="ulp-golden-") as scratch:
        for name, path in corpus():
            digest = run(ulpsim, path, scratch)
            rel = os.path.relpath(path, ROOT)
            if digest is None:
                print(f"FAIL  {rel}: ulpsim run failed")
                bad += 1
                continue
            digest_file = os.path.join(HERE, name + ".digest")
            if args.update_golden:
                with open(digest_file, "w") as f:
                    f.write(digest + "\n")
                print(f"wrote {rel}: {digest}")
                continue
            try:
                with open(digest_file) as f:
                    want = f.read().strip()
            except FileNotFoundError:
                print(f"FAIL  {rel}: no {os.path.basename(digest_file)} "
                      f"(run with --update-golden)")
                bad += 1
                continue
            if digest == want:
                print(f"ok    {rel}: {digest}")
            else:
                print(f"FAIL  {rel}: {digest} != golden {want}")
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
