#!/usr/bin/env python3
"""Golden behaviour corpus: one FNV-1a digest per scenario or program run.

    python3 tests/golden/check_golden.py --ulpsim build/tools/ulpsim \\
        --build-dir build
    python3 tests/golden/check_golden.py --ulpsim build/tools/ulpsim \\
        --build-dir build --update-golden

Runs `ulpsim run <ini> --threads=1 --stats` for every scenario file in
examples/ (campaign specs are skipped: they are not single runs), for
the small scenarios kept next to this script and for three of the
benchmark workloads (WORKLOADS, read from benchmark/workloads/), hashes
each run's standard output with 64-bit FNV-1a, and compares the hash
with the committed tests/golden/<name>.digest. It also runs each
program in PROGRAMS (the example programs and the paper benches that
assemble applications, found under --build-dir) without arguments and
hashes its standard output into tests/golden/program_<name>.digest. Any mismatch, missing
digest or failed run makes the exit code 1. --update-golden rewrites
the digest files instead.

Each scenario is also run through `ulpsim print-scenario`, the
canonical text campaign workers re-parse. Printing that text again must
give the same bytes, and a run of it must hash to the same digest.

Scenarios with a [trace] section write their trace to a temporary
directory; its path is replaced by a fixed token before hashing. The
trace recorder drops records when its flusher thread falls behind, which
a loaded host decides. The scenarios in OVERFLOWING_TRACES offer enough
records to overflow its ring, so their `trace records` line is hashed
with the dropped records counted as recorded: the sum, the records the
model offered, is the same on every host. Every other traced scenario
hashes its exact recorded/dropped split, so a recorder that starts
dropping there fails the corpus.

The horizons of the longer examples and of the workloads are capped
(CAPS) so the whole corpus runs in well under a minute in an
unoptimised build. mesh16k_build stays out: its --stats output is about
118 MB, and this pure-Python FNV-1a hashes about 5.7 MB/s, so it would
add about 20 s per pass, twice over with the print-scenario run. Run
from any directory: the scenarios are resolved against the repository
root.
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
CAPS = {
    "battery_life.ini": 40,
    "grid1k_steady.ini": 0.5,
    "bcast256_fabric.ini": 2,
    "beacon256_traced.ini": 2,
}

# Benchmark workloads in the corpus, digested as workload_<name>.
WORKLOADS = ["grid1k_steady", "bcast256_fabric", "beacon256_traced"]

TRACE_TOKEN = "<trace-dir>"

# Traced scenarios, by file name, whose trace ring overflows on a loaded
# host: beacon256_traced offers 2.7 million records in 2 s.
OVERFLOWING_TRACES = {"beacon256_traced.ini"}

# `ulpsim run --stats`'s trace line: recorded records, then dropped ones.
TRACE_RECORDS = re.compile(rb"^(trace records: +)(\d+) \((\d+) dropped\)",
                           re.M)

# Programs whose standard output is digested, relative to the build
# directory: every example program, and every paper bench that builds
# node programs through the assemblers.
PROGRAMS = [
    "examples/quickstart",
    "examples/volcano_monitor",
    "examples/gdi_habitat",
    "examples/multihop_reconfig",
    "examples/energy_harvesting",
    "examples/fault_campaign",
    "bench/bench_table4_cycles",
    "bench/bench_snap_comparison",
    "bench/bench_table5_power",
    "bench/bench_ablation_no_ep",
    "bench/bench_ablation_no_gating",
    "bench/bench_ablation_compression",
]


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
    """(digest name, scenario path) pairs: examples, the scenarios kept
    here, then the benchmark workloads."""
    entries = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.ini"))):
        if not is_campaign(path):
            entries.append(("examples_" + os.path.basename(path)[:-4], path))
    for path in sorted(glob.glob(os.path.join(HERE, "*.ini"))):
        entries.append((os.path.basename(path)[:-4], path))
    for name in WORKLOADS:
        entries.append(("workload_" + name, os.path.join(
            ROOT, "benchmark", "workloads", name + ".ini")))
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
        if os.path.basename(path) in OVERFLOWING_TRACES:
            out = TRACE_RECORDS.sub(offered_records, out)
    return fnv1a64(out)


def offered_records(match):
    """The trace line with its dropped records counted as recorded."""
    prefix, recorded, dropped = match.groups()
    offered = int(recorded) + int(dropped)
    return prefix + b"%d (0 dropped)" % offered


def run_program(path):
    try:
        proc = subprocess.run([path], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
    except OSError as e:
        sys.stderr.write(f"{e}\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return None
    return fnv1a64(proc.stdout)


def print_scenario(ulpsim, path):
    proc = subprocess.run([ulpsim, "print-scenario", path], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return None
    return proc.stdout


def check_printed(ulpsim, path, scratch, digest):
    """None when the printed form of `path` is a print-scenario fixpoint
    whose run hashes to `digest`, else what is wrong with it."""
    text = print_scenario(ulpsim, path)
    if text is None:
        return "ulpsim print-scenario failed"
    printed_dir = os.path.join(scratch, "printed")
    os.makedirs(printed_dir, exist_ok=True)
    printed = os.path.join(printed_dir, os.path.basename(path))
    with open(printed, "wb") as f:
        f.write(text)
    if print_scenario(ulpsim, printed) != text:
        return "the printed form is not a print-scenario fixpoint"
    again = run(ulpsim, printed, printed_dir)
    if again != digest:
        return f"the printed form runs to {again}, not {digest}"
    return None


def check(name, rel, digest, update):
    """Compare `digest` of `rel` with tests/golden/<name>.digest, or
    write it there when `update`; True when it matches or was written."""
    digest_file = os.path.join(HERE, name + ".digest")
    if update:
        with open(digest_file, "w") as f:
            f.write(digest + "\n")
        print(f"wrote {rel}: {digest}")
        return True
    try:
        with open(digest_file) as f:
            want = f.read().strip()
    except FileNotFoundError:
        print(f"FAIL  {rel}: no {os.path.basename(digest_file)} "
              f"(run with --update-golden)")
        return False
    if digest == want:
        print(f"ok    {rel}: {digest}")
        return True
    print(f"FAIL  {rel}: {digest} != golden {want}")
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ulpsim", required=True, help="path to ulpsim")
    ap.add_argument("--build-dir", required=True,
                    help="build directory holding the PROGRAMS")
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite the .digest files from this build")
    args = ap.parse_args()
    ulpsim = os.path.abspath(args.ulpsim)
    build_dir = os.path.abspath(args.build_dir)

    bad = 0
    with tempfile.TemporaryDirectory(prefix="ulp-golden-") as scratch:
        for name, path in corpus():
            digest = run(ulpsim, path, scratch)
            rel = os.path.relpath(path, ROOT)
            if digest is None:
                print(f"FAIL  {rel}: ulpsim run failed")
                bad += 1
                continue
            problem = check_printed(ulpsim, path, scratch, digest)
            if problem:
                print(f"FAIL  {rel}: {problem}")
                bad += 1
                continue
            if not check(name, rel, digest, args.update_golden):
                bad += 1
    for rel in PROGRAMS:
        digest = run_program(os.path.join(build_dir, rel))
        if digest is None:
            print(f"FAIL  {rel}: the program failed")
            bad += 1
            continue
        name = "program_" + os.path.basename(rel)
        if not check(name, rel, digest, args.update_golden):
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
