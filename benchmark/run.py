#!/usr/bin/env python3
"""The repository benchmark: build ulpbench, run the workloads, check them.

    python3 benchmark/run.py                      # every workload, full report
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke [--binary PATH]
    python3 benchmark/run.py --compare A.json B.json

Each workload runs one repetition at a time, each in a fresh ulpbench
process: one untimed oracle (or warm-up) repetition, then timed
repetitions (at least five, and for at least --seconds), then, when
traced, one repetition with heap counting and phase spans. Every
repetition's statistics digest must equal the oracle's, and each workload
has sanity checks on its counters; any failure makes the exit code 1.

With --workload the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metrics are the
end_to_end ones of BENCHMARK.json with --trace 0 and its per_layer ones
with --trace 1. With no --workload every workload runs, the report is
printed and the results are written to benchmark/build/out/results.json,
which --compare reads. See benchmark/README.md.
"""

import argparse
import configparser
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = 5
REP_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_HORIZON_SHARE = 1 / 20

# Below these absolute differences --compare never calls a regression,
# whatever the relative bound (the timer and the allocator are not finer).
ABS_SLACK = {"s": 0.005, "MB": 2.0}

# Per workload: the oracle repetition's overrides (None: the warm-up is a
# plain repetition and later digests must repeat it), and the counters
# every measured repetition must show.
WORKLOADS = {
    "grid1k_steady": {
        "oracle": ["--threads=2"],
        "checks": {"sink_packets": ">0"},
    },
    "mesh16k_build": {
        "oracle": ["--threads=2"],
        "checks": {"events": ">0"},
    },
    "bcast256_fabric": {
        # Broadcast loss needs the sequential channel, so K = 1 only.
        "oracle": None,
        "checks": {"ep_isrs": "==0", "fabric_linked": ">0"},
    },
    "beacon256_traced": {
        "oracle": ["--threads=1", "--no-telemetry"],
        "checks": {"sink_packets": ">0", "obs_records": ">0"},
    },
}


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}", 2)


def build():
    """Configure (once) and build ulpbench in Release; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources at {os.path.join(ROOT, 'src')}", 2)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "ulpbench",
                  "-j", jobs])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"{' '.join(cmd)}: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed ({' '.join(cmd)}); see {log_path}")
    return os.path.join(BUILD, "ulpbench")


def horizon(workload):
    """The workload's simulated seconds, from its INI [scenario] section."""
    ini = configparser.ConfigParser(strict=False,
                                    inline_comment_prefixes=("#", ";"))
    ini.read(workload_ini(workload))
    return float(ini["scenario"]["seconds"])


def workload_ini(workload):
    return os.path.join(HERE, "workloads", f"{workload}.ini")


def run_rep(binary, workload, extra, out_dir):
    """One ulpbench process. Returns (result, None) or (None, error). A
    [trace] section streams into a scratch directory, deleted afterwards
    (ulpbench records its size first)."""
    trace_dir = os.path.join(out_dir, "reps", workload)
    cmd = [binary, workload_ini(workload), f"--trace-out={trace_dir}"] + extra
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {REP_TIMEOUT_S} s"
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    if p.returncode != 0:
        return None, f"exit {p.returncode}: {p.stderr.strip()}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"unreadable output {p.stdout[-200:]!r}"


def sanity(workload, counts):
    problems = []
    for name, rule in WORKLOADS[workload]["checks"].items():
        value = counts[name]
        ok = value > 0 if rule == ">0" else value == 0
        if not ok:
            problems.append(f"{name} = {value}, expected {rule}")
    return problems


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def summary(samples, unit):
    p25, p75 = quartiles(samples)
    return {"unit": unit, "median": statistics.median(samples), "p25": p25,
            "p75": p75, "n": len(samples), "samples": samples}


def self_times(spans):
    """Each span name's duration minus what its children cover, summed
    over its spans. Every phase is a child of the one root span,
    "workload", and phases do not overlap."""
    root = spans[0]
    out = {root["name"]: root["dur_s"] - sum(s["dur_s"] for s in spans[1:])}
    for s in spans[1:]:
        out[s["name"]] = out.get(s["name"], 0.0) + s["dur_s"]
    return out.items()


def measure(binary, workload, spec, seed=None, seconds=0.0, min_reps=MIN_REPS,
            traced=True, sim_seconds=None):
    """Run one workload: oracle or warm-up, timed repetitions, traced one."""
    out_dir = os.path.join(os.path.dirname(binary), "out")
    os.makedirs(out_dir, exist_ok=True)
    base = []
    if seed is not None:
        base.append(f"--seed={seed}")
    if sim_seconds is not None:
        base.append(f"--seconds={sim_seconds!r}")

    failures = []  # (tag, message); a repetition may fail several checks
    attempted = 0

    def rep(extra, tag):
        nonlocal attempted
        attempted += 1
        result, error = run_rep(binary, workload, base + extra, out_dir)
        if error:
            failures.append((tag, error))
        return result

    oracle = WORKLOADS[workload]["oracle"]
    first = rep(oracle or [], "oracle" if oracle else "warmup")
    reference = first["counts"]["stats_digest"] if first else None

    def check(result, tag):
        if result is None:
            return False
        problems = sanity(workload, result["counts"])
        digest = result["counts"]["stats_digest"]
        if reference and digest != reference:
            problems.append(f"stats digest {digest} != oracle {reference}")
        failures.extend((tag, p) for p in problems)
        return not problems

    # Only repetitions that pass every check are measured; the first one
    # that fails ends the timed loop, since the run has failed anyway.
    timed = []
    start = time.monotonic()
    while len(timed) < min_reps or time.monotonic() - start < seconds:
        tag = f"rep{len(timed) + 1}"
        result = rep([], tag)
        if not check(result, tag):
            break
        timed.append(result)

    layers = None
    spans = None
    if traced:
        spans_path = os.path.join(out_dir, f"{workload}.spans.json")
        result = rep([f"--layers={spans_path}"], "traced")
        if check(result, "traced"):
            layers = dict(result["layers"])
            spans = result["spans"]
            if timed:
                untraced = statistics.median(r["total_s"] for r in timed)
                layers["host.trace_overhead_pct"] = (
                    100.0 * (result["total_s"] / untraced - 1.0))

    end_to_end = {}
    for m in spec["end_to_end"]:
        samples = [r[m["name"]] for r in timed]
        if samples:
            end_to_end[m["name"]] = summary(samples, m["unit"])
    failed = len({tag for tag, _ in failures})
    end_to_end["failed_runs"] = summary([failed / attempted], "share")
    return {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{tag}: {p}" for tag, p in failures],
        "digest": reference,
        "counts": timed[0]["counts"] if timed else {},
        "end_to_end": end_to_end,
        "per_layer": layers,
        "spans": spans,
    }


def print_report(res, spec):
    w = res["workload"]
    seed = "INI" if res["seed"] is None else res["seed"]
    print(f"\n== {w}  (seed {seed}; {res['attempted']} reps, "
          f"{res['failed']} failed; digest {res['digest']})")
    for f in res["failures"]:
        print(f"   FAILED  {f}")
    print(f"   {'metric':<34}{'unit':<8}{'median':>14}{'p25':>14}"
          f"{'p75':>14}{'n':>4}")
    for name, m in res["end_to_end"].items():
        print(f"   {name:<34}{m['unit']:<8}{m['median']:>14.6g}"
              f"{m['p25']:>14.6g}{m['p75']:>14.6g}{m['n']:>4}")
    if res["per_layer"]:
        print("   per-layer (traced rep)")
        for m in spec["per_layer"]:
            value = res["per_layer"].get(m["name"])
            if value is not None:
                print(f"     {m['name']:<32}{m['unit']:<14}{value:>16.6g}")
    if res["spans"]:
        print("   span self time (traced rep)")
        for name, t in self_times(res["spans"]):
            print(f"     {name:<32}{'s':<14}{t:>16.6g}")


def host_block():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.strip().partition("=")
                if sep and ":" in key:
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "os": platform.platform()}


def workload_result(res, spec, traced):
    """The one-line result of a single-workload run."""
    if traced:
        values = res["per_layer"] or {}
        wanted = spec["per_layer"]
    else:
        values = {k: v["median"] for k, v in res["end_to_end"].items()}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def verdict(m, ma, mb):
    """B against baseline A on one lower-is-better metric. A baseline whose
    spread, (p75 - p25) / median, is wider than the bound cannot resolve a
    change of that size, unless every B sample beats every A sample."""
    spread = (ma["p75"] - ma["p25"]) / ma["median"] if ma["median"] else 0.0
    if spread > m["bound"]:
        return spread, ("PASS" if max(mb["samples"]) < min(ma["samples"])
                        else "UNRESOLVED")
    worse = mb["median"] - ma["median"]
    if worse > m["bound"] * ma["median"] and worse > ABS_SLACK.get(
            m["unit"], 0.0):
        return spread, "FAIL"
    return spread, "PASS"


def compare(path_a, path_b, spec):
    """PASS/FAIL/UNRESOLVED per workload and end-to-end metric, B against
    A; deterministic counts and digests must be identical. Exit code 1 on
    any FAIL."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    metrics = spec["end_to_end"] + [
        {"name": "failed_runs", "unit": "share", "better": "lower",
         "bound": 0.0}]
    if any(m["better"] != "lower" for m in metrics):
        fail("--compare handles only lower-is-better metrics", 2)
    tally = {"PASS": 0, "FAIL": 0, "UNRESOLVED": 0}
    print(f"{'workload':<18}{'metric':<14}{'A median':>12}{'B median':>12}"
          f"{'bound':>8}{'spread A':>10}  verdict")
    for w, ra in a["workloads"].items():
        rb = b["workloads"].get(w)
        if rb is None:
            print(f"{w:<18}missing from {path_b}  FAIL")
            tally["FAIL"] += 1
            continue
        for m in metrics:
            ma = ra["end_to_end"].get(m["name"])
            mb = rb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                print(f"{w:<18}{m['name']:<14}not measured in both  FAIL")
                tally["FAIL"] += 1
                continue
            spread, v = verdict(m, ma, mb)
            tally[v] += 1
            print(f"{w:<18}{m['name']:<14}{ma['median']:>12.6g}"
                  f"{mb['median']:>12.6g}{m['bound']:>8.3g}{spread:>10.3g}"
                  f"  {v}")
        if ra["seed"] == rb["seed"]:
            same = ra["digest"] == rb["digest"] and ra["counts"] == rb["counts"]
            v = "PASS" if same else "FAIL"
            tally[v] += 1
            print(f"{w:<18}{'counts+digest':<14}{'':>42}  {v}")
    print(", ".join(f"{n} {k}" for k, n in tally.items()))
    return 1 if tally["FAIL"] else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measure each workload for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="one repetition per workload at 1/20 horizon")
    ap.add_argument("--binary", help="use this ulpbench instead of building")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)

    binary = os.path.abspath(args.binary) if args.binary else build()

    if args.workload:
        res = measure(binary, args.workload, spec, seed=args.seed,
                      seconds=args.seconds, traced=bool(args.trace))
        print_report(res, spec)
        print(json.dumps(workload_result(res, spec, bool(args.trace))))
        return 0 if res["failed"] == 0 else 1

    results = {"host": host_block(), "workloads": {}}
    for w in WORKLOADS:
        if args.smoke:
            res = measure(binary, w, spec, seed=args.seed, min_reps=1,
                          sim_seconds=horizon(w) * SMOKE_HORIZON_SHARE)
        else:
            res = measure(binary, w, spec, seed=args.seed,
                          seconds=args.seconds)
        print_report(res, spec)
        results["workloads"][w] = res
    failed = sum(r["failed"] for r in results["workloads"].values())
    if not args.smoke:
        path = os.path.join(os.path.dirname(binary), "out", "results.json")
        with open(path, "w") as f:
            json.dump(results, f, indent=1)
        print(f"\nresults: {path}")
    print(f"{'FAILED' if failed else 'OK'}: {failed} failed reps")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
