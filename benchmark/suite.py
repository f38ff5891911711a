#!/usr/bin/env python3
"""The suite around the benchmark binary: run every workload, repeat, compare.

Called by run.sh (which builds first and exports BENCH_BIN):

    suite.py [--seed N] [--smoke] [--save FILE]
    suite.py repeat N [--seed N] [--smoke] [--save FILE]
    suite.py compare A.json B.json

A saved file holds {"meta": {...}, "runs": [{"workload", "seed", "trace",
"result"}]}, where "result" is the binary's last stdout line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SMOKE_SECONDS = 2
# A paced run whose generator was later than this at p99 is invalid, not slow.
LATE_LIMIT_MS = 1.0


def run_once(workload, seed, seconds, trace):
    """One run of the binary; prints its metric lines, returns its result."""
    cmd = [os.environ["BENCH_BIN"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", os.path.join(HERE, "out")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload}: no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["invalid"] = [line[2:] for line in lines if line.startswith("# INVALID RUN")]
    return result


def problems(run):
    """Why a run does not count, as a list of strings (empty = it counts)."""
    result, out = run["result"], []
    if not result["correct"] or result["failed"] or result["exit_code"]:
        out.append(f"{result['failed']} of {result['attempted']} records failed the output check")
    late = result["metrics"].get("loadgen.late_ms_p99", {}).get("value", 0)
    if late > LATE_LIMIT_MS:
        out.append(f"INVALID RUN: paced generator ran {late:.3f} ms late at p99 (limit {LATE_LIMIT_MS} ms)")
    return out + result.get("invalid", [])


def save(runs, args):
    meta = {
        "commit": os.environ.get("BENCH_COMMIT", "unknown"),
        "rustc": os.environ.get("BENCH_RUSTC", "unknown"),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = args.save or os.path.join(HERE, "out", f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({"meta": meta, "runs": runs}, f, indent=1)
    print(f"# saved {len(runs)} runs to {path}")
    bad = [(r["workload"], r["seed"], p) for r in runs for p in problems(r)]
    for workload, seed, problem in bad:
        print(f"# FAILED {workload} seed {seed}: {problem}")
    sys.exit(1 if bad else 0)


def suite(args):
    """Every workload untraced, then traced with the layer probes."""
    runs = []
    for trace in (0, 1):
        for w in SPEC["workloads"]:
            result = run_once(w["name"], args.seed, args.seconds, trace)
            runs.append({"workload": w["name"], "seed": args.seed, "trace": trace, "result": result})
    save(runs, args)


def repeat(args):
    """N untraced runs of every workload, workloads interleaved, seed + i."""
    runs = []
    for i in range(args.n):
        for w in SPEC["workloads"]:
            result = run_once(w["name"], args.seed + i, args.seconds, 0)
            runs.append({"workload": w["name"], "seed": args.seed + i, "trace": 0, "result": result})
    save(runs, args)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(path):
    """{(workload, metric): [value per untraced run]} of a saved file."""
    out = {}
    with open(path) as f:
        runs = json.load(f)["runs"]
    for run in runs:
        if run["trace"] == 0 and not problems(run):
            for name, m in run["result"]["metrics"].items():
                out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def verdict(a, b, metric):
    """within / outside / unresolved for one workload x metric.

    b is worse than a by more than the bound -> outside; either side's own
    spread (q3 - q1 over the median) wider than the bound -> unresolved,
    whatever the medians say.
    """
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worse = (bm - am) / am if metric["better"] == "lower" else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > metric["bound"]:
        return worse, spread, "unresolved"
    return worse, spread, "outside" if worse > metric["bound"] else "within"


def compare(args):
    a, b = values_of(args.a), values_of(args.b)
    print(f"{'workload':<18} {'metric':<15} {'A median [q1..q3] (n)':>36} {'B median [q1..q3] (n)':>36}"
          f" {'B worse by':>10} {'bound':>6}  verdict")
    counts = {}
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                print(f"{key[0]:<18} {key[1]:<15} missing on one side")
                counts["missing"] = counts.get("missing", 0) + 1
                continue
            worse, _, word = verdict(a[key], b[key], m)
            counts[word] = counts.get(word, 0) + 1
            side = lambda v: "{:.4g} [{:.4g}..{:.4g}] ({})".format(*(quartiles(v)[i] for i in (1, 0, 2)), len(v))
            print(f"{key[0]:<18} {key[1]:<15} {side(a[key]):>36} {side(b[key]):>36}"
                  f" {worse * 100:>9.2f}% {m['bound'] * 100:>5.0f}%  {word}")
    print("# " + ", ".join(f"{n} {word}" for word, n in sorted(counts.items())))
    sys.exit(1 if counts.get("outside") or counts.get("missing") else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(command="suite", run=suite)
    sub = parser.add_subparsers()
    rep = sub.add_parser("repeat")
    rep.add_argument("n", type=int)
    rep.set_defaults(command="repeat", run=repeat)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(command="compare", run=compare)
    for p in (parser, rep):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--smoke", action="store_true", help=f"{SMOKE_SECONDS}-second runs; never compared")
        p.add_argument("--save", help="file to write the runs to (default: benchmark/out/<command>-<time>.json)")
    args = parser.parse_args()
    if args.command != "compare":
        args.seconds = SMOKE_SECONDS if args.smoke else SPEC["run_seconds"]
    args.run(args)


if __name__ == "__main__":
    main()
