#!/usr/bin/env python3
"""Performance ledger runner: builds the ledger binary if it is stale, runs
each workload in its own process and prints one line per metric:

    workload metric value unit

Usage (from the repository root):

    python3 bench/ledger/run.py [--seed N] [--trace] [--smoke] [--out FILE]
                                [--repeat N]
    python3 bench/ledger/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]
    python3 bench/ledger/run.py --compare A.json B.json

With --workload, one workload runs once and the last line of standard output
is one JSON object: correct, attempted, failed and the metrics BENCHMARK.json
lists for the mode (end_to_end with --trace 0, per_layer with --trace 1).
Without it, every workload runs untraced (and traced too with --trace), and
--out writes every run's metrics plus the machine's meta data as JSON.
--compare applies the bounds in BENCHMARK.json to two such files.

Exit status: 0 when every check passed; 1 when a check failed, a run crashed
or --compare found a regression; 2 when the build failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "ledger"
BUILD = ROOT / ".bench_build" / "ledger"
BINARY = BUILD / "ledger"
TRACES = ROOT / ".bench_build" / "traces"

DEFAULT_SEED = 1
# A run must end well inside the 180 s a single invocation may take.
RUN_TIMEOUT_S = 170
# --smoke: every workload on a small input, the whole benchmark in seconds.
SMOKE_SCALE = 0.1
SMOKE_SECONDS = 2.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then lets CMake rebuild whatever is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return BINARY.exists()


def run_binary(workload, seed, seconds, trace, scale):
    """Runs one workload in its own process; returns its parsed result or
    None when it crashed, timed out or printed no result."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
               "--scale", repr(float(scale))]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(TRACES / f"trace_{workload}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ledger: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"ledger: {workload} printed no result (exit {done.returncode})")
        return None
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def print_lines(result):
    for name, metric in sorted(result["metrics"].items()):
        print(f"{result['workload']} {name} {metric['value']:.10g} "
              f"{metric['unit']}")
    print(f"{result['workload']} checks {result['attempted'] - result['failed']}"
          f"/{result['attempted']} passed", flush=True)


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(args, bench):
    """One workload, one run: the metric lines, then one JSON result line
    holding the metrics BENCHMARK.json lists for the mode."""
    result = run_binary(args.workload, args.seed, args.seconds, args.trace,
                        SMOKE_SCALE if args.smoke else 1.0)
    if result is None:
        return 1
    print_lines(result)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        measured = result["metrics"].get(entry["name"])
        if measured is None:
            log(f"ledger: {args.workload} did not report {entry['name']}")
            return 1
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": entry["unit"]}
    print(json.dumps({"correct": result["correct"] and result["exit"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and result["exit"] == 0 else 1


def run_all(args, bench):
    """Every workload in its own process, untraced (and traced with
    --trace); --repeat alternates workloads between rounds."""
    names = [w["name"] for w in bench["workloads"]]
    if args.workload:
        names = [args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    modes = [0, 1] if args.trace else [0]
    runs = []
    ok = True
    started = time.time()
    for _ in range(args.repeat):
        for name in names:
            for trace in modes:
                result = run_binary(name, args.seed, seconds, trace, scale)
                if result is None:
                    ok = False
                    continue
                print_lines(result)
                ok = ok and result["correct"] and result["exit"] == 0
                runs.append(result)
    log(f"ledger: {len(runs)} runs in {time.time() - started:.1f} s")
    if args.out:
        meta = dict(runs[0]["meta"]) if runs else {}
        meta.update({"commit": commit(), "seed": args.seed,
                     "seconds": seconds, "scale": scale})
        for key in ("records", "workers"):
            meta.pop(key, None)
        with open(args.out, "w") as f:
            # One run per line keeps the file small and its diffs readable.
            f.write('{"meta": ' + json.dumps(meta) + ',\n "runs": [\n' +
                    ",\n".join(json.dumps(r) for r in runs) + "\n]}\n")
    return 0 if ok else 1


def spread(values):
    """(max - min) / median, the run-to-run spread of one side."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def compare(path_a, path_b, bench):
    """One row per workload: each end-to-end metric's median change from A
    to B, judged against the bound in BENCHMARK.json."""
    sides = []
    for path in (path_a, path_b):
        with open(path) as f:
            sides.append([r for r in json.load(f)["runs"] if not r["trace"]])
    a_runs, b_runs = sides
    workloads = [w["name"] for w in bench["workloads"]]
    regression = False
    for workload in workloads:
        cells = []
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            base = statistics.median(a)
            change = (statistics.median(b) - base) / abs(base) if base else 0.0
            worse = change if metric["better"] == "lower" else -change
            if metric["better"] == "lower":
                all_better = max(b) < min(a)
            else:
                all_better = min(b) > max(a)
            noisy = len(a) > 1 and len(b) > 1 and \
                max(spread(a), spread(b)) > bound
            if noisy and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regression = True
            else:
                verdict = "ok"
            cells.append(f"{name} {change:+.1%} {verdict}")
        if cells:
            print(f"{workload}: " + "; ".join(cells))
    return 1 if regression else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    bench = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload and args.workload not in \
            [w["name"] for w in bench["workloads"]]:
        log(f"ledger: unknown workload {args.workload}")
        return 1
    if not build():
        log("ledger: build failed")
        return 2
    if args.workload and not args.out and args.repeat == 1:
        return run_one(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
