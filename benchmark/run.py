#!/usr/bin/env python3
"""The repository benchmark: builds osched_perf and runs its workloads.

One run (what BENCHMARK.json's command does):
    python3 benchmark/run.py --workload online_m16 --seed 1 --seconds 6 --trace 0
prints every metric of the run with its unit, then one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

A set of runs:
    python3 benchmark/run.py --seed 1 [--runs 5] [--seconds 6] [--out r.json]
runs every workload --runs times, one process per run, one after another;
prints the median and quartiles of each end-to-end metric, adds one traced
run per workload for the per-layer metrics, and writes the results JSON.

Comparing two result files (either may hold several sets, which are pooled):
    python3 benchmark/run.py --compare A.json B.json

The program is built from the checkout's sources into .bench_build/ at the
repository root; all outputs stay there.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "osched_perf"
WORKDIR = BUILD / "run"

# Metrics that are a pure function of the seed: compared exactly, so their
# bounds in BENCHMARK.json are not read here. Those bounds cover medians
# taken over different seeds, which differ by the inputs alone.
EXACT = {"reject_frac", "mean_flow", "flow_to_lb"}


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds osched_perf; False when either step fails."""
    steps = [["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "osched_perf",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, timeout=880).returncode:
            return False
    return True


def run_once(workload, seed, seconds, trace):
    """Runs osched_perf once. Returns its parsed JSON line, or None when the
    program printed none."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(WORKDIR)]
    spans = WORKDIR / f"spans_{workload}.jsonl"
    if trace:
        cmd += ["--trace", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    if trace and proc.returncode == 0:
        sys.path.insert(0, str(ROOT / "benchmark"))
        from trace_summary import summarize
        result["metrics"]["bench.layer_coverage"] = {
            "value": summarize(spans)["layer_coverage"], "unit": "frac"}
    return result


def select(result, names):
    """The named metrics of a run; None if any is missing."""
    metrics = result["metrics"]
    if any(name not in metrics for name in names):
        return None
    return {name: metrics[name] for name in names}


def single(args):
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    bench = spec()
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        print("osched_perf printed no result", file=sys.stderr)
        return 1
    metrics = select(result, wanted)
    if metrics is None:
        print("osched_perf omitted a metric", file=sys.stderr)
        return 1
    correct = result["exit_code"] == 0 and result["checks_failed"] == 0
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize_runs(runs, names):
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(med) if med else 0.0}
    return summary


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def suite(args):
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    bench = spec()
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    out = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
           "host": host(), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            result = run_once(workload, args.seed, args.seconds, False)
            if result is None or result["exit_code"] or result["checks_failed"]:
                print(f"{workload}: run {i} failed", file=sys.stderr)
                ok = False
                continue
            runs.append({"metrics": select(result, e2e),
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
        entry = {"runs": runs}
        if runs:
            entry["summary"] = summarize_runs(runs, e2e)
        traced = run_once(workload, args.seed, args.seconds, True)
        if traced is None or traced["exit_code"] or traced["checks_failed"]:
            print(f"{workload}: traced run failed", file=sys.stderr)
            ok = False
        else:
            entry["per_layer"] = select(traced, layer)
        out["workloads"][workload] = entry
        print(f"\n== {workload} ({len(runs)} runs at seed {args.seed}, "
              f"{args.seconds} s each)")
        print(f"{'metric':<16} {'unit':<8} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8}")
        for name, s in entry.get("summary", {}).items():
            print(f"{name:<16} {s['unit']:<8} {s['median']:>14.6g} "
                  f"{s['q1']:>14.6g} {s['q3']:>14.6g} {s['spread']:>8.2%}")
        for name, m in (entry.get("per_layer") or {}).items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
    return 0 if ok else 1


def load_runs(path):
    """Workload -> list of end-to-end metric dicts, pooled over sets."""
    with open(path) as f:
        data = json.load(f)
    pooled = {}
    for result in data.get("sets", [data]):
        for workload, entry in result["workloads"].items():
            pooled.setdefault(workload, []).extend(
                r["metrics"] for r in entry["runs"])
    return pooled


def compare(path_a, path_b):
    """Applies BENCHMARK.json's bounds to B against A, per workload and
    metric. Exit code 1 when a metric regressed or an exact metric moved."""
    a_runs, b_runs = load_runs(path_a), load_runs(path_b)
    metrics = spec()["end_to_end"]
    bad = False
    print(f"{'workload':<20} {'metric':<14} {'A median':>13} {'B median':>13} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = [r[name]["value"] for r in a_runs[workload]]
            b = [r[name]["value"] for r in b_runs[workload]]
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
            spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                         (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
            if name in EXACT:
                verdict = "same" if set(a) == set(b) else "CHANGED"
                bad |= verdict == "CHANGED"
            elif spread > bound:
                all_better = (max(b) < min(a) if sign > 0 else min(b) > max(a))
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                bad = True
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<20} {name:<14} {a_med:>13.6g} {b_med:>13.6g} "
                  f"{-worse:>+8.2%} {bound:>6.0%}  {verdict}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", help="results JSON for a set of runs")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return single(args) if args.workload else suite(args)


if __name__ == "__main__":
    sys.exit(main())
