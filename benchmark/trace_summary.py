#!/usr/bin/env python3
"""Per-layer summary of an osched_perf span file.

    python3 benchmark/trace_summary.py spans.jsonl [--json]

osched_perf --trace writes JSON lines of three kinds:
  - a sampled span: id, op, name, parent, start_ns, end_ns. A span with
    parent -1 is a library call the benchmark made; a child is a call made
    on its behalf (the three calls api::run composes). Spans of one
    operation share its op id. Every 64th operation is sampled, and every
    drain, checkpoint, restore and teardown;
  - a busy total per name, over every traced call: total, root, calls,
    busy_ns;
  - the traced units' summed wall clock: timed_wall_ns, units.

Printed per layer: calls and busy seconds over all traced calls; self
seconds, which is the busy time scaled by the self fraction (duration minus
the part child spans cover, over duration) of the layer's sampled spans;
and the self time's share of operation time, the busy time of all root
calls. The last line gives bench.layer_coverage: the busy time of root
calls over the traced units' wall, so the benchmark's loop and the tracer's
own work show as the gap.
"""
import argparse
import json
import sys
from collections import defaultdict


def summarize(path):
    spans, totals, wall = {}, [], None
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if "total" in record:
                totals.append(record)
            elif "timed_wall_ns" in record:
                wall = record
            else:
                spans[record["id"]] = record
    children = defaultdict(list)
    for span in spans.values():
        if span["parent"] >= 0:
            children[span["parent"]].append(span)

    layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0})
    for total in totals:
        entry = layers[total["total"]]
        entry["calls"] += total["calls"]
        entry["busy_s"] += total["busy_ns"] * 1e-9
    sampled = defaultdict(lambda: [0, 0])  # name -> [self ns, duration ns]
    for span in spans.values():
        duration = span["end_ns"] - span["start_ns"]
        covered = sum(c["end_ns"] - c["start_ns"] for c in children[span["id"]])
        sampled[span["name"]][0] += duration - covered
        sampled[span["name"]][1] += duration
    root_busy_s = sum(t["busy_ns"] for t in totals if t["root"]) * 1e-9
    for name, entry in layers.items():
        self_ns, duration_ns = sampled[name]
        entry["self_s"] = (entry["busy_s"] * self_ns / duration_ns
                           if duration_ns > 0 else entry["busy_s"])
        entry["share_of_op"] = (entry["self_s"] / root_busy_s
                                if root_busy_s > 0 else 0.0)
    wall_s = wall["timed_wall_ns"] * 1e-9 if wall else 0.0
    return {
        "ops_sampled": len({s["op"] for s in spans.values()}),
        "units": wall["units"] if wall else 0,
        "timed_wall_s": wall_s,
        "root_busy_s": root_busy_s,
        "layer_coverage": root_busy_s / wall_s if wall_s > 0 else 0.0,
        "layers": dict(layers),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as one JSON object")
    args = parser.parse_args()
    summary = summarize(args.spans)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{'layer':<28} {'calls':>9} {'busy_s':>12} {'self_s':>12} "
          f"{'share':>7}")
    for name, e in sorted(summary["layers"].items(),
                          key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<28} {e['calls']:>9} {e['busy_s']:>12.6f} "
              f"{e['self_s']:>12.6f} {e['share_of_op']:>7.1%}")
    print(f"bench.layer_coverage {summary['layer_coverage']:.6f} frac "
          f"({summary['root_busy_s']:.6f} s of root calls in "
          f"{summary['timed_wall_s']:.6f} s over {summary['units']} traced "
          f"units; {summary['ops_sampled']} operations sampled)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
