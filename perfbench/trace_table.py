#!/usr/bin/env python3
"""Per-operation layer table from a traced run's spans.

    python3 perfbench/trace_table.py <spans.jsonl> [--shapes a,b,c]

Reads the spans a traced run wrote (one JSON object per line: id, name,
parent, start_ns, end_ns, calls, busy_ns — the `jury-jq` calls of a
replayed solve are stored as one aggregate per call kind) and prints, for every operation that was replayed
through `jury-selection`, where the replayed solve spent its time: each
`jury-jq` call kind's count and mean cost, the share of the solve inside
`jury-jq`, and the solve's own (self) time. `--shapes` labels operations
cyclically, e.g. `n=60,n=200,n=1000,3-class n=40` for select-anneal.
"""

import argparse
import json
from collections import defaultdict

CALLS = ["jq.push", "jq.pop", "jq.value", "jq.evaluate", "jq.session_open"]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("spans")
    parser.add_argument("--shapes", default="")
    args = parser.parse_args()
    shapes = [s for s in args.shapes.split(",") if s]

    spans = {}
    children = defaultdict(list)
    ops = []
    with open(args.spans) as lines:
        for line in lines:
            span = json.loads(line)
            spans[span["id"]] = span
            if span["parent"] is None:
                ops.append(span["id"])
            else:
                children[span["parent"]].append(span["id"])

    def ms(span):
        return span["busy_ns"] / 1e6

    header = ["op", "shape", "served ms", "solve ms"]
    for call in CALLS[:4]:
        header += [f"{call[3:]} n", f"{call[3:]} µs"]
    header += ["jq share", "self ms"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for index, op in enumerate(ops):
        kids = [spans[k] for k in children[op]]
        solves = [s for s in kids if s["name"].startswith("selection.")]
        served = [s for s in kids if s["name"].startswith("service.")]
        if not solves:
            continue
        solve = solves[0]
        totals = defaultdict(lambda: [0, 0.0])
        for k in children[solve["id"]]:
            call = spans[k]
            totals[call["name"]][0] += call["calls"]
            totals[call["name"]][1] += ms(call)
        jq_ms = sum(t[1] for t in totals.values())
        row = [str(index), shapes[index % len(shapes)] if shapes else "", f"{sum(map(ms, served)):.1f}", f"{ms(solve):.1f}"]
        for call in CALLS[:4]:
            n, total = totals[call]
            row += [str(n), f"{1e3 * total / n:.1f}" if n else "-"]
        row += [f"{jq_ms / ms(solve):.3f}", f"{ms(solve) - jq_ms:.1f}"]
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
