#!/usr/bin/env python3
"""Pair-run verdict between two checkouts (see e2e/README.md).

    python3 e2e/compare.py PARENT_ROOT CHANGE_ROOT [--seed 1]
                           [--workload W ...]

Runs e2e/run.py of each checkout on the same seed in 10 alternating pairs
per workload (parent first in even pairs, change first in odd ones). Both
runs of a pair share the host's slow drift, so each end-to-end metric is
judged on the pairs' own ratios, change / parent. Per workload and metric
it reports each side's median and quartiles, the median and quartiles of
the change's relative loss over the pairs (positive = worse), the change's
win count (ties count for neither side) and a verdict:

  unresolved     the interquartile range of the losses exceeds the bound,
                 and not every change run beats every parent run;
  regression     the median loss exceeds the bound;
  improved       the change wins at least 9 of the 10 pairs and the sides'
                 medians differ by more than the parent's interquartile
                 range (or every change run beats every parent run);
  no-regression  otherwise.

The bounds are BOUNDS below. It also reports any change in the output
digests or in failed ops. Passing the same checkout twice checks run-to-run
agreement. Exits 0 only when no metric regressed or is unresolved, no op
failed and the digests agree.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10

# The share of the parent by which the median pair may worsen, per metric
# and workload (None: any workload). These judge paired ratios, so they are
# tighter than BENCHMARK.json's bounds, which judge unpaired runs on
# different seeds and must absorb the host's drift.
BOUNDS = {
    ("throughput", "serve_mix"): 0.08,
    ("throughput", None): 0.05,
    ("setup_s", None): 0.20,
    ("peak_rss_mb", None): 0.10,
}
# setup_s may also worsen by this many seconds, whichever allows more.
SETUP_SLACK_S = 0.05


def run(root, workload, seed):
    """One untraced run of `root`'s benchmark: (result, digest)."""
    p = subprocess.run(
        [sys.executable, "e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"compare.py: {root}: {workload} printed nothing\n"
                 f"{p.stderr}")
    digest = next((l.split()[-1] for l in lines
                   if l.startswith(f"{workload} digest ")), "none")
    return json.loads(lines[-1]), digest


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def bound_of(name, workload, parent):
    bound = BOUNDS.get((name, workload), BOUNDS[(name, None)])
    if name == "setup_s":
        bound = max(bound, SETUP_SLACK_S / statistics.median(parent))
    return bound


def verdict(higher, bound, parent, change):
    """(loss quartiles, wins, outcome) of paired runs of one metric."""
    sign = 1.0 if higher else -1.0
    losses = [sign * (1.0 - c / p) for p, c in zip(parent, change)]
    l1, lm, l3 = quartiles(losses)
    wins = sum(1 for l in losses if l < 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    if all_better:
        outcome = "improved"
    elif l3 - l1 > bound:
        outcome = "unresolved"
    elif lm > bound:
        outcome = "regression"
    elif wins >= 0.9 * len(losses) and sign * (cm - pm) > p3 - p1:
        outcome = "improved"
    else:
        outcome = "no-regression"
    return (l1, lm, l3), wins, outcome


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    print("workload metric | parent median [q1 q3] | change median [q1 q3] "
          "| loss median [q1 q3] vs bound | change wins | verdict")
    for workload in workloads:
        runs = {"parent": [], "change": []}
        digests = {"parent": set(), "change": set()}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, digest = run(getattr(args, side), workload, args.seed)
                runs[side].append(result)
                digests[side].add(digest)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in runs.items()}
            bound = bound_of(name, workload, values["parent"])
            (l1, lm, l3), wins, outcome = verdict(
                metric["better"] == "higher", bound, values["parent"],
                values["change"])
            ok = ok and outcome in ("improved", "no-regression")
            p1, pm, p3 = quartiles(values["parent"])
            c1, cm, c3 = quartiles(values["change"])
            print(f"{workload} {name} | {pm:.6g} [{p1:.6g} {p3:.6g}] | "
                  f"{cm:.6g} [{c1:.6g} {c3:.6g}] | "
                  f"{lm:+.4f} [{l1:+.4f} {l3:+.4f}] vs {bound:.4f} | "
                  f"{wins}/{PAIRS} | {outcome}")
        for side in ("parent", "change"):
            failed = sum(r["failed"] for r in runs[side])
            attempted = sum(r["attempted"] for r in runs[side])
            print(f"{workload} failed_frac {side} {failed}/{attempted}")
            ok = ok and failed == 0
        same = digests["parent"] == digests["change"] and \
            len(digests["parent"]) == 1
        print(f"{workload} digest parent {' '.join(sorted(digests['parent']))}"
              f" change {' '.join(sorted(digests['change']))}"
              f" {'identical' if same else 'CHANGED'}", flush=True)
        ok = ok and same
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
