#!/usr/bin/env python3
"""Spread check and interleaved A/B comparison for the perfbench benchmark.

Run from the root of a checkout. Each tree is built once with its own
CARGO_TARGET_DIR (<tree>/.bench_build), then runs use the command,
workloads, metrics and bounds in the change's BENCHMARK.json.

  python3 perfbench/ab.py spread [--tree DIR] [--seed-base 100]
      Runs every workload 10 times, one seed each, and reports each
      end-to-end metric's median, quartiles and quartile spread as a share
      of the median, against its bound.

  python3 perfbench/ab.py ab --parent DIR --change DIR
      Runs parent and change in 10 pairs with one seed per pair, alternating
      which side runs first. Per workload and metric it prints both sides'
      median and quartiles, the share of pairs the change wins (ties count
      for neither) and a verdict:
        gain         the change wins >= 90% of pairs and the medians differ
                     by more than the parent's quartile spread;
        regression   the change's median is worse by more than the bound;
        unresolved   the parent's own spread is wider than the bound;
        within bound otherwise.
      It also compares the simulated-behaviour digest of each pair: a
      simulator-speed change must leave it unchanged. A metric whose
      parent median is 0 (a layer the workload does not exercise) has no
      relative delta and gets no verdict.

Every run lasts BENCHMARK.json's run_seconds.
Options for both: --workloads a,b  --trace (per-layer metrics).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Runs per workload (spread) and pairs per workload (ab).
RUNS = 10

def load_benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def env_for(tree):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(os.path.abspath(tree), ".bench_build")
    return env


def build(tree, bench):
    """Builds the tree once, so no timed run pays for compilation."""
    cmd = bench["command"]
    if cmd[:2] == ["cargo", "run"] and "--" in cmd:
        subprocess.run(["cargo", "build"] + cmd[2:cmd.index("--")],
                       cwd=tree, env=env_for(tree), check=True)


def run_once(tree, bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(cmd, cwd=tree, env=env_for(tree), capture_output=True,
                         text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{tree}: {workload} seed {seed} exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
    if not result["correct"]:
        print(f"warning: {tree}: {workload} seed {seed} reported correct=false: "
              f"{info.get('errors')}", file=sys.stderr)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, info.get("digest")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(bench, trace):
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    return [(m["name"], m["better"], m.get("bound")) for m in specs]


def cmd_spread(args):
    bench = load_benchmark(args.tree)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    build(args.tree, bench)
    worst = 0.0
    for w in workloads:
        runs = []
        for i in range(RUNS):
            values, digest = run_once(args.tree, bench, w, args.seed_base + i, args.trace)
            runs.append(values)
            print(f"  {w} seed {args.seed_base + i}: digest {digest}", file=sys.stderr)
        print(f"\n{w} ({RUNS} seeds from {args.seed_base})")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>7}")
        for name, _, bound in metric_specs(bench, args.trace):
            vals = [r[name] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "WIDE")
            b = f"{bound:g}" if bound is not None else "-"
            print(f"  {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.5f} {b:>7} {flag}")
    if not args.trace:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


def wins(parent, change, better):
    won = 0
    for p, c in zip(parent, change):
        if c == p:
            continue
        if (c > p) == (better == "higher"):
            won += 1
    return won / len(parent)


def verdict(parent, change, better, bound):
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    win = wins(parent, change, better)
    sign = 1 if better == "higher" else -1
    if win >= 0.9 and abs(cmed - pmed) > (pq3 - pq1) and sign * (cmed - pmed) > 0:
        return "gain"
    if bound is not None and pmed and sign * (cmed - pmed) / abs(pmed) < -bound:
        return "regression"
    if bound is not None and pmed and (pq3 - pq1) / abs(pmed) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better in every run"
        return "unresolved"
    return "within bound" if bound is not None else "-"


def cmd_ab(args):
    # Both sides run the change's benchmark definition: a change that
    # claims a gain may not edit the benchmark, so the two agree.
    bench = load_benchmark(args.change)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    build(args.parent, bench)
    build(args.change, bench)
    for w in workloads:
        parent_runs, change_runs, moved = [], [], []
        for i in range(RUNS):
            seed = args.seed_base + i
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                sides.reverse()
            got = {}
            for side, tree in sides:
                got[side] = run_once(tree, bench, w, seed, args.trace)
            parent_runs.append(got["parent"][0])
            change_runs.append(got["change"][0])
            if got["parent"][1] != got["change"][1]:
                moved.append(seed)
        print(f"\n{w} ({RUNS} pairs, seeds {args.seed_base}..{args.seed_base + RUNS - 1})")
        print(f"  {'metric':36} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'delta':>8} {'wins':>5}  verdict")
        for name, better, bound in metric_specs(bench, args.trace):
            p = [r[name] for r in parent_runs]
            c = [r[name] for r in change_runs]
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            if pmed:
                delta = f"{(cmed - pmed) / pmed:+8.3f}"
                judged = verdict(p, c, better, bound)
            else:
                delta, judged = f"{'n/a':>8}", "parent median 0: no relative delta"
            print(f"  {name:36} {pmed:12.5g} [{pq1:9.5g}, {pq3:9.5g}] "
                  f"{cmed:12.5g} [{cq1:9.5g}, {cq3:9.5g}] {delta} "
                  f"{wins(p, c, better):5.2f}  {judged}")
        if moved:
            print(f"  digest moved on seeds {moved}: simulated behaviour changed (a re-bless)")
        else:
            print("  digest unchanged on every seed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "ab"):
        p = sub.add_parser(name)
        p.add_argument("--workloads", type=lambda s: s.split(","))
        p.add_argument("--seed-base", type=int, default=100)
        p.add_argument("--trace", action="store_true")
        if name == "spread":
            p.add_argument("--tree", default=".")
        else:
            p.add_argument("--parent", required=True)
            p.add_argument("--change", required=True)
    args = ap.parse_args()
    cmd_spread(args) if args.cmd == "spread" else cmd_ab(args)


if __name__ == "__main__":
    main()
