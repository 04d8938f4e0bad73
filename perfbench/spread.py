#!/usr/bin/env python3
"""Repeat the campaign benchmark over seeds and summarise its spread.

Run from the repository root:

    python3 perfbench/spread.py --workload des-scaleout --seeds 1-10 --out runs.json
    python3 perfbench/spread.py --compare base.json change.json
    python3 perfbench/spread.py --workload des-scaleout --seeds 1-10 --base ../parent

The first form runs `bash perfbench/run.sh` once per seed and prints, for
every metric, the median, the quartiles and the interquartile range as a
share of the median next to the bound in BENCHMARK.json. The second form
compares the medians of two saved sets and flags each metric whose median
got worse by more than its bound. The third form runs this checkout and
the checkout at --base in pairs, one pair per seed, alternating which side
runs first, and reports for each metric both medians, how many pairs this
checkout won, and whether it is worse by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        out[m["name"]] = (m["better"], m.get("bound"))
    return spec, out


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace, root=ROOT):
    cmd = ["bash", str(Path(root) / "perfbench" / "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect output\n{proc.stdout}")
    return result


def summarise(runs, bounds):
    names = sorted({n for r in runs for n in r["metrics"]})
    rows = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name, (None, None))[1]
        rows.append((name, med, q1, q3, spread, bound))
    return rows


def print_rows(rows):
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, med, q1, q3, spread, bound in rows:
        b = "" if bound is None else f"{bound:.2f}"
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:32} {med:14.6f} {q1:14.6f} {q3:14.6f} {spread:8.4f} {b:>6}{flag}")


def compare(base_path, new_path, bounds):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    return compare_runs(base["runs"], new["runs"], bounds)


def compare_runs(base_runs, new_runs, bounds):
    """Print each metric's medians, the pairs the new side won, and the
    verdicts; return how many metrics got worse beyond their bound."""
    worse = 0
    for name, (better, bound) in sorted(bounds.items()):
        b = [r["metrics"][name]["value"] for r in base_runs if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new_runs if name in r["metrics"]]
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb if mb else 0.0
        sign = -1 if better == "higher" else 1
        change *= sign
        # Pairs line up by seed when both sets ran the same seeds in order.
        wins = sum(1 for x, y in zip(b, n) if sign * (y - x) < 0)
        losses = sum(1 for x, y in zip(b, n) if sign * (y - x) > 0)
        q1, _, q3 = statistics.quantiles(b, n=4) if len(b) >= 2 else (mb, mb, mb)
        flag = ""
        if bound is not None and change > bound:
            flag = "  WORSE beyond bound"
            worse += 1
        elif losses >= 0.9 * len(b) and abs(mn - mb) > q3 - q1:
            flag = f"  worse in {losses}/{len(b)} pairs, beyond the base spread"
        bs = "" if bound is None else f"{bound:.2f}"
        print(f"{name:32} {mb:14.6f} -> {mn:14.6f}  worse by {100 * change:+7.2f}% (bound {bs})"
              f"  won {wins}/{len(b)}{flag}")
    return worse


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--base", help="checkout to run in pairs against this one")
    args = ap.parse_args()
    spec, bounds = load_bounds()
    if args.compare:
        sys.exit(1 if compare(*args.compare, bounds) else 0)
    if not args.workload:
        ap.error("--workload or --compare is required")
    seconds = args.seconds or spec["run_seconds"]
    runs, base_runs = [], []
    for i, seed in enumerate(seed_list(args.seeds)):
        if args.base:
            # Alternate which side runs first, so drift in the machine's
            # speed does not favour one side.
            sides = [(base_runs, args.base), (runs, ROOT)]
            for out, root in sides if i % 2 == 0 else sides[::-1]:
                out.append(run_once(args.workload, seed, seconds, args.trace, root))
        else:
            runs.append(run_once(args.workload, seed, seconds, args.trace))
        m = runs[-1]["metrics"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(m.items())), flush=True)
    print_rows(summarise(runs, bounds))
    if args.base:
        print(f"\nthis checkout against {args.base}:")
        compare_runs(base_runs, runs, bounds)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "base_runs": base_runs}, indent=1))


if __name__ == "__main__":
    main()
