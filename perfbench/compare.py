"""Compare a parent and a change with the benchmark, pair by pair.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --out DIR
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Given two checkouts, it runs ``perfbench/run.py`` in each for every
workload of ``BENCHMARK.json`` at seeds 0-9, the seeds whose artifact
digests ``spec.json`` records, so every run also checks ``index.jsonl``,
``linkage.jsonl`` and ``values.jsonl`` byte for byte.  It alternates which
side runs first and appends each run's full result (every metric, the
``quality.*`` ones too) to ``DIR/parent.jsonl`` and ``DIR/change.jsonl``.
Given two such result files, it only reports.  Runs of one workload at
the same seed form a pair.

For each workload and end-to-end metric it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side),
and a verdict, using the bound and direction ``BENCHMARK.json`` fixes:

* ``regression``: the change's median is worse by more than the bound;
* ``gain``: the change won at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's quartile spread;
* ``unresolved``: the parent's quartile spread is wider than the bound,
  unless every change run is better than every parent run (``better``);
* ``same``: anything else.

Ranker quality (``quality.*``) is deterministic for a seed, so it is
compared pair by pair: ``regression`` when the median per-pair drop is
more than QUALITY_TOLERANCE of the parent's median.  A workload whose
change side failed more operations than its parent side, or skipped the
digest check, gets no ``gain``.  One summary row per workload follows its
metric rows.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(10)
WIN_SHARE = 0.9
QUALITY = ("quality.valid_ndcg10", "quality.test_ndcg10")
QUALITY_TOLERANCE = 0.05


def load_bench(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_side(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    # The result file also holds the per-layer quality metrics and whether
    # the digests were checked; the printed line holds only end_to_end.
    with open(os.path.join(checkout, ".perfbench-work", f"{workload}.result.json"),
              encoding="utf-8") as fh:
        full = json.load(fh)
    return dict(line, workload=workload, seed=seed, metrics=full["metrics"],
                digests_checked=full["digests_checked"])


def run_pairs(parent: str, change: str, out: str, workloads: List[str],
              seconds: int) -> None:
    os.makedirs(out, exist_ok=True)
    sides = {"parent": parent, "change": change}
    for i, seed in enumerate(SEEDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_side(sides[side], workload, seed, seconds)
                with open(os.path.join(out, f"{side}.jsonl"), "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(result, sort_keys=True) + "\n")
                print(f"pair {i + 1}/{len(SEEDS)} {workload} seed {seed} {side} done",
                      file=sys.stderr)


def read_results(path: str) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> result; a later run at a seed replaces an earlier one."""
    by_workload: Dict[str, Dict[int, dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                by_workload.setdefault(row["workload"], {})[row["seed"]] = row
    return by_workload


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float,
            gain_allowed: bool) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    n = min(len(parent), len(change))
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_med)
    spread = p_q3 - p_q1
    if -gain > bound * abs(p_med):
        return "regression", wins
    if gain_allowed and n and wins >= WIN_SHARE * n and gain > spread:
        return "gain", wins
    if p_med and spread / abs(p_med) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("better" if all_better else "unresolved"), wins
    return "same", wins


def quality_verdict(parent: List[float], change: List[float]) -> tuple:
    """Pair-by-pair check of a deterministic quality metric (higher is better)."""
    drop = statistics.median(p - c for p, c in zip(parent, change))
    wins = sum(1 for p, c in zip(parent, change) if c > p)
    if drop > QUALITY_TOLERANCE * abs(statistics.median(parent)):
        return "regression", wins
    return "same", wins


def report(parent_runs: Dict[str, Dict[int, dict]], change_runs: Dict[str, Dict[int, dict]],
           bench: dict) -> None:
    header = (f"{'workload':14s} {'metric':20s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    print(header)
    print("-" * len(header))
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        p_rows = [parent_runs[workload][s] for s in seeds]
        c_rows = [change_runs[workload][s] for s in seeds]
        n = len(seeds)
        p_failed = sum(r["failed"] for r in p_rows)
        c_failed = sum(r["failed"] for r in c_rows)
        unchecked = sum(not r.get("digests_checked") for r in p_rows + c_rows)
        gain_allowed = c_failed <= p_failed and not unchecked
        summary: Dict[str, List[str]] = {}
        for name, better, bound in [*metrics, *((q, "higher", None) for q in QUALITY)]:
            pv = [r["metrics"][name]["value"] for r in p_rows]
            cv = [r["metrics"][name]["value"] for r in c_rows]
            if bound is None:
                word, wins = quality_verdict(pv, cv)
            else:
                word, wins = verdict(pv, cv, better, bound, gain_allowed)
            summary.setdefault(word, []).append(name)
            cells = []
            for values in (pv, cv):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:12.4f} [{q1:.4f}, {q3:.4f}]")
            print(f"{workload:14s} {name:20s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{wins:>3d}/{n:<3d}  {word}")
        parts = [f"{word}: {', '.join(names)}" for word, names in sorted(summary.items())]
        print(f"{workload:14s} {'SUMMARY':20s} pairs {n}, failed ops parent {p_failed} "
              f"change {c_failed}, runs without digest check {unchecked}; "
              + "; ".join(parts))
        print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent checkout, or its result file")
    parser.add_argument("change", help="change checkout, or its result file")
    parser.add_argument("--out", help="directory for the result files of a new run")
    args = parser.parse_args(argv)

    bench = load_bench(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    if os.path.isdir(args.parent) and os.path.isdir(args.change):
        if not args.out:
            parser.error("--out is required when running checkouts")
        run_pairs(args.parent, args.change, args.out,
                  [w["name"] for w in bench["workloads"]], bench["run_seconds"])
        parent_file = os.path.join(args.out, "parent.jsonl")
        change_file = os.path.join(args.out, "change.jsonl")
    else:
        parent_file, change_file = args.parent, args.change
    report(read_results(parent_file), read_results(change_file), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
