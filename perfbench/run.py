"""Benchmark entry point: one workload per run, in a fresh child process.

    python3 perfbench/run.py --workload default --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 0

Run it from the repository root.  The child runs single-threaded: the BLAS
thread variables are fixed to 1 in its own environment and recorded in the
result.  The child writes under ``.perfbench-work/<workload>/``.  This
script prints every metric of the run with its unit, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` names for the trace mode: ``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``.  ``--workload all`` runs
every workload in turn and prints one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench-work"
CHILD_TIMEOUT_S = 170
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = os.path.join(ROOT, WORK, workload)
    result_path = os.path.join(ROOT, WORK, f"{workload}.result.json")
    os.makedirs(os.path.dirname(result_path), exist_ok=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               **BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", work, "--result", result_path]
    # run() kills the child on timeout and waits for it before raising.
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=sys.stderr)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def contract_metrics(result: dict, declared: List[dict]) -> Dict[str, dict]:
    """The declared metrics of a run; a missing one or another unit is an error."""
    out = {}
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise KeyError(f"run reported {metric['name']} as {got}, "
                           f"BENCHMARK.json declares unit {metric['unit']}")
        out[metric["name"]] = got
    return out


def print_table(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"(nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
          f"BLAS threads {env['blas_threads']})")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']}")
    base = result["attempted"]
    print(f"  {'failed_ops':36s} {result['failed'] / base:14.6f} "
          f"share ({result['failed']} of {base} stage calls and checks)")
    print(f"  {'digests_checked':36s} {result['digests_checked']!s:>14s} "
          f"(artifact digests are recorded for seeds 0-9 only)")
    for failure in result["failures"]:
        print(f"    failed: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="consultrank pipeline benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "consultrank")):
        return fail(f"no consultrank sources under {os.path.join(ROOT, 'src')}; "
                    "run from a checkout of the repository")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in (*workloads, "all"):
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")

    summary = {}
    for workload in (workloads if args.workload == "all" else (args.workload,)):
        try:
            result = run_child(workload, args.seed, args.seconds, args.trace)
            metrics = contract_metrics(result, declared)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            return fail(f"{workload} run failed: {exc}")
        print_table(result)
        summary[workload] = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    sys.stdout.flush()
    if args.workload == "all":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(json.dumps(summary[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
