"""Record reference data into perfbench/spec.json.

    python3 perfbench/record.py digests --seeds 0-9
    python3 perfbench/record.py baseline RESULT.json [RESULT.json ...]

``digests`` runs ingest, index, link and assess on the inputs of the
first pass of each workload at each seed and stores the SHA-256 of index.jsonl, linkage.jsonl and
values.jsonl; a benchmark run at a recorded seed fails a check when its
artifacts differ.  ``baseline`` stores the median and quartile spread of
each metric over the given result files (copies of the
``.perfbench-work/<workload>.result.json`` files of untraced runs), with
the machine they ran on.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys

from consultrank import cli

from inputs import SPEC_PATH, build_inputs, load_workloads, pass_seeds
from workload import DIGESTED, sha256

WORK = os.path.join(".perfbench-work", "record")


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def save(spec: dict) -> None:
    with open(SPEC_PATH, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_digests(spec: dict, seeds) -> None:
    for name, workload in load_workloads().items():
        for seed in seeds:
            input_seed = pass_seeds(seed)[0]
            shutil.rmtree(WORK, ignore_errors=True)
            build_inputs(workload, input_seed, os.path.join(WORK, "corpus"))
            for stage in ("ingest", "index", "link", "assess"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([stage, "--out", WORK, "--seed", str(input_seed)])
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: {stage} exited {code}")
            spec["digests"].setdefault(name, {})[str(seed)] = {
                f: sha256(os.path.join(WORK, f)) for f in DIGESTED
            }
            print(f"{name} seed {seed} recorded", file=sys.stderr)
    shutil.rmtree(WORK, ignore_errors=True)


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def record_baseline(spec: dict, paths) -> None:
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault(result["workload"], []).append(result)
    for name, results in runs.items():
        env = results[0]["environment"]
        values = {m: [r["metrics"][m]["value"] for r in results] for m in results[0]["metrics"]}
        spec["baseline"][name] = {
            "runs": len(results),
            "seeds": sorted(r["seed"] for r in results),
            "environment": {k: env[k] for k in ("nproc", "python", "numpy")},
            "medians": {m: round(statistics.median(v), 6) for m, v in values.items()},
            "quartile_spreads": {m: round(spread(v), 4) for m, v in values.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("digests").add_argument("--seeds", type=seed_range, default="0-9")
    sub.add_parser("baseline").add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.what == "digests":
        record_digests(spec, args.seeds)
    else:
        record_baseline(spec, args.results)
    save(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
