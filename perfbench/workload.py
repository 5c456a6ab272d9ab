"""One benchmark run of one workload; `run.py` starts it in a fresh process.

An untraced run makes one pass per input seed of ``inputs.pass_seeds``:
each pass builds its corpus (set-up, twice), runs the CLI stages
in-process through ``consultrank.cli.main`` exactly as a CLI user would,
checks the outputs, and then scores sessions one at a time through
``train.model_score_fn`` and ``evaluate.evaluate_sessions`` under both
protocols for its share of ``--seconds``.  Stage metrics are the median
pass; latency percentiles pool the samples of every pass.  Every time is
brought to a reference machine speed by calibration samples taken during
its pass (see `Calibration`); the times as measured are ``wall.*``.  With
``--trace 1`` it runs untraced passes and then one pass under the span
recorder, then a short traced scoring sweep, and reports per-layer
metrics instead.

    python3 perfbench/workload.py --workload default --seed 1 --seconds 8 \\
        --trace 0 --work .perfbench-work/default --result result.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from consultrank import cli, evaluate, model, train, value
from consultrank.corpus import load_corpus

from inputs import (SPEC_PATH, Workload, build_inputs, input_properties, load_workloads,
                    pass_seeds)
from spans import Recorder, instrumented, layer_metrics

#: One epoch with early stopping off.  A higher learning rate and smaller
#: batches than the CLI defaults make that single epoch train a ranker
#: whose NDCG is far from random, so the quality metrics catch a broken one.
EPOCHS = 1
TRAIN_FLAGS = ["--max-epochs", str(EPOCHS), "--patience", str(EPOCHS),
               "--lr", "0.01", "--batch-size", "24"]
STAGES: List[Tuple[str, List[str]]] = [
    ("ingest", []), ("index", []), ("link", []), ("assess", []),
    ("train", TRAIN_FLAGS),
    ("eval", []), ("eval", ["--ranker", "semantic"]), ("eval", ["--ranker", "bm25"]),
    ("report", []),
]
VALUE_STAGES = ("index", "link", "assess")
EVAL_STAGES = ("eval", "eval-semantic", "eval-bm25", "report")
RANKER_FILES = {"vaps": "metrics.json", "semantic": "metrics_semantic.json",
                "bm25": "metrics_bm25.json"}
DIGESTED = ("index.jsonl", "linkage.jsonl", "values.jsonl")
REPEATED = (*DIGESTED, "checkpoint.json", os.path.join("reports", "metrics.json"))

SETUPS_PER_PASS = 2
#: Untraced passes a traced run measures first, for the tracing overhead.
PLAIN_PASSES = 3
#: Samples per protocol before the sweep may stop, summed over the passes:
#: p95 then has at least ten samples above it.
SWEEP_MIN_SAMPLES = 200
#: Sessions per protocol scored in the traced run.
TRACED_SWEEP_SAMPLES = 40
#: A sweep slice stops here even short of its sample floor, so a slow
#: program still ends the run in time.
SWEEP_HARD_LIMIT_S = 10.0
L_SEQ = int(cli.CONFIG_DEFAULTS["l_seq"])

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Checks:
    """Attempted and failed stage calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup(workload: Workload, seed: int, corpus_dir: str, checks: Checks):
    """Build the inputs SETUPS_PER_PASS times; return (corpus, seconds of each)."""
    times = []
    digests = set()
    for _ in range(SETUPS_PER_PASS):
        started = time.perf_counter()
        corpus = build_inputs(workload, seed, corpus_dir)
        times.append(time.perf_counter() - started)
        digests.add(sha256(os.path.join(corpus_dir, "events.jsonl")))
    checks.check("set-up writes identical inputs on every repeat", len(digests) == 1)
    return corpus, times


class Calibration:
    """Timings of a fixed piece of work, taken between the stages of a pass.

    The shared 2-vCPU machine this benchmark was built on ran the whole
    program up to 1.8x slower for minutes at a time, so raw times of runs
    minutes apart differed by more than any bound.  The calibration slows
    down with it: it mixes the kinds of work the pipeline does (small-object
    churn, dict and sort, JSON, small numpy products) and calls no
    consultrank code, so a change to the program cannot move it.  End-to-end
    times are reported at the reference speed: measured time x ref_ms /
    the median calibration time of the same pass.  The times as measured
    are reported next to them as ``wall.*``.
    """

    MATRIX = np.random.default_rng(0).standard_normal((48, 48))

    def __init__(self, ref_ms: float):
        self.ref_ms = ref_ms
        self.samples: List[float] = []

    def sample(self) -> None:
        gc.disable()  # the program's heap must not slow the calibration
        try:
            started = time.perf_counter()
            rows = [{"id": f"k{i}", "v": (i, i * 0.5), "n": [i]} for i in range(8000)]
            rows.sort(key=lambda r: -r["v"][1])
            json.loads(json.dumps(rows[:2000]))
            x = self.MATRIX
            for _ in range(100):
                x = np.tanh(x @ self.MATRIX * 0.01) + x * 0.5
            self.samples.append((time.perf_counter() - started) * 1e3)
        finally:
            gc.enable()

    def factor(self) -> float:
        return self.ref_ms / statistics.median(self.samples)


def run_pipeline(out_dir: str, seed: int, checks: Checks, rec: Optional[Recorder] = None,
                 cal: Optional[Calibration] = None) -> Dict[str, float]:
    """Run every CLI stage in order, sampling `cal` before each; return wall
    seconds per stage."""
    times: Dict[str, float] = {}
    for stage, flags in STAGES:
        if cal:
            cal.sample()
        label = stage if "--ranker" not in flags else f"{stage}-{flags[-1]}"
        argv = [stage, "--out", out_dir, "--seed", str(seed), *flags]
        span = rec.span(f"cli.{label}") if rec else contextlib.nullcontext()
        captured = io.StringIO()
        started = time.perf_counter()
        with span, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        times[label] = time.perf_counter() - started
        if not checks.check(f"{label} exits 0 (got {code})", code == 0):
            print(captured.getvalue(), file=sys.stderr)
    return times


def recorded_digests(workload: Workload, seed: int) -> Optional[Dict[str, str]]:
    """The digests spec.json records for the first pass of a run at `seed`."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload.name, {}).get(str(seed))


def check_outputs(out_dir: str, corpus, checks: Checks,
                  digests: Optional[Dict[str, str]] = None
                  ) -> Tuple[float, float, Dict[str, float]]:
    """Check the artifacts of a pass, byte for byte against `digests` when
    given; return (valid ndcg@10, test ndcg@10, per-user test ndcg@10 of
    the vaps ranker)."""
    for name in DIGESTED if digests else ():
        path = os.path.join(out_dir, name)
        checks.check(f"{name} matches its recorded digest",
                     os.path.exists(path) and sha256(path) == digests[name])

    sessions = {(u, s.timestamp) for u, h in corpus.users.items() for s in h.searches}
    scored = set()
    with open(os.path.join(out_dir, "values.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            scored.add((row["user"], row["search_ts"]))
    n_prior = sum(1 for h in corpus.users.values() for s in h.searches
                  if any(c.timestamp < s.timestamp for c in h.consultations))
    checks.check("values.jsonl scores every session with a prior consultation",
                 scored <= sessions and len(scored) == n_prior)

    n_test = len(train.split_sessions(corpus).test)
    per_user: Dict[str, float] = {}
    test_ndcg = float("nan")
    for ranker, name in RANKER_FILES.items():
        report = evaluate.load_metrics(os.path.join(out_dir, "reports", name))
        ndcgs = [v for row in [report.macro, *report.per_user.values()]
                 for k, v in row.items() if k.startswith("ndcg@")]
        checks.check(f"{name} covers {n_test} test sessions",
                     report.n_sessions == n_test and len(report.per_user) == n_test)
        checks.check(f"{name} has every NDCG in [0, 1]",
                     all(0.0 <= v <= 1.0 for v in ndcgs))
        if ranker == "vaps":
            test_ndcg = report.macro["ndcg@10"]
            per_user = {u: row["ndcg@10"] for u, row in report.per_user.items()}

    with open(os.path.join(out_dir, "reports", "train_log.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    valid_ndcg = float(rows[-1]["valid_ndcg10"]) if rows else float("nan")
    checks.check(f"train ran {EPOCHS} epochs with valid NDCG@10 in [0, 1]",
                 len(rows) == EPOCHS and 0.0 <= valid_ndcg <= 1.0)
    with open(os.path.join(out_dir, "reports", "comparison.txt"), encoding="utf-8") as fh:
        table = fh.read().splitlines()
    checks.check("comparison.txt has one row per ranker",
                 sorted(line.split()[0] for line in table[2:]) == sorted(RANKER_FILES))
    return valid_ndcg, test_ndcg, per_user


def check_repeat(first_dir: str, out_dir: str, checks: Checks) -> None:
    """A pass on the inputs of an earlier one must write the same bytes."""
    for name in REPEATED:
        a, b = os.path.join(first_dir, name), os.path.join(out_dir, name)
        checks.check(f"{name} is byte-identical in every pass",
                     os.path.exists(b) and sha256(a) == sha256(b))


def sweep(out_dir: str, seed: int, min_samples: int, seconds: float,
          expected: Dict[str, float], checks: Checks) -> Tuple[List[float], List[float]]:
    """Score sessions one at a time under both protocols, in a closed loop
    with one caller, for `seconds` and at least `min_samples` sessions;
    return per-call milliseconds (ranking, retrieval).

    Sessions come from every split in a seeded random order, so the
    latencies describe the whole session mix.  Before timing, the test
    sessions are scored once through the same scorer and their NDCG is
    checked against the eval stage's metrics.json."""
    corpus_dir = os.path.join(out_dir, "corpus")
    corpus = load_corpus(os.path.join(corpus_dir, "items.jsonl"),
                         os.path.join(corpus_dir, "events.jsonl"))
    ranker = model.load_model(os.path.join(out_dir, "checkpoint.json"), corpus)
    assessments = value.load_assessments(os.path.join(out_dir, "values.jsonl"), corpus)
    score_fn = train.model_score_fn(ranker, corpus, train.kept_consultations(assessments),
                                    l_seq=L_SEQ, value_filter=True)
    split = train.split_sessions(corpus)
    n_neg = min(int(cli.CONFIG_DEFAULTS["n_neg_eval"]), len(corpus.items) - 1)
    report = evaluate.evaluate_sessions(score_fn, corpus, split.test, seed=seed, n_neg=n_neg)
    differ = sum(round(row["ndcg@10"], 6) != expected.get(user)
                 for user, row in report.per_user.items())
    checks.check(f"scoring through the library reproduces eval NDCG@10 "
                 f"({differ} of {len(split.test)} test sessions differ)", differ == 0)

    order = [*split.test, *split.valid, *split.train]
    order = [order[i] for i in np.random.default_rng(seed).permutation(len(order))]
    ranking: List[float] = []
    retrieval: List[float] = []
    started = time.perf_counter()
    # A long-running scorer loads once and freezes what it loaded, so full
    # collections do not rescan the corpus and model on every call; the
    # garbage each call makes is still collected inside the timed calls.
    gc.collect()
    gc.freeze()
    try:
        for i in itertools.count():
            pair = order[i % len(order)]
            for protocol, samples in (("ranking", ranking), ("retrieval", retrieval)):
                t0 = time.perf_counter()
                evaluate.evaluate_sessions(score_fn, corpus, [pair], protocol=protocol,
                                           seed=seed, n_neg=n_neg)
                samples.append((time.perf_counter() - t0) * 1e3)
            elapsed = time.perf_counter() - started
            if elapsed >= SWEEP_HARD_LIMIT_S or (
                    len(ranking) >= min_samples and elapsed >= seconds):
                break
    finally:
        gc.unfreeze()
    return ranking, retrieval


def p95(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=20)[18]


def run_pass(workload: Workload, seed: int, out_dir: str, checks: Checks,
             cal: Optional[Calibration] = None):
    """Set up the inputs and run every stage; return (corpus, set-up
    seconds, wall seconds per stage with the whole pipeline, ingest through
    report, as "pipeline")."""
    corpus, setup_times = setup(workload, seed, os.path.join(out_dir, "corpus"), checks)
    stages = run_pipeline(out_dir, seed, checks, cal=cal)
    stages["pipeline"] = sum(stages.values())
    return corpus, setup_times, stages


class Pass(NamedTuple):
    factor: float  # calibration reference / this pass's median calibration
    setup: List[float]
    stages: Dict[str, float]
    ranking: List[float]
    retrieval: List[float]


def summarize(passes: List[Pass], normalized: bool) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics over the passes, at the reference speed or as
    measured: stage times are the median pass, latencies pool all passes."""
    def scale(p: Pass) -> float:
        return p.factor if normalized else 1.0

    def per_pass(stage_names) -> float:
        return statistics.median(sum(p.stages[s] for s in stage_names) * scale(p)
                                 for p in passes)

    setup_times = [t * scale(p) for p in passes for t in p.setup]
    ranking = [t * scale(p) for p in passes for t in p.ranking]
    retrieval = [t * scale(p) for p in passes for t in p.retrieval]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (per_pass(("pipeline",)), "s"),
        "value_s": (per_pass(VALUE_STAGES), "s"),
        "train_epoch_s": (per_pass(("train",)) / EPOCHS, "s"),
        "eval_s": (per_pass(EVAL_STAGES), "s"),
        "score_ms_p50": (statistics.median(ranking), "ms"),
        "score_ms_p95": (p95(ranking), "ms"),
        "retrieval_ms_p50": (statistics.median(retrieval), "ms"),
        "retrieval_ms_p95": (p95(retrieval), "ms"),
    }


def untraced_run(workload: Workload, seed: int, seconds: int, work: str,
                 checks: Checks) -> Tuple[Dict[str, Tuple[float, str]], bool]:
    """One pass per input seed of `pass_seeds`, each followed by a slice of
    the scoring sweep on the ranker it trained, so every metric is a median
    over inputs and over the whole run; return (metrics, whether the first
    pass was checked against recorded digests).  Each pass is brought to
    the reference speed by the calibration samples taken during it."""
    seeds = pass_seeds(seed)
    digests = recorded_digests(workload, seed)
    with open(SPEC_PATH, encoding="utf-8") as fh:
        ref_ms = json.load(fh)["calibration_ref_ms"]
    passes: List[Pass] = []
    calibration_ms: List[float] = []
    quality: List[Tuple[float, float]] = []
    for k, pass_seed in enumerate(seeds):
        out_dir = os.path.join(work, f"pass{k}")
        cal = Calibration(ref_ms)
        corpus, setup_times, stages = run_pass(workload, pass_seed, out_dir, checks, cal)
        valid_ndcg, test_ndcg, per_user = check_outputs(out_dir, corpus, checks,
                                                        digests if k == 0 else None)
        first = seeds.index(pass_seed)
        if first < k:
            check_repeat(os.path.join(work, f"pass{first}"), out_dir, checks)
        else:
            quality.append((valid_ndcg, test_ndcg))
        cal.sample()
        ranking, retrieval = sweep(out_dir, pass_seed, -(-SWEEP_MIN_SAMPLES // len(seeds)),
                                   seconds / len(seeds), per_user, checks)
        cal.sample()
        calibration_ms += cal.samples
        passes.append(Pass(cal.factor(), setup_times, stages, ranking, retrieval))

    # Every corpus has the same number of users and so of valid and test
    # sessions: the mean of the per-corpus NDCGs is the NDCG over them all.
    # A corpus of long-history has only 6 users, too few to judge alone.
    valid_ndcg = statistics.mean(v for v, _ in quality)
    test_ndcg = statistics.mean(t for _, t in quality)
    checks.check(f"mean NDCG@10 of the valid and test sessions of every corpus "
                 f"({valid_ndcg:.4f}, {test_ndcg:.4f}) reaches {workload.quality_floor}",
                 (valid_ndcg + test_ndcg) / 2 >= workload.quality_floor)
    metrics = summarize(passes, normalized=True)
    metrics.update({f"wall.{name}": m for name, m in summarize(passes, False).items()})
    metrics.update({
        "calibration_ms": (statistics.median(calibration_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "quality.valid_ndcg10": (valid_ndcg, "ndcg"),
        "quality.test_ndcg10": (test_ndcg, "ndcg"),
        "sweep_samples": (float(sum(len(p.ranking) for p in passes)), "count"),
    })
    return metrics, bool(digests)


LAYERS = ("cli", "corpus", "index", "linkage", "value", "model", "train",
          "tensor", "evaluate")


def traced_run(workload: Workload, seed: int, work: str, trace_id: str,
               checks: Checks) -> Tuple[Dict[str, Tuple[float, str]], bool]:
    """PLAIN_PASSES untraced passes on the first input of the run for the
    untraced median, then one traced pass on the same input and a short
    traced sweep; return (metrics, whether the digests were checked)."""
    input_seed = pass_seeds(seed)[0]
    digests = recorded_digests(workload, seed)
    plain = []
    for k in range(PLAIN_PASSES):
        out_dir = os.path.join(work, f"plain{k}")
        _corpus, _times, stages = run_pass(workload, input_seed, out_dir, checks)
        plain.append(stages["pipeline"])
    traced_dir = os.path.join(work, "traced")
    corpus, _setup_times = setup(workload, input_seed, os.path.join(traced_dir, "corpus"),
                                 checks)
    rec = Recorder(trace_id)
    with instrumented(rec), rec.span("bench.run"):
        with rec.span("bench.pipeline"):
            run_pipeline(traced_dir, input_seed, checks, rec)
        valid_ndcg, test_ndcg, per_user = check_outputs(traced_dir, corpus, checks,
                                                        digests)
        with rec.span("bench.sweep"):
            sweep(traced_dir, input_seed, TRACED_SWEEP_SAMPLES, 0, per_user, checks)
    check_repeat(os.path.join(work, "plain0"), traced_dir, checks)
    rec.dump(os.path.join(work, "spans.jsonl"))

    metrics: Dict[str, Tuple[float, str]] = {}
    for name, val in layer_metrics(rec).items():
        unit = "s" if name.endswith("_s") else (
            "ratio" if name.endswith(("_share", "_yield")) else "count")
        metrics[name] = (float(val), unit)
    traced_s = rec.total_s("bench.pipeline")
    self_s = rec.layer_self_s("bench.pipeline")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    metrics["bench.self_s"] = (self_s.get("bench", 0.0), "s")
    metrics["trace.bookkeeping_s"] = (self_s.get("trace", 0.0), "s")
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(plain), "s")
    metrics["trace.spans"] = (float(len(rec.spans)), "count")
    metrics["quality.valid_ndcg10"] = (valid_ndcg, "ndcg")
    metrics["quality.test_ndcg10"] = (test_ndcg, "ndcg")
    for name, val in input_properties(corpus, L_SEQ).items():
        metrics[name] = (float(val), "ratio" if name.endswith("_share") else "count")
    return metrics, bool(digests)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(load_workloads()), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory the run writes under")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    args = parser.parse_args()

    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    checks = Checks()
    trace_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    workload = load_workloads()[args.workload]
    if args.trace:
        metrics, digested = traced_run(workload, args.seed, args.work, trace_id, checks)
    else:
        metrics, digested = untraced_run(workload, args.seed, args.seconds, args.work,
                                         checks)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_id": trace_id,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "digests_checked": digested,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        },
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
