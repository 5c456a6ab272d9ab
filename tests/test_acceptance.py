"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each test exercises one shipping requirement end to end, prints a single
summary line (visible under plain ``pytest -v``), and then asserts.  The
printed line always appears, pass or fail, so a red run still reports the
measured numbers.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from consultrank import cli
from consultrank import evaluate as E
from consultrank import model as M
from consultrank import tensor as T
from consultrank import train as TR
from consultrank.ablation import (
    FULL,
    NO_CAI,
    SEMANTIC_ONLY,
    run_ablation,
)
from consultrank.corpus import ActionType, Consultation, Interaction
from consultrank.datagen import LABEL_HIGH, LABEL_LOW, GenSpec, generate
from consultrank.linkage import LinkageParams, build_linkage
from consultrank.value import ValueParams, assess_corpus, fit_buckets

import closed_forms
import oracles
from gradcheck import finite_diff_check, tensor_op_trials
from helpers import (corpus_from, pipeline_reports, random_micro_events, random_score_fn,
                     corpus_features, raw_features)


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:2d} {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")


def test_01_value_function_unit_suite(capsys):
    """Every worked index/linkage/value example reproduces exactly."""
    start = time.perf_counter()
    checked = closed_forms.run_all()
    elapsed = time.perf_counter() - start
    ok = checked > 0 and elapsed < 5.0
    announce(capsys, 1, "value-function unit suite", ok,
             f"{checked} closed-form examples, {elapsed:.2f}s")
    assert checked > 0
    assert elapsed < 5.0


def test_02_brute_force_equivalence(tmp_path, capsys):
    """Pipeline value reports match the from-scratch oracle bit for bit
    after 6-decimal rounding, on 50 random micro-corpora."""
    start = time.perf_counter()
    n_corpora = 50
    n_rows = 0
    mismatches = 0
    for i in range(n_corpora):
        rng = np.random.default_rng(2000 + i)
        items, events = random_micro_events(rng)
        corpus = corpus_from(tmp_path, items, events, tag=f"m{i}")
        got = pipeline_reports(corpus)
        want = oracles.oracle_reports(corpus)
        if got != want:
            mismatches += 1
        n_rows += sum(len(rows) for _, _, rows in want)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    announce(capsys, 2, "brute-force equivalence", ok,
             f"{n_corpora} corpora, {n_rows} report rows, "
             f"{mismatches} mismatching corpora, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_03_planted_separation(capsys):
    """On the default synthetic corpus, high-value consultations outscore
    low-value ones within the same search at least 95% of the time."""
    start = time.perf_counter()
    corpus, oracle = generate(GenSpec())
    table = build_linkage(corpus, LinkageParams())
    params = ValueParams()
    buckets = fit_buckets(table, params.n_buckets)
    assessments = assess_corpus(corpus, table, buckets, params)
    scores = {
        (a.user_id, a.session.timestamp, r.cid): r.o_aggregate
        for a in assessments
        for r in a.reports
    }
    per_search = {}
    for (user, ts, cid), label in oracle.items():
        per_search.setdefault((user, ts), {LABEL_HIGH: [], LABEL_LOW: []})[
            label
        ].append(cid)
    total = ordered = 0
    for (user, ts), groups in per_search.items():
        for hi in groups[LABEL_HIGH]:
            for lo in groups[LABEL_LOW]:
                total += 1
                if scores[(user, ts, hi)] > scores[(user, ts, lo)]:
                    ordered += 1
    elapsed = time.perf_counter() - start
    rate = ordered / total
    ok = total > 500 and rate >= 0.95 and elapsed < 60.0
    announce(capsys, 3, "planted separation", ok,
             f"{ordered}/{total} ordered pairs = {rate:.4f}, {elapsed:.1f}s")
    assert total > 500
    assert rate >= 0.95, (ordered, total)
    assert elapsed < 60.0


def _end_to_end_trial(tmp_path, seed):
    """Full objective (search loss + alignment loss + L2) over a batch of
    two sessions of a generated micro-corpus, packaged for
    finite_diff_check."""
    corpus, _ = generate(GenSpec(n_users=3, n_items=10, seed=seed))
    table = build_linkage(corpus, LinkageParams())
    params = ValueParams()
    buckets = fit_buckets(table, params.n_buckets)
    assessments = assess_corpus(corpus, table, buckets, params)
    kept = TR.kept_consultations(assessments)
    model = M.init_model(corpus, M.ModelConfig(d=6, seed=seed))
    cfg = TR.TrainConfig(tau1=1.0, lambda_va=0.5, lambda_l2=1e-4,
                         n_neg_search=3, va_batch=2, seed=seed)
    split = TR.split_sessions(corpus)
    features = corpus_features(model, corpus)
    examples = [
        TR.SessionExample(user, session,
                          TR.build_example(model, corpus, features, user, session, kept))
        for user, session in split.train
    ][:2]
    rng = np.random.default_rng(seed)
    va = TR.sample_va_batch(examples, features, TR.linked_pairs(features, corpus, table),
                            cfg, rng, kept)
    assert va, "end-to-end trial drew no alignment samples"
    truths = [ex.session.ground_truth_item for ex in examples]
    negatives = [TR.sample_negative_items(model.item_ids, t, cfg.n_neg_search, rng)
                 for t in truths]

    def build():
        e_final = M.session_forward(model, features, [ex.inputs for ex in examples])
        loss = TR.loss_search(model, e_final, truths, negatives, cfg)
        loss = T.add(loss, T.scale(TR.loss_va(model, va, features, cfg), cfg.lambda_va))
        reg = T.l2_norm_sq(*model.parameters())
        return T.add(loss, T.scale(reg, cfg.lambda_l2))

    return build, model.parameters()


def test_04_gradient_integrity(tmp_path, capsys):
    """100 seeded finite-difference trials: every tensor op family and the
    end-to-end model objective, all within 1e-3 relative error."""
    start = time.perf_counter()
    n_trials = 0
    worst = 0.0
    for round_idx in range(5):  # 5 rounds x 18 op families = 90 trials
        rng = np.random.default_rng(500 + round_idx)
        for name, build, leaves in tensor_op_trials(rng):
            worst = max(worst, finite_diff_check(build, leaves, rng))
            n_trials += 1
    for seed in range(10):  # 10 end-to-end objective trials
        build, leaves = _end_to_end_trial(tmp_path, seed)
        rng = np.random.default_rng(900 + seed)
        worst = max(worst, finite_diff_check(build, leaves, rng, max_coords=3))
        n_trials += 1
    elapsed = time.perf_counter() - start
    ok = n_trials == 100 and worst < 1e-3 and elapsed < 120.0
    announce(capsys, 4, "gradient integrity", ok,
             f"{n_trials} trials, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert n_trials == 100
    assert worst < 1e-3
    assert elapsed < 120.0


def test_05_closed_form_losses(capsys):
    """Uniform logits give ln(n+1): zeroed session vector for the search
    loss, zeroed query projection for the alignment loss."""
    corpus, _ = generate(GenSpec(n_users=2, n_items=12, seed=4))
    model = M.init_model(corpus, M.ModelConfig(d=8, seed=0))
    cfg = TR.TrainConfig(n_neg_search=10)

    e_zero = T.Tensor(np.zeros((1, model.cfg.d)))
    item_ids = model.item_ids
    negatives = [v for v in item_ids if v != item_ids[0]][:10]
    search_loss = TR.loss_search(model, e_zero, [item_ids[0]], [negatives], cfg)
    search_err = abs(search_loss.item() - math.log(11.0))

    model.block.w_q.data[:] = 0.0
    table = corpus_features(model, corpus)
    user = sorted(corpus.users)[0]
    actions = list(table.span(user, 1))
    anchor = int(table.action_ts[actions].max()) + 100
    va_err = 0.0
    ks = (1, 5, 17)
    for k in ks:
        drawn = (actions * (k + 1))[: k + 1]
        sample = TR.VaSample(consultation=0, positive=drawn[0],
                             negatives=np.array(drawn[1:]), anchor_ts=anchor)
        va_loss = TR.loss_va(model, [sample], table, cfg)
        va_err = max(va_err, abs(va_loss.item() - math.log(k + 1.0)))

    ok = search_err < 1e-9 and va_err < 1e-9
    announce(capsys, 5, "closed-form losses", ok,
             f"search |err| {search_err:.1e} vs ln(11), "
             f"alignment |err| {va_err:.1e} vs ln(K+1) for K={ks}")
    assert search_err < 1e-9
    assert va_err < 1e-9


def test_06_overfit_small_corpus(capsys):
    """10 users, 30 items, 200 epochs: training hit rate at 5 reaches 1.0."""
    start = time.perf_counter()
    corpus, _ = generate(GenSpec(n_users=10, n_items=30, seed=0))
    table = build_linkage(corpus, LinkageParams())
    params = ValueParams(l_seq=1)
    buckets = fit_buckets(table, params.n_buckets)
    assessments = assess_corpus(corpus, table, buckets, params)
    model = M.init_model(corpus, M.ModelConfig(d=32, seed=0))
    cfg = TR.TrainConfig(tau1=1.0, lambda_va=0.3, lr=3e-3, batch_size=24,
                         va_batch=32, max_epochs=200, patience=200, seed=0)
    result = TR.train(corpus, table, assessments, model, cfg, l_seq=1)
    kept = TR.kept_consultations(assessments)
    score_fn = TR.model_score_fn(result.model, corpus, kept,
                                 l_seq=1, value_filter=True)
    split = TR.split_sessions(corpus)
    report = E.evaluate_sessions(score_fn, corpus, split.train,
                                 n_neg=min(99, len(corpus.items) - 1), seed=0)
    elapsed = time.perf_counter() - start
    hr5 = report.macro["hr@5"]
    ok = hr5 == 1.0 and elapsed < 180.0
    announce(capsys, 6, "overfit small corpus", ok,
             f"train HR@5 {hr5:.4f} over {report.n_sessions} sessions, "
             f"{elapsed:.1f}s")
    assert hr5 == 1.0
    assert elapsed < 180.0


def test_07_ablation_directional(capsys):
    """Across 5 seeds the full model beats semantic-only by at least 0.02
    test NDCG@10 and beats the skip-only variant; single-component
    ablations may invert softly and are flagged, not failed."""
    result = run_ablation()
    full = result.means[FULL]
    semantic = result.means[SEMANTIC_ONLY]
    no_cai = result.means[NO_CAI]
    hard_ok = full >= semantic + 0.02 and full > no_cai
    ok = hard_ok and result.elapsed_seconds < 1200.0
    flagged = (
        "; soft inversions: " + ", ".join(sorted(result.soft_inversions))
        if result.soft_inversions
        else ""
    )
    announce(capsys, 7, "ablation directional", ok,
             f"full {full:.4f}, semantic-only {semantic:.4f} "
             f"(gap {full - semantic:+.4f}), no-cai {no_cai:.4f} "
             f"(gap {full - no_cai:+.4f}), "
             f"{result.elapsed_seconds:.0f}s{flagged}")
    assert full >= semantic + 0.02, result.means
    assert full > no_cai, result.means
    assert result.elapsed_seconds < 1200.0


def test_08_metric_correctness(capsys):
    """Ranking metrics match brute force exactly on 1,000 random lists,
    and a random scorer lands at its analytic hit rate."""
    rng = np.random.default_rng(77)
    n_lists = 1000
    exact = 0
    for _ in range(n_lists):
        n = int(rng.integers(1, 60))
        ids = [f"v{j}" for j in range(n)]
        scores = rng.normal(size=n).tolist()
        truth = ids[int(rng.integers(0, n))]
        rank = oracles.rank_by_sort(ids, scores, truth)
        got = E.session_metrics(E.ground_truth_rank(ids, scores, truth))
        want = {}
        for k in E.K_CUTS:
            want[f"hr@{k}"] = oracles.hit_rate_at(rank, k)
            want[f"ndcg@{k}"] = oracles.ndcg_at(rank, k)
            want[f"mrr@{k}"] = oracles.mrr_at(rank, k)
        if got == want:
            exact += 1

    corpus, _ = generate(GenSpec(n_users=120, n_items=120, seed=11))
    sessions = [
        (user, session)
        for user in sorted(corpus.users)
        for session in corpus.users[user].searches
    ]
    assert len(sessions) >= 500
    report = E.evaluate_sessions(random_score_fn(0), corpus, sessions[:500],
                                 n_neg=99, seed=0)
    hr10 = report.macro["hr@10"]
    ok = exact == n_lists and abs(hr10 - 0.10) <= 0.03
    announce(capsys, 8, "metric correctness", ok,
             f"{exact}/{n_lists} lists exact, random-scorer HR@10 "
             f"{hr10:.4f} on 100 candidates over 500 sessions")
    assert exact == n_lists
    assert abs(hr10 - 0.10) <= 0.03, hr10


def test_09_complexity_scaling(capsys):
    """Doubling both the kept-consultation count and the history length at
    fixed width must raise forward time by less than 4.5x per doubling."""
    corpus, _ = generate(GenSpec(n_users=4, n_items=40, seed=3))
    model = M.init_model(corpus, M.ModelConfig(d=16, seed=0))
    titles = [it.title for it in corpus.items.values()]
    ids = sorted(corpus.items)
    user = sorted(corpus.users)[0]

    def features(length):
        cons = [
            Consultation(id=f"c{i}", user_turn=titles[i % len(titles)],
                         assistant_turn="noted", timestamp=10 + i)
            for i in range(length)
        ]
        acts = [
            Interaction(action_type=ActionType.CLICK, timestamp=200 + i,
                        target_item=ids[i % len(ids)])
            for i in range(length)
        ]
        q_hist = [titles[i % len(titles)] for i in range(length)]
        i_hist = [ids[i % len(ids)] for i in range(length)]
        return raw_features(model, user, cons, acts, q_hist, i_hist, 10_000, titles[0])

    def median_time(length, repeats=9):
        table, inputs = features(length)
        samples = []
        for _ in range(repeats):
            # CPU time of this process, so other processes on the machine
            # cannot inflate a ratio
            t0 = time.process_time()
            M.session_forward(model, table, [inputs])
            samples.append(time.process_time() - t0)
        return float(np.median(samples))

    median_time(8, repeats=3)  # warm-up
    sizes = (8, 16, 32, 64)
    times = [median_time(length) for length in sizes]
    ratios = [b / a for a, b in zip(times, times[1:])]
    ok = all(r < 4.5 for r in ratios)
    announce(capsys, 9, "complexity scaling", ok,
             "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
             + " over sizes " + "->".join(str(s) for s in sizes)
             + f", times {', '.join(f'{t*1e3:.2f}ms' for t in times)}")
    assert all(r < 4.5 for r in ratios), ratios


def test_10_pipeline_determinism(tmp_path, capsys):
    """Two fresh end-to-end pipeline runs under one seed produce byte
    identical value reports and metrics."""
    start = time.perf_counter()
    config = {
        "gen_users": 8, "gen_items": 16, "seed": 5, "d": 16, "l_seq": 1,
        "max_epochs": 2, "patience": 2, "batch_size": 16, "va_batch": 8,
        "tau1": 1.0, "lambda_va": 0.3, "lr": 0.003,
    }
    payloads = []
    for run_idx in range(2):
        out = tmp_path / f"run{run_idx}"
        out.mkdir()
        config_path = out / "config.json"
        config_path.write_text(json.dumps(config))
        for stage in ("datagen", "ingest", "index", "link", "assess",
                      "train", "eval"):
            code = cli.main([stage, "--config", str(config_path),
                             "--out", str(out)])
            assert code == 0, f"stage {stage} exited {code} on run {run_idx}"
        payloads.append(
            (
                (out / "values.jsonl").read_bytes(),
                (out / "reports" / "metrics.json").read_bytes(),
            )
        )
    values_same = payloads[0][0] == payloads[1][0]
    metrics_same = payloads[0][1] == payloads[1][1]
    elapsed = time.perf_counter() - start
    ok = values_same and metrics_same
    announce(capsys, 10, "pipeline determinism", ok,
             f"values.jsonl identical: {values_same}, metrics.json "
             f"identical: {metrics_same}, two runs in {elapsed:.1f}s")
    assert values_same
    assert metrics_same
