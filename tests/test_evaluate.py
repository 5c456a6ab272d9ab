"""Metrics, candidate protocol, BM25, and evaluation plumbing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consultrank import evaluate as E
from consultrank.corpus import Corpus, Item
from consultrank.datagen import GenSpec, generate

import oracles
from helpers import corpus_from, item, random_score_fn, search


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    items = [item(f"i{n:03d}", f"thing kind{n:03d} mark{n % 7}") for n in range(120)]
    events = [
        search("u1", 10, "thing kind000", "i000"),
        search("u1", 50, "thing kind001", "i001"),
        search("u2", 30, "thing kind002", "i002"),
    ]
    return corpus_from(tmp_path_factory.mktemp("eval"), items, events, "eval")


def list_with_gt_at(rank, n=100):
    """(ids, scores, ground truth) with distinct descending scores."""
    ids = [f"v{j:03d}" for j in range(n)]
    return ids, [float(n - j) for j in range(n)], ids[rank - 1]


def metrics_at(rank, n=100):
    return E.session_metrics(E.ground_truth_rank(*list_with_gt_at(rank, n)))


def test_metric_closed_forms():
    first = metrics_at(1)
    assert (first["hr@5"], first["ndcg@5"], first["mrr@5"]) == (1, 1, 1)
    third = metrics_at(3)
    assert third["ndcg@5"] == pytest.approx(0.5)
    assert third["mrr@5"] == pytest.approx(1 / 3)
    seventh = metrics_at(7)
    assert (seventh["hr@5"], seventh["ndcg@5"], seventh["mrr@5"]) == (0, 0, 0)


def test_metrics_match_brute_force_on_random_lists():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        rank = int(rng.integers(1, n + 1))
        assert E.ground_truth_rank(*list_with_gt_at(rank, n)) == rank
        metrics = metrics_at(rank, n)
        for k in E.K_CUTS:
            assert metrics[f"hr@{k}"] == oracles.hit_rate_at(rank, k)
            assert metrics[f"ndcg@{k}"] == oracles.ndcg_at(rank, k)
            assert metrics[f"mrr@{k}"] == oracles.mrr_at(rank, k)


def test_missing_ground_truth_scores_zero():
    assert E.ground_truth_rank(["a", "b"], [2.0, 1.0], "zz") is None
    assert set(E.session_metrics(None).values()) == {0.0}


def test_ground_truth_rank_breaks_ties_by_id():
    ranks = {v: E.ground_truth_rank(["b", "a", "c"], [1.0, 1.0, 2.0], v) for v in "abc"}
    assert ranks == {"c": 1, "a": 2, "b": 3}
    assert E.ground_truth_rank(["b", "a"], [-0.0, 0.0], "b") == 2
    with pytest.raises(ValueError, match="3 candidates but 2 scores"):
        E.ground_truth_rank(["a", "b", "c"], [1.0, 2.0], "a")


@st.composite
def tied_lists(draw):
    """Distinct ids with few distinct score values, -0.0 next to 0.0, and a
    ground truth that may or may not be a candidate."""
    ids = draw(st.lists(st.text("abz é\"", min_size=1, max_size=3),
                        min_size=1, max_size=30, unique=True))
    scores = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]),
                           min_size=len(ids), max_size=len(ids)))
    truth = draw(st.one_of(st.sampled_from(ids), st.text("abz", max_size=4)))
    return ids, scores, truth


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tied_lists())
def test_ground_truth_rank_matches_sort(case):
    assert E.ground_truth_rank(*case) == oracles.rank_by_sort(*case)


def test_ground_truth_rank_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        E.ground_truth_rank(["a", "b"], [float("nan"), 1.0], "b")


def test_make_candidates_contract(eval_corpus):
    assert E.make_candidates("i005", eval_corpus, n_neg=0) == ["i005"]
    full = E.make_candidates("i005", eval_corpus, n_neg=119, seed=9)
    assert sorted(full) == sorted(eval_corpus.items)
    again = E.make_candidates("i005", eval_corpus, n_neg=99, seed=9)
    assert again == E.make_candidates("i005", eval_corpus, n_neg=99, seed=9)
    assert "i005" in again and len(again) == 100 and len(set(again)) == 100
    with pytest.raises(ValueError, match="only 119 other items"):
        E.make_candidates("i005", eval_corpus, n_neg=120)
    with pytest.raises(ValueError, match="unknown ground-truth"):
        E.make_candidates("nope", eval_corpus)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_make_candidates_matches_pool_formulation(data):
    """Random catalogs, in random insertion order: the candidates equal the
    ones drawn from the explicit pool of every other item."""
    ids = data.draw(st.lists(st.text("abz019", min_size=1, max_size=4), min_size=1,
                             max_size=40, unique=True))
    corpus = Corpus(items={v: Item(v, "title") for v in ids})
    truth = data.draw(st.sampled_from(ids))
    n_neg = data.draw(st.integers(0, len(ids) - 1))
    seed = data.draw(st.integers(0, 2**32))
    assert E.make_candidates(truth, corpus, n_neg=n_neg, seed=seed) == \
        oracles.candidates_from_pool(truth, ids, n_neg, seed)


def test_session_seed_distinguishes_sessions(eval_corpus):
    u1 = eval_corpus.users["u1"].searches
    s1 = E.session_seed(0, "u1", u1[0])
    s2 = E.session_seed(0, "u1", u1[1])
    assert s1 != s2
    assert s1 == E.session_seed(0, "u1", u1[0])
    assert s1 != E.session_seed(1, "u1", u1[0])


def test_perfect_oracle_scores_all_ones(eval_corpus):
    def oracle(user_id, session, candidates):
        return [1.0 if v == session.ground_truth_item else 0.0 for v in candidates]

    sessions = [(u, s) for u in sorted(eval_corpus.users)
                for s in eval_corpus.users[u].searches]
    report = E.evaluate_sessions(oracle, eval_corpus, sessions)
    assert all(v == 1.0 for v in report.macro.values())
    assert report.n_sessions == 3


def test_random_scorer_hits_uniform_rate():
    corpus, _ = generate(GenSpec(n_users=150, n_items=120, seed=7))
    sessions = [(u, s) for u in sorted(corpus.users)
                for s in corpus.users[u].searches]
    assert len(sessions) >= 500
    report = E.evaluate_sessions(random_score_fn(3), corpus, sessions, seed=3)
    assert abs(report.macro["hr@10"] - 0.10) <= 0.03
    hr = [report.macro[f"hr@{k}"] for k in E.K_CUTS]
    assert hr == sorted(hr)


def test_evaluate_is_deterministic(eval_corpus):
    sessions = [(u, s) for u in sorted(eval_corpus.users)
                for s in eval_corpus.users[u].searches]
    a = E.evaluate_sessions(random_score_fn(5), eval_corpus, sessions, seed=11)
    b = E.evaluate_sessions(random_score_fn(5), eval_corpus, sessions, seed=11)
    assert a.macro == b.macro and a.per_user == b.per_user


def test_evaluate_validates_inputs(eval_corpus):
    with pytest.raises(ValueError, match="no sessions"):
        E.evaluate_sessions(random_score_fn(), eval_corpus, [])
    with pytest.raises(ValueError, match="unknown protocol"):
        E.evaluate_sessions(random_score_fn(), eval_corpus,
                            [("u1", eval_corpus.users["u1"].searches[0])],
                            protocol="exhaustive")


def test_retrieval_protocol_uses_full_catalog(eval_corpus):
    seen = []

    def spy(user_id, session, candidates):
        seen.append(candidates)
        # descending in catalog order: catalog position p ranks p + 1
        return np.arange(len(eval_corpus.items), 0, -1.0)

    sessions = [("u2", eval_corpus.users["u2"].searches[0])]
    report = E.evaluate_sessions(spy, eval_corpus, sessions, protocol="retrieval")
    assert seen == [None]
    # i002 is catalog position 2 of 120
    assert report.macro["mrr@5"] == pytest.approx(1 / 3)
    with pytest.raises(ValueError, match="120 candidates but 119 scores"):
        E.evaluate_sessions(lambda *a: spy(*a)[1:], eval_corpus, sessions,
                            protocol="retrieval")


def test_ground_truth_rank_by_bisection_matches_search():
    ids = [f"v{j:03d}" for j in range(40)]
    scores = np.random.default_rng(3).integers(0, 5, size=40).astype(float)
    for truth in [*ids, "nope", "v0395", "zz"]:
        assert E.ground_truth_rank(ids, scores, truth, sorted_ids=True) == \
            E.ground_truth_rank(ids, scores, truth)


def test_evaluate_calls_the_scorer_once_per_session(eval_corpus):
    """The scorer is called once per session, in order, with the session's
    `make_candidates` list under `ranking` and None under `retrieval`; a
    score row one short is refused."""
    score = random_score_fn(4)
    calls = []

    def spy(user_id, session, candidates):
        calls.append((user_id, session, candidates))
        return score(user_id, session,
                     eval_corpus.item_ids if candidates is None else candidates)

    sessions = [(u, s) for u in sorted(eval_corpus.users)
                for s in eval_corpus.users[u].searches]
    E.evaluate_sessions(spy, eval_corpus, sessions, seed=2, n_neg=9)
    assert calls == [(u, s, E.make_candidates(s.ground_truth_item, eval_corpus, n_neg=9,
                                              seed=E.session_seed(2, u, s)))
                     for u, s in sessions]
    calls.clear()
    E.evaluate_sessions(spy, eval_corpus, sessions, protocol="retrieval")
    assert calls == [(u, s, None) for u, s in sessions]
    with pytest.raises(ValueError, match="10 candidates but 9 scores"):
        E.evaluate_sessions(lambda *a: score(*a)[:-1], eval_corpus, sessions, n_neg=9)


def bm25_reference(query_tokens, docs, item_id, k1=1.2, b=0.75):
    n_docs = len(docs)
    lens = {v: len(toks) for v, toks in docs.items()}
    avg = sum(lens.values()) / n_docs
    score = 0.0
    for term in query_tokens:
        df = sum(1 for toks in docs.values() if term in toks)
        if df == 0 or term not in docs[item_id]:
            continue
        idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
        tf = docs[item_id].count(term)
        score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * lens[item_id] / avg))
    return score


def bm25_scores(corpus, candidates):
    """BM25 scores of `candidates` for the corpus's only search session."""
    ((user, history),) = corpus.users.items()
    return E.bm25_score_fn(corpus)(user, history.searches[0], candidates).tolist()


def test_bm25_matches_reference_formula(tmp_path):
    items = [
        item("d1", "copper kettle polished", ["small spout"]),
        item("d2", "steel kettle", ["copper trim", "copper base"]),
        item("d3", "ceramic teapot floral", []),
    ]
    corpus = corpus_from(tmp_path, items, [search("u1", 5, "copper kettle", "d1")], "bm")
    docs = {
        "d1": ["copper", "kettle", "polished", "small", "spout"],
        "d2": ["steel", "kettle", "copper", "trim", "copper", "base"],
        "d3": ["ceramic", "teapot", "floral"],
    }
    scores = bm25_scores(corpus, ["d1", "d2", "d3"])
    expected = [bm25_reference(["copper", "kettle"], docs, v) for v in ("d1", "d2", "d3")]
    assert scores == pytest.approx(expected, rel=1e-12)
    ((user, history),) = corpus.users.items()
    catalog = E.bm25_score_fn(corpus)(user, history.searches[0], None)
    assert catalog.tolist() == scores


def test_bm25_unique_match_ranks_first(tmp_path):
    items = [
        item("d1", "walnut shelf"),
        item("d2", "pine shelf"),
        item("d3", "oak dresser"),
    ]
    corpus = corpus_from(tmp_path, items, [search("u1", 5, "walnut", "d1")], "bm2")
    candidates = ["d3", "d2", "d1"]
    scores = bm25_scores(corpus, candidates)
    assert scores[2] > max(scores[:2])
    assert E.ground_truth_rank(candidates, scores, "d1") == 1


def test_bm25_empty_query_gives_zero_scores(tmp_path):
    items = [item("d1", "walnut shelf"), item("d2", "pine shelf")]
    corpus = corpus_from(tmp_path, items, [search("u1", 5, "of the a", "d1")], "bm3")
    scores = bm25_scores(corpus, ["d2", "d1"])
    assert scores == [0.0, 0.0]
    assert [E.ground_truth_rank(["d2", "d1"], scores, v) for v in ("d1", "d2")] == [1, 2]


def test_report_serialization_round_trip(eval_corpus, tmp_path):
    sessions = [(u, s) for u in sorted(eval_corpus.users)
                for s in eval_corpus.users[u].searches]
    report = E.evaluate_sessions(E.bm25_score_fn(eval_corpus), eval_corpus, sessions)
    path = tmp_path / "metrics.json"
    E.dump_metrics(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["n_sessions"] == 3
    assert set(loaded["macro"]) == {f"{m}@{k}" for m in ("hr", "ndcg", "mrr")
                                    for k in E.K_CUTS}
    assert loaded["macro"]["hr@5"] == round(report.macro["hr@5"], 6)
    assert "u1" in loaded["per_user"]


def test_metric_table_layout(eval_corpus):
    sessions = [(u, s) for u in sorted(eval_corpus.users)
                for s in eval_corpus.users[u].searches]
    report = E.evaluate_sessions(E.bm25_score_fn(eval_corpus), eval_corpus, sessions)
    table = E.format_metric_table({"bm25": report, "random": report})
    lines = table.splitlines()
    assert lines[0].startswith("system")
    assert "hr@5" in lines[0] and "mrr@50" in lines[0]
    assert len(lines) == 4
    assert all(len(line) <= len(lines[0]) for line in lines)
