"""Metrics, candidate protocol, BM25, and evaluation plumbing."""

import json
import math

import numpy as np
import pytest

from consultrank import evaluate as E
from consultrank.datagen import GenSpec, generate

import oracles
from helpers import consult, corpus_from, item, search


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    items = [item(f"i{n:03d}", f"thing kind{n:03d} mark{n % 7}") for n in range(120)]
    events = [
        search("u1", 10, "thing kind000", "i000"),
        search("u1", 50, "thing kind001", "i001"),
        search("u2", 30, "thing kind002", "i002"),
    ]
    return corpus_from(tmp_path_factory.mktemp("eval"), items, events, "eval")


def ranked_with_gt_at(rank, n=100):
    ids = [f"v{j:03d}" for j in range(n)]
    gt = ids[rank - 1]
    entries = tuple((v, float(n - j)) for j, v in enumerate(ids))
    return E.RankedList(entries=entries, ground_truth=gt)


def test_metric_closed_forms():
    first = ranked_with_gt_at(1)
    assert (E.hr_at_k(first, 5), E.ndcg_at_k(first, 5), E.mrr_at_k(first, 5)) == (1, 1, 1)
    third = ranked_with_gt_at(3)
    assert E.ndcg_at_k(third, 5) == pytest.approx(0.5)
    assert E.mrr_at_k(third, 5) == pytest.approx(1 / 3)
    seventh = ranked_with_gt_at(7)
    assert (E.hr_at_k(seventh, 5), E.ndcg_at_k(seventh, 5), E.mrr_at_k(seventh, 5)) == (0, 0, 0)


def test_metrics_match_brute_force_on_random_lists():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        rank = int(rng.integers(1, n + 1))
        ranked = ranked_with_gt_at(rank, n=n)
        for k in E.K_CUTS:
            assert E.hr_at_k(ranked, k) == oracles.hit_rate_at(rank, k)
            assert E.ndcg_at_k(ranked, k) == oracles.ndcg_at(rank, k)
            assert E.mrr_at_k(ranked, k) == oracles.mrr_at(rank, k)


def test_missing_ground_truth_scores_zero():
    ranked = E.RankedList(entries=(("a", 2.0), ("b", 1.0)), ground_truth="zz")
    assert ranked.rank() is None
    assert E.hr_at_k(ranked, 50) == 0.0


def test_ranked_list_rejects_increasing_scores():
    with pytest.raises(ValueError, match="non-increasing"):
        E.RankedList(entries=(("a", 1.0), ("b", 2.0)), ground_truth="a")


def test_ranked_from_scores_breaks_ties_by_id():
    ranked = E.ranked_from_scores(["b", "a", "c"], [1.0, 1.0, 2.0], "a")
    assert [v for v, _ in ranked.entries] == ["c", "a", "b"]
    with pytest.raises(ValueError, match="3 candidates but 2 scores"):
        E.ranked_from_scores(["a", "b", "c"], [1.0, 2.0], "a")


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
    report = E.evaluate_sessions(E.random_score_fn(3), corpus, sessions, seed=3)
    assert abs(report.macro["hr@10"] - 0.10) <= 0.03
    hr = [report.macro[f"hr@{k}"] for k in E.K_CUTS]
    assert hr == sorted(hr)


def test_evaluate_is_deterministic(eval_corpus):
    sessions = [(u, s) for u in sorted(eval_corpus.users)
                for s in eval_corpus.users[u].searches]
    a = E.evaluate_sessions(E.random_score_fn(5), eval_corpus, sessions, seed=11)
    b = E.evaluate_sessions(E.random_score_fn(5), eval_corpus, sessions, seed=11)
    assert a.macro == b.macro and a.per_user == b.per_user


def test_evaluate_validates_inputs(eval_corpus):
    with pytest.raises(ValueError, match="no sessions"):
        E.evaluate_sessions(E.random_score_fn(), eval_corpus, [])
    with pytest.raises(ValueError, match="unknown protocol"):
        E.evaluate_sessions(E.random_score_fn(), eval_corpus,
                            [("u1", eval_corpus.users["u1"].searches[0])],
                            protocol="exhaustive")


def test_retrieval_protocol_uses_full_catalog(eval_corpus):
    seen = {}

    def spy(user_id, session, candidates):
        seen["n"] = len(candidates)
        return list(range(len(candidates), 0, -1))

    sessions = [("u2", eval_corpus.users["u2"].searches[0])]
    E.evaluate_sessions(spy, eval_corpus, sessions, protocol="retrieval")
    assert seen["n"] == len(eval_corpus.items)


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


def bm25_ranked(corpus, candidates):
    """BM25 ranking of `candidates` for the corpus's only search session."""
    ((user, history),) = corpus.users.items()
    session = history.searches[0]
    scores = E.bm25_score_fn(corpus)(user, session, candidates)
    return E.ranked_from_scores(candidates, scores, session.ground_truth_item)


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
    ranked = bm25_ranked(corpus, ["d1", "d2", "d3"])
    expected = {v: bm25_reference(["copper", "kettle"], docs, v) for v in docs}
    assert sorted(v for v, _ in ranked.entries) == ["d1", "d2", "d3"]
    for v, score in ranked.entries:
        assert score == pytest.approx(expected[v], rel=1e-12)


def test_bm25_unique_match_ranks_first(tmp_path):
    items = [
        item("d1", "walnut shelf"),
        item("d2", "pine shelf"),
        item("d3", "oak dresser"),
    ]
    corpus = corpus_from(tmp_path, items, [search("u1", 5, "walnut", "d1")], "bm2")
    ranked = bm25_ranked(corpus, ["d3", "d2", "d1"])
    assert ranked.entries[0][0] == "d1"
    assert ranked.rank() == 1


def test_bm25_empty_query_gives_zero_scores(tmp_path):
    items = [item("d1", "walnut shelf"), item("d2", "pine shelf")]
    corpus = corpus_from(tmp_path, items, [search("u1", 5, "of the a", "d1")], "bm3")
    ranked = bm25_ranked(corpus, ["d2", "d1"])
    assert [v for v, _ in ranked.entries] == ["d1", "d2"]
    assert all(s == 0.0 for _, s in ranked.entries)


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
