"""Value scoring: decay, buckets, scarcity weights, aggregation, ranking."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from consultrank.corpus import ActionType, Consultation, Corpus
from consultrank.datagen import LABEL_HIGH, GenSpec, generate
from consultrank.index import build_index
from consultrank.linkage import build_linkage
from consultrank.value import (
    BucketTable,
    ValueParams,
    ValueReport,
    aggregate_value,
    assess_corpus,
    bucketize,
    dump_values,
    consultation_terms,
    fit_buckets,
    load_assessments,
    rank_and_filter,
    score_histogram,
    time_bucket,
    time_decay_value,
    value_line,
)
from closed_forms import value_examples
from helpers import (
    ANY_TEXT,
    buy,
    consult,
    corpus_from,
    item,
    pipeline_reports,
    random_micro_events,
    search,
)
from oracles import oracle_reports


def test_worked_examples():
    value_examples()


def test_params_validation():
    for bad in (
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(lambda1=-0.1),
        dict(lambda2=1.5),
        dict(l_seq=0),
        dict(n_buckets=1),
    ):
        with pytest.raises(ValueError):
            ValueParams(**bad)


def test_time_decay_rejects_future_consultations():
    with pytest.raises(ValueError):
        time_decay_value(10, 11, 0.99)
    with pytest.raises(ValueError):
        time_decay_value(10, 5, 1.0)


def test_time_decay_strictly_decreasing():
    values = [time_decay_value(t, 0, 0.99) for t in range(0, 200, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_time_bucket_boundaries():
    assert [time_bucket(d, 13) for d in (0, 1, 2, 3, 6, 7, 14, 15)] == [
        0, 1, 1, 2, 2, 3, 3, 4,
    ]
    assert time_bucket(100, 2) == 1
    with pytest.raises(ValueError):
        time_bucket(-1, 13)
    with pytest.raises(ValueError):
        time_bucket(5, 1)


def test_bucket_table_refuses_unsorted_or_negative_cut_points():
    """Cut points are counts: a count of zero then lies in bucket 0, which
    `action_value` relies on to skip it."""
    with pytest.raises(ValueError, match="not sorted"):
        BucketTable(cuts={ActionType.CLICK: (0, 2, 1)})
    with pytest.raises(ValueError, match="negative"):
        BucketTable(cuts={ActionType.BUY: (-1, 0, 1)})


def test_bucketize_monotone():
    cuts = (0, 0, 1, 1, 2, 3, 5, 8, 13, 21)
    scores = [bucketize(f, cuts) for f in range(25)]
    assert scores == sorted(scores)
    assert scores[0] == 0.0 and scores[-1] == 1.0
    assert all(s in {k / 10 for k in range(11)} for s in scores)
    with pytest.raises(ValueError):
        bucketize(-1, cuts)


def test_aggregate_rejects_out_of_range():
    p = ValueParams()
    with pytest.raises(ValueError):
        aggregate_value(1.2, 0.5, 0.5, p)
    with pytest.raises(ValueError):
        aggregate_value(0.5, -0.1, 0.5, p)
    with pytest.raises(ValueError):
        aggregate_value(0.5, 0.5, 1.01, p)


def test_aggregate_monotone_in_each_argument():
    p = ValueParams()
    base = aggregate_value(0.4, 0.4, 0.4, p)
    assert aggregate_value(0.6, 0.4, 0.4, p) > base
    assert aggregate_value(0.4, 0.6, 0.4, p) > base
    assert aggregate_value(0.4, 0.4, 0.6, p) > base


def _tie_corpus(tmp_path):
    items = [item("i1", "alpha beta")]
    events = [
        consult("u1", 5, "cb", "alpha beta talk"),
        consult("u1", 9, "cc", "alpha beta talk"),
        consult("u1", 9, "ca", "alpha beta talk"),
        search("u1", 20, "alpha beta", "i1"),
    ]
    return corpus_from(tmp_path, items, events)


def test_ties_break_by_recency_then_id(tmp_path):
    corpus = _tie_corpus(tmp_path)
    table = build_linkage(corpus)
    buckets = fit_buckets(table, ValueParams.n_buckets)
    params = ValueParams(lambda1=1.0)
    h = corpus.users["u1"]
    kept, reports = rank_and_filter(
        h, h.searches[0], *consultation_terms(h, build_index(corpus), table), buckets,
        params,
    )
    aggs = {r.cid: r.o_aggregate for r in reports}
    assert len(set(aggs.values())) == 1
    assert [r.cid for r in reports] == ["ca", "cc", "cb"]
    assert [c.id for c in kept] == ["ca", "cc", "cb"]


def test_reports_cover_all_prior_consultations(tmp_path):
    corpus = _tie_corpus(tmp_path)
    table = build_linkage(corpus)
    h = corpus.users["u1"]
    kept, reports = rank_and_filter(
        h, h.searches[0], *consultation_terms(h, build_index(corpus), table),
        fit_buckets(table, ValueParams.n_buckets),
        ValueParams(l_seq=2),
    )
    assert len(reports) == 3
    assert [r.rank for r in reports] == [1, 2, 3]
    assert len(kept) == 2
    assert [c.id for c in kept] == [r.cid for r in reports[:2]]


def test_assess_corpus_orders_users_then_sessions(tmp_path):
    items = [item("i1", "alpha beta")]
    events = [
        search("u2", 30, "alpha", "i1"),
        search("u1", 50, "beta", "i1"),
        search("u1", 10, "alpha beta", "i1"),
        consult("u1", 5, "c1", "alpha beta talk"),
    ]
    corpus = corpus_from(tmp_path, items, events)
    table = build_linkage(corpus)
    got = [
        (a.user_id, a.session.timestamp)
        for a in assess_corpus(corpus, table, fit_buckets(table, ValueParams.n_buckets))
    ]
    assert got == [("u1", 10), ("u1", 50), ("u2", 30)]


def test_dump_values_is_bit_stable_and_rounded(tmp_path):
    corpus = _tie_corpus(tmp_path)
    table = build_linkage(corpus)
    assessments = assess_corpus(corpus, table, fit_buckets(table, ValueParams.n_buckets))
    dump_values(assessments, tmp_path / "a.jsonl")
    dump_values(assessments, tmp_path / "b.jsonl")
    a = (tmp_path / "a.jsonl").read_bytes()
    assert a == (tmp_path / "b.jsonl").read_bytes()
    for line in a.decode().splitlines():
        assert line.index('"cid"') < line.index('"o_action"') < line.index('"user"')


def test_load_assessments_joins_an_hour_split_across_the_file(tmp_path):
    """Rows of one (user, search hour) that do not sit together in the file
    still make one row set: the rows reordered rank by rank load as the
    file `dump_values` wrote."""
    corpus, _ = generate(GenSpec(n_users=6, n_items=12, seed=3))
    linkage = build_linkage(corpus)
    params = ValueParams(l_seq=2)
    dump_values(assess_corpus(corpus, linkage, fit_buckets(linkage, params.n_buckets), params),
                tmp_path / "values.jsonl")
    lines = (tmp_path / "values.jsonl").read_text().splitlines()
    split = sorted(lines, key=lambda line: json.loads(line)["rank"])
    assert split != lines
    (tmp_path / "split.jsonl").write_text("\n".join(split) + "\n")
    want = load_assessments(tmp_path / "values.jsonl", corpus, params)
    assert load_assessments(tmp_path / "split.jsonl", corpus, params) == want
    assert any(len(a.reports) > 1 for a in want)


def test_score_histogram_mentions_total(tmp_path):
    corpus = _tie_corpus(tmp_path)
    table = build_linkage(corpus)
    text = score_histogram(assess_corpus(corpus, table, fit_buckets(table, ValueParams.n_buckets)))
    assert "3 consultations" in text
    assert score_histogram([]) == "(no scored consultations)"


def test_same_family_chat_shares_the_verified_links():
    """A chat that only names the query's family, placed inside the linkage
    window 10 h before the search, is verified by the same actions as the
    consultations the oracle labels high: it links to 8 of their actions,
    gets their o_action, and is kept in their place at l_seq 1 because it is
    fresher.  The linkage rules couple value with similarity to the query."""
    corpus, oracle = generate(GenSpec(seed=0))
    history = corpus.users["u0000"]
    chat = Consultation("u0000-chat", "is the arbomount glidecore range any good", "", 2190)
    consultations = tuple(sorted([*history.consultations, chat], key=lambda c: c.timestamp))
    corpus = Corpus(items=corpus.items, users={
        **corpus.users, "u0000": dataclasses.replace(history, consultations=consultations)})
    search_ts = 2200
    assert [s.query.text for s in history.searches if s.timestamp == search_ts] == [
        "arbomount glidecore"]
    high = sorted(cid for (user, ts, cid), label in oracle.items()
                  if (user, ts) == ("u0000", search_ts) and label == LABEL_HIGH)
    assert high == ["u0000-c000", "u0000-c001"]

    linkage = build_linkage(corpus)
    links = linkage.links["u0000"]
    assert len(links[chat.id]) == 8
    assert all(set(links[chat.id]) <= set(links[cid]) for cid in high)

    params = ValueParams(l_seq=1)
    assessments = assess_corpus(corpus, linkage, fit_buckets(linkage, params.n_buckets), params)
    [session] = [a for a in assessments
                 if a.user_id == "u0000" and a.session.timestamp == search_ts]
    o_action = {r.cid: r.o_action for r in session.reports}
    assert o_action[chat.id] == o_action["u0000-c000"] == o_action["u0000-c001"] == 0.7
    assert [c.id for c in session.kept] == [chat.id]


def test_pipeline_matches_brute_force_oracle(tmp_path):
    rng = np.random.default_rng(20260819)
    for trial in range(8):
        items, events = random_micro_events(rng)
        corpus = corpus_from(tmp_path, items, events, tag=str(trial))
        assert pipeline_reports(corpus) == oracle_reports(corpus), trial


_score = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(
    [0.0, 1.0, 1e-06, 5e-07, 4.9999999e-07, 0.1 + 0.2, 0.99 ** 720, 5e-324])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(user=ANY_TEXT, cid=ANY_TEXT, search_ts=st.integers(min_value=0, max_value=2**63 - 1),
       scores=st.tuples(_score, _score, _score, _score), rank=st.integers(min_value=1))
@example(user='u"\\\x00\x1f', cid="\U0001f600\ud800caf\u00e9", search_ts=0,
         scores=(1.0, 0.0, 1e-06, 0.123456789), rank=1)
def test_value_line_is_the_json_dumps_line(user, cid, search_ts, scores, rank):
    o_time, o_scope, o_action, o_aggregate = scores
    row = {"user": user, "search_ts": search_ts, "cid": cid,
           "o_time": round(o_time, 6), "o_scope": round(o_scope, 6),
           "o_action": round(o_action, 6), "o_aggregate": round(o_aggregate, 6), "rank": rank}
    line = value_line(ValueReport(user, search_ts, cid, *scores, rank))
    assert line == json.dumps(row, sort_keys=True) + "\n"
