"""Planted-pattern generator: determinism, purity, linkability, separation."""

import numpy as np
import pytest

from consultrank.corpus import ActionType, load_corpus
from consultrank.datagen import (
    LABEL_HIGH,
    LABEL_LOW,
    OFF_TOPIC_TERMS,
    PATTERN_OUT_OF_SCOPE,
    PATTERN_UNVERIFIED,
    PATTERN_VERIFIED,
    SCENARIO_TERMS,
    GenSpec,
    dump_oracle,
    generate,
    write_dataset,
)
from consultrank.index import build_index, normalize
from consultrank.linkage import build_linkage
from consultrank.value import ValueParams, assess_corpus, fit_buckets
from helpers import load_oracle

SMALL = GenSpec(n_users=12, n_items=40, seed=7)


def test_vocabularies_are_disjoint():
    assert not set(SCENARIO_TERMS) & set(OFF_TOPIC_TERMS)
    assert len(SCENARIO_TERMS) == len(set(SCENARIO_TERMS))


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n_users=0)
    with pytest.raises(ValueError):
        GenSpec(n_items=0)
    with pytest.raises(ValueError):
        GenSpec(rates={"nonsense": 1.0})
    with pytest.raises(ValueError):
        GenSpec(rates={PATTERN_VERIFIED: 0.9, PATTERN_UNVERIFIED: 0.2})
    with pytest.raises(ValueError):
        GenSpec(rates={PATTERN_VERIFIED: -0.1})
    with pytest.raises(ValueError):
        GenSpec(horizon_hours=500)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GenSpec(seed=-1)


def test_generated_corpus_passes_validation_and_round_trips(tmp_path):
    corpus, oracle = write_dataset(SMALL, tmp_path)
    reloaded = load_corpus(tmp_path / "items.jsonl", tmp_path / "events.jsonl")
    assert reloaded == corpus
    assert load_oracle(tmp_path / "oracle.jsonl") == oracle
    assert len(corpus.users) == 12
    assert len(corpus.items) == 40


def test_same_seed_is_byte_identical(tmp_path):
    write_dataset(SMALL, tmp_path / "a")
    write_dataset(SMALL, tmp_path / "b")
    for name in ("items.jsonl", "events.jsonl", "oracle.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


def test_different_seed_changes_output(tmp_path):
    write_dataset(SMALL, tmp_path / "a")
    write_dataset(GenSpec(n_users=12, n_items=40, seed=8), tmp_path / "b")
    assert (tmp_path / "a" / "events.jsonl").read_bytes() != (
        tmp_path / "b" / "events.jsonl"
    ).read_bytes()


def test_out_of_scope_only_rate_yields_no_scenario_terms():
    spec = GenSpec(
        n_users=6, n_items=20, rates={PATTERN_OUT_OF_SCOPE: 1.0}, seed=3,
        horizon_hours=1000,
    )
    corpus, oracle = generate(spec)
    idx = build_index(corpus)
    for user in corpus.users.values():
        for c in user.consultations:
            assert not set(normalize(c.text)) & idx.postings.keys(), c.id
    assert set(oracle.values()) == {LABEL_LOW}


def test_high_labels_only_on_verified_pattern():
    corpus, oracle = generate(SMALL)
    assert LABEL_HIGH in set(oracle.values())
    table = build_linkage(corpus)
    for (user, search_ts, cid), label in oracle.items():
        if label != LABEL_HIGH:
            continue
        linked = table.actions_for(user, cid)
        posterior = [a for a, _ in linked if a.timestamp >= search_ts]
        assert posterior, (user, cid)
        kinds = {a.action_type for a in posterior}
        assert ActionType.CLICK in kinds or ActionType.BUY in kinds


def test_verified_consultations_always_linkable():
    corpus, oracle = generate(GenSpec(n_users=8, n_items=30, seed=11))
    table = build_linkage(corpus)
    for (user, _search_ts, cid), label in oracle.items():
        if label == LABEL_HIGH:
            assert table.actions_for(user, cid), (user, cid)


def test_planted_separation_on_small_corpus():
    corpus, oracle = generate(GenSpec(n_users=30, n_items=80, seed=5))
    table = build_linkage(corpus)
    buckets = fit_buckets(table, ValueParams.n_buckets)
    assessments = assess_corpus(corpus, table, buckets)
    scores = {}
    for a in assessments:
        for r in a.reports:
            scores[(a.user_id, a.session.timestamp, r.cid)] = r.o_aggregate

    ordered = 0
    total = 0
    per_search = {}
    for (user, ts, cid), label in oracle.items():
        per_search.setdefault((user, ts), {"high": [], "low": []})[label].append(cid)
    for (user, ts), groups in per_search.items():
        for hi in groups["high"]:
            for lo in groups["low"]:
                total += 1
                if scores[(user, ts, hi)] > scores[(user, ts, lo)]:
                    ordered += 1
    assert total > 50
    assert ordered / total >= 0.95, (ordered, total)


def test_oracle_dump_is_sorted(tmp_path):
    _corpus, oracle = generate(SMALL)
    path = tmp_path / "oracle.jsonl"
    dump_oracle(oracle, path)
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)
    assert len(lines) == len(oracle)
