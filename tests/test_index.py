"""Normalization, catalog index construction, and scope scoring."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from consultrank.corpus import Consultation
from consultrank.index import (
    ScopeParams,
    build_index,
    dump_index,
    index_line,
    load_index,
    matched_terms,
    normalize,
    scope_value,
)
from closed_forms import index_examples
from helpers import ANY_TEXT, corpus_from, item
import oracles


def _c(text, ts=0):
    return Consultation(id="c", user_turn=text, assistant_turn="", timestamp=ts)


def test_worked_examples():
    index_examples()


def test_normalize_lowercases_and_strips_punctuation():
    assert normalize("The Folding-Phone, a JX1!") == ["folding", "phone", "jx1"]


def test_normalize_drops_single_character_tokens():
    assert normalize("x 7 gb laptop") == ["gb", "laptop"]


def test_normalize_keeps_order_and_multiplicity():
    assert normalize("phone case phone") == ["phone", "case", "phone"]


def test_normalize_stopword_only_text_is_empty():
    assert normalize("the and of to") == []


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=st.text())
@example("Straße İstanbul ﬁne ǅemal Ⅻ café\x0bpro\u00a0max\u2028x1 a\tb\nc\rd")
def test_normalize_agrees_with_reference_on_any_text(text):
    assert normalize(text) == oracles.normalize(text)


def test_index_ignores_event_text(tmp_path):
    events = [
        {
            "user": "u1",
            "type": "consult",
            "ts_hours": 1,
            "cid": "c1",
            "user_turn": "zebra telescope",
            "assistant_turn": "",
        }
    ]
    corpus = corpus_from(tmp_path, [item("i1", "folding phone")], events)
    idx = build_index(corpus)
    assert "zebra" not in idx.postings
    assert set(idx.postings) == {"folding", "phone"}


def test_index_order_independent(tmp_path):
    items = [
        item("i3", "travel tripod stand", ["carbon"]),
        item("i1", "gaming laptop", ["16gb"]),
        item("i2", "laptop sleeve"),
    ]
    a = build_index(corpus_from(tmp_path, items, [], tag="a"))
    b = build_index(corpus_from(tmp_path, list(reversed(items)), [], tag="b"))
    assert a.postings == b.postings
    assert a.postings["laptop"] == ["i1", "i2"]


def test_term_count(tmp_path):
    corpus = corpus_from(
        tmp_path, [item("i1", "gaming laptop"), item("i2", "gaming mouse")], []
    )
    idx = build_index(corpus)
    assert len(idx.postings.get("gaming", ())) == 2
    assert len(idx.postings.get("laptop", ())) == 1
    assert len(idx.postings.get("absent", ())) == 0


def test_attributes_are_indexed(tmp_path):
    corpus = corpus_from(tmp_path, [item("i1", "laptop", ["silver", "16gb"])], [])
    idx = build_index(corpus)
    assert idx.postings["silver"] == ["i1"]
    assert idx.postings["16gb"] == ["i1"]


def test_scope_value_monotone_and_saturating(tmp_path):
    titles = "alpha bravo charlie delta echo foxtrot"
    corpus = corpus_from(tmp_path, [item("i1", titles)], [])
    idx = build_index(corpus)
    words = titles.split()
    p = ScopeParams(lambda_thresh=4)
    scores = [scope_value(idx, _c(" ".join(words[:k]) or "unrelated"), p) for k in range(7)]
    assert scores[0] == 0.0
    assert scores == sorted(scores)
    assert scores[4] == scores[5] == scores[6] == 1.0
    assert scores[1] == pytest.approx(0.25)


def test_scope_params_validation():
    with pytest.raises(ValueError):
        ScopeParams(lambda_thresh=0)


def test_matched_terms_covers_own_title(tmp_path):
    corpus = corpus_from(tmp_path, [item("i1", "carbon travel tripod", ["compact"])], [])
    idx = build_index(corpus)
    hit = matched_terms(idx, _c("carbon travel tripod compact"))
    assert hit == {"carbon", "travel", "tripod", "compact"}


def test_dump_index_is_bit_stable(tmp_path):
    corpus = corpus_from(
        tmp_path, [item("i2", "folding phone"), item("i1", "phone case")], []
    )
    idx = build_index(corpus)
    dump_index(idx, tmp_path / "a.jsonl")
    dump_index(idx, tmp_path / "b.jsonl")
    a = (tmp_path / "a.jsonl").read_bytes()
    assert a == (tmp_path / "b.jsonl").read_bytes()
    terms = [json.loads(line)["term"] for line in a.decode().splitlines()]
    assert terms == sorted(terms) == ["case", "folding", "phone"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(term=ANY_TEXT, items=st.lists(ANY_TEXT, max_size=4))
@example(term='q"uo\\te\x00\x1f\x7f\u2028\ud800', items=["caf\u00e9", "\U0001f600", "\udfff"])
@example(term="", items=[])
def test_index_line_is_the_json_dumps_line(term, items):
    assert index_line(term, items) == (
        json.dumps({"term": term, "items": items}, sort_keys=True) + "\n")


@pytest.mark.parametrize("row", [
    {"term": 5, "items": ["i1"]},
    {"term": "phone", "items": "abc"},
    {"term": "phone", "items": ["i1", 2]},
    {"term": "phone"},
    ["phone", ["i1"]],
])
def test_load_index_rejects_wrongly_typed_rows(tmp_path, row):
    path = tmp_path / "index.jsonl"
    path.write_text(json.dumps({"term": "case", "items": ["i1"]}) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="index.jsonl:2: malformed index row"):
        load_index(path)
