"""Action-to-consultation linking: rules, windowing, inversion, ordering."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from consultrank.corpus import ActionType, CorpusError, Interaction, Query, build_corpus
from consultrank.linkage import (
    RULES,
    LinkageParams,
    action_text,
    build_linkage,
    dump_linkage,
    link_line,
)
from closed_forms import linkage_examples
from helpers import ANY_TEXT, buy, click, consult, corpus_from, item, search
from oracles import ACTION_NAMES, linked_action_times

CATALOG = [
    item("i1", "Laptop OG G14", ["16GB"]),
    item("i2", "folding phone"),
    item("i3", "carbon travel tripod"),
]


def test_worked_examples():
    linkage_examples()


def test_params_validation():
    with pytest.raises(ValueError):
        LinkageParams(window_days=0)
    assert LinkageParams(window_days=2).window_hours == 48


def test_action_text_unknown_item_errors(tmp_path):
    corpus = corpus_from(tmp_path, CATALOG, [])
    ghost = Interaction(ActionType.CLICK, 5, target_item="nope")
    with pytest.raises(CorpusError, match="nope"):
        action_text(ghost, corpus)


def test_all_stopword_query_links_nothing(tmp_path):
    events = [
        consult("u1", 0, "c1", "the and of to you", ""),
        search("u1", 5, "the and of", "i1"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    table = build_linkage(corpus)
    assert table.actions_for("u1", "c1") == []


def test_majority_at_exactly_half_does_not_link(tmp_path):
    events = [
        consult("u1", 0, "c1", "want red folding things", ""),
        search("u1", 5, "red folding phone case", "i2"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    assert build_linkage(corpus).actions_for("u1", "c1") == []


def test_stopwords_do_not_break_contiguity(tmp_path):
    events = [
        consult("u1", 0, "c1", "is the folding and the phone good", ""),
        buy("u1", 5, "i2"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    (linked, rule), = build_linkage(corpus).actions_for("u1", "c1")
    assert rule == "full-text"
    assert linked.target_item == "i2"


def test_interactions_before_consultation_never_link(tmp_path):
    events = [
        buy("u1", 5, "i2"),
        consult("u1", 10, "c1", "folding phone chat", ""),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    assert build_linkage(corpus).actions_for("u1", "c1") == []


def test_window_boundary_is_inclusive(tmp_path):
    window_hours = 14 * 24
    events = [
        consult("u1", 0, "c1", "folding phone chat", ""),
        buy("u1", window_hours, "i2"),
        consult("u1", 0, "c2", "folding phone talk", ""),
        buy("u1", window_hours + 1, "i2"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    table = build_linkage(corpus)
    linked_c1 = [a.timestamp for a, _ in table.actions_for("u1", "c1")]
    assert window_hours in linked_c1
    assert window_hours + 1 not in linked_c1
    assert [a.timestamp for a, _ in table.actions_for("u1", "c2")] == linked_c1


def test_enlarging_window_never_removes_links(tmp_path):
    events = [
        consult("u1", 0, "c1", "folding phone chat", ""),
        buy("u1", 24, "i2"),
        buy("u1", 10 * 24, "i2"),
        search("u1", 5 * 24, "folding phone", "i2"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    small = build_linkage(corpus, LinkageParams(window_days=3))
    large = build_linkage(corpus, LinkageParams(window_days=14))
    small_links = {(a.timestamp, a.action_type) for a, _ in small.actions_for("u1", "c1")}
    large_links = {(a.timestamp, a.action_type) for a, _ in large.actions_for("u1", "c1")}
    assert small_links <= large_links
    assert len(large_links) == 3


def test_action_lists_are_time_sorted(tmp_path):
    events = [
        consult("u1", 0, "c1", "folding phone chat", ""),
        buy("u1", 72, "i2"),
        click("u1", 24, "i2"),
        search("u1", 48, "folding phone", "i2"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    times = [a.timestamp for a, _ in build_linkage(corpus).actions_for("u1", "c1")]
    assert times == [24, 48, 72]


def test_table_matches_brute_force_double_loop(tmp_path):
    events = [
        consult("u1", 0, "c1", "deciding between the Laptop OG G14 16GB and a phone", ""),
        consult("u1", 30, "c2", "carbon tripod for travel photos", ""),
        consult("u1", 60, "c3", "the weather and the election", ""),
        click("u1", 40, "i1"),
        buy("u1", 90, "i3"),
        search("u1", 100, "carbon travel tripod", "i3"),
        consult("u2", 10, "c1", "folding phone screens", ""),
        click("u2", 20, "i2"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    table = build_linkage(corpus, LinkageParams(window_days=14))
    assert _link_times(table, corpus) == linked_action_times(corpus, 14)


def _link_times(table, corpus):
    """The table in the oracle's shape: (user, cid) -> {action name: sorted
    timestamps of the linked actions}."""
    out = {}
    for user, history in corpus.users.items():
        for c in history.consultations:
            per = {name: [] for name in ACTION_NAMES}
            for a, _rule in table.actions_for(user, c.id):
                per[a.action_type.value].append(a.timestamp)
            out[(user, c.id)] = {name: sorted(ts) for name, ts in per.items()}
    return out


#: Words of the micro-corpora: every catalog title word, stopwords and
#: one-letter tokens that normalize away, and words no item carries.
WORDS = ["laptop", "og", "g14", "16gb", "folding", "phone", "carbon", "travel",
         "tripod", "the", "and", "x", "weather", "soup"]


@st.composite
def micro_corpus(draw):
    """A window length and a corpus whose action gaps to a consultation
    sit on and next to the window edges (-1, 0, 1, w-1, w, w+1 hours) or
    anywhere within two windows."""
    window_days = draw(st.integers(1, 3), label="window_days")
    w = window_days * 24
    text = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)
    gap = st.sampled_from([-1, 0, 1, w - 1, w, w + 1]) | st.integers(-2 * w, 2 * w)
    events = []
    for user in draw(st.lists(st.sampled_from(["u1", "u2"]), min_size=1, max_size=2,
                              unique=True), label="users"):
        c_times = draw(st.lists(st.integers(2 * w, 5 * w), min_size=1, max_size=5),
                       label="consultation times")
        for k, ts in enumerate(c_times):
            events.append(consult(user, ts, f"c{k}", draw(text, label="consultation")))
        for _ in range(draw(st.integers(0, 8), label="actions")):
            ts = draw(st.sampled_from(c_times), label="anchor") + draw(gap, label="gap")
            kind = draw(st.sampled_from(["click", "buy", "search"]), label="kind")
            iid = draw(st.sampled_from(["i1", "i2", "i3"]), label="item")
            if kind == "search":
                events.append(search(user, ts, draw(text, label="query"), iid))
            else:
                events.append((click if kind == "click" else buy)(user, ts, iid))
    return window_days, build_corpus(CATALOG, events)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=micro_corpus())
def test_table_matches_oracle_on_window_edges(case):
    window_days, corpus = case
    table = build_linkage(corpus, LinkageParams(window_days=window_days))
    assert _link_times(table, corpus) == linked_action_times(corpus, window_days)


def test_dump_is_sorted_and_complete(tmp_path):
    events = [
        consult("u2", 0, "c1", "folding phone chat", ""),
        consult("u1", 0, "c2", "nothing relevant here", ""),
        buy("u2", 5, "i2"),
    ]
    corpus = corpus_from(tmp_path, CATALOG, events)
    table = build_linkage(corpus)
    out = tmp_path / "linkage.jsonl"
    dump_linkage(table, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert '"user": "u1"' in lines[0] and '"user": "u2"' in lines[1]
    assert '"rule": "full-text"' in lines[1]


_linked_actions = st.lists(st.tuples(st.sampled_from(ActionType),
                                     st.integers(min_value=0, max_value=2**63 - 1),
                                     ANY_TEXT, st.sampled_from(RULES)), max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(user=ANY_TEXT, cid=ANY_TEXT, actions=_linked_actions)
@example(user="u1", cid="c1", actions=[])
@example(user='u"\\\x00', cid="\U0001f600\ud800", actions=[
    (ActionType.SEARCH, 7, 'caf\u00e9 "x"\\\n\x1f', RULES[2]),
    (ActionType.BUY, 2**63 - 1, "\udfff", RULES[0])])
def test_link_line_is_the_json_dumps_line(user, cid, actions):
    pairs = [(Interaction(atype, ts, target_query=Query(text, ts))
              if atype is ActionType.SEARCH else Interaction(atype, ts, target_item=text), rule)
             for atype, ts, text, rule in actions]
    row = {"user": user, "cid": cid, "actions": [
        {"type": atype.value, "ts_hours": ts, "target": text, "rule": rule}
        for atype, ts, text, rule in actions]}
    assert link_line(user, cid, pairs) == json.dumps(row, sort_keys=True) + "\n"
