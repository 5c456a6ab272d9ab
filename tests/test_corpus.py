"""Ingestion, validation, slicing, and round-trip behavior of the data model."""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from consultrank import corpus as corpus_module
from consultrank.corpus import (
    ActionType,
    Consultation,
    CorpusError,
    Interaction,
    Item,
    Query,
    RecordError,
    SearchSession,
    build_corpus,
    dump_corpus,
    load_corpus,
    read_jsonl,
    slice_before,
    user_events,
)
from consultrank.value import ValueReport
from helpers import buy, click, consult, corpus_from, item, search, write_jsonl
from oracles import reference_build_corpus, reference_read_jsonl

ITEMS = [
    item("i1", "gaming laptop", ["16gb", "silver"]),
    item("i2", "folding phone"),
    item("i3", "travel tripod"),
]


def test_items_without_events_yield_no_users(tmp_path):
    corpus = corpus_from(tmp_path, ITEMS, [])
    assert len(corpus.items) == 3
    assert corpus.users == {}


def test_search_counts_as_interaction(tmp_path):
    events = [
        search("u1", 10, "gaming laptop", "i1"),
        consult("u1", 5, "c1", "which laptop is best", "the gaming laptop"),
        click("u1", 11, "i1"),
        click("u1", 12, "i2"),
    ]
    corpus = corpus_from(tmp_path, ITEMS, events)
    h = corpus.users["u1"]
    assert len(h.searches) == 1
    assert len(h.consultations) == 1
    assert len(h.interactions) == 3
    assert sum(1 for a in h.interactions if a.action_type is ActionType.SEARCH) == 1


def test_buy_without_item_rejected(tmp_path):
    bad = {"user": "u1", "type": "buy", "ts_hours": 4}
    with pytest.raises(CorpusError, match="events.jsonl:1"):
        corpus_from(tmp_path, ITEMS, [bad])


def test_dangling_item_reference_rejected(tmp_path):
    with pytest.raises(CorpusError, match="missing"):
        corpus_from(tmp_path, ITEMS, [click("u1", 4, "missing")])
    with pytest.raises(CorpusError, match="ghost"):
        corpus_from(tmp_path, ITEMS, [search("u1", 4, "anything", "ghost")])


def test_duplicate_consultation_id_rejected(tmp_path):
    events = [consult("u1", 1, "c1", "hello"), consult("u1", 2, "c1", "again")]
    with pytest.raises(CorpusError, match="duplicate consultation id"):
        corpus_from(tmp_path, ITEMS, events)


def test_duplicate_item_id_rejected(tmp_path):
    with pytest.raises(CorpusError, match="duplicate item id"):
        corpus_from(tmp_path, ITEMS + [item("i1", "imposter")], [])


def test_invalid_json_reports_line_number(tmp_path):
    items_path = tmp_path / "items.jsonl"
    events_path = tmp_path / "events.jsonl"
    write_jsonl(items_path, ITEMS)
    events_path.write_text('{"user": "u1", "type": "click"\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="events.jsonl:1"):
        load_corpus(items_path, events_path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_bad_line_is_named_by_its_number(tmp_path, newline):
    """A line that is not UTF-8, or not JSON, is named by its 1-based number
    in `\n` and `\r\n` files alike; blank lines count."""
    items_path = tmp_path / "items.jsonl"
    write_jsonl(items_path, ITEMS)
    events_path = tmp_path / "events.jsonl"
    rows = [json.dumps(search("u1", 5, "laptop", "i1")).encode(), b"", b"  "]
    for bad, says in ((b'{"user": "caf\xe9"}', "not UTF-8"), (b'{"user"', "invalid JSON")):
        events_path.write_bytes(newline.join(rows + [bad, b""]))
        with pytest.raises(CorpusError, match=f"events.jsonl:4: malformed event row: {says}"):
            load_corpus(items_path, events_path)


GOOD_ROW = b'{"user": "u1"}'


@pytest.mark.parametrize("lines, says", [
    ([GOOD_ROW, b'{"user"'], "2: malformed event row: invalid JSON (Expecting ':' delimiter)"),
    ([GOOD_ROW, b'{"user": "u1"} {"user": "u2"}'],
     "2: malformed event row: invalid JSON (Extra data)"),
    ([b"\xef\xbb\xbf" + GOOD_ROW],
     "1: malformed event row: invalid JSON "
     "(Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ([GOOD_ROW, b'["u1"]'], "2: malformed event row: expected a JSON object"),
    ([b'{"user": "u\x01"}'], "1: malformed event row: invalid JSON (Invalid control character at)"),
    ([GOOD_ROW, b'{"user"', b'{"user": "caf\xe9"}'],
     "2: malformed event row: invalid JSON (Expecting ':' delimiter)"),
    ([GOOD_ROW, b"", b'{"user": "caf\xe9"}', b'{"user"'],
     "3: malformed event row: not UTF-8 ('utf-8' codec can't decode byte 0xe9 "
     "in position 13: invalid continuation byte)"),
    ([GOOD_ROW, b"[" * 100000], "2: malformed event row: nested too deeply"),
    ([GOOD_ROW, b'{"n": ' + b"9" * 5000 + b"}"],
     "2: malformed event row: an integer longer than 4300 digits"),
], ids=["invalid-json", "trailing-data", "utf8-bom", "not-an-object", "control-character",
        "invalid-json-before-non-utf8", "non-utf8-before-invalid-json", "nested-too-deeply",
        "integer-past-the-digit-limit"])
def test_read_jsonl_refusals_are_pinned(tmp_path, lines, says):
    """Each refusal names the file, the first bad line and what is wrong
    with it, in the words of a line-by-line `json.loads`."""
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CorpusError) as info:
        read_jsonl(path, "event")
    assert str(info.value) == f"{path}:{says}"


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_read_jsonl_numbers_lines_of_any_ending(tmp_path, newline):
    """Blank lines count, a \r before the \n is stripped, and a last line
    without a newline is read."""
    path = tmp_path / "events.jsonl"
    path.write_bytes(newline.join([b'{"n": 1}', b"", b" \t", b'{"n": 4}', b'{"n": 5}']))
    assert read_jsonl(path, "event") == [(1, {"n": 1}), (4, {"n": 4}), (5, {"n": 5})]


_row_values = st.recursive(
    st.text(st.characters(blacklist_categories=()), max_size=8)
    | st.sampled_from(["\\", '"', "\\u00e9", "caf\u00e9 \U0001f600", "\u2028\x00\x1f"])
    | st.floats() | st.integers(min_value=-2**200, max_value=2**200) | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8)
_row_lines = st.lists(st.one_of(
    st.tuples(st.dictionaries(st.text(max_size=4), _row_values, max_size=4),
              st.booleans(), st.sampled_from(["", " ", "  \t"])).map(
        lambda row: json.dumps(row[0], ensure_ascii=row[1]) + row[2]),
    st.sampled_from(["", "   ", '{"user"', "[1]", '{"a": 1} {"b": 2}', '{"a": 1}, {"b": 2}',
                     '{"a": [1', '2]}', '2]}, {"b": 2}', "null", "\ufeff{}", "\u00a0{}"])),
    max_size=8)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_row_lines, newline=st.sampled_from(["\n", "\r\n"]), last_newline=st.booleans())
@example(lines=['{"n": NaN, "i": Infinity, "j": -Infinity, "big": 123456789012345678901234567890}',
                "", '{"t": "caf\u00e9 \\" \\\\ \\n", "l": [[[]], [1.5e300]]}  '],
         newline="\r\n", last_newline=False)
def test_read_jsonl_matches_a_line_by_line_reader(tmp_path, lines, newline, last_newline):
    """The scanner loop reads what a `json.loads` of each line reads, and
    refuses what it refuses in the same words."""
    path = tmp_path / "rows.jsonl"
    text = newline.join(lines) + (newline if last_newline else "")
    path.write_bytes(text.encode("utf-8", "surrogatepass"))  # a lone surrogate: not UTF-8
    try:
        want = reference_read_jsonl(path, "event")
    except CorpusError as exc:
        with pytest.raises(CorpusError) as info:
            read_jsonl(path, "event")
        assert str(info.value) == str(exc)
    else:
        assert repr(read_jsonl(path, "event")) == repr(want)  # repr: NaN equals NaN


def test_unknown_event_type_rejected(tmp_path):
    with pytest.raises(CorpusError, match="unknown event type"):
        corpus_from(tmp_path, ITEMS, [{"user": "u1", "type": "hover", "ts_hours": 1}])


#: (file, field, value): a text field holding a value of the wrong type.
BAD_TEXT_FIELDS = [("items.jsonl", "attributes", v) for v in (5, [1, 2], "abc", {"a": 1})] + [
    ("events.jsonl", turn, v) for turn in ("user_turn", "assistant_turn") for v in (5, ["x"])
]


@pytest.mark.parametrize("where, field, value", BAD_TEXT_FIELDS,
                         ids=[f"{f}={json.dumps(v)}" for _, f, v in BAD_TEXT_FIELDS])
def test_wrongly_typed_text_fields_rejected(tmp_path, where, field, value):
    items, events = list(ITEMS), [consult("u1", 1, "c1", "hello", "hi")]
    rows = items if where == "items.jsonl" else events
    rows[0] = {**rows[0], field: value}
    with pytest.raises(CorpusError, match=f"{where}:1: field '{field}'"):
        corpus_from(tmp_path, items, events)


def test_absent_or_null_text_fields_read_as_empty(tmp_path):
    items = [{"id": "i1", "title": "gaming laptop"},
             {"id": "i2", "title": "folding phone", "attributes": None}]
    events = [{"user": "u1", "type": "consult", "ts_hours": 1, "cid": "c1",
               "user_turn": "hello", "assistant_turn": None},
              {"user": "u1", "type": "consult", "ts_hours": 2, "cid": "c2",
               "assistant_turn": "hi"}]
    corpus = corpus_from(tmp_path, items, events)
    assert [corpus.items[i].attributes for i in ("i1", "i2")] == [(), ()]
    assert [c.text for c in corpus.users["u1"].consultations] == ["hello", "hi"]


def test_out_of_order_events_are_time_sorted(tmp_path):
    events = [
        click("u1", 30, "i1"),
        consult("u1", 20, "c2", "later words"),
        consult("u1", 10, "c1", "earlier words"),
        click("u1", 5, "i2"),
    ]
    h = corpus_from(tmp_path, ITEMS, events).users["u1"]
    assert [c.id for c in h.consultations] == ["c1", "c2"]
    assert [a.timestamp for a in h.interactions] == [5, 30]


def test_tied_events_keep_canonical_json_order(tmp_path):
    # Events tied on (time, kind) are ordered by their sort_keys JSON text,
    # which differs from the order of the raw values: "a b" sorts before
    # "a", and the escaped "\u00e9" before both.
    ids = ["z", 'q"x', "a", "a b", "é"]
    items = [item(v, f"thing {n}") for n, v in enumerate(ids)]
    events = [click("u1", 5, v) for v in ids] + [
        search("u1", 9, "a", "a"),
        search("u1", 9, "z", "é"),
        search("u1", 9, "a b", "a"),
        search("u1", 9, "b", "z"),
        buy("u1", 9, "a b"),
        click("u1", 9, "a"),
    ]
    history = corpus_from(tmp_path, items, events).users["u1"]
    got = [(ev["type"], ev.get("item") or (ev["query"], ev["ground_truth_item"]))
           for ev in user_events(history)]
    assert got == [
        ("click", "é"), ("click", "a b"), ("click", "a"), ("click", 'q"x'), ("click", "z"),
        ("search", ("z", "é")), ("search", ("a b", "a")), ("search", ("a", "a")),
        ("search", ("b", "z")), ("buy", "a b"), ("click", "a"),
    ]


def test_fractional_hours_are_floored(tmp_path):
    events = [click("u1", 7.9, "i1")]
    h = corpus_from(tmp_path, ITEMS, events).users["u1"]
    assert h.interactions[0].timestamp == 7


def test_negative_timestamp_rejected(tmp_path):
    with pytest.raises(CorpusError, match="non-negative"):
        corpus_from(tmp_path, ITEMS, [click("u1", -3, "i1")])


def test_slice_before_boundaries(tmp_path):
    events = [
        consult("u1", 10, "c1", "one"),
        consult("u1", 20, "c2", "two"),
        click("u1", 15, "i1"),
        click("u1", 25, "i2"),
    ]
    h = corpus_from(tmp_path, ITEMS, events).users["u1"]

    before, after = slice_before(h, 5)
    assert before == [] and len(after) == 2

    before, after = slice_before(h, 99)
    assert len(before) == 2 and after == []

    before, after = slice_before(h, 20)
    assert [c.id for c in before] == ["c1"]
    assert [a.timestamp for a in after] == [25]


def test_round_trip_is_identity(tmp_path):
    events = [
        search("u2", 40, "folding phone", "i2"),
        consult("u1", 5, "c1", "which laptop", "a gaming one"),
        buy("u1", 50, "i1"),
        click("u2", 41, "i2"),
        consult("u2", 39, "c9", "phones?", ""),
        search("u1", 45, "gaming laptop 16gb", "i1"),
    ]
    first = corpus_from(tmp_path, ITEMS, events)
    dump_corpus(first, tmp_path / "items2.jsonl", tmp_path / "events2.jsonl")
    second = load_corpus(tmp_path / "items2.jsonl", tmp_path / "events2.jsonl")
    assert first == second


#: Item rows after two good ones, each with the refusal that names it, as
#: worded before records became NamedTuples.
ITEM_REFUSALS = {
    "no-id": ('{"title": "tripod"}', "missing or empty field 'id'"),
    "empty-id": ('{"id": "", "title": "tripod"}', "missing or empty field 'id'"),
    "number-id": ('{"id": 7, "title": "tripod"}', "missing or empty field 'id'"),
    "no-title": ('{"id": "i3"}', "missing or empty field 'title'"),
    "empty-title": ('{"id": "i3", "title": ""}', "missing or empty field 'title'"),
    "string-attributes": ('{"id": "i3", "title": "tripod", "attributes": "black"}',
                          "field 'attributes' must be a list of strings or null, got 'black'"),
    "number-attribute": ('{"id": "i3", "title": "tripod", "attributes": ["black", 2]}',
                         "field 'attributes' must be a list of strings or null, "
                         "got ['black', 2]"),
    "repeated-id": ('{"id": "i1", "title": "tripod"}', "duplicate item id 'i1'"),
}

_CLICK = '{"user": "u1", "type": "click", "ts_hours": %s, "item": "i1"}'
_CONSULT = '{"user": "u1", "type": "consult", "ts_hours": 3, "cid": "c1", %s}'

#: Event rows after a consultation "c0" of u1, each with its refusal: all
#: but the non-finite and beyond-int64 hours as worded before records
#: became NamedTuples.
EVENT_REFUSALS = {
    "no-user": ('{"type": "click", "ts_hours": 3, "item": "i1"}',
                "missing or empty field 'user'"),
    "empty-user": ('{"user": "", "type": "click", "ts_hours": 3, "item": "i1"}',
                   "missing or empty field 'user'"),
    "list-user": ('{"user": ["u1"], "type": "click", "ts_hours": 3, "item": "i1"}',
                  "missing or empty field 'user'"),
    "no-type": ('{"user": "u1", "ts_hours": 3, "item": "i1"}', "missing or empty field 'type'"),
    "list-type": ('{"user": "u1", "type": ["click"], "ts_hours": 3, "item": "i1"}',
                  "missing or empty field 'type'"),
    "unknown-type": ('{"user": "u1", "type": "view", "ts_hours": 3, "item": "i1"}',
                     "unknown event type 'view'"),
    "no-hours": ('{"user": "u1", "type": "click", "item": "i1"}',
                 "ts_hours must be a number, got None"),
    "string-hours": (_CLICK % '"3"', "ts_hours must be a number, got '3'"),
    "bool-hours": (_CLICK % "true", "ts_hours must be a number, got True"),
    "negative-hours": (_CLICK % "-1", "ts_hours must be non-negative, got -1"),
    "negative-fractional-hours": (_CLICK % "-0.5", "ts_hours must be non-negative, got -0.5"),
    "infinite-hours": (_CLICK % "Infinity", "ts_hours must be finite, got inf"),
    "overflowing-hours": (_CLICK % "1e400", "ts_hours must be finite, got inf"),
    "negative-infinite-hours": (_CLICK % "-Infinity", "ts_hours must be finite, got -inf"),
    "nan-hours": (_CLICK % "NaN", "ts_hours must be finite, got nan"),
    "finite-hours-beyond-int64": (_CLICK % "1e300",
                                  "ts_hours must be at most 9223372036854775807, got 1e+300"),
    "int-hours-beyond-int64": (_CLICK % "9223372036854775808", "ts_hours must be at most "
                               "9223372036854775807, got 9223372036854775808"),
    "click-no-item": ('{"user": "u1", "type": "click", "ts_hours": 3}',
                      "missing or empty field 'item'"),
    "buy-number-item": ('{"user": "u1", "type": "buy", "ts_hours": 3, "item": 1}',
                        "missing or empty field 'item'"),
    "buy-dangling-item": ('{"user": "u1", "type": "buy", "ts_hours": 3, "item": "i9"}',
                          "item 'i9' not in items"),
    "search-no-query": ('{"user": "u1", "type": "search", "ts_hours": 3, '
                        '"ground_truth_item": "i1"}', "missing or empty field 'query'"),
    "search-empty-query": ('{"user": "u1", "type": "search", "ts_hours": 3, "query": "", '
                           '"ground_truth_item": "i1"}', "missing or empty field 'query'"),
    "search-no-ground-truth": ('{"user": "u1", "type": "search", "ts_hours": 3, '
                               '"query": "laptop"}',
                               "missing or empty field 'ground_truth_item'"),
    "search-dangling-ground-truth": ('{"user": "u1", "type": "search", "ts_hours": 3, '
                                     '"query": "laptop", "ground_truth_item": "i9"}',
                                     "ground_truth_item 'i9' not in items"),
    "consult-no-cid": ('{"user": "u1", "type": "consult", "ts_hours": 3, "user_turn": "hi"}',
                       "missing or empty field 'cid'"),
    "consult-number-cid": ('{"user": "u1", "type": "consult", "ts_hours": 3, "cid": 5, '
                           '"user_turn": "hi"}', "missing or empty field 'cid'"),
    "consult-repeated-cid": ('{"user": "u1", "type": "consult", "ts_hours": 3, "cid": "c0", '
                             '"user_turn": "hi"}',
                             "duplicate consultation id 'c0' for user 'u1'"),
    "consult-zero-user-turn": (_CONSULT % '"user_turn": 0, "assistant_turn": "hi"',
                               "field 'user_turn' must be a string or null, got 0"),
    "consult-false-user-turn": (_CONSULT % '"user_turn": false, "assistant_turn": "hi"',
                                "field 'user_turn' must be a string or null, got False"),
    "consult-list-user-turn": (_CONSULT % '"user_turn": [], "assistant_turn": "hi"',
                               "field 'user_turn' must be a string or null, got []"),
    "consult-number-assistant-turn": (_CONSULT % '"user_turn": "hi", "assistant_turn": 1',
                                      "field 'assistant_turn' must be a string or null, got 1"),
    "consult-two-empty-turns": (_CONSULT % '"user_turn": "", "assistant_turn": ""',
                                "consultation 'c1' has two empty turns"),
    "consult-two-null-turns": (_CONSULT % '"user_turn": null, "assistant_turn": null',
                               "consultation 'c1' has two empty turns"),
    "consult-no-turns": (_CONSULT % '"user_turn": ""', "consultation 'c1' has two empty turns"),
}

_GOOD_ITEMS = ['{"id": "i1", "title": "gaming laptop", "attributes": ["16gb"]}',
               '{"id": "i2", "title": "folding phone"}']
_GOOD_EVENTS = ['{"user": "u1", "type": "consult", "ts_hours": 2, "cid": "c0", "user_turn": "hi"}']


def _refusal(tmp_path, items, events) -> str:
    items_path, events_path = tmp_path / "items.jsonl", tmp_path / "events.jsonl"
    items_path.write_text("\n".join(items) + "\n", encoding="utf-8")
    events_path.write_text("\n".join(events) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as info:
        load_corpus(items_path, events_path)
    return str(info.value).replace(f"{tmp_path}/", "")


@pytest.mark.parametrize("row, says", ITEM_REFUSALS.values(), ids=ITEM_REFUSALS)
def test_item_row_refusals_are_pinned(tmp_path, row, says):
    assert _refusal(tmp_path, _GOOD_ITEMS + [row], []) == f"items.jsonl:3: {says}"


@pytest.mark.parametrize("row, says", EVENT_REFUSALS.values(), ids=EVENT_REFUSALS)
def test_event_row_refusals_are_pinned(tmp_path, row, says):
    assert _refusal(tmp_path, _GOOD_ITEMS, _GOOD_EVENTS + [row]) == f"events.jsonl:2: {says}"


def test_rows_off_the_exact_types_build_the_same_corpus():
    """Rows whose strings are `str` subclasses, whose hours are floats, or
    whose optional fields are absent or null build the records that rows of
    the exact types build."""
    class Text(str):
        pass

    exact = build_corpus(
        [{"id": "i1", "title": "gaming laptop", "attributes": []}],
        [search("u1", 7, "laptop", "i1"), click("u1", 8, "i1"),
         consult("u1", 6, "c1", "which laptop", "")])
    loose = build_corpus(
        [{"id": Text("i1"), "title": "gaming laptop"}],
        [search("u1", 7.5, Text("laptop"), "i1"), click(Text("u1"), 8.0, "i1"),
         {**consult("u1", 6.9, "c1", "which laptop"), "assistant_turn": None}])
    assert loose == exact


class _Text(str):
    """A `str` subclass, as rows built in Python may hold."""


def _texts(min_size):
    text = st.text(max_size=5, min_size=min_size)
    return text | text.map(_Text)


#: An absent key: the field is left out of the row.
_ABSENT = object()


def _row(**fields):
    return {key: value for key, value in fields.items() if value is not _ABSENT}


_turns = st.sampled_from([_ABSENT, None]) | _texts(0)
#: Queries that often repeat, so that searches tie on (hour, query).
_queries = st.sampled_from(["laptop", _Text("laptop"), "phone"]) | _texts(1)
_hours = (st.integers(0, 6) | st.floats(0, 7, allow_nan=False)
          | st.sampled_from([2**63 - 1, 0.0, 5e-324]))


@st.composite
def _valid_rows(draw):
    """Item and event rows `build_corpus` accepts: ids, users and queries
    that may be `str` subclasses, attributes and turns that may be null or
    absent, and hours that may be floats."""
    ids = [draw(st.sampled_from([f"i{k}", _Text(f"i{k}")]))
           for k in range(draw(st.integers(1, 4)))]
    items = [_row(id=iid, title=draw(_texts(1)),
                  attributes=draw(st.sampled_from([_ABSENT, None]) | st.lists(_texts(0),
                                                                              max_size=3)))
             for iid in ids]
    users = st.sampled_from(["u1", "u2", _Text("u1")])
    events = []
    for k in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["search", "click", "buy", "consult"]))
        user, ts = draw(users), draw(_hours)
        if kind == "search":
            events.append(_row(user=user, type=kind, ts_hours=ts, query=draw(_queries),
                               ground_truth_item=draw(st.sampled_from(ids))))
        elif kind == "consult":
            turn, answer = draw(_turns), draw(_turns)
            if turn in (_ABSENT, None, "") and answer in (_ABSENT, None, ""):
                turn = "which one"
            events.append(_row(user=user, type=kind, ts_hours=ts, cid=f"c{k}",
                               user_turn=turn, assistant_turn=answer))
        else:
            events.append(_row(user=user, type=kind, ts_hours=ts,
                               item=draw(st.sampled_from(ids))))
    return items, events


def _outcome(build, items, events):
    """What a builder makes of the rows: the refusal's kind, position and
    reason, or the built items and users in their stored order."""
    try:
        corpus = build(items, events)
    except RecordError as exc:
        return "refused", exc.kind, exc.pos, exc.reason
    return "built", list(corpus.items.items()), list(corpus.users.items())


@settings(max_examples=200, deadline=None)
@given(rows=_valid_rows())
def test_build_corpus_matches_a_plain_builder(rows):
    """On valid rows `build_corpus` builds what one `isinstance` per field
    and one constructor call per record build, in the same stored order."""
    got = _outcome(build_corpus, *rows)
    assert got[0] == "built"
    assert got == _outcome(reference_build_corpus, *rows)


#: Values a bad field may take; some are valid for some fields, and then
#: both builders must build the same corpus.
_FIELD_VALUES = st.sampled_from([
    _ABSENT, None, "", 0, -1, 2.5, -0.5, True, [], ["black", 2], ["black"], {}, "3", "view",
    "i0", "i9", "c0", "consult", "search", math.nan, math.inf, -math.inf, 1e300, 2**63])


@settings(max_examples=300, deadline=None)
@given(rows=_valid_rows(), data=st.data())
def test_build_corpus_refuses_a_bad_field_as_a_plain_builder_does(rows, data):
    """With one field of one row set to a drawn value, `build_corpus` refuses
    the row a plain builder refuses, with the same kind, position and
    reason, or both build the same corpus."""
    items, events = rows
    kind = data.draw(st.sampled_from(["item", "event"] if events else ["item"]))
    records = items if kind == "item" else events
    pos = data.draw(st.integers(0, len(records) - 1))
    key = data.draw(st.sampled_from(
        ["id", "title", "attributes"] if kind == "item" else
        ["user", "type", "ts_hours", "query", "ground_truth_item", "item", "cid",
         "user_turn", "assistant_turn"]))
    records[pos] = _row(**{**records[pos], key: data.draw(_FIELD_VALUES)})
    assert _outcome(build_corpus, items, events) == _outcome(reference_build_corpus, items, events)


@pytest.mark.parametrize("items, events, kind, pos, reason", [
    (ITEMS + [item("i1", "tripod")], [], "item", 3, "duplicate item id 'i1'"),
    (ITEMS, [click("u1", 3, "i1"), click("u1", 4, "i9")], "event", 1, "item 'i9' not in items"),
    (ITEMS, [click("u1", True, "i1")], "event", 0, "ts_hours must be a number, got True"),
], ids=["item", "event", "event-hours"])
def test_build_corpus_refusal_names_its_record(items, events, kind, pos, reason):
    """A refused row's error names its kind and 0-based position among the
    rows of that kind, and carries them with the reason."""
    with pytest.raises(RecordError) as info:
        build_corpus(items, events)
    assert str(info.value) == f"{kind} record #{pos}: {reason}"
    assert (info.value.kind, info.value.pos, info.value.reason) == (kind, pos, reason)


RECORDS = [
    Item("i1", "gaming laptop", ("16gb",)),
    Query("laptop", 3),
    Interaction(ActionType.CLICK, 3, target_item="i1"),
    SearchSession(Query("laptop", 3),
                  Interaction(ActionType.SEARCH, 3, target_query=Query("laptop", 3)), "i1"),
    Consultation("c1", "which laptop", "", 2),
    ValueReport("u1", 3, "c1", 0.5, 0.25, 0.0, 0.3, 1),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_hashable_and_immutable(record):
    assert hash(record) == hash(type(record)(*record))
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.note = "x"


_json_scalars = (st.none() | st.booleans()
                 | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
                 | st.floats() | st.sampled_from([1e-7, 1e16, -0.0, 5e-324, 1.7976931348623157e308])
                 | st.text(st.characters(blacklist_categories=())))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(blacklist_categories=()), max_size=6), inner,
                      max_size=4),
    max_leaves=12)
_records = st.lists(st.dictionaries(st.text(max_size=8), _json_values, max_size=5), max_size=5)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_records)
@example(records=[{"t": "caf\u00e9 \U0001f600 \x00\x1f\u2028", "f": [1e-7, 1e16, -0.0],
                   "n": 2**100, "b": [True, False, None], "d": {"z": {}, "a": [[]]},
                   "x": [math.inf, -math.inf, math.nan]}])
def test_write_jsonl_writes_the_bytes_of_json_dumps(tmp_path, records):
    path = tmp_path / "rows.jsonl"
    corpus_module.write_jsonl(path, records)
    expected = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    assert path.read_bytes() == expected.encode("utf-8")
