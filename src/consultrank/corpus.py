"""Timestamped user-history data model and JSONL ingestion.

A corpus is a set of items plus, per user, three time-ordered event lists:
search sessions, consultations (user/assistant dialogue turns), and raw
interactions.  Search sessions are themselves interactions, so the
interaction list always contains the search events as well.

Timestamps are integer hours since an arbitrary epoch; sub-hour inputs are
floored on ingestion.  All structures are immutable after loading and safe
for concurrent readers.  The per-row records are NamedTuples: `build_corpus`
checks each one as it builds it from a row, and building one directly checks
nothing.
"""

from __future__ import annotations

import json
import json.encoder
import json.scanner
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional


class CorpusError(ValueError):
    """Raised for schema violations, dangling references or parse errors."""


class ActionType(str, Enum):
    SEARCH = "search"
    CLICK = "click"
    BUY = "buy"


class Item(NamedTuple):
    id: str
    title: str
    attributes: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        """The title and attributes joined by spaces: the item text that the
        index, the linkage rules, the model vocabulary and BM25 all read."""
        return " ".join([self.title, *self.attributes])


class Query(NamedTuple):
    text: str
    timestamp: int


class Interaction(NamedTuple):
    """One consumer action: a search, a click, or a purchase.

    Exactly one of ``target_item`` / ``target_query`` is set, determined by
    the action type (click/buy carry an item id, search carries the query).
    """

    action_type: ActionType
    timestamp: int
    target_item: Optional[str] = None
    target_query: Optional[Query] = None

    @property
    def target(self) -> str:
        """The query text of a search, the item id of a click or buy."""
        return self.target_item if self.target_query is None else self.target_query.text


class SearchSession(NamedTuple):
    """A query together with its search action and the item that resolved it."""

    query: Query
    interaction: Interaction
    ground_truth_item: str

    @property
    def timestamp(self) -> int:
        return self.query.timestamp


class Consultation(NamedTuple):
    """One user/assistant exchange.  Multi-turn dialogues are ingested as
    several consultations sharing an id prefix."""

    id: str
    user_turn: str
    assistant_turn: str
    timestamp: int

    @property
    def text(self) -> str:
        """Both turns joined; this is the text all matching rules run on."""
        return f"{self.user_turn} {self.assistant_turn}".strip()


@dataclass(frozen=True)
class UserHistory:
    """One user's events; each list is sorted by timestamp."""

    user_id: str
    searches: tuple[SearchSession, ...] = ()
    consultations: tuple[Consultation, ...] = ()
    interactions: tuple[Interaction, ...] = ()


@dataclass(frozen=True)
class Corpus:
    items: dict[str, Item] = field(default_factory=dict)
    users: dict[str, UserHistory] = field(default_factory=dict)

    @cached_property
    def item_ids(self) -> tuple[str, ...]:
        """Every item id in sorted order: the one catalog order, computed
        once per corpus."""
        return tuple(sorted(self.items))


#: The latest hour an event may carry: the model packs hours into int64 arrays.
MAX_HOURS = 2**63 - 1


def floor_hours(raw) -> int:
    """Coerce a raw hour value to the integer-hour grid (sub-hour floored)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise CorpusError(f"ts_hours must be a number, got {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise CorpusError(f"ts_hours must be finite, got {raw!r}")
    hours = int(math.floor(raw))
    if hours < 0:
        raise CorpusError(f"ts_hours must be non-negative, got {raw!r}")
    if hours > MAX_HOURS:
        raise CorpusError(f"ts_hours must be at most {MAX_HOURS}, got {raw!r}")
    return hours


#: One call parses one JSON value at an index of a string: the C scanner
#: behind ``json.loads``, without its per-call Python wrapper.
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def read_jsonl(path, kind: str) -> list[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSONL file of
    `kind` rows.  A line that is not UTF-8, not valid JSON, or not a JSON
    object raises CorpusError naming ``path:line`` and the kind.  Lines end
    at ``\n``; a ``\r`` before it is stripped with the other whitespace.

    The file is read and decoded once, and each line is parsed with one
    scanner call.  A line the scanner refuses sends the whole file through
    `_checked_rows`, which words the error of the first bad line."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = []
    try:
        for lineno, line in enumerate(data.decode("utf-8").split("\n"), start=1):
            line = line.strip()
            if line:
                obj, end = _scan_json(line, 0)
                if end != len(line) or type(obj) is not dict:
                    break
                rows.append((lineno, obj))
        else:
            return rows
    except (UnicodeDecodeError, StopIteration, json.JSONDecodeError):
        pass
    return list(_checked_rows(data, path, kind))


def _checked_rows(data: bytes, path, kind: str) -> Iterable[tuple[int, dict]]:
    """`read_jsonl`'s rows, decoded and parsed one line at a time, which
    names the first line that fails."""
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{path}:{lineno}: malformed {kind} row: not UTF-8 ({exc})") from exc
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(
                f"{path}:{lineno}: malformed {kind} row: invalid JSON ({exc.msg})"
            ) from exc
        if not isinstance(obj, dict):
            raise CorpusError(
                f"{path}:{lineno}: malformed {kind} row: expected a JSON object")
        yield lineno, obj


def json_encoder(check_circular: bool = True):
    """The C encoder that ``json.dumps(obj, sort_keys=True)`` builds, with
    the settings it passes: ``"".join(encode(obj, 0))`` is that call's text.
    Its circular-reference marks are its own, so one encoder serves one
    file, not concurrent writers; without them it can be shared."""
    settings = json.JSONEncoder(sort_keys=True)
    return json.encoder.c_make_encoder(
        {} if check_circular else None, settings.default,
        json.encoder.encode_basestring_ascii, settings.indent, settings.key_separator,
        settings.item_separator, settings.sort_keys, settings.skipkeys, settings.allow_nan)


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line: the byte-stable format of
    every JSONL artifact.  One encoder serves the whole file."""
    encode = json_encoder()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("".join(encode(rec, 0)) + "\n" for rec in records)


#: The action type of a click or buy event row, by its ``type`` field.
_ITEM_ACTIONS = {"click": ActionType.CLICK, "buy": ActionType.BUY}


def build_corpus(item_records: Iterable[dict], event_records: Iterable[dict]) -> Corpus:
    """Assemble and validate a Corpus from already-parsed record dicts.

    Events are grouped per user and stably sorted by timestamp, so
    non-monotone input order is tolerated.  Dangling item references and
    duplicate consultation ids are rejected.  Raised errors carry the
    0-based record position as ``#<n>`` so file loaders can map them back
    to line numbers.

    Each row goes through one exact-type test of its fields.  A row that
    fails it is built field by field by `_checked_item` or `_checked_event`,
    which word the refusal of a bad row.
    """
    items: dict[str, Item] = {}
    for pos, obj in enumerate(item_records):
        iid, title, attrs = obj.get("id"), obj.get("title"), obj.get("attributes")
        if (type(iid) is str and type(title) is str and iid and title and iid not in items
                and (attrs is None or type(attrs) is list and all(type(a) is str for a in attrs))):
            items[iid] = Item(iid, title, tuple(attrs or ()))
        else:
            try:
                item = _checked_item(obj, items)
            except CorpusError as exc:
                raise CorpusError(f"item record #{pos}: {exc}") from exc
            items[item.id] = item

    searches: dict[str, list[SearchSession]] = {}
    consults: dict[str, dict[str, Consultation]] = {}
    inters: dict[str, list[Interaction]] = {}
    for pos, obj in enumerate(event_records):
        user, etype, ts = obj.get("user"), obj.get("type"), obj.get("ts_hours")
        rec = None
        if (type(user) is str and type(etype) is str and type(ts) is int and user
                and 0 <= ts <= MAX_HOURS):
            if etype == "consult":
                cid, turn, answer = obj.get("cid"), obj.get("user_turn"), obj.get("assistant_turn")
                if (type(cid) is str and cid and (turn is None or type(turn) is str)
                        and (answer is None or type(answer) is str) and (turn or answer)
                        and cid not in consults.get(user, ())):
                    rec = Consultation(cid, turn or "", answer or "", ts)
            elif etype == "search":
                text, gt = obj.get("query"), obj.get("ground_truth_item")
                if type(text) is str and text and type(gt) is str and gt in items:
                    query = Query(text, ts)
                    rec = SearchSession(query, Interaction(ActionType.SEARCH, ts, None, query), gt)
            else:
                atype, iid = _ITEM_ACTIONS.get(etype), obj.get("item")
                if atype is not None and type(iid) is str and iid in items:
                    rec = Interaction(atype, ts, iid)
        if rec is None:
            try:
                user, rec = _checked_event(obj, items, consults)
            except CorpusError as exc:
                raise CorpusError(f"event record #{pos}: {exc}") from exc
        kind = type(rec)
        if kind is Consultation:
            consults.setdefault(user, {})[rec.id] = rec
        elif kind is SearchSession:
            searches.setdefault(user, []).append(rec)
            inters.setdefault(user, []).append(rec.interaction)
        else:
            inters.setdefault(user, []).append(rec)

    # Full (not just stable) sort keys make the stored order canonical:
    # any permutation of the input records builds the identical Corpus.
    # An ActionType orders as its value, the string it subclasses.
    def _act_key(a: Interaction):
        return (a.timestamp, a.action_type, a.target)

    users: dict[str, UserHistory] = {}
    for user in sorted(set(searches) | set(consults) | set(inters)):
        users[user] = UserHistory(
            user_id=user,
            searches=tuple(
                sorted(
                    searches.get(user, []),
                    key=lambda s: (s.timestamp, s.query.text, s.ground_truth_item),
                )
            ),
            consultations=tuple(
                sorted(consults.get(user, {}).values(), key=lambda c: (c.timestamp, c.id))
            ),
            interactions=tuple(sorted(inters.get(user, []), key=_act_key)),
        )
    return Corpus(items=items, users=users)


def _checked_item(obj: dict, items: dict[str, Item]) -> Item:
    """The item of a row, built field by field; refused as `build_corpus`
    words it."""
    item = Item(_req_str(obj, "id"), _req_str(obj, "title"), _str_list(obj, "attributes"))
    if item.id in items:
        raise CorpusError(f"duplicate item id {item.id!r}")
    return item


def _checked_event(obj: dict, items: dict[str, Item],
                   consults: dict[str, dict[str, Consultation]]
                   ) -> tuple[str, SearchSession | Interaction | Consultation]:
    """``(user, record)`` of an event row, built field by field: a
    SearchSession, a click or buy Interaction, or a Consultation.  Refused
    as `build_corpus` words it."""
    user = _req_str(obj, "user")
    etype = _req_str(obj, "type")
    ts = floor_hours(obj.get("ts_hours"))
    if etype == "search":
        query = Query(_req_str(obj, "query"), ts)
        gt = _req_str(obj, "ground_truth_item")
        if gt not in items:
            raise CorpusError(f"ground_truth_item {gt!r} not in items")
        return user, SearchSession(query, Interaction(ActionType.SEARCH, ts, None, query), gt)
    if etype in _ITEM_ACTIONS:
        iid = _req_str(obj, "item")
        if iid not in items:
            raise CorpusError(f"item {iid!r} not in items")
        return user, Interaction(_ITEM_ACTIONS[etype], ts, iid)
    if etype == "consult":
        cid = _req_str(obj, "cid")
        if cid in consults.get(user, ()):
            raise CorpusError(f"duplicate consultation id {cid!r} for user {user!r}")
        turn, answer = _opt_str(obj, "user_turn"), _opt_str(obj, "assistant_turn")
        if not turn and not answer:
            raise CorpusError(f"consultation {cid!r} has two empty turns")
        return user, Consultation(cid, turn, answer, ts)
    raise CorpusError(f"unknown event type {etype!r}")


def load_corpus(items_path, events_path) -> Corpus:
    """Load ``items.jsonl`` + ``events.jsonl`` into a validated Corpus."""
    item_rows = read_jsonl(items_path, "item")
    event_rows = read_jsonl(events_path, "event")
    try:
        return build_corpus((obj for _ln, obj in item_rows), (obj for _ln, obj in event_rows))
    except CorpusError as exc:
        msg = str(exc)
        for prefix, rows, path in (
            ("item record #", item_rows, items_path),
            ("event record #", event_rows, events_path),
        ):
            if msg.startswith(prefix):
                pos_text, _, rest = msg[len(prefix):].partition(": ")
                lineno = rows[int(pos_text)][0]
                raise CorpusError(f"{path}:{lineno}: {rest}") from exc
        raise


def _req_str(obj: dict, key: str) -> str:
    val = obj.get(key)
    if not isinstance(val, str) or not val:
        raise CorpusError(f"missing or empty field {key!r}")
    return val


def _opt_str(obj: dict, key: str) -> str:
    """A string field that may be absent or null, which reads as empty."""
    val = obj.get(key)
    if val is None:
        return ""
    if not isinstance(val, str):
        raise CorpusError(f"field {key!r} must be a string or null, got {val!r}")
    return val


def _str_list(obj: dict, key: str) -> tuple[str, ...]:
    """A list-of-strings field that may be absent or null, which reads as
    empty."""
    val = obj.get(key)
    if val is None:
        return ()
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise CorpusError(f"field {key!r} must be a list of strings or null, got {val!r}")
    return tuple(val)


def consultations_before(history: UserHistory, t: int) -> tuple[Consultation, ...]:
    """The consultations strictly before ``t``, in their stored order; they
    are time-sorted, so the cut is found by bisection."""
    return history.consultations[:bisect_left(history.consultations, t,
                                              key=attrgetter("timestamp"))]


def slice_before(history: UserHistory, t: int) -> tuple[list[Consultation], list[Interaction]]:
    """Split a history around a search timestamp.

    Returns the consultations strictly before ``t`` and the interactions at
    or after ``t``; both preserve their stored order.  The strict "before"
    keeps a consultation from being valued by a search it coincides with.
    Both lists are time-sorted, so each cut is found by bisection.
    """
    cut_a = bisect_left(history.interactions, t, key=attrgetter("timestamp"))
    return list(consultations_before(history, t)), list(history.interactions[cut_a:])


def item_event(item: Item) -> dict:
    return {"id": item.id, "title": item.title, "attributes": list(item.attributes)}


#: The encoder of `user_events`' tie keys, shared by every call: an event
#: row is a flat dict, which needs no circular-reference marks.
_event_text = json_encoder(check_circular=False)


def user_events(history: UserHistory) -> list[dict]:
    """Flatten one user's history back into event dicts, time-sorted.

    Search interactions are emitted once (through their session); clicks and
    buys come from the interaction list.
    """
    events: list[tuple[int, int, dict]] = []
    for s in history.searches:
        events.append(
            (
                s.timestamp,
                0,
                {
                    "user": history.user_id,
                    "type": "search",
                    "ts_hours": s.timestamp,
                    "query": s.query.text,
                    "ground_truth_item": s.ground_truth_item,
                },
            )
        )
    for a in history.interactions:
        if a.action_type is ActionType.SEARCH:
            continue
        events.append(
            (
                a.timestamp,
                1,
                {
                    "user": history.user_id,
                    "type": a.action_type.value,
                    "ts_hours": a.timestamp,
                    "item": a.target_item,
                },
            )
        )
    for c in history.consultations:
        events.append(
            (
                c.timestamp,
                2,
                {
                    "user": history.user_id,
                    "type": "consult",
                    "ts_hours": c.timestamp,
                    "cid": c.id,
                    "user_turn": c.user_turn,
                    "assistant_turn": c.assistant_turn,
                },
            )
        )
    # Order by (time, kind), then by canonical JSON text.  Only events that
    # tie on (time, kind) need that text, so it is built for those alone.
    events.sort(key=lambda e: (e[0], e[1]))
    out: list[dict] = []
    for _, tied in groupby(events, key=lambda e: (e[0], e[1])):
        group = [e[2] for e in tied]
        if len(group) > 1:
            group.sort(key=lambda ev: "".join(_event_text(ev, 0)))
        out.extend(group)
    return out


def dump_corpus(corpus: Corpus, items_path, events_path) -> None:
    """Write a corpus back to canonical JSONL (stable across reruns)."""
    write_jsonl(items_path, (item_event(corpus.items[iid]) for iid in corpus.item_ids))
    write_jsonl(events_path, (ev for user in sorted(corpus.users)
                              for ev in user_events(corpus.users[user])))
