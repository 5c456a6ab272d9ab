"""Linking consultations to the consumer actions that follow them.

A consultation is "verified" by an action when the action's text footprint
(the search query, or the clicked/bought item's title and attributes) shows
up in the consultation within a bounded time window afterwards.  Three rules
decide the match, tried in order:

1. full-text: the action's entire normalized token sequence occurs
   contiguously in the consultation.
2. item-content-majority (clicks and buys): strictly more than half of the
   action's distinct tokens occur somewhere in the consultation.
3. query-term-majority (searches): the same majority test over query tokens.

The builder inverts action->consultation matches into a per-consultation
table, which downstream value scoring consumes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional, Set, Tuple

from .corpus import ActionType, Corpus, CorpusError, Interaction, read_jsonl, write_lines
from .index import normalize

RULE_FULL_TEXT = "full-text"
RULE_ITEM_MAJORITY = "item-content-majority"
RULE_QUERY_MAJORITY = "query-term-majority"
RULES = (RULE_FULL_TEXT, RULE_ITEM_MAJORITY, RULE_QUERY_MAJORITY)


@dataclass(frozen=True)
class LinkageParams:
    window_days: int = 14

    def __post_init__(self):
        if self.window_days <= 0:
            raise ValueError("window_days must be positive")

    @property
    def window_hours(self) -> int:
        return self.window_days * 24


@dataclass
class LinkageTable:
    """user -> consultation-id -> time-sorted [(interaction, rule)] links."""

    links: Dict[str, Dict[str, List[Tuple[Interaction, str]]]] = field(default_factory=dict)

    def actions_for(self, user: str, cid: str) -> List[Tuple[Interaction, str]]:
        return self.links.get(user, {}).get(cid, [])


def action_text(interaction: Interaction, corpus: Corpus) -> str:
    """The text footprint of a consumer action.

    Searches are represented by their query; clicks and buys by the target
    item's title concatenated with its attributes.
    """
    if interaction.action_type is ActionType.SEARCH:
        return interaction.target_query.text
    item = corpus.items.get(interaction.target_item)
    if item is None:
        raise CorpusError(f"interaction references unknown item {interaction.target_item!r}")
    return item.text


def _contains_contiguous(haystack: List[str], needle: List[str]) -> bool:
    n = len(needle)
    if not n or n > len(haystack):
        return False
    first, stop = needle[0], len(haystack) - n + 1
    i = -1
    while True:
        try:
            i = haystack.index(first, i + 1, stop)
        except ValueError:
            return False
        if haystack[i : i + n] == needle:
            return True


def is_related(
    c_tokens: List[str], c_terms: Set[str], ti_tokens: List[str],
    ti_terms: Set[str], action_type: ActionType,
) -> Tuple[bool, Optional[str]]:
    """Test the three matching rules in order; return the first that fires.

    Each text comes as its `normalize` tokens and their set.  An action
    whose text normalizes to nothing (all stopwords) links to nothing: the
    contiguity rule has no sequence to find and the majority rules have no
    tokens to count.  The contiguity rule can only fire when every action
    term occurs in the consultation, so the set overlap is counted first.
    """
    if not ti_terms:
        return False, None
    present = len(ti_terms & c_terms)
    if present == len(ti_terms) and _contains_contiguous(c_tokens, ti_tokens):
        return True, RULE_FULL_TEXT
    if present * 2 > len(ti_terms):
        if action_type is ActionType.SEARCH:
            return True, RULE_QUERY_MAJORITY
        return True, RULE_ITEM_MAJORITY
    return False, None


def _tokens(text: str) -> Tuple[List[str], Set[str]]:
    tokens = normalize(text)
    return tokens, set(tokens)


def build_linkage(corpus: Corpus, params: LinkageParams = LinkageParams()) -> LinkageTable:
    """Link every consultation to its related actions within the window.

    For each user, each interaction is tested against every consultation in
    the `window_days` before it (inclusive of simultaneity); matches are
    inverted into the consultation-keyed table.  Per-consultation action
    lists come out time-sorted with deterministic tie order.

    Histories are time-sorted, so each action's window is a slice of the
    consultations found by bisection.  Each consultation is tokenized once,
    and each action footprint once per distinct text: a query, or an item's
    title and attributes shared by every click and buy of that item.
    """
    table: Dict[str, Dict[str, List[Tuple[Interaction, str]]]] = {}
    window = params.window_hours
    footprints: Dict[str, Tuple[List[str], Set[str]]] = {}
    for user in sorted(corpus.users):
        history = corpus.users[user]
        consultations = history.consultations
        c_times = [c.timestamp for c in consultations]
        c_texts = [_tokens(c.text) for c in consultations]
        per_cid: Dict[str, List[Tuple[Interaction, str]]] = {
            c.id: [] for c in consultations
        }
        for act in history.interactions:
            lo = bisect_left(c_times, act.timestamp - window)
            hi = bisect_right(c_times, act.timestamp)
            if lo == hi:
                continue
            text = action_text(act, corpus)
            if text not in footprints:
                footprints[text] = _tokens(text)
            ti_tokens, ti_terms = footprints[text]
            for k in range(lo, hi):
                c_tokens, c_terms = c_texts[k]
                ok, rule = is_related(c_tokens, c_terms, ti_tokens, ti_terms,
                                      act.action_type)
                if ok:
                    per_cid[consultations[k].id].append((act, rule))
        for cid in per_cid:
            per_cid[cid].sort(key=lambda pair: (pair[0].timestamp, pair[0].action_type.value,
                                                pair[0].target))
        table[user] = per_cid
    return LinkageTable(links=table)


#: Each action type's ``type`` field, quoted.
_TYPE_TEXT = {atype: _quote(atype.value) for atype in ActionType}


def link_line(user: str, cid: str, actions: List[Tuple[Interaction, str]]) -> str:
    """One `linkage.jsonl` row with its newline: byte for byte
    ``json.dumps(row, sort_keys=True)`` of the row ``{"user", "cid",
    "actions"}``, each action ``{"type", "ts_hours", "target", "rule"}``.
    Strings are quoted by the function the C encoder calls and timestamps
    written by `repr`, as the encoder writes ints."""
    acts = ", ".join(
        f'{{"rule": {_quote(rule)}, "target": {_quote(a.target)}, '
        f'"ts_hours": {a.timestamp!r}, "type": {_TYPE_TEXT[a.action_type]}}}'
        for a, rule in actions)
    return f'{{"actions": [{acts}], "cid": {_quote(cid)}, "user": {_quote(user)}}}\n'


def dump_linkage(table: LinkageTable, path) -> None:
    """Write `linkage.jsonl`: one row per consultation, by user then id."""
    links = table.links
    write_lines(path, (link_line(user, cid, links[user][cid])
                       for user in sorted(links) for cid in sorted(links[user])))


def _action_lookup(corpus: Corpus) -> Dict[Tuple[str, str, int, str], Interaction]:
    """(user, type, ts, target) -> interaction, for rebinding dumped rows."""
    table: Dict[Tuple[str, str, int, str], Interaction] = {}
    for user in corpus.users:
        for a in corpus.users[user].interactions:
            table.setdefault((user, a.action_type.value, a.timestamp, a.target), a)
    return table


def load_linkage(path, corpus: Corpus) -> LinkageTable:
    """Read a `linkage.jsonl` dump, rebinding rows to corpus interactions.

    Every dumped action must exist in the corpus; a row that references an
    unknown user, consultation, or action, or a second row for one
    consultation, means the dump and the corpus drifted apart and raises
    CorpusError.  So does an action hour that is not a JSON integer."""
    lookup = _action_lookup(corpus)
    cids = {
        user: {c.id for c in corpus.users[user].consultations}
        for user in corpus.users
    }
    links: Dict[str, Dict[str, List[Tuple[Interaction, str]]]] = {}
    for n, rec in read_jsonl(path, "linkage"):
        try:
            _bind_row(rec, lookup, cids, links)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{n}: {exc}") from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise CorpusError(f"{path}:{n}: malformed linkage row ({exc!r})") from exc
    return LinkageTable(links)


def _bind_row(rec: dict, lookup: Dict[Tuple[str, str, int, str], Interaction],
              cids: Dict[str, Set[str]], links) -> None:
    """Add one dumped linkage row to `links`, bound to corpus interactions."""
    user, cid = rec["user"], rec["cid"]
    if cid not in cids.get(user, ()):
        raise CorpusError(f"linkage row for unknown {user!r}/{cid!r}")
    if cid in links.get(user, ()):
        raise CorpusError(f"second linkage row for {user!r}/{cid!r}")
    actions: List[Tuple[Interaction, str]] = []
    for row in rec["actions"]:
        ts = row["ts_hours"]
        if type(ts) is not int:  # 123.0 and true would match hour 123 and 1 in `lookup`
            raise CorpusError(f"linkage action ts_hours must be an integer, got {ts!r}")
        key = (user, row["type"], ts, row["target"])
        interaction = lookup.get(key)
        if interaction is None:
            raise CorpusError(
                f"linkage row references an action absent from the corpus: {key}"
            )
        if row["rule"] not in RULES:
            raise CorpusError(f"linkage row names unknown rule {row['rule']!r}")
        actions.append((interaction, row["rule"]))
    links.setdefault(user, {})[cid] = actions
