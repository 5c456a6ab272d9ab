"""Synthetic user journeys with planted, labeled consultation patterns.

The catalog is organized into small product families: items in a family
share a two-word family name and differ only by a unique model code
(``"velomax quarline kx0007"``), with the code repeated as the catalog
attribute.  Search queries carry just the two family words, so a query
narrows candidates to one family but can never pick the variant.  Each
generated user favors a sibling pair, two variants from one family, and
runs purchase episodes over that pool, so the user's own interaction
totals also tie between the siblings.  What does identify an episode's
target is the evidence trail planted around its search, drawn from four
consultation patterns:

* ``in_scope_verified`` (the only pattern labeled ``high``): lands 18-30
  hours before the search and talks about the family in family words
  only.  The user clicks through to the actual target variant between
  the consultation and the search, then confirms the choice after the
  search with more clicks and usually a purchase.  The posterior actions
  are what make the consultation assessable as valuable at its own
  search; the prior click-throughs are the part a ranker can see at
  search time, and content links are the only road to them, because
  fresher decoy events point elsewhere.

* ``in_scope_unverified``: the same wording about a family the user
  never acts on (one of the user's distractor families), so no action
  ever verifies it.

* ``out_of_scope``: off-topic chatter with no catalog terms, placed
  within hours of the search, so the most recent consultation is junk.

* ``out_of_date``: quotes the target's full title but sits 45-90 days in
  the past, outside any verification window of its own episode.

Every episode also emits decoy clicks on a second distractor family, one
of them always the last interaction before the search, so the most
recent click misleads just like the most recent consultation.  A user's
favored families and their two distractor families never overlap, item
vocabulary and off-topic vocabulary are disjoint, and model codes are
unique, so the planted patterns keep their intended value signatures
instead of cross-linking by accident.  Output is fully determined by the
seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .corpus import Corpus, build_corpus, dump_corpus, write_jsonl

PATTERN_VERIFIED = "in_scope_verified"
PATTERN_UNVERIFIED = "in_scope_unverified"
PATTERN_OUT_OF_SCOPE = "out_of_scope"
PATTERN_OUT_OF_DATE = "out_of_date"
PATTERNS = (
    PATTERN_VERIFIED,
    PATTERN_UNVERIFIED,
    PATTERN_OUT_OF_SCOPE,
    PATTERN_OUT_OF_DATE,
)

LABEL_HIGH = "high"
LABEL_LOW = "low"

# Pseudo-word pools.  Scenario terms name products; off-topic terms name
# everything else people chat about.  Separate prefix sets keep the two
# pools disjoint, and none of the compounds collide with template filler.
_SCENARIO_PREFIXES = (
    "velo", "quar", "lumi", "terra", "sono", "cryo", "flex", "novo",
    "hydra", "opti", "zephy", "magna", "kine", "arbo", "stell", "ferro",
    "glide", "penta", "vertex", "halo",
)
_OFF_TOPIC_PREFIXES = ("ballo", "windi", "gusta", "melo", "rustic", "fable")
_SUFFIXES = (
    "max", "line", "core", "band", "gear", "mount", "grip", "cell",
    "frame", "lens", "dock", "pad",
)

SCENARIO_TERMS: Tuple[str, ...] = tuple(
    p + s for p in _SCENARIO_PREFIXES for s in _SUFFIXES
)
OFF_TOPIC_TERMS: Tuple[str, ...] = tuple(
    p + s for p in _OFF_TOPIC_PREFIXES for s in _SUFFIXES
)

DEFAULT_RATES: Mapping[str, float] = {
    PATTERN_VERIFIED: 0.3,
    PATTERN_UNVERIFIED: 0.25,
    PATTERN_OUT_OF_SCOPE: 0.25,
    PATTERN_OUT_OF_DATE: 0.2,
}

# Hour gaps before the search.  The bands are disjoint on purpose: the
# out-of-scope junk is always the most recent consultation, the
# unverified one next, the verified one behind both, so recency-only
# selection always reads the wrong record first.
_VERIFIED_GAP = (18, 31)
_PRE_CLICK_GAP = (4, 17)       # click-throughs between consultation and search
_UNVERIFIED_GAP = (4, 13)
_OUT_OF_SCOPE_GAP = (1, 4)
_OUT_OF_DATE_GAP = (45 * 24, 90 * 24)
_SLOTS_PER_EPISODE = 4
_MIN_EPISODE_SPACING = 344     # hours between searches, beyond the linkage window
_BUY_PROBABILITY = 0.9
_FAMILY_WIDTH = 4              # catalog items per family (small catalogs: 1)


@dataclass(frozen=True)
class GenSpec:
    n_users: int = 200
    n_items: int = 500
    horizon_hours: int = 4320
    rates: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.n_items < 1:
            raise ValueError("need at least one user and one item")
        if self.n_items < 3:
            raise ValueError("need at least 3 items (targets plus distractors)")
        unknown = set(self.rates) - set(PATTERNS)
        if unknown:
            raise ValueError(f"unknown pattern rates: {sorted(unknown)}")
        total = 0.0
        for name, p in self.rates.items():
            if p < 0:
                raise ValueError(f"rate for {name} is negative")
            total += p
        if total > 1.0 + 1e-9:
            raise ValueError("pattern rates must sum to at most 1")
        oldest = _OUT_OF_DATE_GAP[1]
        if self.rates.get(PATTERN_OUT_OF_DATE, 0) > 0 and self.horizon_hours < oldest + 240:
            raise ValueError(
                f"horizon_hours must be at least {oldest + 240} to fit dated patterns"
            )
        if self.horizon_hours < 240:
            raise ValueError("horizon_hours must be at least 240")
        if self.seed < 0:  # numpy seeds its generators from non-negative ints only
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _pick(rng, pool, n):
    return [pool[int(i)] for i in rng.choice(len(pool), size=n, replace=False)]


def family_width(n_items: int) -> int:
    """Items per product family: 4, degrading to singletons for tiny catalogs."""
    return _FAMILY_WIDTH if n_items >= 2 * _FAMILY_WIDTH else 1


def _catalog(spec: GenSpec, rng) -> Tuple[List[dict], List[List[int]]]:
    """Items plus the family partition (lists of item indices).

    Family names never repeat as unordered word pairs, so two-word queries
    stay unambiguous at the family level; within a family only the model
    code separates the variants.
    """
    width = family_width(spec.n_items)
    items: List[dict] = []
    families: List[List[int]] = []
    used_pairs = set()
    i = 0
    while i < spec.n_items:
        while True:
            pair = tuple(_pick(rng, SCENARIO_TERMS, 2))
            if tuple(sorted(pair)) not in used_pairs:
                break
        used_pairs.add(tuple(sorted(pair)))
        members: List[int] = []
        for _ in range(min(width, spec.n_items - i)):
            code = f"kx{i:04d}"
            items.append(
                {
                    "id": f"v{i:04d}",
                    "title": " ".join([pair[0], pair[1], code]),
                    "attributes": [code],
                }
            )
            members.append(i)
            i += 1
        families.append(members)
    return items, families


def item_query(item: Mapping[str, object]) -> str:
    """The two family words an episode searches with (no model code)."""
    return " ".join(str(item["title"]).split()[:2])


def _family_phrase(item: Mapping[str, object]) -> Tuple[str, str]:
    """Consultation turns that reference an item's family in family words
    only, so the text narrows to the family but never picks the variant."""
    fam = item_query(item)
    return (
        f"what should i look at in the {fam} range",
        f"the {fam} line is a fine fit",
    )


def _sample_pattern(rng, rates: Mapping[str, float]):
    roll = float(rng.random())
    acc = 0.0
    for name in PATTERNS:
        acc += rates.get(name, 0.0)
        if roll < acc:
            return name
    return None


def _search_times(rng, n: int, lo: int, hi: int) -> List[int]:
    slots = (hi - lo) // _MIN_EPISODE_SPACING
    n = min(n, slots)
    picks = sorted(int(i) for i in rng.choice(slots, size=n, replace=False))
    return [lo + p * _MIN_EPISODE_SPACING + int(rng.integers(0, 9)) for p in picks]


def _user_pools(
    rng, items: Sequence[dict], families: Sequence[Sequence[int]], n_episodes: int
) -> Tuple[List[dict], List[dict]]:
    """A user's favored items and their two distractor items.

    The favored pool centers on a sibling pair from one family (two
    variants the user alternates between) plus, for longer histories, one
    item from a second family.  The two distractors come from further
    families that never overlap the favored ones: the first is the item
    unverified consultations talk about, the second the item decoy clicks
    land on, and keeping those roles in separate families keeps the junk
    records from linking to each other.
    """
    n_fam = len(families)
    order = [int(i) for i in rng.permutation(n_fam)]
    multi = [f for f in order if len(families[f]) >= 2]
    pool_items: List[dict] = []
    used = set()
    if multi:
        fam_main = multi[0]
        pair = _pick(rng, families[fam_main], 2)
        pool_items.extend(items[i] for i in pair)
        used.add(fam_main)
    remaining = [f for f in order if f not in used]
    if not multi:
        n_extra = min(2, max(1, len(remaining) - 1))
    elif n_episodes >= 5 and len(remaining) > 2:
        n_extra = 1
    else:
        n_extra = 0
    for f in remaining[:n_extra]:
        members = families[f]
        pool_items.append(items[members[int(rng.integers(len(members)))]])
        used.add(f)
    rest = [f for f in order if f not in used]
    distractors = [
        items[families[f][int(rng.integers(len(families[f])))]] for f in rest[:2]
    ]
    if not distractors:
        taken = {it["id"] for it in pool_items}
        distractors = [it for it in items if it["id"] not in taken][:2]
    return pool_items, distractors


def generate(spec: GenSpec) -> Tuple[Corpus, Dict[Tuple[str, int, str], str]]:
    """Build the synthetic corpus and its planted usefulness labels.

    The label map covers exactly the planted (user, search, consultation)
    pairs: the verified pattern is ``high``, the other three are ``low``.
    """
    rng = np.random.default_rng(spec.seed)
    items, families = _catalog(spec, rng)

    dated = spec.rates.get(PATTERN_OUT_OF_DATE, 0) > 0
    first_search = _OUT_OF_DATE_GAP[1] + 40 if dated else 120

    events: List[dict] = []
    oracle: Dict[Tuple[str, int, str], str] = {}

    for u in range(spec.n_users):
        user = f"u{u:04d}"
        n_episodes = int(rng.integers(3, 7))
        pool_items, distractors = _user_pools(rng, items, families, n_episodes)
        quoted_distractor = distractors[0]
        decoy = distractors[-1]
        times = _search_times(rng, n_episodes, first_search, spec.horizon_hours - 24)
        cid_counter = 0

        # Early episodes cover the whole pool once (shuffled), so by the end
        # of a history every favored item has been interacted with at least
        # once; later episodes revisit pool items at random.
        n_pool = len(pool_items)
        cover = [int(i) for i in rng.permutation(n_pool)]
        extra = [int(rng.integers(n_pool)) for _ in range(max(0, len(times) - n_pool))]
        target_order = (cover + extra)[: len(times)]

        for t_s, pick in zip(times, target_order):
            target = pool_items[pick]
            events.append(
                {
                    "user": user,
                    "type": "search",
                    "ts_hours": t_s,
                    "query": item_query(target),
                    "ground_truth_item": target["id"],
                }
            )
            # Post-search confirmation: the follow-through that verifies
            # this episode's consultation trail after the fact.
            post_gaps = (1, int(rng.integers(2, 7)), int(rng.integers(7, 13)))
            for g in post_gaps:
                events.append(
                    {"user": user, "type": "click", "ts_hours": t_s + g, "item": target["id"]}
                )
            if rng.random() < _BUY_PROBABILITY:
                events.append(
                    {
                        "user": user,
                        "type": "buy",
                        "ts_hours": t_s + int(rng.integers(2, 9)),
                        "item": target["id"],
                    }
                )
            # Recency decoys: idle clicks on an unrelated family, one of
            # them always the last interaction before the search.
            events.append(
                {"user": user, "type": "click", "ts_hours": t_s - 1, "item": decoy["id"]}
            )
            events.append(
                {
                    "user": user,
                    "type": "click",
                    "ts_hours": t_s - int(rng.integers(2, 13)),
                    "item": decoy["id"],
                }
            )

            for _slot in range(_SLOTS_PER_EPISODE):
                pattern = _sample_pattern(rng, spec.rates)
                if pattern is None:
                    continue
                cid = f"{user}-c{cid_counter:03d}"
                cid_counter += 1
                if pattern == PATTERN_VERIFIED:
                    gap = int(rng.integers(*_VERIFIED_GAP))
                    user_turn, assistant_turn = _family_phrase(target)
                    # Click-throughs from the consultation to the variant
                    # itself: the only pre-search events that identify it.
                    for _ in range(2 + int(rng.random() < 0.5)):
                        events.append(
                            {
                                "user": user,
                                "type": "click",
                                "ts_hours": t_s - int(rng.integers(*_PRE_CLICK_GAP)),
                                "item": target["id"],
                            }
                        )
                elif pattern == PATTERN_UNVERIFIED:
                    gap = int(rng.integers(*_UNVERIFIED_GAP))
                    user_turn, assistant_turn = _family_phrase(quoted_distractor)
                elif pattern == PATTERN_OUT_OF_DATE:
                    gap = int(rng.integers(*_OUT_OF_DATE_GAP))
                    title = target["title"]
                    user_turn = f"tell me about the {title} again"
                    assistant_turn = f"the {title} was the pick back then"
                else:
                    gap = int(rng.integers(*_OUT_OF_SCOPE_GAP))
                    chatter = _pick(rng, OFF_TOPIC_TERMS, 4)
                    user_turn = f"the {chatter[0]} and the {chatter[1]} was {chatter[2]}"
                    assistant_turn = f"that {chatter[3]} is not for me"
                events.append(
                    {
                        "user": user,
                        "type": "consult",
                        "ts_hours": max(t_s - gap, 0),
                        "cid": cid,
                        "user_turn": user_turn,
                        "assistant_turn": assistant_turn,
                    }
                )
                oracle[(user, t_s, cid)] = (
                    LABEL_HIGH if pattern == PATTERN_VERIFIED else LABEL_LOW
                )

    corpus = build_corpus(items, events)
    return corpus, oracle


def dump_oracle(oracle: Dict[Tuple[str, int, str], str], path) -> None:
    write_jsonl(path, ({"user": user, "search_ts": search_ts, "cid": cid,
                        "label": oracle[(user, search_ts, cid)]}
                       for user, search_ts, cid in sorted(oracle)))


def write_dataset(spec: GenSpec, out_dir) -> Tuple[Corpus, Dict[Tuple[str, int, str], str]]:
    """Generate and persist items.jsonl, events.jsonl, and oracle.jsonl."""
    corpus, oracle = generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    dump_corpus(
        corpus,
        os.path.join(out_dir, "items.jsonl"),
        os.path.join(out_dir, "events.jsonl"),
    )
    dump_oracle(oracle, os.path.join(out_dir, "oracle.jsonl"))
    return corpus, oracle
