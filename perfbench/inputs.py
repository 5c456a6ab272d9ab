"""Workload inputs: the corpus each workload runs on, built from the seed.

``default`` and ``wide-catalog`` are stock ``datagen.generate`` output.
``long-history`` is stock output too, with every ``join`` consecutive stock
users rewritten as one user whose histories follow each other in time, so
the generator itself needs no knob for history length.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List

from consultrank.corpus import Corpus, build_corpus, dump_corpus, item_event, user_events
from consultrank.datagen import GenSpec, generate

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


@dataclass(frozen=True)
class Workload:
    name: str
    users: int  # stock generator users; a joined user holds `join` of them
    items: int
    join: int
    #: Lowest mean NDCG@10 over the valid and test sessions of a run's
    #: corpora that a working ranker reaches here after the fixed epoch; a
    #: random ranker over 100 candidates expects about 0.045.
    quality_floor: float


def load_workloads() -> Dict[str, Workload]:
    """The workload parameters recorded in spec.json."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"]
    return {name: Workload(name, w["users"], w["items"], w["join"], w["quality_floor"])
            for name, w in spec.items()}


def join_histories(corpus: Corpus, join: int, period_hours: int) -> Corpus:
    """Concatenate every `join` consecutive users into one long history.

    Stock user ``i`` of a group is shifted by ``i * period_hours``; with the
    generator horizon as the period no two shifted histories overlap.  User
    ids become ``h<group>`` and consultation ids keep their stock id as a
    suffix, so they stay unique.
    """
    events: List[dict] = []
    for pos, user in enumerate(sorted(corpus.users)):
        group, offset = divmod(pos, join)
        new_user = f"h{group:04d}"
        for ev in user_events(corpus.users[user]):
            ev = dict(ev, user=new_user, ts_hours=ev["ts_hours"] + offset * period_hours)
            if ev["type"] == "consult":
                ev["cid"] = f"{new_user}-{ev['cid']}"
            events.append(ev)
    items = [item_event(corpus.items[i]) for i in sorted(corpus.items)]
    return build_corpus(items, events)


#: A run repeats the whole pipeline, from set-up to report, once per input
#: seed of `pass_seeds` and reports the median pass, so neither one slow
#: stretch of a shared machine nor one corpus moves a metric on its own.
PASSES = 5


def pass_seeds(seed: int) -> List[int]:
    """Input seeds of the passes of a run at `seed`: PASSES - 1 distinct
    corpora, then the first again, which must write the same bytes."""
    distinct = [seed * 100 + k for k in range(PASSES - 1)]
    return distinct + distinct[:1]


def build_inputs(workload: Workload, seed: int, corpus_dir: str) -> Corpus:
    """Generate the workload's corpus and write items.jsonl + events.jsonl."""
    spec = GenSpec(n_users=workload.users, n_items=workload.items, seed=seed)
    corpus, _oracle = generate(spec)
    if workload.join > 1:
        corpus = join_histories(corpus, workload.join, spec.horizon_hours)
    os.makedirs(corpus_dir, exist_ok=True)
    dump_corpus(corpus, os.path.join(corpus_dir, "items.jsonl"),
                os.path.join(corpus_dir, "events.jsonl"))
    return corpus


def input_properties(corpus: Corpus, l_seq: int) -> Dict[str, float]:
    """The input properties an optimisation may depend on.

    ``filter_truncated_share`` is the share of search sessions with more
    than ``l_seq`` prior consultations, the only sessions where the value
    filter drops anything.  CAI actions are the prior interactions a
    session's cross-attention reads.
    """
    per_user = [len(h.consultations) for h in corpus.users.values()]
    priors: List[int] = []
    actions: List[int] = []
    for h in corpus.users.values():
        for s in h.searches:
            priors.append(sum(1 for c in h.consultations if c.timestamp < s.timestamp))
            actions.append(sum(1 for a in h.interactions if a.timestamp < s.timestamp))
    return {
        "input.users": len(corpus.users),
        "input.items": len(corpus.items),
        "input.sessions": len(priors),
        "input.consultations_per_user_p50": statistics.median(per_user),
        "input.consultations_per_user_max": max(per_user),
        "input.filter_truncated_share": sum(p > l_seq for p in priors) / len(priors),
        "input.cai_actions_p50": statistics.median(actions),
        "input.cai_actions_max": max(actions),
    }
