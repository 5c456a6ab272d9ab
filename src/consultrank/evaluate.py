"""Ranking metrics, the sampled-candidate protocol, and the BM25 baseline.

Each evaluation session pairs one ground-truth item with uniformly sampled
negatives (``N_NEG`` by default), shuffles the candidate list with a seed derived
from the session identity, asks a scorer for one score per candidate, and
reads HR, NDCG, and MRR at fixed cutoffs off the sorted list.  The
retrieval protocol scores the whole catalog instead of a sample.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import Corpus, SearchSession
from .index import normalize

K_CUTS = (5, 10, 20, 50)

#: Negatives sampled per session under the ranking protocol.
N_NEG = 99

# score_fn(user_id, session, candidate_ids) -> one float per candidate
ScoreFn = Callable[[str, SearchSession, Sequence[str]], Sequence[float]]


@dataclass(frozen=True)
class RankedList:
    """Candidates in non-increasing score order with their ground truth."""

    entries: Tuple[Tuple[str, float], ...]
    ground_truth: str

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("ranked list scores must be non-increasing")

    def rank(self) -> Optional[int]:
        """1-based rank of the ground truth, None when absent."""
        for i, (item_id, _) in enumerate(self.entries):
            if item_id == self.ground_truth:
                return i + 1
        return None


@dataclass(frozen=True)
class MetricReport:
    n_sessions: int
    macro: Dict[str, float]
    per_user: Dict[str, Dict[str, float]]


def ranked_from_scores(candidate_ids: Sequence[str], scores: Sequence[float],
                       ground_truth: str) -> RankedList:
    """Sort candidates by descending score, ties broken by item-id."""
    if len(candidate_ids) != len(scores):
        raise ValueError(
            f"{len(candidate_ids)} candidates but {len(scores)} scores"
        )
    pairs = sorted(zip(candidate_ids, map(float, scores)), key=lambda p: (-p[1], p[0]))
    return RankedList(entries=tuple(pairs), ground_truth=ground_truth)


def session_seed(base_seed: int, user_id: str, session: SearchSession) -> int:
    """Deterministic per-session seed for candidate sampling."""
    key = f"{base_seed}|{user_id}|{session.timestamp}|{session.ground_truth_item}"
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def make_candidates(ground_truth: str, corpus: Corpus, n_neg: int = N_NEG,
                    seed: int = 0) -> List[str]:
    """Ground truth plus n_neg distinct uniform negatives, shuffled."""
    if ground_truth not in corpus.items:
        raise ValueError(f"unknown ground-truth item {ground_truth!r}")
    pool = [v for v in sorted(corpus.items) if v != ground_truth]
    if len(pool) < n_neg:
        raise ValueError(
            f"need {n_neg} negatives but corpus has only {len(pool)} other items"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=n_neg, replace=False)
    candidates = [ground_truth] + [pool[i] for i in chosen]
    rng.shuffle(candidates)
    return candidates


def hr_at_k(ranked: RankedList, k: int) -> float:
    rank = ranked.rank()
    return 1.0 if rank is not None and rank <= k else 0.0


def ndcg_at_k(ranked: RankedList, k: int) -> float:
    rank = ranked.rank()
    if rank is None or rank > k:
        return 0.0
    return 1.0 / math.log2(rank + 1)


def mrr_at_k(ranked: RankedList, k: int) -> float:
    rank = ranked.rank()
    if rank is None or rank > k:
        return 0.0
    return 1.0 / rank


def session_metrics(ranked: RankedList) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for k in K_CUTS:
        out[f"hr@{k}"] = hr_at_k(ranked, k)
        out[f"ndcg@{k}"] = ndcg_at_k(ranked, k)
        out[f"mrr@{k}"] = mrr_at_k(ranked, k)
    return out


def evaluate_sessions(score_fn: ScoreFn, corpus: Corpus,
                      sessions: Sequence[Tuple[str, SearchSession]],
                      protocol: str = "ranking", seed: int = 0,
                      n_neg: int = N_NEG) -> MetricReport:
    """Run one scorer over evaluation sessions and macro-average."""
    if protocol not in ("ranking", "retrieval"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not sessions:
        raise ValueError("no sessions to evaluate")
    totals = {key: 0.0 for k in K_CUTS for key in (f"hr@{k}", f"ndcg@{k}", f"mrr@{k}")}
    by_user: Dict[str, List[Dict[str, float]]] = {}
    for user_id, session in sessions:
        if protocol == "ranking":
            candidates = make_candidates(
                session.ground_truth_item, corpus, n_neg=n_neg,
                seed=session_seed(seed, user_id, session),
            )
        else:
            candidates = sorted(corpus.items)
        scores = score_fn(user_id, session, candidates)
        ranked = ranked_from_scores(candidates, scores, session.ground_truth_item)
        metrics = session_metrics(ranked)
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


class Bm25:
    """Okapi BM25 over item title+attribute documents of one corpus."""

    def __init__(self, corpus: Corpus, k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.doc_terms: Dict[str, Dict[str, int]] = {}
        self.doc_len: Dict[str, int] = {}
        for item_id in sorted(corpus.items):
            item = corpus.items[item_id]
            tokens = normalize(" ".join((item.title,) + item.attributes))
            counts: Dict[str, int] = {}
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
            self.doc_terms[item_id] = counts
            self.doc_len[item_id] = len(tokens)
        n_docs = len(self.doc_len)
        self.avg_len = (sum(self.doc_len.values()) / n_docs) if n_docs else 0.0
        term_docs: Dict[str, int] = {}
        for counts in self.doc_terms.values():
            for term in counts:
                term_docs[term] = term_docs.get(term, 0) + 1
        self.idf = {
            term: math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for term, df in term_docs.items()
        }

    def score(self, query_tokens: Sequence[str], item_id: str) -> float:
        counts = self.doc_terms[item_id]
        dl = self.doc_len[item_id]
        norm = self.k1 * (1.0 - self.b + self.b * dl / self.avg_len) if self.avg_len else 0.0
        total = 0.0
        for term in query_tokens:
            tf = counts.get(term, 0)
            if tf == 0 or term not in self.idf:
                continue
            total += self.idf[term] * tf * (self.k1 + 1.0) / (tf + norm)
        return total


def bm25_score_fn(corpus: Corpus, k1: float = 1.2, b: float = 0.75) -> ScoreFn:
    engine = Bm25(corpus, k1=k1, b=b)
    def score(user_id: str, session: SearchSession, candidates: Sequence[str]):
        tokens = normalize(session.query.text)
        return [engine.score(tokens, v) for v in candidates]
    return score


def random_score_fn(base_seed: int = 0) -> ScoreFn:
    """Uniform random scores, deterministic per session."""
    def score(user_id: str, session: SearchSession, candidates: Sequence[str]):
        rng = np.random.default_rng(session_seed(base_seed ^ 0x5EED, user_id, session))
        return rng.uniform(0.0, 1.0, size=len(candidates)).tolist()
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


def load_metrics(path) -> MetricReport:
    """Read a metrics.json dump back into a MetricReport."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        return MetricReport(
            n_sessions=payload["n_sessions"],
            macro=dict(payload["macro"]),
            per_user={u: dict(row) for u, row in payload["per_user"].items()},
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a metrics dump ({exc})") from exc


def format_metric_table(reports: Dict[str, MetricReport]) -> str:
    """Fixed-width comparison table of macro metrics, one row per system."""
    keys = [f"{m}@{k}" for m in ("hr", "ndcg", "mrr") for k in K_CUTS]
    name_width = max(len("system"), max((len(n) for n in reports), default=0))
    header = "system".ljust(name_width) + "".join(key.rjust(10) for key in keys)
    lines = [header, "-" * len(header)]
    for name in sorted(reports):
        macro = reports[name].macro
        row = name.ljust(name_width) + "".join(
            f"{macro[key]:10.4f}" for key in keys
        )
        lines.append(row)
    return "\n".join(lines)
