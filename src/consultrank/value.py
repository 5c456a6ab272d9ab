"""Consultation value scoring and history filtering.

Each historical consultation is scored against a search session on three
axes, each normalized to [0, 1]:

* time value: exponential decay in the hours elapsed since the consultation,
* scope value: how many of the query's terms the consultation covers,
* action value: how strongly later consumer actions verified it, with the
  raw linked-action counts quantile-normalized and scarcer action types
  weighted up.

The three combine through a fixed convex mixture, and the top-scoring
consultations (up to a sequence cap) survive into model training.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .corpus import (
    ActionType,
    Consultation,
    Corpus,
    CorpusError,
    Interaction,
    SearchSession,
    UserHistory,
    consultations_before,
    read_jsonl,
    slice_before,
    write_jsonl,
)
from .index import InvertedIndex, ScopeParams, build_index, scope_value
from .linkage import LinkageTable

#: Action types in the order their terms are summed into the action value.
_SUM_ORDER = tuple(sorted(ActionType, key=lambda atype: atype.value))


@dataclass(frozen=True)
class ValueParams:
    """Scoring knobs.  Defaults are the tuned operating point."""

    alpha: float = 0.99
    lambda1: float = 0.5
    lambda2: float = 0.3
    l_seq: int = 30
    n_buckets: int = 11

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.l_seq <= 0:
            raise ValueError("l_seq must be positive")
        if self.n_buckets < 2:
            raise ValueError("n_buckets must be at least 2")


@dataclass(frozen=True)
class BucketTable:
    """Per action type: the quantile cut points over linked-action counts."""

    cuts: Dict[ActionType, Tuple[int, ...]]

    def __post_init__(self):
        for atype, row in self.cuts.items():
            if list(row) != sorted(row):
                raise ValueError(f"cut points for {atype.value} are not sorted")


class ValueReport(NamedTuple):
    user_id: str
    search_ts: int
    cid: str
    o_time: float
    o_scope: float
    o_action: float
    o_aggregate: float
    rank: int


def time_decay_value(t_s: int, t_c: int, alpha: float) -> float:
    """alpha raised to the elapsed hours; 1.0 at zero elapsed time."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if t_c > t_s:
        raise ValueError("consultation must not postdate the search")
    return alpha ** (t_s - t_c)


def time_bucket(delta_hours: int, b: int) -> int:
    """Exponentially widening buckets over an hour gap, clamped to b of them.

    Gap 0 lands in bucket 0; each bucket covers twice the span of the one
    before ([1,2), [3,6], ...), so recent gaps are finely resolved and old
    ones coarsely.
    """
    if b < 2:
        raise ValueError("need at least two time buckets")
    if delta_hours < 0:
        raise ValueError("time gap cannot be negative")
    return min((delta_hours + 1).bit_length() - 1, b - 1)


def nearest_rank_cuts(sample: Sequence[int], n_buckets: int) -> Tuple[int, ...]:
    """Quantile cut points at k/n_buckets for k = 1..n_buckets-1.

    Nearest-rank convention: cut k is the element at 1-based rank
    ceil(k*n/n_buckets) of the sorted sample.  Empty sample gives all-zero
    cuts.
    """
    if not sample:
        return (0,) * (n_buckets - 1)
    ordered = sorted(sample)
    n = len(ordered)
    # 1-based nearest rank ceil(k*n/n_buckets), via negated floor division
    return tuple(ordered[-(-k * n // n_buckets) - 1] for k in range(1, n_buckets))


def fit_buckets(linkage: LinkageTable, n_buckets: int) -> BucketTable:
    """Fit per-action-type quantile cuts over the whole linkage table.

    The sample for an action type is the linked-action count of every
    consultation in the corpus, zeros included; fitting is global, not per
    user, because individual histories are far too sparse to carry their own
    quantiles.
    """
    samples: Dict[ActionType, List[int]] = {atype: [] for atype in ActionType}
    for user in sorted(linkage.links):
        for cid in sorted(linkage.links[user]):
            counts = {atype: 0 for atype in ActionType}
            for act, _rule in linkage.links[user][cid]:
                counts[act.action_type] += 1
            for atype in ActionType:
                samples[atype].append(counts[atype])
    return BucketTable(
        cuts={atype: nearest_rank_cuts(samples[atype], n_buckets) for atype in ActionType},
    )


def bucketize(freq: int, cuts: Sequence[int]) -> float:
    """Map a raw count to its quantile bucket, scaled into [0, 1].

    The bucket index is the number of the sorted cut points strictly below
    the count, so a count of zero in a mostly-zero distribution stays in
    bucket 0 and anything above the top cut saturates at 1.0.
    """
    if freq < 0:
        raise ValueError("frequency cannot be negative")
    return bisect_left(cuts, freq) / len(cuts)


def gamma_weights(posterior: Sequence[Interaction]) -> Dict[ActionType, float]:
    """Scarcity weights over the action types present in a posterior slice.

    Each present type gets weight proportional to the reciprocal of its
    count, normalized to sum to one, so rare actions (typically purchases)
    dominate.  An empty slice yields an empty map.  The reciprocals are
    summed in the order each type first appears in the slice.
    """
    counts: Dict[ActionType, int] = {}
    for act in posterior:
        counts[act.action_type] = counts.get(act.action_type, 0) + 1
    if not counts:
        return {}
    denom = sum(1.0 / n for n in counts.values())
    return {atype: (1.0 / n) / denom for atype, n in counts.items()}


def linked_times(actions: Sequence[Tuple[Interaction, str]]) -> Dict[ActionType, List[int]]:
    """Sorted timestamps of one consultation's linked actions, per type."""
    times: Dict[ActionType, List[int]] = {atype: [] for atype in ActionType}
    for act, _rule in actions:
        times[act.action_type].append(act.timestamp)
    for row in times.values():
        row.sort()
    return times


def consultation_terms(
    history: UserHistory,
    index: InvertedIndex,
    linkage: LinkageTable,
    scope_params: ScopeParams = ScopeParams(),
) -> Tuple[Dict[str, float], Dict[str, Dict[ActionType, List[int]]]]:
    """The value terms that depend on a consultation alone, by consultation
    id: its `scope_value` and its `linked_times`."""
    scopes = {c.id: scope_value(index, c, scope_params) for c in history.consultations}
    times = {c.id: linked_times(linkage.actions_for(history.user_id, c.id))
             for c in history.consultations}
    return scopes, times


def action_value(
    times: Mapping[ActionType, Sequence[int]],
    s_ts: int,
    gammas: Mapping[ActionType, float],
    buckets: BucketTable,
) -> float:
    """Posterior verification score of one consultation at one search time.

    `times` are the consultation's `linked_times` and `gammas` the
    `gamma_weights` of the search's posterior slice.  Only linked actions at
    or after the search timestamp count toward the frequencies, and only
    action types present in the posterior slice carry weight.  No posterior
    activity at all means no verification signal: 0.
    """
    total = 0.0
    for atype in _SUM_ORDER:
        gamma = gammas.get(atype)
        if gamma is not None:
            row = times[atype]
            freq = len(row) - bisect_left(row, s_ts)
            total += gamma * bucketize(freq, buckets.cuts[atype])
    # Convex mixture of [0, 1] terms; clamp the last-bit rounding overshoot.
    return min(total, 1.0)


def aggregate_value(o_time: float, o_scope: float, o_action: float, p: ValueParams) -> float:
    """Convex mixture of the three component scores."""
    for name, v in (("o_time", o_time), ("o_scope", o_scope), ("o_action", o_action)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} out of range: {v}")
    return (1.0 - p.lambda1) * o_time + p.lambda1 * (
        p.lambda2 * o_scope + (1.0 - p.lambda2) * o_action
    )


def rank_and_filter(
    history: UserHistory,
    s: SearchSession,
    scopes: Mapping[str, float],
    times: Mapping[str, Mapping[ActionType, Sequence[int]]],
    buckets: BucketTable,
    params: ValueParams = ValueParams(),
) -> Tuple[List[Consultation], List[ValueReport]]:
    """Score, rank, and cap one user's consultation history for one search.

    `scopes` and `times` are the user's `consultation_terms`, computed once
    for all of the user's searches.  Returns the kept
    consultations (at most l_seq, best first) and the full ranked report
    list for every scored consultation, kept or not.  Ties on the aggregate
    break toward recency, then lexically by consultation id, so reruns
    always produce the identical ordering.
    """
    before, posterior = slice_before(history, s.timestamp)
    gammas = gamma_weights(posterior)
    by_id = {c.id: c for c in before}
    scored: List[Tuple[float, int, str]] = []
    reports_raw: Dict[str, Tuple[float, float, float, float]] = {}
    for c in before:
        o_time = time_decay_value(s.timestamp, c.timestamp, params.alpha)
        o_scope = scopes[c.id]
        o_action = action_value(times[c.id], s.timestamp, gammas, buckets)
        o_agg = aggregate_value(o_time, o_scope, o_action, params)
        reports_raw[c.id] = (o_time, o_scope, o_action, o_agg)
        scored.append((o_agg, c.timestamp, c.id))
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    reports = [ValueReport(history.user_id, s.timestamp, cid, *reports_raw[cid], rank)
               for rank, (_agg, _ts, cid) in enumerate(scored, start=1)]
    kept = [by_id[cid] for _agg, _ts, cid in scored[: params.l_seq]]
    return kept, reports


@dataclass(frozen=True)
class SessionAssessment:
    """All value outputs for one (user, search session) pair."""

    user_id: str
    session: SearchSession
    kept: Tuple[Consultation, ...]
    reports: Tuple[ValueReport, ...]


def assess_corpus(
    corpus: Corpus,
    linkage: LinkageTable,
    buckets: BucketTable,
    params: ValueParams = ValueParams(),
    scope_params: ScopeParams = ScopeParams(),
    index: Optional[InvertedIndex] = None,
) -> List[SessionAssessment]:
    """Run rank_and_filter over every search session of every user."""
    if index is None:
        index = build_index(corpus)
    out: List[SessionAssessment] = []
    for user in sorted(corpus.users):
        history = corpus.users[user]
        scopes, times = consultation_terms(history, index, linkage, scope_params)
        for s in history.searches:
            kept, reports = rank_and_filter(history, s, scopes, times, buckets, params)
            out.append(
                SessionAssessment(
                    user_id=user, session=s, kept=tuple(kept), reports=tuple(reports)
                )
            )
    return out


def report_record(r: ValueReport) -> dict:
    return {
        "user": r.user_id,
        "search_ts": r.search_ts,
        "cid": r.cid,
        "o_time": round(r.o_time, 6),
        "o_scope": round(r.o_scope, 6),
        "o_action": round(r.o_action, 6),
        "o_aggregate": round(r.o_aggregate, 6),
        "rank": r.rank,
    }


def _hour_reports(assessments: Sequence[SessionAssessment]) -> Iterator[ValueReport]:
    """The reports of each (user, search hour) once, in order.  Every value
    depends only on the user's history and the search hour, so the searches
    of one hour share one row set."""
    hours = set()
    for a in assessments:
        if (a.user_id, a.session.timestamp) not in hours:
            hours.add((a.user_id, a.session.timestamp))
            yield from a.reports


def dump_values(assessments: Sequence[SessionAssessment], path) -> None:
    write_jsonl(path, map(report_record, _hour_reports(assessments)))


#: values.jsonl score fields, each in [0, 1]
_SCORE_FIELDS = ("o_time", "o_scope", "o_action", "o_aggregate")

_NUMBER = (int, float)

#: values.jsonl field -> the types its value may take
_VALUE_FIELDS = {"user": str, "cid": str, "search_ts": int, "rank": int,
                 **dict.fromkeys(_SCORE_FIELDS, _NUMBER)}


def _refuse_row(path, n: int, rec: dict) -> CorpusError:
    """The refusal of a values.jsonl row that fails `load_assessments`'s
    check, naming its missing, wrong-typed or out-of-range fields."""
    try:
        bad = [key for key, types in _VALUE_FIELDS.items()
               if isinstance(rec[key], bool) or not isinstance(rec[key], types)]
        if bad:
            raise TypeError(f"wrong-typed {', '.join(bad)}")
        bad = [key for key in _SCORE_FIELDS if not 0.0 <= rec[key] <= 1.0]
        if rec["rank"] < 1:
            bad.append("rank")
        raise ValueError(f"out-of-range {', '.join(bad)}")
    except (KeyError, TypeError, ValueError) as exc:
        return CorpusError(f"{path}:{n}: malformed value row ({exc!r})")


def load_assessments(path, corpus: Corpus, params: ValueParams = ValueParams()) -> List[SessionAssessment]:
    """Rebuild SessionAssessments from a `values.jsonl` dump.

    Scores come back 6-decimal rounded (the dump's precision); ranks and the
    kept set (rank <= l_seq) are exact.  The rows of one (user, search hour)
    are its row set: they must name the user's consultations before that
    hour, each exactly once, ranked 1..n.  Every search in the hour gets
    that set.  A search with no earlier consultation has no rows, as
    `assess` writes none for it, and keeps nothing."""
    hours: Dict[Tuple[str, int], List[Tuple[int, int, str, tuple]]] = {}
    for n, rec in read_jsonl(path, "value"):
        try:
            user, ts, cid, rank = rec["user"], rec["search_ts"], rec["cid"], rec["rank"]
            scores = (rec["o_time"], rec["o_scope"], rec["o_action"], rec["o_aggregate"])
        except KeyError:
            raise _refuse_row(path, n, rec) from None
        if not (type(user) is str and type(cid) is str and type(ts) is int
                and type(rank) is int and rank >= 1
                and all(type(v) in _NUMBER and 0.0 <= v <= 1.0 for v in scores)):
            raise _refuse_row(path, n, rec)
        hours.setdefault((user, ts), []).append((rank, n, cid, scores))

    out: List[SessionAssessment] = []
    for user in sorted(corpus.users):
        history = corpus.users[user]
        hour = None
        for s in history.searches:
            if s.timestamp != hour:
                hour = s.timestamp
                kept, reports = _hour_set(path, history, hour, hours.pop((user, hour), []),
                                          params.l_seq)
            out.append(SessionAssessment(user_id=user, session=s, kept=kept, reports=reports))
    if hours:
        extra = next(iter(hours))
        raise CorpusError(
            f"{path}: value rows for {extra} do not match any corpus search"
        )
    return out


def _hour_set(path, history: UserHistory, hour: int,
              rows: List[Tuple[int, int, str, tuple]], l_seq: int
              ) -> Tuple[Tuple[Consultation, ...], Tuple[ValueReport, ...]]:
    """The kept prefix and the reports of one (user, search hour) from its
    rows, each (rank, line number, consultation id, scores); refused unless
    they name every consultation before the hour once, ranked 1..n."""
    before = consultations_before(history, hour)
    where = f"{history.user_id!r} search at t={hour}"
    if before and not rows:
        raise CorpusError(f"{path}: no value rows for {where}")
    by_id = {c.id: c for c in before}
    rows.sort()
    reports = []
    named = set()
    for pos, (rank, n, cid, scores) in enumerate(rows, start=1):
        if cid not in by_id:
            raise CorpusError(f"{path}:{n}: value row for {where} names {cid!r}, "
                              "which is no consultation of the user before it")
        if cid in named:
            raise CorpusError(f"{path}:{n}: value rows for {where} name consultation "
                              f"{cid!r} twice")
        if rank != pos:
            raise CorpusError(f"{path}:{n}: value rows for {where} are not ranked 1..n: "
                              f"rank {rank} where {pos} is due")
        named.add(cid)
        reports.append(ValueReport(history.user_id, hour, cid, *scores, rank))
    if len(reports) < len(before):
        absent = next(c.id for c in before if c.id not in named)
        raise CorpusError(f"{path}: value rows for {where} lack consultation {absent!r}")
    return tuple(by_id[r.cid] for r in reports[:l_seq]), tuple(reports)


HISTOGRAM_BINS = 10


def score_histogram(assessments: Sequence[SessionAssessment]) -> str:
    """Text histogram of aggregate scores, for quick corpus health checks."""
    scores = [r.o_aggregate for r in _hour_reports(assessments)]
    if not scores:
        return "(no scored consultations)"
    counts = [0] * HISTOGRAM_BINS
    for s in scores:
        counts[min(int(s * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)] += 1
    peak = max(counts)
    lines = [f"aggregate score distribution over {len(scores)} consultations:"]
    for i, n in enumerate(counts):
        lo, hi = i / HISTOGRAM_BINS, (i + 1) / HISTOGRAM_BINS
        bar = "#" * (round(40 * n / peak) if peak else 0)
        close = "]" if i == HISTOGRAM_BINS - 1 else ")"
        lines.append(f"  [{lo:.1f},{hi:.1f}{close} {n:6d} {bar}")
    return "\n".join(lines)
