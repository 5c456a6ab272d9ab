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
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
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
    write_lines,
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
    """Per action type: the quantile cut points over linked-action counts,
    sorted and, like the counts, never negative."""

    cuts: Dict[ActionType, Tuple[int, ...]]

    def __post_init__(self):
        for atype, row in self.cuts.items():
            if list(row) != sorted(row):
                raise ValueError(f"cut points for {atype.value} are not sorted")
            if row and row[0] < 0:
                raise ValueError(f"cut points for {atype.value} are negative")


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
    counts = Counter(map(attrgetter("action_type"), posterior))
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


#: One action type's term of a search's action value: (type, gamma, cut points).
ActionTerm = Tuple[ActionType, float, Tuple[int, ...]]


def action_terms(gammas: Mapping[ActionType, float], buckets: BucketTable
                 ) -> Tuple[ActionTerm, ...]:
    """The part of `action_value` that depends on the search alone: the
    gamma and the cut points of each action type present in its posterior
    slice (`gammas`, from `gamma_weights`), in the order the terms are
    summed."""
    return tuple((atype, gammas[atype], buckets.cuts[atype])
                 for atype in _SUM_ORDER if atype in gammas)


def action_value(
    times: Mapping[ActionType, Sequence[int]],
    s_ts: int,
    terms: Sequence[ActionTerm],
) -> float:
    """Posterior verification score of one consultation at one search time.

    `times` are the consultation's `linked_times` and `terms` the search's
    `action_terms`.  Only linked actions at or after the search timestamp
    count toward the frequencies, and only action types present in the
    posterior slice carry weight.  No posterior activity at all means no
    verification signal: 0.
    """
    total = 0.0
    for atype, gamma, cuts in terms:
        row = times[atype]
        # A count of zero lies below every cut point, in bucket 0, and adds
        # nothing; the rows are sorted, so the last time tells.
        if row and row[-1] >= s_ts:
            total += gamma * bucketize(len(row) - bisect_left(row, s_ts), cuts)
    # Convex mixture of [0, 1] terms; clamp the last-bit rounding overshoot.
    return min(total, 1.0)


def aggregate_value(o_time: float, o_scope: float, o_action: float, p: ValueParams) -> float:
    """Convex mixture of the three component scores."""
    # Each of the three lies in [0, 1], in one chained comparison.
    if not 0.0 <= o_time <= 1.0 >= o_scope >= 0.0 <= o_action <= 1.0:
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

    What depends on the search alone, its timestamp and its `action_terms`,
    is computed once, outside the loop over consultations.
    """
    user, s_ts = history.user_id, s.timestamp
    before, posterior = slice_before(history, s_ts)
    terms = action_terms(gamma_weights(posterior), buckets)
    alpha = params.alpha
    scored: List[Tuple[float, int, str, float, float, float, Consultation]] = []
    for c in before:
        cid, t_c = c.id, c.timestamp
        o_time = time_decay_value(s_ts, t_c, alpha)
        o_scope = scopes[cid]
        o_action = action_value(times[cid], s_ts, terms)
        o_agg = aggregate_value(o_time, o_scope, o_action, params)
        scored.append((-o_agg, -t_c, cid, o_time, o_scope, o_action, c))
    # Aggregate and time negated, so the tuples' own order is the ranking;
    # a user's consultation ids are distinct, so no comparison goes past them.
    scored.sort()
    reports = [ValueReport(user, s_ts, cid, o_time, o_scope, o_action, -neg_agg, rank)
               for rank, (neg_agg, _ts, cid, o_time, o_scope, o_action, _c)
               in enumerate(scored, start=1)]
    kept = [t[-1] for t in scored[: params.l_seq]]
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
    """Run rank_and_filter over every search session of every user.  Every
    value depends only on the user's history and the search hour, so each
    (user, search hour) is scored once and its result given to every search
    in the hour."""
    if index is None:
        index = build_index(corpus)
    out: List[SessionAssessment] = []
    for user in sorted(corpus.users):
        history = corpus.users[user]
        scopes, times = consultation_terms(history, index, linkage, scope_params)
        hour = None
        for s in history.searches:
            if s.timestamp != hour:
                hour = s.timestamp
                kept, reports = rank_and_filter(history, s, scopes, times, buckets, params)
                kept, reports = tuple(kept), tuple(reports)
            out.append(SessionAssessment(user_id=user, session=s, kept=kept, reports=reports))
    return out


def value_line(r: ValueReport) -> str:
    """One `values.jsonl` row with its newline: byte for byte
    ``json.dumps(row, sort_keys=True)`` of the row, whose scores are rounded
    to 6 decimals.  Strings are quoted by the function the C encoder calls
    and numbers written by `repr`, as the encoder writes finite ones."""
    user, search_ts, cid, o_time, o_scope, o_action, o_aggregate, rank = r
    return (f'{{"cid": {_quote(cid)}, "o_action": {round(o_action, 6)!r}, '
            f'"o_aggregate": {round(o_aggregate, 6)!r}, "o_scope": {round(o_scope, 6)!r}, '
            f'"o_time": {round(o_time, 6)!r}, "rank": {rank!r}, '
            f'"search_ts": {search_ts!r}, "user": {_quote(user)}}}\n')


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
    """Write `values.jsonl`: each hour's row set once, in rank order."""
    write_lines(path, map(value_line, _hour_reports(assessments)))


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


#: A values.jsonl row's fields in `ValueReport` order, read by one call.
_REPORT_FIELDS = itemgetter("user", "search_ts", "cid", "o_time", "o_scope", "o_action",
                            "o_aggregate", "rank")

#: The report of a (rank, line number, report) row of `load_assessments`.
_REPORT = itemgetter(2)


def load_assessments(path, corpus: Corpus, params: ValueParams = ValueParams()) -> List[SessionAssessment]:
    """Rebuild SessionAssessments from a `values.jsonl` dump.

    Scores come back 6-decimal rounded (the dump's precision); ranks and the
    kept set (rank <= l_seq) are exact.  The rows of one (user, search hour)
    are its row set: they must name the user's consultations before that
    hour, each exactly once, ranked 1..n.  Every search in the hour gets
    that set.  A search with no earlier consultation has no rows, as
    `assess` writes none for it, and keeps nothing.

    One loop checks each row's types and ranges and makes its `ValueReport`
    with ``tuple.__new__``, which skips the NamedTuple constructor's own
    frame."""
    new = tuple.__new__
    hours: Dict[Tuple[str, int], List[Tuple[int, int, ValueReport]]] = {}
    last_user = last_ts = group = None  # the row group of the last (user, hour) read
    for n, rec in read_jsonl(path, "value"):
        try:
            row = _REPORT_FIELDS(rec)
        except KeyError:
            raise _refuse_row(path, n, rec) from None
        user, ts, cid, o_t, o_s, o_a, o_g, rank = row
        if not (type(user) is str and type(cid) is str and type(ts) is int
                and type(rank) is int and rank >= 1
                and type(o_t) in _NUMBER and type(o_s) in _NUMBER
                and type(o_a) in _NUMBER and type(o_g) in _NUMBER
                and 0.0 <= o_t <= 1.0 >= o_s >= 0.0 <= o_a <= 1.0 >= o_g >= 0.0):
            raise _refuse_row(path, n, rec)
        if ts != last_ts or user != last_user:  # dump_values writes an hour's rows together
            last_user, last_ts = user, ts
            group = hours.setdefault((user, ts), [])
        group.append((rank, n, new(ValueReport, row)))

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
              rows: List[Tuple[int, int, ValueReport]], l_seq: int
              ) -> Tuple[Tuple[Consultation, ...], Tuple[ValueReport, ...]]:
    """The kept prefix and the reports of one (user, search hour) from its
    rows, each (rank, line number, report); refused unless they name every
    consultation before the hour once, ranked 1..n."""
    before = consultations_before(history, hour)
    where = f"{history.user_id!r} search at t={hour}"
    if before and not rows:
        raise CorpusError(f"{path}: no value rows for {where}")
    by_id = {c.id: c for c in before}
    rows.sort()
    named = set()
    for pos, (rank, n, report) in enumerate(rows, start=1):
        cid = report.cid
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
    if len(named) < len(before):
        absent = next(c.id for c in before if c.id not in named)
        raise CorpusError(f"{path}: value rows for {where} lack consultation {absent!r}")
    reports = tuple(map(_REPORT, rows))
    return tuple(by_id[r.cid] for r in reports[:l_seq]), reports


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
