"""Training: the two contrastive losses, batching, Adam, early stopping.

Each optimization step draws a mini-batch of search sessions.  Every
session contributes a search loss (ground-truth item against uniformly
sampled negative items) and, when its user has linked consultation-action
pairs, one alignment-loss sample whose negatives come from the user's own
action pool first, topped up from other users in the batch and then
globally.  The total adds an L2 penalty over all parameters.  Validation
NDCG@10 gates early stopping and selects the returned checkpoint.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import Consultation, Corpus, SearchSession, consultations_before
from .evaluate import N_NEG, ScoreFn, Sessions, evaluate_sessions
from .linkage import LinkageTable
from .value import SessionAssessment, ValueParams


@dataclass(frozen=True)
class TrainConfig:
    tau1: float = 0.1
    tau2: float = 0.1
    lambda_va: float = 0.1
    lambda_l2: float = 1e-5
    n_neg_search: int = 10
    va_batch: int = 128
    batch_size: int = 72
    max_epochs: int = 100
    patience: int = 5
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.tau1 <= 0 or self.tau2 <= 0:
            raise ValueError(
                f"temperatures must be positive, got tau1={self.tau1} tau2={self.tau2}"
            )
        if self.lambda_va < 0 or self.lambda_l2 < 0:
            raise ValueError("loss weights must be non-negative")
        for name in ("n_neg_search", "va_batch", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


@dataclass(frozen=True)
class Split:
    """Per-user leave-last-out split: last session tests, second-to-last
    validates, the rest train."""

    train: Tuple[Tuple[str, SearchSession], ...]
    valid: Tuple[Tuple[str, SearchSession], ...]
    test: Tuple[Tuple[str, SearchSession], ...]


def split_sessions(corpus: Corpus) -> Split:
    train: List[Tuple[str, SearchSession]] = []
    valid: List[Tuple[str, SearchSession]] = []
    test: List[Tuple[str, SearchSession]] = []
    for user in sorted(corpus.users):
        sessions = corpus.users[user].searches
        if not sessions:
            continue
        test.append((user, sessions[-1]))
        if len(sessions) >= 2:
            valid.append((user, sessions[-2]))
        train.extend((user, s) for s in sessions[:-2])
    return Split(train=tuple(train), valid=tuple(valid), test=tuple(test))


@dataclass(frozen=True)
class SessionExample:
    """One training search session and its model inputs (`build_example`)."""

    user_id: str
    session: SearchSession
    inputs: M.SessionInputs


KeptMap = Dict[Tuple[str, int], Tuple[Consultation, ...]]


def kept_consultations(assessments: Sequence[SessionAssessment]) -> KeptMap:
    return {(a.user_id, a.session.timestamp): a.kept for a in assessments}


def recent_consultations(corpus: Corpus, l_seq: int) -> KeptMap:
    """Each search's l_seq most recent consultations strictly before it,
    oldest first: what a session reads without the value filter."""
    return {(user, s.timestamp): consultations_before(history, s.timestamp)[-l_seq:]
            for user, history in corpus.users.items() for s in history.searches}


def build_example(model: M.Model, corpus: Corpus, table: M.CorpusFeatures, user_id: str,
                  session: SearchSession, kept_map: KeptMap,
                  l_seq: int = ValueParams.l_seq) -> M.SessionInputs:
    """One session's model inputs as indices into the corpus table, all
    strictly before the session's timestamp.

    The consultation sequence is the session's entry in `kept_map`, from
    `kept_consultations` or `recent_consultations`, and nothing else.  The
    attention block reads every prior action.
    """
    ts = session.timestamp
    consultations = [table.consultation_ids[user_id, c.id]
                     for c in kept_map.get((user_id, ts), ())]
    own = table.span(user_id, 1)
    actions = own[table.action_ts[own] < ts]
    items, texts = table.actions[actions, 1], table.actions[actions, 2]
    # Every search session is one of its user's search actions, so the
    # query history is the query texts of the prior search actions.
    query = [k for k in own[table.action_ts[own] == ts]
             if corpus.users[user_id].interactions[k - own[0]] == session.interaction]
    if not query:
        raise ValueError(f"no search of {user_id!r} at {ts} matches the session")
    return M.SessionInputs(M.user_row(model, user_id), np.array(consultations, dtype=np.int64),
                           actions, texts[texts >= 0][-l_seq:], items[items >= 0][-l_seq:],
                           int(table.actions[query[0], 2]), ts)


def sample_negative_items(item_ids: Sequence[str], positive: str, n: int,
                          rng: np.random.Generator) -> List[str]:
    """n uniform draws from the catalog excluding the positive; duplicates
    are possible and kept."""
    if len(item_ids) < 2:
        raise ValueError("need at least two items to sample negatives")
    out: List[str] = []
    while len(out) < n:
        v = item_ids[int(rng.integers(0, len(item_ids)))]
        if v != positive:
            out.append(v)
    return out


def loss_search(model: M.Model, e_final: T.Tensor, positives: Sequence[str],
                negatives: Sequence[Sequence[str]], cfg: TrainConfig) -> T.Tensor:
    """Mean over a batch's sessions (rows of e_final) of the sampled softmax
    of each positive against its own negatives, as one [B, 1 + K] matrix."""
    scores = M.score_candidates(model, e_final,
                                [[p, *negs] for p, negs in zip(positives, negatives)])
    return T.nll_index(T.scale(scores, 1.0 / cfg.tau2), 0)


LinkedPairs = Dict[str, np.ndarray]  # user -> [n_pairs, 2] (consultation, action) indices


def linked_pairs(table: M.CorpusFeatures, corpus: Corpus,
                 linkage: LinkageTable) -> LinkedPairs:
    """Each user's linked consultation-action pairs as corpus-table indices,
    one row per pair; users without links are left out."""
    pairs: LinkedPairs = {}
    for user, links in linkage.links.items():
        if not any(links.values()):
            continue
        # equal actions of a user have equal features, so one index stands for all
        own = {a: i for i, a in enumerate(corpus.users[user].interactions,
                                          table.span(user, 1)[0])}
        pairs[user] = np.array([(table.consultation_ids[user, cid], own[a])
                                for cid in sorted(links) for a, _ in links[cid]], dtype=np.int64)
    return pairs


@dataclass(frozen=True)
class VaSample:
    """One alignment-loss instance: a linked pair plus sampled negative
    actions, anchored at a search-session timestamp; consultation and
    actions are corpus-table indices.

    The anchor matches how the attention block sees history at inference:
    consultations and actions strictly before the session, time embeddings
    measured backward from the session."""

    consultation: int
    positive: int
    negatives: np.ndarray
    anchor_ts: int


def loss_va(model: M.Model, samples: Sequence[VaSample], table: M.CorpusFeatures,
            cfg: TrainConfig) -> T.Tensor:
    """Mean InfoNCE over alignment samples; the positive sits in its own
    denominator alongside the sampled negatives.  Logits carry the same
    1/sqrt(d) factor as the attention block, so the trained projections act
    at inference exactly as they were supervised.

    Each sample's query is scored against its own 1 + K keys, [samples,
    1 + K] logits with the positive first, by `model.cai_key_logits`: one
    product per key table, not one per key.  A sample with fewer negatives
    than the longest has its padding masked out.  The samples' rows come
    from `model.cai_inputs`, as a forward pass's do.
    """
    if not samples:
        raise ValueError("loss_va needs at least one sample")
    cols = M.pad([np.append(s.positive, s.negatives) for s in samples])
    cons = np.array([[s.consultation] for s in samples])
    texts, _, c_rows, key_rows = M.cai_inputs(
        model, table, cons, cols, np.array([[s.anchor_ts] for s in samples]))
    logits = M.cai_key_logits(model, M.cai_queries(model, c_rows[:, 0], texts), key_rows, texts)
    return T.nll_index(T.scale(logits, 1.0 / cfg.tau1), 0, mask=cols >= 0)


def total_loss(l_search: T.Tensor, l_va: Optional[T.Tensor],
               params: Sequence[T.Tensor], cfg: TrainConfig) -> T.Tensor:
    total = l_search
    if l_va is not None and cfg.lambda_va > 0:
        total = T.add(total, T.scale(l_va, cfg.lambda_va))
    if cfg.lambda_l2 > 0:
        total = T.add(total, T.scale(T.l2_norm_sq(*params), cfg.lambda_l2))
    return total


def step_loss(model: M.Model, batch: Sequence[SessionExample], table: M.CorpusFeatures,
              pairs: Optional[LinkedPairs], kept_map: KeptMap, cfg: TrainConfig,
              rng_neg: np.random.Generator, rng_va: np.random.Generator
              ) -> Tuple[T.Tensor, T.Tensor, Optional[T.Tensor]]:
    """One training step's objective over a batch, as one graph: (total,
    search loss, alignment loss or None).  Negative items are drawn from
    `rng_neg` session by session in batch order; alignment samples, when
    `pairs` is given, from `rng_va`."""
    truths = [ex.session.ground_truth_item for ex in batch]
    negatives = [sample_negative_items(model.item_ids, t, cfg.n_neg_search, rng_neg)
                 for t in truths]
    e_final = M.session_forward(model, table, [ex.inputs for ex in batch])
    l_search = loss_search(model, e_final, truths, negatives, cfg)
    l_va = None
    if pairs is not None:
        va_samples = sample_va_batch(batch, table, pairs, cfg, rng_va, kept_map)
        if va_samples:
            l_va = loss_va(model, va_samples, table, cfg)
    return total_loss(l_search, l_va, model.parameters(), cfg), l_search, l_va


def sample_va_batch(batch: Sequence[SessionExample], table: M.CorpusFeatures,
                    pairs: LinkedPairs, cfg: TrainConfig, rng: np.random.Generator,
                    kept_map: KeptMap) -> List[VaSample]:
    """One alignment sample per batch example whose user has linked pairs
    that sit strictly before that example's session.

    Anchoring at the session keeps the supervised geometry identical to the
    inference-time one: queries and keys measure time backward from a later
    search.  Pairs whose consultation `kept_map` holds for that session are
    preferred, since those are the consultations the attention block
    actually reads at inference; without any such pair the freshest linked
    consultation stands in.  Negatives: the user's other prior actions
    first, then prior actions of the other users of the batch, then the
    global pool, up to va_batch in total, sampled without replacement
    within each tier.  Each user's actions are looked up once per call,
    and a user with several sessions in the batch enters the batch tier
    once.
    """
    samples: List[VaSample] = []
    spans = {user: table.span(user, 1) for user in dict.fromkeys(ex.user_id for ex in batch)}
    c_ts, a_ts = table.consultation_ts, table.action_ts
    for ex in batch:
        user = ex.user_id
        anchor = ex.session.timestamp
        if user not in pairs:
            continue
        cs, acts = pairs[user].T
        before = (c_ts[cs] < anchor) & (a_ts[acts] < anchor)
        if not before.any():
            continue
        cs, acts = cs[before], acts[before]
        kept = [table.consultation_ids[user, c.id] for c in kept_map.get((user, anchor), ())]
        preferred = np.flatnonzero(np.isin(cs, kept))
        if not len(preferred):
            preferred = np.flatnonzero(c_ts[cs] == c_ts[cs].max())
        k = preferred[int(rng.integers(0, len(preferred)))]
        consultation, positive = int(cs[k]), int(acts[k])

        def draw(candidates: np.ndarray, need: int) -> np.ndarray:
            usable = candidates[(candidates != positive) & (a_ts[candidates] < anchor)]
            if len(usable) <= need:
                return usable
            return usable[np.sort(rng.choice(len(usable), size=need, replace=False))]

        negatives = draw(spans[user], cfg.va_batch)
        if len(negatives) < cfg.va_batch:
            batch_pool = np.concatenate([np.empty(0, dtype=np.int64)] + [
                span for other, span in spans.items() if other != user])
            negatives = np.append(negatives, draw(batch_pool, cfg.va_batch - len(negatives)))
        if len(negatives) < cfg.va_batch:
            spare = np.ones(len(a_ts), dtype=bool)
            spare[negatives] = False
            negatives = np.append(
                negatives, draw(np.flatnonzero(spare), cfg.va_batch - len(negatives)))
        samples.append(VaSample(consultation, positive, negatives, anchor))
    return samples


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    l_search: float
    l_va: float
    total: float
    valid_ndcg10: float
    elapsed_seconds: float


@dataclass
class TrainResult:
    model: M.Model
    rows: List[EpochRow]
    best_epoch: int
    best_valid_ndcg10: float


def model_score_fn(model: M.Model, corpus: Corpus, kept_map: Optional[KeptMap],
                   l_seq: int = ValueParams.l_seq, value_filter: bool = True) -> ScoreFn:
    """A batch scorer of the sessions of `corpus`, the corpus the model was
    built on: their inputs are sliced from the model's feature table, and
    the batch runs through one forward pass and one scoring product, with
    no graph.  Sessions read the consultations of `kept_map`, or without
    value_filter the l_seq most recent ones.

    Every text of the feature table is encoded once, here, so the scorer
    reads the parameters as they are when it is made: make it after they
    are final."""
    if not value_filter:
        kept_map = recent_consultations(corpus, l_seq)
    elif kept_map is None:
        raise ValueError("value_filter needs precomputed assessments")
    table = model.features
    with T.no_grad():
        encoded = M.encode_text(model, table.token_ids, table.text_offsets)

    def score(sessions: Sessions, candidates: Optional[Sequence[Sequence[str]]]):
        batch = [build_example(model, corpus, table, user_id, session, kept_map, l_seq)
                 for user_id, session in sessions]
        with T.no_grad():
            return M.score_candidates(
                model, M.session_forward(model, table, batch, encoded), candidates).data
    return score


def train(corpus: Corpus, linkage: LinkageTable,
          assessments: Sequence[SessionAssessment], model: M.Model,
          cfg: TrainConfig = TrainConfig(), l_seq: int = ValueParams.l_seq,
          value_filter: bool = True,
          log_path=None,
          on_epoch: Optional[Callable[[EpochRow], None]] = None) -> TrainResult:
    """Mini-batch training of a model built on `corpus`, with per-epoch
    validation and early stopping.

    Returns the model restored to its best-validation parameters plus the
    epoch log.  Fully deterministic for a fixed config seed.  With a
    `log_path`, the log's header is written at the start and each epoch's
    row is appended as the epoch ends; `on_epoch`, when given, is called
    with each row after that.
    """
    split = split_sessions(corpus)
    if not split.train:
        raise ValueError("empty training set: no user has more than two sessions")
    kept_map = (kept_consultations(assessments) if value_filter
                else recent_consultations(corpus, l_seq))
    table = model.features
    examples = [SessionExample(user, session,
                               build_example(model, corpus, table, user, session, kept_map, l_seq))
                for user, session in split.train]
    pairs = linked_pairs(table, corpus, linkage) if cfg.lambda_va > 0 else None
    params = model.parameters()
    opt = T.AdamState(params, lr=cfg.lr)
    # Independent streams per sampling role: toggling one loss term (say
    # lambda_va = 0) must not reshuffle the draws of the others.
    rng_order, rng_neg, rng_va = map(np.random.default_rng,
                                     np.random.SeedSequence(cfg.seed).spawn(3))
    n_neg_valid = min(N_NEG, len(corpus.items) - 1)

    rows: List[EpochRow] = []
    best_ndcg = -1.0
    best_epoch = 0
    best_params: Dict[str, np.ndarray] = {}
    started = time.perf_counter()
    if log_path is not None:
        write_epoch_log([], log_path)

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng_order.permutation(len(examples))
        sum_search = sum_va = sum_total = 0.0
        n_batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [examples[i] for i in order[lo:lo + cfg.batch_size]]
            total, l_search, l_va = step_loss(model, batch, table, pairs, kept_map, cfg,
                                              rng_neg, rng_va)
            T.zero_grads(params)
            T.backward(total)
            T.adam_step(opt)
            sum_search += float(l_search.data)
            sum_va += float(l_va.data) if l_va is not None else 0.0
            sum_total += float(total.data)
            n_batches += 1

        if split.valid:
            report = evaluate_sessions(
                model_score_fn(model, corpus, kept_map, l_seq),
                corpus, split.valid, protocol="ranking", seed=cfg.seed,
                n_neg=n_neg_valid,
            )
            valid_ndcg = report.macro["ndcg@10"]
        else:
            valid_ndcg = 0.0
        rows.append(EpochRow(
            epoch=epoch,
            l_search=sum_search / n_batches,
            l_va=sum_va / n_batches,
            total=sum_total / n_batches,
            valid_ndcg10=valid_ndcg,
            elapsed_seconds=time.perf_counter() - started,
        ))
        if log_path is not None:
            write_epoch_log(rows[-1:], log_path, append=True)
        if on_epoch is not None:
            on_epoch(rows[-1])
        if valid_ndcg > best_ndcg:
            best_ndcg = valid_ndcg
            best_epoch = epoch
            best_params = {k: t.data.copy() for k, t in model.named_parameters().items()}
        if epoch - best_epoch >= cfg.patience:
            break

    if best_params:
        for name, t in model.named_parameters().items():
            t.data = best_params[name]
    return TrainResult(model=model, rows=rows, best_epoch=best_epoch,
                       best_valid_ndcg10=best_ndcg)


def write_epoch_log(rows: Sequence[EpochRow], path, append: bool = False) -> None:
    """Writes the epoch log's header and `rows` as CSV, or appends the rows
    to a log written before."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(
                ["epoch", "l_search", "l_va", "total", "valid_ndcg10", "elapsed_seconds"]
            )
        for r in rows:
            writer.writerow([
                r.epoch, f"{r.l_search:.6f}", f"{r.l_va:.6f}", f"{r.total:.6f}",
                f"{r.valid_ndcg10:.6f}", f"{r.elapsed_seconds:.3f}",
            ])
