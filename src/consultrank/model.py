"""The value-aware personalized search model.

Architecture in one pass: token/item/user/time/action embedding tables; a
mean-pool + tanh-projection text encoder; a consultation-action
cross-attention block (CAI) whose attended output is mixed back into each
consultation text vector through a weighted skip connection; a single
self-attention encoder layer over the joint sequence
[user; consultations; query history; item history; current query] with
segment-type embeddings and no positional encodings; and dot-product
candidate scoring against item embedding rows.

A model is built on one corpus (`init_model`), which it featurizes once
into `Model.features`: its texts become token ids and its actions become
integer rows.  A session's inputs (`SessionInputs`) are indices into
such a table, plus the hour its time gaps are measured back from.
The training forward pass runs on a batch of sessions (one session is a
batch of one), padded with -1, the zero row of every gather, and masked
out of every softmax: one gather per table, one encoding of each distinct
text of the batch, and a handful of batched matrix products.  Scoring
runs one session at a time on plain arrays (`plain_forward`), bit for bit
the training forward over a batch of that session alone.

All attention logits are scaled by 1/sqrt(d).  With lambda3_skip = 0 the
CAI attended term vanishes, so model scores no longer depend on the action
sequence handed to the cross-attention.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import tensor as T
from .corpus import ActionType, Corpus, UserHistory, json_encoder
from .index import normalize

UNKNOWN_TOKEN = 0

# Fixed row assignment for the action-type table, in enum-value order.
ACTION_ROWS = {ActionType.BUY: 0, ActionType.CLICK: 1, ActionType.SEARCH: 2}

# Segment ids, in the order the encoder's sequence lays them out.
SEG_USER, SEG_CONSULTATION, SEG_QUERY_HISTORY, SEG_ITEM_HISTORY, SEG_QUERY = range(5)
N_SEGMENTS = 5


@dataclass(frozen=True)
class ModelConfig:
    """Settings of one model instance.  The sizes of its tables come from
    the corpus it is built on (`init_model`), not from here."""

    d: int = 64
    n_time_buckets: int = 13
    lambda3_skip: float = 1.0
    max_text_tokens: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.lambda3_skip < 0:
            raise ValueError(f"lambda3_skip must be >= 0, got {self.lambda3_skip}")
        if self.max_text_tokens < 1:
            raise ValueError(f"max_text_tokens must be >= 1, got {self.max_text_tokens}")
        if self.n_time_buckets < 2:
            raise ValueError(f"n_time_buckets must be >= 2, got {self.n_time_buckets}")
        if self.seed < 0:  # numpy seeds its generators from non-negative ints only
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EmbeddingTables:
    token: T.Tensor
    item: T.Tensor
    user: T.Tensor
    time: T.Tensor
    action: T.Tensor


@dataclass
class AttentionBlock:
    """Query/key/value projections for the CAI cross-attention; the same
    query/key matrices define the alignment-loss similarity."""

    w_q: T.Tensor
    w_k: T.Tensor
    w_v: T.Tensor


@dataclass
class EncoderLayer:
    w_q: T.Tensor
    w_k: T.Tensor
    w_v: T.Tensor
    ff_w: T.Tensor
    ff_b: T.Tensor
    segment: T.Tensor


#: A layer `attend` reads: its query, key and value projections.
Attention = Union[AttentionBlock, EncoderLayer]


@dataclass
class Model:
    cfg: ModelConfig
    vocab: Dict[str, int]
    item_ids: Tuple[str, ...]
    item_rows: Dict[str, int]
    user_rows: Dict[str, int]
    corpus_sha256: str
    features: CorpusFeatures = field(repr=False)
    tables: EmbeddingTables = field(repr=False)
    block: AttentionBlock = field(repr=False)
    text_w: T.Tensor = field(repr=False)
    text_b: T.Tensor = field(repr=False)
    encoder: EncoderLayer = field(repr=False)

    def named_parameters(self) -> Dict[str, T.Tensor]:
        return {
            "token_emb": self.tables.token,
            "item_emb": self.tables.item,
            "user_emb": self.tables.user,
            "time_emb": self.tables.time,
            "action_emb": self.tables.action,
            "attn_wq": self.block.w_q,
            "attn_wk": self.block.w_k,
            "attn_wv": self.block.w_v,
            "text_w": self.text_w,
            "text_b": self.text_b,
            "enc_wq": self.encoder.w_q,
            "enc_wk": self.encoder.w_k,
            "enc_wv": self.encoder.w_v,
            "enc_ff_w": self.encoder.ff_w,
            "enc_ff_b": self.encoder.ff_b,
            "segment_emb": self.encoder.segment,
        }

    def parameters(self) -> List[T.Tensor]:
        return [t for _, t in sorted(self.named_parameters().items())]


#: The encoder of `corpus_digest`'s text, shared by every call: the text
#: holds no dict, so it needs no circular-reference marks.
_digest_text = json_encoder(check_circular=False)


def corpus_digest(corpus: Corpus) -> str:
    """SHA-256 of one JSON list of the corpus's fields: each item's id, title
    and attributes in id order, then each user in sorted order with its
    searches, consultations and interactions.  `build_corpus` stores every
    list in a canonical order, so any permutation of the input records
    gives the same digest.  The text is what ``json.dumps`` writes, made by
    the C encoder alone: an `Item` and a `Consultation` are tuples of their
    digest fields, in order, and encode as the JSON lists those fields
    make."""
    items = list(map(corpus.items.__getitem__, corpus.item_ids))
    users = [(h.user_id,
              [(s.timestamp, s.query.text, s.ground_truth_item) for s in h.searches],
              h.consultations,
              [(a.action_type.value, a.timestamp, a.target) for a in h.interactions])
             for h in _histories(corpus)]
    return hashlib.sha256("".join(_digest_text([items, users], 0)).encode("utf-8")).hexdigest()


def _param_shapes(cfg: ModelConfig, n_tokens: int, n_items: int,
                  n_users: int) -> Dict[str, Tuple[int, ...]]:
    """Each parameter's shape by its `Model.named_parameters` name, in the
    order `init_model` draws them."""
    d = cfg.d
    return {
        "token_emb": (n_tokens, d), "item_emb": (n_items, d), "user_emb": (n_users, d),
        "time_emb": (cfg.n_time_buckets, d), "action_emb": (len(ACTION_ROWS), d),
        "attn_wq": (d, d), "attn_wk": (d, d), "attn_wv": (d, d),
        "text_w": (d, d), "text_b": (d,),
        "enc_wq": (d, d), "enc_wk": (d, d), "enc_wv": (d, d),
        "enc_ff_w": (d, d), "enc_ff_b": (d,), "segment_emb": (N_SEGMENTS, d),
    }


def _build_model(corpus: Corpus, cfg: ModelConfig, digest: str,
                 make_params: Callable[[Dict[str, Tuple[int, ...]], Dict[str, int],
                                        List[List[str]]], Dict[str, T.Tensor]]
                 ) -> Model:
    """A model of `corpus` whose parameters `make_params` gives, from their
    `_param_shapes`, the vocabulary and the token lists of the table texts.

    Each consultation and search query is normalized once.  The vocabulary
    holds the terms a model input reads, those of the table texts, each
    text cut at `max_text_tokens`, in sorted order (id 0 is reserved for
    unknown tokens).  Item texts add none: items reach the model through
    the item table only.  With the corpus's item and user counts it gives
    the table sizes, and the cut tokens give the model's `features` table.
    """
    histories = _histories(corpus)
    tokens = [normalize(t) for t in _table_texts(histories)]
    read = [toks[:cfg.max_text_tokens] for toks in tokens]
    vocab = {term: i + 1 for i, term in enumerate(sorted(set(chain.from_iterable(read))))}
    item_rows = {v: i for i, v in enumerate(corpus.item_ids)}
    p = make_params(_param_shapes(cfg, len(vocab) + 1, len(item_rows), len(corpus.users)),
                    vocab, tokens)
    return Model(
        cfg=cfg,
        vocab=vocab,
        item_ids=corpus.item_ids,
        item_rows=item_rows,
        user_rows={u: i for i, u in enumerate(sorted(corpus.users))},
        corpus_sha256=digest,
        features=_featurize(histories, _token_ids(vocab, read), item_rows),
        tables=EmbeddingTables(token=p["token_emb"], item=p["item_emb"], user=p["user_emb"],
                               time=p["time_emb"], action=p["action_emb"]),
        block=AttentionBlock(w_q=p["attn_wq"], w_k=p["attn_wk"], w_v=p["attn_wv"]),
        text_w=p["text_w"],
        text_b=p["text_b"],
        encoder=EncoderLayer(w_q=p["enc_wq"], w_k=p["enc_wk"], w_v=p["enc_wv"],
                             ff_w=p["enc_ff_w"], ff_b=p["enc_ff_b"],
                             segment=p["segment_emb"]),
    )


def init_model(corpus: Corpus, cfg: ModelConfig) -> Model:
    """A freshly initialized model of `corpus`: each parameter drawn
    uniformly in [-1/sqrt(d), 1/sqrt(d)] from one generator seeded by
    `cfg.seed`, in `_param_shapes` order.

    The token table is drawn as it was when every catalog term had a row:
    row 0, then one row per term of the table texts (uncut) and the item
    texts, in sorted order.  Row 0 and the rows of the vocabulary's terms
    are kept, so every parameter an input reads starts from the same
    numbers as then.  This is the only place the item texts are
    tokenized, in one `normalize` call on their space-joined concatenation
    (it splits at whitespace after filtering, so that call yields the
    tokens of every item text)."""
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / math.sqrt(cfg.d)

    def draw(shapes: Dict[str, Tuple[int, ...]], vocab: Dict[str, int],
             tokens: List[List[str]]) -> Dict[str, T.Tensor]:
        item_terms = normalize(" ".join(item.text for item in corpus.items.values()))
        drawn = sorted(set(chain.from_iterable(tokens)).union(item_terms))
        row = {term: i + 1 for i, term in enumerate(drawn)}
        params = {name: T.parameter(rng, shape, scale) for name, shape in
                  {**shapes, "token_emb": (len(row) + 1, cfg.d)}.items()}
        kept = [UNKNOWN_TOKEN, *map(row.__getitem__, vocab)]
        params["token_emb"] = T.Tensor(params["token_emb"].data[kept], requires_grad=True)
        return params

    return _build_model(corpus, cfg, corpus_digest(corpus), draw)


class SessionInputs(NamedTuple):
    """One session's model inputs as indices into a corpus feature table
    (`CorpusFeatures`) and the embedding tables.  Time buckets are measured
    back from the anchor."""

    user: int                  # user-table row
    consultations: np.ndarray  # table consultation indices, in the order read
    actions: np.ndarray        # table action indices
    query_history: np.ndarray  # table text indices
    item_history: np.ndarray   # item rows
    query: int                 # table text index
    anchor_ts: int


@dataclass(frozen=True)
class CorpusFeatures:
    """Every consultation and action of a corpus as integer arrays,
    tokenized once; a session's inputs are indices into it.

    Text i is ``token_ids[text_offsets[i]:text_offsets[i + 1]]``:
    consultation j's text is text j, and the query texts of search actions
    follow in action order.
    Action i is row i of `actions` (action-type row, item row, text index;
    -1 where a field does not apply) at `action_ts[i]`.  Each user's
    consultations and actions are contiguous and in corpus order, users in
    sorted order.
    """

    users: Dict[str, int]      # user-id -> row of `starts`
    starts: np.ndarray         # [n_users + 1, 2] first consultation, first action
    consultation_ids: Dict[Tuple[str, str], int]  # (user-id, consultation id) -> index
    consultation_ts: np.ndarray
    token_ids: np.ndarray
    text_offsets: np.ndarray
    actions: np.ndarray        # [n_actions, 3]
    action_ts: np.ndarray

    def span(self, user_id: str, kind: int) -> np.ndarray:
        """Indices of the user's consultations (kind 0) or actions (1)."""
        k = self.users[user_id]
        return np.arange(self.starts[k, kind], self.starts[k + 1, kind])


def _token_ids(vocab: Dict[str, int],
               tokens: Sequence[List[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """Each token list's ids (unknown terms map to UNKNOWN_TOKEN),
    concatenated, and the offsets that split them."""
    per_text = [[vocab.get(tok, UNKNOWN_TOKEN) for tok in toks] for toks in tokens]
    offsets = np.cumsum([0] + [len(ids) for ids in per_text])
    return np.fromiter(chain.from_iterable(per_text), np.int32, offsets[-1]), offsets


def _rows(index: Dict[str, int], ids: Sequence[str], kind: str) -> np.ndarray:
    missing = [v for v in ids if v not in index]
    if missing:
        raise ValueError(f"unknown {kind}-id {missing[0]!r}")
    return np.array([index[v] for v in ids], dtype=np.int32)


def user_row(model: Model, user_id: str) -> int:
    """The user's row of the user table; unknown user ids are rejected."""
    return int(_rows(model.user_rows, [user_id], "user")[0])


def _histories(corpus: Corpus) -> List[UserHistory]:
    return [corpus.users[u] for u in sorted(corpus.users)]


def _table_texts(histories: Sequence[UserHistory]) -> List[str]:
    """A feature table's texts in its layout: every consultation, then the
    query of every search action."""
    return [c.text for h in histories for c in h.consultations] + [
        a.target_query.text for h in histories for a in h.interactions
        if a.target_query is not None]


def _featurize(histories: Sequence[UserHistory], tokenized: Tuple[np.ndarray, np.ndarray],
               item_rows: Dict[str, int]) -> CorpusFeatures:
    """The feature table of `histories`, given the token ids and offsets of
    their `_table_texts`; unknown item ids are rejected."""
    consultations = [c for h in histories for c in h.consultations]
    actions = [a for h in histories for a in h.interactions]
    is_search = np.array([a.target_query is not None for a in actions], dtype=bool)
    rows = np.full((len(actions), 3), -1, dtype=np.int32)
    rows[:, 0] = [ACTION_ROWS[a.action_type] for a in actions]
    rows[~is_search, 1] = _rows(item_rows, [a.target_item for a in actions
                                            if a.target_query is None], "item")
    rows[is_search, 2] = len(consultations) + np.arange(is_search.sum())
    starts = np.cumsum([[0, 0]] + [[len(h.consultations), len(h.interactions)]
                                   for h in histories], axis=0)
    return CorpusFeatures(
        users={h.user_id: k for k, h in enumerate(histories)},
        starts=starts,
        consultation_ids={(h.user_id, c.id): j for h, first in zip(histories, starts[:, 0])
                          for j, c in enumerate(h.consultations, first)},
        consultation_ts=np.array([c.timestamp for c in consultations], dtype=np.int64),
        token_ids=tokenized[0], text_offsets=tokenized[1], actions=rows,
        action_ts=np.array([a.timestamp for a in actions], dtype=np.int64),
    )


@lru_cache(maxsize=None)
def _bucket_edges(n_time_buckets: int) -> np.ndarray:
    """The gap each bucket past the first starts at, read-only: bucket k
    starts at gap 2**k - 1, and no int64 gap reaches past k = 63."""
    edges = np.array([(1 << k) - 1 for k in range(1, min(n_time_buckets, 64))],
                     dtype=np.int64)
    edges.flags.writeable = False
    return edges


def time_buckets(model: Model, deltas) -> np.ndarray:
    """Log-scale bucket of each hour gap, as `value.time_bucket` gives it:
    floor(log2(gap + 1)), capped at the last bucket.  Negative gaps (an
    event later than its anchor) clamp to bucket zero."""
    return np.searchsorted(_bucket_edges(model.cfg.n_time_buckets),
                           np.asarray(deltas, dtype=np.int64), side="right").astype(np.int32)


def encode_text(model: Model, token_ids: np.ndarray, offsets: np.ndarray) -> T.Tensor:
    """[n_texts, d]: each text's mean-pooled token embeddings through one
    tanh-activated linear layer.

    A text with no tokens encodes to the zero vector, which also carries no
    gradient path.
    """
    nonempty = np.diff(offsets) > 0
    if not nonempty.any():
        return T.Tensor(np.zeros((len(nonempty), model.cfg.d)))
    pooled = T.lookup_mean(model.tables.token, token_ids,
                           np.append(offsets[:-1][nonempty], offsets[-1]))
    encoded = T.tanh(T.add(T.matmul(pooled, model.text_w), model.text_b))
    if nonempty.all():
        return encoded
    return T.embedding_lookup(encoded, np.where(nonempty, np.cumsum(nonempty) - 1, -1))


def encode_texts(model: Model, table: CorpusFeatures,
                 texts: np.ndarray) -> Tuple[T.Tensor, np.ndarray]:
    """Each distinct table text among `texts` (-1 entries are skipped),
    encoded once by one `encode_text` call, in index order; and the map
    from table text index to encoded row, -1 for a text not encoded.  The
    map has one entry more than the table has texts, so -1 maps to -1."""
    # A mask over the table, not np.unique, which would import numpy.ma.
    read = np.zeros(len(table.text_offsets) - 1, dtype=bool)
    read[texts[texts >= 0]] = True
    distinct = np.flatnonzero(read)
    where = np.full(len(table.text_offsets), -1, dtype=np.int64)
    where[distinct] = np.arange(len(distinct))
    starts = table.text_offsets[distinct]
    lengths = table.text_offsets[distinct + 1] - starts
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
    return encode_text(model, table.token_ids[gather], offsets), where


def pad(rows: Sequence[np.ndarray]) -> np.ndarray:
    """[len(rows), n_max, ...]: each array's rows, then -1 rows up to the
    longest; the arrays share their shape past the first axis."""
    n_max = max(len(r) for r in rows)
    out = np.full((len(rows), n_max, *np.shape(rows[0])[1:]), -1, np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def cai_inputs(model: Model, table: CorpusFeatures, consultations: np.ndarray,
               actions: np.ndarray, anchors: np.ndarray, *texts: np.ndarray
               ) -> Tuple[T.Tensor, np.ndarray, np.ndarray, np.ndarray]:
    """The cross-attention inputs of a batch, from [B, n] table indices of
    its consultations and actions (-1 for padding) and its anchors [B, 1]:
    `encode_texts` of every text the consultations, the search actions and
    the extra `texts` read (encoded rows, then the map to them), and the
    rows `cai_queries` and `cai_keys` read: [B, n_c, 2] per consultation,
    [B, n_a, 4] per action, time buckets counted back from the anchors."""
    encoded, where = encode_texts(model, table, np.concatenate([
        np.ravel(consultations), table.actions[actions[actions >= 0], 2],
        *map(np.ravel, texts)]))

    def timed(fields: np.ndarray, ts: np.ndarray, index: np.ndarray) -> np.ndarray:
        real = index >= 0
        rows = np.full(index.shape + (fields.shape[1] + 1,), -1, dtype=np.int64)
        rows[real] = np.column_stack([fields[index[real]],
                                      time_buckets(model, (anchors - ts[index])[real])])
        return rows

    # consultation j's text is table text j
    c_rows = timed(where[:, None], table.consultation_ts, consultations)
    a_rows = timed(table.actions, table.action_ts, actions)
    a_rows[..., 2] = where[a_rows[..., 2]]
    return encoded, where, c_rows, a_rows


def squeeze(t: T.Tensor) -> T.Tensor:
    """[B, 1, n] -> [B, n]."""
    return T.reshape(t, (t.shape[0], t.shape[2]))


def cai_queries(model: Model, consultations: np.ndarray, texts: T.Tensor) -> T.Tensor:
    """Attention queries: each consultation's text vector plus the embedding
    of its time bucket ([..., 2] rows of text index, time bucket)."""
    return T.lookup_sum((texts, consultations[..., 0]),
                        (model.tables.time, consultations[..., 1]))


def key_tables(model: Model, texts: T.Tensor) -> Tuple[T.Tensor, ...]:
    """The tables that columns 0-3 of an action row index."""
    return (model.tables.action, model.tables.item, texts, model.tables.time)


def cai_keys(model: Model, actions: np.ndarray, texts: T.Tensor) -> T.Tensor:
    """Attention keys (= values): each action's type row, plus its item's
    row or its query's text vector, plus its time bucket's row."""
    return T.lookup_sum(*[(table, actions[..., k])
                          for k, table in enumerate(key_tables(model, texts))])


def key_space(layer: Attention, queries: T.Tensor) -> T.Tensor:
    """queries w_q w_k^T / sqrt(d): the queries carried into the space of
    the unprojected keys, where a dot product with a key is the projected,
    scaled logit (q w_q)(k w_k)^T / sqrt(d)."""
    return T.scale(T.matmul(T.matmul(queries, layer.w_q), T.transpose(layer.w_k)),
                   1.0 / math.sqrt(layer.w_q.shape[1]))


def attention_logits(layer: Attention, queries: T.Tensor, keys: T.Tensor) -> T.Tensor:
    """[..., n_queries, n_keys] projected dot products scaled by 1/sqrt(d),
    per session for stacked inputs.  The d x d projections multiply the
    few query rows (`key_space`), never the many key rows."""
    return T.matmul_t(key_space(layer, queries), keys)


def attend(layer: Attention, queries: T.Tensor, keys: T.Tensor,
           mask: np.ndarray) -> T.Tensor:
    """[..., n_queries, d]: softmax((q w_q)(k w_k)^T / sqrt(d)) (k w_v),
    keys masked where `mask` is False, computed as (softmax k) w_v from
    `attention_logits`: no [..., n_keys, d] projection is built."""
    weights = T.softmax(attention_logits(layer, queries, keys), mask=mask)
    return T.matmul(T.matmul(weights, keys), layer.w_v)


def cai_key_logits(model: Model, queries: T.Tensor, actions: np.ndarray,
                   texts: T.Tensor) -> T.Tensor:
    """[n, n_keys]: the logits `attention_logits` of the attention block
    gives each of n queries ([n, d]) against its own row of keys, `cai_keys`
    of `actions` ([n, n_keys, 4], -1 rows for padding, which score 0), with
    no key built.

    A key is a sum of table rows, so a query's projected product with it
    is the sum of the query's products with those rows.  The queries meet
    w_q w_k^T once, then each key table in one product, and each logit adds
    one column of each product."""
    qk = key_space(model.block, queries)
    return reduce(T.add, [T.gather_columns(T.matmul(qk, T.transpose(table)), actions[..., k])
                          for k, table in enumerate(key_tables(model, texts))])


def cai_forward(model: Model, consultations: np.ndarray, actions: np.ndarray,
                texts: T.Tensor) -> T.Tensor:
    """Cross-attention of consultations (queries) over actions (keys and
    values), mixed back through the weighted skip connection.

    Takes one session's rows ([n_c, 2] and [n_a, 4]) or a batch's, padded
    with -1 rows ([B, n_c, 2] and [B, n_a, 4]), and returns one row per
    consultation.  A consultation with no actions to attend to, or any
    with lambda3_skip = 0, gets its raw text vector; a padding row gets zeros.
    """
    c_texts = T.embedding_lookup(texts, consultations[..., 0])
    lam = model.cfg.lambda3_skip
    if not consultations.size or not actions.size or lam == 0.0:
        return c_texts
    pairs = (consultations[..., :, None, 0] >= 0) & (actions[..., None, :, 0] >= 0)
    attended = attend(model.block, cai_queries(model, consultations, texts),
                      cai_keys(model, actions, texts), pairs)
    return T.add(c_texts, T.scale(attended, lam))


def session_forward(model: Model, table: CorpusFeatures,
                    batch: Sequence[SessionInputs]) -> T.Tensor:
    """Full forward pass from a batch of sessions' inputs, indices into
    `table`, to e_final, [B, d].

    Every distinct text of the batch is encoded once (`cai_inputs`).  The
    CAI output feeds one self-attention encoder layer over each session's
    joint sequence [user; consultations; query history; item history;
    current query], each segment padded to its longest in the batch, and
    read at the current-query position (always last).  The sequence is
    one `lookup_sum` of gathers, each placing one source's rows at its
    segment's positions (the CAI rows as rows of the flattened CAI
    output), and padding positions are masked out of the attention.  Only
    the current query's row is read, so it alone attends (`attend`), and
    it is gathered from its sources, not selected from the sequence.
    """
    consultations = pad([s.consultations for s in batch])
    query_texts = np.column_stack([pad([s.query_history for s in batch]),
                                   [s.query for s in batch]])
    texts, where, c_rows, a_rows = cai_inputs(
        model, table, consultations, pad([s.actions for s in batch]),
        np.array([[s.anchor_ts] for s in batch]), query_texts)
    h = cai_forward(model, c_rows, a_rows, texts)
    queries = where[query_texts]
    blocks = (  # each segment's rows in its source, -1 for padding
        [[s.user] for s in batch], consultations, queries[:, :-1],
        pad([s.item_history for s in batch]), queries[:, -1:],
    )
    layout = np.concatenate(blocks, axis=1)
    segments = np.repeat(np.arange(N_SEGMENTS), [np.shape(b)[1] for b in blocks])
    real = layout >= 0
    enc = model.encoder
    lookups = [(enc.segment, np.where(real, segments, -1))]
    for source, segs in ((model.tables.user, [SEG_USER]),
                         (texts, [SEG_QUERY_HISTORY, SEG_QUERY]),
                         (model.tables.item, [SEG_ITEM_HISTORY])):
        at = np.where((segments[:, None] == segs).any(axis=1), layout, -1)
        if (at >= 0).any():
            lookups.append((source, at))
    # consultation c of session b sits at position 1 + c; it is row b n_c + c of h
    at = np.where(real & (segments == SEG_CONSULTATION),
                  np.arange(len(batch))[:, None] * h.shape[1] + np.arange(len(segments)) - 1, -1)
    if (at >= 0).any():
        lookups.append((T.reshape(h, (-1, h.shape[2])), at))
    x = T.lookup_sum(*lookups)
    # the current query's position holds its segment row and its text only
    x_query = T.lookup_sum((enc.segment, np.full((len(batch), 1), SEG_QUERY)),
                           (texts, queries[:, -1:]))
    y = squeeze(T.add(x_query, attend(enc, x_query, x, real[:, None, :])))
    return T.add(y, T.tanh(T.add(T.matmul(y, enc.ff_w), enc.ff_b)))


def score_candidates(model: Model, e_final: T.Tensor,
                     candidate_ids: Optional[Sequence[Sequence[str]]]) -> T.Tensor:
    """[B, n] dot-product scores of each session's e_final row against the
    item rows of its n candidates, in input order; with None, against every
    item row, in `Model.item_ids` order (the catalog of the model's corpus),
    as one product with the item table."""
    if candidate_ids is None:
        return T.matmul(e_final, T.transpose(model.tables.item))
    rows = np.array([_rows(model.item_rows, ids, "item") for ids in candidate_ids])
    e_rows = T.embedding_lookup(e_final, np.arange(len(rows))[:, None])
    return squeeze(T.matmul(e_rows, T.transpose(T.embedding_lookup(model.tables.item, rows))))


@dataclass(frozen=True)
class PlainModel:
    """What scoring one session at a time reads (`plain_forward`,
    `plain_scores`): the model, its parameter arrays by
    `Model.named_parameters` name (the arrays themselves, so make it once
    they are final), every text of its feature table encoded by one
    `encode_text` call, each table action's key up to its time row
    (`_action_keys`), and whether each table text has tokens, with a False
    entry past the last for index -1."""

    model: Model
    params: Dict[str, np.ndarray]
    texts: np.ndarray
    keys: np.ndarray
    nonempty: np.ndarray


def _action_keys(params: Dict[str, np.ndarray], fields: np.ndarray,
                 text_rows: np.ndarray) -> np.ndarray:
    """[n, d]: the key of each action row of `fields` up to its time row,
    its type row plus its item's row or its query's text row, added in
    `cai_keys` order; `text_rows` holds the text rows of the actions that
    have a query, in order."""
    keys = params["action_emb"][fields[:, 0]]
    item = fields[:, 1] >= 0
    keys[item] += params["item_emb"][fields[item, 1]]
    keys[fields[:, 2] >= 0] += text_rows
    return keys


def plain_model(model: Model) -> PlainModel:
    """The `PlainModel` of a model's parameters as they are now."""
    table = model.features
    params = {name: t.data for name, t in model.named_parameters().items()}
    texts = encode_text(model, table.token_ids, table.text_offsets).data
    fields = table.actions
    return PlainModel(model, params, texts,
                      _action_keys(params, fields, texts[fields[fields[:, 2] >= 0, 2]]),
                      np.append(np.diff(table.text_offsets) > 0, False))


def _session_rows(plain: PlainModel, s: SessionInputs) -> Tuple[np.ndarray, ...]:
    """The text rows of the session's consultations, query history and
    query, and its actions' keys up to their time rows.  They are rows of
    the `PlainModel` tables, except for a session that reads one text with
    tokens and no other: `encode_texts` encodes its batch as a one-row
    product, which BLAS sums in another order than a product of more rows,
    so that text is encoded alone here too, and only its rows change."""
    table, p = plain.model.features, plain.params
    c, history, a = s.consultations, s.query_history, s.actions
    rows = plain.texts[c], plain.texts[history], plain.texts[[s.query]], plain.keys[a]
    read = np.concatenate([c, table.actions[a, 2], history, [s.query]])
    read = read[plain.nonempty[read]]
    if not len(read) or (read != read[0]).any():
        return rows
    lone = read[0]
    ids = table.token_ids[table.text_offsets[lone]:table.text_offsets[lone + 1]]
    pooled = np.add.reduceat(p["token_emb"][ids], [0], axis=0) / len(ids)
    row = np.tanh(pooled @ p["text_w"] + p["text_b"])
    for text_rows, index in zip(rows, (c, history, [s.query])):
        text_rows[np.equal(index, lone)] = row
    hit = table.actions[a, 2] == lone
    rows[3][hit] = _action_keys(p, table.actions[a[hit]], row)
    return rows


def _plain_attend(p: Dict[str, np.ndarray], layer: str, queries: np.ndarray,
                  keys: np.ndarray) -> np.ndarray:
    """`attend` of the layer whose projections are named ``<layer>_wq``,
    ``_wk`` and ``_wv``, with no mask."""
    w_q = p[layer + "_wq"]
    space = ((queries @ w_q) @ p[layer + "_wk"].T) * (1.0 / math.sqrt(w_q.shape[1]))
    logits = space @ keys.T
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return ((e / e.sum(axis=-1, keepdims=True)) @ keys) @ p[layer + "_wv"]


def plain_forward(plain: PlainModel, s: SessionInputs) -> np.ndarray:
    """e_final of one session, [1, d], equal bit for bit to
    `session_forward(model, model.features, [s])`: the same products and
    sums in the same order, without the masks and the guards of fully
    masked rows, which change nothing where nothing is padded.  The
    encoder sequence is built by concatenation, not by gathers into a
    padded block, which place the same rows exactly."""
    model, table, p = plain.model, plain.model.features, plain.params
    h, history, query, a_keys = _session_rows(plain, s)
    c, a, time = s.consultations, s.actions, p["time_emb"]
    if len(c) and len(a) and model.cfg.lambda3_skip != 0.0:
        queries = h + time[time_buckets(model, s.anchor_ts - table.consultation_ts[c])]
        keys = a_keys + time[time_buckets(model, s.anchor_ts - table.action_ts[a])]
        h = h + _plain_attend(p, "attn", queries, keys) * model.cfg.lambda3_skip
    x = np.concatenate([p["user_emb"][[s.user]], h, history,
                        p["item_emb"][s.item_history], query])
    # each row plus its segment's row: one sum per row, so order does not matter
    x += p["segment_emb"][np.repeat(np.arange(N_SEGMENTS), [
        1, len(c), len(s.query_history), len(s.item_history), 1])]
    y = x[-1:] + _plain_attend(p, "enc", x[-1:], x)
    return y + np.tanh(y @ p["enc_ff_w"] + p["enc_ff_b"])


def plain_scores(plain: PlainModel, e_final: np.ndarray,
                 candidate_ids: Optional[Sequence[str]]) -> np.ndarray:
    """[1, n]: `score_candidates` of one session's e_final ([1, d]) and its
    candidates, or with None the whole catalog."""
    items = plain.params["item_emb"]
    if candidate_ids is not None:
        items = items[_rows(plain.model.item_rows, candidate_ids, "item")]
    return e_final @ items.T


#: The checkpoint `extra` key of the `corpus_digest` a model was trained on.
#: Checkpoints that carry the older ``corpus_sha256`` key, a digest of the
#: corpus's event records, lack it and are refused.
CORPUS_KEY = "corpus_fields_sha256"


def save_model(model: Model, path) -> Dict[str, str]:
    """Persist parameters plus the config needed to rebuild the skeleton;
    returns the SHA-256 of each file written, by path.

    Vocabulary and id orderings are derived from the corpus, so the
    checkpoint stays small; it stores the corpus's digest, and loading
    requires the same corpus."""
    extra = {"model_config": dataclasses.asdict(model.cfg), CORPUS_KEY: model.corpus_sha256}
    return T.save_checkpoint(model.named_parameters(), path, extra=extra)


def _fits(value, kind: str) -> bool:
    """Whether a JSON value is of a ModelConfig field's type: a non-bool int
    for "int", a non-bool number for "float"."""
    types = int if kind == "int" else (int, float)
    return isinstance(value, types) and not isinstance(value, bool)


def load_model(path, corpus: Corpus) -> Model:
    """Rebuild a model from a checkpoint against the corpus it was trained on.

    The checkpoint's arrays become the parameters as they are, shape-checked
    against the corpus's table sizes; nothing is drawn, so no item text is
    tokenized.  A corpus whose digest differs from the one stored at save
    time is refused with a ValueError rather than bound silently, and so is
    a checkpoint with more token rows than the vocabulary gives, written
    when every catalog term had one."""
    arrays, extra = T.load_checkpoint(path)
    spec = extra.get("model_config")
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: checkpoint lacks a model_config block")
    # A missing key would silently take its default, not the trained value.
    kinds = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    missing = sorted(set(kinds) - set(spec))
    if missing:
        raise ValueError(f"{path}: model_config lacks {missing}")
    # ModelConfig checks ranges only: 2.5 or "x" would reach numpy as a size.
    wrong = sorted(name for name, kind in kinds.items() if not _fits(spec[name], kind))
    if wrong:
        raise ValueError(f"{path}: model_config has wrong-typed {wrong}")
    try:
        cfg = ModelConfig(**spec)
    except TypeError as exc:  # unknown keys
        raise ValueError(
            f"{path}: model_config does not fit this version's ModelConfig ({exc})"
        ) from exc
    if CORPUS_KEY not in extra:
        raise ValueError(f"{path}: checkpoint has no {CORPUS_KEY}: it was written before "
                         "the corpus digest changed; retrain to write one this version reads")
    digest = corpus_digest(corpus)
    if extra[CORPUS_KEY] != digest:
        raise ValueError(
            f"{path}: checkpoint was trained on another corpus ({CORPUS_KEY} "
            f"{extra[CORPUS_KEY]!r}, this corpus {digest!r})"
        )

    def checked(shapes: Dict[str, Tuple[int, ...]], *_) -> Dict[str, T.Tensor]:
        missing = sorted(set(shapes) - set(arrays))
        unexpected = sorted(set(arrays) - set(shapes))
        if missing or unexpected:
            raise ValueError(
                f"{path}: checkpoint/model parameter mismatch "
                f"(missing {missing}, unexpected {unexpected})"
            )
        # The corpus is the trained one, so more token rows than its
        # vocabulary gives come from a version that gave item terms rows.
        rows = arrays["token_emb"].shape[:1]
        if rows > shapes["token_emb"][:1]:
            raise ValueError(
                f"{path}: token_emb has {rows[0]} rows where this corpus's vocabulary "
                f"gives {shapes['token_emb'][0]}: the checkpoint was written when every "
                "catalog term had a token row; retrain to write one this version reads"
            )
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(
                    f"{path}: parameter {name} has shape {arrays[name].shape}, "
                    f"expected {shape} for the corpus the checkpoint names"
                )
        return {name: T.Tensor(arrays[name], requires_grad=True) for name in shapes}

    return _build_model(corpus, cfg, digest, checked)
