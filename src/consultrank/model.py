"""The value-aware personalized search model.

Architecture in one pass: token/item/user/time/action embedding tables; a
mean-pool + tanh-projection text encoder; a consultation-action
cross-attention block (CAI) whose attended output is mixed back into each
consultation text vector through a weighted skip connection; a single
self-attention encoder layer over the joint sequence
[user; consultations; query history; item history; current query] with
segment-type embeddings and no positional encodings; and dot-product
candidate scoring against item embedding rows.

All attention logits are scaled by 1/sqrt(d).  With lambda3_skip = 0 the
CAI attended term vanishes, so model scores no longer depend on the action
sequence handed to the cross-attention.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .corpus import ActionType, Consultation, Corpus, Interaction
from .index import normalize
from .value import time_bucket

UNKNOWN_TOKEN = 0

# Fixed row assignment for the action-type table, in enum-value order.
ACTION_ROWS = {ActionType.BUY: 0, ActionType.CLICK: 1, ActionType.SEARCH: 2}

SEG_USER, SEG_CONSULTATION, SEG_QUERY_HISTORY, SEG_ITEM_HISTORY, SEG_QUERY = range(5)
N_SEGMENTS = 5


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and switches for one model instance."""

    vocab_size: int
    n_items: int
    n_users: int
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
        for name in ("vocab_size", "n_items", "n_users", "n_time_buckets",
                     "max_text_tokens"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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


@dataclass
class Model:
    cfg: ModelConfig
    vocab: Dict[str, int]
    item_ids: Tuple[str, ...]
    item_rows: Dict[str, int]
    user_ids: Tuple[str, ...]
    user_rows: Dict[str, int]
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


def build_vocab(corpus: Corpus) -> Dict[str, int]:
    """Token ids over every text surface in the corpus; id 0 is reserved
    for unknown tokens."""
    terms = set()
    for item in corpus.items.values():
        terms.update(normalize(item.title))
        for attr in item.attributes:
            terms.update(normalize(attr))
    for history in corpus.users.values():
        for c in history.consultations:
            terms.update(normalize(c.text))
        for s in history.searches:
            terms.update(normalize(s.query.text))
        for a in history.interactions:
            if a.target_query is not None:
                terms.update(normalize(a.target_query.text))
    return {term: i + 1 for i, term in enumerate(sorted(terms))}


def token_ids(text: str, vocab: Dict[str, int], max_tokens: int) -> List[int]:
    return [vocab.get(tok, UNKNOWN_TOKEN) for tok in normalize(text)[:max_tokens]]


def config_for_corpus(corpus: Corpus, **overrides) -> ModelConfig:
    """Fill the corpus-derived dimension fields of a ModelConfig."""
    return ModelConfig(
        vocab_size=len(build_vocab(corpus)) + 1,
        n_items=len(corpus.items),
        n_users=len(corpus.users),
        **overrides,
    )


def init_model(corpus: Corpus, cfg: ModelConfig) -> Model:
    vocab = build_vocab(corpus)
    if cfg.vocab_size != len(vocab) + 1:
        raise ValueError(
            f"config vocab_size {cfg.vocab_size} does not match corpus "
            f"vocabulary of {len(vocab)} terms plus the unknown slot"
        )
    if cfg.n_items != len(corpus.items) or cfg.n_users != len(corpus.users):
        raise ValueError(
            f"config sized for {cfg.n_items} items / {cfg.n_users} users but "
            f"corpus has {len(corpus.items)} / {len(corpus.users)}"
        )
    item_ids = tuple(sorted(corpus.items))
    user_ids = tuple(sorted(corpus.users))
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / math.sqrt(cfg.d)

    def init(*shape):
        return T.parameter(rng, shape, scale)

    d = cfg.d
    return Model(
        cfg=cfg,
        vocab=vocab,
        item_ids=item_ids,
        item_rows={v: i for i, v in enumerate(item_ids)},
        user_ids=user_ids,
        user_rows={u: i for i, u in enumerate(user_ids)},
        tables=EmbeddingTables(
            token=init(cfg.vocab_size, d),
            item=init(cfg.n_items, d),
            user=init(cfg.n_users, d),
            time=init(cfg.n_time_buckets, d),
            action=init(len(ACTION_ROWS), d),
        ),
        block=AttentionBlock(w_q=init(d, d), w_k=init(d, d), w_v=init(d, d)),
        text_w=init(d, d),
        text_b=init(d),
        encoder=EncoderLayer(
            w_q=init(d, d), w_k=init(d, d), w_v=init(d, d),
            ff_w=init(d, d), ff_b=init(d),
            segment=init(N_SEGMENTS, d),
        ),
    )


def encode_text(model: Model, text: str) -> T.Tensor:
    """Mean-pooled token embeddings through one tanh-activated linear layer.

    A text with no surviving tokens encodes to the zero vector, which also
    carries no gradient path.
    """
    ids = token_ids(text, model.vocab, model.cfg.max_text_tokens)
    if not ids:
        return T.Tensor(np.zeros(model.cfg.d))
    pooled = T.mean_pool(T.embedding_lookup(model.tables.token, ids))
    return T.tanh(T.add(T.matmul(pooled, model.text_w), model.text_b))


def time_embedding(model: Model, delta_hours: int) -> T.Tensor:
    """Embedding row for the log-scale bucket of a non-negative hour gap.

    Negative gaps (an event later than its anchor) clamp to bucket zero.
    """
    bucket = time_bucket(max(0, delta_hours), model.cfg.n_time_buckets)
    return T.embedding_lookup(model.tables.time, bucket)


def action_embedding(model: Model, interaction: Interaction) -> T.Tensor:
    base = T.embedding_lookup(model.tables.action, ACTION_ROWS[interaction.action_type])
    if interaction.action_type is ActionType.SEARCH:
        return T.add(base, encode_text(model, interaction.target_query.text))
    return T.add(base, item_embedding(model, interaction.target_item))


def item_embedding(model: Model, item_id: str) -> T.Tensor:
    if item_id not in model.item_rows:
        raise ValueError(f"unknown item-id {item_id!r}")
    return T.embedding_lookup(model.tables.item, model.item_rows[item_id])


def user_embedding(model: Model, user_id: str) -> T.Tensor:
    if user_id not in model.user_rows:
        raise ValueError(f"unknown user-id {user_id!r}")
    return T.embedding_lookup(model.tables.user, model.user_rows[user_id])


def cai_query_vec(model: Model, c: Consultation, anchor_ts: int,
                  c_text: Optional[T.Tensor] = None) -> T.Tensor:
    """Attention-query representation of one consultation at an anchor time."""
    if c_text is None:
        c_text = encode_text(model, c.text)
    return T.add(c_text, time_embedding(model, anchor_ts - c.timestamp))


def cai_key_vec(model: Model, a: Interaction, anchor_ts: int) -> T.Tensor:
    """Attention-key (= value) representation of one action at an anchor."""
    return T.add(action_embedding(model, a), time_embedding(model, anchor_ts - a.timestamp))


def cai_forward(model: Model, consultations: Sequence[Consultation],
                actions: Sequence[Interaction], anchor_ts: int) -> List[T.Tensor]:
    """Cross-attention of consultations (queries) over actions (keys and
    values), mixed back through the weighted skip connection.

    Returns one d-vector per consultation; with no actions each output is
    the consultation's raw text embedding.
    """
    c_texts = [encode_text(model, c.text) for c in consultations]
    if not consultations:
        return []
    lam = model.cfg.lambda3_skip
    if not actions or lam == 0.0:
        return c_texts
    q_rows = [
        cai_query_vec(model, c, anchor_ts, c_text=c_texts[i])
        for i, c in enumerate(consultations)
    ]
    k_rows = [cai_key_vec(model, a, anchor_ts) for a in actions]
    weights = cai_attention_weights(model, q_rows, k_rows)
    values = T.matmul(T.concat(k_rows), model.block.w_v)
    attended = T.matmul(weights, values)
    return [
        T.add(c_texts[i], T.scale(T.row(attended, i), lam))
        for i in range(len(consultations))
    ]


def cai_attention_weights(model: Model, q_rows: Sequence[T.Tensor],
                          k_rows: Sequence[T.Tensor]) -> T.Tensor:
    """Softmax attention matrix [n_consultations, n_actions] from projected
    scaled dot-product logits."""
    q_proj = T.matmul(T.concat(list(q_rows)), model.block.w_q)
    k_proj = T.matmul(T.concat(list(k_rows)), model.block.w_k)
    logits = T.scale(T.matmul(q_proj, T.transpose(k_proj)), 1.0 / math.sqrt(model.cfg.d))
    return T.softmax(logits)


def cascaded_encode(model: Model, h_consultations: Sequence[T.Tensor],
                    query_history: Sequence[T.Tensor],
                    item_history: Sequence[T.Tensor],
                    user_vec: T.Tensor, query_vec: T.Tensor) -> T.Tensor:
    """One self-attention encoder layer over the joint sequence, read at
    the current-query position (always last)."""
    seq = [user_vec]
    seg = [SEG_USER]
    seq.extend(h_consultations)
    seg.extend([SEG_CONSULTATION] * len(h_consultations))
    seq.extend(query_history)
    seg.extend([SEG_QUERY_HISTORY] * len(query_history))
    seq.extend(item_history)
    seg.extend([SEG_ITEM_HISTORY] * len(item_history))
    seq.append(query_vec)
    seg.append(SEG_QUERY)

    enc = model.encoder
    x = T.add(T.concat(seq), T.embedding_lookup(enc.segment, seg))
    q_proj = T.matmul(x, enc.w_q)
    k_proj = T.matmul(x, enc.w_k)
    v_proj = T.matmul(x, enc.w_v)
    logits = T.scale(T.matmul(q_proj, T.transpose(k_proj)), 1.0 / math.sqrt(model.cfg.d))
    x = T.add(x, T.matmul(T.softmax(logits), v_proj))
    x = T.add(x, T.tanh(T.add_bias(T.matmul(x, enc.ff_w), enc.ff_b)))
    return T.row(x, len(seq) - 1)


def session_forward(model: Model, user_id: str,
                    consultations: Sequence[Consultation],
                    cai_actions: Sequence[Interaction],
                    query_history_texts: Sequence[str],
                    item_history_ids: Sequence[str],
                    anchor_ts: int, query_text: str) -> T.Tensor:
    """Full forward pass from raw session ingredients to e_final."""
    h = cai_forward(model, consultations, cai_actions, anchor_ts)
    q_hist = [encode_text(model, t) for t in query_history_texts]
    i_hist = [item_embedding(model, v) for v in item_history_ids]
    return cascaded_encode(
        model, h, q_hist, i_hist,
        user_embedding(model, user_id), encode_text(model, query_text),
    )


def score_candidates(model: Model, e_final: T.Tensor,
                     candidate_ids: Sequence[str]) -> T.Tensor:
    """Dot-product scores against candidate item rows, in input order."""
    rows = [model.item_rows[v] if v in model.item_rows else None for v in candidate_ids]
    missing = [v for v, r in zip(candidate_ids, rows) if r is None]
    if missing:
        raise ValueError(f"unknown item-id {missing[0]!r}")
    return T.matmul(T.embedding_lookup(model.tables.item, rows), e_final)


def save_model(model: Model, path) -> None:
    """Persist parameters plus the config needed to rebuild the skeleton.

    Vocabulary and id orderings are derived from the corpus, so the
    checkpoint stays small; loading requires the same corpus."""
    extra = {"model_config": dataclasses.asdict(model.cfg)}
    T.save_checkpoint(model.named_parameters(), path, extra=extra)


def load_model(path, corpus: Corpus) -> Model:
    """Rebuild a model from a checkpoint against the corpus it was trained on.

    Mismatched corpora surface as shape or key errors rather than silent
    misbinding."""
    arrays, extra = T.load_checkpoint(path)
    spec = extra.get("model_config")
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: checkpoint lacks a model_config block")
    try:
        cfg = ModelConfig(**spec)
    except TypeError as exc:  # unknown or missing keys, wrong-typed values
        raise ValueError(
            f"{path}: model_config does not fit this version's ModelConfig ({exc})"
        ) from exc
    model = init_model(corpus, cfg)
    named = model.named_parameters()
    missing = sorted(set(named) - set(arrays))
    unexpected = sorted(set(arrays) - set(named))
    if missing or unexpected:
        raise ValueError(
            f"{path}: checkpoint/model parameter mismatch "
            f"(missing {missing}, unexpected {unexpected})"
        )
    for name, tensor in named.items():
        arr = arrays[name]
        if arr.shape != tensor.data.shape:
            raise ValueError(
                f"{path}: parameter {name} has shape {arr.shape}, "
                f"expected {tensor.data.shape}; was the checkpoint trained "
                "on a different corpus?"
            )
        tensor.data = arr
    return model
