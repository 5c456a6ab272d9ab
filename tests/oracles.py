"""Brute-force reference implementations used to cross-check the library.

Everything here recomputes its answer straight from the defining formulas,
with no caching, no prefit tables, and no reuse of library internals beyond
the corpus data model and the stopword list (which define input
conventions, not the math under test).  Slow and obvious on purpose.

The exceptions are `materialized_loss_va` and the `materialized_*`
forward passes: they read the model's feature table and run on the
autodiff engine, so their gradients can be compared too.  So are
`reference_adam_step` and `reference_sample_va_batch`, the optimizer step
and the alignment sampler written plainly (a fresh array per operand,
`np.isin`, each example's batch tier concatenated on its own): the
library's must match them bit for bit and draw for draw.  And so is
`reference_read_jsonl`, a JSONL reader with one `json.loads` per line:
the library's scanner loop must read and refuse what it does.  And
`reference_token_draw`, the token table drawn with a row for every term
of the consultation, query and item texts: the rows `init_model` keeps
must be that draw's rows for the same terms.
"""

import json
import math
from functools import reduce

import numpy as np

from consultrank import model as M
from consultrank import tensor as T
from consultrank import train as TR
from consultrank.corpus import ActionType, CorpusError
from consultrank.index import STOPWORDS

ACTION_NAMES = ("buy", "click", "search")

_KEEP = set("abcdefghijklmnopqrstuvwxyz0123456789 \t\n\r")


def reference_read_jsonl(path, kind):
    """``(line number, object)`` for each non-blank line of a JSONL file,
    each line decoded and parsed with its own `json.loads`, refusing the
    first bad line."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{path}:{lineno}: malformed {kind} row: not UTF-8 ({exc})") from exc
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(
                f"{path}:{lineno}: malformed {kind} row: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}:{lineno}: malformed {kind} row: expected a JSON object")
        rows.append((lineno, obj))
    return rows


def normalize(text):
    """Lowercase, blank every character that is not an ASCII letter, digit
    or plain whitespace, split, drop stopwords and 1-character tokens."""
    lowered = text.lower()
    cleaned = "".join(ch if ch in _KEEP else " " for ch in lowered)
    return [tok for tok in cleaned.split() if len(tok) > 1 and tok not in STOPWORDS]


def _consultation_text(c):
    return c.user_turn + " " + c.assistant_turn


def _consultation_tokens(c):
    return normalize(_consultation_text(c))


def _action_footprint(a, corpus):
    if a.action_type is ActionType.SEARCH:
        return a.target_query.text
    it = corpus.items[a.target_item]
    return " ".join([it.title, *it.attributes])


def reference_token_draw(corpus, cfg):
    """The token-table draw of a model of `corpus` under `cfg` when every
    term of the consultation, query and item texts had a row: row 0, each
    term's row, and the item table drawn next from the same generator."""
    texts = [_consultation_text(c) for h in corpus.users.values() for c in h.consultations]
    texts += [a.target_query.text for h in corpus.users.values() for a in h.interactions
              if a.target_query is not None]
    texts += [" ".join([it.title, *it.attributes]) for it in corpus.items.values()]
    terms = sorted({tok for text in texts for tok in normalize(text)})
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / math.sqrt(cfg.d)
    table = rng.uniform(-scale, scale, size=(len(terms) + 1, cfg.d))
    item_emb = rng.uniform(-scale, scale, size=(len(corpus.items), cfg.d))
    return table[0], dict(zip(terms, table[1:])), item_emb


def _is_linked(c_tokens, ti_tokens):
    """First-principles rerun of the three text-overlap linking rules."""
    n = len(ti_tokens)
    if n and any(
        c_tokens[i : i + n] == ti_tokens for i in range(len(c_tokens) - n + 1)
    ):
        return True
    distinct = set(ti_tokens)
    return bool(distinct) and len(distinct & set(c_tokens)) * 2 > len(distinct)


def linked_action_times(corpus, window_days=14):
    """(user, cid) -> {action name: [timestamps of linked actions]}."""
    out = {}
    for user in corpus.users:
        hist = corpus.users[user]
        for c in hist.consultations:
            c_tokens = _consultation_tokens(c)
            per = {name: [] for name in ACTION_NAMES}
            for a in hist.interactions:
                delta = a.timestamp - c.timestamp
                if delta < 0 or delta > window_days * 24:
                    continue
                ti_tokens = normalize(_action_footprint(a, corpus))
                if _is_linked(c_tokens, ti_tokens):
                    per[a.action_type.value].append(a.timestamp)
            out[(user, c.id)] = per
    return out


def quantile_cuts(sample, n_buckets=11):
    """Nearest-rank quantile cut points at k/n_buckets, k = 1..n_buckets-1."""
    if not sample:
        return [0] * (n_buckets - 1)
    ordered = sorted(sample)
    n = len(ordered)
    return [ordered[math.ceil(k * n / n_buckets) - 1] for k in range(1, n_buckets)]


def oracle_reports(
    corpus,
    alpha=0.99,
    lambda1=0.5,
    lambda2=0.3,
    lambda_thresh=4,
    window_days=14,
):
    """Value reports for every (user, search) pair, computed from scratch.

    Returns a list of (user, search_ts, rows) in sorted-user then
    session-time order, where each row dict carries the four scores rounded
    to 6 decimals plus the 1-based rank.
    """
    link_times = linked_action_times(corpus, window_days)
    cuts = {}
    for name in ACTION_NAMES:
        cuts[name] = quantile_cuts([len(per[name]) for per in link_times.values()])

    vocab = set()
    for it in corpus.items.values():
        vocab |= set(normalize(" ".join([it.title, *it.attributes])))

    results = []
    for user in sorted(corpus.users):
        hist = corpus.users[user]
        for s in hist.searches:
            posterior_counts = {}
            for a in hist.interactions:
                if a.timestamp >= s.timestamp:
                    name = a.action_type.value
                    posterior_counts[name] = posterior_counts.get(name, 0) + 1
            denom = sum(1.0 / v for v in posterior_counts.values())
            rows = []
            for c in hist.consultations:
                if c.timestamp >= s.timestamp:
                    continue
                o_time = alpha ** (s.timestamp - c.timestamp)
                x = len(set(_consultation_tokens(c)) & vocab)
                o_scope = x / lambda_thresh if x < lambda_thresh else 1.0
                o_action = 0.0
                for name, n_type in posterior_counts.items():
                    gamma = (1.0 / n_type) / denom
                    freq = sum(
                        1
                        for ts in link_times[(user, c.id)][name]
                        if ts >= s.timestamp
                    )
                    bucket = sum(1 for cp in cuts[name] if cp < freq)
                    o_action += gamma * (min(bucket, 10) / 10.0)
                o_agg = (1.0 - lambda1) * o_time + lambda1 * (
                    lambda2 * o_scope + (1.0 - lambda2) * o_action
                )
                rows.append((o_agg, c.timestamp, c.id, o_time, o_scope, o_action))
            rows.sort(key=lambda r: (-r[0], -r[1], r[2]))
            results.append(
                (
                    user,
                    s.timestamp,
                    [
                        {
                            "cid": cid,
                            "o_time": round(o_t, 6),
                            "o_scope": round(o_s, 6),
                            "o_action": round(o_a, 6),
                            "o_aggregate": round(agg, 6),
                            "rank": i + 1,
                        }
                        for i, (agg, _ts, cid, o_t, o_s, o_a) in enumerate(rows)
                    ],
                )
            )
    return results


def rank_by_sort(candidate_ids, scores, ground_truth):
    """1-based position of the ground truth after sorting by (-score, id)."""
    order = sorted(zip(candidate_ids, scores), key=lambda p: (-float(p[1]), p[0]))
    ids = [v for v, _ in order]
    return ids.index(ground_truth) + 1 if ground_truth in ids else None


def hit_rate_at(rank, k):
    return 1.0 if rank <= k else 0.0


def ndcg_at(rank, k):
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


def mrr_at(rank, k):
    return 1.0 / rank if rank <= k else 0.0


def candidates_from_pool(ground_truth, item_ids, n_neg, seed):
    """The ranking protocol's candidates drawn from an explicit pool: every
    other item, sorted; n_neg distinct positions in it, then a shuffle."""
    pool = [v for v in sorted(item_ids) if v != ground_truth]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=n_neg, replace=False)
    candidates = [ground_truth] + [pool[i] for i in chosen]
    rng.shuffle(candidates)
    return candidates


def materialized_loss_va(model, samples, table, cfg):
    """The alignment loss from its definition: each sample's 1 + K keys
    built as [samples, 1 + K, d] sums of one-table lookups, projected
    through w_k and met by the sample's projected query in one batched
    product, then the masked InfoNCE over the positive (column 0)."""
    cols = M.pad([np.append(s.positive, s.negatives) for s in samples])
    real = cols >= 0
    anchors = np.array([s.anchor_ts for s in samples])
    cons = np.array([s.consultation for s in samples])
    # texts: each sample's consultation, then each search key's query, in
    # key order; a text read twice is encoded twice
    key_rows = np.full(cols.shape + (4,), -1, dtype=np.int64)
    key_rows[real, :3] = table.actions[cols[real]]
    key_rows[real, 3] = M.time_buckets(model, (anchors[:, None] - table.action_ts[cols])[real])
    searching = key_rows[..., 2] >= 0
    picked = np.concatenate([cons, key_rows[searching, 2]])
    key_rows[searching, 2] = len(cons) + np.arange(searching.sum())
    tokens = [table.token_ids[table.text_offsets[i]:table.text_offsets[i + 1]] for i in picked]
    texts = M.encode_text(model, np.concatenate(tokens),
                          np.cumsum([0] + [len(t) for t in tokens]))
    query = T.add(T.embedding_lookup(texts, np.arange(len(cons))[:, None]),
                  T.embedding_lookup(model.tables.time, M.time_buckets(
                      model, anchors - table.consultation_ts[cons])[:, None]))
    sources = (model.tables.action, model.tables.item, texts, model.tables.time)
    keys = reduce(T.add, [T.embedding_lookup(source, key_rows[..., k])
                          for k, source in enumerate(sources)])
    logits = T.scale(T.matmul(T.matmul(query, model.block.w_q),
                              T.transpose(T.matmul(keys, model.block.w_k))),
                     1.0 / math.sqrt(model.cfg.d))  # [samples, 1, 1 + K]
    logits = T.matmul(T.Tensor(np.ones(1)), logits)
    return T.nll_index(T.scale(logits, 1.0 / cfg.tau1), 0, mask=real)


def materialized_attention(queries, keys, mask, w_q, w_k, w_v):
    """Attention from its definition: the queries, keys and values each
    projected ([..., n, d] each), then softmax(q_proj k_proj^T / sqrt(d))
    over the keys `mask` keeps, times v_proj."""
    q_proj, k_proj, v_proj = (T.matmul(queries, w_q), T.matmul(keys, w_k),
                              T.matmul(keys, w_v))
    logits = T.scale(T.matmul(q_proj, T.transpose(k_proj)), 1.0 / math.sqrt(w_q.shape[1]))
    return T.matmul(T.softmax(logits, mask=mask), v_proj)


def materialized_cai_forward(model, consultations, actions, texts):
    """`model.cai_forward` with `materialized_attention`."""
    c_texts = T.embedding_lookup(texts, consultations[..., 0])
    lam = model.cfg.lambda3_skip
    if not consultations.size or not actions.size or lam == 0.0:
        return c_texts
    pairs = (consultations[..., :, None, 0] >= 0) & (actions[..., None, :, 0] >= 0)
    block = model.block
    attended = materialized_attention(M.cai_queries(model, consultations, texts),
                                      M.cai_keys(model, actions, texts), pairs,
                                      block.w_q, block.w_k, block.w_v)
    return T.add(c_texts, T.scale(attended, lam))


def materialized_session_forward(model, table, batch):
    """`model.session_forward` over the whole joint sequence: each source
    added by a lookup of its own, the current query selected from the
    sequence by a one-hot product, and `materialized_attention` in both
    the cross-attention and the encoder."""
    consultations = M.pad([s.consultations for s in batch])
    query_texts = np.column_stack([M.pad([s.query_history for s in batch]),
                                   [s.query for s in batch]])
    texts, where, c_rows, a_rows = M.cai_inputs(
        model, table, consultations, M.pad([s.actions for s in batch]),
        np.array([[s.anchor_ts] for s in batch]), query_texts)
    h = materialized_cai_forward(model, c_rows, a_rows, texts)
    queries = where[query_texts]
    blocks = ([[s.user] for s in batch], consultations, queries[:, :-1],
              M.pad([s.item_history for s in batch]), queries[:, -1:])
    sources = (model.tables.user, None, texts, model.tables.item, texts)
    segments = np.repeat(np.arange(M.N_SEGMENTS), [np.shape(b)[1] for b in blocks])
    layout = np.concatenate(blocks, axis=1)
    real = layout >= 0
    enc = model.encoder
    x = T.embedding_lookup(enc.segment, np.where(real, segments, -1))
    for k, source in enumerate(sources):
        if not real[:, segments == k].any():
            continue
        if source is None:  # consultation c sits at position 1 + c
            x = T.add(x, T.matmul(T.Tensor(np.eye(len(segments), h.shape[1], -1)), h))
        else:
            x = T.add(x, T.embedding_lookup(source, np.where(segments == k, layout, -1)))
    select = (np.arange(len(segments)) == len(segments) - 1)[None, :]
    x_query = T.matmul(T.Tensor(select), x)
    attended = materialized_attention(x_query, x, real[:, None, :], enc.w_q, enc.w_k, enc.w_v)
    y = M.squeeze(T.add(x_query, attended))
    return T.add(y, T.tanh(T.add(T.matmul(y, enc.ff_w), enc.ff_b)))


def reference_adam_step(state):
    """`tensor.adam_step` with a fresh array per operand, the gradients
    left in place: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p = p - lr m_hat / (sqrt(v_hat) + eps), in place in p, m and v."""
    state.step += 1
    t = state.step
    b1, b2 = T.ADAM_BETA1, T.ADAM_BETA2
    for p, m, v in zip(state.params, state.m, state.v):
        if p.grad is None:
            continue
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        g2 = g * g
        g2 *= 1.0 - b2
        v += g2
        step = m / (1.0 - b1**t)
        step *= state.lr
        denom = np.divide(v, 1.0 - b2**t, out=g2)
        np.sqrt(denom, out=denom)
        denom += T.ADAM_EPS
        step /= denom
        p.data -= step


def reference_sample_va_batch(batch, table, pairs, cfg, rng, kept_map):
    """`train.sample_va_batch` with `np.isin` for the preferred pairs and
    each example's batch tier concatenated from the other users' spans."""
    samples = []
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

        def draw(candidates, need):
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
        samples.append(TR.VaSample(consultation, positive, negatives, anchor))
    return samples
