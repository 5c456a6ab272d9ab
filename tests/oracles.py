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
must be that draw's rows for the same terms.  And `reference_build_corpus`,
the corpus builder written with one `isinstance` per field and one
constructor call per record: `build_corpus` must build what it builds and
refuse what it refuses, at the same record and in the same words.
And the replaced formulations of the training forward, kept as they were
(`masked_add_lookup_sum`, `gather_mean_pool_encode_text`,
`ones_product_squeeze`, `transposed_key_logits`,
`transposed_candidate_scores` and `placement_session_forward`, see
`replaced_formulations`): the library's
training step must give their e_final, losses and gradients bit for bit.
And `reference_sample_negative_items`, which draws one item at a time.
"""

import json
import math
from functools import reduce

import numpy as np

from consultrank import model as M
from consultrank import tensor as T
from consultrank import train as TR
from consultrank.corpus import (ActionType, Consultation, Corpus, CorpusError, Interaction,
                                Item, Query, RecordError, SearchSession, UserHistory)
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


def _reference_hours(raw):
    """`raw` floored to an integer hour, or the reason it is refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None, f"ts_hours must be a number, got {raw!r}"
    if isinstance(raw, float) and (math.isnan(raw) or math.isinf(raw)):
        return None, f"ts_hours must be finite, got {raw!r}"
    hours = math.floor(raw)
    if hours < 0:
        return None, f"ts_hours must be non-negative, got {raw!r}"
    if hours > 2**63 - 1:
        return None, f"ts_hours must be at most {2**63 - 1}, got {raw!r}"
    return hours, None


def _nonempty_str(value):
    return isinstance(value, str) and value != ""


def reference_build_corpus(item_records, event_records):
    """A Corpus from record dicts, each field checked by its own
    `isinstance` in the order `build_corpus` documents and each record made
    by its constructor; the first refused row raises a RecordError with its
    kind, 0-based position and reason."""
    items = {}
    for pos, obj in enumerate(item_records):
        if not _nonempty_str(obj.get("id")):
            raise RecordError("item", pos, "missing or empty field 'id'")
        if not _nonempty_str(obj.get("title")):
            raise RecordError("item", pos, "missing or empty field 'title'")
        attrs = obj.get("attributes")
        if attrs is None:
            attrs = []
        if not isinstance(attrs, list) or not all(isinstance(a, str) for a in attrs):
            raise RecordError("item", pos, "field 'attributes' must be a list of strings "
                              f"or null, got {attrs!r}")
        if obj["id"] in items:
            raise RecordError("item", pos, f"duplicate item id {obj['id']!r}")
        items[obj["id"]] = Item(obj["id"], obj["title"], tuple(attrs))

    searches, consults, inters = {}, {}, {}
    for pos, obj in enumerate(event_records):
        user, etype = obj.get("user"), obj.get("type")
        if not _nonempty_str(user):
            raise RecordError("event", pos, "missing or empty field 'user'")
        if not _nonempty_str(etype):
            raise RecordError("event", pos, "missing or empty field 'type'")
        ts, refused = _reference_hours(obj.get("ts_hours"))
        if refused:
            raise RecordError("event", pos, refused)
        if etype == "consult":
            cid = obj.get("cid")
            if not _nonempty_str(cid):
                raise RecordError("event", pos, "missing or empty field 'cid'")
            if any(c.id == cid for c in consults.get(user, [])):
                raise RecordError("event", pos,
                                  f"duplicate consultation id {cid!r} for user {user!r}")
            turns = []
            for key in ("user_turn", "assistant_turn"):
                turn = obj.get(key)
                if turn is not None and not isinstance(turn, str):
                    raise RecordError("event", pos,
                                      f"field '{key}' must be a string or null, got {turn!r}")
                turns.append(turn or "")
            if turns == ["", ""]:
                raise RecordError("event", pos, f"consultation {cid!r} has two empty turns")
            consults.setdefault(user, []).append(Consultation(cid, turns[0], turns[1], ts))
        elif etype == "search":
            query, gt = obj.get("query"), obj.get("ground_truth_item")
            if not _nonempty_str(query):
                raise RecordError("event", pos, "missing or empty field 'query'")
            if not _nonempty_str(gt):
                raise RecordError("event", pos, "missing or empty field 'ground_truth_item'")
            if gt not in items:
                raise RecordError("event", pos, f"ground_truth_item {gt!r} not in items")
            action = Interaction(ActionType.SEARCH, ts, target_query=Query(query, ts))
            searches.setdefault(user, []).append(SearchSession(Query(query, ts), action, gt))
            inters.setdefault(user, []).append(action)
        elif etype in ("click", "buy"):
            iid = obj.get("item")
            if not _nonempty_str(iid):
                raise RecordError("event", pos, "missing or empty field 'item'")
            if iid not in items:
                raise RecordError("event", pos, f"item {iid!r} not in items")
            inters.setdefault(user, []).append(Interaction(ActionType(etype), ts, target_item=iid))
        else:
            raise RecordError("event", pos, f"unknown event type {etype!r}")

    users = {}
    for user in sorted(set(searches) | set(consults) | set(inters)):
        users[user] = UserHistory(
            user_id=user,
            searches=tuple(sorted(searches.get(user, []), key=lambda s: (
                s.timestamp, s.query.text, s.ground_truth_item))),
            consultations=tuple(sorted(consults.get(user, []), key=lambda c: (c.timestamp, c.id))),
            interactions=tuple(sorted(inters.get(user, []), key=lambda a: (
                a.timestamp, a.action_type.value, a.target))))
    return Corpus(items=items, users=users)


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
    p = model.params
    query = T.add(T.embedding_lookup(texts, np.arange(len(cons))[:, None]),
                  T.embedding_lookup(p["time_emb"], M.time_buckets(
                      model, anchors - table.consultation_ts[cons])[:, None]))
    sources = (p["action_emb"], p["item_emb"], texts, p["time_emb"])
    keys = reduce(T.add, [T.embedding_lookup(source, key_rows[..., k])
                          for k, source in enumerate(sources)])
    logits = T.scale(T.matmul(T.matmul(query, p["attn_wq"]),
                              T.transpose(T.matmul(keys, p["attn_wk"]))),
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
    p = model.params
    attended = materialized_attention(M.cai_queries(model, consultations, texts),
                                      M.cai_keys(model, actions, texts), pairs,
                                      p["attn_wq"], p["attn_wk"], p["attn_wv"])
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
    p = model.params
    sources = (p["user_emb"], None, texts, p["item_emb"], texts)
    segments = np.repeat(np.arange(M.N_SEGMENTS), [np.shape(b)[1] for b in blocks])
    layout = np.concatenate(blocks, axis=1)
    real = layout >= 0
    x = T.embedding_lookup(p["segment_emb"], np.where(real, segments, -1))
    for k, source in enumerate(sources):
        if not real[:, segments == k].any():
            continue
        if source is None:  # consultation c sits at position 1 + c
            x = T.add(x, T.matmul(T.Tensor(np.eye(len(segments), h.shape[1], -1)), h))
        else:
            x = T.add(x, T.embedding_lookup(source, np.where(segments == k, layout, -1)))
    select = (np.arange(len(segments)) == len(segments) - 1)[None, :]
    x_query = T.matmul(T.Tensor(select), x)
    attended = materialized_attention(x_query, x, real[:, None, :],
                                      p["enc_wq"], p["enc_wk"], p["enc_wv"])
    y = M.squeeze(T.add(x_query, attended))
    return T.add(y, T.tanh(T.add(T.matmul(y, p["enc_ff_w"]), p["enc_ff_b"])))


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


def reference_sample_negative_items(item_ids, positive, n, rng):
    """`train.sample_negative_items` with one draw per call."""
    out = []
    while len(out) < n:
        v = item_ids[int(rng.integers(0, len(item_ids)))]
        if v != positive:
            out.append(v)
    return out


def masked_add_lookup_sum(*lookups):
    """`tensor.lookup_sum` as one `np.add` per table over the whole padded
    block, masked where the index is -1."""
    pairs = [(table, T._row_indices(table, indices)) for table, indices in lookups]
    (first, idx), rest = pairs[0], pairs[1:]
    rows = first.data[idx]  # a fresh copy; index -1 read the last row
    rows[idx < 0] = 0.0
    for table, other in rest:
        np.add(rows, table.data[other], out=rows, where=(other >= 0)[..., None])
    out = T._out(rows, [table for table, _ in pairs], None)
    if out._parents:
        def backward(g):
            for table, idx in pairs:
                if T._tracked(table):
                    keep = idx >= 0
                    d = table.shape[1]
                    T._bincount_into(table, (idx[keep][:, None] * d + np.arange(d)).ravel(),
                                     g[keep].ravel())
        out._backward = backward
    return out


def mean_pool(a, offsets):
    """Means of consecutive row segments of an [n, d] tensor, as one node."""
    offsets = np.asarray(offsets)
    lengths = np.diff(offsets)
    out = T._out(np.add.reduceat(a.data, offsets[:-1], axis=0) / lengths[:, None], (a,), None)
    if out._parents:
        out._backward = lambda g: T._accum(a, np.repeat(g / lengths[:, None], lengths, axis=0))
    return out


def gather_mean_pool_encode_text(model, token_ids, offsets):
    """`model.encode_text` with the [tokens, d] token gather a node of its
    own, then `mean_pool`."""
    nonempty = np.diff(offsets) > 0
    if not nonempty.any():
        return T.Tensor(np.zeros((len(nonempty), model.cfg.d)))
    pooled = mean_pool(T.embedding_lookup(model.params["token_emb"], token_ids),
                       np.append(offsets[:-1][nonempty], offsets[-1]))
    p = model.params
    encoded = T.tanh(T.add(T.matmul(pooled, p["text_w"]), p["text_b"]))
    if nonempty.all():
        return encoded
    return T.embedding_lookup(encoded, np.where(nonempty, np.cumsum(nonempty) - 1, -1))


def ones_product_squeeze(t):
    """`model.squeeze` as the product with a ones vector, whose axis drops out."""
    return T.matmul(T.Tensor(np.ones(1)), t)


def transposed_key_logits(params, layer, queries, keys):
    """`model.attention_logits` as a product with a transpose node."""
    return T.matmul(M.key_space(params, layer, queries), T.transpose(keys))


def transposed_candidate_scores(model, e_final, candidate_ids):
    """`model.score_candidates` with explicit candidates as a product with
    a transpose node."""
    item_emb = model.params["item_emb"]
    if candidate_ids is None:
        return T.matmul(e_final, T.transpose(item_emb))
    rows = np.array([M._rows(model.item_rows, ids, "item") for ids in candidate_ids])
    e_rows = T.embedding_lookup(e_final, np.arange(len(rows))[:, None])
    return M.squeeze(T.matmul(e_rows, T.transpose(T.embedding_lookup(item_emb, rows))))


def placement_session_forward(model, table, batch):
    """`model.session_forward` with the CAI rows placed in the encoder
    sequence by a product with an identity-placement matrix, then added."""
    consultations = M.pad([s.consultations for s in batch])
    query_texts = np.column_stack([M.pad([s.query_history for s in batch]),
                                   [s.query for s in batch]])
    texts, where, c_rows, a_rows = M.cai_inputs(
        model, table, consultations, M.pad([s.actions for s in batch]),
        np.array([[s.anchor_ts] for s in batch]), query_texts)
    h = M.cai_forward(model, c_rows, a_rows, texts)
    queries = where[query_texts]
    blocks = ([[s.user] for s in batch], consultations, queries[:, :-1],
              M.pad([s.item_history for s in batch]), queries[:, -1:])
    layout = np.concatenate(blocks, axis=1)
    segments = np.repeat(np.arange(M.N_SEGMENTS), [np.shape(b)[1] for b in blocks])
    real = layout >= 0
    p = model.params
    lookups = [(p["segment_emb"], np.where(real, segments, -1))]
    for source, segs in ((p["user_emb"], [M.SEG_USER]),
                         (texts, [M.SEG_QUERY_HISTORY, M.SEG_QUERY]),
                         (p["item_emb"], [M.SEG_ITEM_HISTORY])):
        at = np.where((segments[:, None] == segs).any(axis=1), layout, -1)
        if (at >= 0).any():
            lookups.append((source, at))
    x = T.lookup_sum(*lookups)
    if real[:, segments == M.SEG_CONSULTATION].any():
        # consultation c sits at position 1 + c
        x = T.add(x, T.matmul(T.Tensor(np.eye(len(segments), h.shape[1], -1)), h))
    x_query = T.lookup_sum((p["segment_emb"], np.full((len(batch), 1), M.SEG_QUERY)),
                           (texts, queries[:, -1:]))
    y = M.squeeze(T.add(x_query, M.attend(p, "enc", x_query, x, real[:, None, :])))
    return T.add(y, T.tanh(T.add(T.matmul(y, p["enc_ff_w"]), p["enc_ff_b"])))


def replaced_formulations(monkeypatch):
    """Puts every replaced formulation above in place of the library's, for
    the rest of the test."""
    monkeypatch.setattr(T, "lookup_sum", masked_add_lookup_sum)
    monkeypatch.setattr(M, "encode_text", gather_mean_pool_encode_text)
    monkeypatch.setattr(M, "squeeze", ones_product_squeeze)
    monkeypatch.setattr(M, "attention_logits", transposed_key_logits)
    monkeypatch.setattr(M, "session_forward", placement_session_forward)
    monkeypatch.setattr(M, "score_candidates", transposed_candidate_scores)
