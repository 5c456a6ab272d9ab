"""Small corpus-construction helpers shared across the test suite."""

import json

import numpy as np
from hypothesis import strategies as st

from consultrank import model as M
from consultrank.corpus import ActionType, Corpus, Interaction, Query, UserHistory, load_corpus
from consultrank.evaluate import session_seed
from consultrank.index import normalize
from consultrank.linkage import LinkageParams, build_linkage
from consultrank.value import ValueParams, assess_corpus, fit_buckets, value_line

PRODUCT_WORDS = [
    "laptop", "gaming", "phone", "folding", "case", "camera", "lens",
    "tripod", "stand", "silver", "carbon", "ultra", "sleeve", "mouse",
]
CHATTER_WORDS = [
    "politics", "weather", "election", "holiday", "recipe", "soup",
    "garden", "movie", "novel",
]
NOISE_WORDS = ["the", "and", "a", "x", "of", "to"]

#: Any string: non-ASCII, non-BMP, lone surrogates, quotes, backslashes and
#: control characters included.
ANY_TEXT = st.text(st.characters(blacklist_categories=()))


def item(iid, title, attrs=()):
    return {"id": iid, "title": title, "attributes": list(attrs)}


def search(user, ts, query, gt):
    return {
        "user": user,
        "type": "search",
        "ts_hours": ts,
        "query": query,
        "ground_truth_item": gt,
    }


def click(user, ts, iid):
    return {"user": user, "type": "click", "ts_hours": ts, "item": iid}


def buy(user, ts, iid):
    return {"user": user, "type": "buy", "ts_hours": ts, "item": iid}


def consult(user, ts, cid, user_turn, assistant_turn=""):
    return {
        "user": user,
        "type": "consult",
        "ts_hours": ts,
        "cid": cid,
        "user_turn": user_turn,
        "assistant_turn": assistant_turn,
    }


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def load_oracle(path):
    """Read an oracle.jsonl back into {(user, search_ts, cid): label}."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                out[(row["user"], row["search_ts"], row["cid"])] = row["label"]
    return out


def random_score_fn(base_seed=0):
    """Uniform random scores, deterministic per session: the chance baseline
    of the ranking protocol, as a batch scorer."""
    def score(sessions, candidates):
        return np.array([
            np.random.default_rng(session_seed(base_seed ^ 0x5EED, user_id, session))
            .uniform(0.0, 1.0, size=len(ids))
            for (user_id, session), ids in zip(sessions, candidates)])
    return score


def corpus_from(tmp_path, items, events, tag=""):
    """Round the given dicts through real JSONL files and the real loader."""
    items_path = tmp_path / f"items{tag}.jsonl"
    events_path = tmp_path / f"events{tag}.jsonl"
    write_jsonl(items_path, items)
    write_jsonl(events_path, events)
    return load_corpus(items_path, events_path)


def _pick_words(rng, pool, n):
    return [pool[int(i)] for i in rng.choice(len(pool), size=n, replace=False)]


def random_micro_events(rng):
    """A random tiny catalog plus at most 20 events across 1-3 users.

    Texts are sampled so that every linking rule, the scope ramp, posterior
    slicing, and rank tie-breaking all get exercised across a batch of
    corpora: some consultations quote item titles verbatim, some share only
    a few terms, some are pure off-topic chatter, and timestamps collide
    often enough to hit the tie-break paths.
    """
    n_items = int(rng.integers(2, 6))
    items = []
    for i in range(n_items):
        title = " ".join(_pick_words(rng, PRODUCT_WORDS, int(rng.integers(1, 4))))
        attrs = _pick_words(rng, PRODUCT_WORDS, int(rng.integers(0, 3)))
        items.append(item(f"i{i}", title, attrs))

    users = [f"u{k}" for k in range(int(rng.integers(1, 4)))]
    horizon = int(rng.choice([48, 480]))
    cid_counter = 0
    events = []

    def consult_text():
        words = []
        if rng.random() < 0.55:
            it = items[int(rng.integers(n_items))]
            words += it["title"].split()
            if it["attributes"] and rng.random() < 0.5:
                words.append(it["attributes"][0])
        words += _pick_words(rng, CHATTER_WORDS, int(rng.integers(0, 3)))
        words += _pick_words(rng, NOISE_WORDS, int(rng.integers(0, 3)))
        return " ".join(words) if words else "empty says nothing"

    def query_text():
        if rng.random() < 0.5:
            return items[int(rng.integers(n_items))]["title"]
        return " ".join(
            _pick_words(rng, PRODUCT_WORDS + CHATTER_WORDS, int(rng.integers(2, 5)))
        )

    n_events = int(rng.integers(6, 21))
    for j in range(n_events):
        user = users[int(rng.integers(len(users)))]
        ts = int(rng.integers(0, horizon))
        if j == 0:
            kind = "consult"
        elif j == 1:
            kind = "search"
        else:
            kind = ["consult", "search", "click", "buy"][
                int(rng.choice(4, p=[0.35, 0.25, 0.25, 0.15]))
            ]
        if kind == "consult":
            events.append(consult(user, ts, f"c{cid_counter}", consult_text()))
            cid_counter += 1
        elif kind == "search":
            gt = items[int(rng.integers(n_items))]["id"]
            events.append(search(user, ts, query_text(), gt))
        else:
            iid = items[int(rng.integers(n_items))]["id"]
            row = click(user, ts, iid) if kind == "click" else buy(user, ts, iid)
            events.append(row)
    return items, events


def pipeline_reports(corpus, params=ValueParams(), window_days=14):
    """Run the full scoring pipeline; shape the output like the oracle's,
    each row read back from its `values.jsonl` line."""
    table = build_linkage(corpus, LinkageParams(window_days=window_days))
    buckets = fit_buckets(table, params.n_buckets)
    assessments = assess_corpus(corpus, table, buckets, params)
    out = []
    for a in assessments:
        rows = []
        for r in a.reports:
            rec = json.loads(value_line(r))
            rec.pop("user")
            rec.pop("search_ts")
            rows.append(rec)
        out.append((a.user_id, a.session.timestamp, rows))
    return out


def zero_grads(params):
    for p in params:
        p.grad = None


def text_ids(model, texts):
    """Token ids of each text under the model's vocabulary, each text cut at
    `max_text_tokens`, concatenated, and the offsets that split them."""
    return M._token_ids(model.vocab,
                        [normalize(t)[:model.cfg.max_text_tokens] for t in texts])


def corpus_features(model, corpus):
    """Tokenize and index a corpus under the model's vocabulary and item
    rows, for corpora other than the model's own: `init_model` featurizes
    that one once, into `model.features`."""
    histories = M._histories(corpus)
    return M._featurize(histories, text_ids(model, M._table_texts(histories)),
                        model.item_rows)


def raw_features(model, user_id, consultations, actions, query_history=(),
                 item_history=(), anchor_ts=200, query_text="alpha beta gadget"):
    """One session's feature table and inputs from raw parts: a one-user
    corpus holds the consultations and the actions, then one search action
    per query-history text and for the query, all at the anchor."""
    searches = [Interaction(ActionType.SEARCH, anchor_ts, target_query=Query(t, anchor_ts))
                for t in (*query_history, query_text)]
    history = UserHistory(user_id, consultations=tuple(consultations),
                          interactions=(*actions, *searches))
    table = corpus_features(model, Corpus(users={user_id: history}))
    texts = table.actions[len(actions):, 2]
    return table, M.SessionInputs(
        user=M.user_row(model, user_id), consultations=np.arange(len(consultations)),
        actions=np.arange(len(actions)), query_history=texts[:-1],
        item_history=np.array([model.item_rows[v] for v in item_history], dtype=np.int64),
        query=int(texts[-1]), anchor_ts=anchor_ts,
    )
