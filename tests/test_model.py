"""Model architecture: encoders, CAI, cascade, scoring, gradients."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consultrank import model as M
from consultrank import tensor as T
from consultrank import train as TR
from consultrank.corpus import ActionType, Consultation, Interaction, Query, build_corpus
from consultrank.datagen import GenSpec, generate
from consultrank.evaluate import ground_truth_rank
from consultrank.value import time_bucket

import oracles
from gradcheck import finite_diff_check
from helpers import (buy, click, consult, corpus_features, corpus_from, item,
                     raw_features as features, search, text_ids, zero_grads)


ITEMS = [
    item("i1", "alpha beta gadget", ["portable", "steel frame"]),
    item("i2", "gamma delta widget", ["ceramic", "blue shell"]),
    item("i3", "epsilon zeta console", ["wireless", "compact build"]),
    item("i4", "eta theta lantern", ["solar", "rugged case"]),
]
EVENTS = [
    consult("u1", 5, "c1", "tell me about the alpha beta gadget", "solid choice"),
    consult("u1", 8, "c2", "what of the gamma delta widget", "worth a look"),
    search("u1", 30, "alpha beta gadget", "i1"),
    click("u1", 31, "i1"),
    buy("u1", 33, "i1"),
    search("u1", 80, "gamma delta widget", "i2"),
    click("u1", 81, "i2"),
    consult("u2", 10, "c3", "is the epsilon zeta console any good", "yes quite"),
    search("u2", 40, "epsilon zeta console", "i3"),
    click("u2", 41, "i3"),
    search("u2", 120, "eta theta lantern", "i4"),
]


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    return corpus_from(tmp_path_factory.mktemp("model"), ITEMS, EVENTS, "model")


def tiny_model(corpus, **overrides):
    return M.init_model(corpus, M.ModelConfig(**{"d": 8, **overrides}))


def test_init_is_seeded_and_ranged(small_corpus):
    m1 = tiny_model(small_corpus, seed=3)
    m2 = tiny_model(small_corpus, seed=3)
    m3 = tiny_model(small_corpus, seed=4)
    bound = 1.0 / np.sqrt(m1.cfg.d)
    some_differ = False
    for name, t in m1.named_parameters().items():
        assert np.array_equal(t.data, m2.named_parameters()[name].data)
        assert np.all(np.abs(t.data) <= bound)
        if not np.array_equal(t.data, m3.named_parameters()[name].data):
            some_differ = True
    assert some_differ


def test_config_validation():
    with pytest.raises(ValueError, match="d must be positive"):
        M.ModelConfig(d=0)
    with pytest.raises(ValueError, match="lambda3_skip"):
        M.ModelConfig(lambda3_skip=-0.1)
    with pytest.raises(ValueError, match="n_time_buckets must be >= 2"):
        M.ModelConfig(n_time_buckets=1)
    with pytest.raises(ValueError, match="max_text_tokens must be >= 1"):
        M.ModelConfig(max_text_tokens=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        M.ModelConfig(seed=-1)


def test_vocab_holds_only_terms_inputs_read(small_corpus):
    """The vocabulary is the terms of the consultation and query texts, each
    cut at max_text_tokens; an item-only term, or one past every cut, gets
    no row of its own."""
    model = tiny_model(small_corpus, max_text_tokens=3)
    vocab = model.vocab
    for term in ("alpha", "gadget", "console", "tell", "lantern"):
        assert term in vocab
    for term in ("portable", "steel", "ceramic", "worth", "solid"):
        assert term not in vocab
    assert "worth" in tiny_model(small_corpus).vocab
    assert M.UNKNOWN_TOKEN not in vocab.values()
    assert sorted(vocab.values()) == list(range(1, len(vocab) + 1))
    assert model.tables.token.data.shape[0] == len(vocab) + 1
    assert model.tables.item.data.shape[0] == len(small_corpus.items)
    assert model.tables.user.data.shape[0] == len(small_corpus.users)
    ids, offsets = text_ids(model, ["alpha portable", "unseen-term"])
    assert ids.tolist() == [vocab["alpha"], M.UNKNOWN_TOKEN, M.UNKNOWN_TOKEN, M.UNKNOWN_TOKEN]
    assert offsets.tolist() == [0, 2, 4]


@pytest.mark.parametrize("max_text_tokens", [1, 3, 64])
def test_every_vocab_id_is_read(small_corpus, max_text_tokens):
    model = tiny_model(small_corpus, max_text_tokens=max_text_tokens)
    assert set(model.features.token_ids.tolist()) == set(model.vocab.values())


@pytest.mark.parametrize("generated, max_text_tokens", [
    (False, 1), (False, 3), (False, 64), (True, 64)])
def test_token_rows_are_the_catalog_wide_draw(small_corpus, generated, max_text_tokens):
    """Each kept token row, and the item table drawn after the token table,
    holds the numbers of a draw that gave every table and item term a row."""
    corpus = (generate(GenSpec(n_users=4, n_items=200, seed=3))[0] if generated
              else small_corpus)
    cfg = M.ModelConfig(d=8, max_text_tokens=max_text_tokens, seed=5)
    model = M.init_model(corpus, cfg)
    unknown, rows, item_emb = oracles.reference_token_draw(corpus, cfg)
    assert len(rows) > len(model.vocab)
    assert np.array_equal(model.tables.token.data,
                          np.array([unknown, *map(rows.__getitem__, model.vocab)]))
    assert np.array_equal(model.tables.item.data, item_emb)


def test_own_features_match_corpus_features(small_corpus):
    """The table `init_model` builds from its one tokenization equals the
    one `corpus_features` builds by tokenizing the corpus again."""
    model = tiny_model(small_corpus, max_text_tokens=3)
    own, again = model.features, corpus_features(model, small_corpus)
    for name in ("users", "consultation_ids"):
        assert getattr(own, name) == getattr(again, name)
    for name in ("starts", "consultation_ts", "token_ids", "text_offsets", "actions",
                 "action_ts"):
        assert np.array_equal(getattr(own, name), getattr(again, name)), name


def test_token_ids_truncate(small_corpus):
    model = tiny_model(small_corpus, max_text_tokens=64)
    long_text = " ".join(["alpha"] * 100)
    ids, offsets = text_ids(model, [long_text, "beta"])
    assert offsets.tolist() == [0, 64, 65]


def encode(model, *texts):
    return M.encode_text(model, *text_ids(model, texts))


def cai_rows(model, table, s):
    """One session's encoded texts and its consultation and action rows, as
    `model.cai_inputs` gives them."""
    texts, _, c_rows, a_rows = M.cai_inputs(model, table, s.consultations[None],
                                            s.actions[None], np.array([[s.anchor_ts]]))
    return texts, c_rows[0], a_rows[0]


def cai(model, table, s):
    texts, c_rows, a_rows = cai_rows(model, table, s)
    return M.cai_forward(model, c_rows, a_rows, texts)


def forward(model, table, s):
    return M.session_forward(model, table, [s])


def test_encode_text_is_order_invariant(small_corpus):
    model = tiny_model(small_corpus)
    out = encode(model, "alpha beta gadget portable", "portable gadget alpha beta")
    assert np.allclose(out.data[0], out.data[1])


def test_encode_text_single_token_formula(small_corpus):
    model = tiny_model(small_corpus)
    out = encode(model, "alpha")
    row = model.tables.token.data[model.vocab["alpha"]]
    expected = np.tanh(row @ model.text_w.data + model.text_b.data)
    assert np.allclose(out.data[0], expected)


def test_encode_text_empty_gives_zero_vector(small_corpus):
    model = tiny_model(small_corpus)
    out = encode(model, "of the and")
    assert np.array_equal(out.data, np.zeros((1, model.cfg.d)))
    assert not out._parents
    mixed = encode(model, "alpha beta", "of the and", "gadget")
    assert np.array_equal(mixed.data[1], np.zeros(model.cfg.d))
    assert np.allclose(mixed.data[[0, 2]], encode(model, "alpha beta", "gadget").data)
    grads = []
    for out in (mixed, encode(model, "alpha beta", "gadget")):
        zero_grads(model.parameters())
        T.backward(T.l2_norm_sq(out))
        grads.append(model.text_b.grad)
    assert np.allclose(grads[0], grads[1])


_EDGE_GAPS = st.sampled_from(
    [-1, 0, 2**63 - 1] + [(1 << k) + e for k in range(63) for e in (-1, 0)])


@settings(max_examples=150, deadline=None)
@given(gaps=st.lists(st.integers(-2**63, 2**63 - 1) | _EDGE_GAPS, max_size=30),
       n_buckets=st.integers(2, 70))
def test_time_buckets_match_value_buckets(small_corpus, gaps, n_buckets):
    """Negative gaps clamp to bucket 0; 2**k - 1 and 2**k straddle a bucket
    edge; gaps past the last edge share the last bucket."""
    model = tiny_model(small_corpus, n_time_buckets=n_buckets)
    got = M.time_buckets(model, np.array(gaps, dtype=np.int64))
    assert got.tolist() == [time_bucket(max(0, g), n_buckets) for g in gaps]


def test_action_embedding_cases(small_corpus):
    model = tiny_model(small_corpus)
    actions = [
        Interaction(ActionType.CLICK, 10, target_item="i1"),
        Interaction(ActionType.CLICK, 99, target_item="i1"),
        Interaction(ActionType.BUY, 10, target_item="i1"),
        Interaction(ActionType.SEARCH, 10, target_query=Query("alpha beta gadget", 10)),
    ]
    texts, _, rows = cai_rows(model, *features(model, "u1", [], actions))
    keys = M.cai_keys(model, rows, texts).data
    # the timestamp enters a key only through its time bucket
    time = model.tables.time.data
    assert rows[0, 3] != rows[1, 3]
    assert np.allclose(keys[1] - keys[0], time[rows[1, 3]] - time[rows[0, 3]])
    table = model.tables.action.data
    expected = table[M.ACTION_ROWS[ActionType.BUY]] - table[M.ACTION_ROWS[ActionType.CLICK]]
    assert np.allclose(keys[2] - keys[0], expected)
    expected_s = (
        table[M.ACTION_ROWS[ActionType.SEARCH]]
        + encode(model, "alpha beta gadget").data[0] + time[rows[3, 3]]
    )
    assert np.allclose(keys[3], expected_s)
    with pytest.raises(ValueError, match="unknown item-id 'nope'"):
        features(model, "u1", [], [Interaction(ActionType.BUY, 10, target_item="nope")])


def test_cai_lambda_zero_returns_raw_text(small_corpus):
    model = tiny_model(small_corpus, lambda3_skip=0.0)
    u1 = small_corpus.users["u1"]
    h = cai(model, *features(model, "u1", u1.consultations, u1.interactions))
    raw = encode(model, *(c.text for c in u1.consultations))
    assert np.array_equal(h.data, raw.data)


def test_cai_empty_action_list_returns_raw_text(small_corpus):
    model = tiny_model(small_corpus, lambda3_skip=0.7)
    u1 = small_corpus.users["u1"]
    h = cai(model, *features(model, "u1", u1.consultations, []))
    raw = encode(model, *(c.text for c in u1.consultations))
    assert np.array_equal(h.data, raw.data)


def test_cai_singleton_action_gets_full_attention(small_corpus):
    model = tiny_model(small_corpus)
    u1 = small_corpus.users["u1"]
    texts, c_rows, a_rows = cai_rows(
        model, *features(model, "u1", u1.consultations, u1.interactions[:1]))
    weights = T.softmax(M.attention_logits(model.block, M.cai_queries(model, c_rows, texts),
                                           M.cai_keys(model, a_rows, texts)))
    assert weights.shape == (len(u1.consultations), 1)
    assert np.allclose(weights.data, 1.0)


def test_cai_output_mixes_attended_value(small_corpus):
    model = tiny_model(small_corpus, lambda3_skip=0.5)
    u1 = small_corpus.users["u1"]
    h = cai(model, *features(model, "u1", u1.consultations, u1.interactions))
    raw = encode(model, *(c.text for c in u1.consultations))
    for hi, ri in zip(h.data, raw.data):
        assert not np.allclose(hi, ri)


def test_cascade_handles_all_zero_inputs(small_corpus):
    model = tiny_model(small_corpus)
    model.tables.user.data[:] = 0.0
    model.tables.item.data[:] = 0.0
    stopwords = Consultation("c0", "of the", "and", 5)
    table, s = features(model, "u1", [stopwords], [], ["of the"], ["i1"], query_text="and the")
    texts, _ = M.encode_texts(model, table, np.arange(len(table.text_offsets) - 1))
    assert len(texts.data) == 3 and np.array_equal(texts.data, np.zeros_like(texts.data))
    out = forward(model, table, s)
    assert out.shape == (1, model.cfg.d)
    assert np.isfinite(out.data).all()


def test_cascade_item_history_order_invariant(small_corpus):
    model = tiny_model(small_corpus)
    out_a = forward(model, *features(model, "u1", [], [], [], ["i1", "i2", "i3"]))
    out_b = forward(model, *features(model, "u1", [], [], [], ["i3", "i1", "i2"]))
    assert np.allclose(out_a.data, out_b.data, atol=1e-12)


def test_lambda_zero_scores_ignore_cai_actions(small_corpus):
    u1 = small_corpus.users["u1"]

    def e_final(model, actions):
        return forward(model, *features(
            model, "u1", u1.consultations, actions, ["alpha beta gadget"], ["i1"],
            80, "gamma delta widget",
        ))

    model = tiny_model(small_corpus, lambda3_skip=0.0)
    s_with = M.score_candidates(model, e_final(model, u1.interactions[:3]), [model.item_ids])
    s_without = M.score_candidates(model, e_final(model, []), [model.item_ids])
    assert np.array_equal(s_with.data, s_without.data)

    full = tiny_model(small_corpus, lambda3_skip=1.0)
    assert not np.allclose(e_final(full, u1.interactions[:3]).data, e_final(full, []).data)


def test_score_candidates_geometry(small_corpus):
    model = tiny_model(small_corpus)
    d = model.cfg.d
    rows = np.zeros((len(model.item_ids), d))
    for i in range(len(model.item_ids)):
        rows[i, i] = 1.0
    model.tables.item.data = rows
    target = model.item_ids[2]
    scores = M.score_candidates(model, T.Tensor(rows[[model.item_rows[target]]]),
                                [model.item_ids])
    assert ground_truth_rank(model.item_ids, scores.data[0], target) == 1


def test_score_candidates_duplicates_and_errors(small_corpus):
    model = tiny_model(small_corpus)
    e = encode(model, "alpha beta gadget")
    scores = M.score_candidates(model, e, [["i1", "i2", "i1"]])
    assert scores.data[0, 0] == scores.data[0, 2]
    with pytest.raises(ValueError, match="unknown item-id 'nope'"):
        M.score_candidates(model, e, [["i1", "nope"]])
    with pytest.raises(ValueError, match="unknown user-id"):
        features(model, "ghost", [], [])


def test_ranked_scores_break_ties_by_item_id(small_corpus):
    model = tiny_model(small_corpus)
    model.tables.item.data[model.item_rows["i3"]] = model.tables.item.data[
        model.item_rows["i1"]
    ]
    e = encode(model, "alpha beta gadget")
    scores = M.score_candidates(model, e, [["i3", "i1"]]).data[0]
    assert scores[0] == scores[1]
    assert ground_truth_rank(["i3", "i1"], scores, "i1") == 1
    assert ground_truth_rank(["i3", "i1"], scores, "i3") == 2


def test_session_forward_gradients_match_finite_differences(small_corpus):
    model = tiny_model(small_corpus, d=6)
    u1 = small_corpus.users["u1"]
    rng = np.random.default_rng(99)
    leaves = model.parameters()
    table, s = features(
        model, "u1", u1.consultations, list(u1.interactions[:3]),
        ["alpha beta gadget"], ["i1"], 80, "gamma delta widget",
    )

    def build():
        e = forward(model, table, s)
        return T.nll_index(M.score_candidates(model, e, [model.item_ids]), 1)

    worst = finite_diff_check(build, leaves, rng, max_coords=4)
    assert worst < 1e-3


@pytest.fixture(scope="module")
def gen_sessions():
    """A generated corpus and the inputs of every one of its searches, each
    reading up to three recent consultations."""
    corpus, _ = generate(GenSpec(n_users=8, n_items=20, seed=4))
    kept_map = TR.recent_consultations(corpus, 3)
    sessions = [(u, s) for u in sorted(corpus.users) for s in corpus.users[u].searches]
    return corpus, kept_map, sessions


def assert_matches_materialized(model, build, reference):
    """`build()` and `reference()` give the same output, and the same
    gradient of every parameter under one loss, to 1e-12 relative."""
    results = []
    for forward_pass in (build, reference):
        zero_grads(model.parameters())
        out = forward_pass()
        shift = T.Tensor(np.random.default_rng(5).normal(size=out.shape))
        T.backward(T.l2_norm_sq(T.add(out, shift)))
        results.append((out.data, {n: p.grad for n, p in model.named_parameters().items()}))
    (out, grads), (want, want_grads) = results

    def close(a, b):
        return np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)

    assert out.shape == want.shape and close(out, want)
    for name, grad in grads.items():
        if want_grads[name] is None:
            assert grad is None, name
        else:
            assert grad is not None and close(grad, want_grads[name]), name


@pytest.mark.parametrize("lam", [1.0, 0.4, 0.0])
def test_attention_matches_materialized_projections(gen_sessions, lam):
    """The reassociated attention of `cai_forward` and `session_forward`
    matches the one that projects every key and value and selects the
    current query by a one-hot product, on a batch of one and random
    padded batches: each session keeps a random number of its
    consultations, and the first has its actions removed."""
    corpus, kept_map, sessions = gen_sessions
    model = M.init_model(corpus, M.ModelConfig(d=8, lambda3_skip=lam, seed=3))
    rng = np.random.default_rng(11)
    for size in (1, *rng.integers(2, 7, size=3)):
        picked = rng.choice(len(sessions), size=size, replace=False)
        batch = [TR.build_example(model, corpus, model.features, *sessions[k], kept_map)
                 for k in picked]
        batch = [s._replace(consultations=s.consultations[:rng.integers(len(s.consultations) + 1)])
                 for s in batch]
        batch[0] = batch[0]._replace(actions=batch[0].actions[:0])
        assert_matches_materialized(model, lambda: M.session_forward(model, model.features, batch),
                                    lambda: oracles.materialized_session_forward(
                                        model, model.features, batch))

        def rows():  # cai_forward's arguments after the model
            texts, _, c_rows, a_rows = M.cai_inputs(
                model, model.features, M.pad([s.consultations for s in batch]),
                M.pad([s.actions for s in batch]), np.array([[s.anchor_ts] for s in batch]))
            return c_rows, a_rows, texts

        assert_matches_materialized(model, lambda: M.cai_forward(model, *rows()),
                                    lambda: oracles.materialized_cai_forward(model, *rows()))


def test_plain_forward_reads_texts_as_a_batch_of_one_encodes_them(tmp_path):
    """`plain_forward` and `plain_scores` give the bits of `session_forward`
    and `score_candidates` over the session alone when the session reads
    one text with tokens and no other, which that batch encodes as a
    one-row product (a consultation beside empty texts, the query alone,
    a query-history text of a hand-built session with no actions, or an
    earlier search's query, read as query history and in the key its
    consultation attends to), and when it reads none or several."""
    events = [
        consult("u1", 1, "c1", "tripod stand for travel"),
        consult("u1", 2, "c2", "the and of"),
        search("u1", 5, "the of", "i1"),
        click("u1", 6, "i1"),
        search("u1", 20, "and the", "i2"),
        search("u2", 3, "gamma delta widget", "i2"),
        consult("u2", 4, "c3", "epsilon zeta console"),
        search("u2", 9, "eta theta lantern", "i4"),
        search("u3", 1, "zeta console lamp", "i3"),
        click("u3", 2, "i3"),
        consult("u3", 3, "c4", "of the"),
        search("u3", 5, "the and", "i1"),
    ]
    corpus = corpus_from(tmp_path, ITEMS, events, "lone")
    kept_map = TR.recent_consultations(corpus, 30)
    # whether a lone text's one-row product rounds apart from its table row
    # depends on the draws; these two seeds reach every row it replaces
    for lam, seed in itertools.product((1.0, 0.0), (1, 2)):
        model = tiny_model(corpus, d=16, lambda3_skip=lam, seed=seed)
        table, plain = model.features, M.plain_model(model)
        batch = [TR.build_example(model, corpus, table, u, s, kept_map)
                 for u in sorted(corpus.users) for s in corpus.users[u].searches]
        batch.append(batch[0]._replace(consultations=batch[0].consultations[1:]))
        batch.append(batch[0]._replace(consultations=batch[0].consultations[:0],
                                       actions=batch[0].actions[:0],
                                       query_history=batch[0].consultations[:1]))
        read = [np.concatenate([s.consultations, table.actions[s.actions, 2],
                                s.query_history, [s.query]]) for s in batch]
        assert [int(plain.nonempty[r].sum()) for r in read] == [1, 1, 1, 4, 1, 2, 0, 1]
        for s in batch:
            e_final = M.session_forward(model, table, [s])
            got = M.plain_forward(plain, s)
            assert got.tobytes() == e_final.data.tobytes()
            for ids in ([list(model.item_ids[1:])], None):
                assert M.plain_scores(plain, got, None if ids is None else ids[0]).tobytes() \
                    == M.score_candidates(model, e_final, ids).data.tobytes()


#: An item no event names, so its id can change too.
DIGEST_ITEMS = ITEMS + [item("i5", "iota kappa kettle")]

#: One field of one record of DIGEST_ITEMS or EVENTS, and a new value.
FIELD_EDITS = [
    ("items", 4, "id", "i6"), ("items", 0, "title", "alpha beta gizmo"),
    ("items", 1, "attributes", ["ceramic"]),
    ("events", 2, "user", "u3"), ("events", 2, "ts_hours", 29),
    ("events", 2, "query", "alpha gadget"), ("events", 2, "ground_truth_item", "i2"),
    ("events", 0, "user", "u3"), ("events", 0, "cid", "c9"), ("events", 0, "ts_hours", 6),
    ("events", 0, "user_turn", "tell me more"), ("events", 0, "assistant_turn", "solid"),
    ("events", 3, "user", "u2"), ("events", 3, "type", "buy"), ("events", 3, "ts_hours", 32),
    ("events", 3, "item", "i2"),
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(items=st.permutations(DIGEST_ITEMS), events=st.permutations(EVENTS))
def test_corpus_digest_ignores_record_order(items, events):
    assert M.corpus_digest(build_corpus(items, events)) == \
        M.corpus_digest(build_corpus(DIGEST_ITEMS, EVENTS))


@pytest.mark.parametrize("records, k, key, value", FIELD_EDITS,
                         ids=[f"{r}-{k}-{key}" for r, k, key, _ in FIELD_EDITS])
def test_corpus_digest_changes_with_any_field(records, k, key, value):
    edited = {"items": list(DIGEST_ITEMS), "events": list(EVENTS)}
    edited[records][k] = {**edited[records][k], key: value}
    assert M.corpus_digest(build_corpus(edited["items"], edited["events"])) != \
        M.corpus_digest(build_corpus(DIGEST_ITEMS, EVENTS))


def test_corpus_digest_is_pinned():
    """The digest every stored checkpoint carries: an encoder that wrote
    other bytes for the same fields would make those checkpoints unreadable."""
    assert M.corpus_digest(build_corpus(DIGEST_ITEMS, EVENTS)) == \
        "9fe39e854fb0749e8e3bed05738cca15a9a418ffe092dbcae821328cf6c7311b"


def test_load_model_restores_saved_parameters_and_draws_nothing(small_corpus, tmp_path,
                                                                 monkeypatch):
    model = tiny_model(small_corpus, seed=7)
    path = tmp_path / "checkpoint.json"
    M.save_model(model, path)
    monkeypatch.setattr(T, "parameter", lambda *a: pytest.fail("load_model drew parameters"))
    loaded = M.load_model(path, small_corpus)
    assert loaded.cfg == model.cfg and loaded.corpus_sha256 == model.corpus_sha256
    saved = model.named_parameters()
    for name, t in loaded.named_parameters().items():
        assert t.requires_grad
        assert t.data.shape == saved[name].data.shape
        assert t.data.tobytes() == saved[name].data.tobytes(), name


def test_load_model_refuses_older_corpus_key(small_corpus, tmp_path):
    """A checkpoint that stores its corpus under the older key asks for a
    retrain; it is not said to be of another corpus."""
    path = tmp_path / "checkpoint.json"
    M.save_model(tiny_model(small_corpus), path)
    payload = json.loads(path.read_text())
    payload["extra"]["corpus_sha256"] = payload["extra"].pop(M.CORPUS_KEY)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="retrain") as info:
        M.load_model(path, small_corpus)
    assert "another corpus" not in str(info.value)
