"""Model architecture: encoders, CAI, cascade, scoring, gradients."""

import numpy as np
import pytest

from consultrank import model as M
from consultrank import tensor as T
from consultrank.corpus import ActionType, Interaction, Query
from consultrank.evaluate import ranked_from_scores

from gradcheck import finite_diff_check
from helpers import buy, click, consult, corpus_from, item, search


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    items = [
        item("i1", "alpha beta gadget", ["portable", "steel frame"]),
        item("i2", "gamma delta widget", ["ceramic", "blue shell"]),
        item("i3", "epsilon zeta console", ["wireless", "compact build"]),
        item("i4", "eta theta lantern", ["solar", "rugged case"]),
    ]
    events = [
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
    return corpus_from(tmp_path_factory.mktemp("model"), items, events, "model")


def tiny_model(corpus, **overrides):
    cfg = M.config_for_corpus(corpus, d=overrides.pop("d", 8), **overrides)
    return M.init_model(corpus, cfg)


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


def test_config_validation(small_corpus):
    with pytest.raises(ValueError, match="d must be positive"):
        M.config_for_corpus(small_corpus, d=0)
    with pytest.raises(ValueError, match="lambda3_skip"):
        M.config_for_corpus(small_corpus, lambda3_skip=-0.1)
    good = M.config_for_corpus(small_corpus)
    with pytest.raises(ValueError, match="vocab_size"):
        M.init_model(
            small_corpus,
            M.ModelConfig(vocab_size=good.vocab_size + 5, n_items=good.n_items,
                          n_users=good.n_users),
        )


def test_vocab_covers_all_text_surfaces(small_corpus):
    vocab = M.build_vocab(small_corpus)
    for term in ("alpha", "gadget", "portable", "steel", "console", "worth"):
        assert term in vocab
    assert M.UNKNOWN_TOKEN not in vocab.values()
    assert M.token_ids("alpha unseen-term beta", vocab, 64)[1] == M.UNKNOWN_TOKEN


def test_token_ids_truncate(small_corpus):
    vocab = M.build_vocab(small_corpus)
    long_text = " ".join(["alpha"] * 100)
    assert len(M.token_ids(long_text, vocab, 64)) == 64


def test_encode_text_is_order_invariant(small_corpus):
    model = tiny_model(small_corpus)
    a = M.encode_text(model, "alpha beta gadget portable")
    b = M.encode_text(model, "portable gadget alpha beta")
    assert np.allclose(a.data, b.data)


def test_encode_text_single_token_formula(small_corpus):
    model = tiny_model(small_corpus)
    out = M.encode_text(model, "alpha")
    row = model.tables.token.data[model.vocab["alpha"]]
    expected = np.tanh(row @ model.text_w.data + model.text_b.data)
    assert np.allclose(out.data, expected)


def test_encode_text_empty_gives_zero_vector(small_corpus):
    model = tiny_model(small_corpus)
    out = M.encode_text(model, "of the and")
    assert np.array_equal(out.data, np.zeros(model.cfg.d))
    assert not out._parents


def test_action_embedding_cases(small_corpus):
    model = tiny_model(small_corpus)
    c1 = Interaction(ActionType.CLICK, 10, target_item="i1")
    c2 = Interaction(ActionType.CLICK, 99, target_item="i1")
    b1 = Interaction(ActionType.BUY, 10, target_item="i1")
    assert np.array_equal(
        M.action_embedding(model, c1).data, M.action_embedding(model, c2).data
    )
    gap = M.action_embedding(model, b1).data - M.action_embedding(model, c1).data
    table = model.tables.action.data
    expected = table[M.ACTION_ROWS[ActionType.BUY]] - table[M.ACTION_ROWS[ActionType.CLICK]]
    assert np.allclose(gap, expected)
    s = Interaction(ActionType.SEARCH, 10, target_query=Query("alpha beta gadget", 10))
    expected_s = (
        table[M.ACTION_ROWS[ActionType.SEARCH]]
        + M.encode_text(model, "alpha beta gadget").data
    )
    assert np.allclose(M.action_embedding(model, s).data, expected_s)


def test_cai_lambda_zero_returns_raw_text(small_corpus):
    model = tiny_model(small_corpus, lambda3_skip=0.0)
    u1 = small_corpus.users["u1"]
    h = M.cai_forward(model, u1.consultations, u1.interactions, anchor_ts=200)
    for hi, c in zip(h, u1.consultations):
        assert np.array_equal(hi.data, M.encode_text(model, c.text).data)


def test_cai_empty_action_list_returns_raw_text(small_corpus):
    model = tiny_model(small_corpus, lambda3_skip=0.7)
    u1 = small_corpus.users["u1"]
    h = M.cai_forward(model, u1.consultations, [], anchor_ts=200)
    for hi, c in zip(h, u1.consultations):
        assert np.array_equal(hi.data, M.encode_text(model, c.text).data)


def test_cai_singleton_action_gets_full_attention(small_corpus):
    model = tiny_model(small_corpus)
    u1 = small_corpus.users["u1"]
    q_rows = [M.cai_query_vec(model, c, 200) for c in u1.consultations]
    k_rows = [M.cai_key_vec(model, u1.interactions[0], 200)]
    weights = M.cai_attention_weights(model, q_rows, k_rows)
    assert np.allclose(weights.data, 1.0)


def test_cai_output_mixes_attended_value(small_corpus):
    model = tiny_model(small_corpus, lambda3_skip=0.5)
    u1 = small_corpus.users["u1"]
    h = M.cai_forward(model, u1.consultations, u1.interactions, anchor_ts=200)
    raw = [M.encode_text(model, c.text).data for c in u1.consultations]
    for hi, ri in zip(h, raw):
        assert not np.allclose(hi.data, ri)


def test_cascade_handles_all_zero_inputs(small_corpus):
    model = tiny_model(small_corpus)
    d = model.cfg.d
    zero = lambda: T.Tensor(np.zeros(d))
    out = M.cascaded_encode(model, [zero()], [zero()], [zero()], zero(), zero())
    assert out.shape == (d,)
    assert np.isfinite(out.data).all()


def test_cascade_item_history_order_invariant(small_corpus):
    model = tiny_model(small_corpus)
    u = M.user_embedding(model, "u1")
    q = M.encode_text(model, "alpha beta gadget")
    items_a = [M.item_embedding(model, v) for v in ("i1", "i2", "i3")]
    items_b = [M.item_embedding(model, v) for v in ("i3", "i1", "i2")]
    out_a = M.cascaded_encode(model, [], [], items_a, u, q)
    out_b = M.cascaded_encode(model, [], [], items_b, u, q)
    assert np.allclose(out_a.data, out_b.data, atol=1e-12)


def test_lambda_zero_scores_ignore_cai_actions(small_corpus):
    model = tiny_model(small_corpus, lambda3_skip=0.0)
    u1 = small_corpus.users["u1"]
    kwargs = dict(
        model=model, user_id="u1", consultations=u1.consultations,
        query_history_texts=["alpha beta gadget"], item_history_ids=["i1"],
        anchor_ts=80, query_text="gamma delta widget",
    )
    e_with = M.session_forward(cai_actions=u1.interactions[:3], **kwargs)
    e_without = M.session_forward(cai_actions=[], **kwargs)
    s_with = M.score_candidates(model, e_with, model.item_ids)
    s_without = M.score_candidates(model, e_without, model.item_ids)
    assert np.array_equal(s_with.data, s_without.data)

    full = tiny_model(small_corpus, lambda3_skip=1.0)
    e_full_a = M.session_forward(
        full, "u1", u1.consultations, u1.interactions[:3],
        ["alpha beta gadget"], ["i1"], 80, "gamma delta widget",
    )
    e_full_b = M.session_forward(
        full, "u1", u1.consultations, [],
        ["alpha beta gadget"], ["i1"], 80, "gamma delta widget",
    )
    assert not np.allclose(e_full_a.data, e_full_b.data)


def test_score_candidates_geometry(small_corpus):
    model = tiny_model(small_corpus)
    d = model.cfg.d
    rows = np.zeros((len(model.item_ids), d))
    for i in range(len(model.item_ids)):
        rows[i, i] = 1.0
    model.tables.item.data = rows
    target = model.item_ids[2]
    scores = M.score_candidates(model, M.item_embedding(model, target), model.item_ids)
    ranked = ranked_from_scores(model.item_ids, scores.data, target)
    assert ranked.rank() == 1


def test_score_candidates_duplicates_and_errors(small_corpus):
    model = tiny_model(small_corpus)
    e = M.encode_text(model, "alpha beta gadget")
    scores = M.score_candidates(model, e, ["i1", "i2", "i1"])
    assert scores.data[0] == scores.data[2]
    with pytest.raises(ValueError, match="unknown item-id 'nope'"):
        M.score_candidates(model, e, ["i1", "nope"])
    with pytest.raises(ValueError, match="unknown user-id"):
        M.user_embedding(model, "ghost")


def test_ranked_scores_break_ties_by_item_id(small_corpus):
    model = tiny_model(small_corpus)
    model.tables.item.data[model.item_rows["i3"]] = model.tables.item.data[
        model.item_rows["i1"]
    ]
    e = M.encode_text(model, "alpha beta gadget")
    scores = M.score_candidates(model, e, ["i3", "i1"])
    assert scores.data[0] == scores.data[1]
    ranked = ranked_from_scores(["i3", "i1"], scores.data, "i1")
    assert [v for v, _ in ranked.entries] == ["i1", "i3"]


def test_session_forward_gradients_match_finite_differences(small_corpus):
    model = tiny_model(small_corpus, d=6)
    u1 = small_corpus.users["u1"]
    rng = np.random.default_rng(99)
    leaves = model.parameters()

    def build():
        e = M.session_forward(
            model, "u1", u1.consultations, list(u1.interactions[:3]),
            ["alpha beta gadget"], ["i1"], 80, "gamma delta widget",
        )
        return T.nll_index(M.score_candidates(model, e, model.item_ids), 1)

    worst = finite_diff_check(build, leaves, rng, max_coords=4)
    assert worst < 1e-3
