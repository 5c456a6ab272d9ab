"""Losses, splits, batching, early stopping, and training properties."""

import csv
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from consultrank import ablation, cli
from consultrank import evaluate as E
from consultrank import model as M
from consultrank import tensor as T
from consultrank import train as TR
from consultrank.corpus import ActionType
from consultrank.datagen import GenSpec, generate
from consultrank.linkage import build_linkage
from consultrank.value import ValueParams, assess_corpus, fit_buckets

import oracles
from helpers import (buy, click, consult, corpus_features, corpus_from, item, search, text_ids,
                     zero_grads)


def pipeline(corpus):
    linkage = build_linkage(corpus)
    assessments = assess_corpus(corpus, linkage, fit_buckets(linkage, ValueParams.n_buckets))
    return linkage, assessments


@pytest.fixture(scope="module")
def gen_small():
    corpus, _ = generate(GenSpec(n_users=6, n_items=20, seed=12))
    return corpus, *pipeline(corpus)


def test_train_config_validation():
    for bad in (
        dict(tau1=0.0), dict(tau2=-1.0), dict(lambda_va=-0.1),
        dict(lambda_l2=-1e-9), dict(n_neg_search=0), dict(va_batch=0),
        dict(batch_size=0), dict(max_epochs=0), dict(patience=0), dict(lr=0.0),
        dict(seed=-1),
    ):
        with pytest.raises(ValueError):
            TR.TrainConfig(**bad)


def test_split_sessions_leave_last_out(tmp_path):
    items = [item("i1", "alpha beta gadget"), item("i2", "gamma delta widget")]
    events = [
        search("u1", 10, "alpha beta gadget", "i1"),
        search("u1", 40, "gamma delta widget", "i2"),
        search("u1", 70, "alpha beta gadget", "i1"),
        search("u1", 90, "gamma delta widget", "i2"),
        search("u2", 20, "alpha beta gadget", "i1"),
        search("u2", 60, "gamma delta widget", "i2"),
        search("u3", 30, "alpha beta gadget", "i1"),
    ]
    corpus = corpus_from(tmp_path, items, events, "split")
    split = TR.split_sessions(corpus)
    assert [(u, s.timestamp) for u, s in split.test] == [("u1", 90), ("u2", 60), ("u3", 30)]
    assert [(u, s.timestamp) for u, s in split.valid] == [("u1", 70), ("u2", 20)]
    assert [(u, s.timestamp) for u, s in split.train] == [("u1", 10), ("u1", 40)]


def texts_of(table, indices):
    """Token ids of the table's texts at these text indices."""
    return [table.token_ids[table.text_offsets[i]:table.text_offsets[i + 1]].tolist()
            for i in indices]


def examples_of(model, corpus, table, sessions, kept_map, l_seq=ValueParams.l_seq):
    return [TR.SessionExample(u, s, TR.build_example(model, corpus, table, u, s, kept_map, l_seq))
            for u, s in sessions]


def test_build_example_slices_strictly_before(tmp_path):
    items = [item("i1", "alpha beta gadget"), item("i2", "gamma delta widget")]
    events = [
        consult("u1", 5, "c1", "tell me about the alpha beta gadget", "sure"),
        consult("u1", 30, "c2", "still deciding on the gadget", "ok"),
        search("u1", 10, "alpha beta gadget", "i1"),
        click("u1", 11, "i1"),
        search("u1", 30, "gamma delta widget", "i2"),
        click("u1", 31, "i2"),
        buy("u1", 35, "i2"),
    ]
    corpus = corpus_from(tmp_path, items, events, "bex")
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table = corpus_features(model, corpus)
    session = corpus.users["u1"].searches[1]
    s = TR.build_example(model, corpus, table, "u1", session,
                         TR.recent_consultations(corpus, 30))
    ids = lambda *texts: [text_ids(model, [t])[0].tolist() for t in texts]
    assert texts_of(table, s.consultations) == ids("tell me about the alpha beta gadget sure")
    # the search at 10 and the click at 11; gaps 20 and 19 hours share bucket 4
    _, where, _, rows = M.cai_inputs(model, table, s.consultations[None], s.actions[None],
                                     np.array([[s.anchor_ts]]))
    searched = table.actions[s.actions[0], 2]
    assert rows[0].tolist() == [
        [M.ACTION_ROWS[ActionType.SEARCH], -1, where[searched], 4],
        [M.ACTION_ROWS[ActionType.CLICK], model.item_rows["i1"], -1, 4],
    ]
    assert texts_of(table, s.query_history) == ids("alpha beta gadget")
    assert texts_of(table, [s.query, searched]) == ids("gamma delta widget", "alpha beta gadget")
    assert s.item_history.tolist() == [model.item_rows["i1"]]
    assert s.user == model.user_rows["u1"] and s.anchor_ts == 30
    with pytest.raises(ValueError, match="precomputed assessments"):
        TR.model_score_fn(model, corpus, None, value_filter=True)


def test_build_example_finds_its_own_query_among_same_hour_searches(tmp_path):
    items = [item("i1", "alpha beta gadget"), item("i2", "gamma delta widget")]
    events = [
        search("u1", 10, "gamma delta widget", "i2"),
        search("u1", 10, "alpha beta gadget", "i1"),
        search("u1", 20, "alpha beta gadget", "i1"),
    ]
    corpus = corpus_from(tmp_path, items, events, "same-hour")
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table = corpus_features(model, corpus)
    ids = lambda *texts: [text_ids(model, [t])[0].tolist() for t in texts]
    recent = TR.recent_consultations(corpus, 30)
    for session in corpus.users["u1"].searches:
        inputs = TR.build_example(model, corpus, table, "u1", session, recent)
        assert texts_of(table, [inputs.query]) == ids(session.query.text)
        prior = [s.query.text for s in corpus.users["u1"].searches
                 if s.timestamp < session.timestamp]
        assert texts_of(table, inputs.query_history) == ids(*prior)


def test_build_example_uses_value_ranked_kept(gen_small):
    corpus, linkage, assessments = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    kept_map = TR.kept_consultations(assessments)
    split = TR.split_sessions(corpus)
    user, session = split.test[0]
    table = corpus_features(model, corpus)
    inputs = TR.build_example(model, corpus, table, user, session, kept_map)
    kept = kept_map[(user, session.timestamp)]
    assert kept
    assert texts_of(table, inputs.consultations) == [
        text_ids(model, [c.text])[0].tolist() for c in kept
    ]


@pytest.mark.parametrize("l_seq", [1, 3, 30])
def test_recent_consultations_match_brute_force(l_seq):
    corpus, _ = generate(GenSpec(n_users=10, n_items=20, seed=l_seq))
    want, longest = {}, 0
    for user, history in corpus.users.items():
        for s in history.searches:
            prior = sorted((c for c in history.consultations if c.timestamp < s.timestamp),
                           key=lambda c: (c.timestamp, c.id))
            want[user, s.timestamp] = tuple(prior[max(0, len(prior) - l_seq):])
            longest = max(longest, len(prior))
    assert longest > min(l_seq, 3)
    assert TR.recent_consultations(corpus, l_seq) == want


def test_recent_consultations_hand_built(tmp_path):
    items = [item("i1", "alpha beta gadget")]
    events = [
        search("u1", 3, "alpha beta gadget", "i1"),
        consult("u1", 5, "c1", "first"),
        consult("u1", 8, "c2", "second"),
        consult("u1", 10, "c3", "same hour as the search"),
        search("u1", 10, "alpha beta gadget", "i1"),
    ]
    corpus = corpus_from(tmp_path, items, events, "recent")
    ids = {key: [c.id for c in kept]
           for key, kept in TR.recent_consultations(corpus, 2).items()}
    assert ids == {("u1", 3): [], ("u1", 10): ["c1", "c2"]}
    assert [c.id for c in TR.recent_consultations(corpus, 1)["u1", 10]] == ["c2"]


def test_loss_search_uniform_logits_closed_form(gen_small):
    corpus, _, _ = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    cfg = TR.TrainConfig()
    e_zero = T.Tensor(np.zeros((1, model.cfg.d)))
    negs = [v for v in model.item_ids if v != model.item_ids[0]][:10]
    loss = TR.loss_search(model, e_zero, [model.item_ids[0]], [negs], cfg)
    assert float(loss.data) == pytest.approx(np.log(11.0), abs=1e-12)


def test_loss_search_confident_positive_approaches_zero(gen_small):
    corpus, _, _ = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    cfg = TR.TrainConfig()
    pos = model.item_ids[0]
    direction = np.ones(model.cfg.d)
    model.tables.item.data[model.item_rows[pos]] = direction
    for v in model.item_ids[1:3]:
        model.tables.item.data[model.item_rows[v]] = -direction
    loss = TR.loss_search(model, T.Tensor([direction]), [pos], [model.item_ids[1:3]], cfg)
    assert 0.0 <= float(loss.data) < 1e-6


def test_sample_negative_items_draws_as_one_item_at_a_time():
    """Block draws give the items and leave the generator where drawing one
    item per call does, also where the positive is drawn and rejected."""
    items = ("i0", "i1", "i2")
    rejected = 0
    for seed in range(20):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = TR.sample_negative_items(items, "i1", 7, got_rng)
        assert got == oracles.reference_sample_negative_items(items, "i1", 7, want_rng)
        assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)
        rejected += "i1" in np.take(items, np.random.default_rng(seed).integers(0, 3, size=7))
    assert rejected >= 15


def test_loss_search_counts_duplicate_negatives(gen_small):
    corpus, _, _ = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    cfg = TR.TrainConfig()
    e = M.encode_text(model, *text_ids(model, ["tell me about anything"]))
    pos, neg = model.item_ids[0], model.item_ids[1]
    single = float(TR.loss_search(model, e, [pos], [[neg]], cfg).data)
    doubled = float(TR.loss_search(model, e, [pos], [[neg, neg]], cfg).data)
    assert doubled > single


def test_loss_va_uniform_logits_closed_form(gen_small):
    corpus, linkage, _ = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    model.block.w_k.data[:] = 0.0
    table = corpus_features(model, corpus)
    pairs = TR.linked_pairs(table, corpus, linkage)
    user = next(iter(pairs))
    consultation, positive = pairs[user][0]
    others = [a for a in table.span(user, 1) if a != positive]
    sample = TR.VaSample(consultation, positive, np.array(others[:7]),
                         anchor_ts=int(table.action_ts[positive]) + 5)
    loss = TR.loss_va(model, [sample], table, TR.TrainConfig())
    assert float(loss.data) == pytest.approx(np.log(8.0), abs=1e-12)


def test_temperature_sharpening_is_monotone(gen_small):
    corpus, _, _ = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    pos = model.item_ids[0]
    direction = np.ones(model.cfg.d) / model.cfg.d
    model.tables.item.data[model.item_rows[pos]] = direction * 2.0
    for v in model.item_ids[1:4]:
        model.tables.item.data[model.item_rows[v]] = direction
    losses = [
        float(TR.loss_search(model, T.Tensor(np.ones((1, model.cfg.d))), [pos],
                             [model.item_ids[1:4]],
                             TR.TrainConfig(tau2=tau)).data)
        for tau in (1.0, 0.5, 0.1)
    ]
    assert losses[0] >= losses[1] >= losses[2]


def test_total_loss_composition(gen_small):
    corpus, _, _ = gen_small
    cfg = TR.TrainConfig(lambda_va=0.1, lambda_l2=0.01)
    reg_param = T.Tensor([0.5, 0.5], requires_grad=True)
    total = TR.total_loss(T.Tensor(2.0), T.Tensor(1.0), [reg_param], cfg)
    assert float(total.data) == pytest.approx(2.105, abs=1e-12)
    plain = TR.total_loss(T.Tensor(2.0), T.Tensor(1.0), [reg_param],
                          TR.TrainConfig(lambda_va=0.0, lambda_l2=0.0))
    assert float(plain.data) == 2.0


def test_sample_va_negatives_tier_up(gen_small):
    corpus, linkage, _ = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table = corpus_features(model, corpus)
    pairs = TR.linked_pairs(table, corpus, linkage)
    n_actions = len(table.action_ts)
    batch = examples_of(model, corpus, table,
                        [(u, corpus.users[u].searches[-1]) for u in sorted(pairs)[:2]],
                        TR.recent_consultations(corpus, 30), l_seq=30)
    rng = np.random.default_rng(0)
    cfg = TR.TrainConfig(va_batch=n_actions + 50)
    samples = TR.sample_va_batch(batch, table, pairs, cfg, rng, {})
    assert len(samples) == 2
    for s in samples:
        assert s.positive not in s.negatives
        assert table.action_ts[s.positive] < s.anchor_ts
        assert all(table.action_ts[a] < s.anchor_ts for a in s.negatives)
        prior = int((table.action_ts < s.anchor_ts).sum())
        assert len(s.negatives) == prior - 1
    small = TR.TrainConfig(va_batch=3)
    rng = np.random.default_rng(0)
    for s in TR.sample_va_batch(batch, table, pairs, small, rng, {}):
        assert len(s.negatives) == 3


def test_sample_va_batch_tier_holds_each_user_once(gen_small, monkeypatch):
    """A batch of every session, several per user, with room for negatives
    from all three tiers: no sample repeats an action among its negatives,
    and each user's actions are looked up once per call."""
    corpus, linkage, _ = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table = model.features
    split = TR.split_sessions(corpus)
    batch = examples_of(model, corpus, table, split.train + split.valid + split.test, {})
    users = [ex.user_id for ex in batch]
    assert len(set(users)) < len(users)
    pairs, looked_up = TR.linked_pairs(table, corpus, linkage), []
    span = M.CorpusFeatures.span
    monkeypatch.setattr(M.CorpusFeatures, "span",
                        lambda self, user, kind: looked_up.append(user) or span(self, user, kind))
    cfg = TR.TrainConfig(va_batch=len(table.actions))
    samples = TR.sample_va_batch(batch, table, pairs, cfg, np.random.default_rng(0), {})
    assert len({s.anchor_ts for s in samples}) > 1
    for s in samples:
        assert len(np.unique(s.negatives)) == len(s.negatives)
    assert sorted(looked_up) == sorted(set(users))


def test_sample_va_draws_every_consultation_of_the_recent_set(tmp_path):
    """Two linked consultations before a search: a recency map of both lets
    the alignment sample draw either; without one in the map, the freshest
    linked consultation stands in."""
    items = [item("i1", "alpha beta gadget"), item("i2", "gamma delta widget")]
    events = [
        consult("u1", 0, "c1", "tell me about the alpha beta gadget"),
        click("u1", 1, "i1"),
        consult("u1", 5, "c2", "is the gamma delta widget any good"),
        click("u1", 6, "i2"),
        search("u1", 20, "alpha beta gadget", "i1"),
    ]
    corpus = corpus_from(tmp_path, items, events, "va-recent")
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table = model.features
    pairs = TR.linked_pairs(table, corpus, build_linkage(corpus))
    session = corpus.users["u1"].searches[0]
    cfg = TR.TrainConfig(va_batch=2)

    def drawn(kept_map):
        ex = examples_of(model, corpus, table, [("u1", session)], kept_map)[0]
        return {s.consultation for seed in range(8)
                for s in TR.sample_va_batch([ex], table, pairs, cfg,
                                            np.random.default_rng(seed), kept_map)}

    c1, c2 = table.consultation_ids["u1", "c1"], table.consultation_ids["u1", "c2"]
    assert drawn(TR.recent_consultations(corpus, 2)) == {c1, c2}
    assert drawn(TR.recent_consultations(corpus, 1)) == {c2}
    assert drawn({}) == {c2}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_va_batch_matches_the_reference_sampler(gen_small, seed):
    """Over shuffled batches of every session, kept maps of each kind and
    va_batch sizes that stop in the user's own tier, the batch tier and the
    global tier, the sampler returns the reference's samples and leaves its
    generator in the same state."""
    corpus, linkage, assessments = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table = model.features
    pairs = TR.linked_pairs(table, corpus, linkage)
    split = TR.split_sessions(corpus)
    sessions = split.train + split.valid + split.test
    order = np.random.default_rng(seed).permutation(len(sessions))
    owner = {a: u for u in corpus.users for a in table.span(u, 1).tolist()}
    tiers = set()
    for kept_map in (TR.kept_consultations(assessments), TR.recent_consultations(corpus, 1), {}):
        examples = examples_of(model, corpus, table, [sessions[i] for i in order], kept_map)
        for size in (1, 3, len(examples)):
            batches = [examples[lo:lo + size] for lo in range(0, len(examples), size)]
            for va_batch in (2, 12, len(table.actions)):
                cfg = TR.TrainConfig(va_batch=va_batch)
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for batch in batches:
                    got = TR.sample_va_batch(batch, table, pairs, cfg, rng, kept_map)
                    want = oracles.reference_sample_va_batch(batch, table, pairs, cfg,
                                                             ref_rng, kept_map)
                    assert len(got) == len(want)
                    users = {ex.user_id for ex in batch}
                    for g, w in zip(got, want):
                        assert (g.consultation, g.positive, g.anchor_ts) == \
                            (w.consultation, w.positive, w.anchor_ts)
                        assert g.negatives.dtype == w.negatives.dtype
                        assert np.array_equal(g.negatives, w.negatives)
                        owners = {owner[a] for a in g.negatives.tolist()}
                        tiers.add("global" if owners - users else
                                  "batch" if owners - {owner[g.positive]} else "own")
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert tiers == {"own", "batch", "global"}


def test_train_without_value_filter_reads_recent_consultations(gen_small, monkeypatch):
    """With value_filter off, the alignment samples and the validation
    scorer read the same recency map as the training examples."""
    corpus, linkage, assessments = gen_small
    maps = []
    sample, score_fn = TR.sample_va_batch, TR.model_score_fn
    monkeypatch.setattr(TR, "sample_va_batch", lambda *a: maps.append(a[-1]) or sample(*a))
    monkeypatch.setattr(TR, "model_score_fn",
                        lambda *a: maps.append(a[2]) or score_fn(*a))
    model = M.init_model(corpus, M.ModelConfig(d=8))
    TR.train(corpus, linkage, assessments, model,
             TR.TrainConfig(max_epochs=1, batch_size=8, va_batch=8), l_seq=3,
             value_filter=False)
    assert len(maps) > 1
    assert all(m == TR.recent_consultations(corpus, 3) for m in maps)


def test_train_smoke_and_determinism(gen_small):
    corpus, linkage, assessments = gen_small
    cfg = TR.TrainConfig(max_epochs=2, batch_size=8, va_batch=16, seed=5)

    def run():
        model = M.init_model(corpus, M.ModelConfig(d=16, seed=5))
        return TR.train(corpus, linkage, assessments, model, cfg)

    first, second = run(), run()
    assert len(first.rows) == 2
    for row in first.rows:
        assert np.isfinite([row.l_search, row.l_va, row.total]).all()
    key = lambda res: [(r.l_search, r.l_va, r.total, r.valid_ndcg10) for r in res.rows]
    assert key(first) == key(second)
    for name, t in first.model.named_parameters().items():
        assert np.array_equal(t.data, second.model.named_parameters()[name].data)


def test_train_spends_every_gradient_and_trains_as_the_reference_step(
        gen_small, tmp_path, monkeypatch):
    """`train` returns with no gradient held, and writes the checkpoint a
    loop of the reference Adam step, gradients zeroed after it, writes."""
    corpus, linkage, assessments = gen_small
    cfg = TR.TrainConfig(max_epochs=3, patience=3, batch_size=8, va_batch=8, seed=4)

    def checkpoint(name):
        model = M.init_model(corpus, M.ModelConfig(d=8, seed=4))
        result = TR.train(corpus, linkage, assessments, model, cfg)
        assert all(p.grad is None for p in result.model.parameters())
        written = M.save_model(result.model, tmp_path / name)
        return [open(path, "rb").read() for path in written]

    spent = checkpoint("spent.json")

    def reference_step(state):
        oracles.reference_adam_step(state)
        zero_grads(state.params)
    monkeypatch.setattr(T, "adam_step", reference_step)
    assert spent == checkpoint("reference.json")


def test_train_requires_training_sessions(tmp_path):
    items = [item("i1", "alpha beta gadget"), item("i2", "gamma delta widget")]
    events = [
        search("u1", 10, "alpha beta gadget", "i1"),
        search("u1", 40, "gamma delta widget", "i2"),
    ]
    corpus = corpus_from(tmp_path, items, events, "notrain")
    linkage, assessments = pipeline(corpus)
    model = M.init_model(corpus, M.ModelConfig(d=8))
    with pytest.raises(ValueError, match="empty training set"):
        TR.train(corpus, linkage, assessments, model, TR.TrainConfig(max_epochs=1))


def test_early_stopping_bounds_epochs(gen_small):
    corpus, linkage, assessments = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8, seed=1))
    cfg = TR.TrainConfig(max_epochs=40, patience=2, batch_size=8, va_batch=8, seed=1)
    result = TR.train(corpus, linkage, assessments, model, cfg)
    assert len(result.rows) - result.best_epoch <= cfg.patience
    assert result.best_valid_ndcg10 == max(r.valid_ndcg10 for r in result.rows)


def test_epoch_log_csv_round_trip(gen_small, tmp_path):
    corpus, linkage, assessments = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8, seed=2))
    cfg = TR.TrainConfig(max_epochs=2, batch_size=8, va_batch=8, seed=2)
    path = tmp_path / "log.csv"
    result = TR.train(corpus, linkage, assessments, model, cfg, log_path=path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.rows)
    assert float(rows[0]["l_search"]) == pytest.approx(result.rows[0].l_search, abs=1e-6)
    assert list(rows[0]) == ["epoch", "l_search", "l_va", "total", "valid_ndcg10"]


def test_epoch_log_grows_as_training_runs(gen_small, tmp_path, monkeypatch):
    """Each epoch's validation sees the log with a header and one row per
    finished epoch; each finished row reaches `on_epoch` once its line is
    in the file, and the final file holds the rows of the result."""
    corpus, linkage, assessments = gen_small
    path = tmp_path / "log.csv"
    seen, reported = [], []
    validate = TR.evaluate_sessions

    def read_log():
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def spy(*args, **kwargs):
        seen.append(read_log())
        return validate(*args, **kwargs)

    monkeypatch.setattr(TR, "evaluate_sessions", spy)
    model = M.init_model(corpus, M.ModelConfig(d=8, seed=2))
    cfg = TR.TrainConfig(max_epochs=3, patience=3, batch_size=8, va_batch=8, seed=2)
    result = TR.train(corpus, linkage, assessments, model, cfg, log_path=path,
                      on_epoch=lambda row: reported.append((row, len(read_log()))))
    final = read_log()
    assert [len(log) for log in seen] == [1, 2, 3]
    assert all(log == final[:len(log)] for log in seen)
    assert reported == [(row, row.epoch + 1) for row in result.rows]
    assert [int(line[0]) for line in final[1:]] == [1, 2, 3]


def test_every_parameter_receives_gradient(gen_small):
    corpus, linkage, assessments = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8, seed=3))
    cfg = TR.TrainConfig(lambda_l2=0.0, va_batch=8, seed=3)
    kept_map = TR.kept_consultations(assessments)
    split = TR.split_sessions(corpus)
    rng = np.random.default_rng(3)
    table = corpus_features(model, corpus)
    examples = examples_of(model, corpus, table, split.train, kept_map)
    truths = [ex.session.ground_truth_item for ex in examples]
    negs = [TR.sample_negative_items(model.item_ids, t, 5, rng) for t in truths]
    l_search = TR.loss_search(
        model, M.session_forward(model, table, [ex.inputs for ex in examples]), truths, negs, cfg)
    samples = TR.sample_va_batch(examples, table, TR.linked_pairs(table, corpus, linkage),
                                 cfg, rng, {})
    assert samples
    total = TR.total_loss(l_search, TR.loss_va(model, samples, table, cfg),
                          model.parameters(), cfg)
    T.backward(total)
    for name, t in model.named_parameters().items():
        assert t.grad is not None, f"{name} got no gradient"
        assert np.any(t.grad != 0.0), f"{name} gradient is all zero"


def test_training_raises_attention_mass_on_linked_pairs():
    corpus, _ = generate(GenSpec(n_users=25, n_items=40, seed=9))
    linkage = build_linkage(corpus)
    assessments = assess_corpus(corpus, linkage, fit_buckets(linkage, ValueParams.n_buckets))
    fresh = M.init_model(corpus, M.ModelConfig(d=16, seed=9))
    table = corpus_features(fresh, corpus)
    pairs = TR.linked_pairs(table, corpus, linkage)

    # Probe each pair the way inference sees it: anchored at the user's
    # latest training session, over the actions known at that point.
    split = TR.split_sessions(corpus)
    anchor_by_user = {}
    for user, session in split.train:
        prev = anchor_by_user.get(user)
        if prev is None or session.timestamp > prev:
            anchor_by_user[user] = session.timestamp
    flat = []
    for user in sorted(pairs):
        anchor = anchor_by_user.get(user)
        if anchor is None:
            continue
        own = table.span(user, 1)
        prior = own[table.action_ts[own] < anchor]
        for c, a in pairs[user]:
            if table.consultation_ts[c] < anchor and table.action_ts[a] < anchor:
                flat.append((user, c, a - own[0], anchor, prior))
    assert len(flat) >= 100

    def mean_true_mass(model):
        masses = []
        for user, c, col, anchor, prior in flat:
            texts, _, c_rows, a_rows = M.cai_inputs(model, table, np.array([[c]]), prior[None],
                                                    np.array([[anchor]]))
            logits = M.attention_logits(model.block, M.cai_queries(model, c_rows[0], texts),
                                        M.cai_keys(model, a_rows[0], texts))
            masses.append(float(T.softmax(logits).data[0, col]))
        return float(np.mean(masses))

    baseline = mean_true_mass(fresh)
    cfg = TR.TrainConfig(max_epochs=6, patience=6, batch_size=24, va_batch=24,
                         lambda_va=0.5, seed=9)
    result = TR.train(corpus, linkage, assessments, fresh, cfg)
    trained = mean_true_mass(result.model)
    assert trained > baseline


def test_ablation_fits_buckets_with_its_value_params(monkeypatch):
    """The ablation fits its frequency buckets with the bucket count of its
    own value params; the spy stops the run before any training."""
    class Fitted(Exception):
        pass

    seen = []

    def spy(linkage, n_buckets):
        seen.append(n_buckets)
        raise Fitted

    monkeypatch.setattr(ablation, "fit_buckets", spy)
    cfg = {**ablation.SMALL, "gen_users": 3, "gen_items": 10, "n_buckets": 5}
    with pytest.raises(Fitted):
        ablation.run_ablation(cfg, seeds=(0,))
    assert seen == [5]


def test_ablation_variants_name_real_settings():
    """Every override key names a config setting, so none is dropped
    silently, and every variant but the full model changes a value of the
    small setting."""
    base = cli.validate_config(ablation.SMALL)
    for name, overrides in ablation.VARIANTS.items():
        assert set(overrides) <= set(cli.CONFIG_DEFAULTS), name
        changed = [k for k, v in overrides.items() if v != base[k]]
        assert bool(changed) == (name != ablation.FULL), name


@pytest.mark.parametrize("config, variant, says", [
    ({**ablation.SMALL, "gen_userz": 3}, {}, "unknown config keys: gen_userz"),
    (ablation.SMALL, {"lambda_vaa": 0.0}, "unknown config keys: lambda_vaa"),
    (ablation.SMALL, {"value_filter": "no"}, "wrong-typed config values: value_filter='no'"),
    ({**ablation.SMALL, "n_neg_eval": 0}, {}, "n_neg_eval must be >= 1, got 0"),
], ids=["config-key", "variant-key", "variant-type", "n-neg-eval"])
def test_ablation_refuses_a_bad_setting_before_training(monkeypatch, config, variant, says):
    """A key that is no setting, in the config or in a variant, or a value of
    the wrong type, is a config error raised before any corpus is made or
    any model trains."""
    made = []
    monkeypatch.setattr(ablation, "generate", lambda spec: made.append(spec))
    monkeypatch.setattr(ablation, "fit", lambda *a: made.append(a))
    monkeypatch.setitem(ablation.VARIANTS, "bad", variant)
    with pytest.raises(cli.ConfigError, match=says):
        ablation.run_ablation(config, seeds=(0, 1))
    assert made == []


def test_ablation_ranks_against_n_neg_eval_negatives(monkeypatch):
    """Each variant ranks its test sessions against `n_neg_eval` sampled
    negatives, or the catalog less the ground truth when that is fewer."""
    seen = []
    monkeypatch.setattr(ablation, "fit", lambda *a: ([], SimpleNamespace(model=None)))
    monkeypatch.setattr(TR, "model_score_fn", lambda *a, **k: None)
    monkeypatch.setattr(ablation, "evaluate_sessions", lambda *a, n_neg, seed: seen.append(
        n_neg) or SimpleNamespace(macro={"ndcg@10": 0.0}))
    corpus, _ = generate(GenSpec(n_users=6, n_items=20, seed=0))
    for n_neg in (7, 99):
        ablation._run_variant(corpus, None, None,
                              cli.validate_config({**ablation.SMALL, "n_neg_eval": n_neg}))
    assert seen == [7, 19]


def test_ablation_scores_are_pinned():
    """One seed of a 10-epoch ablation gives the scores it gave when each
    variant was a hand-written column; at this seed all seven differ."""
    cfg = {**ablation.SMALL, "max_epochs": 10, "patience": 10}
    assert ablation.run_ablation(cfg, seeds=(1,)).per_seed == {
        "full": [0.695818579045153],
        "no_time": [0.6847791474095023],
        "no_scope": [0.6914542539261045],
        "no_action": [0.6970814889571204],
        "no_va": [0.693765035323658],
        "no_cai": [0.6737660665885538],
        "semantic_only": [0.6814626937760399],
    }


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _graph(loss):
    """Every node of the graph that ends at `loss`, leaves and constants too."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _held_bytes(nodes):
    """Bytes of the distinct buffers the nodes' arrays hold: a view counts
    as its base array, and each base array counts once."""
    bases = {}
    for node in nodes:
        base = node.data
        while base.base is not None:
            base = base.base
        bases[id(base)] = base.nbytes
    return sum(bases.values())


def random_steps(seed, l_seq):
    """Random batches of 1-24 sessions of SMALL_CONFIG-sized corpora, as
    (model, table, cfg, inputs, ground truths, negatives, alignment
    samples) for 8 steps.  Two added sessions, built by hand on the
    model's table, have no actions and no consultations; the first batch
    holds both."""
    corpus, _ = generate(GenSpec(n_users=8, n_items=16, seed=seed))
    linkage = build_linkage(corpus)
    params = ValueParams(l_seq=l_seq)
    assessments = assess_corpus(corpus, linkage, fit_buckets(linkage, params.n_buckets), params)
    model = M.init_model(corpus, M.ModelConfig(d=16, seed=seed))
    cfg = TR.TrainConfig(va_batch=8)
    table, kept = model.features, TR.kept_consultations(assessments)
    split = TR.split_sessions(corpus)
    examples = examples_of(model, corpus, table, split.train + split.valid + split.test,
                           kept, l_seq)
    user = sorted(corpus.users)[0]
    row, consultations, actions = M.user_row(model, user), table.span(user, 0), table.span(user, 1)
    searched = table.actions[actions, 2]
    searched = searched[searched >= 0]
    none = np.empty(0, dtype=np.int64)
    features = [ex.inputs for ex in examples] + [
        M.SessionInputs(row, consultations[:3], none, searched[:1], none, int(searched[-1]),
                        10**4),
        M.SessionInputs(row, none, actions[:6], none, np.array([model.item_rows[
            model.item_ids[0]]]), int(searched[0]), 10**4)]
    assert not len(features[-2].actions) and not len(features[-1].consultations)
    truths = [ex.session.ground_truth_item for ex in examples] + list(model.item_ids[:2])
    pairs = TR.linked_pairs(table, corpus, linkage)
    rng = np.random.default_rng(seed)
    for trial in range(8):
        size = int(rng.integers(1, 25))
        picked = rng.choice(len(features), size, replace=size > len(features)).tolist()
        if trial == 0:
            picked[-2:] = [len(features) - 2, len(features) - 1]
        batch_t = [truths[i] for i in picked]
        negs = [TR.sample_negative_items(model.item_ids, t, 5, rng) for t in batch_t]
        samples = TR.sample_va_batch([examples[i] for i in picked if i < len(examples)],
                                     table, pairs, cfg, rng, kept)
        yield model, table, cfg, [features[i] for i in picked], batch_t, negs, samples


@pytest.mark.parametrize("seed, l_seq", [(5, 1), (6, ValueParams.l_seq)])
def test_batched_step_matches_batches_of_one(seed, l_seq):
    """On `random_steps`, the padded batch gives the e_final rows, the
    losses and the gradients of the same sessions run one at a time, the
    way training ran them before it batched."""
    for model, table, cfg, batch_f, batch_t, negs, samples in random_steps(seed, l_seq):
        size = len(batch_f)
        zero_grads(model.parameters())
        e_batch = M.session_forward(model, table, batch_f)
        l_search = TR.loss_search(model, e_batch, batch_t, negs, cfg)
        terms = [l_search] + ([TR.loss_va(model, samples, table, cfg)] if samples else [])
        T.backward(reduce(T.add, terms))
        batched = [p.grad.copy() for p in model.parameters()]

        zero_grads(model.parameters())
        e_one = [M.session_forward(model, table, [f]) for f in batch_f]
        one_terms = [T.scale(reduce(T.add, [
            TR.loss_search(model, e, [t], [n], cfg) for e, t, n in zip(e_one, batch_t, negs)
        ]), 1.0 / size)]
        if samples:
            one_terms.append(T.scale(reduce(T.add, [
                TR.loss_va(model, [s], table, cfg) for s in samples]), 1.0 / len(samples)))
        T.backward(reduce(T.add, one_terms))

        assert e_batch.shape == (size, model.cfg.d)
        assert _relative(e_batch.data, np.concatenate([e.data for e in e_one])) < 1e-12
        for got, want in zip(terms, one_terms):
            assert _relative(got.data, want.data) < 1e-12
        for p, got in zip(model.parameters(), batched):
            assert _relative(got, p.grad) < 1e-10


@pytest.mark.parametrize("seed, l_seq", [(5, 1), (6, ValueParams.l_seq)])
def test_batched_step_is_the_replaced_formulations_bit_for_bit(seed, l_seq, monkeypatch):
    """On `random_steps`, a training step gives the e_final, both losses
    and every parameter gradient that the formulations it replaced give,
    bit for bit: the masked add over the padded block in `lookup_sum`, the
    token gather before `mean_pool`, the CAI rows placed by an identity
    product, the ones-vector product in `squeeze` and the product with a
    transpose node in `attention_logits` (`oracles.replaced_formulations`)."""

    def step(model, table, cfg, batch_f, batch_t, negs, samples):
        zero_grads(model.parameters())
        e_final = M.session_forward(model, table, batch_f)
        l_search = TR.loss_search(model, e_final, batch_t, negs, cfg)
        l_va = TR.loss_va(model, samples, table, cfg) if samples else None
        T.backward(TR.total_loss(l_search, l_va, model.parameters(), cfg))
        return [e_final.data, l_search.data, None if l_va is None else l_va.data,
                *(p.grad for p in model.parameters())]

    for drawn in random_steps(seed, l_seq):
        got = step(*drawn)
        with monkeypatch.context() as patched:
            oracles.replaced_formulations(patched)
            want = step(*drawn)
        for g, w in zip(got, want):
            assert (g is None and w is None) or np.array_equal(g, w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factorized_alignment_loss_matches_materialized_keys(seed):
    """On random batches, `loss_va` and every parameter gradient match the
    oracle that builds the [samples, 1 + K, d] keys, to 1e-12 relative.
    Every batch has samples padded below va_batch negatives, search
    actions (text keys), and item rows repeated within and across samples."""
    corpus, _ = generate(GenSpec(n_users=8, n_items=16, seed=seed))
    linkage = build_linkage(corpus)
    model = M.init_model(corpus, M.ModelConfig(d=16, seed=seed))
    table = model.features
    pairs = TR.linked_pairs(table, corpus, linkage)
    flat = [pair for user in sorted(pairs) for pair in pairs[user]]
    cfg = TR.TrainConfig(tau1=0.5, va_batch=12)
    rng = np.random.default_rng(seed)
    params = model.named_parameters()
    for trial in range(6):
        samples = []
        for k in [cfg.va_batch, 0] + rng.integers(0, cfg.va_batch, size=trial).tolist():
            c, a = flat[int(rng.integers(len(flat)))]
            anchor = int(max(table.consultation_ts[c], table.action_ts[a]) + rng.integers(1, 500))
            negatives = rng.choice(len(table.actions), size=k)  # with repeats
            samples.append(TR.VaSample(c, a, negatives, anchor))
        keys = table.actions[np.concatenate([np.append(s.positive, s.negatives)
                                             for s in samples])]
        items = keys[keys[:, 1] >= 0, 1]
        assert (keys[:, 2] >= 0).any() and len(np.unique(items)) < len(items)

        grads = []
        for loss_fn in (TR.loss_va, oracles.materialized_loss_va):
            zero_grads(params.values())
            loss = loss_fn(model, samples, table, cfg)
            T.backward(loss)
            grads.append((loss.item(), {name: p.grad for name, p in params.items()}))
        (got, got_grads), (want, want_grads) = grads
        assert abs(got - want) <= 1e-12 * abs(want)
        for name in ("token_emb", "item_emb", "time_emb", "action_emb", "attn_wq", "attn_wk",
                     "text_w", "text_b"):
            assert _relative(got_grads.pop(name), want_grads.pop(name)) <= 1e-12, name
        assert set(got_grads.values()) == set(want_grads.values()) == {None}


def step_graph(n):
    """The graph of one training step over the first n of 24 sessions that
    all read consultations, actions and item history and draw an alignment
    sample."""
    corpus, _ = generate(GenSpec(n_users=16, n_items=20, seed=12))
    linkage, assessments = pipeline(corpus)
    model = M.init_model(corpus, M.ModelConfig(d=8))
    kept_map = TR.kept_consultations(assessments)
    table = model.features
    pairs = TR.linked_pairs(table, corpus, linkage)
    cfg = TR.TrainConfig(va_batch=8)
    examples = [
        ex for ex in examples_of(model, corpus, table, TR.split_sessions(corpus).train, kept_map)
        if len(ex.inputs.consultations) and len(ex.inputs.item_history)
        and TR.sample_va_batch([ex], table, pairs, cfg, np.random.default_rng(0), kept_map)
    ]
    assert len(examples) >= 24
    rngs = map(np.random.default_rng, (1, 2))
    return _graph(TR.step_loss(model, examples[:n], table, pairs, kept_map, cfg, *rngs)[0])


def test_step_graph_does_not_grow_with_batch():
    """A step over 24 sessions records as many graph nodes as a step over one
    of them."""
    assert len(step_graph(1)) == len(step_graph(24)) <= 88


def test_step_graph_holds_no_copies():
    """The arrays a step over 24 sessions holds in its graph, parameters
    included, take the bytes they took when each activation was held once:
    an op that keeps a copy no backward pass reads, such as a [tokens, d]
    gather or a transposed gradient, adds to them."""
    assert _held_bytes(step_graph(24)) == 865464


def test_each_batch_text_is_encoded_once(gen_small, monkeypatch):
    """One training step over two sessions of one user encodes each
    distinct table text their inputs read once, the history the sessions
    share too; the alignment loss encodes its samples' texts once each in
    a call of its own."""
    corpus, linkage, assessments = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table, kept_map = model.features, TR.kept_consultations(assessments)
    pairs = TR.linked_pairs(table, corpus, linkage)
    train = TR.split_sessions(corpus).train
    user = max(pairs, key=lambda u: sum(v == u for v, _ in train))
    batch = examples_of(model, corpus, table, [(u, s) for u, s in train if u == user][-2:],
                        kept_map)
    assert len(batch) == 2

    def read(inputs):
        searched = table.actions[inputs.actions, 2]
        return {*inputs.consultations, *inputs.query_history, inputs.query,
                *searched[searched >= 0]}

    encoded, drawn = [], []
    sample_va_batch = TR.sample_va_batch
    monkeypatch.setattr(M, "encode_text", _logged(encoded, M.encode_text))
    monkeypatch.setattr(TR, "sample_va_batch", lambda *a: drawn.extend(sample_va_batch(*a))
                        or drawn)
    TR.step_loss(model, batch, table, pairs, kept_map, TR.TrainConfig(va_batch=8),
                 *map(np.random.default_rng, (1, 2)))

    sessions = read(batch[0].inputs) | read(batch[1].inputs)
    assert len(sessions) < len(read(batch[0].inputs)) + len(read(batch[1].inputs))
    keys = table.actions[np.concatenate([np.append(s.positive, s.negatives) for s in drawn]), 2]
    samples = {s.consultation for s in drawn} | set(keys[keys >= 0])
    assert drawn
    assert encoded == [_rows_of(table, sessions), _rows_of(table, samples)]


def _logged(log, encode_text):
    """`encode_text`, appending the token ids and offsets of each call to `log`."""
    return lambda model, ids, offsets: log.append(
        (ids.tolist(), offsets.tolist())) or encode_text(model, ids, offsets)


def _rows_of(table, texts):
    """The token ids and offsets of these table texts, in index order."""
    tokens = [table.token_ids[table.text_offsets[i]:table.text_offsets[i + 1]]
              for i in sorted(texts)]
    return np.concatenate(tokens).tolist(), np.cumsum([0] + [len(t) for t in tokens]).tolist()


def test_scorer_encodes_every_table_text_once(gen_small, monkeypatch):
    """A scorer encodes every text of the feature table in one call when it
    is made; scoring sessions under both protocols encodes nothing more."""
    corpus, _, assessments = gen_small
    model = M.init_model(corpus, M.ModelConfig(d=8))
    table = model.features
    encoded = []
    monkeypatch.setattr(M, "encode_text", _logged(encoded, M.encode_text))
    score = TR.model_score_fn(model, corpus, TR.kept_consultations(assessments))
    assert encoded == [_rows_of(table, range(len(table.text_offsets) - 1))]
    test = TR.split_sessions(corpus).test
    for user, session in test:
        score(user, session, None)
        score(user, session, model.item_ids[:3])
    assert len(encoded) == 1


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value_filter", [True, False])
def test_scorer_matches_per_batch_encoding(value_filter):
    """On an `ablation.SMALL`-sized corpus (30 users, 20 items, d 32) and
    two briefly trained models, one with lambda3_skip 0, at l_seq 1 and 30:
    the scorer reads its texts from the table it encoded ahead, and its
    scores of each session equal, bit for bit, `score_candidates` of a
    `session_forward` over that session alone, which encodes the session's
    own texts, under both protocols.  Its catalog scores (None) equal its
    scores of the explicit catalog list to 1e-12.  Sessions built by hand
    on the model's table, with no consultations, no actions, or nothing but
    their query to read, give `plain_forward` and `plain_scores` the same
    bits."""
    corpus, _ = generate(GenSpec(n_users=30, n_items=20, seed=5))
    linkage = build_linkage(corpus)
    split = TR.split_sessions(corpus)
    sessions = split.train + split.valid + split.test
    cfg = TR.TrainConfig(tau1=1.0, lambda_va=0.3, va_batch=8, batch_size=24, max_epochs=1,
                         patience=1, lr=0.003, seed=5)
    kept_maps = {}
    for l_seq in (1, 30):
        params = ValueParams(l_seq=l_seq)
        kept_maps[l_seq] = (TR.kept_consultations(assess_corpus(
            corpus, linkage, fit_buckets(linkage, params.n_buckets), params))
            if value_filter else TR.recent_consultations(corpus, l_seq))
    rng = np.random.default_rng(5)
    for lam in (1.0, 0.0):
        model = TR.train(corpus, linkage, [], M.init_model(
            corpus, M.ModelConfig(d=32, lambda3_skip=lam, seed=5)), cfg, l_seq=1,
            value_filter=False).model
        table = model.features
        for l_seq, kept in kept_maps.items():
            score = TR.model_score_fn(model, corpus, kept if value_filter else None,
                                      l_seq=l_seq, value_filter=value_filter)
            for (user, session), seed in zip(sessions,
                                             rng.integers(0, 2**31, len(sessions))):
                ranking = E.make_candidates(session.ground_truth_item, corpus, n_neg=9,
                                            seed=int(seed))
                inputs = TR.build_example(model, corpus, table, user, session, kept, l_seq)
                e_final = M.session_forward(model, table, [inputs])
                for candidates in (ranking, None):
                    got = score(user, session, candidates)
                    assert got.shape == (10 if candidates else len(corpus.items),)
                    want = M.score_candidates(
                        model, e_final, None if candidates is None else [candidates]).data
                    assert _same_bits(got[None], want)
                # got: the catalog scores of the last pass
                assert _relative(got, score(user, session, corpus.item_ids)) < 1e-12

        plain = M.plain_model(model)
        user = sorted(corpus.users)[0]
        row, consultations, actions = (M.user_row(model, user), table.span(user, 0),
                                       table.span(user, 1))
        searched = table.actions[actions, 2]
        searched = searched[searched >= 0]
        none = np.empty(0, dtype=np.int64)
        for inputs in (
            M.SessionInputs(row, consultations[:3], none, searched[:1], none,
                            int(searched[-1]), 10**4),
            M.SessionInputs(row, none, actions[:6], none, np.array([0]), int(searched[0]),
                            10**4),
            M.SessionInputs(row, none, none, none, none, int(searched[0]), 10**4),
        ):
            e_final = M.session_forward(model, table, [inputs])
            assert _same_bits(M.plain_forward(plain, inputs), e_final.data)
            for ids in ([list(model.item_ids[:5])], None):
                assert _same_bits(M.plain_scores(plain, M.plain_forward(plain, inputs),
                                                 None if ids is None else ids[0]),
                                  M.score_candidates(model, e_final, ids).data)
