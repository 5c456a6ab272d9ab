"""Hand-checkable worked examples for the scoring stack.

Each function replays a batch of examples small enough to verify on paper
and asserts the library reproduces them, to 1e-9 wherever the expected
value is a closed form.  The acceptance suite runs all three batches under
a timing budget; the per-module unit tests run them too.
"""

import ast
import inspect
import textwrap

from consultrank.corpus import (
    ActionType,
    Consultation,
    Corpus,
    Interaction,
    Item,
    Query,
    SearchSession,
    UserHistory,
    slice_before,
)
from consultrank.index import (
    ScopeParams,
    build_index,
    matched_terms,
    normalize,
    scope_value,
)
from consultrank.linkage import (
    RULE_FULL_TEXT,
    RULE_ITEM_MAJORITY,
    RULE_QUERY_MAJORITY,
    LinkageParams,
    action_text,
    build_linkage,
    is_related,
)
from consultrank.value import (
    ValueParams,
    action_terms,
    action_value,
    aggregate_value,
    bucketize,
    consultation_terms,
    fit_buckets,
    gamma_weights,
    linked_times,
    nearest_rank_cuts,
    rank_and_filter,
    time_bucket,
    time_decay_value,
)

TOL = 1e-9


def _items_corpus(*items):
    return Corpus(items={it.id: it for it in items}, users={})


def _consult(cid, ts, text):
    return Consultation(id=cid, user_turn=text, assistant_turn="", timestamp=ts)


def _buy(ts, iid):
    return Interaction(ActionType.BUY, ts, target_item=iid)


def _search(ts, text):
    return Interaction(ActionType.SEARCH, ts, target_query=Query(text, ts))


def _history(uid, consultations=(), interactions=(), searches=()):
    return UserHistory(
        user_id=uid,
        searches=tuple(searches),
        consultations=tuple(consultations),
        interactions=tuple(interactions),
    )


def _related(c, interaction, corpus):
    """`is_related` on the token lists and sets `build_linkage` passes it."""
    c_tokens = normalize(c.text)
    ti_tokens = normalize(action_text(interaction, corpus))
    return is_related(
        c_tokens, set(c_tokens), ti_tokens, set(ti_tokens), interaction.action_type
    )


def _verified(c, s_ts, table, buckets, history):
    """`action_value` on the inputs `assess_corpus` passes it."""
    _before, posterior = slice_before(history, s_ts)
    times = linked_times(table.actions_for(history.user_id, c.id))
    return action_value(times, s_ts, action_terms(gamma_weights(posterior), buckets))


def index_examples():
    one = _items_corpus(Item("i1", "folding phone"))
    idx = build_index(one)
    assert idx.postings == {"folding": ["i1"], "phone": ["i1"]}

    two = _items_corpus(Item("i2", "gaming laptop"), Item("i1", "travel laptop"))
    assert build_index(two).postings["laptop"] == ["i1", "i2"]

    degenerate = _items_corpus(Item("i1", "The Of And This"))
    assert build_index(degenerate).postings == {}

    politics = _consult("c1", 5, "the election and politics debate was heated")
    assert matched_terms(idx, politics) == set()
    on_topic = _consult("c2", 5, "does this folding phone fold well")
    assert matched_terms(idx, on_topic) == {"folding", "phone"}
    repeated = _consult("c3", 5, "phone phone phone")
    assert matched_terms(idx, repeated) == {"phone"}

    p4 = ScopeParams(lambda_thresh=4)
    assert scope_value(idx, politics, p4) == 0.0
    assert abs(scope_value(idx, on_topic, p4) - 0.5) < TOL

    wide = _items_corpus(
        Item("w1", "alpha bravo charlie delta echo foxtrot golf hotel india juliet")
    )
    widx = build_index(wide)
    ten = _consult(
        "c4", 5, "alpha bravo charlie delta echo foxtrot golf hotel india juliet"
    )
    assert len(matched_terms(widx, ten)) == 10
    assert scope_value(widx, ten, p4) == 1.0


def linkage_examples():
    catalog = _items_corpus(
        Item("i1", "Laptop OG G14", ("16GB",)),
        Item("i2", "Laptop OG G14"),
        Item("i3", "widget", ("alpha", "beta", "gamma")),
    )

    assert action_text(_search(10, "gaming laptop"), catalog) == "gaming laptop"
    assert action_text(_buy(10, "i1"), catalog) == "Laptop OG G14 16GB"

    c = _consult("c1", 0, "thinking of buying the Laptop OG G14 soon")
    assert _related(c, _buy(10, "i2"), catalog) == (True, RULE_FULL_TEXT)

    c_one_term = _consult("c2", 0, "i like the phone")
    assert _related(c_one_term, _search(10, "red folding phone case"), catalog) == (
        False,
        None,
    )

    c_three = _consult("c3", 0, "my widget has alpha and beta issues")
    assert _related(c_three, _buy(10, "i3"), catalog) == (True, RULE_ITEM_MAJORITY)

    c_query = _consult("c4", 0, "want a red folding phone someday")
    assert _related(c_query, _search(10, "red folding phone case"), catalog) == (
        True,
        RULE_QUERY_MAJORITY,
    )

    stale = _consult("c5", 0, "thinking of buying the Laptop OG G14 soon")
    far_buy = _buy(15 * 24, "i2")
    corpus = Corpus(
        items=dict(catalog.items),
        users={"u": _history("u", [stale], [far_buy])},
    )
    table = build_linkage(corpus, LinkageParams(window_days=14))
    assert table.actions_for("u", "c5") == []

    quiet = Corpus(
        items=dict(catalog.items), users={"u": _history("u", [stale, c_one_term])}
    )
    qtable = build_linkage(quiet)
    assert all(qtable.actions_for("u", cid) == [] for cid in ("c5", "c2"))

    near_buy = _buy(2 * 24, "i2")
    pair = Corpus(
        items=dict(catalog.items), users={"u": _history("u", [stale], [near_buy])}
    )
    ptable = build_linkage(pair)
    assert ptable.actions_for("u", "c5") == [(near_buy, RULE_FULL_TEXT)]


def value_examples():
    assert time_decay_value(100, 100, 0.99) == 1.0
    assert abs(time_decay_value(101, 100, 0.99) - 0.99) < TOL
    month = time_decay_value(720, 0, 0.99)
    assert month == 0.99**720 and 7.2e-4 < month < 7.3e-4

    assert time_bucket(0, 13) == 0
    assert time_bucket(7, 13) == 3
    assert time_bucket(10**6, 13) == 12

    assert nearest_rank_cuts(list(range(1, 111)), 11) == tuple(range(10, 101, 10))
    assert nearest_rank_cuts([3], 11) == (3,) * 10
    assert nearest_rank_cuts([], 11) == (0,) * 10

    decade_cuts = tuple(range(10, 101, 10))
    assert bucketize(5, decade_cuts) == 0.0
    assert abs(bucketize(55, decade_cuts) - 0.5) < TOL
    assert bucketize(200, decade_cuts) == 1.0
    zero_cuts = (0,) * 10
    assert bucketize(0, zero_cuts) == 0.0
    assert bucketize(1, zero_cuts) == 1.0

    posterior = (
        [_search(t, "q") for t in range(10)]
        + [Interaction(ActionType.CLICK, t, target_item="i1") for t in range(20)]
        + [_buy(0, "i1"), _buy(1, "i1")]
    )
    gammas = gamma_weights(posterior)
    assert abs(gammas[ActionType.BUY] - 10 / 13) < TOL
    assert abs(gammas[ActionType.SEARCH] - 2 / 13) < TOL
    assert abs(gammas[ActionType.CLICK] - 1 / 13) < TOL
    assert abs(sum(gammas.values()) - 1.0) < 1e-12
    assert gamma_weights([_buy(0, "i1")]) == {ActionType.BUY: 1.0}
    balanced = gamma_weights([_buy(0, "i1"), _search(0, "q")])
    assert balanced[ActionType.BUY] == balanced[ActionType.SEARCH] == 0.5
    assert gamma_weights([]) == {}

    mixed = gammas[ActionType.BUY] * 1.0 + gammas[ActionType.SEARCH] * 0.5
    assert abs(mixed - 11 / 13) < TOL and abs(mixed - 0.8461) < 1e-4

    item = Item("g1", "alpha beta gadget")
    chatter = [_consult(f"c{i:02d}", i, "idle weekend chatter") for i in range(10)]
    hot = _consult("c99", 10, "tell me about the alpha beta gadget")
    the_buy = _buy(20, "g1")
    corpus = Corpus(
        items={"g1": item},
        users={"u": _history("u", chatter + [hot], [the_buy])},
    )
    table = build_linkage(corpus)
    buckets = fit_buckets(table, ValueParams.n_buckets)
    history = corpus.users["u"]
    assert _verified(chatter[0], 15, table, buckets, history) == 0.0
    assert _verified(hot, 15, table, buckets, history) == 1.0
    no_posterior = Corpus(items={"g1": item}, users={"u": _history("u", [hot])})
    np_table = build_linkage(no_posterior)
    assert (
        _verified(hot, 15, np_table, fit_buckets(np_table, ValueParams.n_buckets), no_posterior.users["u"])
        == 0.0
    )

    params = ValueParams()
    assert aggregate_value(1.0, 1.0, 1.0, params) == 1.0
    assert abs(aggregate_value(0.8, 1.0, 0.5, params) - 0.725) < TOL
    drop_mix = ValueParams(lambda1=0.0)
    assert aggregate_value(0.37, 1.0, 1.0, drop_mix) == 0.37

    few = _rank_fixture(3)
    kept, reports = few
    assert len(kept) == 3 and len(reports) == 3
    assert [r.rank for r in reports] == [1, 2, 3]
    aggs = [r.o_aggregate for r in reports]
    assert aggs == sorted(aggs, reverse=True)

    many_kept, many_reports = _rank_fixture(40)
    assert len(many_kept) == 30 and len(many_reports) == 40
    kept_scores = {r.cid: r.o_aggregate for r in many_reports[:30]}
    dropped = [r.o_aggregate for r in many_reports[30:]]
    assert all(min(kept_scores.values()) >= d for d in dropped)


def _rank_fixture(n_consultations):
    item = Item("g1", "alpha beta gadget")
    consults = [
        _consult(f"c{i:03d}", i, "tell me about the alpha beta gadget")
        for i in range(n_consultations)
    ]
    session_ts = n_consultations + 5
    q = Query("alpha beta gadget", session_ts)
    act = Interaction(ActionType.SEARCH, session_ts, target_query=q)
    session = SearchSession(q, act, "g1")
    corpus = Corpus(
        items={"g1": item},
        users={
            "u": _history("u", consults, [act, _buy(session_ts + 2, "g1")], [session])
        },
    )
    table = build_linkage(corpus)
    history = corpus.users["u"]
    scopes, times = consultation_terms(history, build_index(corpus), table)
    return rank_and_filter(
        history, session, scopes, times, fit_buckets(table, ValueParams.n_buckets), ValueParams()
    )


def run_all():
    """Execute every example group; return the number of checks performed.

    Each group is straight-line code, so statically counting its assert
    statements equals the number that ran."""
    checked = 0
    for group in (index_examples, linkage_examples, value_examples):
        group()
        tree = ast.parse(textwrap.dedent(inspect.getsource(group)))
        checked += sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
    return checked
