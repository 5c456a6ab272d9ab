"""Autodiff engine: op semantics, gradients, Adam, checkpoints."""

import base64
import hashlib
import json
import tempfile
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from consultrank import tensor as T

import oracles
from gradcheck import finite_diff_check, tensor_op_trials
from helpers import zero_grads


def test_softmax_uniform_on_equal_logits():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    out = T.softmax(T.Tensor(rng.normal(size=(5, 9)) * 30.0))
    assert np.allclose(out.data.sum(axis=-1), 1.0)
    assert np.all(out.data >= 0.0)


def test_softmax_stable_at_extreme_logits():
    out = T.softmax(T.Tensor([1000.0, 0.0, -1000.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] == pytest.approx(1.0)


def test_matmul_identity_preserves_input():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 5))
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(a))
    assert np.array_equal(out.data, a)


def test_dot_self_gradient_is_twice_input():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.matmul(x, x))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_sum_gradient_is_ones():
    x = T.Tensor([3.0, -1.0, 4.0], requires_grad=True)
    ones = T.Tensor([1.0, 1.0, 1.0])
    T.backward(T.matmul(x, ones))
    assert np.allclose(x.grad, [1.0, 1.0, 1.0])
    assert ones.grad is None


#: Operand shapes of every rank pair `matmul` supports.
MATMUL_SHAPES = {1: {1: ((3,), (3,)), 2: ((3,), (3, 4)), 3: ((3,), (2, 3, 4))},
                 2: {1: ((2, 3), (3,)), 2: ((2, 3), (3, 4)), 3: ((2, 3), (2, 3, 4))},
                 3: {1: ((2, 2, 3), (3,)), 2: ((2, 2, 3), (3, 4)), 3: ((2, 2, 3), (2, 3, 4))}}


@pytest.mark.parametrize("ranks", [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
@pytest.mark.parametrize("constant", [0, 1])
def test_matmul_constant_operand_takes_no_gradient(ranks, constant):
    """A constant operand gets no gradient, not even from the product's own
    backward step, and its partner's gradient is the one it gets when
    both operands are tracked."""
    rng = np.random.default_rng(sum(ranks))
    values = [rng.normal(size=shape) for shape in MATMUL_SHAPES[ranks[0]][ranks[1]]]
    shift = rng.normal(size=np.matmul(*values).shape)

    def grads(tracked):
        ops = [T.Tensor(v, requires_grad=k in tracked) for k, v in enumerate(values)]
        out = T.matmul(*ops)
        if constant not in tracked:
            out._backward(np.ones(out.shape))
            assert ops[constant].grad is None
            zero_grads(ops)
        T.backward(T.l2_norm_sq(T.add(out, T.Tensor(shift))))
        return [op.grad for op in ops]

    partner = 1 - constant
    alone = grads({partner})
    assert alone[constant] is None
    assert np.array_equal(alone[partner], grads({0, 1})[partner])


def test_untracked_leaf_gets_no_gradient():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    c = T.Tensor([5.0, 6.0])
    T.backward(T.l2_norm_sq(T.add(x, c)))
    assert x.grad is not None
    assert c.grad is None


def test_gradient_accumulates_when_leaf_reused():
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    T.backward(T.l2_norm_sq(T.add(x, x)))
    assert np.allclose(x.grad, 8.0 * x.data)


def test_backward_twice_raises():
    x = T.Tensor([1.0], requires_grad=True)
    loss = T.l2_norm_sq(x)
    T.backward(loss)
    with pytest.raises(RuntimeError, match="rebuild"):
        T.backward(loss)


def test_backward_rejects_non_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(T.tanh(x))


@pytest.mark.parametrize(
    "build, shapes",
    [
        (lambda: T.add(T.Tensor(np.zeros(3)), T.Tensor(np.zeros(4))), ["(3,)", "(4,)"]),
        (lambda: T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2)))),
         ["(2, 3)", "(4, 2)"]),
        (lambda: T.matmul(T.Tensor(np.zeros(2)), T.Tensor(np.zeros(5))), ["(2,)", "(5,)"]),
        (lambda: T.matmul(T.Tensor(np.zeros((1, 2, 3))), T.Tensor(np.zeros((4, 3, 2)))),
         ["(1, 2, 3)", "(4, 3, 2)"]),
        (lambda: T.lookup_mean(T.Tensor(np.zeros((4, 3))), [0, 1, 2, 3], [0, 2, 2, 4]),
         ["(4, 3)", "(4,)"]),
    ],
)
def test_shape_mismatch_names_both_shapes(build, shapes):
    with pytest.raises(ValueError) as err:
        build()
    for s in shapes:
        assert s in str(err.value)


def test_softmax_mask_zeroes_entries_and_whole_rows():
    z = np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
    mask = np.array([[[True, False, True], [False, False, False]]])
    y = T.softmax(T.Tensor(z), mask=mask).data
    assert np.allclose(y[0, 0], [1 / (1 + np.e**2), 0.0, 1 / (1 + np.e**-2)])
    assert np.array_equal(y[0, 1], np.zeros(3))
    assert np.array_equal(T.softmax(T.Tensor(z), mask=np.ones(3, dtype=bool)).data,
                          T.softmax(T.Tensor(z)).data)


def test_embedding_lookup_forms():
    table = T.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    batch = T.embedding_lookup(table, [1, 1, 3])
    assert batch.shape == (3, 3)
    assert np.array_equal(batch.data[2], [9.0, 10.0, 11.0])
    with pytest.raises(ValueError, match="out of range"):
        T.embedding_lookup(table, [0, 4])
    with pytest.raises(ValueError, match="out of range"):
        T.embedding_lookup(table, [-2])


def test_embedding_lookup_padding_row_is_zero_and_takes_no_gradient():
    table = T.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    out = T.embedding_lookup(table, [-1, 2, -1])
    assert np.array_equal(out.data, [[0.0] * 3, [6.0, 7.0, 8.0], [0.0] * 3])
    T.backward(T.l2_norm_sq(out))
    expected = np.zeros((4, 3))
    expected[2] = 2.0 * table.data[2]
    assert np.array_equal(table.grad, expected)


def test_embedding_lookup_accumulates_repeated_rows():
    table = T.Tensor(np.ones((4, 2)), requires_grad=True)
    pooled = T.matmul(T.Tensor([0.25] * 4), T.embedding_lookup(table, [1, 1, 1, 0]))
    T.backward(T.matmul(pooled, T.Tensor([1.0, 1.0])))
    assert np.allclose(table.grad[1], 0.75)
    assert np.allclose(table.grad[0], 0.25)
    assert np.allclose(table.grad[2], 0.0)


def test_lookup_sum_forward_is_the_add_chain_bit_for_bit():
    """One lookup-sum node gives the bits of the chain of one-table lookups
    and adds it replaced, padding rows included, and the same gradients."""
    rng = np.random.default_rng(8)
    tables = [T.Tensor(rng.normal(size=(n, 5)), requires_grad=True) for n in (3, 7, 4, 13)]
    idx = [rng.integers(-1, len(t.data), size=(6, 9)) for t in tables]
    fused = T.lookup_sum(*zip(tables, idx))
    chain = reduce(T.add, [T.embedding_lookup(t, i) for t, i in zip(tables, idx)])
    assert fused.data.tobytes() == chain.data.tobytes()
    T.backward(T.l2_norm_sq(fused))
    fused_grads = [t.grad for t in tables]
    zero_grads(tables)
    T.backward(T.l2_norm_sq(chain))
    for got, t in zip(fused_grads, tables):
        assert got.tobytes() == t.grad.tobytes()


def test_lookup_sum_is_the_masked_add_bit_for_bit():
    """Gathering and adding only the real entries gives the bits of the
    masked add over the whole padded block, forward and backward, with
    tables read at every position, at some and at none."""
    rng = np.random.default_rng(12)
    tables = [T.Tensor(rng.normal(size=(n, 6)), requires_grad=True) for n in (5, 9, 4, 3)]
    idx = [rng.integers(0, 5, size=(7, 4)), rng.integers(-1, 9, size=(7, 4)),
           np.full((7, 4), -1), rng.integers(-1, 3, size=(7, 4))]
    grads = []
    for lookup in (T.lookup_sum, oracles.masked_add_lookup_sum):
        out = lookup(*zip(tables, idx))
        T.backward(T.l2_norm_sq(T.tanh(out)))
        grads.append([out.data, *(t.grad for t in tables)])
        zero_grads(tables)
    for got, want in zip(*grads):
        assert got.tobytes() == want.tobytes()


def test_lookup_sum_refuses_mismatched_lookups():
    a, b = T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="cannot add rows"):
        T.lookup_sum((a, [0, 1]), (b, [0, 1]))
    with pytest.raises(ValueError, match="cannot add rows"):
        T.lookup_sum((a, [0, 1]), (a, [0]))
    with pytest.raises(ValueError, match="out of range"):
        T.lookup_sum((a, [0, 1]), (a, [0, 3]))


def test_padding_indices_take_no_gradient():
    """Index -1 reads no row and no column: the last row of each table and
    the last column of the matrix, which only -1 would reach, get zero
    gradient, in a multi-table lookup-sum and in a column gather."""
    rng = np.random.default_rng(9)
    first, second = (T.Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(2))
    out = T.lookup_sum((first, [[-1, 0], [2, -1]]), (second, [[1, -1], [-1, -1]]))
    assert np.array_equal(out.data, [[second.data[1], first.data[0]],
                                     [first.data[2], np.zeros(3)]])
    T.backward(T.l2_norm_sq(out))
    assert np.array_equal(first.grad[[1, 3]], np.zeros((2, 3)))
    assert np.array_equal(second.grad[[0, 2, 3]], np.zeros((3, 3)))

    m = T.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    picked = T.gather_columns(m, [[0, -1, 2], [-1, 1, 1]])
    assert np.array_equal(picked.data, [[m.data[0, 0], 0.0, m.data[0, 2]],
                                        [0.0, m.data[1, 1], m.data[1, 1]]])
    T.backward(T.l2_norm_sq(picked))
    want = np.zeros((2, 4))
    want[0, [0, 2]] = 2.0 * m.data[0, [0, 2]]
    want[1, 1] = 4.0 * m.data[1, 1]  # a repeated column sums its gradients
    assert np.array_equal(m.grad, want)


def test_gather_columns_refuses_bad_columns():
    m = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        T.gather_columns(m, [[0, 3], [1, 1]])
    with pytest.raises(ValueError, match="out of range"):
        T.gather_columns(m, [[0, -2], [1, 1]])
    with pytest.raises(ValueError, match=r"\(2, 3\) and \(3, 1\)"):
        T.gather_columns(m, [[0], [1], [2]])
    assert T.gather_columns(T.Tensor(np.zeros((2, 0))), [[-1], [-1]]).data.tolist() == [[0.0],
                                                                                         [0.0]]


def test_nodes_fed_one_gradient_keep_their_own_grad_arrays():
    """`add` hands its upstream gradient to both parents; each keeps its own
    array, so a later accumulation into one does not leak into the other."""
    x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    y = T.Tensor([0.25, 3.0, -1.0], requires_grad=True)
    T.backward(T.l2_norm_sq(T.add(T.add(x, y), x)))
    assert not np.shares_memory(x.grad, y.grad)
    assert np.array_equal(y.grad, 2.0 * (2.0 * x.data + y.data))
    assert np.array_equal(x.grad, 4.0 * (2.0 * x.data + y.data))


def test_lookup_mean_of_single_row_is_identity():
    table = T.Tensor([[0.0, 1.0, 1.0], [2.0, -3.0, 0.5]])
    assert np.array_equal(T.lookup_mean(table, [1], [0, 1]).data, [[2.0, -3.0, 0.5]])


def test_lookup_mean_averages_each_segment():
    table = T.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.lookup_mean(table, [0, 1, 2], [0, 2, 3]).data,
                          [[2.0, 3.0], [5.0, 6.0]])


def test_lookup_mean_is_gather_then_mean_pool_bit_for_bit():
    """Pooling in one node gives the bits of a gather node, then
    `mean_pool` of the gathered rows, forward and backward, with repeated
    rows and segments of one to many rows; it keeps no gathered row."""
    rng = np.random.default_rng(13)
    table = T.Tensor(rng.normal(size=(11, 7)), requires_grad=True)
    lengths = [1, 9, 3, 1, 17, 2]
    idx = rng.integers(0, 11, size=sum(lengths))
    offsets = np.cumsum([0] + lengths)
    weights = T.Tensor(rng.normal(size=(7, 7)))
    got = T.lookup_mean(table, idx, offsets)
    assert got._parents == (table,)
    results = []
    for pooled in (got, oracles.mean_pool(T.embedding_lookup(table, idx), offsets)):
        T.backward(T.l2_norm_sq(T.tanh(T.matmul(pooled, weights))))
        results.append((pooled.data, table.grad))
        zero_grads([table])
    (got_data, got_grad), (want_data, want_grad) = results
    assert got_data.tobytes() == want_data.tobytes()
    assert got_grad.tobytes() == want_grad.tobytes()


def test_lookup_mean_refuses_padding_and_empty_segments():
    table = T.Tensor(np.zeros((3, 2)))
    for indices, offsets in (([0, -1], [0, 2]), ([0, 1], [0, 0, 2]), ([0, 1], [0, 1]),
                             ([[0, 1]], [0, 2])):
        with pytest.raises(ValueError, match="lookup_mean needs"):
            T.lookup_mean(table, indices, offsets)


@pytest.mark.parametrize("a_shape, b_shape", [((3, 5), (4, 5)), ((2, 1, 5), (2, 6, 5)),
                                              ((2, 3, 5), (2, 4, 5))])
def test_matmul_t_is_the_product_with_a_transpose_bit_for_bit(a_shape, b_shape):
    """a @ b^T as one node gives the bits of `matmul` with a `transpose`
    node, forward and backward, and b's gradient comes out in b's layout."""
    rng = np.random.default_rng(14)
    a, b = (T.Tensor(rng.normal(size=shape), requires_grad=True) for shape in (a_shape, b_shape))
    results = []
    for product in (T.matmul_t(a, b), T.matmul(a, T.transpose(b))):
        T.backward(T.l2_norm_sq(T.tanh(product)))
        results.append((product.data, a.grad, b.grad))
        zero_grads([a, b])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()
    assert results[0][2].flags.c_contiguous


def test_matmul_t_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match=r"\(3, 5\) by the transpose of \(4, 6\)"):
        T.matmul_t(T.Tensor(np.zeros((3, 5))), T.Tensor(np.zeros((4, 6))))
    with pytest.raises(ValueError, match="transpose of"):
        T.matmul_t(T.Tensor(np.zeros((2, 3, 5))), T.Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ValueError, match="transpose of"):
        T.matmul_t(T.Tensor(np.zeros((2, 3, 5))), T.Tensor(np.zeros((4, 5))))


def test_reshape_is_a_view_and_passes_the_gradient_back():
    a = T.Tensor(np.arange(12.0).reshape(2, 3, 2), requires_grad=True)
    flat = T.reshape(a, (6, 2))
    assert np.shares_memory(flat.data, a.data) and flat.shape == (6, 2)
    weights = T.Tensor(np.arange(1.0, 7.0))
    T.backward(T.matmul(weights, T.matmul(flat, T.Tensor([1.0, -1.0]))))
    assert np.array_equal(a.grad, np.outer(np.arange(1.0, 7.0), [1.0, -1.0]).reshape(2, 3, 2))


def test_nll_index_rows_match_per_row_losses():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(3, 5))
    mask = np.array([[1, 1, 1, 0, 0], [0, 1, 1, 1, 1], [1, 1, 1, 1, 1]], dtype=bool)
    target = [2, 1, 4]
    got = T.nll_index(T.Tensor(z), target, mask).item()
    # the same rows with their masked entries cut out, one at a time
    per_row = [
        T.nll_index(T.Tensor(z[r][mask[r]]), int(mask[r][:target[r]].sum())).item()
        for r in range(3)
    ]
    assert got == pytest.approx(np.mean(per_row), abs=1e-12)
    with pytest.raises(ValueError, match="masked"):
        T.nll_index(T.Tensor(z), [3, 1, 4], mask)


def test_finite_differences_over_all_ops():
    rng = np.random.default_rng(20260819)
    for trial in range(20):
        for name, build, leaves in tensor_op_trials(rng):
            worst = finite_diff_check(build, leaves, rng)
            assert worst < 1e-3, f"{name} trial {trial}: rel err {worst}"


def test_two_layer_composition_matches_central_differences():
    rng = np.random.default_rng(11)
    w1 = T.Tensor(rng.uniform(-1, 1, size=(6, 5)), requires_grad=True)
    w2 = T.Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True)
    x = T.Tensor(rng.uniform(-1, 1, size=6), requires_grad=True)

    def build():
        hidden = T.tanh(T.matmul(x, w1))
        return T.nll_index(T.matmul(hidden, w2), 2)

    loss = build()
    T.backward(loss)
    analytic = {id(t): t.grad.copy() for t in (w1, w2, x)}
    step = 1e-5
    for leaf in (w1, w2, x):
        flat = leaf.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(build().data)
            flat[i] = orig - step
            down = float(build().data)
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            assert abs(numeric - analytic[id(leaf)].reshape(-1)[i]) < 1e-4


def test_adam_zero_gradient_leaves_params_unchanged():
    p = T.Tensor([1.0, 2.0], requires_grad=True)
    state = T.AdamState([p], lr=0.1)
    p.grad = np.zeros(2)
    T.adam_step(state)
    assert np.array_equal(p.data, [1.0, 2.0])
    p.grad = None
    T.adam_step(state)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_constant_gradient_step_size_approaches_lr():
    p = T.Tensor([0.0], requires_grad=True)
    state = T.AdamState([p], lr=1e-3)
    for _ in range(25):
        before = p.data.copy()
        p.grad = np.array([2.5])
        T.adam_step(state)
        moved = abs(float(p.data[0] - before[0]))
        assert abs(moved - state.lr) / state.lr < 0.01


def test_adam_first_step_hand_value():
    p = T.Tensor([1.0], requires_grad=True)
    state = T.AdamState([p], lr=0.1)
    p.grad = np.array([0.5])
    T.adam_step(state)
    expected = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert float(p.data[0]) == pytest.approx(expected, abs=1e-15)


def test_adam_updates_in_place_as_the_out_of_place_formula():
    """Three steps move the parameters bit for bit as the out-of-place
    update would, in their own arrays; a parameter whose grad is None
    keeps its values and its moments."""
    rng = np.random.default_rng(8)
    shapes = [(3, 2), (4,), (2,)]
    params = [T.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    state = T.AdamState(params, lr=0.05)
    arrays = [p.data for p in params] + state.m + state.v
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    b1, b2 = T.ADAM_BETA1, T.ADAM_BETA2
    for t in range(1, 4):
        for i, p in enumerate(params):
            p.grad = None if i == 2 else rng.normal(size=shapes[i])
            if p.grad is None:
                continue
            g = p.grad
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            m_hat = m[i] / (1.0 - b1**t)
            v_hat = v[i] / (1.0 - b2**t)
            want[i] = want[i] - state.lr * m_hat / (np.sqrt(v_hat) + T.ADAM_EPS)
        T.adam_step(state)
        for i, p in enumerate(params):
            assert p.data.tobytes() == want[i].tobytes()
            assert state.m[i].tobytes() == m[i].tobytes()
            assert state.v[i].tobytes() == v[i].tobytes()
    assert all(a is b for a, b in zip(arrays, [p.data for p in params] + state.m + state.v))
    assert not state.m[2].any() and not state.v[2].any()


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_adam_step_matches_the_reference_and_spends_the_gradients(shapes, seed):
    """Over four steps, with gradients of many magnitudes, the parameters
    and moments move bit for bit as under the reference step, which keeps
    the gradients; a parameter whose grad is None stays as it was, and
    every grad is None after each step."""
    rng = np.random.default_rng(seed)
    start = [rng.normal(size=s) for s in shapes]
    params = [T.Tensor(a.copy(), requires_grad=True) for a in start]
    twins = [T.Tensor(a.copy(), requires_grad=True) for a in start]
    state, ref = T.AdamState(params, lr=0.01), T.AdamState(twins, lr=0.01)
    for step in range(4):
        for i, (p, twin) in enumerate(zip(params, twins)):
            g = (None if (i + step) % 3 == 2
                 else np.asarray(rng.normal(size=shapes[i]) * 10.0 ** rng.integers(-6, 6)))
            p.grad, twin.grad = (None, None) if g is None else (g.copy(), g)
        before = [p.data.copy() for p in params]
        T.adam_step(state)
        oracles.reference_adam_step(ref)
        for i, (p, twin) in enumerate(zip(params, twins)):
            assert p.grad is None
            assert p.data.tobytes() == twin.data.tobytes()
            assert state.m[i].tobytes() == ref.m[i].tobytes()
            assert state.v[i].tobytes() == ref.v[i].tobytes()
            if twin.grad is None:
                assert p.data.tobytes() == before[i].tobytes()


def test_adam_step_allocates_one_parameter_sized_array():
    """Over three [5000, 64] parameters, the step's traced allocations
    peak at one parameter-sized scratch array: the denominator reuses the
    gradient's buffer, and each parameter's scratch array is freed before
    the next one's is allocated."""
    rng = np.random.default_rng(0)
    params = [T.Tensor(rng.normal(size=(5000, 64)), requires_grad=True) for _ in range(3)]
    state = T.AdamState(params)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        T.adam_step(state)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.grad is None for p in params)
    assert peak - base <= params[0].data.nbytes + 64 * 1024
    assert end - base <= 64 * 1024


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    named = {
        "weights": T.Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "bias": T.Tensor(rng.normal(size=4), requires_grad=True),
    }
    path = tmp_path / "model.json"
    T.save_checkpoint(named, path, extra={"epoch": 7})
    arrays, extra = T.load_checkpoint(path)
    assert extra == {"epoch": 7}
    assert set(arrays) == {"weights", "bias"}
    for name, t in named.items():
        assert np.array_equal(arrays[name], t.data)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    named = {
        "edges": T.Tensor([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0]),
        "scalar": T.Tensor(2.5),
        "empty": T.Tensor(np.zeros((0, 4))),
        "transposed": T.Tensor(np.random.default_rng(1).normal(size=(3, 5)).T),
    }
    path = tmp_path / "model.json"
    data_path = Path(T.checkpoint_data_path(path))
    written = T.save_checkpoint(named, path)
    first = path.read_bytes(), data_path.read_bytes()
    assert written == {str(path): hashlib.sha256(first[0]).hexdigest(),
                       str(data_path): hashlib.sha256(first[1]).hexdigest()}
    assert first[1] == b"".join(np.ascontiguousarray(named[name].data, dtype="<f8").tobytes()
                                for name in sorted(named))
    header = json.loads(first[0])
    assert header == {"format": T.CHECKPOINT_MAGIC,
                      "params": {name: {"shape": list(t.data.shape)}
                                 for name, t in named.items()},
                      "data_sha256": hashlib.sha256(first[1]).hexdigest()}
    arrays, extra = T.load_checkpoint(path)
    assert extra == {}
    for name, t in named.items():
        arr = arrays[name]
        assert arr.shape == t.data.shape
        assert arr.tobytes() == t.data.tobytes()
        assert arr.dtype == np.float64
        assert arr.flags.writeable and arr.flags.c_contiguous
    T.save_checkpoint(named, path)
    assert (path.read_bytes(), data_path.read_bytes()) == first


#: Finite float64 values at the edges of the format: signed zeros, the
#: smallest subnormals, the largest finite magnitudes and their neighbours.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                np.finfo(np.float64).max, -np.finfo(np.float64).max,
                np.nextafter(np.finfo(np.float64).max, 0.0), -1.7e308]

_PARAMETER_SETS = st.dictionaries(
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=3).flatmap(lambda shape: arrays(
        np.float64, tuple(shape),
        elements=st.one_of(st.sampled_from(_EDGE_VALUES),
                           st.floats(allow_nan=False, allow_infinity=False)))),
    max_size=5)


@settings(max_examples=60, deadline=None)
@given(params=_PARAMETER_SETS)
def test_checkpoint_round_trip_property(params):
    """Any set of finite parameters, zero-size shapes included, loads back
    bit for bit as writable arrays, and the same parameters give the same
    bytes in both files wherever they are written."""
    named = {name: T.Tensor(values) for name, values in params.items()}
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for sub in ("a", "b"):
            path = Path(tmp) / sub / "checkpoint.json"
            path.parent.mkdir()
            written = T.save_checkpoint(named, path, extra={"k": 1})
            files.append([Path(p).read_bytes() for p in written])
        arrays, extra = T.load_checkpoint(path)
    assert files[0] == files[1]
    assert extra == {"k": 1}
    assert sorted(arrays) == sorted(params)
    for name, values in params.items():
        assert arrays[name].shape == values.shape
        assert arrays[name].tobytes() == values.tobytes(), name
        assert arrays[name].flags.writeable and arrays[name].flags.c_contiguous


def _write_checkpoint(path, params, values):
    """A v3 header over `params` and a data file of `values` (none when
    `values` is None), its SHA-256 recorded, so that only the fault a test
    plants is wrong."""
    data = np.asarray(values or [], dtype="<f8").tobytes()
    if values is not None:
        Path(T.checkpoint_data_path(path)).write_bytes(data)
    path.write_text(json.dumps({"format": T.CHECKPOINT_MAGIC, "params": params,
                                "data_sha256": hashlib.sha256(data).hexdigest()}))


@pytest.mark.parametrize("spec, values, match", [
    ({"shape": [2]}, [1.0], "do not fit"),
    ({"shape": [2]}, [1.0, 2.0, 3.0], "do not fit"),
    ({"shape": [2]}, None, "data file not readable"),
    ({}, [1.0, 2.0], "shape"),
    ({"shape": [-1, -2]}, [1.0, 2.0], "non-negative"),
    ({"shape": [True, 2]}, [1.0, 2.0], "non-negative"),
    ({"shape": [2.0]}, [1.0, 2.0], "non-negative"),
    ([2], [1.0, 2.0], "malformed"),
    ({"shape": [2]}, [1.0, float("nan")], "parameter w holds non-finite"),
], ids=["short-data", "long-data", "no-data", "no-shape", "negative-dims", "bool-dim", "float-dim",
        "entry-not-an-object", "nan-value"])
def test_checkpoint_rejects_malformed_parameter(tmp_path, spec, values, match):
    path = tmp_path / "bad.json"
    _write_checkpoint(path, {"w": spec}, values)
    with pytest.raises(ValueError, match=match):
        T.load_checkpoint(path)


def test_checkpoint_rejects_a_data_file_it_does_not_vouch_for(tmp_path):
    path = tmp_path / "model.json"
    _write_checkpoint(path, {"w": {"shape": [2]}}, [1.0, 2.0])
    Path(T.checkpoint_data_path(path)).write_bytes(np.array([1.0, 3.0]).tobytes())
    with pytest.raises(ValueError, match="SHA-256 does not match"):
        T.load_checkpoint(path)


def test_checkpoint_refuses_older_format(tmp_path):
    """v1 held JSON float lists, v2 base64 float64 bytes, both in one file."""
    path = tmp_path / "old.json"
    for payload in [
        {"format": "tensor-checkpoint-v1", "params": {"w": {"shape": [1], "values": [1.0]}}},
        {"format": "tensor-checkpoint-v2",
         "params": {"w": {"shape": [1], "data": base64.b64encode(b"\0" * 8).decode("ascii")}}},
    ]:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="retrain"):
            T.load_checkpoint(path)


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else", "params": {}}')
    with pytest.raises(ValueError, match="not a recognized checkpoint"):
        T.load_checkpoint(path)
