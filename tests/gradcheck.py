"""Finite-difference gradient checking shared across the test suite."""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from consultrank import tensor as T

from helpers import zero_grads


def finite_diff_check(
    build: Callable[[], "T.Tensor"],
    leaves: Sequence["T.Tensor"],
    rng: np.random.Generator,
    rel_tol: float = 1e-3,
    step: float = 1e-5,
    max_coords: int = 12,
) -> float:
    """Compare analytic gradients of a scalar-valued graph against central
    differences.

    `build` must rerun the full forward pass from the current leaf values.
    Returns the worst relative error seen; raises AssertionError past
    rel_tol.  For large leaves a random coordinate subset is probed.
    """
    loss = build()
    T.backward(loss)
    worst = 0.0
    for leaf in leaves:
        assert leaf.grad is not None, "tracked leaf received no gradient"
        grad = leaf.grad.copy()
        flat = leaf.data.reshape(-1)
        n = flat.size
        coords: List[int] = list(range(n)) if n <= max_coords else sorted(
            rng.choice(n, size=max_coords, replace=False).tolist()
        )
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            up = float(build().data)
            flat[i] = orig - step
            down = float(build().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = grad.reshape(-1)[i]
            denom = max(1.0, abs(numeric), abs(analytic))
            err = abs(numeric - analytic) / denom
            worst = max(worst, err)
            assert err < rel_tol, (
                f"gradient mismatch at coord {i}: analytic {analytic:.8g} "
                f"vs numeric {numeric:.8g} (rel err {err:.3g})"
            )
    zero_grads(leaves)
    return worst


def tensor_op_trials(rng: np.random.Generator):
    """One randomized scalar-valued graph per op family, as (name, build,
    leaves) triples ready for finite_diff_check."""

    def leaf(*shape):
        return T.Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)

    a, b = leaf(3, 4), leaf(4, 2)
    x4, w43 = leaf(4), leaf(4, 3)
    m34, v4 = leaf(3, 4), leaf(4)
    s5, t5 = leaf(5), leaf(5)
    th6 = leaf(6)
    sm7, w7 = leaf(7), leaf(7)
    nl5 = leaf(5)
    nr34, nr36 = leaf(3, 4), leaf(3, 6)
    table, w42 = leaf(6, 4), leaf(4, 2)
    pad_table, pad_other = leaf(5, 3), leaf(4, 3)
    d1, d2 = leaf(6), leaf(6)
    st3, sw, sk3, sv = leaf(2, 3, 4), leaf(4, 4), leaf(2, 5, 4), leaf(3)
    ms3, mv = leaf(2, 3, 4), leaf(4, 2)
    factor = float(rng.uniform(0.5, 2.0))
    nll_pos = int(rng.integers(0, 5))
    lookup_idx = [0, 2, 2, 5, 1]
    pool_offsets = [0, 2, 5]
    pad_idx = [int(i) for i in rng.integers(-1, 5, size=4)] + [3]
    other_idx = [int(i) for i in rng.integers(-1, 4, size=4)] + [-1]
    again_idx = [int(i) for i in rng.integers(-1, 5, size=4)] + [3]
    # every row keeps at least its target; the targets are not all zero
    row_mask = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=bool)
    row_targets = [2, 1, 3]
    # each row's logits gathered from its own columns, repeats allowed
    row_columns = np.where(row_mask, rng.integers(0, 6, size=row_mask.shape), -1)
    # per stacked row; the second stack's last row is masked throughout
    soft_mask = np.array([[[1, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 0]],
                          [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]]], dtype=bool)

    return [
        ("matmul 2d@2d", lambda: T.l2_norm_sq(T.matmul(a, b)), [a, b]),
        ("matmul 1d@2d", lambda: T.l2_norm_sq(T.tanh(T.matmul(x4, w43))), [x4, w43]),
        ("matmul 2d@1d", lambda: T.nll_index(T.matmul(m34, v4), 1), [m34, v4]),
        ("matmul 1d@1d", lambda: T.matmul(d1, d2), [d1, d2]),
        # stack @ shared matrix, stack @ stack (3-D transpose), vector @ stack
        ("matmul 3-D stacks",
         lambda: T.l2_norm_sq(T.matmul(sv, T.tanh(T.matmul(T.matmul(st3, sw),
                                                           T.transpose(sk3))))),
         [st3, sw, sk3, sv]),
        ("softmax masked stacks",
         lambda: T.l2_norm_sq(T.matmul(T.softmax(ms3, mask=soft_mask), mv)), [ms3, mv]),
        ("add+scale", lambda: T.l2_norm_sq(T.add(T.scale(s5, factor), t5)), [s5, t5]),
        ("softmax rows", lambda: T.l2_norm_sq(T.softmax(m34)), [m34]),
        ("tanh", lambda: T.l2_norm_sq(T.tanh(th6)), [th6]),
        ("softmax", lambda: T.matmul(T.softmax(sm7), w7), [sm7, w7]),
        ("nll_index", lambda: T.nll_index(nl5, nll_pos), [nl5]),
        # nr34 reaches nll_index directly, so its masked entries are probed
        ("nll_index masked rows + gather_columns",
         lambda: T.nll_index(T.add(nr34, T.gather_columns(nr36, row_columns)),
                             row_targets, row_mask),
         [nr34, nr36]),
        (
            "embedding+mean_pool segments",
            lambda: T.l2_norm_sq(T.matmul(
                T.mean_pool(T.embedding_lookup(table, lookup_idx), pool_offsets), w42)),
            [table, w42],
        ),
        # padding rows in each lookup, and one table looked up twice
        ("lookup_sum padding rows",
         lambda: T.l2_norm_sq(T.tanh(T.lookup_sum(
             (pad_table, pad_idx), (pad_other, other_idx), (pad_table, again_idx)))),
         [pad_table, pad_other]),
        ("transpose", lambda: T.l2_norm_sq(T.matmul(T.transpose(a), m34)), [a, m34]),
        ("add row-wise", lambda: T.l2_norm_sq(T.tanh(T.add(m34, v4))), [m34, v4]),
        # one tensor, and two of different shapes in one node
        ("l2_norm_sq", lambda: T.add(T.l2_norm_sq(s5), T.l2_norm_sq(t5, m34)), [s5, t5, m34]),
        ("reused leaf", lambda: T.l2_norm_sq(T.add(t5, t5)), [t5]),
    ]
