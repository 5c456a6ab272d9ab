"""A minimal dense autodiff engine on float64 numpy arrays.

Forward ops record their parents and a backward closure; `backward` walks
the recorded graph once in reverse topological order and accumulates
gradients into every tracked leaf.  The graph is rebuilt on every forward
pass; an op on constant operands records none.  There is no broadcasting
beyond what the ops define, and everything is 64-bit, so finite-difference
checks can run at tight tolerances.

A node holds only the arrays its backward pass reads.  `lookup_sum`
gathers and adds only the entries whose index is not -1, `lookup_mean`
pools the rows it gathers without keeping them, `matmul_t` multiplies by
a transpose with no transposed node or gradient copy, and `reshape`
passes a view on.

Also here: the Adam optimizer the training loop uses, and the checkpoint
format for named parameter sets: a JSON header beside a raw float64 file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

CHECKPOINT_MAGIC = "tensor-checkpoint-v3"


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = None
        self._spent = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(rng: np.random.Generator, shape, scale: float) -> Tensor:
    """A tracked leaf initialized uniformly in [-scale, scale]."""
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def _track(parents: Sequence[Tensor]) -> bool:
    return any(p.requires_grad or p._parents for p in parents)


def _out(data, parents: Sequence[Tensor], backward) -> Tensor:
    t = Tensor(data, requires_grad=False, _parents=tuple(parents) if _track(parents) else ())
    if t._parents:
        t._backward = backward
    return t


def _tracked(t: Tensor) -> bool:
    """Whether a gradient sent to `t` is used: it is a tracked leaf or
    passes gradients on.  A constant operand takes none."""
    return t.requires_grad or bool(t._parents)


def _accum(t: Tensor, g: np.ndarray, shared: bool = False) -> None:
    """Adds `g` to t's gradient.  The first gradient is kept as it is, so
    the caller hands over an array it just made; a `shared` one (also
    handed to another parent, or a view) is copied first."""
    if not _tracked(t):
        return
    if t.grad is None:  # asarray: a 0-d product is a numpy scalar
        t.grad = np.array(g, dtype=np.float64) if shared else np.asarray(g, dtype=np.float64)
    else:
        t.grad += g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a d-vector `b` is added to every row of an [n, d] `a`."""
    rowwise = a.data.ndim == 2 and b.shape == a.shape[1:]
    if a.shape != b.shape and not rowwise:
        raise ValueError(f"cannot add shapes {a.shape} and {b.shape}")
    out = _out(a.data + b.data, (a, b), None)
    if out._parents:
        def backward(g):
            _accum(a, g, shared=True)
            _accum(b, g.sum(axis=0) if rowwise else g, shared=not rowwise)
        out._backward = backward
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = _out(a.data * s, (a,), None)
    if out._parents:
        out._backward = lambda g: _accum(a, g * s)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product under numpy's matmul rules for 1-D to 3-D operands: a 1-D
    operand is a vector whose axis drops out of the result, and a 3-D one
    is a stack of matrices, paired with another stack or sharing a 2-D
    operand across the stack."""
    if a.data.ndim not in (1, 2, 3) or b.data.ndim not in (1, 2, 3):
        raise ValueError(f"matmul supports 1-D to 3-D only, got {a.shape} and {b.shape}")
    try:
        if a.data.ndim == b.data.ndim == 3 and len(a.data) != len(b.data):
            raise ValueError("stacks of different sizes")  # numpy would broadcast
        data = a.data @ b.data
    except ValueError:
        raise ValueError(f"cannot matmul shapes {a.shape} and {b.shape}") from None
    out = _out(data, (a, b), None)
    if out._parents:
        def backward(g):
            # As matrices: a 1-D `a` is one row, a 1-D `b` one column.
            am = a.data if a.data.ndim > 1 else a.data[None, :]
            bm = b.data if b.data.ndim > 1 else b.data[:, None]
            gm = g if b.data.ndim > 1 else g[..., None]
            gm = gm if a.data.ndim > 1 else gm[..., None, :]
            if am.ndim == 3 and bm.ndim == 2:  # a stack against one shared matrix
                am, gm = am.reshape(-1, am.shape[-1]), gm.reshape(-1, gm.shape[-1])
            if _tracked(a):
                ga = gm @ np.swapaxes(bm, -1, -2)
                _accum(a, (ga if ga.ndim == am.ndim else ga.sum(axis=0)).reshape(a.shape))
            if _tracked(b):
                gb = np.swapaxes(am, -1, -2) @ gm
                _accum(b, (gb if gb.ndim == bm.ndim else gb.sum(axis=0)).reshape(b.shape))
        out._backward = backward
    return out


def transpose(a: Tensor) -> Tensor:
    """Swaps the last two axes of a matrix or of a stack of matrices."""
    if a.data.ndim not in (2, 3):
        raise ValueError(f"transpose needs a 2-D or 3-D input, got {a.shape}")
    out = _out(np.swapaxes(a.data, -1, -2), (a,), None)
    if out._parents:
        out._backward = lambda g: _accum(a, np.swapaxes(g, -1, -2), shared=True)
    return out


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b^T, with b's last two axes swapped, as one op: a matrix times a
    matrix, or a stack of matrices times a stack of as many.  The backward
    pass writes b's gradient as g^T a, in b's own layout, so no transposed
    copy is made."""
    if not (a.data.ndim == b.data.ndim in (2, 3) and a.shape[:-2] == b.shape[:-2]
            and a.shape[-1] == b.shape[-1]):
        raise ValueError(f"cannot matmul shape {a.shape} by the transpose of {b.shape}")
    out = _out(a.data @ np.swapaxes(b.data, -1, -2), (a, b), None)
    if out._parents:
        def backward(g):
            if _tracked(a):
                _accum(a, g @ b.data)
            if _tracked(b):
                _accum(b, np.swapaxes(g, -1, -2) @ a.data)
        out._backward = backward
    return out


def reshape(a: Tensor, shape) -> Tensor:
    """The same entries in C order in another shape, a view of a's array
    where numpy can make one."""
    out = _out(a.data.reshape(shape), (a,), None)
    if out._parents:
        # the view's gradient is this node's own buffer, which no other node reads
        out._backward = lambda g: _accum(a, g.reshape(a.shape))
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = _out(y, (a,), None)
    if out._parents:
        out._backward = lambda g: _accum(a, g * (1.0 - y * y))
    return out


def softmax(a: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis, numerically stabilized.

    Entries where `mask` (broadcast against `a`) is False get weight zero,
    and a row masked throughout gets zero weights everywhere."""
    z = a.data if mask is None else np.where(mask, a.data, -np.inf)
    top = z.max(axis=-1, keepdims=True)
    e = np.exp(z - np.where(np.isfinite(top), top, 0.0))
    total = e.sum(axis=-1, keepdims=True)
    y = e / np.where(total > 0.0, total, 1.0)
    out = _out(y, (a,), None)
    if out._parents:
        def backward(g):
            inner = (g * y).sum(axis=-1, keepdims=True)
            _accum(a, y * (g - inner))
        out._backward = backward
    return out


def _row_indices(table: Tensor, indices) -> np.ndarray:
    if table.data.ndim != 2:
        raise ValueError(f"embedding table must be 2-D, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < -1 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"index out of range for table with {table.shape[0]} rows: {idx.tolist()}"
        )
    return idx


def _bincount_into(t: Tensor, cells: np.ndarray, weights: np.ndarray) -> None:
    """Accumulates weights into the flat cells of `t`, summing repeated cells
    in order, as np.add.at would, but faster."""
    _accum(t, np.bincount(cells, weights=weights, minlength=t.data.size).reshape(t.shape))


def _real_rows(indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The flat positions of the entries of `indices` that are not -1, and
    their row indices."""
    flat = indices.ravel()
    at = np.flatnonzero(flat >= 0)
    return at, flat[at]


def lookup_sum(*lookups) -> Tensor:
    """Sum of row gathers, [*indices.shape, d], as one node: each (table,
    indices) pair gathers rows of a 2-D tensor, and the gathers are added
    in place, left to right.  Index -1 gives a zero row, which takes no
    gradient.  All tables share their width and all indices their shape.

    Only real entries are read: each table gives the rows of its entries
    that are not -1 in one flat gather, added at their positions, so a
    padded block costs no more than its real rows."""
    pairs = [(table, _row_indices(table, indices)) for table, indices in lookups]
    (first, idx), rest = pairs[0], pairs[1:]
    for table, other in rest:
        if table.shape[1] != first.shape[1] or other.shape != idx.shape:
            raise ValueError(f"cannot add rows of {table.shape} at {other.shape} "
                             f"to rows of {first.shape} at {idx.shape}")
    d = first.shape[1]
    real = [_real_rows(index) for _, index in pairs]
    at, rows_at = real[0]
    if len(at) == idx.size:
        rows = first.data[rows_at]
    else:
        rows = np.zeros((idx.size, d))
        rows[at] = first.data[rows_at]
    for (table, _), (at, rows_at) in zip(rest, real[1:]):
        if len(at) == idx.size:
            rows += table.data[rows_at]
        else:
            rows[at] += table.data[rows_at]
    out = _out(rows.reshape(*idx.shape, d), [table for table, _ in pairs], None)
    if out._parents:
        def backward(g):
            g = g.reshape(-1, d)
            for (table, _), (at, rows_at) in zip(pairs, real):
                if _tracked(table):
                    _bincount_into(table, (rows_at[:, None] * d + np.arange(d)).ravel(),
                                   (g if len(at) == len(g) else g[at]).ravel())
        out._backward = backward
    return out


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Rows of a 2-D tensor, [*indices.shape, d]: `lookup_sum` of one table."""
    return lookup_sum((table, indices))


def gather_columns(a: Tensor, columns) -> Tensor:
    """Per-row column gather of a 2-D tensor, [n, m]: entry (i, j) is
    a[i, columns[i, j]], for an [n, m] `columns`.  Column -1 gives 0,
    which takes no gradient."""
    cols = np.asarray(columns, dtype=np.int64)
    if a.data.ndim != 2 or cols.ndim != 2 or len(cols) != len(a.data):
        raise ValueError(f"gather_columns needs an [n, k] input and [n, m] columns, "
                         f"got {a.shape} and {cols.shape}")
    if cols.size and (cols.min() < -1 or cols.max() >= a.shape[1]):
        raise ValueError(f"column out of range for {a.shape[1]} columns: {cols.tolist()}")
    keep = cols >= 0
    cells = (np.arange(len(cols))[:, None] * a.shape[1] + cols)[keep]
    data = np.zeros(cols.shape)
    data[keep] = np.take(a.data, cells)
    out = _out(data, (a,), None)
    if out._parents:
        out._backward = lambda g: _bincount_into(a, cells, g[keep])
    return out


def lookup_mean(table: Tensor, indices, offsets: Sequence[int]) -> Tensor:
    """Means of the rows of a 2-D tensor at consecutive segments of 1-D
    `indices`, [n_segments, d]: segment i is indices[offsets[i]:offsets[i + 1]],
    and none may be empty.  The gathered rows are summed by
    `np.add.reduceat` and dropped; the backward pass reads the indices
    only.  No index may be -1."""
    idx = _row_indices(table, indices)
    offsets = np.asarray(offsets)
    lengths = np.diff(offsets)
    if (idx.ndim != 1 or not lengths.size or offsets[0] != 0
            or offsets[-1] != len(idx) or lengths.min() < 1 or (idx < 0).any()):
        raise ValueError(
            f"lookup_mean needs non-empty segments of 1-D indices with no -1, got "
            f"rows of {table.shape} at {idx.shape} split at {offsets.tolist()}"
        )
    d = table.shape[1]
    out = _out(np.add.reduceat(table.data[idx], offsets[:-1], axis=0) / lengths[:, None],
               (table,), None)
    if out._parents:
        out._backward = lambda g: _bincount_into(
            table, (idx[:, None] * d + np.arange(d)).ravel(),
            np.repeat(g / lengths[:, None], lengths, axis=0).ravel())
    return out


def l2_norm_sq(*tensors: Tensor) -> Tensor:
    """Sum of squares over every entry of every tensor, as one node; the
    per-tensor sums are added left to right."""
    out = _out(sum(np.sum(a.data * a.data) for a in tensors), tensors, None)
    if out._parents:
        def backward(g):
            for a in tensors:
                _accum(a, 2.0 * g * a.data)
        out._backward = backward
    return out


def nll_index(logits: Tensor, index, mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean over rows of -log(softmax(row)[index of that row]), computed stably.

    1-D logits are one row; `index` is one position for every row or one per
    row.  Entries where `mask` is False drop out of their row's softmax.  The
    log-sum-exp is shifted by the row max, so extreme logit gaps are safe.
    """
    if logits.data.ndim not in (1, 2):
        raise ValueError(f"nll_index needs 1-D or 2-D logits, got {logits.shape}")
    z = np.atleast_2d(logits.data)
    rows = np.arange(z.shape[0])
    idx = np.broadcast_to(np.asarray(index, dtype=np.int64), rows.shape)
    if idx.min() < 0 or idx.max() >= z.shape[1]:
        raise ValueError(f"index {index} out of range for shape {logits.shape}")
    if mask is not None:
        if not mask[rows, idx].all():
            raise ValueError("nll_index target entries must not be masked")
        z = np.where(mask, z, -np.inf)
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    out = _out(np.mean(lse[:, 0] - z[rows, idx]), (logits,), None)
    if out._parents:
        def backward(g):
            p = np.exp(z - lse)
            p[rows, idx] -= 1.0
            _accum(logits, (g / len(rows)) * p.reshape(logits.shape))
        out._backward = backward
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss into all tracked leaves.

    Each graph may be swept once; rebuilding the forward pass is the way to
    get fresh gradients.  Leaves without requires_grad end with grad None.
    The sweep unlinks each node once it has passed its gradient on, so the
    graph's arrays are freed as it goes, not when the loss is dropped.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._spent:
        raise RuntimeError("backward already ran on this graph; rebuild the forward pass")
    loss._spent = True

    topo: List[Tensor] = []
    seen = set()
    stack: List[tuple] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._parents, node._backward = (), None
        if not node.requires_grad and node is not loss:
            node.grad = None


#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam moments and step counter for a fixed parameter list."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.step = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update over the state's parameter list,
    which spends the gradients: each is overwritten and then released, so
    every parameter's grad is None afterwards.

    Parameters whose grad is None (no gradient flowed this step) are left
    untouched, moments included.
    """
    state.step += 1
    for p, m, v in zip(state.params, state.m, state.v):
        if p.grad is not None:
            _adam_update(p, m, v, state.step, state.lr)


def _adam_update(p: Tensor, m: np.ndarray, v: np.ndarray, t: int, lr: float) -> None:
    """Step t of Adam on one parameter, in place, in the order of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p = p - lr m_hat / (sqrt(v_hat) + eps).  It works in one scratch array
    and writes the denominator into the gradient, which it releases; both
    are freed on return, before the next parameter's update allocates."""
    g, p.grad = p.grad, None
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    scratch = np.multiply(g, 1.0 - b1, out=np.empty_like(g))
    m *= b1
    m += scratch
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - b2
    v *= b2
    v += scratch
    step = np.divide(m, 1.0 - b1**t, out=scratch)
    step *= lr
    denom = np.divide(v, 1.0 - b2**t, out=g)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    p.data -= step


def checkpoint_data_path(path) -> str:
    """The data file that goes with the checkpoint header at `path`."""
    return os.fspath(path) + ".f64"


def save_checkpoint(named: Dict[str, Tensor], path,
                    extra: Optional[dict] = None) -> Dict[str, str]:
    """Write named parameters as a raw data file plus a JSON header at
    `path`; `extra` rides along in the header as-is.  Returns the SHA-256
    of the bytes written to each file, by path: header, then data file.

    The data file holds every parameter's little-endian float64 values in C
    order, one parameter after another in sorted-name order, so every value
    round-trips bit for bit.  The header holds each parameter's shape and the
    data file's SHA-256.  It is written second, so a header never vouches for
    data that was not fully written, and the same parameters always give the
    same bytes in both files.
    """
    names = sorted(named)
    data_path = checkpoint_data_path(path)
    digest = hashlib.sha256()
    with open(data_path, "wb") as fh:
        for name in names:
            values = np.ascontiguousarray(named[name].data, dtype="<f8")
            digest.update(values)
            fh.write(values)
    header = {
        "format": CHECKPOINT_MAGIC,
        "params": {name: {"shape": list(named[name].data.shape)} for name in names},
        "data_sha256": digest.hexdigest(),
    }
    if extra:
        header["extra"] = extra
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(text)
    return {os.fspath(path): hashlib.sha256(text).hexdigest(), data_path: header["data_sha256"]}


def _shape(spec: dict) -> Tuple[int, ...]:
    """One parameter's shape; anything but a list of non-negative integers
    is refused with a ValueError."""
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape
    ):
        raise ValueError(f"shape {shape!r} is not a list of non-negative integers")
    return tuple(shape)


def _read_data(data_path: str, n_values: int) -> np.ndarray:
    """The data file's values in one float64 array, read once; a file of
    any other length is refused with a ValueError."""
    try:
        fh = open(data_path, "rb")
    except OSError as exc:
        raise ValueError(f"{data_path}: checkpoint data file not readable "
                         f"({exc.strerror})") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 8 * n_values:
            raise ValueError(f"{data_path}: {size} bytes do not fit the header's shapes "
                             f"({n_values} float64 values, {8 * n_values} bytes)")
        values = np.empty(n_values, dtype="<f8")
        if fh.readinto(values) != size:
            raise ValueError(f"{data_path}: checkpoint data file changed while read")
    return values.astype(np.float64, copy=False)


def load_checkpoint(path) -> tuple:
    """Read a checkpoint; returns ({name: array}, extra-dict).

    The data file is read once into one array; its length, its SHA-256 and
    the finiteness of every value are checked on that array.  The returned
    arrays are writable, C-contiguous native float64 views of it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: not a checkpoint header ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: not a recognized checkpoint (not a JSON object)")
    if header.get("format") != CHECKPOINT_MAGIC:
        raise ValueError(
            f"{path}: not a recognized checkpoint (format={header.get('format')!r}, "
            f"expected {CHECKPOINT_MAGIC!r}); retrain to write one in this format"
        )
    try:
        shapes = {name: _shape(spec) for name, spec in sorted(header["params"].items())}
        recorded = header["data_sha256"]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError(f"{path}: checkpoint extra block is not an object")
    data_path = checkpoint_data_path(path)
    sizes = [math.prod(shape) for shape in shapes.values()]
    values = _read_data(data_path, sum(sizes))
    if hashlib.sha256(values).hexdigest() != recorded:
        raise ValueError(f"{data_path}: SHA-256 does not match the one recorded in {path}")
    ends = np.cumsum([0, *sizes])
    arrays = {name: values[start:end].reshape(shape)
              for (name, shape), start, end in zip(shapes.items(), ends[:-1], ends[1:])}
    if not np.isfinite(values).all():
        name = next(name for name, a in arrays.items() if not np.isfinite(a).all())
        raise ValueError(f"{data_path}: parameter {name} holds non-finite values")
    return arrays, extra
