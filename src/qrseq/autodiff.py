"""Tape-based reverse-mode differentiation over dense float64 arrays.

This covers exactly the operation set the recommender's computation graph
needs; it is not a general autodiff library. Recording is explicit:
operations executed inside a ``with record() as tape:`` block are appended
to that tape whenever a gradient-enabled tensor participates, and
``backward(root)`` replays the tape in reverse, accumulating
d(root)/d(leaf) into every gradient-enabled leaf with ``+=``.

Adjoints of intermediate nodes are created lazily: an intermediate
tensor's ``grad`` is ``None`` until its first contribution, which it takes
as its adjoint, and later contributions add into that array. Each adjoint
array is held by one tensor only (an op that passes its upstream adjoint
to two inputs copies it for the second; disjoint views are taken as they
are), and ``backward`` drops each adjoint once its record's step has run,
so no adjoint is zero-filled and none outlives its use. Records whose
adjoint is never created do not reach the root and are skipped. Leaf
gradients keep their own buffers and accumulate with ``+=``, so running
backward on two roots of the same tape sums their contributions (gradient
linearity).

Everything is float64: the models are small and gradient checking at
tight tolerances is unreliable in float32. One recording episode is
single-threaded (the active tape is thread-local); tensors can move
freely between threads once recording has finished.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)

_tls = threading.local()


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("value", "grad", "requires_grad", "tape")

    def __init__(self, value, requires_grad: bool = False):
        arr = np.asarray(value, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        self.value = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.value) if self.requires_grad else None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.value.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


class Tape:
    """Execution-ordered record of differentiable operations."""

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []


def _active_tape() -> Tape | None:
    return getattr(_tls, "tape", None)


@contextmanager
def record():
    """Activate a fresh tape on this thread: ``with record() as tape: ...``"""
    if _active_tape() is not None:
        raise RuntimeError("an autodiff tape is already active on this thread")
    tape = Tape()
    _tls.tape = tape
    try:
        yield tape
    finally:
        _tls.tape = None


def _track(out: Tensor, inputs: Sequence[Tensor], step) -> Tensor:
    """Register `out` on the active tape when any input is gradient-enabled."""
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape.records.append((out, step))
    return out


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into the gradient of every enabled leaf.

    `root` must be a scalar produced by tape-recorded operations. Repeated
    calls against the same tape keep adding into leaf gradients.
    """
    tape = root.tape
    if tape is None:
        raise ValueError("backward root was not produced by tape-recorded operations")
    if root.value.size != 1:
        raise ValueError(f"backward root must be a scalar, got shape {root.shape}")
    for out, _ in tape.records:
        out.grad = None
    root.grad = np.ones_like(root.value)
    for out, step in reversed(tape.records):
        if out.grad is not None:
            step(out.grad)
            out.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a contribution into `t`'s adjoint; the first one becomes the adjoint.

    A taken `g` must not be held by any other tensor.
    """
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _adjoint(t: Tensor) -> np.ndarray:
    """`t`'s adjoint for a partial (scatter) update, zero-filled on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    return t.grad


def zero_grads(params: Iterable[Tensor]) -> None:
    """Reset the gradient buffer of every given tensor to zero."""
    for p in params:
        if p.grad is not None:
            p.grad.fill(0.0)


# ---------------------------------------------------------------------------
# operations


def _require_2d(op: str, t: Tensor) -> None:
    if t.value.ndim != 2:
        raise ValueError(f"{op} expects a 2-d tensor, got shape {t.shape}")


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d("matmul", a)
    _require_2d("matmul", b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.value @ b.value)
    av, bv = a.value, b.value

    def step(g):
        if a.requires_grad:
            _accumulate(a, g @ bv.T)
        if b.requires_grad:
            _accumulate(b, av.T @ g)

    return _track(out, (a, b), step)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = Tensor(a.value + b.value)

    def step(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g.copy() if a.grad is g else g)  # one holder per adjoint

    return _track(out, (a, b), step)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)
    out = Tensor(a.value * b.value)
    av, bv = a.value, b.value

    def step(g):
        if a.requires_grad:
            _accumulate(a, g * bv)
        if b.requires_grad:
            _accumulate(b, g * av)

    return _track(out, (a, b), step)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.value * c)

    def step(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _track(out, (a,), step)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def one_minus(a: Tensor) -> Tensor:
    """Elementwise 1 - a."""
    out = Tensor(1.0 - a.value)

    def step(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = -g
            else:
                a.grad -= g

    return _track(out, (a,), step)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack along the leading axis; trailing dimensions must agree."""
    if a.value.shape[1:] != b.value.shape[1:]:
        raise ValueError(f"concat_rows trailing shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(np.concatenate([a.value, b.value], axis=0))
    split = a.shape[0]

    def step(g):
        if a.requires_grad:
            _accumulate(a, g[:split])
        if b.requires_grad:
            _accumulate(b, g[split:])

    return _track(out, (a, b), step)


def add_col(a: Tensor, col: Tensor) -> Tensor:
    """Broadcast-add a column vector (m, 1) across every column of a (m, n)."""
    _require_2d("add_col", a)
    if col.shape != (a.shape[0], 1):
        raise ValueError(f"add_col shape mismatch: {a.shape} vs column {col.shape}")
    out = Tensor(a.value + col.value)

    def step(g):
        if a.requires_grad:
            _accumulate(a, g)
        if col.requires_grad:
            _accumulate(col, g.sum(axis=1, keepdims=True))

    return _track(out, (a, col), step)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous column slice a[:, start:stop] of a 2-d tensor."""
    _require_2d("slice_cols", a)
    if not (0 <= start < stop <= a.shape[1]):
        raise ValueError(f"slice_cols bounds [{start}:{stop}] invalid for shape {a.shape}")
    out = Tensor(a.value[:, start:stop].copy())

    def step(g):
        if a.requires_grad:
            _adjoint(a)[:, start:stop] += g

    return _track(out, (a,), step)


def transpose(a: Tensor) -> Tensor:
    _require_2d("transpose", a)
    out = Tensor(a.value.T.copy())

    def step(g):
        if a.requires_grad:
            _accumulate(a, g.T)

    return _track(out, (a,), step)


def _logistic(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) from e = exp(-|x|), which never overflows."""
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function, clamped strictly inside (0, 1)."""
    x = a.value
    out_val = _logistic(x, np.exp(-np.abs(x)))
    np.clip(out_val, _SIGMOID_LO, _SIGMOID_HI, out=out_val)
    out = Tensor(out_val)

    def step(g):
        if a.requires_grad:
            _accumulate(a, g * out_val * (1.0 - out_val))

    return _track(out, (a,), step)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)) in overflow-free form; derivative is sigmoid(x)."""
    x = a.value
    e = np.exp(-np.abs(x))
    out = Tensor(np.maximum(x, 0.0) + np.log1p(e))
    sig = _logistic(x, e)

    def step(g):
        if a.requires_grad:
            _accumulate(a, g * sig)

    return _track(out, (a,), step)


def sum_all(a: Tensor) -> Tensor:
    """Reduce to a scalar (shape ()) by summing every element."""
    out = Tensor(np.asarray(a.value.sum()))
    shape = a.value.shape

    def step(g):
        if a.requires_grad:
            _accumulate(a, np.full(shape, float(g)))

    return _track(out, (a,), step)


def _check_indices(op: str, indices: np.ndarray, upper: int) -> None:
    bad = indices[(indices < 0) | (indices >= upper)]
    if bad.size:
        shown = sorted(set(int(i) for i in bad.ravel()[:8]))
        raise IndexError(f"{op}: indices out of range [0, {upper}): {shown}")


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows a[indices] of a 2-d tensor; backward scatter-adds."""
    _require_2d("take_rows", a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"take_rows expects 1-d indices, got shape {idx.shape}")
    _check_indices("take_rows", idx, a.shape[0])
    out = Tensor(a.value[idx])

    def step(g):
        if a.requires_grad:
            np.add.at(_adjoint(a), idx, g)

    return _track(out, (a,), step)


def gather(a: Tensor, indices) -> Tensor:
    """Gather elements of a 1-d tensor by an integer array of any shape."""
    if a.value.ndim != 1:
        raise ValueError(f"gather expects a 1-d tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    _check_indices("gather", idx, a.shape[0])
    out = Tensor(a.value[idx])

    def step(g):
        if a.requires_grad:
            np.add.at(_adjoint(a), idx.ravel(), g.ravel())

    return _track(out, (a,), step)


def rows_dot_cols(w: Tensor, indices, z: Tensor) -> Tensor:
    """Batched row/column dot products: out[b, c] = w[indices[b, c]] . z[:, b].

    `w` is (R, D), `indices` is (B, C) integer, `z` is (D, B). Only the
    requested rows of `w` participate; backward scatter-adds into them.
    """
    _require_2d("rows_dot_cols", w)
    _require_2d("rows_dot_cols", z)
    if w.shape[1] != z.shape[0]:
        raise ValueError(f"rows_dot_cols dimension mismatch: rows {w.shape} vs columns {z.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[0] != z.shape[1]:
        raise ValueError(
            f"rows_dot_cols index shape {idx.shape} incompatible with columns {z.shape}"
        )
    _check_indices("rows_dot_cols", idx, w.shape[0])
    rows = w.value[idx]  # (B, C, D)
    out = Tensor(np.einsum("bcd,db->bc", rows, z.value))
    zv = z.value
    dim = w.shape[1]

    def step(g):
        if w.requires_grad:
            contrib = g[:, :, None] * zv.T[:, None, :]
            np.add.at(_adjoint(w), idx.ravel(), contrib.reshape(-1, dim))
        if z.requires_grad:
            _accumulate(z, np.einsum("bc,bcd->db", g, rows))

    return _track(out, (w, z), step)
