"""Tape-based reverse-mode differentiation over dense float64 arrays.

This covers exactly the operation set the recommender's computation graph
needs; it is not a general autodiff library. Recording is explicit:
operations executed inside a ``with record() as tape:`` block are appended
to that tape whenever a gradient-enabled tensor participates, and
``backward(root)`` replays the tape in reverse, accumulating
d(root)/d(leaf) into every gradient-enabled leaf with ``+=``.

Adjoints of intermediate nodes are created lazily: an intermediate
tensor's ``grad`` is ``None`` until its first contribution, which it takes
as its adjoint, and ``backward`` drops each adjoint once its record's step
has run, so no adjoint is zero-filled and none outlives its use. Records
whose adjoint is never created do not reach the root and are skipped.
Leaf gradients are buffers made by ``parameter()``, often views into a
parameter store's one flat gradient array; they persist across backward
calls and accumulate with ``+=``, so backward on two roots of one tape
sums their contributions (gradient linearity).

One rule keeps adjoints from aliasing: ``backward`` makes a record's
upstream adjoint ``g`` read-only before its step runs. The step may hand
``g`` and views of it to any number of inputs; an array it computes goes
to one input, which may write into it. A later contribution to a
read-only adjoint makes a new array, and a step that writes into ``g``
fails with numpy's read-only ``ValueError``.

Besides elementwise and gather ops, three ops work on whole sequences laid
out as (m, L*B) matrices whose column t*B + b holds timestep t of sequence
b, so that one record covers every timestep: ``shifted_sum`` adds terms at
column offsets (the causal convolution's taps), ``gated_scan`` runs the
fo-pooling recurrence over the column blocks with a reverse-scan backward,
and ``sum_col_blocks`` sums the blocks (the sum over time).

``sigmoid`` is 1 / (1 + exp(-x)) computed in one buffer under
``np.errstate(over="ignore")``: exp(-x) overflows to inf for x below about
-709, which yields 0, and the result is then clamped strictly inside
(0, 1). ``softplus`` keeps the overflow-free exp(-|x|) form, whose term it
needs for log1p anyway. ``is_recording()`` tells code that also runs off
the tape (the model's evaluation scoring) whether an op could be taped.

A tape holds its records and each recorded tensor holds its tape, a
reference cycle: a caller that keeps no use for the tape after
``backward`` clears ``tape.records`` so the step's values are freed by
reference count instead of waiting for the cyclic collector. The training
loop does so after every step.

Everything is float64: the models are small and gradient checking at
tight tolerances is unreliable in float32. One recording episode is
single-threaded (the active tape is thread-local); tensors can move
freely between threads once recording has finished.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)

_tls = threading.local()


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("value", "grad", "requires_grad", "tape")

    def __init__(self, value):
        arr = np.asarray(value, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        self.value = arr
        self.requires_grad = False
        self.grad: np.ndarray | None = None
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
    return Tensor(value)


def parameter(value, grad: np.ndarray | None = None) -> Tensor:
    """A gradient-enabled leaf. `grad`, when given, is its gradient buffer:
    a same-shape float64 array it accumulates into (say a view into a
    parameter store's flat gradient array); else a new zero-filled one."""
    t = Tensor(value)
    if grad is None:
        grad = np.zeros_like(t.value)
    elif grad.shape != t.shape or grad.dtype != np.float64:
        raise ValueError(f"gradient buffer {grad.dtype}{grad.shape} does not match value "
                         f"float64{t.shape}")
    t.requires_grad = True
    t.grad = grad
    return t


class Tape:
    """Execution-ordered record of differentiable operations."""

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []


def _active_tape() -> Tape | None:
    return getattr(_tls, "tape", None)


def is_recording() -> bool:
    """Whether a tape is recording on this thread, so ops may be taped."""
    return _active_tape() is not None


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
            out.grad.flags.writeable = False  # so the step may hand it to any inputs
            step(out.grad)
            out.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a contribution into `t`'s adjoint; the first one becomes the adjoint.

    `g` is the step's read-only upstream adjoint or a view of it, which
    other inputs may share, or an array computed for `t` alone. Only a
    writable adjoint, held by `t` alone, is added into in place.
    """
    if t.grad is None:
        t.grad = g
    elif t.grad.flags.writeable:
        t.grad += g
    else:
        t.grad = t.grad + g


def _adjoint(t: Tensor) -> np.ndarray:
    """`t`'s adjoint for an in-place (scatter) update: zero-filled on first
    use, copied first when it is read-only (shared with other adjoints)."""
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    elif not t.grad.flags.writeable:
        t.grad = t.grad.copy()
    return t.grad


def _scatter_add(target: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> None:
    """target[indices[i]] += rows[i] for every i, repeated indices summed.

    One stable sort by index and one `np.add.reduceat` over the runs of
    equal indices replace `np.add.at`'s per-element loop; each index's rows
    are summed in their original order, then added to the target once.
    """
    if indices.size == 0:
        return
    order = np.argsort(indices, kind="stable")
    ordered = indices[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    target[ordered[starts]] += np.add.reduceat(rows[order], starts, axis=0)


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
            _accumulate(b, g)

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
            _accumulate(a, -g)

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
    """1 / (1 + exp(-x)) from e = exp(-|x|), which never overflows.

    exp(min(x, 0)) is 1 for x >= 0 and e for x < 0, so this is
    where(x >= 0, 1 / (1 + e), e / (1 + e)) to the bit, without the select.
    """
    return np.exp(np.minimum(x, 0.0)) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function 1 / (1 + exp(-x)), clamped strictly inside (0, 1).

    One buffer holds every stage. exp(-x) overflows to inf for x below
    about -709, which gives 1 / inf = 0 before the clamp, so the overflow
    is expected and silenced. NaN stays NaN.
    """
    out_val = np.negative(a.value)
    with np.errstate(over="ignore"):
        np.exp(out_val, out=out_val)
    out_val += 1.0
    np.reciprocal(out_val, out=out_val)
    np.clip(out_val, _SIGMOID_LO, _SIGMOID_HI, out=out_val)
    out = Tensor(out_val)

    def step(g):
        if a.requires_grad:
            d = np.subtract(1.0, out_val)  # g * s * (1 - s) in one buffer
            d *= out_val
            d *= g
            _accumulate(a, d)

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
            _scatter_add(_adjoint(a), idx, g)

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
            _scatter_add(_adjoint(a), idx.ravel(), g.ravel())

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
            _scatter_add(_adjoint(w), idx.ravel(), contrib.reshape(-1, dim))
        if z.requires_grad:
            _accumulate(z, np.einsum("bc,bcd->db", g, rows))

    return _track(out, (w, z), step)


# ---------------------------------------------------------------------------
# whole-sequence ops: column t*B + b of an (m, L*B) matrix is timestep t of
# sequence b, so a timestep is one block of `width` = B columns


def _require_blocks(op: str, a: Tensor, width: int) -> int:
    _require_2d(op, a)
    if width < 1 or a.shape[1] % width:
        raise ValueError(f"{op}: {a.shape[1]} columns are not whole blocks of {width}")
    return a.shape[1] // width


def shifted_sum(terms: Sequence[Tensor], offsets: Sequence[int]) -> Tensor:
    """Sum terms into one (m, n) tensor, term j over columns offsets[j]:n.

    Offsets strictly decrease to 0 and term j is (m, n - offsets[j]). A
    column is first set by the first term that reaches it and the later
    ones add in list order, so every column sums its terms in list order.
    """
    offsets = [int(o) for o in offsets]
    if not terms or len(terms) != len(offsets):
        raise ValueError(f"shifted_sum needs one offset per term, got {len(terms)} terms "
                         f"and {len(offsets)} offsets")
    if offsets[-1] != 0 or any(a <= b for a, b in zip(offsets, offsets[1:])):
        raise ValueError(f"shifted_sum offsets must strictly decrease to 0, got {offsets}")
    for t in terms:
        _require_2d("shifted_sum", t)
    rows, n = terms[-1].shape
    for t, o in zip(terms, offsets):
        if t.shape != (rows, n - o):
            raise ValueError(f"shifted_sum term at offset {o} has shape {t.shape}, "
                             f"expected {(rows, n - o)}")
    out_val = np.empty((rows, n))
    covered = n  # columns from `covered` on are set
    for t, o in zip(terms, offsets):
        out_val[:, o:covered] = t.value[:, :covered - o]
        out_val[:, covered:] += t.value[:, covered - o:]
        covered = o
    out = Tensor(out_val)

    def step(g):
        for t, o in zip(terms, offsets):
            if t.requires_grad:
                _accumulate(t, g[:, o:])

    return _track(out, terms, step)


def gated_scan(f: Tensor, take: Tensor, width: int) -> Tensor:
    """fo-pooling over column blocks: c_0 = take_0, c_t = f_t*c_{t-1} + take_t.

    Backward is one reverse scan: dc_{t-1} = g_{t-1} + f_t*dc_t, then
    d take_t = dc_t and d f_t = dc_t*c_{t-1} (zero for t = 0).
    """
    _require_same_shape("gated_scan", f, take)
    _require_blocks("gated_scan", f, width)
    fv = f.value
    c = np.empty_like(take.value)
    c[:, :width] = take.value[:, :width]
    n = c.shape[1]
    for lo in range(width, n, width):
        hi = lo + width
        cur = c[:, lo:hi]
        np.multiply(fv[:, lo:hi], c[:, lo - width:lo], out=cur)
        cur += take.value[:, lo:hi]
    out = Tensor(c)

    def step(g):
        dc = np.empty_like(g)  # adjoint of each c_t: g_t plus what c_{t+1} passes back
        dc[:, n - width:] = g[:, n - width:]
        for lo in range(n - 2 * width, -1, -width):
            hi = lo + width
            cur = dc[:, lo:hi]
            np.multiply(fv[:, hi:hi + width], dc[:, hi:hi + width], out=cur)
            cur += g[:, lo:hi]
        if f.requires_grad:
            df = np.empty_like(dc)
            df[:, :width] = 0.0
            np.multiply(dc[:, width:], c[:, :-width], out=df[:, width:])
            _accumulate(f, df)
        if take.requires_grad:
            _accumulate(take, dc)

    return _track(out, (f, take), step)


def sum_col_blocks(a: Tensor, width: int) -> Tensor:
    """Sum the column blocks of `width` of a 2-d tensor, first block first."""
    blocks = _require_blocks("sum_col_blocks", a, width)
    total = a.value[:, :width].copy()
    for lo in range(width, a.shape[1], width):
        total += a.value[:, lo:lo + width]
    out = Tensor(total)

    def step(g):
        if a.requires_grad:
            _accumulate(a, np.tile(g, (1, blocks)))

    return _track(out, (a,), step)
