"""Tape-based reverse-mode differentiation over dense float64 arrays.

This covers exactly the operation set the recommender's computation graph
needs; it is not a general autodiff library. Recording is explicit:
operations executed inside a ``with record() as tape:`` block are appended
to that tape whenever a gradient-enabled tensor participates, and
``backward(root)`` replays the tape in reverse, accumulating
d(root)/d(leaf) into every gradient-enabled leaf with ``+=``. It then
empties ``tape.records``, so a tape takes one ``backward`` and its values
are freed by reference count as soon as the caller drops its tensors.

Adjoints of intermediate nodes are created lazily: an intermediate
tensor's ``grad`` is ``None`` until its first contribution, which it takes
as its adjoint, and ``backward`` drops each adjoint once its record's step
has run, so no adjoint is zero-filled and none outlives its use. Records
whose adjoint is never created do not reach the root and are skipped.
Leaf gradients are buffers made by ``parameter()``, often views into a
parameter store's one flat gradient array; they persist across backward
calls and accumulate with ``+=``, so backward on two roots, each on its
own tape, sums their contributions (gradient linearity).

One rule keeps adjoints from aliasing: ``backward`` makes a record's
upstream adjoint ``g`` read-only before its step runs. The step may hand
``g`` and views of it to any number of inputs; an array it computes goes
to one input, which may write into it. A later contribution to a
read-only adjoint makes a new array, and a step that writes into ``g``
fails with numpy's read-only ``ValueError``.

A training loop may pass one ``Workspace`` to ``record`` for every step:
ops record into arrays taken from it, and ``backward`` gives it back each
record's value and adjoint of 64 KiB or more that nothing else references
once the walk has passed them, so the next step's forward pass reuses that
memory instead of faulting it back in from the C allocator. An adjoint
contribution that a step merges into another goes back to the allocator
at once, where arrays of any shape reuse it. Values are the same with or
without a workspace.

``backward`` pops each record as its step runs and drops the record's
value, closure and adjoint there, not after the whole walk: a value that
nothing else holds is freed (or given to the workspace) as soon as the
walk has passed it, so the adjoints of earlier records reuse its memory.

Four ops may write their output in place: ``shifted_sum``, ``add_col``,
``sigmoid`` and ``gated_scan`` with ``inplace=True``. The rule is that an
op writes only into an input that the caller gives up and that the op's
own backward never reads: none of the four reads its input values in
backward. Only an op's output can be given up, never a leaf (a parameter,
a constant, a tensor the caller built), and each only once; asking
otherwise raises ValueError before anything is written. Afterwards the
given-up tensor's ``value`` is the output's array (for ``shifted_sum``, its
view at the term's columns), so its tape record keeps no array of its own.
Its old values are gone, so the caller gives up only a tensor that no
other op has read or will read in backward: ``matmul``, ``mul``,
``rows_dot_cols`` and ``gated_scan`` (its gates) read their inputs there.

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
needs for log1p anyway.

Everything is float64: the models are small and gradient checking at
tight tolerances is unreliable in float32.

Tapes are per thread: `record` activates a tape, and a workspace, on the
calling thread alone, and each op records onto its own thread's tape.
So two threads may record and run `backward` at the same time, each on
its own tape with its own workspace, and may share leaves for reading.
They must never accumulate into the same leaf's gradient buffer: ``+=``
from two threads into one array is a data race that loses updates. A
training step split over two threads gives the second thread's leaves
gradient buffers of their own and adds them up after both have
returned. Tensors can move freely between threads once recording has
finished.
"""
from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)

# A spare array smaller than this is not worth keeping: the C allocator
# serves such sizes from its free lists without returning pages to the system.
SPARE_MIN_BYTES = 1 << 16

class _ThreadState(threading.local):
    """This thread's active tape and workspace. The class attributes are
    every thread's defaults, so a thread that never set them (a worker that
    runs off the tape) reads None as fast as one that did."""

    tape: Tape | None = None
    workspace: Workspace | None = None


_tls = _ThreadState()


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("value", "grad", "requires_grad", "tape", "owns_value")

    def __init__(self, value):
        arr = np.asarray(value, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        self.value = arr
        self.requires_grad = False
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None
        # True for an op's output, whose array no caller shares, until an
        # in-place op takes it; a leaf's array may belong to anyone
        self.owns_value = False

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


def _sole_owner_refcount() -> int:
    """What `sys.getrefcount` reads in `Workspace.give` for an array its
    caller holds under one local name, with nothing else referencing it:
    measured through a method called the same way, because interpreters
    count the call's own references differently."""

    class Probe:
        def give(self, a):
            return sys.getrefcount(a)

    lone = np.empty(0)
    return Probe().give(lone)


_SOLE_OWNER_REFCOUNT = _sole_owner_refcount()


class Workspace:
    """Arrays one recorded step leaves for the next to reuse.

    A training loop passes the same workspace to `record` for each step.
    `backward` gives it each record's adjoint and forward value as the walk
    passes them, keeping only arrays nothing else references; the ops of
    the next step, and their backward steps, take their output arrays from
    it by shape. So the steps reuse the same memory. Freed instead, a
    step's arrays would go back to the C allocator, which returns the top
    of its heap to the system once the free space there passes its trim
    threshold, and the next step would fault every page in again. A
    contribution merged into an adjoint is not given: the C allocator
    reuses it at once, within the step, for arrays of any shape.

    `take` serves what the last step gave first, then what this step has
    given so far (arrays `backward` and in-place ops released early). At
    the end of each `backward`, what the step before gave and this one did
    not take is dropped, so the workspace never holds more than one step's
    arrays.
    """

    __slots__ = ("_spare", "_given")

    def __init__(self):
        self._spare: dict[tuple[int, ...], list[np.ndarray]] = {}  # the last step's
        self._given: dict[tuple[int, ...], list[np.ndarray]] = {}  # this step's

    def take(self, shape: tuple[int, ...]) -> np.ndarray | None:
        """A spare array of `shape` with stale entries, None if there is none."""
        stack = self._spare.get(shape) or self._given.get(shape)
        return stack.pop() if stack else None

    def give(self, a: np.ndarray) -> None:
        """Keep `a` if it is big enough, owns its data and the caller's one
        local name is its only reference."""
        if (a.nbytes >= SPARE_MIN_BYTES and a.base is None and a.flags.c_contiguous
                and sys.getrefcount(a) == _SOLE_OWNER_REFCOUNT):
            a.flags.writeable = True
            self._given.setdefault(a.shape, []).append(a)

    def end_step(self) -> None:
        """Drop what the last step gave and this one did not take."""
        self._spare, self._given = self._given, {}


class Tape:
    """Execution-ordered record of differentiable operations."""

    __slots__ = ("records", "workspace")

    def __init__(self, workspace: Workspace | None = None):
        self.records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self.workspace = workspace


def _active_tape() -> Tape | None:
    return _tls.tape


@contextmanager
def record(workspace: Workspace | None = None):
    """Activate a fresh tape on this thread: ``with record() as tape: ...``

    With a `workspace`, ops and the tape's `backward` take their output
    arrays from it when it has one of the right shape.
    """
    if _active_tape() is not None:
        raise RuntimeError("an autodiff tape is already active on this thread")
    tape = Tape(workspace)
    _tls.tape = tape
    _tls.workspace = workspace
    try:
        yield tape
    finally:
        _tls.tape = None
        _tls.workspace = None


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """An array for an op's output, from this thread's workspace when it
    has one of `shape`, else a new one; either way its entries are stale
    and the op overwrites every one."""
    workspace = _tls.workspace
    out = None if workspace is None else workspace.take(shape)
    return np.empty(shape) if out is None else out


def _track(out: Tensor, inputs: Sequence[Tensor], step) -> Tensor:
    """Register `out` on the active tape when any input is gradient-enabled."""
    out.owns_value = True
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape.records.append((out, step))
    return out


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into the gradient of every enabled leaf.

    `root` must be a scalar produced by tape-recorded operations. The walk
    consumes its tape, even if a step raises; a second call on it raises ValueError.
    """
    tape = root.tape
    if tape is None:
        raise ValueError("backward root was not produced by tape-recorded operations")
    if root.value.size != 1:
        raise ValueError(f"backward root must be a scalar, got shape {root.shape}")
    if not tape.records:
        raise ValueError("backward root's tape was already consumed by an earlier backward")
    root.grad = np.ones_like(root.value)
    workspace, outer = tape.workspace, _tls.workspace
    _tls.workspace = workspace
    records = tape.records
    try:
        while records:
            out, step = records.pop()
            g = out.grad
            if g is not None:
                g = np.asarray(g)  # a step on 0-d values may have made a numpy scalar
                g.flags.writeable = False  # so the step may hand it to any inputs
                step(g)
            value = out.value
            out.grad = out = step = None  # the record's last references, bar the caller's own
            if workspace is not None:
                if g is not None:
                    g = g if g.base is None else g.base  # a view's last holder frees its base
                    workspace.give(g)
                value = value if value.base is None else value.base
                workspace.give(value)
            del g, value  # or a later `give` of these arrays would count these names
    finally:
        _tls.workspace = outer
        records.clear()  # after a raising step: breaks the tensor -> tape -> records cycle
        if workspace is not None:
            workspace.end_step()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a contribution into `t`'s adjoint; the first one becomes the adjoint.

    `g` is the step's read-only upstream adjoint or a view of it, which
    other inputs may share, or an array computed for `t` alone. Only a
    writable adjoint, held by `t` alone, is added into in place. An array
    this leaves unused goes back to the C allocator, not to the workspace.
    """
    if t.grad is None:
        t.grad = g
    elif t.grad.flags.writeable:
        t.grad += g
    else:
        t.grad = np.add(t.grad, g, out=_empty(t.grad.shape))


def _adjoint(t: Tensor) -> np.ndarray:
    """`t`'s adjoint for an in-place (scatter) update: zero-filled on first
    use, copied first when it is read-only (shared with other adjoints),
    and the shared array is left to its other holders."""
    if t.grad is None:
        t.grad = _empty(t.shape)
        t.grad.fill(0.0)
    elif not t.grad.flags.writeable:
        shared, t.grad = t.grad, _empty(t.shape)
        np.copyto(t.grad, shared)
    return t.grad


def _give_up(op: str, t: Tensor, *others: Tensor) -> np.ndarray:
    """`t`'s array, for op `op` to write its output into in place.

    Raises ValueError unless `t` is an op's output that no in-place op has
    taken yet and its array overlaps no other input of the op; then `t`
    no longer owns the array.
    """
    if not t.owns_value:
        raise ValueError(f"{op}: inplace=True needs an op's output that no in-place op took, "
                         f"not a leaf (a parameter, a constant) or a tensor already given up")
    if any(np.may_share_memory(t.value, o.value) for o in others):
        raise ValueError(f"{op}: the input given up in place shares memory with another input")
    t.owns_value = False
    return t.value


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
    out = Tensor(np.matmul(a.value, b.value, out=_empty((a.shape[0], b.shape[1]))))
    av, bv = a.value, b.value

    def step(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, bv.T, out=_empty(av.shape)))
        if b.requires_grad:
            _accumulate(b, np.matmul(av.T, g, out=_empty(bv.shape)))

    return _track(out, (a, b), step)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = Tensor(np.add(a.value, b.value, out=_empty(a.shape)))

    def step(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _track(out, (a, b), step)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)
    out = Tensor(np.multiply(a.value, b.value, out=_empty(a.shape)))
    av, bv = a.value, b.value

    def step(g):
        if a.requires_grad:
            _accumulate(a, np.multiply(g, bv, out=_empty(g.shape)))
        if b.requires_grad:
            _accumulate(b, np.multiply(g, av, out=_empty(g.shape)))

    return _track(out, (a, b), step)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(np.multiply(a.value, c, out=_empty(a.shape)))

    def step(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _track(out, (a,), step)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def one_minus(a: Tensor) -> Tensor:
    """Elementwise 1 - a."""
    out = Tensor(np.subtract(1.0, a.value, out=_empty(a.shape)))

    def step(g):
        if a.requires_grad:
            _accumulate(a, np.negative(g, out=_empty(g.shape)))

    return _track(out, (a,), step)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack along the leading axis; trailing dimensions must agree."""
    if a.value.shape[1:] != b.value.shape[1:]:
        raise ValueError(f"concat_rows trailing shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(np.concatenate([a.value, b.value], axis=0,
                                out=_empty((a.shape[0] + b.shape[0], *a.shape[1:]))))
    split = a.shape[0]

    def step(g):
        if a.requires_grad:
            _accumulate(a, g[:split])
        if b.requires_grad:
            _accumulate(b, g[split:])

    return _track(out, (a, b), step)


def add_col(a: Tensor, col: Tensor, inplace: bool = False) -> Tensor:
    """Broadcast-add a column vector (m, 1) across every column of a (m, n);
    with `inplace`, into `a`'s array."""
    _require_2d("add_col", a)
    if col.shape != (a.shape[0], 1):
        raise ValueError(f"add_col shape mismatch: {a.shape} vs column {col.shape}")
    out_val = _give_up("add_col", a, col) if inplace else _empty(a.shape)
    out = Tensor(np.add(a.value, col.value, out=out_val))

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
    out_val = _empty((a.shape[0], stop - start))
    np.copyto(out_val, a.value[:, start:stop])
    out = Tensor(out_val)

    def step(g):
        if a.requires_grad:
            _adjoint(a)[:, start:stop] += g

    return _track(out, (a,), step)


def transpose(a: Tensor) -> Tensor:
    _require_2d("transpose", a)
    out_val = _empty(a.shape[::-1])
    np.copyto(out_val, a.value.T)
    out = Tensor(out_val)

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


def sigmoid(a: Tensor, inplace: bool = False) -> Tensor:
    """Logistic function 1 / (1 + exp(-x)), clamped strictly inside (0, 1);
    with `inplace`, into `a`'s array.

    One buffer holds every stage. exp(-x) overflows to inf for x below
    about -709, which gives 1 / inf = 0 before the clamp, so the overflow
    is expected and silenced. NaN stays NaN.
    """
    out_val = _give_up("sigmoid", a) if inplace else _empty(a.shape)
    np.negative(a.value, out=out_val)
    with np.errstate(over="ignore"):
        np.exp(out_val, out=out_val)
    out_val += 1.0
    np.reciprocal(out_val, out=out_val)
    np.clip(out_val, _SIGMOID_LO, _SIGMOID_HI, out=out_val)
    out = Tensor(out_val)

    def step(g):
        if a.requires_grad:
            d = np.subtract(1.0, out_val, out=_empty(out_val.shape))  # g * s * (1 - s), one buffer
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
    # checked above, so "clip" changes no index; it lets numpy write `out` unbuffered
    out = Tensor(np.take(a.value, idx, axis=0, out=_empty((len(idx), a.shape[1])), mode="clip"))

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
    dim = w.shape[1]
    rows = w.value[idx]  # (B, C, D)
    out = Tensor(np.einsum("bcd,db->bc", rows, z.value))
    zv = z.value

    def step(g):
        if w.requires_grad:
            contrib = g[:, :, None] * zv.T[:, None, :]
            _scatter_add(_adjoint(w), idx.ravel(), contrib.reshape(-1, dim))
        if z.requires_grad:
            _accumulate(z, np.einsum("bc,bcd->db", g, rows, out=_empty(zv.shape)))

    return _track(out, (w, z), step)


# ---------------------------------------------------------------------------
# whole-sequence ops: column t*B + b of an (m, L*B) matrix is timestep t of
# sequence b, so a timestep is one block of `width` = B columns


def _require_blocks(op: str, a: Tensor, width: int) -> int:
    _require_2d(op, a)
    if width < 1 or a.shape[1] % width:
        raise ValueError(f"{op}: {a.shape[1]} columns are not whole blocks of {width}")
    return a.shape[1] // width


def shifted_sum(terms: Sequence[Tensor], offsets: Sequence[int],
                inplace: bool = False) -> Tensor:
    """Sum terms into one (m, n) tensor, term j over columns offsets[j]:n.

    Offsets strictly decrease to 0 and term j is (m, n - offsets[j]). Each
    term from the second on has the running sum of the terms before it
    added over the columns they share, so the last one (offset 0) ends up
    holding the sum, every column summed in list order (a + b == b + a to
    the bit). With `inplace` the sums run in the terms' own arrays, and
    afterwards each term's `value` is the output's view at its columns;
    else they run in copies of the terms.
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
    if inplace:
        sums = [_give_up("shifted_sum", t) for t in terms]
    else:
        sums = [t.value.copy() for t in terms]
    for j in range(1, len(sums)):  # sums[j - 1] sums the terms up to j - 1
        sums[j][:, offsets[j - 1] - offsets[j]:] += sums[j - 1]
    out_val = sums[-1]
    out = Tensor(out_val)
    if inplace:
        workspace = _tls.workspace
        sums.clear()  # so each term's old array is referenced by `spare` alone
        for t, o in zip(terms[:-1], offsets):
            spare = t.value
            t.value = out_val[:, o:]
            if workspace is not None:
                workspace.give(spare)

    def step(g):
        for t, o in zip(terms, offsets):
            if t.requires_grad:
                _accumulate(t, g[:, o:])

    return _track(out, terms, step)


def gated_scan(f: Tensor, take: Tensor, width: int, inplace: bool = False) -> Tensor:
    """fo-pooling over column blocks: c_0 = take_0, c_t = take_t + f_t*c_{t-1};
    with `inplace`, into `take`'s array.

    Backward is one reverse scan: dc_{t-1} = g_{t-1} + f_t*dc_t, then
    d take_t = dc_t and d f_t = dc_t*c_{t-1} (zero for t = 0).
    """
    _require_same_shape("gated_scan", f, take)
    _require_blocks("gated_scan", f, width)
    fv = f.value
    if inplace:
        c = _give_up("gated_scan", take, f)
    else:
        c = _empty(take.shape)
        np.copyto(c, take.value)
    n = c.shape[1]
    carried = _empty((c.shape[0], width))  # f_t * c_{t-1}
    for lo in range(width, n, width):
        np.multiply(fv[:, lo:lo + width], c[:, lo - width:lo], out=carried)
        c[:, lo:lo + width] += carried
    workspace = _tls.workspace
    if workspace is not None:
        workspace.give(carried)
    out = Tensor(c)

    def step(g):
        dc = _empty(g.shape)  # adjoint of each c_t: g_t plus what c_{t+1} passes back
        dc[:, n - width:] = g[:, n - width:]
        for lo in range(n - 2 * width, -1, -width):
            hi = lo + width
            cur = dc[:, lo:hi]
            np.multiply(fv[:, hi:hi + width], dc[:, hi:hi + width], out=cur)
            cur += g[:, lo:hi]
        if f.requires_grad:
            df = _empty(dc.shape)
            df[:, :width] = 0.0
            np.multiply(dc[:, width:], c[:, :-width], out=df[:, width:])
            _accumulate(f, df)
        if take.requires_grad:
            _accumulate(take, dc)

    return _track(out, (f, take), step)


def sum_col_blocks(a: Tensor, width: int) -> Tensor:
    """Sum the column blocks of `width` of a 2-d tensor, first block first."""
    blocks = _require_blocks("sum_col_blocks", a, width)
    total = _empty((a.shape[0], width))
    np.copyto(total, a.value[:, :width])
    for lo in range(width, a.shape[1], width):
        total += a.value[:, lo:lo + width]
    out = Tensor(total)

    def step(g):
        if a.requires_grad:
            tiled = _empty(a.shape)  # g in every block
            np.copyto(tiled.reshape(-1, blocks, width), g[:, None, :])
            _accumulate(a, tiled)

    return _track(out, (a,), step)
