"""Span tracing from outside the package, for the benchmark's traced run.

`Tracer.install()` replaces public functions of the `qrseq` modules with
timing wrappers, at the module attributes through which the package calls
them (`qrseq.training.forward_batch` is the name `train_epoch` resolves,
`qrseq.model.forward_batch` the one `ModelScorer` resolves). Nothing in the
package is edited; `uninstall()` puts every original back. `Patcher` is the
one place that replaces and restores attributes; the benchmark's step checks
use it too.

Each call becomes one span: name, start, end, parent span and the
benchmark phase it ran in. Spans are kept in flat typed arrays, so a run
of a few million spans stays small, and are written out once at the end.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

PHASES = ("setup", "train", "eval", "gradcheck", "other")

# Autodiff ops the model graph uses (`sub` has no caller in the package).
AUTODIFF_OPS = (
    "matmul", "add", "mul", "scale", "neg", "one_minus", "concat_rows", "add_col",
    "slice_cols", "transpose", "sigmoid", "softplus", "sum_all", "take_rows",
    "gather", "rows_dot_cols",
)


class Patcher:
    """Replaces attributes with wrappers of the originals and puts them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrap) -> None:
        """Set `owner.attr` to `wrap(original)`."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def hooked(fn, before=None, after=None):
    """Wrap `fn` so that `before(args)` runs before each call and
    `after(result)` after it; `fn` itself when there is neither."""
    if before is None and after is None:
        return fn

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def forward_trace_bytes(trace) -> int:
    """Bytes of array data a `ForwardTrace` keeps alive."""
    total = 0

    def walk(obj):
        nonlocal total
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                walk(item)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                walk(getattr(obj, name))

    walk(trace)
    return total


class Tracer:
    """Records spans at layer boundaries plus a few counts taken there."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._phase = PHASES.index("other")
        self._patcher = Patcher()
        # counts taken at boundaries; the train_* ones in training steps only
        self.train_tape_records: list[int] = []
        self.train_adjoint_bytes: list[int] = []
        self.train_gemm_shapes: Counter = Counter()
        self.trace_bytes: list[int] = []
        self.scored_users = 0

    # -- phases and spans ----------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self._phase = PHASES.index(phase)

    @property
    def phase(self) -> str:
        return PHASES[self._phase]

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn):
        """Wrap `fn` so each call records a span called `name`."""
        nid = self._id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.phase_id.append(self._phase)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace `owner.attr` as span `name`; `before(args)` and `after(result)`
        run outside the span's interval and take the counts of this boundary."""
        self._patcher.patch(owner, attr,
                            lambda fn: hooked(self.span(name, fn), before, after))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from qrseq import autodiff, data, evaluation, model, rng, training

        def on_backward(args):
            if self.phase == "train":
                records = args[0].tape.records
                self.train_tape_records.append(len(records))
                self.train_adjoint_bytes.append(sum(out.value.nbytes for out, _ in records))

        def on_matmul(args):
            if self.phase == "train":
                a, b = args[0], args[1]
                self.train_gemm_shapes[(a.shape, b.shape, a.requires_grad, b.requires_grad)] += 1

        def on_train_forward(result):
            self.trace_bytes.append(forward_trace_bytes(result[1]))

        def on_score(args):
            self.scored_users += len(args[1])

        for op in AUTODIFF_OPS:
            self.patch(autodiff, op, f"autodiff.{op}",
                       before=on_matmul if op == "matmul" else None)
        self.patch(autodiff, "backward", "autodiff.backward", before=on_backward)
        self.patch(model, "forward_batch", "model.forward_batch")
        self.patch(model, "predict_scores", "model.predict_scores")
        self.patch(model.ModelScorer, "score_batch", "model.score_batch", before=on_score)
        self.patch(training, "forward_batch", "training.forward_batch", after=on_train_forward)
        self.patch(training, "sample_negatives", "training.sample_negatives")
        self.patch(training, "bce_loss", "training.bce_loss")
        self.patch(training, "adam_step", "training.adam_step")
        self.patch(training, "train_epoch", "training.train_epoch")
        self.patch(evaluation, "sample_negatives", "evaluation.sample_negatives")
        self.patch(evaluation, "evaluate", "evaluation.evaluate")
        self.patch(data, "make_splits", "data.make_splits")
        self.patch(rng, "stream", "rng.stream")

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "phase": np.frombuffer(self.phase_id, dtype=np.int8),
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - child,
        }

    def write(self, path: Path) -> None:
        spans = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            phases=np.array(PHASES),
            **{key: spans[key] for key in ("name", "phase", "parent", "start", "end")},
        )
