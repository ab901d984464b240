"""Per-layer metrics of the traced run, derived from its spans and counts.

"Per step" divides by the training steps of the traced units, "per unit"
by the number of traced units; `data.make_splits_s` is per call. Every time is a span's duration except
`autodiff.op_us.*` and `evaluation.ranking_ms`, which are self times (the
span minus the part of it its child spans cover).
"""
from __future__ import annotations

import time

import numpy as np

from tracer import AUTODIFF_OPS, PHASES

GEMM_MIN_SECONDS = 0.002


def gemm_seconds(shape_a, shape_b, grad_a: bool, grad_b: bool, rng) -> float:
    """Dense-GEMM floor of one taped matmul: the forward product plus the
    backward products its inputs need, timed on random float64 operands."""
    a = rng.random(shape_a)
    b = rng.random(shape_b)
    g = rng.random((shape_a[0], shape_b[1]))

    def once():
        a @ b
        if grad_a:
            g @ b.T
        if grad_b:
            a.T @ g

    once()
    samples = []
    for _ in range(5):
        reps = 0
        t0 = time.perf_counter()
        while True:
            once()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= GEMM_MIN_SECONDS:
                break
        samples.append(elapsed / reps)
    return float(np.median(samples))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the median when fewer than twenty samples leave no such tail."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return float(np.median(ordered)), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_layer_metrics(tracer, traced_units, untraced_unit,
                      step_ms: list[float]) -> dict[str, tuple[float, str]]:
    """Metrics from the traced units' spans; `step_ms` are their training steps."""
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    n_units = len(traced_units)
    steps = len(step_ms)

    def mask(name, phase=None):
        m = spans["name"] == ids.get(name, -1)
        if phase is not None:
            m &= spans["phase"] == PHASES.index(phase)
        return m

    def total_ms(name, phase=None):
        return float(spans["duration"][mask(name, phase)].sum()) * 1e3

    def calls(name, phase=None):
        return int(mask(name, phase).sum())

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["autodiff.tape_records_per_step"] = (mean(tracer.train_tape_records), "count")
    m["autodiff.backward_ms_per_step"] = (total_ms("autodiff.backward", "train") / steps, "ms")
    m["autodiff.adjoint_mb_per_step"] = (mean(tracer.train_adjoint_bytes) / 1e6, "MB")
    m["autodiff.matmul_calls_per_step"] = (calls("autodiff.matmul", "train") / steps, "count")
    m["autodiff.matmul_ms_per_step"] = (total_ms("autodiff.matmul", "train") / steps, "ms")
    rng = np.random.default_rng(0)
    floor_ms = sum(
        count * gemm_seconds(*key, rng) for key, count in tracer.train_gemm_shapes.items()
    ) * 1e3 / steps
    m["autodiff.gemm_floor_ms_per_step"] = (floor_ms, "ms")
    m["autodiff.gemm_floor_ratio"] = (sum(step_ms) / steps / floor_ms, "ratio")
    for op in AUTODIFF_OPS:
        sel = mask(f"autodiff.{op}")
        m[f"autodiff.op_calls.{op}"] = (int(sel.sum()) / n_units, "count")
        m[f"autodiff.op_us.{op}"] = (float(spans["self"][sel].mean()) * 1e6, "us")

    m["model.forward_ms_per_step"] = (total_ms("training.forward_batch", "train") / steps, "ms")
    m["model.trace_mb_per_step"] = (mean(tracer.trace_bytes) / 1e6, "MB")
    m["model.predict_scores_ms"] = (total_ms("model.predict_scores", "eval") / n_units, "ms")
    m["model.score_ms_per_user"] = (total_ms("model.score_batch", "eval") / tracer.scored_users,
                                    "ms")
    m["model.loss_eval_ms"] = (total_ms("bench.loss_eval") / calls("bench.loss_eval"), "ms")

    m["data.make_splits_s"] = (total_ms("data.make_splits") / 1e3 / calls("data.make_splits"),
                               "s")
    for phase, name in (("train", "training.sample_negatives"),
                        ("eval", "evaluation.sample_negatives")):
        m[f"data.sample_negatives_calls.{phase}"] = (calls(name) / n_units, "count")
        m[f"data.sample_negatives_ms.{phase}"] = (total_ms(name) / n_units, "ms")

    p50 = float(np.median(step_ms))
    tail_ms, tail_pct = tail(step_ms)
    m["training.step_ms_p50"] = (p50, "ms")
    m["training.step_ms_tail"] = (tail_ms, "ms")
    m["training.step_ms_tail_pct"] = (tail_pct, "%")
    m["training.step_samples"] = (steps, "count")
    m["training.adam_ms_per_step"] = (total_ms("training.adam_step", "train") / steps, "ms")
    m["training.sampling_ms_per_step"] = (total_ms("training.sample_negatives", "train") / steps,
                                          "ms")
    m["training.bce_ms_per_step"] = (total_ms("training.bce_loss", "train") / steps, "ms")

    # evaluate runs validation then test after every epoch, so its spans alternate.
    evaluate = np.flatnonzero(mask("evaluation.evaluate"))
    duration = spans["duration"]
    m["evaluation.evaluate_s.validation"] = (float(duration[evaluate[0::2]].sum()) / n_units, "s")
    m["evaluation.evaluate_s.test"] = (float(duration[evaluate[1::2]].sum()) / n_units, "s")
    under_evaluate = np.isin(spans["parent"], evaluate)
    candidates = under_evaluate & (mask("evaluation.sample_negatives") | mask("rng.stream"))
    m["evaluation.candidates_ms"] = (float(duration[candidates].sum()) * 1e3 / n_units, "ms")
    scoring = under_evaluate & mask("model.score_batch")
    m["evaluation.scoring_ms"] = (float(duration[scoring].sum()) * 1e3 / n_units, "ms")
    m["evaluation.ranking_ms"] = (float(spans["self"][evaluate].sum()) * 1e3 / n_units, "ms")

    m["rng.stream_calls"] = (calls("rng.stream") / n_units, "count")
    m["rng.stream_ms"] = (total_ms("rng.stream") / n_units, "ms")

    traced_wall = mean([u.wall_s for u in traced_units])
    m["trace.overhead_pct"] = (100.0 * (traced_wall - untraced_unit.wall_s)
                               / untraced_unit.wall_s, "%")
    m["trace.spans_per_unit"] = (len(spans["start"]) / n_units, "count")
    return m
