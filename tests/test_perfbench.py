"""The benchmark's contract with the package, checked in the test suite.

The traced benchmark run wraps package functions by name from outside
(`perfbench/tracer.py`), so renaming or deleting one of them breaks it;
running the smoke check here makes that a test failure. The smoke check
takes a while, so the op-coverage test below fails faster, and with a
message that names the benchmark line that would break.
"""
from __future__ import annotations

import functools
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qrseq import autodiff as ad
from qrseq import rng as rng_streams
from qrseq.data import make_splits
from qrseq.evaluation import EvalConfig, evaluate
from qrseq.model import ModelConfig, ModelScorer, ParameterStore
from qrseq.training import AdamState, TrainConfig, train_epoch
from helpers import chain_log

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gradcheck_workload_runs_the_criterion_1_configs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import criterion1_configs
    from test_acceptance import gradient_check_configs

    assert criterion1_configs() == gradient_check_configs(), (
        "perfbench/workloads.py criterion1_configs and tests/test_acceptance.py "
        "gradient_check_configs have drifted apart; gradcheck-c1 says it runs the latter")


@pytest.mark.parametrize("which", ["default", "criterion-1"])
def test_training_step_and_evaluation_call_every_traced_autodiff_op(monkeypatch, which):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import AUTODIFF_OPS
    from workloads import criterion1_configs

    if which == "default":
        log = chain_log(num_users=12, num_items=40, seq_len=9, seed=1)
        config = ModelConfig(num_items=log.item_count, num_users=log.user_count)
        negatives = 3
    else:
        config = criterion1_configs()[4]  # no profile, one layer, M+M
        log = chain_log(num_users=config.num_users, num_items=config.num_items,
                        seq_len=min(config.seq_len + 4, config.num_items - 2), seed=1)
        negatives = 2
    calls: Counter = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for op in AUTODIFF_OPS:
        monkeypatch.setattr(ad, op, counted(op, getattr(ad, op)))
    splits = make_splits(log, config.seq_len)
    store = ParameterStore(config, rng_streams.stream(1, "init"))
    train = TrainConfig(seed=1, batch_size=len(splits.train_targets),
                        negatives_per_target=negatives)
    train_epoch(log, splits, store, AdamState(store), train, epoch=1)  # one step
    train_matmuls = calls["matmul"]
    evaluate(ModelScorer(store), "validation", log, splits, EvalConfig(seed=1))

    assert train_matmuls, (
        "a training step made no ad.matmul call: the traced benchmark's GEMM floor "
        "would be zero and perfbench/layers.py:92 would divide by it")
    missing = [op for op in AUTODIFF_OPS if not calls[op]]
    assert not missing, (
        f"autodiff ops {missing} are never called: the traced benchmark's mean time "
        f"per call would be NaN at perfbench/layers.py:96")
