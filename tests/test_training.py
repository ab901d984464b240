"""Loss values, Adam behavior, epoch mechanics, fit-level control flow."""
from __future__ import annotations

import gc
import math
import multiprocessing
import threading
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qrseq import autodiff as ad
from qrseq import rng as rng_streams
from qrseq import training
from qrseq.data import make_splits
from qrseq.errors import ConfigError, TrainingDivergedError
from qrseq.evaluation import EvalConfig
from qrseq.model import ModelConfig, ParameterStore
from qrseq.training import AdamState, TrainConfig, adam_step, bce_loss, fit, train_epoch
from helpers import chain_log, reference_adam_step

LN2 = math.log(2.0)


def tiny_setup(num_users=20, num_items=30, seq_len=12, latent_dim=4, seed=0, **model_overrides):
    log = chain_log(num_users=num_users, num_items=num_items, seq_len=seq_len, seed=seed)
    model_cfg = ModelConfig(
        num_items=log.item_count, num_users=log.user_count,
        latent_dim=latent_dim, seq_len=5, **model_overrides,
    )
    splits = make_splits(log, model_cfg.seq_len)
    return log, model_cfg, splits


# -- loss ----------------------------------------------------------------------


def test_bce_single_zero_score():
    loss = bce_loss(ad.constant([[0.0]]))
    assert loss.item() == pytest.approx(LN2, abs=1e-12)


def test_bce_target_and_negative_at_zero():
    loss = bce_loss(ad.constant([[0.0]]), ad.constant([[0.0]]))
    assert loss.item() == pytest.approx(2 * LN2, abs=1e-12)


def test_bce_hand_value():
    loss = bce_loss(ad.constant([[2.0]]), ad.constant([[-1.0]]))
    expected = -math.log(1 / (1 + math.exp(-2.0))) - math.log(1 - 1 / (1 + math.exp(1.0)))
    assert expected == pytest.approx(0.4402, abs=1e-4)
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_bce_finite_for_extreme_scores():
    loss = bce_loss(ad.constant([[-1000.0]]), ad.constant([[1000.0]]))
    assert np.isfinite(loss.item())


def test_bce_requires_a_target():
    with pytest.raises(ValueError, match="target"):
        bce_loss(ad.constant(np.zeros((0, 1))))


def test_bce_gradients_have_closed_form():
    # d/dy -log(sigmoid(y)) = sigmoid(y) - 1; d/dy -log(1 - sigmoid(y)) = sigmoid(y)
    y_pos = ad.parameter([[0.7], [-2.0]])
    y_neg = ad.parameter([[1.3], [0.0]])
    with ad.record():
        loss = bce_loss(y_pos, y_neg)
    ad.backward(loss)
    sig = lambda v: 1 / (1 + np.exp(-v))
    assert np.allclose(y_pos.grad, sig(y_pos.value) - 1, atol=1e-12)
    assert np.allclose(y_neg.grad, sig(y_neg.value), atol=1e-12)


# -- adam ------------------------------------------------------------------------


def adam_fixture():
    cfg = ModelConfig(num_items=5, num_users=2, latent_dim=2, seq_len=3, dropout=0.0)
    store = ParameterStore(cfg, rng_streams.stream(0, "init"))
    return store, AdamState(store)


def test_adam_zero_gradients_are_a_fixed_point():
    store, state = adam_fixture()
    before = {n: p.value.copy() for n, p in store.named_parameters().items()}
    store.zero_grads()
    adam_step(store, state, lr=0.01, l2=0.0)
    for name, p in store.named_parameters().items():
        assert np.array_equal(p.value, before[name])


def test_adam_first_step_moves_by_learning_rate():
    store, state = adam_fixture()
    store.zero_grads()
    target = store.head_bias
    before = target.value[3]
    target.grad[3] = 1.0
    adam_step(store, state, lr=0.05, l2=0.0)
    assert before - target.value[3] == pytest.approx(0.05, rel=1e-6)


def test_adam_skips_padding_rows():
    store, state = adam_fixture()
    store.zero_grads()
    store.item_embeddings.grad[:] = 1.0  # including the padding row
    adam_step(store, state, lr=0.1, l2=0.5)
    assert np.array_equal(store.item_embeddings.value[0], np.zeros(2))
    assert np.all(store.item_embeddings.value[1:] != 0.0)


def test_adam_weight_decay_shrinks_parameters():
    store, state = adam_fixture()
    store.zero_grads()
    before = store.head_weights.value.copy()
    adam_step(store, state, lr=0.1, l2=0.5)
    after = store.head_weights.value
    assert np.allclose(after[1:], before[1:] * (1 - 0.1 * 0.5), atol=1e-12)


def test_adam_is_deterministic():
    results = []
    for _ in range(2):
        store, state = adam_fixture()
        for step in range(5):
            store.zero_grads()
            for p in store.named_parameters().values():
                p.grad[:] = 0.01 * (step + 1)
            adam_step(store, state, lr=0.01, l2=1e-4)
        results.append(store.head_weights.value.tobytes())
    assert results[0] == results[1]


@pytest.mark.parametrize("block", [training.ADAM_BLOCK, 7], ids=["default-block", "block-7"])
def test_adam_step_matches_the_per_tensor_loop_bit_for_bit(monkeypatch, block):
    # blocks of 7 split tensors mid-row and leave a short last block
    monkeypatch.setattr(training, "ADAM_BLOCK", block)
    cfg = ModelConfig(num_items=9, num_users=5, latent_dim=3, seq_len=4, scales=(1, 3),
                      num_layers=2, use_output_gate=True, use_user_profile=True,
                      aggregation="L+M", dropout=0.0)
    store = ParameterStore(cfg, rng_streams.stream(2, "init"), init_std=0.3)
    oracle = store.copy()
    state = AdamState(store)
    m = {n: np.zeros_like(p.value) for n, p in oracle.named_parameters().items()}
    v = {n: np.zeros_like(p.value) for n, p in oracle.named_parameters().items()}
    draws = np.random.default_rng(4)
    for t in range(1, 6):
        for name, p in store.named_parameters().items():
            g = draws.normal(0.0, 10.0 ** (t - 3), size=p.shape)  # padding rows too
            p.grad[...] = g
            oracle.named_parameters()[name].grad[...] = g
        adam_step(store, state, lr=0.02, l2=0.03)
        reference_adam_step(oracle, m, v, t, lr=0.02, l2=0.03)
    assert state.step_count == 5
    assert store.flat_values.tobytes() == oracle.flat_values.tobytes()
    offsets = np.cumsum([0] + [p.value.size for p in store.named_parameters().values()])
    for (name, p), lo in zip(store.named_parameters().items(), offsets):
        assert state.m[lo:lo + p.value.size].tobytes() == m[name].tobytes(), name
        assert state.v[lo:lo + p.value.size].tobytes() == v[name].tobytes(), name


def test_adam_temporaries_do_not_grow_with_the_model(monkeypatch):
    # the update runs in AdamState's block buffers: a step allocates less than one block
    monkeypatch.setattr(training, "ADAM_BLOCK", 512)
    store = ParameterStore(ModelConfig(num_items=300, num_users=2, latent_dim=8, seq_len=2,
                                       dropout=0.0))
    state = AdamState(store)
    bound = 512 * store.flat_values.itemsize
    assert store.flat_values.nbytes > 2 * bound
    store.flat_grads[:] = 0.5
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        adam_step(store, state, lr=0.01, l2=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < bound


# -- train_epoch -------------------------------------------------------------------


def test_zero_learning_rate_is_a_no_op_epoch():
    log, model_cfg, splits = tiny_setup()
    store = ParameterStore(model_cfg, rng_streams.stream(0, "init"))
    state = AdamState(store)
    cfg = TrainConfig(seed=0, lr=0.0, batch_size=16, l2=0.0)
    before = {n: p.value.copy() for n, p in store.named_parameters().items()}
    train_epoch(log, splits, store, state, cfg, epoch=1)
    for name, p in store.named_parameters().items():
        assert np.array_equal(p.value, before[name])


def test_initial_mean_loss_is_near_chance():
    log, model_cfg, splits = tiny_setup(latent_dim=8)
    store = ParameterStore(model_cfg, rng_streams.stream(1, "init"))
    state = AdamState(store)
    cfg = TrainConfig(seed=1, lr=0.0, batch_size=64)
    mean_loss, seen = train_epoch(log, splits, store, state, cfg, epoch=1)
    chance = (1 + cfg.negatives_per_target) * LN2
    assert seen == len(splits.train_targets)
    assert mean_loss == pytest.approx(chance, rel=0.02)


def test_loss_decreases_on_learnable_synthetic_data():
    log, model_cfg, splits = tiny_setup(num_users=50, latent_dim=8, dropout=0.1)
    store = ParameterStore(model_cfg, rng_streams.stream(2, "init"))
    state = AdamState(store)
    cfg = TrainConfig(seed=2, lr=0.01, batch_size=64)
    losses = [train_epoch(log, splits, store, state, cfg, epoch=e)[0] for e in range(1, 6)]
    assert losses[-1] < losses[0]
    assert np.mean(losses[-2:]) < np.mean(losses[:2])


def test_training_never_touches_padding_embedding():
    log, model_cfg, splits = tiny_setup()
    store = ParameterStore(model_cfg, rng_streams.stream(3, "init"))
    state = AdamState(store)
    cfg = TrainConfig(seed=3, lr=0.01, batch_size=32)
    for epoch in (1, 2):
        train_epoch(log, splits, store, state, cfg, epoch=epoch)
    assert np.array_equal(store.item_embeddings.value[0], np.zeros(model_cfg.latent_dim))


def test_non_finite_step_stops_training_before_the_update():
    log, model_cfg, splits = tiny_setup()
    store = ParameterStore(model_cfg, rng_streams.stream(5, "init"))
    state = AdamState(store)
    store.gate("forget", 2, 0)[0][1].value[0, 0] = np.nan
    before = {n: p.value.copy() for n, p in store.named_parameters().items()}
    cfg = TrainConfig(seed=5, lr=0.01, batch_size=16)
    with pytest.raises(TrainingDivergedError) as err:
        train_epoch(log, splits, store, state, cfg, epoch=3)
    first_bad = next(n for n, p in store.named_parameters().items()
                     if not np.isfinite(p.grad).all())
    message = str(err.value)
    assert "epoch 3, batch 1:" in message
    assert message.endswith(f"first non-finite gradient: {first_bad}")
    assert state.step_count == 0
    for name, p in store.named_parameters().items():
        assert np.array_equal(p.value, before[name], equal_nan=True)


def test_fit_raises_on_divergence_instead_of_returning_a_checkpoint():
    # an absurd learning rate overflows the scores from the second step on
    log, model_cfg, splits = tiny_setup()
    evaluated = []

    def evaluate_fn(store, split):
        evaluated.append(split)
        return fake_report(0.0)

    train_cfg = TrainConfig(seed=6, lr=1e300, batch_size=1024, base_epochs=3)
    with pytest.raises(TrainingDivergedError, match="epoch 2, batch 1: loss"):
        fit(log, splits, model_cfg, train_cfg, EvalConfig(),
            evaluate_fn=evaluate_fn)
    assert evaluated == ["validation"]  # epoch 1's; the test split waits for the end


def test_a_diverged_final_update_is_caught_not_returned():
    # one batch an epoch: its decay lr*l2*theta overflows the values the
    # epoch's last update writes, which no later step's loss would check
    log, model_cfg, splits = tiny_setup()
    evaluated = []

    def evaluate_fn(store, split):
        evaluated.append(split)
        return fake_report(0.0)

    train_cfg = TrainConfig(seed=6, lr=1e300, l2=1e300, batch_size=4096,
                            base_epochs=1, max_epochs=1)
    with pytest.raises(TrainingDivergedError, match="epoch 1, batch 1: the update left "
                                                    "non-finite values, first in item_embeddings"):
        fit(log, splits, model_cfg, train_cfg, EvalConfig(), evaluate_fn=evaluate_fn)
    assert evaluated == []


def test_divergence_raises_without_numpy_warnings():
    log, model_cfg, splits = tiny_setup()
    train_cfg = TrainConfig(seed=6, lr=1e300, batch_size=16, base_epochs=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError):
            fit(log, splits, model_cfg, train_cfg, EvalConfig(),
                evaluate_fn=lambda store, split: fake_report(0.0))


def test_train_epoch_leaves_no_tape_alive():
    # with the cyclic collector off, a tape whose records still held its
    # tensors would outlive the epoch
    log, model_cfg, splits = tiny_setup()
    store = ParameterStore(model_cfg, rng_streams.stream(7, "init"))
    state = AdamState(store)
    def tapes():
        return sum(isinstance(obj, ad.Tape) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = tapes()
        train_epoch(log, splits, store, state, TrainConfig(seed=7, batch_size=16), epoch=1)
        after = tapes()
    finally:
        gc.enable()
    assert after == before


def test_train_epoch_with_its_workspace_is_bit_equal_to_one_without(monkeypatch):
    # d = 32, batches of 64 and L = 5: a (d, L*B) array is 80 KiB, so the
    # gate and pooling arrays pass SPARE_MIN_BYTES and are reused; the short
    # last batch runs without the workspace
    log, model_cfg, splits = tiny_setup(num_users=80, num_items=60, latent_dim=32,
                                        num_layers=2, use_output_gate=True, aggregation="L+M")
    assert model_cfg.latent_dim * model_cfg.seq_len * 64 * 8 >= ad.SPARE_MIN_BYTES
    assert len(splits.train_users) % 64
    cfg = TrainConfig(seed=9, lr=0.01, batch_size=64)
    reused = []  # sizes of the arrays the workspace handed out
    real_take = ad.Workspace.take

    def take(workspace, shape):
        a = real_take(workspace, shape)
        if a is not None:
            reused.append(a.nbytes)
        return a

    monkeypatch.setattr(ad.Workspace, "take", take)
    results = []
    for use_workspace in (True, False):
        if not use_workspace:
            monkeypatch.setattr(training.ad, "Workspace", lambda: None)
        store = ParameterStore(model_cfg, rng_streams.stream(9, "init"))
        state = AdamState(store)
        losses = [train_epoch(log, splits, store, state, cfg, epoch=e)[0] for e in (1, 2)]
        results.append((losses, store.flat_values.copy()))
    assert max(reused) >= ad.SPARE_MIN_BYTES
    assert results[0][0] == results[1][0]
    assert results[0][1].tobytes() == results[1][1].tobytes()


class CountingWorkspace(ad.Workspace):
    """A workspace that counts, per step, the requests for arrays of
    SPARE_MIN_BYTES or more it served ([0]) and could not serve ([1])."""

    __slots__ = ("counts",)

    def __init__(self):
        super().__init__()
        self.counts = [[0, 0]]

    def take(self, shape):
        a = super().take(shape)
        if np.prod(shape) * 8 >= ad.SPARE_MIN_BYTES:
            self.counts[-1][a is None] += 1
        return a

    def end_step(self):
        super().end_step()
        self.counts.append([0, 0])


def test_a_training_step_takes_every_large_array_from_the_workspace_from_the_second_on(
        monkeypatch):
    # the default model (d = 128, scales 1-5, L = 5) at batches of 64: its
    # (d, L*B) arrays are 320 KiB. The first batch fills the workspace; from
    # the second on, a step misses only if an array it dropped was not given
    # back (`Workspace.give` misjudging who holds it, or a path that frees
    # it without giving it)
    log = chain_log(num_users=60, num_items=80, seq_len=8, seed=3)
    config = ModelConfig(num_items=log.item_count, num_users=log.user_count)
    splits = make_splits(log, config.seq_len)
    full = len(splits.train_users) // 64
    assert full >= 3
    made = []

    def workspace():
        made.append(CountingWorkspace())
        return made[-1]

    monkeypatch.setattr(training.ad, "Workspace", workspace)
    store = ParameterStore(config, rng_streams.stream(5, "init"))
    train_epoch(log, splits, store, AdamState(store), TrainConfig(seed=5, batch_size=64), 1)
    (workspace,) = made
    first, *rest = workspace.counts[:full]
    assert first[1] > 0
    assert all(hits > 0 and misses == 0 for hits, misses in rest), workspace.counts


def test_single_window_overfits_quickly():
    # one context/target pair repeated: loss collapses within a few hundred steps
    cfg = ModelConfig(num_items=20, num_users=2, latent_dim=8, seq_len=5, dropout=0.0)
    store = ParameterStore(cfg, rng_streams.stream(4, "init"))
    state = AdamState(store)
    contexts = np.array([[1, 2, 3, 4, 5]])
    users = np.array([1])
    candidates = np.array([[6, 11, 12, 13]])  # target 6 plus fixed negatives
    loss_value = None
    for _ in range(500):
        store.zero_grads()
        with ad.record():
            scores, _ = ad_forward(store, contexts, users, candidates)
            loss = bce_loss(ad.slice_cols(scores, 0, 1), ad.slice_cols(scores, 1, 4))
        ad.backward(loss)
        adam_step(store, state, lr=0.01, l2=0.0)
        loss_value = loss.item()
        if loss_value < 0.01:
            break
    assert loss_value < 0.01


# -- shards ------------------------------------------------------------------------


def sharded_setup(**model_overrides):
    """d = 64 at batches of 512: each half's (d, L*B) matrix has 81920 entries,
    past SHARD_MIN_ENTRIES, and so has each half of the short last batch of 448."""
    log, model_cfg, splits = tiny_setup(num_users=80, num_items=60, seq_len=15,
                                        latent_dim=64, **model_overrides)
    assert len(splits.train_users) == 960
    assert model_cfg.latent_dim * model_cfg.seq_len * 224 >= training.SHARD_MIN_ENTRIES
    return log, model_cfg, splits, TrainConfig(seed=21, lr=0.01, batch_size=512)


def usable_cpus(monkeypatch, count, blas_threads="1"):
    """Let the process use `count` CPUs, with BLAS held to `blas_threads` by
    the environment (None: not held)."""
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(count)))
    for variable in training.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OMP_NUM_THREADS", blas_threads)


def recording_forward(monkeypatch):
    """Wrap the training loop's `forward_batch`; each call appends its
    thread, (B, L) contexts, users, candidates, masks and the number of
    live threads."""
    calls = []
    real = training.forward_batch

    def forward(store, contexts, users, candidates, **kwargs):
        calls.append(SimpleNamespace(thread=threading.current_thread(), store=store,
                                     contexts=contexts, users=users, candidates=candidates,
                                     masks=kwargs.get("masks"), live=threading.active_count()))
        return real(store, contexts, users, candidates, **kwargs)

    monkeypatch.setattr(training, "forward_batch", forward)
    return calls


def shard_pairs(calls, store):
    """The recorded calls of each sharded step, the first shard's first:
    its shard runs on `store`, the second on a sibling."""
    assert len(calls) % 2 == 0
    return [sorted(calls[i:i + 2], key=lambda c: c.store is not store)
            for i in range(0, len(calls), 2)]


def test_shards_split_by_shape_alone():
    config = ModelConfig(num_items=5, num_users=2)  # d = 128, L = 5: 640 entries a sequence
    assert training._shards(config, 512) == [slice(0, 256), slice(256, 512)]
    assert training._shards(config, 207) == [slice(0, 103), slice(103, 207)]
    assert training._shards(config, 205) == [slice(0, 205)]  # 102 * 640 < 2**16 in a half
    assert training._shards(replace(config, latent_dim=32), 512) == [slice(0, 512)]


@pytest.mark.parametrize("cpus, blas_threads", [(2, "1"), (1, "1"), (2, None), (2, "2")])
def test_a_sharded_epoch_runs_the_second_shard_on_a_worker_thread_given_two_cpus_for_it(
        monkeypatch, cpus, blas_threads):
    # a BLAS not held to one thread uses the second CPU itself
    log, model_cfg, splits, cfg = sharded_setup()
    usable_cpus(monkeypatch, cpus, blas_threads)
    worker = cpus == 2 and blas_threads == "1"
    calls = recording_forward(monkeypatch)
    before = threading.active_count()
    store = ParameterStore(model_cfg, rng_streams.stream(21, "init"))
    train_epoch(log, splits, store, AdamState(store), cfg, epoch=1)
    pairs = shard_pairs(calls, store)
    assert [(len(a.users), len(b.users)) for a, b in pairs] == [(256, 256), (224, 224)]
    main = threading.main_thread()
    assert all(a.thread is main and (b.thread is not main) == worker for a, b in pairs)
    assert all(a.store is store and b.store is not store for a, b in pairs)
    assert threading.active_count() == before  # the worker is joined with the epoch


def test_a_seeded_sharded_run_is_bit_identical_on_one_cpu_and_on_two(monkeypatch):
    log, model_cfg, splits, cfg = sharded_setup(use_output_gate=True, aggregation="L+M")
    results = []
    for cpus in (2, 1):
        usable_cpus(monkeypatch, cpus)
        store = ParameterStore(model_cfg, rng_streams.stream(21, "init"))
        state = AdamState(store)
        losses = [train_epoch(log, splits, store, state, cfg, epoch=e)[0] for e in (1, 2)]
        results.append((losses, store.flat_values.tobytes(), state.m.tobytes(),
                        state.v.tobytes()))
    assert results[0] == results[1]


def test_a_sharded_step_matches_one_unsharded_pass_over_the_batch(monkeypatch):
    # the step's loss and merged gradients, taken where the loop checks them,
    # against one forward_batch over the whole batch with the same masks
    log, model_cfg, splits, cfg = sharded_setup(use_output_gate=True, num_layers=2)
    usable_cpus(monkeypatch, 2)
    calls = recording_forward(monkeypatch)
    checked = []
    real_check = training._check_finite

    def check(loss, store, epoch, batch):
        checked.append((loss, store.flat_grads.copy(), store.flat_values.copy()))
        real_check(loss, store, epoch, batch)

    monkeypatch.setattr(training, "_check_finite", check)
    store = ParameterStore(model_cfg, rng_streams.stream(21, "init"))
    train_epoch(log, splits, store, AdamState(store), cfg, epoch=1)
    pairs = shard_pairs(calls, store)
    assert len(pairs) == len(checked) == 2
    for halves, (loss, grads, values) in zip(pairs, checked):
        whole = ParameterStore(model_cfg)
        np.copyto(whole.flat_values, values)
        with ad.record():
            scores, _ = training.forward_batch(
                whole, *(np.concatenate([getattr(c, key) for c in halves])
                         for key in ("contexts", "users", "candidates")),
                mode="train",
                masks=tuple(np.concatenate(m, axis=-1) for m in zip(*(c.masks for c in halves))))
            whole_loss = bce_loss(ad.slice_cols(scores, 0, 1), ad.slice_cols(scores, 1, 4))
        ad.backward(whole_loss)
        assert loss == pytest.approx(whole_loss.item(), rel=1e-12, abs=0)
        sharded = ParameterStore(model_cfg)
        np.copyto(sharded.flat_grads, grads)
        for name, p in whole.named_parameters().items():
            got = sharded.named_parameters()[name].grad
            assert np.abs(got - p.grad).max() <= 1e-12 * np.abs(p.grad).max(), name


def test_shards_take_slices_of_the_batchs_single_draw_of_dropout_masks(monkeypatch):
    # the masks the encoder drew from the dropout stream for the whole batch:
    # the inputs' (L, d, B), then the combined vector's (d, B)
    log, model_cfg, splits, cfg = sharded_setup()
    calls = recording_forward(monkeypatch)
    store = ParameterStore(model_cfg, rng_streams.stream(21, "init"))
    train_epoch(log, splits, store, AdamState(store), cfg, epoch=3)
    stream = rng_streams.stream(cfg.seed, "dropout", 3)
    p, d, length = model_cfg.dropout, model_cfg.latent_dim, model_cfg.seq_len
    for first, second in shard_pairs(calls, store):
        batch = len(first.users) + len(second.users)
        expected = ((stream.random((length, d, batch)) >= p) / (1 - p),
                    (stream.random((d, batch)) >= p) / (1 - p))
        for drawn, got_first, got_second in zip(expected, first.masks, second.masks):
            assert np.array_equal(got_first, drawn[..., :len(first.users)])
            assert np.array_equal(got_second, drawn[..., len(first.users):])


def test_each_shard_takes_every_large_array_from_its_workspace_from_the_second_step_on(
        monkeypatch):
    # as for one shard, below: the default model at batches of 512 is
    # sharded, and the second shard's workspace serves its worker thread
    log = chain_log(num_users=100, num_items=80, seq_len=20, seed=3)
    config = ModelConfig(num_items=log.item_count, num_users=log.user_count)
    splits = make_splits(log, config.seq_len)
    assert len(splits.train_users) // 512 == 3
    made = []

    def workspace():
        made.append(CountingWorkspace())
        return made[-1]

    monkeypatch.setattr(training.ad, "Workspace", workspace)
    usable_cpus(monkeypatch, 2)
    calls = recording_forward(monkeypatch)
    store = ParameterStore(config, rng_streams.stream(5, "init"))
    train_epoch(log, splits, store, AdamState(store), TrainConfig(seed=5, batch_size=512), 1)
    assert any(c.thread is not threading.main_thread() for c in calls)
    assert len(made) == 2
    for workspace in made:
        first, *rest = workspace.counts[:3]
        assert first[1] > 0
        assert all(hits > 0 and misses == 0 for hits, misses in rest), workspace.counts


def test_an_unsharded_epoch_starts_no_thread(monkeypatch):
    # batches of 3, as in the criterion-1 and benchmark gradient checks, and
    # the toy sizes of the benchmark's smoke check (d = 16, batches of 64)
    usable_cpus(monkeypatch, 2)
    calls = recording_forward(monkeypatch)
    before = threading.active_count()
    for latent_dim, batch_size in ((4, 3), (16, 64)):
        log, model_cfg, splits = tiny_setup(num_users=40, latent_dim=latent_dim)
        store = ParameterStore(model_cfg, rng_streams.stream(3, "init"))
        train_epoch(log, splits, store, AdamState(store),
                    TrainConfig(seed=3, batch_size=batch_size), epoch=1)
    assert calls and all(c.live == before for c in calls)
    assert all(c.thread is threading.main_thread() for c in calls)


def test_a_process_forked_after_a_sharded_epoch_trains_sharded_epochs(monkeypatch):
    log, model_cfg, splits, cfg = sharded_setup()
    usable_cpus(monkeypatch, 2)

    def run_epochs():
        store = ParameterStore(model_cfg, rng_streams.stream(21, "init"))
        state = AdamState(store)
        for epoch in (1, 2):
            train_epoch(log, splits, store, state, cfg, epoch)
        return store.flat_values.tobytes()

    expected = run_epochs()
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=lambda: results.put(run_epochs()))
    child.start()
    try:
        got = results.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert got == expected
    assert child.exitcode == 0


def test_a_shards_numpy_warnings_are_silenced_on_its_own_thread(monkeypatch):
    # the error state the loop sets on its thread does not reach the worker:
    # the worker sets its own
    log, model_cfg, splits, cfg = sharded_setup()
    usable_cpus(monkeypatch, 2)
    calls = recording_forward(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError):
            fit(log, splits, model_cfg, replace(cfg, lr=1e300, base_epochs=3), EvalConfig(),
                evaluate_fn=lambda store, split: fake_report(0.0))
    assert any(c.thread is not threading.main_thread() for c in calls)


def test_run_shards_inline_keeps_every_shard_on_the_calling_thread(monkeypatch):
    log, model_cfg, splits, cfg = sharded_setup()
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(training, "_shards_inline", False)
    training.run_shards_inline()
    calls = recording_forward(monkeypatch)
    store = ParameterStore(model_cfg, rng_streams.stream(21, "init"))
    train_epoch(log, splits, store, AdamState(store), cfg, epoch=1)
    assert len(calls) == 4
    assert all(c.thread is threading.main_thread() for c in calls)


def ad_forward(store, contexts, users, candidates):
    from qrseq.model import forward_batch

    return forward_batch(store, contexts, users, candidates, mode="eval")


# -- fit ---------------------------------------------------------------------------


def fake_report(ndcg, recall=0.0, ap=0.0):
    return SimpleNamespace(map=ap, recall=recall, ndcg=ndcg)


def test_fit_with_zero_base_epochs_returns_initial_model():
    log, model_cfg, splits = tiny_setup()
    calls = []

    def scripted(store, split):
        calls.append(split)
        return fake_report(0.5)

    result = fit(log, splits, model_cfg, TrainConfig(seed=0, base_epochs=0),
                 EvalConfig(seed=0, num_negatives=10), evaluate_fn=scripted)
    assert result.epochs_run == 0 and result.best_epoch == 0
    assert calls == ["validation", "test"]
    fresh = ParameterStore(model_cfg, rng_streams.stream(0, "init"))
    assert np.array_equal(result.store.item_embeddings.value, fresh.item_embeddings.value)


def test_fit_stops_at_base_epochs_when_metrics_frozen():
    log, model_cfg, splits = tiny_setup()
    cfg = TrainConfig(seed=0, lr=0.0, base_epochs=4, patience=2, batch_size=64)
    result = fit(log, splits, model_cfg, cfg, EvalConfig(seed=0, num_negatives=10),
                 evaluate_fn=lambda store, split: fake_report(0.25))
    assert result.epochs_run == 4


def test_fit_returns_checkpoint_from_peak_validation_ndcg():
    log, model_cfg, splits = tiny_setup()
    ndcg_by_epoch = {1: 0.2, 2: 0.4, 3: 0.9, 4: 0.5, 5: 0.1}
    snapshots = {}
    counter = {"epoch": 0}

    def scripted(store, split):
        if split == "validation":
            counter["epoch"] += 1
        epoch = counter["epoch"]
        snapshots[(epoch, split)] = store.item_embeddings.value.copy()
        return fake_report(ndcg_by_epoch.get(epoch, 0.05))

    cfg = TrainConfig(seed=1, lr=0.005, base_epochs=5, patience=2, batch_size=64)
    result = fit(log, splits, model_cfg, cfg, EvalConfig(seed=0, num_negatives=10),
                 evaluate_fn=scripted)
    assert result.best_epoch == 3
    assert np.array_equal(result.store.item_embeddings.value, snapshots[(3, "validation")])
    assert result.val_report.ndcg == 0.9


def test_fit_evaluates_the_test_split_once_on_the_best_checkpoint():
    log, model_cfg, splits = tiny_setup()
    ndcg_by_epoch = {1: 0.3, 2: 0.7, 3: 0.6, 4: 0.5}
    calls, snapshots = [], {}

    def scripted(store, split):
        calls.append(split)
        epoch = calls.count("validation")
        snapshots[(epoch, split)] = store.flat_values.copy()
        return fake_report(ndcg_by_epoch.get(epoch, 0.0))

    cfg = TrainConfig(seed=4, lr=0.005, base_epochs=3, patience=2, batch_size=64)
    result = fit(log, splits, model_cfg, cfg, EvalConfig(seed=0, num_negatives=10),
                 evaluate_fn=scripted)
    assert result.best_epoch == 2 and result.epochs_run == 4
    assert calls == ["validation"] * 4 + ["test"]
    assert np.array_equal(snapshots[(4, "test")], snapshots[(2, "validation")])
    assert not np.array_equal(snapshots[(4, "test")], snapshots[(4, "validation")])


def test_fit_continues_past_base_epochs_while_improving():
    log, model_cfg, splits = tiny_setup()
    # ndcg keeps improving through epoch 6, then freezes
    series = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 0.5, 6: 0.6}
    counter = {"epoch": 0}

    def scripted(store, split):
        if split == "validation":
            counter["epoch"] += 1
        return fake_report(series.get(counter["epoch"], 0.6))

    cfg = TrainConfig(seed=2, lr=0.0, base_epochs=3, patience=2, batch_size=64)
    result = fit(log, splits, model_cfg, cfg, EvalConfig(seed=0, num_negatives=10),
                 evaluate_fn=scripted)
    assert result.epochs_run == 8  # improvements end at 6, patience 2 more
    assert result.best_epoch == 6


def test_fit_respects_hard_epoch_cap():
    log, model_cfg, splits = tiny_setup()
    counter = {"epoch": 0}

    def scripted(store, split):
        if split == "validation":
            counter["epoch"] += 1
        return fake_report(counter["epoch"] * 0.01)  # improves forever

    cfg = TrainConfig(seed=3, lr=0.0, base_epochs=2, patience=2, max_epochs=6, batch_size=64)
    result = fit(log, splits, model_cfg, cfg, EvalConfig(seed=0, num_negatives=10),
                 evaluate_fn=scripted)
    assert result.epochs_run == 6


def test_full_fit_run_is_deterministic():
    log, model_cfg, splits = tiny_setup(num_users=15, latent_dim=4)
    outputs = []
    for _ in range(2):
        cfg = TrainConfig(seed=11, lr=0.01, base_epochs=2, batch_size=32)
        result = fit(log, splits, model_cfg, cfg, EvalConfig(seed=11, num_negatives=10))
        history = [(r.epoch, r.mean_loss, r.val_map, r.val_recall, r.val_ndcg)
                   for r in result.history]
        outputs.append((history, result.store.head_weights.value.tobytes(),
                        result.test_report.to_json()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad", [
    dict(lr=-1.0),
    dict(batch_size=0),
    dict(negatives_per_target=0),
    dict(base_epochs=30, max_epochs=20),
    dict(batch_size=2.5),
    dict(lr=float("nan")),
    dict(l2=float("inf")),
    dict(seed=True),
], ids=["lr-negative", "batch-size-zero", "negatives-zero", "max-below-base",
        "batch-size-float", "lr-nan", "l2-inf", "seed-bool"])
def test_train_config_validation(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**{"seed": 0, **bad})
