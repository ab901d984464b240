"""Training loop: sampled binary cross-entropy, Adam, epoch control.

The objective sums -log(sigmoid(score)) over targets and
-log(1 - sigmoid(score)) over sampled negatives, computed through
softplus so large scores never overflow. L2 regularization is applied as
decoupled weight decay inside the optimizer step rather than as a loss
term, which keeps the differentiated objective equal to the pure
cross-entropy (the two formulations differ only through Adam's moment
coupling).

Adam's moments are flat arrays aligned with the parameter store's flat
values, so each whole-model pass of a step is one pass over flat arrays:
zeroing the gradients is one fill, the divergence check one `isfinite`
over the flat gradients, and the Adam update one in-place sweep in blocks
of ADAM_BLOCK elements, whose two buffers do not grow with the model.

A batch whose halves are each large enough (`_shards`) is trained as two
half-batch shards. Each shard runs its own forward pass, loss and
backward on its own thread's tape and workspace: the first on the calling
thread into the store's gradients, the second on a worker thread into a
sibling store's (`ParameterStore.grad_sibling`), which is then added into
the store's before the one divergence check and Adam step. NumPy and BLAS
release the GIL, so on two cores the shards run side by side. Which
batches are split depends on their shape alone, and a shard computes the
same bits on either thread, so seeded runs give the same result on any
CPU count. With one usable CPU, or a BLAS that the environment does not
hold to one thread (`_shard_thread_wanted`), the second shard runs after
the first on the calling thread. The worker thread is made at the start
of an epoch whose full batches split and is joined when the epoch ends,
so no thread outlives `train_epoch` for a later `fork` to leave behind.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import rng as rng_streams
from .autodiff import Tensor
from .data import InteractionLog, SplitDataset, sample_negatives
from .errors import ConfigError, SplitError, TrainingDivergedError, check_types
from .evaluation import EvalConfig, MetricsReport, evaluate
from .model import (DropoutMasks, ModelConfig, ModelScorer, ParameterStore, dropout_masks,
                    forward_batch)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    seed: int
    lr: float = 0.001
    batch_size: int = 512
    l2: float = 1e-6
    negatives_per_target: int = 3
    base_epochs: int = 20
    patience: int = 5
    max_epochs: int = 200

    def __post_init__(self):
        check_types(self)
        if self.lr < 0:
            raise ConfigError(f"lr must be nonnegative, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be nonnegative, got {self.l2}")
        if self.negatives_per_target < 1:
            raise ConfigError(
                f"negatives_per_target must be >= 1, got {self.negatives_per_target}"
            )
        if self.base_epochs < 0:
            raise ConfigError(f"base_epochs must be >= 0, got {self.base_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < self.base_epochs:
            raise ConfigError("max_epochs must be >= base_epochs")


# Adam runs over the flat arrays in blocks of this many elements, into two
# block buffers (512 KB each) that stay this size however large the model
# is. The criterion-7 shape (388k parameters at d = 128) takes 6 blocks a step.
ADAM_BLOCK = 1 << 16


class AdamState:
    """Flat first/second moment buffers, one element per element of the
    store's `flat_values`, the step count, and the update's two block
    buffers."""

    def __init__(self, store: ParameterStore):
        self.step_count = 0
        self.m = np.zeros(store.flat_values.size)
        self.v = np.zeros(store.flat_values.size)
        block = min(ADAM_BLOCK, store.flat_values.size)
        self.buffers = (np.empty(block), np.empty(block))


def bce_loss(target_scores: Tensor, negative_scores: Tensor | None = None) -> Tensor:
    """Summed binary cross-entropy over target and negative scores.

    -log(sigmoid(y)) == softplus(-y) and -log(1 - sigmoid(y)) == softplus(y),
    so the result stays finite for any finite score.
    """
    if target_scores.value.size == 0:
        raise ValueError("bce_loss needs at least one target score")
    loss = ad.sum_all(ad.softplus(ad.neg(target_scores)))
    if negative_scores is not None and negative_scores.value.size:
        loss = ad.add(loss, ad.sum_all(ad.softplus(negative_scores)))
    return loss


def adam_step(store: ParameterStore, state: AdamState, lr: float, l2: float = 0.0) -> None:
    """One bias-corrected Adam update with decoupled weight decay lr*l2*theta.

    The padding rows (id 0) never receive updates. The update runs over the
    store's flat arrays, ADAM_BLOCK elements at a time, in place and in
    `state`'s two block buffers; each element gets the arithmetic of

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        theta -= lr * ((m/c1) / (sqrt(v/c2) + eps) + l2*theta)

    in this order, as a pass per tensor would (x*c == c*x and x+y == y+x to
    the bit, so the order of each product's or sum's operands is free).
    """
    store.clear_padding_grads()
    state.step_count += 1
    t = state.step_count
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    values, grads = store.flat_values, store.flat_grads
    for lo in range(0, values.size, ADAM_BLOCK):
        hi = lo + ADAM_BLOCK
        theta, g, m, v = values[lo:hi], grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        update, denom = (buf[:theta.size] for buf in state.buffers)
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=update)
        m += update
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=update)
        update *= g
        v += update
        np.divide(v, correct2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, correct1, out=update)
        update /= denom
        if l2:
            np.multiply(theta, l2, out=denom)
            update += denom
        update *= lr
        theta -= update


def _check_finite(loss: float, store: ParameterStore, epoch: int, batch: int) -> None:
    """Raise TrainingDivergedError unless the loss and every gradient are finite."""
    bad = store.first_non_finite(grads=True)
    if np.isfinite(loss) and bad is None:
        return
    raise TrainingDivergedError(
        f"training diverged at epoch {epoch}, batch {batch}: loss {loss!r}, "
        f"first non-finite gradient: {bad or 'none'}"
    )


# A batch is trained as two shards when each half's (d, L*B) sequence
# matrix has at least this many entries. With the shards on two threads, an
# epoch at L = 5 ran, against the unsharded epoch, 1.72x as fast at d = 128
# and B = 512 (halves of 164k entries), 1.55x at d = 64 (82k) and 1.29x at
# d = 32 (41k); at 20k entries 0.95-1.09x, at 10k 0.63-0.66x and at d = 16,
# B = 64 (2.6k) 0.48x, as each shard's fixed cost per op outweighs the
# overlap. Run one after the other on one thread, shards of 41k entries cost
# 5% over the unsharded epoch and of 164k none (float64, OpenBLAS on one
# thread, 2-core x86-64 VM).
SHARD_MIN_ENTRIES = 1 << 16

_shards_inline = False


def run_shards_inline() -> None:
    """Run every second shard on the calling thread from now on: for a
    process whose sibling processes use the machine's other cores."""
    global _shards_inline
    _shards_inline = True


# Where OpenBLAS reads its thread count from, the first one set.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _shard_thread_wanted() -> bool:
    """Whether a second shard should run on a thread of its own: when this
    process may use two CPUs and the environment holds BLAS to one thread,
    unless `run_shards_inline` was called.

    A BLAS that runs threads of its own already keeps the cores busy, and a
    second thread calling it only contends with them: on two cores with
    OpenBLAS at its default of two threads, a train-chain-d128 epoch took
    5.3-5.5 s with the worker thread and 3.8-4.4 s without it (3.8-4.0 s
    unsharded).
    """
    if _shards_inline:
        return False
    blas = next((os.environ[v] for v in BLAS_THREAD_VARIABLES if os.environ.get(v)), "")
    if blas.strip() != "1":
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _shards(config: ModelConfig, batch: int) -> list[slice]:
    """The batch's shards: two halves when each half's sequence matrix has
    SHARD_MIN_ENTRIES entries or more, else the whole batch."""
    half = batch // 2
    if config.latent_dim * config.seq_len * half < SHARD_MIN_ENTRIES:
        return [slice(0, batch)]
    return [slice(0, half), slice(half, batch)]


def _shard_loss(store: ParameterStore, contexts: np.ndarray, users: np.ndarray,
                candidates: np.ndarray, masks: DropoutMasks | None,
                workspace: ad.Workspace | None) -> float:
    """One shard's loss, after its backward has accumulated its gradients
    into `store`'s; on this thread's tape. NumPy's error state is per
    thread, so each shard silences overflow and NaN warnings itself: they
    are caught by _check_finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        with ad.record(workspace):
            scores = forward_batch(
                store, contexts, users, candidates, mode="train", masks=masks
            )[0]  # the sequence vector, held on, would keep its array from the workspace
            loss = bce_loss(
                ad.slice_cols(scores, 0, 1), ad.slice_cols(scores, 1, candidates.shape[1])
            )
        ad.backward(loss)
    return loss.item()


def train_epoch(log: InteractionLog, splits: SplitDataset, store: ParameterStore,
                state: AdamState, config: TrainConfig, epoch: int) -> tuple[float, int]:
    """One pass over shuffled training windows; returns (mean loss, examples).

    Raises TrainingDivergedError, before the optimizer step, on the first
    batch whose loss or gradients are not finite, and after the epoch's
    last step if it left a parameter value non-finite (each earlier step's
    values are checked through the next step's loss); NumPy's overflow and
    invalid-value warnings are silenced for the step. Raises SplitError,
    before any step, when the split has no training window.
    """
    n = len(splits.train_targets)
    if n == 0:
        raise SplitError("training split is empty: no user has the 4 interactions a training "
                         "window needs (the first is context only, the last two are held out)")
    shuffle_rng = rng_streams.stream(config.seed, "shuffle", epoch)
    negatives_rng = rng_streams.stream(config.seed, "negatives", epoch)
    dropout_rng = rng_streams.stream(config.seed, "dropout", epoch)
    order = shuffle_rng.permutation(n)
    k = config.negatives_per_target

    total_loss = 0.0
    # Which batches split depends on their shape alone, and no batch is
    # larger than the first: its shards plan the epoch's sibling stores,
    # workspaces and worker. The steps reuse one another's arrays, each
    # shard the same shard's, and the worker is joined when the epoch ends.
    planned = _shards(store.config, min(config.batch_size, n))
    stores = [store] + [store.grad_sibling() for _ in planned[1:]]
    workspaces = [ad.Workspace() for _ in planned]
    threaded = len(planned) > 1 and _shard_thread_wanted()
    with (ThreadPoolExecutor(max_workers=1, thread_name_prefix="qrseq-shard") if threaded
          else nullcontext()) as worker:
        for step, lo in enumerate(range(0, n, config.batch_size), start=1):
            batch = order[lo:lo + config.batch_size]
            if len(batch) < config.batch_size:
                # a short last batch has other shapes: free the arrays
                workspaces = [None] * len(planned)
            users = splits.train_users[batch]
            contexts = splits.train_contexts[batch]
            targets = splits.train_targets[batch]
            negatives = np.stack(
                [sample_negatives(log, int(u), k, negatives_rng) for u in users]
            )
            candidates = np.concatenate([targets[:, None], negatives], axis=1)
            # drawn for the whole batch, so the stream does not depend on the shards
            masks = dropout_masks(store.config, len(batch), dropout_rng)
            jobs = [(s, contexts[sl], users[sl], candidates[sl],
                     None if masks is None else tuple(m[..., sl] for m in masks), ws)
                    for s, sl, ws in zip(stores, _shards(store.config, len(batch)), workspaces)]

            for shard_store in stores[:len(jobs)]:
                shard_store.zero_grads()
            # the shards after the first run on the worker if there is one,
            # else after the first on this thread
            on_worker = [worker.submit(_shard_loss, *job) for job in jobs[1:]] if worker else []
            losses = [_shard_loss(*job) for job in jobs[:len(jobs) - len(on_worker)]]
            losses += [future.result() for future in on_worker]
            for sibling in stores[1:len(jobs)]:  # one this batch did not use holds stale grads
                store.flat_grads += sibling.flat_grads
            batch_loss = sum(losses)
            # Overflow and NaN are caught by _check_finite, not reported by NumPy.
            with np.errstate(over="ignore", invalid="ignore"):
                _check_finite(batch_loss, store, epoch, step)
                adam_step(store, state, config.lr, config.l2)
            total_loss += batch_loss

    bad = store.first_non_finite()
    if bad is not None:
        raise TrainingDivergedError(
            f"training diverged at epoch {epoch}, batch {step}: the update left "
            f"non-finite values, first in {bad}"
        )

    return total_loss / n, n


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    val_map: float
    val_recall: float
    val_ndcg: float


@dataclass
class FitResult:
    store: ParameterStore
    best_epoch: int
    epochs_run: int
    val_report: MetricsReport
    test_report: MetricsReport
    history: list[EpochRecord] = field(default_factory=list)


def fit(log: InteractionLog, splits: SplitDataset, model_config: ModelConfig,
        train_config: TrainConfig, eval_config: EvalConfig,
        evaluate_fn=None, progress=None) -> FitResult:
    """Train with per-epoch validation and return the best-validation checkpoint.

    Runs base_epochs epochs, then keeps going while any validation metric
    improved within the last `patience` epochs (hard cap at max_epochs).
    The returned checkpoint is the epoch with the best validation ndcg@k;
    the test split is evaluated once, on that checkpoint. With
    base_epochs = 0 no epoch runs and the checkpoint is the initial model.

    `evaluate_fn(store, split)` may be injected for tests; the default runs
    the sampled-ranking evaluation on this run's data. A diverged step
    raises TrainingDivergedError out of `fit`, so no result includes it.
    """
    if evaluate_fn is None:
        def evaluate_fn(store, split):
            return evaluate(ModelScorer(store), split, log, splits, eval_config)

    store = ParameterStore(model_config, rng=rng_streams.stream(train_config.seed, "init"))
    state = AdamState(store)

    history: list[EpochRecord] = []
    best = None  # (epoch, store copy, validation report) of the best validation ndcg
    metric_bests = {"map": -np.inf, "recall": -np.inf, "ndcg": -np.inf}
    epoch = last_improvement = 0
    while epoch < train_config.base_epochs or (
            0 < epoch < train_config.max_epochs
            and epoch - last_improvement < train_config.patience):
        epoch += 1
        mean_loss, _ = train_epoch(log, splits, store, state, train_config, epoch)
        val = evaluate_fn(store, "validation")

        values = {"map": val.map, "recall": val.recall, "ndcg": val.ndcg}
        improved = {key for key, value in values.items() if value > metric_bests[key]}
        if improved:
            last_improvement = epoch
            metric_bests.update((key, values[key]) for key in improved)
        if "ndcg" in improved:
            best = (epoch, store.copy(), val)

        record = EpochRecord(epoch, mean_loss, val.map, val.recall, val.ndcg)
        history.append(record)
        if progress is not None:
            progress(record)

    if best is None:  # base_epochs = 0: no epoch ran
        best = (0, store, evaluate_fn(store, "validation"))
    best_epoch, best_store, best_val = best
    test = evaluate_fn(best_store, "test")
    return FitResult(best_store, best_epoch, epoch, best_val, test, history)
