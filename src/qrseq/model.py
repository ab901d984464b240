"""Multi-scale quasi-recurrent sequence model.

One gated component runs per configured filter width: a causal masked
convolution over the embedded item columns produces per-timestep forget
gates, which drive an input-dependent exponential moving average of the
inputs (optionally multiplied by a second output gate). Per-scale hidden
sequences are reduced over time (sum / mean / last), combined across
scales (sum / mean), joined with the user profile vector, and scored
against candidate items by a per-item linear head.

The network runs on whole sequences at once, as in QRNN fo-pooling: a
batch of B sequences of length L is one (d, L*B) matrix whose column
t*B + b holds timestep t of sequence b. A gate's causal convolution is
one GEMM per tap over every timestep it reaches (tap k reads the columns
before the last k*B), summed at column offset k*B by `ad.shifted_sum`;
only the pooling recurrence runs step by step, inside `ad.gated_scan`.
So a training step records one tape entry per stage, not one per
timestep. The encoder (`_encode`) returns the (d, B) sequence vector and
nothing else: its gate and hidden sequences are kept only by a tape that
records them, until `backward`.

Parameters are laid out for whole-model passes: a `ParameterStore` keeps
every value in one flat float64 array and every gradient in another, and
each parameter tensor's value and gradient are reshaped views into them.
A gate's parameter names are built in one place, `_gate_names`, which the
layout and `ParameterStore.gate` both read.

Every forward pass scores its candidates by gathering their head rows
(`predict_scores`), on the tape or off it. Only evaluation (`ModelScorer`)
scores a catalogue small enough for the candidate count with one GEMM
over every item instead.

The thread policy lives here too: whether a unit of work, half a training
batch (`qrseq.training`) or one evaluation chunk (`ModelScorer`), runs on
a second thread (`_fills_a_thread`, `_second_thread_wanted`,
`_second_thread`, `run_shards_inline`).
"""
from __future__ import annotations

import contextvars
import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import atomic
from . import autodiff as ad
from .autodiff import Tensor
from .errors import CompatibilityError, ConfigError, check_types

AGGREGATIONS = ("S+S", "L+S", "L+M", "S+M", "M+M")

CHECKPOINT_VERSION = 2

INIT_STD = 0.01

SCORE_CHUNK = 128  # users per eval-mode forward in ModelScorer

# ModelScorer scores every item with one GEMM while the catalogue
# (num_items + 1 rows) has at most this many rows per candidate, and gathers
# the candidates' rows beyond. The GEMM does num_items + 1 dot products per
# user at BLAS speed; the gather copies C rows per user into a (B, C, 2d)
# block and is bound by memory. Per 128-user chunk at d = 128 and C = 101
# (float64, one OpenBLAS thread, 2-core VM) they took 0.5 against 13 ms at
# 200 items, 9.9 against 15.4 ms at 5k and 39 against 16 ms at 20k. At
# C = 21 and 41 the GEMM still won at 48 rows per candidate and lost at 95;
# at C = 101 the two tied at 74.
HEAD_GEMM_ROWS_PER_CANDIDATE = 50

# The elements of a flat array that `ParameterStore.first_non_finite` tests
# at a time, so its one-byte-per-value mask stays at 64 KiB.
FINITE_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# the thread policy: when a unit of work gets a second thread
#
# Training splits a large batch into two half-batch shards, and evaluation
# scores a split in SCORE_CHUNK-user chunks. Both may run every second unit
# on one worker thread, made and joined inside the call that needs it.
# NumPy and BLAS release the GIL, so on two cores the units run side by side,
# and a unit computes the same bits on either thread.

# A unit -- half a training batch or one evaluation chunk -- goes to a second
# thread only when its (d, L*B) sequence matrix has at least this many
# entries. With training shards on two threads, an epoch at L = 5 ran, against
# the unsharded epoch, 1.72x as fast at d = 128 and B = 512 (halves of 164k
# entries), 1.55x at d = 64 (82k) and 1.29x at d = 32 (41k); at 20k entries
# 0.95-1.09x, at 10k 0.63-0.66x and at d = 16, B = 64 (2.6k) 0.48x, as each
# shard's fixed cost per op outweighs the overlap. Run one after the other on
# one thread, shards of 41k entries cost 5% over the unsharded epoch and of
# 164k none. Scoring a 500-user split in 4 chunks on two threads ran 1.49x as
# fast at d = 128 (82k entries per chunk), 1.26x at d = 64 (41k), 0.84x at
# d = 32 and 0.78x at d = 16 (float64, OpenBLAS on one thread, 2-core x86-64 VM).
SHARD_MIN_ENTRIES = 1 << 16

_shards_inline = False


def run_shards_inline() -> None:
    """Run every unit of work on the calling thread from now on, training
    shards and evaluation chunks alike: for a process whose sibling
    processes use the machine's other cores."""
    global _shards_inline
    _shards_inline = True


# Where OpenBLAS reads its thread count from, the first one set.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fills_a_thread(config: ModelConfig, rows: int) -> bool:
    """Whether a unit of work over `rows` sequences is large enough for a
    thread of its own: its (d, L*rows) matrix has SHARD_MIN_ENTRIES entries."""
    return config.latent_dim * config.seq_len * rows >= SHARD_MIN_ENTRIES


def _second_thread_wanted() -> bool:
    """Whether large units of work should use a second thread: when this
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


def _second_thread(units_fill_threads: bool, name: str):
    """The worker for every second unit of one call: a one-thread pool,
    joined when the `with` block exits, when the call has two units or more
    that each fill a thread and `_second_thread_wanted`; else a null context,
    whose target is None."""
    if units_fill_threads and _second_thread_wanted():
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)
    return nullcontext()


@dataclass
class ModelConfig:
    """Architecture hyperparameters plus the dataset's entity counts."""

    num_items: int
    num_users: int
    latent_dim: int = 128
    seq_len: int = 5
    scales: tuple[int, ...] | None = None  # None means every width 1..seq_len
    num_layers: int = 1
    use_output_gate: bool = False
    use_user_profile: bool = True
    aggregation: str = "S+S"
    dropout: float = 0.5

    def __post_init__(self):
        check_types(self)
        if self.scales is None:
            self.scales = tuple(range(1, self.seq_len + 1))
        else:
            self.scales = tuple(sorted(set(self.scales)))
        if self.num_items < 1:
            raise ConfigError(f"num_items must be positive, got {self.num_items}")
        if self.num_users < 1:
            raise ConfigError(f"num_users must be positive, got {self.num_users}")
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be positive, got {self.latent_dim}")
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be positive, got {self.seq_len}")
        # An empty scale set is the degenerate profile-only configuration
        # used by the user-profile ablation: the encoder is skipped and the
        # head sees concat(0, profile).
        for w in self.scales:
            if not 1 <= w <= self.seq_len:
                raise ConfigError(f"scales entries must lie in 1..seq_len={self.seq_len}, got {w}")
        if not 1 <= self.num_layers <= 4:
            raise ConfigError(f"num_layers must be in 1..4, got {self.num_layers}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"aggregation must be one of {', '.join(AGGREGATIONS)}, got {self.aggregation!r}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not self.scales and not self.use_user_profile:
            raise ConfigError("empty scales require use_user_profile=true")


def _gate_names(kind: str, width: int, layer: int) -> tuple[list[str], str]:
    """The parameter names of one gate ("forget" or "output") of a scale
    and layer: its filters, tap 0 first, and its bias."""
    return ([f"{kind}_w{width}_l{layer}_k{i}" for i in range(width)],
            f"{kind}_bias_w{width}_l{layer}")


def _layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int, bool]]:
    """(name, shape, size, drawn) of every parameter, in storage order;
    `drawn` tensors start from the initial normal draw, the rest at zero."""
    d = config.latent_dim
    items = config.num_items + 1
    entries = [("item_embeddings", (items, d), items * d, True)]
    if config.use_user_profile:
        users = config.num_users + 1
        entries.append(("user_embeddings", (users, d), users * d, True))
    gates = ("forget", "output") if config.use_output_gate else ("forget",)
    for w in config.scales:
        for layer in range(config.num_layers):
            for gate in gates:
                filters, bias = _gate_names(gate, w, layer)
                entries += [(name, (d, d), d * d, True) for name in filters]
                entries.append((bias, (d, 1), d, False))
    entries.append(("head_weights", (items, 2 * d), items * 2 * d, True))
    entries.append(("head_bias", (items,), items, False))
    return entries


class ParameterStore:
    """Every trainable tensor for one model configuration.

    The values live in one flat float64 array, `flat_values`, and the
    gradients in one of the same size, `flat_grads`. Each parameter's
    `value` and `grad` are C-contiguous reshaped views into them, laid end
    to end in `named_parameters()` order, so whole-model passes (the Adam
    step, zeroing the gradients, the divergence check, copying) run once
    over the flat arrays instead of once per tensor.

    Row 0 of the item embedding table is the padding item: it stays
    all-zero and is excluded from optimizer updates. User ids are 1-based
    like item ids, so the profile table also carries an unused row 0.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 init_std: float = INIT_STD):
        layout = _layout(config)
        total = sum(size for _, _, size, _ in layout)
        self._bind(config, np.zeros(total))
        runs: list[list[int]] = []  # [lo, hi) spans of consecutive drawn tensors
        lo = 0
        for _, _, size, drawn in layout:
            hi = lo + size
            if drawn:
                if runs and runs[-1][1] == lo:
                    runs[-1][1] = hi
                else:
                    runs.append([lo, hi])
            lo = hi
        if rng is not None:
            # Drawn in place, in order. One draw over consecutive tensors
            # yields the numbers of one draw per tensor, and rng.normal(0, s)
            # is 0 + s*z, the bits of s*z (bar a z of -0.0, p ~ 2**-53).
            for start, stop in runs:
                rng.standard_normal(out=self.flat_values[start:stop])
            self.flat_values *= init_std
        self.item_embeddings.value[0] = 0.0
        self.head_weights.value[0] = 0.0
        if config.use_user_profile:
            self.user_embeddings.value[0] = 0.0

    @classmethod
    def over(cls, config: ModelConfig, flat_values: np.ndarray) -> "ParameterStore":
        """A store whose values are `flat_values` itself, not a copy (every
        parameter in `_layout(config)` order), with its own zero gradients."""
        store = cls.__new__(cls)
        store._bind(config, flat_values)
        return store

    def _bind(self, config: ModelConfig, flat_values: np.ndarray) -> None:
        """Take `flat_values` as the values and a new zero array as the
        gradients, and make every parameter's views into them."""
        self.config = config
        self.flat_values = flat_values
        self.flat_grads = np.zeros(flat_values.size)  # calloc: no page resident until written
        self._params: dict[str, Tensor] = {}
        lo = 0
        for name, shape, size, _ in _layout(config):
            hi = lo + size
            self._params[name] = ad.parameter(self.flat_values[lo:hi].reshape(shape),
                                              self.flat_grads[lo:hi].reshape(shape))
            lo = hi

    # -- access ------------------------------------------------------------

    @property
    def item_embeddings(self) -> Tensor:
        return self._params["item_embeddings"]

    @property
    def user_embeddings(self) -> Tensor | None:
        return self._params.get("user_embeddings")

    @property
    def head_weights(self) -> Tensor:
        return self._params["head_weights"]

    @property
    def head_bias(self) -> Tensor:
        return self._params["head_bias"]

    def gate(self, kind: str, scale: int, layer: int) -> tuple[list[Tensor], Tensor]:
        """(filters, bias) of a "forget" or "output" gate."""
        filters, bias = _gate_names(kind, scale, layer)
        return [self._params[name] for name in filters], self._params[bias]

    def named_parameters(self) -> dict[str, Tensor]:
        return self._params

    # -- bookkeeping ---------------------------------------------------------

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

    def clear_padding_grads(self) -> None:
        """Drop gradient flow into the reserved id-0 rows."""
        self.item_embeddings.grad[0] = 0.0
        self.head_weights.grad[0] = 0.0
        self.head_bias.grad[0] = 0.0
        if self.user_embeddings is not None:
            self.user_embeddings.grad[0] = 0.0

    def first_non_finite(self, grads: bool = False) -> str | None:
        """The first parameter whose value (or gradient) has a non-finite
        entry, None if none has: one pass over the flat array in blocks of
        FINITE_BLOCK, and a walk over the tensors only when that pass fails."""
        flat = self.flat_grads if grads else self.flat_values
        if all(np.isfinite(flat[lo:lo + FINITE_BLOCK]).all()
               for lo in range(0, flat.size, FINITE_BLOCK)):
            return None
        return next(name for name, p in self._params.items()
                    if not np.isfinite(p.grad if grads else p.value).all())

    def copy(self) -> "ParameterStore":
        """A store with its own arrays holding these values; zero gradients."""
        return ParameterStore.over(self.config, self.flat_values.copy())


# ---------------------------------------------------------------------------
# building blocks


def _embed(store: ParameterStore, item_ids: np.ndarray) -> Tensor:
    """Embed a (B, L) id batch into one (d, L*B) time-major matrix."""
    return ad.transpose(ad.take_rows(store.item_embeddings, item_ids.T.ravel()))


def _shifted_inputs(x: Tensor, batch: int, width: int) -> list[Tensor]:
    """x and its prefixes without the last k timesteps, k = 1..width-1:
    entry k holds the inputs a tap k steps back reads."""
    n = x.shape[1]
    return [x] + [ad.slice_cols(x, 0, n - k * batch) for k in range(1, width)]


def _conv_gate(shifted: Sequence[Tensor], filters: Sequence[Tensor], bias: Tensor,
               batch: int) -> Tensor:
    """Causal width-w convolution + sigmoid; positions before the sequence
    start contribute nothing (zero left padding). Filter i is the tap
    w-1-i steps back; the taps are summed oldest first.

    The tap sum, the bias and the sigmoid each write in place into the
    array before them, so the gate keeps one (d, L*B) array for all its
    records. That is safe because each of those arrays is an output of the
    step before, read by the next step alone, and no backward step here
    reads it: `matmul`'s backward reads its inputs, not its output;
    `shifted_sum`'s and `add_col`'s read only the upstream adjoint, and
    `sigmoid`'s reads its own output.
    """
    width = len(filters)
    shifts = range(min(width, len(shifted)) - 1, -1, -1)
    terms = [ad.matmul(filters[width - 1 - k], shifted[k]) for k in shifts]
    pre = terms[0] if len(terms) == 1 else ad.shifted_sum(terms, [k * batch for k in shifts],
                                                          inplace=True)
    return ad.sigmoid(ad.add_col(pre, bias, inplace=True), inplace=True)


def _pool(x: Tensor, forget: Tensor, output: Tensor | None, batch: int) -> Tensor:
    """fo-pooling: c_t = f_t*c_{t-1} + (1-f_t)*x_t with c_0 = 0; the hidden
    state is h_t = o_t*c_t with output gates, else c_t itself.

    The scan writes its cells in place into the (1-f_t)*x_t array, which
    is the `mul`'s output and read by nothing else: `mul`'s backward reads
    its inputs, and `gated_scan`'s reads f and its own cells.
    """
    cell = ad.gated_scan(forget, ad.mul(ad.one_minus(forget), x), batch, inplace=True)
    return cell if output is None else ad.mul(output, cell)


def _reduce_time(hidden: Tensor, code: str, batch: int) -> Tensor:
    """Reduce a (d, L*B) hidden sequence over time to (d, B)."""
    n = hidden.shape[1]
    if code == "L":  # last hidden state
        return ad.slice_cols(hidden, n - batch, n)
    total = ad.sum_col_blocks(hidden, batch)
    return total if code == "S" else ad.scale(total, 1.0 / (n // batch))


def _aggregate(hidden: Sequence[Tensor], strategy: str, batch: int) -> Tensor:
    """Reduce each (d, L*B) scale over time, then across scales (sum / mean)."""
    inner, outer = strategy.split("+")
    per_scale = [_reduce_time(h, inner, batch) for h in hidden]
    total = per_scale[0]
    for t in per_scale[1:]:
        total = ad.add(total, t)
    if outer == "M":
        total = ad.scale(total, 1.0 / len(per_scale))
    return total


def _head_ids(store: ParameterStore, user_ids, candidate_ids
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Checked (B, C) candidate ids and (B,) user ids, as intp arrays; the
    user ids are None (and unchecked) when the model has no user profile."""
    cands = np.asarray(candidate_ids, dtype=np.intp)
    if cands.ndim != 2 or cands.size == 0:
        raise ValueError(f"candidate_ids must be a nonempty (B, C) array, got shape {cands.shape}")
    bad = cands[(cands < 1) | (cands > store.config.num_items)]
    if bad.size:
        shown = sorted(set(int(i) for i in bad.ravel()[:8]))
        raise IndexError(f"unknown candidate ids: {shown}")
    users = None
    if store.user_embeddings is not None:
        users = np.asarray(user_ids, dtype=np.intp)
        if np.any((users < 1) | (users > store.config.num_users)):
            raise IndexError(f"user id out of range 1..{store.config.num_users}")
    return cands, users


def predict_scores(o: Tensor, user_ids, store: ParameterStore, candidate_ids) -> Tensor:
    """Score candidates against concat(sequence vector, user profile).

    `o` is (d, B); `candidate_ids` is (B, C). Returns a (B, C) tensor made
    by `rows_dot_cols` + `gather`, the same ops whether or not a tape
    records. With the user profile disabled, the profile half of the input
    is zero.
    """
    cands, users = _head_ids(store, user_ids, candidate_ids)
    if users is not None:
        profile = ad.transpose(ad.take_rows(store.user_embeddings, users))
    else:
        profile = ad.constant(np.zeros_like(o.value))
    z = ad.concat_rows(o, profile)
    return ad.add(ad.rows_dot_cols(store.head_weights, cands, z),
                  ad.gather(store.head_bias, cands))


# ---------------------------------------------------------------------------
# full forward pass


def _dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(shape) >= p) / (1.0 - p)


DropoutMasks = tuple[np.ndarray, np.ndarray]


def _applies_dropout(config: ModelConfig) -> bool:
    """Whether a training forward pass applies dropout: a profile-only
    model has no encoder to apply it to."""
    return config.dropout > 0.0 and bool(config.scales)


def dropout_masks(config: ModelConfig, batch: int, rng: np.random.Generator
                  ) -> DropoutMasks | None:
    """The inverted-dropout masks of a training batch of `batch` sequences,
    drawn from `rng` in the order the encoder applies them: the embedded
    inputs' (L, d, B), one draw per timestep, then the combined vector's
    (d, B). None, drawing nothing, when the model has no dropout or no
    encoder. The last axis of each is the sequence, so the masks of the
    batch's sequences lo:hi are `mask[..., lo:hi]`."""
    if not _applies_dropout(config):
        return None
    d, p = config.latent_dim, config.dropout
    return (_dropout_mask((config.seq_len, d, batch), p, rng), _dropout_mask((d, batch), p, rng))


def _encode(store: ParameterStore, item_ids, masks: DropoutMasks | None = None) -> Tensor:
    """The (d, B) sequence vector of a (B, L) id batch (0 = padding). With
    `masks` (`dropout_masks`), inverted dropout is applied to the embedded
    inputs and to the combined vector."""
    config = store.config
    ids = np.asarray(item_ids, dtype=np.intp)
    if ids.ndim != 2 or ids.shape[1] != config.seq_len:
        raise ValueError(f"item_ids must be (B, {config.seq_len}), got shape {ids.shape}")
    if not config.scales:
        return ad.constant(np.zeros((config.latent_dim, ids.shape[0])))
    batch, steps = ids.shape
    x = _embed(store, ids)
    if masks is not None:
        # laid out time-major like x
        x = ad.mul(x, ad.constant(masks[0].transpose(1, 0, 2).reshape(config.latent_dim, -1)))

    # every scale's first layer reads x: share its shifted prefixes
    x_shifted = _shifted_inputs(x, batch, min(max(config.scales), steps))
    hidden_seqs: list[Tensor] = []
    for w in config.scales:
        shifted = x_shifted
        for layer in range(config.num_layers):
            if layer:
                shifted = _shifted_inputs(hidden, batch, min(w, steps))
            forget = _conv_gate(shifted, *store.gate("forget", w, layer), batch)
            output = None
            if config.use_output_gate:
                output = _conv_gate(shifted, *store.gate("output", w, layer), batch)
            hidden = _pool(shifted[0], forget, output, batch)
        hidden_seqs.append(hidden)

    combined = _aggregate(hidden_seqs, config.aggregation, batch)
    if masks is not None:
        combined = ad.mul(combined, ad.constant(masks[1]))
    return combined


def forward_batch(store: ParameterStore, item_ids, user_ids, candidate_ids,
                  mode: str = "eval", masks: DropoutMasks | None = None) -> tuple[Tensor, Tensor]:
    """Run the network over a batch: `_encode`, then `predict_scores`.

    item_ids: (B, L) int, 0 = padding; user_ids: (B,); candidate_ids: (B, C).
    Returns the (B, C) scores and the (d, B) sequence vector they score.
    In "train" mode inverted dropout is applied to the embedded inputs and
    to the combined sequence vector with `masks` (see `dropout_masks`),
    which a model with dropout requires.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    if train and _applies_dropout(store.config) and masks is None:
        raise ValueError("train-mode forward needs the batch's dropout_masks")
    combined = _encode(store, item_ids, masks if train else None)
    return predict_scores(combined, user_ids, store, candidate_ids), combined


class ModelScorer:
    """Read-only eval-mode scoring interface used by the evaluation loop.

    It encodes SCORE_CHUNK users per pass, off the tape, so a chunk's gate
    and hidden arrays are freed before the next chunk is encoded. A
    catalogue of at most HEAD_GEMM_ROWS_PER_CANDIDATE rows per candidate is
    scored whole by one GEMM per chunk and each user's candidates are picked
    from it, which is far cheaper than gathering a (B, C, 2d) block of head
    rows; a larger catalogue is scored by `predict_scores`, whose gather
    does not grow with it. The two sum the same products in another order,
    so their scores can differ in the last bits.

    A chunk's scores depend on its own rows alone. So when a call has two
    chunks or more, each large enough for a thread of its own, and the
    thread policy wants a second thread (`_second_thread_wanted`), every
    second chunk is scored on one worker thread, made and joined inside the
    call, into its own rows of the result and under the caller's NumPy error
    state: the same chunks and the same bits.
    """

    def __init__(self, store: ParameterStore):
        self.store = store

    def score_batch(self, user_ids, contexts, candidate_ids) -> np.ndarray:
        store = self.store
        cands, users = _head_ids(store, user_ids, candidate_ids)
        gemm = store.config.num_items + 1 <= HEAD_GEMM_ROWS_PER_CANDIDATE * cands.shape[1]
        d = store.config.latent_dim
        out = np.empty(cands.shape, dtype=np.float64)

        def score_chunk(lo: int) -> None:
            hi = lo + SCORE_CHUNK
            o = _encode(store, contexts[lo:hi])  # _encode converts each id chunk
            if not gemm:
                out[lo:hi] = predict_scores(o, user_ids[lo:hi], store, cands[lo:hi]).value
                return
            z_rows = np.zeros((o.shape[1], 2 * d))  # z transposed: one row per user
            z_rows[:, :d] = o.value.T
            if users is not None:
                z_rows[:, d:] = store.user_embeddings.value[users[lo:hi]]
            every_item = z_rows @ store.head_weights.value.T  # (B, rows)
            out[lo:hi] = np.take_along_axis(every_item, cands[lo:hi], axis=1)
            out[lo:hi] += store.head_bias.value[cands[lo:hi]]

        starts = range(0, len(cands), SCORE_CHUNK)
        with _second_thread(len(starts) > 1 and _fills_a_thread(store.config, SCORE_CHUNK),
                            "qrseq-score") as worker:
            # the worker's chunks run in a copy of this thread's context, so
            # that the caller's NumPy error state (a context variable) holds there
            context = contextvars.copy_context()
            on_worker = ([worker.submit(context.run, score_chunk, lo) for lo in starts[1::2]]
                         if worker else [])
            for lo in starts[::2] if worker else starts:
                score_chunk(lo)
            for future in on_worker:
                future.result()
        return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, store: ParameterStore, extra: dict | None = None) -> None:
    """Write the config and `store.flat_values`; values round-trip bit-exactly.

    The file holds `__meta__` (JSON of the format version, config and
    `extra`) and `values`, every parameter in `_layout` order: a change to
    that layout needs a new CHECKPOINT_VERSION. As with `np.savez`, ".npz"
    is appended to a path without it. The file is replaced atomically, so
    an interrupted save leaves the old one.
    """
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(store.config),
        "extra": extra or {},
    }
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with atomic.replacing(path) as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), values=store.flat_values)


def load_checkpoint(path) -> tuple[ParameterStore, dict]:
    """Load a checkpoint; returns (store, extra-metadata). The store is
    `ParameterStore.over` the `values` array read from the file, not a copy."""
    # numpy leaves a file it cannot read open; closing ours releases the bundle too
    with open(path, "rb") as fh:
        try:
            bundle = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError, zipfile.BadZipFile):  # empty, not numpy, or a broken zip
            bundle = None
        if not isinstance(bundle, np.lib.npyio.NpzFile):  # also a one-array .npy
            raise CompatibilityError(f"{path}: not a model checkpoint (unreadable as .npz)")
        if "__meta__" not in bundle:
            raise CompatibilityError(f"{path}: not a model checkpoint (missing metadata)")
        try:
            meta = json.loads(str(bundle["__meta__"]))
        except (ValueError, RecursionError):  # not JSON, nested too deep, or unreadable
            meta = None
        if not (isinstance(meta, dict) and "format_version" in meta
                and isinstance(meta.get("config"), dict) and isinstance(meta.get("extra"), dict)):
            raise CompatibilityError(f"{path}: not a model checkpoint (malformed metadata)")
        version = meta["format_version"]
        if type(version) is not int or version != CHECKPOINT_VERSION:  # not JSON true or 1.0
            raise CompatibilityError(
                f"{path}: checkpoint format version {version!r} "
                f"not supported (expected {CHECKPOINT_VERSION})"
            )
        stored = meta["config"]
        known = {f.name for f in fields(ModelConfig)}
        if stored.keys() != known:
            raise CompatibilityError(
                f"{path}: not a model checkpoint of this version; config keys unknown "
                f"{sorted(stored.keys() - known)}, missing {sorted(known - stored.keys())}"
            )
        try:
            config = ModelConfig(**stored)
        except ConfigError as exc:
            raise CompatibilityError(f"{path}: not a model checkpoint ({exc})") from exc
        if set(bundle.files) != {"__meta__", "values"}:
            raise CompatibilityError(
                f"{path}: not a model checkpoint (members {sorted(bundle.files)})")
        try:
            values = bundle["values"]
        except ValueError as exc:  # an object array, or a broken member
            raise CompatibilityError(f"{path}: unreadable values ({exc})") from exc
    if values.dtype.kind != "f" or values.dtype.itemsize != 8:  # float64 in either byte order
        raise CompatibilityError(f"{path}: values are {values.dtype}, not float64")
    total = sum(size for _, _, size, _ in _layout(config))
    if values.shape != (total,):
        raise CompatibilityError(f"{path}: values of shape {values.shape}, not ({total},)")
    store = ParameterStore.over(config, values.astype(np.float64, copy=False))
    bad = store.first_non_finite()
    if bad is not None:
        raise CompatibilityError(f"{path}: parameter {bad} holds non-finite values")
    return store, meta["extra"]
