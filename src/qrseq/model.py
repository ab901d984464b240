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
timestep.

Parameters are laid out for whole-model passes: a `ParameterStore` keeps
every value in one flat float64 array and every gradient in another, and
each parameter tensor's value and gradient are reshaped views into them.

The head gathers each candidate's row on the tape. Off the tape, as in
evaluation, it scores a catalogue small enough for the candidate count
with one GEMM over every item instead (`predict_scores`).
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import atomic
from . import autodiff as ad
from .autodiff import Tensor
from .errors import CompatibilityError, ConfigError, check_types

AGGREGATIONS = ("S+S", "L+S", "L+M", "S+M", "M+M")

CHECKPOINT_VERSION = 1

INIT_STD = 0.01

SCORE_CHUNK = 128  # users per eval-mode forward in ModelScorer

# Off the tape, the head scores every item with one GEMM while the catalogue
# (num_items + 1 rows) has at most this many rows per candidate, and gathers
# the candidates' rows beyond. The GEMM does num_items + 1 dot products per
# user at BLAS speed; the gather copies C rows per user into a (B, C, 2d)
# block and is bound by memory. Per 128-user chunk at d = 128 and C = 101
# (float64, one OpenBLAS thread, 2-core VM) they took 0.5 against 13 ms at
# 200 items, 9.9 against 15.4 ms at 5k and 39 against 16 ms at 20k. At
# C = 21 and 41 the GEMM still won at 48 rows per candidate and lost at 95;
# at C = 101 the two tied at 74. The gather side is taken by gradient
# checks' loss passes (C = 3) on perfbench's catalog-20k (5k items): over
# 10 paired runs its gradcheck_coords_per_s had a median of 362 with the
# gather and 220 with the GEMM.
HEAD_GEMM_ROWS_PER_CANDIDATE = 50


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
                entries += [(f"{gate}_w{w}_l{layer}_k{i}", (d, d), d * d, True)
                            for i in range(w)]
                entries.append((f"{gate}_bias_w{w}_l{layer}", (d, 1), d, False))
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
        self.config = config
        layout = _layout(config)
        total = sum(size for _, _, size, _ in layout)
        self.flat_values = np.zeros(total)
        self.flat_grads = np.zeros(total)
        self._params: dict[str, Tensor] = {}
        runs: list[list[int]] = []  # [lo, hi) spans of consecutive drawn tensors
        lo = 0
        for name, shape, size, drawn in layout:
            hi = lo + size
            self._params[name] = ad.parameter(self.flat_values[lo:hi].reshape(shape),
                                              self.flat_grads[lo:hi].reshape(shape))
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

    def forget_filters(self, scale: int, layer: int) -> list[Tensor]:
        return [self._params[f"forget_w{scale}_l{layer}_k{i}"] for i in range(scale)]

    def forget_bias(self, scale: int, layer: int) -> Tensor:
        return self._params[f"forget_bias_w{scale}_l{layer}"]

    def output_filters(self, scale: int, layer: int) -> list[Tensor]:
        return [self._params[f"output_w{scale}_l{layer}_k{i}"] for i in range(scale)]

    def output_bias(self, scale: int, layer: int) -> Tensor:
        return self._params[f"output_bias_w{scale}_l{layer}"]

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
        entry, None if none has: one pass over the flat array, and a walk
        over the tensors only when that pass fails."""
        if np.isfinite(self.flat_grads if grads else self.flat_values).all():
            return None
        return next(name for name, p in self._params.items()
                    if not np.isfinite(p.grad if grads else p.value).all())

    def copy(self) -> "ParameterStore":
        """A store with its own arrays holding these values; zero gradients."""
        clone = ParameterStore(self.config)
        np.copyto(clone.flat_values, self.flat_values)
        return clone


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
    w-1-i steps back; the taps are summed oldest first."""
    width = len(filters)
    shifts = range(min(width, len(shifted)) - 1, -1, -1)
    terms = [ad.matmul(filters[width - 1 - k], shifted[k]) for k in shifts]
    pre = terms[0] if len(terms) == 1 else ad.shifted_sum(terms, [k * batch for k in shifts])
    return ad.sigmoid(ad.add_col(pre, bias))


def _pool(x: Tensor, forget: Tensor, output: Tensor | None, batch: int) -> Tensor:
    """fo-pooling: c_t = f_t*c_{t-1} + (1-f_t)*x_t with c_0 = 0; the hidden
    state is h_t = o_t*c_t with output gates, else c_t itself."""
    cell = ad.gated_scan(forget, ad.mul(ad.one_minus(forget), x), batch)
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


def predict_scores(o: Tensor, user_ids, store: ParameterStore, candidate_ids) -> Tensor:
    """Score candidates against concat(sequence vector, user profile).

    `o` is (d, B); `candidate_ids` is (B, C). Returns a (B, C) tensor.
    With the user profile disabled, the profile half of the input is zero.

    While a tape records, the scores are taped `rows_dot_cols` + `gather`
    ops. Off the tape (evaluation, loss-only passes) a catalogue of at most
    HEAD_GEMM_ROWS_PER_CANDIDATE rows per candidate is scored whole by
    one GEMM and each user's candidates are picked from it, which is far
    cheaper than gathering a (B, C, 2d) block of head rows; a larger
    catalogue keeps the gather, whose cost does not grow with it. The two
    paths sum the same products in another order, so their scores can
    differ in the last bits.
    """
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
    rows = store.config.num_items + 1
    if not ad.is_recording() and rows <= HEAD_GEMM_ROWS_PER_CANDIDATE * cands.shape[1]:
        d = o.shape[0]
        z_rows = np.zeros((o.shape[1], 2 * d))  # z transposed: one row per user
        z_rows[:, :d] = o.value.T
        if users is not None:
            z_rows[:, d:] = store.user_embeddings.value[users]
        every_item = z_rows @ store.head_weights.value.T  # (B, rows)
        picked = np.take_along_axis(every_item, cands, axis=1)
        picked += store.head_bias.value[cands]
        return ad.constant(picked)
    if users is not None:
        profile = ad.transpose(ad.take_rows(store.user_embeddings, users))
    else:
        profile = ad.constant(np.zeros_like(o.value))
    z = ad.concat_rows(o, profile)
    return ad.add(
        ad.rows_dot_cols(store.head_weights, cands, z),
        ad.gather(store.head_bias, cands),
    )


# ---------------------------------------------------------------------------
# full forward pass


@dataclass
class ScaleTrace:
    """Values recorded for one scale, one entry per layer: the graph's own
    (d, L*B) array of that layer's gate or hidden state."""

    forget_gates: list[np.ndarray] = field(default_factory=list)
    hidden: list[np.ndarray] = field(default_factory=list)
    output_gates: list[np.ndarray] | None = None


@dataclass
class ForwardTrace:
    scales: dict[int, ScaleTrace] = field(default_factory=dict)


def _dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(shape) >= p) / (1.0 - p)


def forward_batch(store: ParameterStore, item_ids, user_ids, candidate_ids,
                  mode: str = "eval", rng: np.random.Generator | None = None
                  ) -> tuple[Tensor, ForwardTrace]:
    """Run the network over a batch.

    item_ids: (B, L) int, 0 = padding; user_ids: (B,); candidate_ids: (B, C).
    In "train" mode inverted dropout is applied to the embedded inputs and
    to the combined sequence vector, drawing masks from `rng`.
    """
    config = store.config
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    ids = np.asarray(item_ids, dtype=np.intp)
    if ids.ndim != 2 or ids.shape[1] != config.seq_len:
        raise ValueError(f"item_ids must be (B, {config.seq_len}), got shape {ids.shape}")
    if train and config.dropout > 0.0 and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")

    trace = ForwardTrace()
    if config.scales:
        batch, steps = ids.shape
        x = _embed(store, ids)
        if train and config.dropout > 0.0:
            # one draw per timestep in order, laid out time-major like x
            mask = _dropout_mask((steps, config.latent_dim, batch), config.dropout, rng)
            x = ad.mul(x, ad.constant(mask.transpose(1, 0, 2).reshape(config.latent_dim, -1)))

        # every scale's first layer reads x: share its shifted prefixes
        x_shifted = _shifted_inputs(x, batch, min(max(config.scales), steps))
        hidden_seqs: list[Tensor] = []
        for w in config.scales:
            strace = trace.scales[w] = ScaleTrace(
                output_gates=[] if config.use_output_gate else None
            )
            shifted = x_shifted
            for layer in range(config.num_layers):
                if layer:
                    shifted = _shifted_inputs(hidden, batch, min(w, steps))
                forget = _conv_gate(
                    shifted, store.forget_filters(w, layer), store.forget_bias(w, layer), batch
                )
                output = None
                if config.use_output_gate:
                    output = _conv_gate(
                        shifted, store.output_filters(w, layer), store.output_bias(w, layer),
                        batch,
                    )
                    strace.output_gates.append(output.value)
                hidden = _pool(shifted[0], forget, output, batch)
                strace.forget_gates.append(forget.value)
                strace.hidden.append(hidden.value)
            hidden_seqs.append(hidden)

        combined = _aggregate(hidden_seqs, config.aggregation, batch)
        if train and config.dropout > 0.0:
            mask = _dropout_mask(combined.shape, config.dropout, rng)
            combined = ad.mul(combined, ad.constant(mask))
    else:
        combined = ad.constant(np.zeros((config.latent_dim, ids.shape[0])))

    scores = predict_scores(combined, user_ids, store, candidate_ids)
    return scores, trace


class ModelScorer:
    """Read-only eval-mode scoring interface used by the evaluation loop.

    It scores SCORE_CHUNK users per forward pass, off the tape, so the head
    takes its GEMM path for catalogues small enough (`predict_scores`).
    """

    def __init__(self, store: ParameterStore):
        self.store = store

    def score_batch(self, user_ids, contexts, candidate_ids) -> np.ndarray:
        cands = np.asarray(candidate_ids, dtype=np.intp)
        out = np.empty(cands.shape, dtype=np.float64)
        for lo in range(0, len(cands), SCORE_CHUNK):  # forward_batch converts each id chunk
            hi = lo + SCORE_CHUNK
            # keep no name for the trace: its arrays are freed before the next chunk
            out[lo:hi] = forward_batch(self.store, contexts[lo:hi], user_ids[lo:hi],
                                       cands[lo:hi])[0].value
        return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, store: ParameterStore, extra: dict | None = None) -> None:
    """Write config + every parameter array; values round-trip bit-exactly.

    As with `np.savez`, ".npz" is appended to a path without it. The file
    is replaced atomically, so an interrupted save leaves the old one.
    """
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(store.config),
        "extra": extra or {},
    }
    arrays = {name: p.value for name, p in store.named_parameters().items()}
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with atomic.replacing(path) as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path) -> tuple[ParameterStore, dict]:
    """Load a checkpoint; returns (store, extra-metadata)."""
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
        except ValueError:  # not JSON, or an entry numpy cannot read
            meta = None
        if not (isinstance(meta, dict) and "format_version" in meta
                and isinstance(meta.get("config"), dict) and isinstance(meta.get("extra"), dict)):
            raise CompatibilityError(f"{path}: not a model checkpoint (malformed metadata)")
        version = meta["format_version"]
        if type(version) is not int or version != CHECKPOINT_VERSION:  # not JSON true or 1.0
            raise CompatibilityError(
                f"{path}: checkpoint format version {version} "
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
        store = ParameterStore(config)
        expected = set(store.named_parameters())
        found = set(bundle.files) - {"__meta__"}
        if expected != found:
            raise CompatibilityError(
                f"{path}: parameter mismatch; missing {sorted(expected - found)}, "
                f"unexpected {sorted(found - expected)}"
            )
        for name, p in store.named_parameters().items():
            arr = bundle[name]
            if arr.shape != p.value.shape:
                raise CompatibilityError(
                    f"{path}: shape mismatch for {name}: {arr.shape} vs {p.value.shape}"
                )
            np.copyto(p.value, arr)
    bad = store.first_non_finite()
    if bad is not None:
        raise CompatibilityError(f"{path}: parameter {bad} holds non-finite values")
    return store, meta["extra"]
