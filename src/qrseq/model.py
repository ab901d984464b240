"""Multi-scale quasi-recurrent sequence model.

One gated component runs per configured filter width: a causal masked
convolution over the embedded item columns produces per-timestep forget
gates, which drive an input-dependent exponential moving average of the
inputs (optionally multiplied by a second output gate). Per-scale hidden
sequences are reduced over time (sum / mean / last), combined across
scales (sum / mean), joined with the user profile vector, and scored
against candidate items by a per-item linear head.

All functions operate on lists of "columns": one (d, B) tensor per
timestep, where B is the batch width. The single-sequence entry points
take a (d, L) matrix, which is just the B=1 case with timesteps as
columns.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CompatibilityError, ConfigError

AGGREGATIONS = ("S+S", "L+S", "L+M", "S+M", "M+M")

CHECKPOINT_VERSION = 1

INIT_STD = 0.01

SCORE_CHUNK = 128  # users per eval-mode forward in ModelScorer


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
        if self.scales is None:
            self.scales = tuple(range(1, self.seq_len + 1))
        else:
            self.scales = tuple(sorted(set(int(w) for w in self.scales)))
        self.validate()

    def validate(self) -> None:
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


class ParameterStore:
    """Every trainable tensor for one model configuration.

    Row 0 of the item embedding table is the padding item: it stays
    all-zero and is excluded from optimizer updates. User ids are 1-based
    like item ids, so the profile table also carries an unused row 0.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 init_std: float = INIT_STD):
        self.config = config
        d = config.latent_dim

        def draw(shape):
            if rng is None:
                return np.zeros(shape)
            return rng.normal(0.0, init_std, size=shape)

        self._params: dict[str, Tensor] = {}
        item = draw((config.num_items + 1, d))
        item[0] = 0.0
        self._add("item_embeddings", item)
        if config.use_user_profile:
            user = draw((config.num_users + 1, d))
            user[0] = 0.0
            self._add("user_embeddings", user)
        for w in config.scales:
            for layer in range(config.num_layers):
                for i in range(w):
                    self._add(f"forget_w{w}_l{layer}_k{i}", draw((d, d)))
                self._add(f"forget_bias_w{w}_l{layer}", np.zeros((d, 1)))
                if config.use_output_gate:
                    for i in range(w):
                        self._add(f"output_w{w}_l{layer}_k{i}", draw((d, d)))
                    self._add(f"output_bias_w{w}_l{layer}", np.zeros((d, 1)))
        head = draw((config.num_items + 1, 2 * d))
        head[0] = 0.0
        self._add("head_weights", head)
        self._add("head_bias", np.zeros(config.num_items + 1))

    def _add(self, name: str, value: np.ndarray) -> None:
        self._params[name] = ad.parameter(value)

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
        ad.zero_grads(self._params.values())

    def clear_padding_grads(self) -> None:
        """Drop gradient flow into the reserved id-0 rows."""
        self.item_embeddings.grad[0] = 0.0
        self.head_weights.grad[0] = 0.0
        self.head_bias.grad[0] = 0.0
        if self.user_embeddings is not None:
            self.user_embeddings.grad[0] = 0.0

    def copy(self) -> "ParameterStore":
        clone = ParameterStore(self.config)
        for name, p in self._params.items():
            np.copyto(clone._params[name].value, p.value)
        return clone


# ---------------------------------------------------------------------------
# building blocks


def embed_sequence(store: ParameterStore, item_ids) -> Tensor:
    """Embed one id sequence into a (d, L) matrix, oldest to newest.

    Id 0 is the padding item and yields a zero column.
    """
    ids = np.asarray(item_ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError(f"embed_sequence expects a flat id list, got shape {ids.shape}")
    return ad.transpose(ad.take_rows(store.item_embeddings, ids))


def _embedding_columns(store: ParameterStore, item_ids: np.ndarray) -> list[Tensor]:
    """Per-timestep (d, B) columns for a batch of id sequences (B, L)."""
    return [
        ad.transpose(ad.take_rows(store.item_embeddings, item_ids[:, t]))
        for t in range(item_ids.shape[1])
    ]


def _matrix_columns(x: Tensor) -> list[Tensor]:
    return [ad.slice_cols(x, t, t + 1) for t in range(x.shape[1])]


def _conv_gate_columns(columns: Sequence[Tensor], filters: Sequence[Tensor],
                       bias: Tensor | None) -> list[Tensor]:
    """Causal width-w convolution + sigmoid; positions before the sequence
    start contribute nothing (zero left padding)."""
    width = len(filters)
    gates = []
    for t in range(1, len(columns) + 1):
        pre = None
        for i in range(1, width + 1):
            src = t - width + i
            if src < 1:
                continue
            term = ad.matmul(filters[i - 1], columns[src - 1])
            pre = term if pre is None else ad.add(pre, term)
        if bias is not None:
            pre = ad.add_col(pre, bias)
        gates.append(ad.sigmoid(pre))
    return gates


def conv_gates(x: Tensor, filters: Sequence[Tensor], bias: Tensor | None = None) -> list[Tensor]:
    """Gate sequence for a (d, L) input matrix; one (d, 1) gate per timestep."""
    if not filters:
        raise ValueError("conv_gates needs at least one filter matrix")
    return _conv_gate_columns(_matrix_columns(x), filters, bias)


def _pool_columns(columns: Sequence[Tensor], forget_gates: Sequence[Tensor],
                  output_gates: Sequence[Tensor] | None = None) -> list[Tensor]:
    """fo-pooling: c_t = f_t*c_{t-1} + (1-f_t)*x_t with c_0 = 0; the hidden
    state is h_t = o_t*c_t with output gates, else c_t itself."""
    hidden: list[Tensor] = []
    cell = None  # initial state is zero, so the first retain term vanishes
    for t, (x_t, f_t) in enumerate(zip(columns, forget_gates)):
        take = ad.mul(ad.one_minus(f_t), x_t)
        cell = take if cell is None else ad.add(ad.mul(f_t, cell), take)
        hidden.append(cell if output_gates is None else ad.mul(output_gates[t], cell))
    return hidden


def dynamic_average_pool(x: Tensor, gates: Sequence[Tensor]) -> list[Tensor]:
    """Forget-gated moving average h_t = f_t*h_{t-1} + (1-f_t)*x_t, h_0 = 0."""
    if len(gates) != x.shape[1]:
        raise ValueError(f"expected {x.shape[1]} gates, got {len(gates)}")
    return _pool_columns(_matrix_columns(x), gates)


def output_gate_pool(x: Tensor, forget_gates: Sequence[Tensor],
                     output_gates: Sequence[Tensor]) -> list[Tensor]:
    """Gated variant: c_t = f_t*c_{t-1} + (1-f_t)*x_t, h_t = o_t*c_t, c_0 = 0."""
    if len(forget_gates) != x.shape[1] or len(output_gates) != x.shape[1]:
        raise ValueError(
            f"expected {x.shape[1]} forget and output gates, "
            f"got {len(forget_gates)} and {len(output_gates)}"
        )
    return _pool_columns(_matrix_columns(x), forget_gates, output_gates)


def _parse_aggregation(strategy: str) -> tuple[str, str]:
    if strategy not in AGGREGATIONS:
        raise ConfigError(
            f"unknown aggregation strategy {strategy!r}; expected one of {', '.join(AGGREGATIONS)}"
        )
    inner, outer = strategy.split("+")
    return inner, outer


def _sum_tensors(tensors: Sequence[Tensor]) -> Tensor:
    total = tensors[0]
    for t in tensors[1:]:
        total = ad.add(total, t)
    return total


def _inner_reduce(hidden: Sequence[Tensor], code: str) -> Tensor:
    if code == "S":
        return _sum_tensors(hidden)
    if code == "M":
        return ad.scale(_sum_tensors(hidden), 1.0 / len(hidden))
    return hidden[-1]  # "L": last hidden state


def aggregate(hidden_seqs: Sequence[Sequence[Tensor]], strategy: str) -> Tensor:
    """Reduce within each scale (sum / mean / last) then across scales (sum / mean)."""
    inner, outer = _parse_aggregation(strategy)
    if not hidden_seqs:
        raise ValueError("aggregate needs at least one hidden sequence")
    per_scale = [_inner_reduce(seq, inner) for seq in hidden_seqs]
    total = _sum_tensors(per_scale)
    if outer == "M":
        total = ad.scale(total, 1.0 / len(per_scale))
    return total


def predict_scores(o: Tensor, user_ids, store: ParameterStore, candidate_ids) -> Tensor:
    """Score candidates against concat(sequence vector, user profile).

    `o` is (d, B); `candidate_ids` is (B, C). Returns a (B, C) tensor.
    With the user profile disabled, the profile half of the input is zero.
    """
    cands = np.asarray(candidate_ids, dtype=np.intp)
    if cands.ndim != 2 or cands.size == 0:
        raise ValueError(f"candidate_ids must be a nonempty (B, C) array, got shape {cands.shape}")
    bad = cands[(cands < 1) | (cands > store.config.num_items)]
    if bad.size:
        shown = sorted(set(int(i) for i in bad.ravel()[:8]))
        raise IndexError(f"unknown candidate ids: {shown}")
    if store.user_embeddings is not None:
        users = np.asarray(user_ids, dtype=np.intp)
        if np.any((users < 1) | (users > store.config.num_users)):
            raise IndexError(f"user id out of range 1..{store.config.num_users}")
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
    """Values recorded for one scale: indexed [layer][timestep], each (d, B)."""

    forget_gates: list[list[np.ndarray]] = field(default_factory=list)
    hidden: list[list[np.ndarray]] = field(default_factory=list)
    output_gates: list[list[np.ndarray]] | None = None


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
        columns = _embedding_columns(store, ids)
        if train and config.dropout > 0.0:
            columns = [
                ad.mul(c, ad.constant(_dropout_mask(c.shape, config.dropout, rng)))
                for c in columns
            ]

        hidden_seqs: list[list[Tensor]] = []
        for w in config.scales:
            strace = trace.scales[w] = ScaleTrace(
                output_gates=[] if config.use_output_gate else None
            )
            hidden = columns
            for layer in range(config.num_layers):
                f_gates = _conv_gate_columns(
                    hidden, store.forget_filters(w, layer), store.forget_bias(w, layer)
                )
                o_gates = None
                if config.use_output_gate:
                    o_gates = _conv_gate_columns(
                        hidden, store.output_filters(w, layer), store.output_bias(w, layer)
                    )
                    strace.output_gates.append([g.value for g in o_gates])
                hidden = _pool_columns(hidden, f_gates, o_gates)
                strace.forget_gates.append([g.value for g in f_gates])
                strace.hidden.append([h.value for h in hidden])
            hidden_seqs.append(hidden)

        combined = aggregate(hidden_seqs, config.aggregation)
        if train and config.dropout > 0.0:
            mask = _dropout_mask(combined.shape, config.dropout, rng)
            combined = ad.mul(combined, ad.constant(mask))
    else:
        combined = ad.constant(np.zeros((config.latent_dim, ids.shape[0])))

    scores = predict_scores(combined, user_ids, store, candidate_ids)
    return scores, trace


class ModelScorer:
    """Read-only eval-mode scoring interface used by the evaluation loop."""

    def __init__(self, store: ParameterStore):
        self.store = store

    def score_batch(self, user_ids, contexts, candidate_ids) -> np.ndarray:
        users = np.asarray(user_ids, dtype=np.intp)
        ctx = np.asarray(contexts, dtype=np.intp)
        cands = np.asarray(candidate_ids, dtype=np.intp)
        out = np.empty(cands.shape, dtype=np.float64)
        for lo in range(0, len(users), SCORE_CHUNK):
            hi = lo + SCORE_CHUNK
            scores, _ = forward_batch(self.store, ctx[lo:hi], users[lo:hi], cands[lo:hi])
            out[lo:hi] = scores.value
        return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, store: ParameterStore, extra: dict | None = None) -> None:
    """Write config + every parameter array; values round-trip bit-exactly."""
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(store.config),
        "extra": extra or {},
    }
    arrays = {name: p.value for name, p in store.named_parameters().items()}
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path) -> tuple[ParameterStore, dict]:
    """Load a checkpoint; returns (store, extra-metadata)."""
    with np.load(path, allow_pickle=False) as bundle:
        if "__meta__" not in bundle:
            raise CompatibilityError(f"{path}: not a model checkpoint (missing metadata)")
        meta = json.loads(str(bundle["__meta__"]))
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise CompatibilityError(
                f"{path}: checkpoint format version {meta.get('format_version')} "
                f"not supported (expected {CHECKPOINT_VERSION})"
            )
        stored = set(meta["config"])
        known = {f.name for f in fields(ModelConfig)}
        if stored != known:
            raise CompatibilityError(
                f"{path}: checkpoint config keys do not match this version; "
                f"unknown {sorted(stored - known)}, missing {sorted(known - stored)}"
            )
        config = ModelConfig(**meta["config"])
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
    return store, meta["extra"]
