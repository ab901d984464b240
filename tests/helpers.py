"""Shared test utilities: independent oracles and synthetic datasets."""
from __future__ import annotations

import json

import numpy as np
import pytest

from qrseq import autodiff as ad
from qrseq import model
from qrseq import rng as rng_streams
from qrseq.data import InteractionLog, SplitDataset
from qrseq.model import ModelConfig, ParameterStore, forward_batch, predict_scores
from qrseq.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, bce_loss


def numeric_gradient(loss_fn, tensor: ad.Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every entry of `tensor`.

    loss_fn must re-evaluate the loss from current tensor values; it is the
    independent oracle against which analytic gradients are checked.
    """
    grad = np.zeros_like(tensor.value)
    flat = tensor.value.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        flat_grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_errors(analytic: np.ndarray, numeric: np.ndarray,
                    floor: float = 1e-3) -> np.ndarray:
    """|a - n| / max(|a|, |n|, floor); the floor keeps near-zero gradients
    from amplifying finite-difference roundoff into spurious failures."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def model_loss_case(config: ModelConfig, seed: int, batch: int = 3, init_std: float = 0.4):
    """A small model plus a fixed training example set for gradient checking.

    Returns (store, loss_fn, run_tape) where loss_fn() evaluates the
    objective from current parameter values without recording, and
    run_tape() records one forward/backward pass, leaving gradients in
    the store.
    """
    rng = rng_streams.stream(seed, "gradcheck")
    store = ParameterStore(config, rng, init_std=init_std)
    contexts = rng.integers(0, config.num_items + 1, size=(batch, config.seq_len))
    contexts[0, 0] = 0  # keep one padded position in play
    users = rng.integers(1, config.num_users + 1, size=batch)
    targets = rng.integers(1, config.num_items + 1, size=(batch, 1))
    negatives = rng.integers(1, config.num_items + 1, size=(batch, 2))
    candidates = np.concatenate([targets, negatives], axis=1)

    def compute_loss() -> ad.Tensor:
        scores, _ = forward_batch(store, contexts, users, candidates, mode="eval")
        return bce_loss(ad.slice_cols(scores, 0, 1), ad.slice_cols(scores, 1, 3))

    def loss_fn() -> float:
        return compute_loss().item()

    def run_tape() -> float:
        store.zero_grads()
        with ad.record():
            loss = compute_loss()
        ad.backward(loss)
        return loss.item()

    return store, loss_fn, run_tape


def reference_adam_step(store: ParameterStore, m: dict, v: dict, t: int, lr: float,
                        l2: float) -> None:
    """One Adam step as a loop over tensors, each with its own moment arrays
    in `m` and `v` (by name): the oracle for `adam_step`'s flat pass.
    `t` is the step number, from 1."""
    store.clear_padding_grads()
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    for name, p in store.named_parameters().items():
        g = p.grad
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * g * g
        update = (m[name] / correct1) / (np.sqrt(v[name] / correct2) + ADAM_EPS)
        if l2:
            update = update + l2 * p.value
        p.value -= lr * update


def reference_forward(store: ParameterStore, item_ids, user_ids, candidate_ids) -> ad.Tensor:
    """Eval-mode scores through a per-timestep graph: the oracle for
    `forward_batch`'s whole-sequence graph.

    Every timestep is its own (d, B) column; each gate sums its taps
    column by column and the pooling recurrence is one `mul`/`add` pair per
    step, as the model computed before it worked on whole sequences.
    """
    config = store.config
    ids = np.asarray(item_ids, dtype=np.intp)
    columns = [ad.transpose(ad.take_rows(store.item_embeddings, ids[:, t]))
               for t in range(ids.shape[1])]

    def conv(cols, filters, bias):
        width = len(filters)
        gates = []
        for t in range(1, len(cols) + 1):
            pre = None
            for i in range(1, width + 1):
                src = t - width + i
                if src < 1:
                    continue
                term = ad.matmul(filters[i - 1], cols[src - 1])
                pre = term if pre is None else ad.add(pre, term)
            gates.append(ad.sigmoid(ad.add_col(pre, bias)))
        return gates

    def total(tensors):
        out = tensors[0]
        for t in tensors[1:]:
            out = ad.add(out, t)
        return out

    inner, outer = config.aggregation.split("+")
    per_scale = []
    for w in config.scales:
        hidden = columns
        for layer in range(config.num_layers):
            f_gates = conv(hidden, *store.gate("forget", w, layer))
            o_gates = None
            if config.use_output_gate:
                o_gates = conv(hidden, *store.gate("output", w, layer))
            states, cell = [], None
            for t, (x_t, f_t) in enumerate(zip(hidden, f_gates)):
                take = ad.mul(ad.one_minus(f_t), x_t)
                cell = take if cell is None else ad.add(ad.mul(f_t, cell), take)
                states.append(cell if o_gates is None else ad.mul(o_gates[t], cell))
            hidden = states
        if inner == "S":
            per_scale.append(total(hidden))
        elif inner == "M":
            per_scale.append(ad.scale(total(hidden), 1.0 / len(hidden)))
        else:
            per_scale.append(hidden[-1])
    combined = total(per_scale)
    if outer == "M":
        combined = ad.scale(combined, 1.0 / len(per_scale))
    return predict_scores(combined, user_ids, store, candidate_ids)


def pooled_values(store: ParameterStore, item_ids
                  ) -> list[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
    """The (forget, output, hidden) values of an eval-mode forward over a
    (B, L) id batch, one tuple per (scale, layer) in `config.scales` x
    layers order, read by wrapping `model._pool` through monkeypatch.
    Each is (d, L*B), time-major; output is None without output gates."""
    pooled = []
    real = model._pool

    def recording(x, forget, output, batch):
        hidden = real(x, forget, output, batch)
        pooled.append((forget.value, None if output is None else output.value, hidden.value))
        return hidden

    ids = np.asarray(item_ids)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_pool", recording)
        forward_batch(store, ids, np.ones(len(ids), dtype=np.intp),
                      np.ones((len(ids), 1), dtype=np.intp))
    return pooled


def oracle_rank(candidate_ids, scores, target_id) -> int:
    """Sort-based rank oracle, independent of the comparison-counting path.

    Sorts the scores ascending and binary-searches the target's score:
    the pessimistic rank (target loses every tie) equals the number of
    scores at or above it, target included. NaN sorts above every number,
    so a NaN negative counts against the target; a NaN target ranks last.
    """
    scores = np.asarray(scores, dtype=float)
    candidate_ids = np.asarray(candidate_ids)
    target_score = float(scores[candidate_ids == target_id][0])
    if np.isnan(target_score):
        return len(scores)
    ascending = np.sort(scores)
    below = int(np.searchsorted(ascending, target_score, side="left"))
    return len(scores) - below


def reference_negatives(log: InteractionLog, user: int, k: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Negative draw through the explicit complement array, the reference for
    `sample_negatives`: the same positions index the ascending unseen items."""
    unseen = np.setdiff1d(np.arange(1, log.item_count + 1), log.items_of(user))
    return unseen[rng.choice(len(unseen), size=k, replace=False)]


def reference_splits(log: InteractionLog, seq_len: int) -> SplitDataset:
    """Leave-one-out splits built one window at a time, each its own left-padded
    slice of the sequence: the reference for `make_splits`."""
    def window(seq, position):
        ctx = seq[max(0, position - seq_len):position]
        return [0] * (seq_len - len(ctx)) + ctx

    parts = {name: [] for name in ("train", "val", "test")}
    for user in range(1, log.user_count + 1):
        seq = log.items_of(user)
        n = len(seq)
        parts["test"].append((user, window(seq, n - 1), seq[n - 1]))
        parts["val"].append((user, window(seq, n - 2), seq[n - 2]))
        for p in range(1, n - 2):
            parts["train"].append((user, window(seq, p), seq[p]))

    arrays = {}
    for name, rows in parts.items():
        arrays[f"{name}_users"] = np.asarray([r[0] for r in rows], dtype=np.intp)
        arrays[f"{name}_contexts"] = np.asarray([r[1] for r in rows],
                                                dtype=np.intp).reshape(len(rows), seq_len)
        arrays[f"{name}_targets"] = np.asarray([r[2] for r in rows], dtype=np.intp)
    return SplitDataset(seq_len=seq_len, **arrays)


def reference_poprec_counts(log: InteractionLog) -> np.ndarray:
    """Per-item counts over every user's sequence but its last two items, one
    item at a time: the reference for `poprec_baseline`'s counts."""
    counts = np.zeros(log.item_count + 1, dtype=np.int64)
    for user in range(1, log.user_count + 1):
        for item in log.items_of(user)[:-2]:
            counts[item] += 1
    return counts


# ---------------------------------------------------------------------------
# synthetic datasets


def chain_log(num_users: int = 500, num_items: int = 200, seq_len: int = 30,
              seed: int = 0) -> InteractionLog:
    """Users walk a fixed random permutation: the next item is a
    deterministic function of the last one."""
    rng = rng_streams.stream(seed, "chain")
    nxt = rng.permutation(num_items) + 1  # nxt[i-1] follows item i
    sequences = []
    for _ in range(num_users):
        item = int(rng.integers(1, num_items + 1))
        seq = [item]
        for _ in range(seq_len - 1):
            item = int(nxt[item - 1])
            seq.append(item)
        sequences.append(seq)
    return InteractionLog.from_sequences(sequences, num_items)


def mixed_order_log(num_users: int = 500, num_items: int = 200, seq_len: int = 30,
                    seed: int = 0) -> InteractionLog:
    """Mixed-order rule: which first-order map applies depends on the
    item before last, so width-1 features alone cannot disambiguate."""
    rng = rng_streams.stream(seed, "mixed")
    map_a = rng.permutation(num_items) + 1
    map_b = rng.permutation(num_items) + 1
    half = num_items // 2
    sequences = []
    for _ in range(num_users):
        prev = int(rng.integers(1, num_items + 1))
        last = int(rng.integers(1, num_items + 1))
        seq = [prev, last]
        for _ in range(seq_len - 2):
            table = map_a if prev <= half else map_b
            prev, last = last, int(table[last - 1])
            seq.append(last)
        sequences.append(seq)
    return InteractionLog.from_sequences(sequences, num_items)


def uniform_log(num_users: int = 600, num_items: int = 400, seq_len: int = 12,
                seed: int = 0) -> InteractionLog:
    """Interactions drawn uniformly at random: no popularity signal."""
    rng = rng_streams.stream(seed, "uniform")
    sequences = []
    for _ in range(num_users):
        seq = rng.choice(num_items, size=seq_len, replace=False) + 1
        sequences.append([int(i) for i in seq])
    return InteractionLog.from_sequences(sequences, num_items)


def write_interactions_csv(path, sequences: list[list[str]] | None = None,
                           rows: list[tuple] | None = None) -> None:
    """Write a raw interaction CSV either from explicit rows or from
    per-user item sequences (rating 5, timestamps by position)."""
    lines = ["user,item,rating,timestamp"]
    if rows is not None:
        for row in rows:
            lines.append(",".join(str(v) for v in row))
    else:
        for u, seq in enumerate(sequences, start=1):
            for t, item in enumerate(seq):
                lines.append(f"u{u},{item},5,{t}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def rewrite_checkpoint(path, edit) -> None:
    """Rewrite a checkpoint after `edit(meta, arrays)` changes its parsed
    metadata and its other members (`values`) in place."""
    with np.load(path) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    meta = json.loads(str(arrays.pop("__meta__")))
    edit(meta, arrays)
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def rewrite_config_keys(path, drop=(), add=None) -> None:
    """Rewrite a checkpoint's stored model config with keys dropped or added."""
    def edit(meta, arrays):
        for key in drop:
            del meta["config"][key]
        meta["config"].update(add or {})
    rewrite_checkpoint(path, edit)


def log_to_csv(path, log: InteractionLog) -> None:
    """Dump an InteractionLog back to raw CSV (rating 5, positional timestamps)."""
    rows = []
    for user in range(1, log.user_count + 1):
        for t, item in enumerate(log.items_of(user)):
            rows.append((f"u{user}", f"i{item}", 5, t))
    write_interactions_csv(path, rows=rows)
