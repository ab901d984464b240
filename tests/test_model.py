"""Model blocks: gating, pooling, aggregation, scoring, checkpoints."""
from __future__ import annotations

import hashlib
import os
import warnings

import numpy as np
import pytest

from qrseq import autodiff as ad
from qrseq import model
from qrseq import rng as rng_streams
from qrseq.errors import CompatibilityError, ConfigError
from qrseq.evaluation import target_ranks
from qrseq.model import (
    HEAD_GEMM_ROWS_PER_CANDIDATE,
    SCORE_CHUNK,
    ModelConfig,
    ModelScorer,
    ParameterStore,
    _aggregate,
    _conv_gate,
    _embed,
    _pool,
    _shifted_inputs,
    dropout_masks,
    forward_batch,
    load_checkpoint,
    predict_scores,
    save_checkpoint,
)
from qrseq.training import bce_loss
from helpers import (
    model_loss_case,
    numeric_gradient,
    pooled_values,
    reference_forward,
    relative_errors,
    rewrite_checkpoint,
    rewrite_config_keys,
)

SIGMOID_1 = 1.0 / (1.0 + np.exp(-1.0))
SIGMOID_2 = 1.0 / (1.0 + np.exp(-2.0))


def small_config(**overrides):
    base = dict(num_items=12, num_users=4, latent_dim=3, seq_len=4, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def small_store(seed=0, init_std=0.3, **overrides):
    cfg = small_config(**overrides)
    return ParameterStore(cfg, rng_streams.stream(seed, "init"), init_std=init_std)


def gate_matrix(x, filters, bias):
    """The (d, L) gates of one sequence: the B=1 case of forward_batch's gate stage."""
    return _conv_gate(_shifted_inputs(x, 1, min(len(filters), x.shape[1])), filters, bias, 1)


# -- config ------------------------------------------------------------------


def test_default_scales_cover_every_width():
    cfg = small_config()
    assert cfg.scales == (1, 2, 3, 4)


def test_scales_are_sorted_and_deduplicated():
    cfg = small_config(scales=(3, 1, 3))
    assert cfg.scales == (1, 3)


@pytest.mark.parametrize("bad", [
    dict(scales=(0,)),
    dict(scales=(5,)),
    dict(num_layers=5),
    dict(num_layers=0),
    dict(aggregation="X+S"),
    dict(dropout=1.0),
    dict(scales=(), use_user_profile=False),
    dict(latent_dim=4.5),
    dict(num_layers=True),
    dict(use_output_gate="no"),
    dict(scales=[1.7]),
    dict(dropout=10 ** 400),
])
def test_config_validation_rejects_bad_fields(bad):
    with pytest.raises(ConfigError):
        small_config(**bad)


def test_config_type_errors_name_every_wrong_field_sorted():
    with pytest.raises(ConfigError, match=r"^wrong type \['aggregation', 'dropout'\]$"):
        small_config(dropout="0.5", aggregation=3)


def test_numpy_int_scales_are_accepted():
    # as perfbench's criterion-1 configs draw them: a tuple of NumPy ints
    cfg = small_config(scales=tuple(np.array([3, 1], dtype=np.int32)))
    assert cfg.scales == (1, 3) and all(type(w) is int for w in cfg.scales)


def test_numpy_scalars_are_stored_as_python_numbers(tmp_path):
    cfg = ModelConfig(num_items=np.int64(5), num_users=np.int32(2), latent_dim=np.int64(4),
                      dropout=np.float32(0.25))
    for name in ("num_items", "num_users", "latent_dim"):
        assert type(getattr(cfg, name)) is int, name
    assert type(cfg.dropout) is float and cfg.dropout == 0.25
    path = tmp_path / "model.npz"
    save_checkpoint(path, ParameterStore(cfg))
    assert load_checkpoint(path)[0].config == cfg
    assert type(small_config(dropout=0).dropout) is float


def test_profile_only_config_is_allowed():
    cfg = small_config(scales=())
    assert cfg.scales == ()


# -- parameter store -----------------------------------------------------------


def test_padding_row_starts_zero():
    store = small_store()
    assert np.array_equal(store.item_embeddings.value[0], np.zeros(3))


def test_init_is_deterministic_per_seed():
    a = small_store(seed=5)
    b = small_store(seed=5)
    c = small_store(seed=6)
    for name, p in a.named_parameters().items():
        assert p.value.tobytes() == b.named_parameters()[name].value.tobytes()
    assert a.item_embeddings.value.tobytes() != c.item_embeddings.value.tobytes()


def test_store_without_profile_has_no_user_table():
    store = small_store(use_user_profile=False)
    assert store.user_embeddings is None


def layout_store():
    return small_store(scales=(1, 3), num_layers=2, use_output_gate=True, aggregation="S+S")


def test_init_matches_one_normal_draw_per_tensor():
    store = small_store(seed=3, init_std=0.2, scales=(2, 3), use_output_gate=True)
    rng = rng_streams.stream(3, "init")
    for name, p in store.named_parameters().items():
        expected = np.zeros(p.shape) if "bias" in name else rng.normal(0.0, 0.2, size=p.shape)
        if name in ("item_embeddings", "user_embeddings", "head_weights"):
            expected[0] = 0.0
        assert p.value.tobytes() == expected.tobytes(), name


def test_parameters_are_views_tiling_the_flat_arrays_in_order():
    store = layout_store()
    for flat, attr in ((store.flat_values, "value"), (store.flat_grads, "grad")):
        assert flat.ndim == 1 and flat.flags["C_CONTIGUOUS"]
        lo = 0
        for name, p in store.named_parameters().items():
            view = getattr(p, attr)
            assert view.flags["C_CONTIGUOUS"] and view.shape == p.shape, name
            assert view.base is flat, name
            start = (view.__array_interface__["data"][0]
                     - flat.__array_interface__["data"][0]) // flat.itemsize
            assert start == lo, name  # so views follow each other without overlap
            lo += view.size
        assert lo == flat.size
    assert not np.shares_memory(store.flat_values, store.flat_grads)


def test_zero_grads_clears_and_preserves_values():
    store = layout_store()
    before = store.flat_values.copy()
    for p in store.named_parameters().values():
        p.grad[...] = 1.5
    assert np.all(store.flat_grads == 1.5)
    store.zero_grads()
    assert np.array_equal(store.flat_grads, np.zeros_like(store.flat_grads))
    assert store.flat_values.tobytes() == before.tobytes()
    store.zero_grads()  # idempotent
    assert not store.flat_grads.any()


def test_a_write_through_a_flat_value_view_changes_the_scores():
    store = layout_store()
    contexts = np.array([[3, 1, 4, 1], [5, 9, 2, 6]])
    users = np.array([2, 4])
    candidates = np.array([[7, 8], [10, 11]])
    base, _ = forward_batch(store, contexts, users, candidates)
    rows = {"item_embeddings": 9, "user_embeddings": 4, "head_weights": 11, "head_bias": 11}
    for name, p in store.named_parameters().items():
        flat = p.value.reshape(-1)
        i = rows.get(name, 0) * (p.value.size // p.shape[0])
        orig = flat[i]
        flat[i] = orig + 0.5
        bumped, _ = forward_batch(store, contexts, users, candidates)
        flat[i] = orig
        assert not np.array_equal(bumped.value, base.value), name
    again, _ = forward_batch(store, contexts, users, candidates)
    assert again.value.tobytes() == base.value.tobytes()


def test_copy_owns_its_flat_arrays():
    store = layout_store()
    clone = store.copy()
    assert clone.flat_values.tobytes() == store.flat_values.tobytes()
    for flat in (clone.flat_values, clone.flat_grads):
        assert not np.shares_memory(flat, store.flat_values)
        assert not np.shares_memory(flat, store.flat_grads)
    for name, p in clone.named_parameters().items():
        assert np.shares_memory(p.value, clone.flat_values), name
        assert np.shares_memory(p.grad, clone.flat_grads), name
    clone.head_bias.value[1] += 1.0
    assert clone.head_bias.value[1] != store.head_bias.value[1]


def resident_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmRSS:"))
    return int(line.split()[1]) * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_copy_keeps_only_its_values_resident():
    # 5.0M parameters, so each flat array (40 MB) is past glibc's 32 MB
    # mmap ceiling and comes from the kernel untouched: the copy writes its
    # values and leaves its zero gradients unwritten
    store = ParameterStore(ModelConfig(num_items=13000, num_users=2, scales=(1,)))
    assert store.flat_values.nbytes > 32 << 20
    before = resident_bytes()
    clone = store.copy()
    grown = resident_bytes() - before
    assert 0.9 * clone.flat_values.nbytes < grown < 1.3 * clone.flat_values.nbytes


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_loaded_checkpoint_keeps_only_its_values_resident(tmp_path):
    # as for a copy: the loaded values are the one array read from the file
    store = ParameterStore(ModelConfig(num_items=13000, num_users=2, scales=(1,)))
    path = tmp_path / "model.npz"
    save_checkpoint(path, store)
    before = resident_bytes()
    loaded, _ = load_checkpoint(path)
    grown = resident_bytes() - before
    assert 0.9 * loaded.flat_values.nbytes < grown < 1.1 * loaded.flat_values.nbytes


def test_a_store_over_anothers_values_reads_them_and_accumulates_into_its_own_grads():
    store = layout_store()
    sibling = ParameterStore.over(store.config, store.flat_values)
    assert sibling.flat_values is store.flat_values
    assert not np.shares_memory(sibling.flat_grads, store.flat_grads)
    assert not sibling.flat_grads.any()
    for (name, p), q in zip(store.named_parameters().items(),
                            sibling.named_parameters().values()):
        assert q.value.base is store.flat_values and q.value.shape == p.shape, name
        assert np.shares_memory(q.value, p.value) and q.grad.base is sibling.flat_grads, name
    contexts, users, candidates = np.array([[3, 1, 4, 1]]), np.array([2]), np.array([[7, 8]])
    for s in (store, sibling):
        with ad.record():
            scores, _ = forward_batch(s, contexts, users, candidates)
            loss = ad.sum_all(scores)
        ad.backward(loss)
    assert store.flat_grads.any()
    assert sibling.flat_grads.tobytes() == store.flat_grads.tobytes()


# -- embedding ----------------------------------------------------------------


def test_embed_all_padding_is_zero_matrix():
    store = small_store()
    out = _embed(store, np.array([[0, 0, 0, 0]]))
    assert np.array_equal(out.value, np.zeros((3, 4)))


def test_embed_repeated_id_gives_identical_columns():
    store = small_store()
    out = _embed(store, np.array([[7] * 4])).value
    for t in range(1, 4):
        assert np.array_equal(out[:, t], out[:, 0])


def test_embed_reversal_reverses_columns():
    store = small_store()
    ids = np.array([[3, 5, 9, 2]])
    fwd = _embed(store, ids).value
    rev = _embed(store, ids[:, ::-1]).value
    assert np.array_equal(rev, fwd[:, ::-1])


def test_embed_rejects_out_of_range_id():
    store = small_store()
    with pytest.raises(IndexError):
        _embed(store, np.array([[1, 2, 99, 3]]))


# -- convolution gating ---------------------------------------------------------


def test_zero_filters_give_half_gates():
    x = ad.constant(np.random.default_rng(0).normal(size=(3, 4)))
    gates = gate_matrix(x, [ad.constant(np.zeros((3, 3)))], ad.constant(np.zeros((3, 1))))
    for t in range(4):
        assert np.array_equal(gates.value[:, t:t + 1], np.full((3, 1), 0.5))


def test_conv_gate_hand_value_width_two():
    x = ad.constant([[1.0, 1.0]])
    filters = [ad.constant([[1.0]]), ad.constant([[1.0]])]
    gates = gate_matrix(x, filters, ad.constant([[0.0]]))
    assert gates.value[0, 0] == pytest.approx(SIGMOID_1, abs=1e-12)
    assert gates.value[0, 1] == pytest.approx(SIGMOID_2, abs=1e-12)


def test_gates_ignore_future_columns():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(3, 4))
    filters = [ad.constant(rng.normal(size=(3, 3))) for _ in range(2)]
    bias = ad.constant(rng.normal(size=(3, 1)))
    gates = gate_matrix(ad.constant(base), filters, bias).value
    for t_perturb in range(1, 4):
        bumped = base.copy()
        bumped[:, t_perturb] += rng.normal(size=3)
        new_gates = gate_matrix(ad.constant(bumped), filters, bias).value
        for t in range(t_perturb):
            assert np.array_equal(new_gates[:, t], gates[:, t])


# -- pooling -------------------------------------------------------------------


def test_pool_passthrough_when_gates_zero():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4))
    hidden = _pool(ad.constant(x), ad.constant(np.zeros((3, 4))), None, 1).value
    for t in range(4):
        assert np.array_equal(hidden[:, t], x[:, t])


def test_pool_holds_zero_when_gates_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))
    hidden = _pool(ad.constant(x), ad.constant(np.ones((3, 4))), None, 1).value
    for t in range(4):
        assert np.array_equal(hidden[:, t:t + 1], np.zeros((3, 1)))


def test_pool_half_gates_forced_arithmetic():
    x = ad.constant([[1.0, 1.0, 1.0]])
    hidden = _pool(x, ad.constant([[0.5, 0.5, 0.5]]), None, 1)
    assert hidden.value[0].tolist() == [0.5, 0.75, 0.875]


def test_output_gate_identity_matches_plain_pooling():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    f = ad.constant(rng.uniform(0.1, 0.9, size=(4, 3)).T)  # one (3,) draw per step
    plain = _pool(ad.constant(x), f, None, 1).value
    gated = _pool(ad.constant(x), f, ad.constant(np.ones((3, 4))), 1).value
    for t in range(4):
        assert np.array_equal(plain[:, t], gated[:, t])


def test_output_gate_zero_annihilates():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    f = ad.constant(rng.uniform(0.1, 0.9, size=(4, 3)).T)  # one (3,) draw per step
    hidden = _pool(ad.constant(x), f, ad.constant(np.zeros((3, 4))), 1).value
    for t in range(4):
        assert np.array_equal(hidden[:, t:t + 1], np.zeros((3, 1)))


def test_output_gate_hand_values():
    x = ad.constant([[1.0, 1.0]])
    f = ad.constant([[0.5, 0.5]])
    o = ad.constant([[0.5, 0.5]])
    hidden = _pool(x, f, o, 1)
    assert hidden.value[0].tolist() == [0.25, 0.375]


# -- aggregation -----------------------------------------------------------------


def test_single_state_all_strategies_agree():
    h = ad.constant(np.array([[1.5], [-2.0]]))
    for strategy in ("S+S", "L+S", "L+M", "S+M", "M+M"):
        assert np.array_equal(_aggregate([h], strategy, 1).value, h.value)


def test_sum_sum_equals_total_elementwise_sum():
    rng = np.random.default_rng(6)
    seqs = rng.normal(size=(2, 4, 3)).transpose(0, 2, 1)  # scale, then one (3,) draw per step
    out = _aggregate([ad.constant(seq) for seq in seqs], "S+S", 1).value
    expected = sum(seq[:, t:t + 1] for seq in seqs for t in range(4))
    assert np.allclose(out, expected, rtol=0, atol=1e-15)


def test_mean_mean_two_scales():
    a = ad.constant([[1.0, 3.0], [1.0, 3.0]])
    b = ad.constant(np.full((2, 1), 5.0))
    out = _aggregate([a, b], "M+M", 1).value
    assert np.allclose(out, np.full((2, 1), (2.0 + 5.0) / 2), rtol=0, atol=1e-15)


def test_last_then_sum_uses_final_states():
    a = ad.constant([[1.0, 3.0], [1.0, 3.0]])
    b = ad.constant([[5.0, -1.0], [5.0, -1.0]])
    assert np.array_equal(_aggregate([a, b], "L+S", 1).value, np.full((2, 1), 2.0))


# -- prediction head --------------------------------------------------------------


def test_zero_head_scores_equal_biases():
    store = small_store()
    store.head_weights.value[:] = 0.0
    store.head_bias.value[:] = np.arange(13.0)
    o = ad.constant(np.zeros((3, 2)))
    scores = predict_scores(o, [1, 2], store, [[4, 7], [1, 12]])
    assert np.array_equal(scores.value, [[4.0, 7.0], [1.0, 12.0]])


def test_head_hand_value():
    cfg = ModelConfig(num_items=2, num_users=1, latent_dim=1, seq_len=2, dropout=0.0)
    store = ParameterStore(cfg)
    store.user_embeddings.value[1] = 3.0
    store.head_weights.value[1] = [1.0, 1.0]
    scores = predict_scores(ad.constant([[2.0]]), [1], store, [[1]])
    assert scores.value[0, 0] == 5.0


def test_scoring_is_deterministic_per_candidate():
    store = small_store()
    o = ad.constant(np.random.default_rng(7).normal(size=(3, 1)))
    scores = predict_scores(o, [1], store, [[5, 5]])
    assert scores.value[0, 0] == scores.value[0, 1]


def test_unknown_candidate_raises_index_error():
    store = small_store()
    with pytest.raises(IndexError, match="candidate"):
        predict_scores(ad.constant(np.zeros((3, 1))), [1], store, [[13]])
    with pytest.raises(IndexError, match="candidate"):
        predict_scores(ad.constant(np.zeros((3, 1))), [1], store, [[0]])


def test_unknown_user_raises_index_error():
    store = small_store()
    with pytest.raises(IndexError, match="user"):
        predict_scores(ad.constant(np.zeros((3, 1))), [5], store, [[1]])
    with pytest.raises(IndexError, match="user"):
        predict_scores(ad.constant(np.zeros((3, 1))), [0], store, [[1]])


# -- full forward -----------------------------------------------------------------


def test_eval_forward_is_deterministic():
    store = small_store(dropout=0.5)
    ids = [1, 2, 3, 4]
    first, _ = forward_batch(store, [ids], [2], [[5, 6, 7]])
    second, _ = forward_batch(store, [ids], [2], [[5, 6, 7]])
    assert first.value.tobytes() == second.value.tobytes()


def test_swapping_items_changes_some_score():
    store = small_store(seed=9)
    base, _ = forward_batch(store, [[1, 2, 3, 4]], [1], [[5, 6]])
    swapped, _ = forward_batch(store, [[2, 1, 3, 4]], [1], [[5, 6]])
    assert not np.array_equal(base.value, swapped.value)


def test_single_scale_variant_runs():
    store = small_store(scales=(1,), num_layers=1)
    scores, _ = forward_batch(store, [[1, 2, 3, 4]], [1], [[5, 6]])
    assert scores.value.shape == (1, 2)
    pooled = pooled_values(store, [[1, 2, 3, 4]])  # one (scale, layer)
    assert [hidden.shape for _, _, hidden in pooled] == [(3, 4)]


def test_profile_only_variant_scores_ignore_context():
    store = small_store(scales=())
    a, _ = forward_batch(store, [[1, 2, 3, 4]], [1], [[5, 6]])
    b, _ = forward_batch(store, [[4, 3, 2, 1]], [1], [[5, 6]])
    assert np.array_equal(a.value, b.value)


def test_train_mode_needs_masks_and_uses_dropout():
    store = small_store(dropout=0.5)
    ids = [[1, 2, 3, 4]]
    with pytest.raises(ValueError, match="dropout_masks"):
        forward_batch(store, ids, [1], [[5]], mode="train")
    with pytest.raises(TypeError, match="rng"):
        forward_batch(store, ids, [1], [[5]], mode="train", rng=rng_streams.stream(0, "d"))

    def train(seed):
        masks = dropout_masks(store.config, 1, rng_streams.stream(seed, "d"))
        return forward_batch(store, ids, [1], [[5]], mode="train", masks=masks)[0]

    a, b, c = train(0), train(0), train(1)
    assert a.value.tobytes() == b.value.tobytes()
    assert a.value.tobytes() != c.value.tobytes()


def test_invalid_mode_rejected():
    store = small_store()
    with pytest.raises(ValueError, match="mode"):
        forward_batch(store, [[1, 2, 3, 4]], [1], [[5]], mode="predict")


def test_trace_gates_strictly_inside_unit_interval():
    store = small_store(seed=3, use_output_gate=True, num_layers=2)
    pooled = pooled_values(store, [[0, 1, 2, 3]])
    assert len(pooled) == 4 * 2  # every (scale, layer)
    for forget, output, _ in pooled:
        for g in (forget, output):
            assert np.all(g > 0.0) and np.all(g < 1.0)


def test_hidden_states_stay_in_input_hull():
    # without the output gate every state is a convex mix of 0 and inputs
    rng = np.random.default_rng(12)
    for trial in range(20):
        x = rng.normal(size=(3, 5))
        gates = ad.constant(rng.uniform(size=(5, 3)).T)  # one (3,) draw per step
        hidden = _pool(ad.constant(x), gates, None, 1).value
        for t in range(5):
            lo = np.minimum(0.0, x[:, : t + 1].min(axis=1))
            hi = np.maximum(0.0, x[:, : t + 1].max(axis=1))
            assert np.all(hidden[:, t] >= lo - 1e-12)
            assert np.all(hidden[:, t] <= hi + 1e-12)


def test_forward_causality_across_scales_and_layers():
    store = small_store(seed=4, num_layers=2)
    base_ids = np.array([[1, 2, 3, 4]])
    base = pooled_values(store, base_ids)
    for t_perturb in range(1, 4):
        ids = base_ids.copy()
        ids[0, t_perturb] = 9  # different item from position t_perturb on
        bumped = pooled_values(store, ids)
        for (forget, _, hidden), (other_forget, _, other_hidden) in zip(base, bumped,
                                                                         strict=True):
            for t in range(t_perturb):
                assert np.array_equal(forget[:, t], other_forget[:, t])
                assert np.array_equal(hidden[:, t], other_hidden[:, t])


def test_stacked_layers_change_the_output():
    one = small_store(seed=8, num_layers=1)
    two = small_store(seed=8, num_layers=2)
    a, _ = forward_batch(one, [[1, 2, 3, 4]], [1], [[5]])
    b, _ = forward_batch(two, [[1, 2, 3, 4]], [1], [[5]])
    assert not np.array_equal(a.value, b.value)


# -- end-to-end gradients -----------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(use_output_gate=True),
    dict(num_layers=2, scales=(2, 4)),
    dict(use_user_profile=False, aggregation="L+M"),
])
def test_full_model_gradients_match_finite_differences(overrides):
    cfg = small_config(latent_dim=2, **overrides)
    store, loss_fn, run_tape = model_loss_case(cfg, seed=13)
    run_tape()
    for name, p in store.named_parameters().items():
        numeric = numeric_gradient(loss_fn, p)
        worst = relative_errors(p.grad, numeric).max()
        assert worst < 1e-4, f"{name}: relative error {worst}"


def test_conv_gate_gradients_when_the_filter_is_wider_than_the_sequence():
    # w = 4 taps over L = 2 steps: only the two newest taps reach any column
    rng = np.random.default_rng(14)
    x = ad.parameter(rng.normal(size=(3, 2)))
    filters = [ad.parameter(rng.normal(size=(3, 3))) for _ in range(4)]
    bias = ad.parameter(rng.normal(size=(3, 1)))
    weights = ad.constant(rng.normal(size=(2, 3)).T)  # one (3,) draw per step

    def build():
        return ad.sum_all(ad.mul(gate_matrix(x, filters, bias), weights))

    with ad.record():
        root = build()
    ad.backward(root)
    assert not filters[0].grad.any() and not filters[1].grad.any()
    for p in (x, *filters, bias):
        numeric = numeric_gradient(lambda: build().item(), p)
        assert relative_errors(p.grad, numeric).max() < 1e-6


# -- whole-sequence graph ---------------------------------------------------------------


def _scores_and_grads(store, build):
    store.zero_grads()
    with ad.record():
        scores = build()
        root = ad.sum_all(ad.softplus(scores))
    ad.backward(root)
    return scores.value, {n: p.grad.copy() for n, p in store.named_parameters().items()}


@pytest.mark.parametrize("overrides", [
    dict(aggregation="S+S"),
    dict(aggregation="L+S"),
    dict(aggregation="L+M"),
    dict(aggregation="S+M"),
    dict(aggregation="M+M"),
    dict(aggregation="S+S", num_layers=1, use_output_gate=False, scales=None),
], ids=["S+S", "L+S", "L+M", "S+M", "M+M", "one-layer-all-scales"])
def test_forward_batch_matches_the_per_timestep_oracle(overrides):
    base = dict(num_items=15, num_users=6, latent_dim=4, seq_len=5, scales=(1, 2, 5),
                num_layers=2, use_output_gate=True, dropout=0.0)
    cfg = ModelConfig(**{**base, **overrides})
    store = ParameterStore(cfg, rng_streams.stream(31, "init"), init_std=0.4)
    rng = np.random.default_rng(31)
    ids = rng.integers(0, 16, size=(7, 5))
    users = rng.integers(1, 7, size=7)
    cands = rng.integers(1, 16, size=(7, 4))
    scores, grads = _scores_and_grads(store, lambda: forward_batch(store, ids, users, cands)[0])
    ref_scores, ref_grads = _scores_and_grads(
        store, lambda: reference_forward(store, ids, users, cands))
    assert np.abs(scores - ref_scores).max() <= 1e-12 * np.abs(ref_scores).max()
    for name, ref in ref_grads.items():
        gap = np.abs(grads[name] - ref).max()
        assert gap <= 1e-12 * np.abs(ref).max(), f"{name}: gap {gap}"


def test_training_step_records_one_entry_per_stage():
    # default architecture: seq_len 5, scales 1..5, dropout; the count does
    # not grow with the batch
    counts = []
    for batch in (3, 40):
        cfg = ModelConfig(num_items=30, num_users=10, latent_dim=4)
        store = ParameterStore(cfg, rng_streams.stream(2, "init"))
        rng = np.random.default_rng(batch)
        ids = rng.integers(0, 31, size=(batch, 5))
        users = rng.integers(1, 11, size=batch)
        cands = rng.integers(1, 31, size=(batch, 4))
        with ad.record() as tape:
            scores, _ = forward_batch(store, ids, users, cands, mode="train",
                                      masks=dropout_masks(cfg, batch,
                                                          rng_streams.stream(2, "dropout")))
            bce_loss(ad.slice_cols(scores, 0, 1), ad.slice_cols(scores, 1, 4))
        counts.append(len(tape.records))
    assert counts[0] == counts[1] <= 90


def test_each_gate_and_pool_of_a_training_step_keeps_one_array(monkeypatch):
    # default architecture: every record of a gate (its tap GEMMs, tap sum,
    # bias and sigmoid) shares the sigmoid's array, and each pool's scan
    # writes its cells into its (1 - f) * x array
    cfg = ModelConfig(num_items=30, num_users=10)
    store = ParameterStore(cfg, rng_streams.stream(2, "init"))
    rng = np.random.default_rng(4)
    stages = []

    def recorded(kind, real):
        def stage(*args):
            records = ad._active_tape().records
            start = len(records)
            out = real(*args)
            stages.append((kind, [(step.__qualname__.split(".")[0], t.value)
                                  for t, step in records[start:]]))
            return out
        return stage

    monkeypatch.setattr(model, "_conv_gate", recorded("gate", model._conv_gate))
    monkeypatch.setattr(model, "_pool", recorded("pool", model._pool))
    with ad.record():
        forward_batch(store, rng.integers(0, 31, size=(6, 5)), rng.integers(1, 11, size=6),
                      rng.integers(1, 31, size=(6, 4)), mode="train",
                      masks=dropout_masks(cfg, 6, rng_streams.stream(2, "dropout")))
    gates = [ops for kind, ops in stages if kind == "gate"]
    pools = [ops for kind, ops in stages if kind == "pool"]
    assert len(gates) == len(pools) == 5
    for w, ops in zip(cfg.scales, gates):
        names = [name for name, _ in ops]
        assert names == ["matmul"] * w + ["shifted_sum"] * (w > 1) + ["add_col", "sigmoid"]
        assert all(np.shares_memory(value, ops[-1][1]) for _, value in ops), names
    for ops in pools:
        (one_minus, gap), (mul, take), (scan, cell) = ops
        assert (one_minus, mul, scan) == ("one_minus", "mul", "gated_scan")
        assert take is cell and not np.shares_memory(gap, cell)


@pytest.mark.parametrize("profile", [True, False], ids=["profile", "no-profile"])
def test_forward_batch_scores_are_bit_equal_on_and_off_the_tape(profile):
    # a catalogue small enough that ModelScorer would score it with its GEMM
    cfg = ModelConfig(num_items=60, num_users=8, latent_dim=16, num_layers=2,
                      use_output_gate=True, use_user_profile=profile, aggregation="L+M",
                      dropout=0.0)
    assert cfg.num_items + 1 <= HEAD_GEMM_ROWS_PER_CANDIDATE * 3
    store = ParameterStore(cfg, rng_streams.stream(23, "init"), init_std=0.3)
    rng = np.random.default_rng(23)
    ids = rng.integers(0, 61, size=(20, 5))
    users = rng.integers(1, 9, size=20)
    cands = rng.integers(1, 61, size=(20, 3))
    off = forward_batch(store, ids, users, cands)[0].value
    with ad.record():
        on = forward_batch(store, ids, users, cands)[0].value
    assert on.tobytes() == off.tobytes()


# -- evaluation scoring --------------------------------------------------------------


@pytest.mark.parametrize("profile", [True, False], ids=["profile", "no-profile"])
@pytest.mark.parametrize("head_path", ["gemm", "gather"])
def test_model_scorer_matches_the_taped_forward(monkeypatch, head_path, profile):
    # 201 head rows: the fewest candidates that take the GEMM, or one fewer
    num_candidates = -(-201 // HEAD_GEMM_ROWS_PER_CANDIDATE) - (head_path == "gather")
    cfg = ModelConfig(num_items=200, num_users=40, latent_dim=8, num_layers=2,
                      use_output_gate=True, use_user_profile=profile, aggregation="L+M",
                      dropout=0.0)
    store = ParameterStore(cfg, rng_streams.stream(17, "init"), init_std=0.3)
    rng = np.random.default_rng(17)
    n = SCORE_CHUNK + 9  # a full chunk and a short one
    ids = rng.integers(0, 201, size=(n, 5))
    users = rng.integers(1, 41, size=n)
    cands = rng.integers(1, 201, size=(n, num_candidates))
    cands[4, 1:] = cands[4, 1]  # repeated negatives, as uniform draws give
    gathers = []
    rows_dot_cols = ad.rows_dot_cols
    monkeypatch.setattr(ad, "rows_dot_cols", lambda *a: gathers.append(1) or rows_dot_cols(*a))

    scored = ModelScorer(store).score_batch(users, ids, cands)
    assert bool(gathers) == (head_path == "gather")
    with ad.record():
        taped = forward_batch(store, ids, users, cands)[0].value
    assert np.linalg.norm(scored - taped) <= 1e-12 * np.linalg.norm(taped)
    assert np.array_equal(target_ranks(scored), target_ranks(taped))
    assert np.unique(scored[4, 1:]).size == 1


def test_eval_scoring_with_saturated_gates_emits_no_warning():
    cfg = ModelConfig(num_items=20, num_users=4, latent_dim=4, scales=(1, 3), num_layers=2,
                      use_output_gate=True, dropout=0.0)
    store = ParameterStore(cfg, rng_streams.stream(5, "init"), init_std=30.0)
    rng = np.random.default_rng(5)
    ids = rng.integers(1, 21, size=(6, 5))
    (tap,), _ = store.gate("forget", 1, 0)
    pre = tap.value @ store.item_embeddings.value[ids.ravel()].T
    assert pre.max() > 745.0 and pre.min() < -745.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = ModelScorer(store).score_batch(rng.integers(1, 5, size=6), ids,
                                                rng.integers(1, 21, size=(6, 4)))
    assert np.isfinite(scores).all()


# -- checkpoints ---------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    store = small_store(seed=21, use_output_gate=True, num_layers=2)
    path = tmp_path / "model.npz"
    save_checkpoint(path, store, extra={"seed": 21})
    loaded, extra = load_checkpoint(path)
    assert extra == {"seed": 21}
    assert loaded.config == store.config
    for name, p in store.named_parameters().items():
        assert loaded.named_parameters()[name].value.tobytes() == p.value.tobytes()


def test_loaded_checkpoint_owns_its_flat_arrays(tmp_path):
    store = layout_store()
    path = tmp_path / "model.npz"
    save_checkpoint(path, store)
    first, _ = load_checkpoint(path)
    second, _ = load_checkpoint(path)
    assert first.flat_values.tobytes() == store.flat_values.tobytes()
    assert not np.shares_memory(first.flat_values, second.flat_values)
    for name, p in first.named_parameters().items():
        assert np.shares_memory(p.value, first.flat_values), name
        assert np.shares_memory(p.grad, first.flat_grads), name


def test_a_loaded_store_is_over_the_array_read_from_the_file(tmp_path, monkeypatch):
    path = tmp_path / "model.npz"
    save_checkpoint(path, layout_store())
    read = {}
    getitem = np.lib.npyio.NpzFile.__getitem__

    def recording(bundle, key):
        read[key] = getitem(bundle, key)
        return read[key]
    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
    loaded, _ = load_checkpoint(path)
    assert loaded.flat_values is read["values"]


@pytest.mark.parametrize("edit, named", [
    (lambda arrays: arrays.update(extra=np.zeros(1)), "members ['__meta__', 'extra', 'values']"),
    (lambda arrays: arrays.pop("values"), "members ['__meta__']"),
    (lambda arrays: arrays.update(values=arrays["values"][:-1]), "shape (312,)"),
    (lambda arrays: arrays.update(values=np.append(arrays["values"], 0.0)), "shape (314,)"),
    (lambda arrays: arrays.update(values=arrays["values"].reshape(1, -1)), "shape (1, 313)"),
], ids=["extra-member", "no-values", "short", "long", "2-d"])
def test_checkpoint_values_must_be_one_vector_of_the_configs_size(tmp_path, edit, named):
    path = tmp_path / "model.npz"
    save_checkpoint(path, layout_store())
    rewrite_checkpoint(path, lambda meta, arrays: edit(arrays))
    with pytest.raises(CompatibilityError, match="model.npz: ") as err:
        load_checkpoint(path)
    assert named in str(err.value)


def test_checkpoint_values_load_in_either_byte_order(tmp_path):
    store = layout_store()
    path = tmp_path / "model.npz"
    save_checkpoint(path, store)
    swapped = store.flat_values.astype(store.flat_values.dtype.newbyteorder())
    rewrite_checkpoint(path, lambda meta, arrays: arrays.update(values=swapped))
    loaded, _ = load_checkpoint(path)
    assert loaded.flat_values.dtype == np.float64
    assert loaded.flat_values.tobytes() == store.flat_values.tobytes()


def test_checkpoint_metadata_format_is_pinned(tmp_path):
    cfg = small_config(latent_dim=2, scales=(3, 1), num_layers=2, use_output_gate=True,
                       use_user_profile=False, aggregation="L+M", dropout=0.25)
    path = tmp_path / "model.npz"
    save_checkpoint(path, ParameterStore(cfg), extra={"seed": 7})
    with np.load(path) as bundle:
        meta = str(bundle["__meta__"])
        assert bundle.files == ["__meta__", "values"]
    assert meta == (
        '{"config": {"aggregation": "L+M", "dropout": 0.25, "latent_dim": 2, "num_items": 12, '
        '"num_layers": 2, "num_users": 4, "scales": [1, 3], "seq_len": 4, '
        '"use_output_gate": true, "use_user_profile": false}, '
        '"extra": {"seed": 7}, "format_version": 2}'
    )
    assert load_checkpoint(path)[0].config == cfg


# (name, offset, shape) of every parameter in the checkpoint's `values`
# vector for layout_store()'s config. A checkpoint stores the bare vector,
# so a change to this layout must come with a new CHECKPOINT_VERSION.
LAYOUT_STORE_V2 = [
    ("item_embeddings", 0, (13, 3)), ("user_embeddings", 39, (5, 3)),
    ("forget_w1_l0_k0", 54, (3, 3)), ("forget_bias_w1_l0", 63, (3, 1)),
    ("output_w1_l0_k0", 66, (3, 3)), ("output_bias_w1_l0", 75, (3, 1)),
    ("forget_w1_l1_k0", 78, (3, 3)), ("forget_bias_w1_l1", 87, (3, 1)),
    ("output_w1_l1_k0", 90, (3, 3)), ("output_bias_w1_l1", 99, (3, 1)),
    ("forget_w3_l0_k0", 102, (3, 3)), ("forget_w3_l0_k1", 111, (3, 3)),
    ("forget_w3_l0_k2", 120, (3, 3)), ("forget_bias_w3_l0", 129, (3, 1)),
    ("output_w3_l0_k0", 132, (3, 3)), ("output_w3_l0_k1", 141, (3, 3)),
    ("output_w3_l0_k2", 150, (3, 3)), ("output_bias_w3_l0", 159, (3, 1)),
    ("forget_w3_l1_k0", 162, (3, 3)), ("forget_w3_l1_k1", 171, (3, 3)),
    ("forget_w3_l1_k2", 180, (3, 3)), ("forget_bias_w3_l1", 189, (3, 1)),
    ("output_w3_l1_k0", 192, (3, 3)), ("output_w3_l1_k1", 201, (3, 3)),
    ("output_w3_l1_k2", 210, (3, 3)), ("output_bias_w3_l1", 219, (3, 1)),
    ("head_weights", 222, (13, 6)), ("head_bias", 300, (13,)),
]


def test_the_layout_a_checkpoint_is_read_with_is_pinned_to_its_version():
    store = layout_store()
    layout = [(name, (p.value.__array_interface__["data"][0]
                      - store.flat_values.__array_interface__["data"][0]) // 8, p.shape)
              for name, p in store.named_parameters().items()]
    assert model.CHECKPOINT_VERSION == 2
    assert layout == LAYOUT_STORE_V2
    assert store.flat_values.size == 313


def test_saved_values_are_the_v1_members_end_to_end(tmp_path):
    store = layout_store()
    path = tmp_path / "model.npz"
    save_checkpoint(path, store)
    with np.load(path) as bundle:
        values = bundle["values"]
    # one array per name, as v1 checkpoints held them, concatenated in layout order
    members = np.concatenate([p.value.ravel() for p in store.named_parameters().values()])
    assert values.dtype == np.float64 and values.tobytes() == members.tobytes()
    # the same bytes a v1 checkpoint of this seeded store held, member after member
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "ad47015cb8604b6eafe86d27a08af4218b87ef8438ed1cdc8ebab588f8cb02b0")


@pytest.mark.parametrize("drop, add, named", [
    ((), {"window": 3}, "unknown ['window']"),
    (("dropout", "aggregation"), None, "missing ['aggregation', 'dropout']"),
    ((), {"latent_dim": "x"}, "wrong type ['latent_dim']"),
    ((), {"latent_dim": 4.5}, "wrong type ['latent_dim']"),
    ((), {"scales": 5}, "wrong type ['scales']"),
    ((), {"dropout": "0.5", "aggregation": 3}, "wrong type ['aggregation', 'dropout']"),
    ((), {"latent_dim": 0}, "latent_dim must be positive"),
], ids=["unknown", "missing", "latent-dim-str", "latent-dim-float", "scales-int",
        "dropout-str-aggregation-int", "latent-dim-zero"])
def test_checkpoint_config_keys_must_match(tmp_path, drop, add, named):
    path = tmp_path / "model.npz"
    save_checkpoint(path, small_store(), extra={"seed": 1})
    rewrite_config_keys(path, drop=drop, add=add)
    with pytest.raises(CompatibilityError, match="not a model checkpoint") as err:
        load_checkpoint(path)
    assert named in str(err.value)


@pytest.mark.parametrize("version", [1, True, 2.0, "2\n1"])  # "2\n1": the message stays one line
def test_checkpoint_rejects_a_version_that_is_not_the_int_2(tmp_path, version):
    path = tmp_path / "model.npz"
    save_checkpoint(path, small_store())
    rewrite_checkpoint(path, lambda meta, arrays: meta.update(format_version=version))
    with pytest.raises(CompatibilityError, match="checkpoint format version .* not supported"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, value):
    store = small_store()
    store.head_bias.value[2] = value
    path = tmp_path / "model.npz"
    save_checkpoint(path, store)
    with pytest.raises(CompatibilityError, match="parameter head_bias holds non-finite values"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_npz(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, values=np.zeros(3))
    with pytest.raises(CompatibilityError):
        load_checkpoint(path)


BAD_METADATA = {
    "meta-not-json": "{not json",
    "meta-not-an-object": "[1, 2]",
    "meta-no-version": '{"config": {}, "extra": {}}',
    "meta-no-config": '{"format_version": 1, "extra": {}}',
    "meta-config-not-an-object": '{"format_version": 1, "config": 5, "extra": {}}',
    "meta-no-extra": '{"format_version": 1, "config": {}}',
    "meta-extra-not-an-object": '{"format_version": 1, "config": {}, "extra": []}',
    "meta-nested-past-the-recursion-limit": "[" * 1000 + "]" * 1000,
}


@pytest.mark.parametrize("content", ["empty", "truncated", "text", "npy", *BAD_METADATA])
def test_checkpoint_rejects_a_file_that_is_not_an_npz(tmp_path, content):
    path = tmp_path / "model.npz"
    if content in BAD_METADATA:
        save_checkpoint(path, small_store())
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        arrays["__meta__"] = np.array(BAD_METADATA[content])
        np.savez(path, **arrays)
    elif content == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    elif content == "truncated":
        save_checkpoint(path, small_store())
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
    else:
        path.write_text("" if content == "empty" else "seed = 1\n")
    with pytest.raises(CompatibilityError, match="not a model checkpoint"):
        load_checkpoint(path)
