"""Numeric core: op semantics, tape mechanics, gradients vs finite differences."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from qrseq import autodiff as ad
from helpers import numeric_gradient, relative_errors


def test_matmul_identity():
    a = ad.constant(np.eye(2))
    b = ad.constant([[3.0], [4.0]])
    assert np.array_equal(ad.matmul(a, b).value, [[3.0], [4.0]])


def test_matmul_zero():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[0.0], [0.0]])
    assert np.array_equal(ad.matmul(a, b).value, [[0.0], [0.0]])


def test_matmul_hand_value():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[5.0], [6.0]])
    assert np.array_equal(ad.matmul(a, b).value, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError) as err:
        ad.matmul(a, b)
    assert "(2, 3)" in str(err.value)
    assert str(err.value).count("(2, 3)") == 2


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(ad.constant([0.0])).value[0] == 0.5


def test_sigmoid_saturation_stays_inside_unit_interval():
    hi = ad.sigmoid(ad.constant([500.0])).value[0]
    lo = ad.sigmoid(ad.constant([-500.0])).value[0]
    assert 1.0 - 1e-12 < hi < 1.0
    assert 0.0 < lo < 1e-12


def test_sigmoid_closed_form():
    out = ad.sigmoid(ad.constant([np.log(3.0)])).value[0]
    assert out == pytest.approx(0.75, abs=1e-15)


def test_sigmoid_strictly_open_interval_for_extreme_inputs():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0, 200, 100),
                        [-1e6, 1e6, -745.0, 745.0, -800.0, 800.0, -np.inf, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(-x) overflowing for x < -709 is expected
        out = ad.sigmoid(ad.constant(x)).value
    assert np.all(out > 0.0) and np.all(out < 1.0)
    assert np.all(np.isfinite(out))


def test_sigmoid_keeps_nan():
    out = ad.sigmoid(ad.constant([np.nan, 0.0, -np.nan])).value
    assert np.isnan(out[0]) and out[1] == 0.5 and np.isnan(out[2])


def test_sigmoid_gradient_into_saturation():
    x = np.random.default_rng(31).normal(0, 12, size=(4, 6))
    _check_op_gradient(lambda t: ad.sigmoid(t), x)


def test_mul_zero_annihilator():
    out = ad.mul(ad.constant([1.0, 2.0]), ad.constant([0.0, 0.0]))
    assert np.array_equal(out.value, [0.0, 0.0])


def test_add_negation_cancels():
    x = ad.constant([1.5, -2.0, 3.25])
    assert np.array_equal(ad.add(x, ad.neg(x)).value, [0.0, 0.0, 0.0])


def test_concat_rows_flat():
    out = ad.concat_rows(ad.constant([1.0, 2.0]), ad.constant([3.0]))
    assert np.array_equal(out.value, [1.0, 2.0, 3.0])


def test_elementwise_shape_error():
    with pytest.raises(ValueError) as err:
        ad.add(ad.constant([1.0]), ad.constant([1.0, 2.0]))
    assert "(1,)" in str(err.value) and "(2,)" in str(err.value)


def test_backward_of_sum_is_ones():
    x = ad.parameter(np.array([[1.0, -2.0], [0.5, 3.0]]))
    with ad.record():
        root = ad.sum_all(x)
    ad.backward(root)
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_of_quadratic():
    x = ad.parameter([3.0])
    with ad.record():
        root = ad.sum_all(ad.mul(x, x))
    ad.backward(root)
    assert np.array_equal(x.grad, [6.0])


def test_backward_requires_scalar_root():
    x = ad.parameter([1.0, 2.0])
    with ad.record():
        y = ad.mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(y)


def test_backward_requires_taped_root():
    x = ad.parameter([1.0])
    with pytest.raises(ValueError, match="tape"):
        ad.backward(x)


def test_backward_accumulation_is_linear():
    # backward on two roots of one tape == sum of separate passes
    value = np.array([0.3, -1.2, 2.0])
    x = ad.parameter(value.copy())
    with ad.record():
        r1 = ad.sum_all(ad.mul(x, x))
        r2 = ad.sum_all(ad.sigmoid(x))
    ad.backward(r1)
    ad.backward(r2)
    combined = x.grad.copy()

    xa = ad.parameter(value.copy())
    with ad.record():
        ra = ad.sum_all(ad.mul(xa, xa))
    ad.backward(ra)
    xb = ad.parameter(value.copy())
    with ad.record():
        rb = ad.sum_all(ad.sigmoid(xb))
    ad.backward(rb)
    assert np.allclose(combined, xa.grad + xb.grad, rtol=0, atol=1e-15)


def test_parameter_accumulates_into_a_given_gradient_view():
    flat = np.zeros(7)
    x = ad.parameter([2.0, 4.0], grad=flat[2:4])
    with ad.record():
        loss = ad.sum_all(ad.mul(x, x))
    ad.backward(loss)
    assert x.grad.base is flat
    assert np.array_equal(flat, [0.0, 0.0, 4.0, 8.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="gradient buffer"):
        ad.parameter([2.0, 4.0], grad=flat[:3])


def test_parameter_makes_a_zero_filled_writable_gradient_buffer():
    value = np.arange(6.0).reshape(2, 3)
    p = ad.parameter(value)
    assert p.requires_grad and p.grad.shape == (2, 3) and p.grad.dtype == np.float64
    assert p.grad.flags.writeable and not p.grad.any()
    assert not np.shares_memory(p.grad, p.value)
    t = ad.Tensor(value)
    assert not t.requires_grad and t.grad is None


def test_a_step_that_writes_into_its_upstream_adjoint_fails():
    # g may be shared with other inputs, so backward hands it over read-only
    p = ad.parameter([1.0, 2.0])
    q = ad.parameter([3.0, 4.0])

    def step(g):
        ad._accumulate(p, g)
        g *= 2.0  # not the step's to write: other inputs may hold it
        ad._accumulate(q, g)

    with ad.record():
        out = ad._track(ad.Tensor(p.value + q.value), (p, q), step)
        root = ad.sum_all(ad.mul(out, out))
    with pytest.raises(ValueError, match="read-only"):
        ad.backward(root)


def test_operations_are_deterministic():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    first = ad.matmul(ad.constant(a), ad.constant(b)).value
    second = ad.matmul(ad.constant(a), ad.constant(b)).value
    assert first.tobytes() == second.tobytes()


def _check_op_gradient(build, *param_values, eps=1e-5, tol=1e-6):
    """Compare tape gradients of sum(build(*params)) against finite differences."""
    params = [ad.parameter(np.asarray(v, dtype=float)) for v in param_values]
    with ad.record():
        root = ad.sum_all(build(*params))
    ad.backward(root)

    def loss():
        return ad.sum_all(build(*params)).item()

    for p in params:
        numeric = numeric_gradient(loss, p, eps)
        assert relative_errors(p.grad, numeric).max() < tol


def test_gradients_of_simple_ops():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    c = rng.normal(size=(3, 4))
    _check_op_gradient(lambda x, y: ad.matmul(x, y), a, b)
    _check_op_gradient(lambda x, y: ad.mul(x, y), a, c)
    _check_op_gradient(lambda x: ad.sigmoid(x), a)
    _check_op_gradient(lambda x: ad.softplus(x), 3.0 * a)
    _check_op_gradient(lambda x: ad.one_minus(x), a)
    _check_op_gradient(lambda x: ad.scale(x, -2.5), a)
    _check_op_gradient(lambda x, y: ad.concat_rows(x, y), a, c)
    _check_op_gradient(lambda x: ad.transpose(x), a)
    _check_op_gradient(lambda x: ad.slice_cols(x, 1, 3), a)
    _check_op_gradient(lambda x, y: ad.add_col(x, y), a, rng.normal(size=(3, 1)))


def test_gradients_of_gather_ops_with_duplicate_indices():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(6, 3))
    idx = np.array([0, 2, 2, 5, 0])
    _check_op_gradient(lambda t: ad.take_rows(t, idx), table)

    vec = rng.normal(size=7)
    vidx = np.array([[1, 1], [6, 0]])
    _check_op_gradient(lambda v: ad.gather(v, vidx), vec)

    w = rng.normal(size=(5, 4))
    z = rng.normal(size=(4, 3))
    cidx = np.array([[0, 3, 3], [1, 1, 2], [4, 0, 4]])
    _check_op_gradient(lambda a, b: ad.rows_dot_cols(a, cidx, b), w, z)


def test_rows_dot_cols_matches_direct_computation():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(6, 4))
    z = rng.normal(size=(4, 2))
    idx = np.array([[1, 5], [0, 3]])
    out = ad.rows_dot_cols(ad.constant(w), idx, ad.constant(z)).value
    for b in range(2):
        for c in range(2):
            assert out[b, c] == pytest.approx(w[idx[b, c]] @ z[:, b], rel=1e-12)


def test_take_rows_bounds_error():
    t = ad.constant(np.zeros((3, 2)))
    with pytest.raises(IndexError, match="out of range"):
        ad.take_rows(t, [0, 3])


def test_random_composite_graphs_match_finite_differences():
    # layered compositions of the full op set against the numeric oracle
    rng = np.random.default_rng(11)
    for trial in range(5):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x = ad.parameter(rng.normal(size=(n, m)))
        w = ad.parameter(rng.normal(size=(n, n)))
        bias = ad.parameter(rng.normal(size=(n, 1)))

        def build(x=x, w=w, bias=bias):
            h = ad.sigmoid(ad.add_col(ad.matmul(w, x), bias))
            g = ad.mul(ad.one_minus(h), x)
            stacked = ad.concat_rows(h, g)
            return ad.softplus(ad.scale(stacked, 0.7))

        with ad.record():
            root = ad.sum_all(build())
        ad.backward(root)

        def loss():
            return ad.sum_all(build()).item()

        for p in (x, w, bias):
            numeric = numeric_gradient(loss, p)
            assert relative_errors(p.grad, numeric).max() < 1e-6


# -- lazily created adjoints: shared read-only, freed after use -------------------


def test_add_of_an_intermediate_to_itself():
    p = ad.parameter([0.5, -1.5, 2.0])
    c = np.array([1.0, 3.0, -2.0])
    with ad.record():
        h = ad.mul(p, p)
        root = ad.sum_all(ad.mul(ad.add(h, h), ad.constant(c)))
    ad.backward(root)
    assert np.array_equal(p.grad, 4.0 * p.value * c)


def test_add_of_intermediates_that_receive_more_contributions():
    # a and b are also consumed before the add, so the add's step hands them
    # their first contributions and the earlier consumers' steps add more:
    # the input that takes the add's adjoint must not share it with the other
    rng = np.random.default_rng(21)

    def build(p, q):
        a = ad.sigmoid(p)
        b = ad.mul(p, q)
        early = ad.sum_all(ad.mul(ad.mul(a, b), a))
        s = ad.add(a, b)
        return ad.add(early, ad.sum_all(ad.mul(s, s)))

    _check_op_gradient(build, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))


def test_intermediate_consumed_by_three_ops():
    x = np.array([[0.3, -1.1], [2.0, 0.0]])
    c = np.array([[1.0, -2.0], [0.5, 4.0]])
    p = ad.parameter(x.copy())
    with ad.record():
        h = ad.sigmoid(p)
        root = ad.add(
            ad.add(ad.sum_all(ad.mul(h, ad.constant(c))), ad.sum_all(ad.scale(h, 2.0))),
            ad.sum_all(ad.transpose(h)),
        )
    ad.backward(root)
    s = 1.0 / (1.0 + np.exp(-x))
    assert np.allclose(p.grad, s * (1.0 - s) * (c + 3.0), rtol=1e-14, atol=0)


def test_concat_transpose_matmul_chain():
    # the halves take disjoint views of one transposed adjoint, then both
    # receive more contributions through their other uses
    rng = np.random.default_rng(22)

    def build(p, q, w):
        a = ad.sigmoid(p)
        b = ad.softplus(q)
        side = ad.sum_all(ad.mul(ad.matmul(ad.transpose(b), a), ad.constant(np.ones((3, 3)))))
        y = ad.matmul(ad.transpose(ad.concat_rows(a, b)), w)
        return ad.add(side, ad.sum_all(ad.mul(y, y)))

    _check_op_gradient(build, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)),
                       rng.normal(size=(4, 5)))


def test_add_col_with_a_column_used_elsewhere():
    rng = np.random.default_rng(23)

    def build(x, pc):
        col = ad.sigmoid(pc)
        y = ad.add_col(ad.mul(x, x), col)
        other = ad.sum_all(ad.mul(col, ad.scale(col, 2.0)))
        return ad.add(ad.sum_all(ad.softplus(y)), other)

    _check_op_gradient(build, rng.normal(size=(3, 4)), rng.normal(size=(3, 1)))


def test_backward_frees_adjoints_and_leaf_grads_accumulate_across_roots():
    x = np.array([0.4, -0.7, 1.9])
    p = ad.parameter(x.copy())
    with ad.record() as tape:
        h = ad.mul(p, p)
        r1 = ad.sum_all(h)
        r2 = ad.sum_all(ad.scale(h, 3.0))
    ad.backward(r1)
    assert all(out.grad is None for out, _ in tape.records)
    assert np.array_equal(p.grad, 2.0 * x)
    ad.backward(r2)
    assert all(out.grad is None for out, _ in tape.records)
    assert np.allclose(p.grad, 8.0 * x, rtol=1e-15, atol=0)


def test_records_that_do_not_reach_the_root_are_skipped():
    p = ad.parameter([1.0, -2.0])
    with ad.record() as tape:
        ad.mul(p, ad.constant([np.inf, np.inf]))
        scaled = ad.scale(p, 2.0)
        root = ad.sum_all(scaled)
        ad.sigmoid(p)
    ran = []
    for i, (out, step) in enumerate(tape.records):
        tape.records[i] = (out, lambda g, out=out, step=step: (ran.append(out), step(g)))
    ad.backward(root)
    assert ran == [root, scaled]
    # a zero adjoint pushed through the dead branch would give 0 * inf = nan
    assert np.array_equal(p.grad, [2.0, 2.0])


# -- logistic and scatter kernels ----------------------------------------------------


def test_logistic_matches_the_select_formula_to_the_bit():
    rng = np.random.default_rng(30)
    x = np.concatenate([
        rng.normal(0, 1, 1000), rng.normal(0, 50, 1000),
        [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300],
    ])
    e = np.exp(-np.abs(x))
    select = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert ad._logistic(x, e).tobytes() == select.tobytes()
    nan = np.array([np.nan])
    assert np.isnan(ad._logistic(nan, np.exp(-np.abs(nan)))).all()


def test_scatter_add_matches_add_at_on_repeated_indices():
    # reduceat sums each index's rows before adding them to the target, so
    # the result agrees with np.add.at to rounding, not to the bit
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        idx = rng.integers(0, 7, size=n)
        rows = rng.normal(size=(n, 4))
        start = rng.normal(size=(7, 4))
        expected = start.copy()
        np.add.at(expected, idx, rows)
        got = start.copy()
        ad._scatter_add(got, idx, rows)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)
        flat_expected = start[:, 0].copy()
        np.add.at(flat_expected, idx, rows[:, 0])
        flat = start[:, 0].copy()
        ad._scatter_add(flat, idx, rows[:, 0])
        assert np.allclose(flat, flat_expected, rtol=1e-13, atol=1e-13)
    untouched = start.copy()
    ad._scatter_add(untouched, np.zeros(0, dtype=np.intp), np.zeros((0, 4)))
    assert np.array_equal(untouched, start)


# -- whole-sequence ops ------------------------------------------------------------


def test_shifted_sum_adds_each_column_in_list_order():
    rng = np.random.default_rng(32)
    batch, steps = 3, 4
    terms = [rng.normal(size=(2, (steps - k) * batch)) for k in (2, 1, 0)]
    out = ad.shifted_sum([ad.constant(t) for t in terms], [2 * batch, batch, 0]).value
    for col in range(steps * batch):
        total = None
        for k, t in zip((2, 1, 0), terms):
            if col >= k * batch:
                v = t[:, col - k * batch]
                total = v if total is None else total + v
        assert out[:, col].tobytes() == total.tobytes()


def test_shifted_sum_rejects_bad_offsets_and_shapes():
    a = ad.constant(np.zeros((2, 4)))
    b = ad.constant(np.zeros((2, 6)))
    with pytest.raises(ValueError, match="decrease to 0"):
        ad.shifted_sum([b, a], [0, 2])
    with pytest.raises(ValueError, match="decrease to 0"):
        ad.shifted_sum([a, b], [2, 1])
    with pytest.raises(ValueError, match="shape"):
        ad.shifted_sum([a, b], [3, 0])


def test_gated_scan_matches_the_stepwise_recurrence():
    rng = np.random.default_rng(33)
    batch, steps = 2, 4
    f = rng.uniform(size=(3, steps * batch))
    take = rng.normal(size=(3, steps * batch))
    out = ad.gated_scan(ad.constant(f), ad.constant(take), batch).value
    cell = take[:, :batch]
    assert out[:, :batch].tobytes() == cell.tobytes()
    for t in range(1, steps):
        cols = slice(t * batch, (t + 1) * batch)
        cell = f[:, cols] * cell + take[:, cols]
        assert out[:, cols].tobytes() == cell.tobytes()
    with pytest.raises(ValueError, match="blocks"):
        ad.gated_scan(ad.constant(f), ad.constant(take), 3)


def test_sum_col_blocks_sums_in_time_order():
    rng = np.random.default_rng(34)
    a = rng.normal(size=(3, 8))
    out = ad.sum_col_blocks(ad.constant(a), 2).value
    assert out.tobytes() == (((a[:, 0:2] + a[:, 2:4]) + a[:, 4:6]) + a[:, 6:8]).tobytes()
    with pytest.raises(ValueError, match="blocks"):
        ad.sum_col_blocks(ad.constant(a), 3)


def test_gradients_of_whole_sequence_ops_with_several_sequences():
    rng = np.random.default_rng(35)
    batch, steps = 3, 4
    n = batch * steps

    def conv(x, w0, w1, w2):
        return ad.shifted_sum(
            [ad.matmul(w0, ad.slice_cols(x, 0, n - 2 * batch)),
             ad.matmul(w1, ad.slice_cols(x, 0, n - batch)),
             ad.matmul(w2, x)],
            [2 * batch, batch, 0],
        )

    weights = [rng.normal(size=(2, 2)) for _ in range(3)]
    _check_op_gradient(conv, rng.normal(size=(2, n)), *weights)
    _check_op_gradient(lambda f, take: ad.gated_scan(f, take, batch),
                       rng.uniform(size=(2, n)), rng.normal(size=(2, n)))
    _check_op_gradient(lambda a: ad.sum_col_blocks(a, batch), rng.normal(size=(2, n)))
    # one block: the scan passes its input through
    _check_op_gradient(lambda f, take: ad.gated_scan(f, take, n),
                       rng.uniform(size=(2, n)), rng.normal(size=(2, n)))


def test_gate_that_also_feeds_an_output_gate():
    # f is the forget gate of the scan, its complement weighs the input, and
    # it multiplies the cell as the output gate too
    rng = np.random.default_rng(36)
    batch = 2

    def build(x, w, v):
        f = ad.sigmoid(ad.shifted_sum(
            [ad.matmul(w, ad.slice_cols(x, 0, 3 * batch)), ad.matmul(v, x)], [batch, 0]))
        cell = ad.gated_scan(f, ad.mul(ad.one_minus(f), x), batch)
        return ad.sum_col_blocks(ad.mul(f, cell), batch)

    _check_op_gradient(build, rng.normal(size=(3, 4 * batch)), rng.normal(size=(3, 3)),
                       rng.normal(size=(3, 3)))


def test_shifted_sum_terms_used_earlier_keep_the_other_terms_adjoints():
    # Both terms take overlapping views of one adjoint first; the earlier
    # consumers' steps then add into a (elementwise) and b (scatter), which
    # must not write through into the other's view.
    rng = np.random.default_rng(37)

    def build(p, q):
        a = ad.sigmoid(p)  # (2, 6): offset 0
        b = ad.sigmoid(q)  # (2, 4): offset 2
        early = ad.add(ad.sum_all(ad.mul(a, a)), ad.sum_all(ad.slice_cols(b, 0, 2)))
        mixed = ad.shifted_sum([b, a], [2, 0])
        return ad.add(early, ad.sum_all(ad.mul(mixed, mixed)))

    _check_op_gradient(build, rng.normal(size=(2, 6)), rng.normal(size=(2, 4)))
