"""Property tests: the rank rule, one-pass evaluation and the leave-one-out
splits against their independent oracles, evaluation's kept candidates
against a fresh log's, checkpoint round trips, every taped autodiff
op's gradient against central differences, and each op that can write in
place against its out-of-place form, over drawn inputs.

Every test runs a fixed number of derandomized examples and keeps no
example database, so each run draws the same examples.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrseq import autodiff as ad
from qrseq import rng as rng_streams
from qrseq.cli import main
from qrseq.data import InteractionLog, make_splits
from qrseq.errors import QrseqError
from qrseq.evaluation import EvalConfig, evaluate, target_ranks
from qrseq.model import AGGREGATIONS, ModelConfig, ParameterStore, load_checkpoint, save_checkpoint
from helpers import numeric_gradient, oracle_rank, reference_splits, relative_errors

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# ties, infinities and NaN on either side of the comparison
SCORES = st.sampled_from([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan])


@st.composite
def score_rows(draw):
    """A (U, C) score matrix and each row's ranked candidate count in 1..C."""
    users, width = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    scores = draw(st.lists(st.lists(SCORES, min_size=width, max_size=width),
                           min_size=users, max_size=users))
    counts = draw(st.lists(st.integers(1, width), min_size=users, max_size=users))
    return np.array(scores), np.array(counts)


@st.composite
def small_logs(draw):
    """Logs of 1-6 users over 2-12 items. Each user has 3-10 interactions,
    repeats allowed, and never sees one drawn item, so unseen counts vary
    from user to user but none is 0."""
    n_items = draw(st.integers(2, 12))
    sequences = []
    for _ in range(draw(st.integers(1, 6))):
        hole = draw(st.integers(1, n_items))
        seq = draw(st.lists(st.integers(1, n_items - 1), min_size=3, max_size=10))
        sequences.append([i + (i >= hole) for i in seq])
    return InteractionLog.from_sequences(sequences, n_items)


@PROPERTY
@given(score_rows())
def test_target_ranks_match_the_sort_oracle_on_each_rows_ranked_columns(rows):
    scores, counts = rows
    ranks = target_ranks(scores, counts)
    for row, count, rank in zip(scores, counts, ranks):
        assert rank == oracle_rank(np.arange(count), row[:count], 0)


class ItemTableScorer:
    """Scores an item by a fixed table, recording each candidate matrix."""

    def __init__(self, table):
        self.table = np.asarray(table)
        self.calls = []

    def score_batch(self, user_ids, contexts, candidate_ids):
        self.calls.append(np.array(candidate_ids))
        return self.table[np.asarray(candidate_ids)]


@PROPERTY
@given(small_logs(), st.integers(0, 12), st.data())
def test_evaluate_scores_once_and_ranks_each_user_among_its_own_candidates(log, negatives,
                                                                           data):
    config = EvalConfig(seed=data.draw(st.integers(0, 3)), num_negatives=negatives,
                        k=data.draw(st.integers(1, negatives + 1)))
    size = log.item_count + 1
    scorer = ItemTableScorer(data.draw(st.lists(SCORES, min_size=size, max_size=size)))
    splits = make_splits(log, seq_len=3)
    report = evaluate(scorer, "test", log, splits, config)

    assert len(scorer.calls) == 1
    cands = scorer.calls[0]
    counts = []
    for i, user in enumerate(splits.test_users.tolist()):
        seen = set(log.items_of(user))
        count = 1 + min(negatives, log.item_count - len(seen))
        target = splits.test_targets[i]
        own = cands[i, :count]
        assert own[0] == target and (cands[i, count:] == target).all()
        assert len(set(own[1:].tolist())) == count - 1 and not seen & set(own[1:].tolist())
        assert report.ranks[i] == oracle_rank(own, scorer.table[own], target)
        counts.append(count)
    assert cands.shape[1] == max(counts)
    assert report.warnings == [
        f"user {u}: only {c - 1} of {negatives} negatives available"
        for u, c in enumerate(counts, start=1) if c - 1 < negatives
    ]


@PROPERTY
@given(small_logs(), st.lists(st.tuples(st.sampled_from(["validation", "test"]),
                                        st.integers(0, 3), st.integers(0, 12)),
                              min_size=1, max_size=5), st.data())
def test_evaluate_on_one_log_reports_what_a_fresh_log_does(log, calls, data):
    # each call on the one log may reuse what an earlier call drew; the
    # fresh log draws everything anew
    size = log.item_count + 1
    table = data.draw(st.lists(SCORES, min_size=size, max_size=size))
    splits = make_splits(log, seq_len=3)
    for split, seed, negatives in calls + calls[:1]:
        config = EvalConfig(seed=seed, num_negatives=negatives, k=1)
        kept, fresh = ItemTableScorer(table), ItemTableScorer(table)
        got = evaluate(kept, split, log, splits, config)
        want = evaluate(fresh, split, InteractionLog.from_sequences(log.sequences, log.item_count),
                        splits, config)
        assert got.to_json() == want.to_json() and got.ranks == want.ranks
        assert np.array_equal(kept.calls[0], fresh.calls[0])


@st.composite
def model_configs(draw):
    """Every architecture switch a checkpoint stores, at d in {2, 4, 8}."""
    seq_len = draw(st.integers(1, 5))
    profile = draw(st.booleans())
    scales = draw(st.lists(st.integers(1, seq_len), min_size=0 if profile else 1,
                           max_size=seq_len))
    return ModelConfig(num_items=draw(st.integers(1, 9)), num_users=draw(st.integers(1, 5)),
                       latent_dim=draw(st.sampled_from([2, 4, 8])), seq_len=seq_len,
                       scales=tuple(scales), num_layers=draw(st.integers(1, 4)),
                       use_output_gate=draw(st.booleans()), use_user_profile=profile,
                       aggregation=draw(st.sampled_from(AGGREGATIONS)),
                       dropout=draw(st.floats(0.0, 0.99)))


@PROPERTY
@given(model_configs(), st.integers(0, 3), st.data())
def test_checkpoints_round_trip_bit_exactly(tmp_path_factory, config, seed, data):
    store = ParameterStore(config, rng_streams.stream(seed, "init"))
    # any finite value survives: signed zeros, subnormals and the extremes too
    values = st.floats(allow_nan=False, allow_infinity=False)
    for _ in range(data.draw(st.integers(0, 4))):
        store.flat_values[data.draw(st.integers(0, store.flat_values.size - 1))] = data.draw(values)
    path = tmp_path_factory.getbasetemp() / "round_trip.npz"
    save_checkpoint(path, store, extra={"seed": seed})
    loaded, extra = load_checkpoint(path)
    assert loaded.config == config and extra == {"seed": seed}
    want, got = store.named_parameters(), loaded.named_parameters()
    assert list(got) == list(want)
    for name, p in want.items():
        assert got[name].value.dtype == p.value.dtype and got[name].value.shape == p.value.shape
        assert got[name].value.tobytes() == p.value.tobytes(), name


@PROPERTY
@given(small_logs(), st.integers(1, 6))
def test_make_splits_matches_the_window_by_window_reference(log, seq_len):
    got, want = make_splits(log, seq_len), reference_splits(log, seq_len)
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "seq_len":
            assert a == b
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), f.name


# -- malformed datasets ------------------------------------------------------------

JSON_SCALARS = st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
NOT_LISTS = JSON_SCALARS | st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2)
NOT_STRINGS = st.none() | st.booleans() | st.integers() | st.floats() | st.lists(st.text(),
                                                                                 max_size=2)
REQUIRED_KEYS = ("format_version", "sequences", "user_ids", "item_ids")


@st.composite
def malformed_datasets(draw):
    """The bytes of a processed-dataset file that breaks the format in one
    drawn way, each of which `InteractionLog.load` must reject."""
    n_items = draw(st.integers(1, 4))
    sequences = draw(st.lists(st.lists(st.integers(1, n_items), max_size=5),
                              min_size=1, max_size=3))
    doc = {"format_version": 1, "sequences": sequences,
           "user_ids": [f"u{u}" for u in range(len(sequences))],
           "item_ids": [f"i{i}" for i in range(n_items)]}
    fault = draw(st.sampled_from(["bytes", "truncated", "not-an-object", "version", "missing",
                                  "ids", "id", "sequences", "sequence", "item", "no-users"]))
    if fault == "bytes":  # not UTF-8
        return b"\xff" + draw(st.binary(max_size=8))
    text = json.dumps(doc)
    if fault == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if fault == "not-an-object":
        return json.dumps(draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))).encode()
    if fault == "version":
        doc["format_version"] = draw(JSON_VALUES.filter(lambda v: not (type(v) is int and v == 1)))
    elif fault == "missing":
        del doc[draw(st.sampled_from(REQUIRED_KEYS))]
    elif fault == "ids":
        doc[draw(st.sampled_from(["user_ids", "item_ids"]))] = draw(NOT_LISTS)
    elif fault == "id":
        ids = doc[draw(st.sampled_from(["user_ids", "item_ids"]))]
        ids[draw(st.integers(0, len(ids) - 1))] = draw(NOT_STRINGS)
    elif fault == "sequences":  # not a list, or one entry too many or too few
        doc["sequences"] = draw(NOT_LISTS | st.just(sequences + [[1]]) | st.just(sequences[1:]))
    elif fault == "sequence":
        sequences[draw(st.integers(0, len(sequences) - 1))] = draw(NOT_LISTS)
    elif fault == "item":
        seq = draw(st.sampled_from(sequences))
        bad = draw(st.sampled_from([0, -1, n_items + 1, True, False, 1.0, "1", None, [1]]))
        seq.insert(draw(st.integers(0, len(seq))), bad)
    else:  # a well-formed file with no user
        doc.update(sequences=[], user_ids=[])
    return json.dumps(doc).encode()


@PROPERTY
@given(malformed_datasets())
@example(b'{"format_version": "1\\n2", "sequences": [], "user_ids": [], "item_ids": []}')
def test_a_malformed_dataset_fails_with_one_error_line(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_bytes(raw)
    with pytest.raises(QrseqError):
        InteractionLog.load(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["evaluate", "--baseline", "poprec", "--seed", "0", "--data", str(path)])
    assert code in (1, 2)
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


# -- autodiff ops against central differences -----------------------------------


def taped_ops() -> list[str]:
    """Every public autodiff function whose own code records on the tape."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and "_track" in fn.__code__.co_names)


DIMS = st.integers(1, 4)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def arrays(draw, *shape):
    """A float array of the given shape, each dimension drawn where None."""
    shape = tuple(draw(DIMS) if n is None else n for n in shape)
    return np.random.default_rng(draw(SEEDS)).uniform(-2.0, 2.0, size=shape)


@st.composite
def indices(draw, upper, *shape):
    """An intp array of the given shape over 0..upper-1, repeats likely."""
    shape = tuple(draw(DIMS) if n is None else n for n in shape)
    flat = draw(st.lists(st.integers(0, upper - 1), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(flat, dtype=np.intp).reshape(shape)


@st.composite
def blocked(draw, count):
    """`count` same-shape (m, L*B) sequence matrices and their block width B."""
    rows, width, blocks = draw(DIMS), draw(DIMS), draw(DIMS)
    return [draw(arrays(rows, blocks * width)) for _ in range(count)], width


def unary(op):
    return arrays(None, None).map(lambda a: (op, [a]))


@st.composite
def same_shape(draw, op):
    a = draw(arrays(None, None))
    return op, [a, draw(arrays(*a.shape))]


@st.composite
def matmul_case(draw):
    a = draw(arrays(None, None))
    return ad.matmul, [a, draw(arrays(a.shape[1], None))]


@st.composite
def scale_case(draw):
    c = draw(st.floats(-3.0, 3.0))
    return (lambda a: ad.scale(a, c)), [draw(arrays(None, None))]


@st.composite
def concat_rows_case(draw):
    a = draw(arrays(None, None))
    return ad.concat_rows, [a, draw(arrays(None, a.shape[1]))]


@st.composite
def add_col_case(draw):
    a = draw(arrays(None, None))
    return ad.add_col, [a, draw(arrays(a.shape[0], 1))]


@st.composite
def slice_cols_case(draw):
    a = draw(arrays(None, None))
    start = draw(st.integers(0, a.shape[1] - 1))
    stop = draw(st.integers(start + 1, a.shape[1]))
    return (lambda t: ad.slice_cols(t, start, stop)), [a]


@st.composite
def take_rows_case(draw):
    a = draw(arrays(None, None))
    idx = draw(indices(a.shape[0], None))
    return (lambda t: ad.take_rows(t, idx)), [a]


@st.composite
def gather_case(draw):
    a = draw(arrays(None))
    idx = draw(indices(a.shape[0], None, None))
    return (lambda t: ad.gather(t, idx)), [a]


@st.composite
def rows_dot_cols_case(draw):
    w = draw(arrays(None, None))
    z = draw(arrays(w.shape[1], None))
    idx = draw(indices(w.shape[0], z.shape[1], None))
    return (lambda wt, zt: ad.rows_dot_cols(wt, idx, zt)), [w, z]


@st.composite
def shifted_sum_case(draw):
    rows, n = draw(DIMS), draw(st.integers(1, 12))
    offsets = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)) if n > 1 else (),
                     reverse=True) + [0]
    terms = [draw(arrays(rows, n - o)) for o in offsets]
    return (lambda *ts, inplace=False: ad.shifted_sum(ts, offsets, inplace=inplace)), terms


@st.composite
def gated_scan_case(draw):
    (f, take), width = draw(blocked(2))
    return (lambda ft, tt, inplace=False: ad.gated_scan(ft, tt, width, inplace=inplace)), [f, take]


@st.composite
def sum_col_blocks_case(draw):
    (a,), width = draw(blocked(1))
    return (lambda t: ad.sum_col_blocks(t, width)), [a]


GRADIENT_CASES = {
    "add": same_shape(ad.add),
    "add_col": add_col_case(),
    "concat_rows": concat_rows_case(),
    "gated_scan": gated_scan_case(),
    "gather": gather_case(),
    "matmul": matmul_case(),
    "mul": same_shape(ad.mul),
    "one_minus": unary(ad.one_minus),
    "rows_dot_cols": rows_dot_cols_case(),
    "scale": scale_case(),
    "shifted_sum": shifted_sum_case(),
    "sigmoid": unary(ad.sigmoid),
    "slice_cols": slice_cols_case(),
    "softplus": unary(ad.softplus),
    "sum_all": unary(ad.sum_all),
    "sum_col_blocks": sum_col_blocks_case(),
    "take_rows": take_rows_case(),
    "transpose": unary(ad.transpose),
}


def test_every_taped_op_has_a_gradient_case():
    assert sorted(GRADIENT_CASES) == taped_ops()


def assert_gradient_matches_central_differences(build, params, data) -> None:
    # weights drawn per output entry, so a misplaced adjoint entry shows
    weights = data.draw(arrays(*build(*params).shape))

    def loss() -> float:
        return float(np.sum(build(*params).value * weights))

    with ad.record():
        root = ad.sum_all(ad.mul(build(*params), ad.constant(weights)))
    ad.backward(root)
    for p in params:
        assert relative_errors(p.grad, numeric_gradient(loss, p)).max() < 1e-6


@pytest.mark.parametrize("op", taped_ops())
@settings(PROPERTY, max_examples=50)
@given(st.data())
def test_taped_op_gradient_matches_central_differences(op, data):
    # a fused op that records on the tape lands here through taped_ops(),
    # and fails until it has a case
    build, inputs = data.draw(GRADIENT_CASES[op])
    assert_gradient_matches_central_differences(build, [ad.parameter(v) for v in inputs], data)


def in_place_ops() -> list[str]:
    """Every public autodiff function that can write its output in place."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and "inplace" in inspect.signature(fn).parameters)


def test_the_in_place_ops_are_the_four_the_model_uses():
    assert in_place_ops() == ["add_col", "gated_scan", "shifted_sum", "sigmoid"]


@pytest.mark.parametrize("op", in_place_ops())
@settings(PROPERTY, max_examples=50)
@given(st.data())
def test_in_place_op_matches_its_out_of_place_value_and_gradient(op, data):
    # each input goes through `scale(p, 1.0)`, a fresh intermediate the op may write into
    build, inputs = data.draw(GRADIENT_CASES[op])
    params = [ad.parameter(v) for v in inputs]

    def in_place(*ps):
        return build(*[ad.scale(p, 1.0) for p in ps], inplace=True)

    assert in_place(*params).value.tobytes() == build(*params).value.tobytes()
    assert_gradient_matches_central_differences(in_place, params, data)
