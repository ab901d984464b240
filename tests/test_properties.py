"""Property tests: the rank rule, one-pass evaluation and the leave-one-out
splits against their independent oracles, evaluation's kept candidates
against a fresh log's, and checkpoint round trips, over drawn inputs.

Every test runs a fixed number of derandomized examples and keeps no
example database, so each run draws the same examples.
"""
from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qrseq import rng as rng_streams
from qrseq.data import InteractionLog, make_splits
from qrseq.evaluation import EvalConfig, evaluate, target_ranks
from qrseq.model import AGGREGATIONS, ModelConfig, ParameterStore, load_checkpoint, save_checkpoint
from helpers import oracle_rank, reference_splits

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
