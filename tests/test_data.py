"""Ingestion, preprocessing rules, leave-one-out splits, negative sampling."""
from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qrseq import rng as rng_streams
from qrseq.data import (
    InteractionLog,
    RawInteraction,
    SplitDataset,
    ingest,
    make_splits,
    preprocess,
    sample_negatives,
)
from qrseq.errors import (ConfigError, EmptyDatasetError, ParseError, SamplingError,
                          SplitError)
from helpers import reference_negatives, reference_splits

FIXTURE = Path(__file__).parent / "data" / "interactions_fixture.csv"
GOLDEN = Path(__file__).parent / "data" / "preprocess_golden.json"


def rec(user, item, rating=5.0, timestamp=0):
    return RawInteraction(user=user, item=item, rating=rating, timestamp=timestamp)


def ten_rows(user="u", start_ts=0):
    return [rec(user, f"it{i}", 5, start_ts + i) for i in range(10)]


# -- ingest -------------------------------------------------------------------


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    records, bad = ingest(path)
    assert records == [] and bad == []


def test_ingest_keeps_file_order(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(
        "user,item,rating,timestamp\nu1,a,5,3\nu2,b,4,1\nu1,c,3,2\n", encoding="utf-8"
    )
    records, bad = ingest(path)
    assert bad == []
    assert [(r.user, r.item, r.rating, r.timestamp) for r in records] == [
        ("u1", "a", 5.0, 3), ("u2", "b", 4.0, 1), ("u1", "c", 3.0, 2),
    ]


def test_ingest_strict_reports_line_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    for text, bad_lines, kept in [
        ("user,item,rating,timestamp\nu1,a,5,3\nu1,b,not-a-number,4\nu1,c,3,2\n", [3], 2),
        # a quoted user id spans lines 3-4, so the bad row is on line 5
        ('user,item,rating,timestamp\nu1,a,5,3\n"u\n2",i2,5,1\nu1,b,not-a-number,4\n'
         'u1,c,3,2\n', [5], 3),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            ingest(path, strict=True)
        assert err.value.lines == bad_lines
        records, bad = ingest(path, strict=False)
        assert len(records) == kept and [ln for ln, _ in bad] == bad_lines


def test_ingest_rejects_wrong_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c,d\nu1,a,5,3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="header"):
        ingest(path)


def test_ingest_jsonl(tmp_path):
    path = tmp_path / "rows.jsonl"
    row = {"user": "u1", "item": "a", "rating": 5, "timestamp": 3}
    lines = [
        json.dumps(row),
        "{broken",
        json.dumps({**row, "item": "b", "rating": 4.5, "timestamp": -2}),
        # ids are non-empty strings or non-bool ints; timestamps are ints or int strings
        json.dumps({**row, "user": None}),
        json.dumps({**row, "item": [1, 2]}),
        json.dumps({**row, "user": True}),
        json.dumps({**row, "timestamp": 3.7}),
        json.dumps({**row, "timestamp": 3.2}),
        json.dumps({**row, "user": 7, "item": "c", "timestamp": "4"}),
        "[" * 1000 + "]" * 1000,  # nested past the parser's recursion limit
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records, bad = ingest(path, format="jsonl")
    assert [(r.user, r.item, r.timestamp) for r in records] == [("u1", "a", 3), ("7", "c", 4)]
    assert [ln for ln, _ in bad] == [2, 3, 4, 5, 6, 7, 8, 10]


def test_ingest_missing_file():
    with pytest.raises(FileNotFoundError):
        ingest("/nonexistent/rows.csv")


def test_ingest_unknown_format(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("user,item,rating,timestamp\n", encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        ingest(path, format="parquet")


def test_dataset_load_rejects_unknown_version(tmp_path):
    from qrseq.errors import CompatibilityError

    path = tmp_path / "d.json"
    for version in (99, True, 1.0):  # JSON true and 1.0 are not the int 1
        path.write_text(json.dumps({"format_version": version}), encoding="utf-8")
        with pytest.raises(CompatibilityError, match="version"):
            InteractionLog.load(path)


def test_dataset_load_rejects_a_dataset_with_no_users(tmp_path):
    path = tmp_path / "d.json"
    InteractionLog([], [], []).save(path)
    with pytest.raises(EmptyDatasetError, match="no users"):
        InteractionLog.load(path)


def test_user_id_bounds_are_checked():
    log = InteractionLog.from_sequences([[1, 2, 3]], 3)
    with pytest.raises(IndexError):
        log.items_of(0)
    with pytest.raises(IndexError):
        log.items_of(2)


# -- preprocess ----------------------------------------------------------------


def test_user_below_interaction_threshold_dropped():
    rows = ten_rows("keep") + [rec("drop", f"x{i}", 5, i) for i in range(9)]
    log = preprocess(rows)
    assert log.user_count == 1 and log.user_ids == ["keep"]


def test_rating_threshold_is_inclusive():
    rows = [rec("u", f"it{i}", 3, i) for i in range(10)]
    log = preprocess(rows, min_rating=3)
    assert log.interaction_count == 10


def test_shuffled_timestamps_are_reordered():
    order = [5, 2, 8, 0, 9, 1, 7, 3, 6, 4]
    rows = [rec("u", f"it{ts}", 5, ts) for ts in order]
    log = preprocess(rows)
    names = [log.item_ids[i - 1] for i in log.items_of(1)]
    assert names == [f"it{t}" for t in range(10)]


def test_timestamp_ties_keep_input_order():
    rows = [rec("u", f"it{i}", 5, 7) for i in range(10)]
    log = preprocess(rows)
    names = [log.item_ids[i - 1] for i in log.items_of(1)]
    assert names == [f"it{i}" for i in range(10)]


def test_filtered_items_leave_the_id_space():
    rows = ten_rows("u") + [rec("u", "lowrated", 1, 99), rec("other", "onlyitem", 5, 0)]
    log = preprocess(rows)
    assert "lowrated" not in log.item_ids
    assert "onlyitem" not in log.item_ids
    assert log.item_count == 10


def test_id_maps_are_dense_bijections():
    rows = ten_rows("a", 0) + ten_rows("b", 100) + ten_rows("c", 200)
    log = preprocess(rows)
    assert sorted(set(i for seq in log.sequences for i in seq)) == list(
        range(1, log.item_count + 1)
    )
    assert len(set(log.user_ids)) == log.user_count
    assert len(set(log.item_ids)) == log.item_count


@pytest.mark.parametrize("min_interactions", [-1, 0, 1, 2])
def test_preprocess_rejects_a_threshold_the_split_cannot_take(min_interactions):
    with pytest.raises(ConfigError, match="min_interactions must be >= 3"):
        preprocess(ten_rows(), min_interactions=min_interactions)
    rows = [rec("three", f"x{i}", 5, i) for i in range(3)] + [rec("two", "y", 5, 0),
                                                             rec("two", "z", 5, 1)]
    assert preprocess(rows, min_interactions=3).user_ids == ["three"]


def test_empty_result_raises():
    with pytest.raises(EmptyDatasetError):
        preprocess([rec("u", "a", 1, 0)])


def test_preprocess_is_idempotent():
    rng = np.random.default_rng(0)
    rows = []
    for u in range(4):
        for t in range(12):
            rows.append(rec(f"u{u}", f"it{rng.integers(0, 30)}", 5, t))
    log = preprocess(rows)
    # feed the output back through as raw interactions
    again_rows = []
    for user in range(1, log.user_count + 1):
        for t, item in enumerate(log.items_of(user)):
            again_rows.append(rec(str(user), str(item), 5, t))
    again = preprocess(again_rows)
    assert again.sequences == log.sequences
    assert again.user_count == log.user_count
    assert again.item_count == log.item_count


def test_preprocess_golden_fixture():
    records, bad = ingest(FIXTURE)
    assert bad == []
    assert len(records) == 12
    log = preprocess(records, min_rating=3, min_interactions=10)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert log.to_dict() == expected


def test_dataset_file_round_trip_and_stability(tmp_path):
    records, _ = ingest(FIXTURE)
    log = preprocess(records)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    log.save(p1)
    loaded = InteractionLog.load(p1)
    assert loaded.sequences == log.sequences
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- splits ---------------------------------------------------------------------


def letters_log():
    # single user with sequence a..j (ids 1..10)
    return InteractionLog.from_sequences([list(range(1, 11))], 10)


def test_split_targets_and_contexts_for_ten_items():
    splits = make_splits(letters_log(), seq_len=5)
    assert splits.test_targets.tolist() == [10]
    assert splits.test_contexts.tolist() == [[5, 6, 7, 8, 9]]
    assert splits.val_targets.tolist() == [9]
    assert splits.val_contexts.tolist() == [[4, 5, 6, 7, 8]]


def test_first_training_window_is_left_padded():
    splits = make_splits(letters_log(), seq_len=5)
    assert splits.train_contexts[0].tolist() == [0, 0, 0, 0, 1]
    assert splits.train_targets[0] == 2


def test_training_window_count_matches_enumeration():
    # brute-force enumeration: window positions whose true context is nonempty
    for n in range(10, 16):
        log = InteractionLog.from_sequences([list(range(1, n + 1))], n)
        splits = make_splits(log, seq_len=5)
        prefix = list(range(1, n + 1))[: n - 2]
        expected = sum(1 for p in range(len(prefix)) if p >= 1)
        assert len(splits.train_targets) == expected
        assert expected == (n - 2) - 1


def test_every_context_item_precedes_its_target():
    rng = np.random.default_rng(1)
    seqs = [list(rng.integers(1, 40, size=rng.integers(10, 20))) for _ in range(8)]
    log = InteractionLog.from_sequences(seqs, 40)
    splits = make_splits(log, seq_len=5)
    for user, ctx, target_pos in zip(
        splits.train_users, splits.train_contexts, range(len(splits.train_targets))
    ):
        seq = log.items_of(int(user))
        # reconstruct: the nonpadded context must be a contiguous slice ending
        # right before some occurrence of the target
        real = [c for c in ctx if c != 0]
        joined = ",".join(map(str, seq))
        assert ",".join(map(str, real)) in joined


def test_validation_context_excludes_held_out_positions():
    splits = make_splits(letters_log(), seq_len=5)
    assert 9 not in splits.val_contexts[0]
    assert 10 not in splits.val_contexts[0]
    assert 9 in splits.test_contexts[0]  # validation target precedes the test item


def test_splits_are_deterministic():
    log = letters_log()
    a = make_splits(log, seq_len=5)
    b = make_splits(log, seq_len=5)
    for f in fields(SplitDataset):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


# -- negative sampling -------------------------------------------------------------


def test_single_remaining_item_is_forced():
    log = InteractionLog.from_sequences([[1, 2, 3, 4]], 5)
    out = sample_negatives(log, 1, 1, rng_streams.stream(0, "neg"))
    assert out.tolist() == [5]


def test_negatives_never_intersect_history():
    log = InteractionLog.from_sequences([list(range(1, 11))], 30)
    for seed in range(20):
        out = sample_negatives(log, 1, 5, rng_streams.stream(seed, "neg"))
        assert set(out.tolist()).isdisjoint(set(range(1, 11)))
        assert len(set(out.tolist())) == 5


def test_sampling_is_deterministic_per_seed():
    log = InteractionLog.from_sequences([list(range(1, 11))], 30)
    a = sample_negatives(log, 1, 5, rng_streams.stream(3, "neg"))
    b = sample_negatives(log, 1, 5, rng_streams.stream(3, "neg"))
    assert a.tolist() == b.tolist()


def test_insufficient_pool_raises():
    log = InteractionLog.from_sequences([[1, 2, 3, 4]], 5)
    with pytest.raises(SamplingError):
        sample_negatives(log, 1, 2, rng_streams.stream(0, "neg"))


def test_sampling_matches_complement_reference_draw():
    rng = np.random.default_rng(21)
    for trial in range(300):
        item_count = int(rng.integers(2, 60))
        length = int(rng.integers(1, 2 * item_count))
        history = rng.integers(1, item_count + 1, size=length).tolist()  # repeats items
        log = InteractionLog.from_sequences([history], item_count)
        n_unseen = item_count - len(set(history))
        for k in {0, min(3, n_unseen), n_unseen}:
            got = sample_negatives(log, 1, k, rng_streams.stream(trial, "neg", k))
            want = reference_negatives(log, 1, k, rng_streams.stream(trial, "neg", k))
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


def assert_splits_equal(got: SplitDataset, want: SplitDataset):
    assert got.seq_len == want.seq_len
    for f in fields(SplitDataset):
        if f.name == "seq_len":
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous, f.name
        assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("seq_len", [1, 2, 5, 12])
def test_splits_match_the_per_window_reference(seq_len):
    # short users (n = 3 gives no training window), seq_len past n, repeated items
    rng = np.random.default_rng(seq_len)
    logs = [InteractionLog.from_sequences([[1, 2, 3], [3, 3, 1]], 3)]  # no training window
    for _ in range(20):
        item_count = int(rng.integers(2, 9))
        lengths = [3] + rng.integers(3, 16, size=int(rng.integers(0, 6))).tolist()
        seqs = [rng.integers(1, item_count + 1, size=n).tolist() for n in lengths]
        logs.append(InteractionLog.from_sequences(seqs, item_count))
    for log in logs:
        assert_splits_equal(make_splits(log, seq_len), reference_splits(log, seq_len))


def test_a_user_too_short_to_split_is_named():
    log = InteractionLog([[1, 2, 3, 4], [2, 3], [1]], ["a", "b", "c"], ["i1", "i2", "i3", "i4"])
    with pytest.raises(SplitError, match=r"^user 2 \('b'\) has only 2 interaction"):
        make_splits(log, seq_len=5)
