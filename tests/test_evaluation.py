"""Ranking rules, metric formulas, the evaluation loop, and the baseline."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from qrseq.data import InteractionLog, make_splits
from qrseq.errors import ConfigError, SamplingError
from qrseq.evaluation import (
    EvalConfig,
    evaluate,
    poprec_baseline,
    target_ranks,
    user_metrics,
)
from helpers import oracle_rank, reference_poprec_counts, uniform_log


class FixedScorer:
    """Deterministic per-(user, item) pseudo-random scores."""

    def __init__(self, seed=0):
        self.seed = seed

    def score_batch(self, user_ids, contexts, candidate_ids):
        users = np.asarray(user_ids)[:, None]
        cands = np.asarray(candidate_ids)
        mix = np.sin(self.seed + users * 2654435761.0 + cands * 40503.0)
        return np.asarray(mix, dtype=float)


class TargetOracleScorer:
    """Scores each row's first candidate (the target) highest."""

    def score_batch(self, user_ids, contexts, candidate_ids):
        scores = np.zeros(np.asarray(candidate_ids).shape)
        scores[:, 0] = 1e9
        return scores


class ConstantScorer:
    def score_batch(self, user_ids, contexts, candidate_ids):
        return np.zeros(np.asarray(candidate_ids).shape)


class NaNScorer:
    def score_batch(self, user_ids, contexts, candidate_ids):
        return np.full(np.asarray(candidate_ids).shape, np.nan)


# -- target_ranks ------------------------------------------------------------


def test_strictly_highest_target_ranks_first():
    assert target_ranks([[9.0, 3.0, 1.0]]).tolist() == [1]


def test_all_ties_rank_last():
    assert target_ranks(np.full((1, 101), 0.5)).tolist() == [101]


def test_rank_counts_greater_plus_ties():
    assert target_ranks([[0.5, 0.9, 0.5, 0.1]]).tolist() == [3]


def test_rank_matches_sort_oracle_on_random_scores():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        cands = np.arange(1, n + 1)
        scores = rng.choice([0.1, 0.5, 0.9], size=n)  # force plenty of ties
        target = int(rng.integers(1, n + 1))
        row = np.r_[scores[target - 1], np.delete(scores, target - 1)]
        assert target_ranks([row])[0] == oracle_rank(cands, scores, target)


def test_nan_target_ranks_last():
    assert target_ranks([[float("nan"), 0.0, 1.0]]).tolist() == [3]


def test_nan_negative_counts_against_target():
    assert target_ranks([[1.0, float("nan"), 0.0]]).tolist() == [2]


# -- user_metrics ---------------------------------------------------------------


def test_perfect_rank_metrics():
    assert user_metrics(1, 10) == (1.0, 1.0, 1.0)


def test_rank_three_ndcg():
    ap, recall, ndcg = user_metrics(3, 10)
    assert ap == pytest.approx(1 / 3)
    assert recall == 1.0
    assert ndcg == pytest.approx(0.5)


def test_rank_outside_cutoff():
    assert user_metrics(11, 10) == (pytest.approx(1 / 11), 0.0, 0.0)


# -- evaluate ----------------------------------------------------------------------


def eval_setup(num_users=40, num_items=150):
    log = uniform_log(num_users=num_users, num_items=num_items, seq_len=12, seed=5)
    splits = make_splits(log, seq_len=5)
    return log, splits


def test_oracle_scorer_gets_perfect_metrics():
    log, splits = eval_setup()
    report = evaluate(TargetOracleScorer(), "test", log, splits, EvalConfig(seed=0))
    assert report.map == 1.0 and report.recall == 1.0 and report.ndcg == 1.0


def test_constant_scorer_ranks_last_everywhere():
    log, splits = eval_setup()
    report = evaluate(ConstantScorer(), "test", log, splits, EvalConfig(seed=0))
    assert all(r == 101 for r in report.ranks)
    assert report.map == pytest.approx(1 / 101)
    assert report.recall == 0.0 and report.ndcg == 0.0


def test_metrics_match_independent_oracle_for_200_users():
    log = uniform_log(num_users=200, num_items=400, seq_len=12, seed=6)
    splits = make_splits(log, seq_len=5)
    config = EvalConfig(seed=3)
    scorer = FixedScorer(seed=7)
    report = evaluate(scorer, "test", log, splits, config)

    from qrseq import rng as rng_streams
    from qrseq.data import sample_negatives

    for i, user in enumerate(splits.test_users):
        user = int(user)
        target = int(splits.test_targets[i])
        stream = rng_streams.stream(config.seed, "eval-candidates", "test", user)
        negs = sample_negatives(log, user, config.num_negatives, stream)
        cands = np.concatenate([[target], negs])
        scores = scorer.score_batch(
            np.array([user]), splits.test_contexts[i : i + 1], cands[None, :]
        )[0]
        assert report.ranks[i] == oracle_rank(cands, scores, target)


def test_improving_target_score_never_hurts():
    log, splits = eval_setup(num_users=10)
    config = EvalConfig(seed=1)

    class Boosted(FixedScorer):
        def __init__(self, bonus):
            super().__init__(seed=9)
            self.bonus = bonus

        def score_batch(self, user_ids, contexts, candidate_ids):
            scores = super().score_batch(user_ids, contexts, candidate_ids)
            scores[:, 0] += self.bonus  # the target is always column 0
            return scores

    base = evaluate(Boosted(0.0), "test", log, splits, config)
    better = evaluate(Boosted(2.5), "test", log, splits, config)
    for r0, r1 in zip(base.ranks, better.ranks):
        assert r1 <= r0
    assert better.map >= base.map
    assert better.recall >= base.recall
    assert better.ndcg >= base.ndcg


def test_positive_scaling_leaves_ranks_unchanged():
    log, splits = eval_setup(num_users=10)
    config = EvalConfig(seed=2)

    class Scaled(FixedScorer):
        def __init__(self, factor):
            super().__init__(seed=4)
            self.factor = factor

        def score_batch(self, user_ids, contexts, candidate_ids):
            return self.factor * super().score_batch(user_ids, contexts, candidate_ids)

    assert (
        evaluate(Scaled(1.0), "test", log, splits, config).ranks
        == evaluate(Scaled(7.0), "test", log, splits, config).ranks
    )


def test_same_seed_reproduces_report_exactly():
    log, splits = eval_setup()
    a = evaluate(FixedScorer(), "test", log, splits, EvalConfig(seed=8))
    b = evaluate(FixedScorer(), "test", log, splits, EvalConfig(seed=8))
    assert a.to_json() == b.to_json()
    c = evaluate(FixedScorer(), "test", log, splits, EvalConfig(seed=9))
    assert c.ranks != a.ranks  # different candidate draws


def test_validation_and_test_targets_differ():
    log, splits = eval_setup(num_users=10)
    val = evaluate(FixedScorer(), "validation", log, splits, EvalConfig(seed=0))
    test = evaluate(FixedScorer(), "test", log, splits, EvalConfig(seed=0))
    assert val.split == "validation" and test.split == "test"
    assert splits.val_targets.tolist() != splits.test_targets.tolist()


def test_short_candidate_pool_falls_back_with_warning():
    log = InteractionLog.from_sequences(
        [list(range(1, 13)) for _ in range(3)], 20
    )
    splits = make_splits(log, seq_len=5)
    report = evaluate(ConstantScorer(), "test", log, splits, EvalConfig(seed=0, k=5))
    assert len(report.warnings) == 3
    assert "negatives available" in report.warnings[0]
    assert all(rank == 9 for rank in report.ranks)  # 8 unseen items + target


def test_one_scoring_pass_ranks_each_user_among_its_own_candidates():
    # 20 items; users 1 and 4 have 8 unseen, user 2 has 5, users 3 and 5 have 2,
    # so with 6 negatives asked for the rows hold 7, 6 and 3 candidates
    log = InteractionLog.from_sequences([list(range(1, 13)), list(range(1, 16)),
                                         list(range(1, 19)), list(range(5, 17)),
                                         list(range(3, 21))], 20)
    splits = make_splits(log, seq_len=5)
    config = EvalConfig(seed=0, num_negatives=6, k=5)

    class Recording:
        def __init__(self):
            self.calls = []

        def score_batch(self, user_ids, contexts, candidate_ids):
            self.calls.append(np.array(candidate_ids))
            return (np.asarray(candidate_ids) % 3).astype(float)  # ties aplenty

    scorer = Recording()
    report = evaluate(scorer, "test", log, splits, config)
    assert len(scorer.calls) == 1
    cands = scorer.calls[0]
    assert cands.shape == (5, 7)

    from qrseq import rng as rng_streams
    from qrseq.data import sample_negatives

    for i, count in enumerate([7, 6, 3, 7, 3]):
        user, target = i + 1, int(splits.test_targets[i])
        own = cands[i, :count]
        assert own[0] == target and (cands[i, count:] == target).all()  # padding
        stream = rng_streams.stream(config.seed, "eval-candidates", "test", user)
        assert own[1:].tolist() == sample_negatives(log, user, count - 1, stream).tolist()
        # the padding ties the target; ranked, it would count against it
        assert report.ranks[i] == oracle_rank(own, own % 3, target)
    assert report.warnings == [
        "user 2: only 5 of 6 negatives available",
        "user 3: only 2 of 6 negatives available",
        "user 5: only 2 of 6 negatives available",
    ]


def test_a_user_with_no_unseen_item_fails_instead_of_ranking_the_target_alone():
    log = InteractionLog.from_sequences([[1, 2, 3, 4], [2, 3, 1, 4, 5, 6], [4, 5, 6]], 6)
    splits = make_splits(log, seq_len=5)
    with pytest.raises(SamplingError, match=r"^user 2 \('u2'\) has seen every item"):
        evaluate(TargetOracleScorer(), "test", log, splits, EvalConfig(seed=0, k=5))
    # with no negatives asked for, every target is ranked alone by design
    report = evaluate(TargetOracleScorer(), "test", log, splits,
                      EvalConfig(seed=0, num_negatives=0, k=1))
    assert report.ranks == [1, 1, 1] and report.warnings == []


def test_nan_scores_rank_last_with_zero_recall():
    log, splits = eval_setup(num_users=10)
    config = EvalConfig(seed=0, num_negatives=20)
    report = evaluate(NaNScorer(), "test", log, splits, config)
    assert report.ranks == [config.num_negatives + 1] * 10
    assert report.recall == 0.0 and report.ndcg == 0.0


def test_scorer_shape_mismatch_fails():
    class Truncating:
        def score_batch(self, user_ids, contexts, candidate_ids):
            return np.zeros(np.asarray(candidate_ids).shape)[:, :-1]

    log, splits = eval_setup(num_users=5)
    with pytest.raises(ValueError, match="shape"):
        evaluate(Truncating(), "test", log, splits, EvalConfig(seed=0))


def test_report_json_schema():
    log, splits = eval_setup(num_users=10)
    report = evaluate(FixedScorer(), "test", log, splits, EvalConfig(seed=4))
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "format_version", "split", "seed", "users", "map",
        "recall_at_10", "ndcg_at_10", "warnings",
    }
    assert payload["users"] == 10
    assert 0.0 <= payload["map"] <= 1.0
    assert 0.0 <= payload["recall_at_10"] <= 1.0
    assert 0.0 <= payload["ndcg_at_10"] <= 1.0


def test_per_user_values_bounded():
    log, splits = eval_setup()
    report = evaluate(FixedScorer(), "test", log, splits, EvalConfig(seed=5))
    for rank in report.ranks:
        ap, recall, ndcg = user_metrics(rank, report.k)
        assert 0 < ap <= 1 and recall in (0.0, 1.0) and 0 <= ndcg <= 1


@pytest.mark.parametrize("bad", [
    dict(seed=0, num_negatives=4, k=10),
    dict(seed=0, k=0),
    dict(seed="x"),
    dict(k=True),
], ids=["k-above-candidates", "k-zero", "seed-str", "k-bool"])
def test_eval_config_validation(bad):
    with pytest.raises(ConfigError):
        EvalConfig(**bad)


def test_report_json_takes_a_numpy_seed():
    log = uniform_log(num_users=20, num_items=40, seq_len=6, seed=3)
    splits = make_splits(log, seq_len=5)
    config = EvalConfig(seed=np.int64(3), num_negatives=np.int32(10))
    assert type(config.seed) is int and type(config.num_negatives) is int
    report = evaluate(FixedScorer(), "test", log, splits, config)
    assert json.loads(report.to_json())["seed"] == 3


# -- candidates drawn once per log ---------------------------------------------------


@pytest.fixture()
def draws(monkeypatch):
    """Counts evaluation's negative draws and its eval-candidate streams."""
    from qrseq import evaluation
    from qrseq import rng as rng_streams

    counts = {"negatives": 0, "streams": 0}
    sample, stream = evaluation.sample_negatives, rng_streams.stream

    def counting_sample(*args):
        counts["negatives"] += 1
        return sample(*args)

    def counting_stream(seed, *labels):
        counts["streams"] += labels[:1] == ("eval-candidates",)
        return stream(seed, *labels)

    monkeypatch.setattr(evaluation, "sample_negatives", counting_sample)
    monkeypatch.setattr(rng_streams, "stream", counting_stream)
    return counts


def short_pool_setup():
    """5 users over 20 items, 3 of them with fewer than 6 unseen items."""
    sequences = [list(range(1, 13)), list(range(1, 16)), list(range(1, 19)),
                 list(range(5, 17)), list(range(3, 21))]
    log = InteractionLog.from_sequences(sequences, 20)
    return log, make_splits(log, seq_len=5), EvalConfig(seed=0, num_negatives=6, k=5)


def fresh_report(scorer, split, log, splits, config):
    """The report of a log that has drawn nothing yet."""
    fresh = InteractionLog(log.sequences, log.user_ids, log.item_ids)
    return evaluate(scorer, split, fresh, splits, config)


def test_a_second_evaluate_on_the_same_log_draws_nothing(draws):
    log, splits, config = short_pool_setup()
    first = evaluate(FixedScorer(), "test", log, splits, config)
    assert draws == {"negatives": 5, "streams": 5}
    second = evaluate(FixedScorer(), "test", log, splits, config)
    assert draws == {"negatives": 5, "streams": 5}
    assert second.to_json() == first.to_json()
    assert second.to_json() == fresh_report(FixedScorer(), "test", log, splits, config).to_json()
    assert second.warnings == first.warnings and len(first.warnings) == 3
    want = list(first.warnings)
    first.warnings.append("changed by a caller")  # each report owns its list
    assert evaluate(FixedScorer(), "test", log, splits, config).warnings == want


@pytest.mark.parametrize("split, change, kept", [
    ("test", dict(seed=1), False),
    ("test", dict(num_negatives=4), False),
    ("validation", {}, True),
], ids=["seed", "num-negatives", "split"])
def test_another_seed_negatives_or_split_draws_again(draws, split, change, kept):
    log, splits, config = short_pool_setup()
    evaluate(FixedScorer(), "test", log, splits, config)
    other = replace(config, **change)
    report = evaluate(FixedScorer(), split, log, splits, other)
    assert draws["streams"] == 10
    # one entry per split name: the test split's first draws are kept only
    # if the second call was on another split
    evaluate(FixedScorer(), "test", log, splits, config)
    assert draws["streams"] == (10 if kept else 15)
    assert report.to_json() == fresh_report(FixedScorer(), split, log, splits, other).to_json()


def test_a_scorer_cannot_write_into_the_candidates():
    log, splits, config = short_pool_setup()

    class Overwriting:
        def score_batch(self, user_ids, contexts, candidate_ids):
            candidate_ids[:, 1] = candidate_ids[:, 0]
            return np.zeros(candidate_ids.shape)

    for _ in range(2):
        with pytest.raises(ValueError, match="read-only"):
            evaluate(Overwriting(), "test", log, splits, config)
    report = evaluate(FixedScorer(), "test", log, splits, config)
    assert report.to_json() == fresh_report(FixedScorer(), "test", log, splits, config).to_json()


def test_a_user_with_no_unseen_item_fails_on_every_call(draws):
    log = InteractionLog.from_sequences([[1, 2, 3, 4], [2, 3, 1, 4, 5, 6], [4, 5, 6]], 6)
    splits = make_splits(log, seq_len=5)
    for calls in (1, 2):
        with pytest.raises(SamplingError, match="^user 2 "):
            evaluate(TargetOracleScorer(), "test", log, splits, EvalConfig(seed=0, k=5))
        assert draws["streams"] == 2 * calls  # users 1 and 2, drawn again each call


@pytest.mark.parametrize("epochs", [1, 3])
def test_a_fit_draws_each_users_candidates_once_per_split(draws, epochs):
    from qrseq.model import ModelConfig
    from qrseq.training import TrainConfig, fit

    log = uniform_log(num_users=12, num_items=40, seq_len=8, seed=2)
    model_config = ModelConfig(num_items=log.item_count, num_users=log.user_count,
                               latent_dim=4, seq_len=3)
    splits = make_splits(log, model_config.seq_len)
    train_config = TrainConfig(seed=0, batch_size=64, base_epochs=epochs, max_epochs=epochs)
    result = fit(log, splits, model_config, train_config, EvalConfig(seed=0, num_negatives=20))
    assert result.epochs_run == epochs
    assert draws["streams"] == 2 * log.user_count


# -- poprec ------------------------------------------------------------------------


def poprec_checked(log):
    """The PopRec scorer, after checking its counts against the per-item reference."""
    scorer = poprec_baseline(log)
    want = reference_poprec_counts(log)
    assert scorer.counts.dtype == want.dtype == np.int64
    assert scorer.counts.tolist() == want.tolist()
    return scorer


def test_poprec_orders_by_frequency():
    log = InteractionLog.from_sequences(
        [[1, 1, 1, 1, 1, 2, 2, 2, 3, 4], [1, 2, 1, 2, 1, 2, 3, 3, 5, 6]], 6
    )
    scorer = poprec_checked(log)
    scores = scorer.score_batch([1], [[0] * 5], [[1, 2, 3]])
    assert scores[0, 0] > scores[0, 1] > scores[0, 2]


def test_poprec_excludes_held_out_items_and_scores_unseen_zero():
    log = InteractionLog.from_sequences([[1, 1, 1, 2, 3]], 4)
    scorer = poprec_checked(log)
    scores = scorer.score_batch([1], [[0] * 5], [[1, 2, 3, 4]])
    assert scores[0].tolist() == [3.0, 0.0, 0.0, 0.0]  # items 2, 3 are held out


def test_poprec_counts_skip_users_with_no_training_prefix():
    log = InteractionLog.from_sequences([[2], [1, 3], [4, 4, 4, 1], [4, 2, 5, 5]], 6)
    assert poprec_checked(log).counts.tolist() == [0, 0, 1, 0, 3, 0, 0]


def test_poprec_near_chance_on_uniform_popularity():
    log = uniform_log(num_users=600, num_items=400, seq_len=12, seed=11)
    splits = make_splits(log, seq_len=5)
    report = evaluate(poprec_checked(log), "test", log, splits, EvalConfig(seed=0))
    assert abs(report.recall - 10 / 101) < 0.05
