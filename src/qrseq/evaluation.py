"""Sampled-candidate ranking evaluation.

Each user's held-out target is ranked against a fixed number of sampled
items the user never interacted with (100 by default, so 101 candidates).
Ties count against the target, so a constant-output model cannot look
good. Candidate draws come from a per-(seed, split, user) stream, making
reports reproducible and comparable across epochs regardless of batching.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_streams
from .data import InteractionLog, SplitDataset, sample_negatives
from .errors import ConfigError, SamplingError, check_types

REPORT_VERSION = 1


@dataclass
class EvalConfig:
    seed: int = 0
    num_negatives: int = 100
    k: int = 10

    def __post_init__(self):
        check_types(self)
        if self.num_negatives < 0:
            raise ConfigError(f"num_negatives must be nonnegative, got {self.num_negatives}")
        if self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.num_negatives + 1 < self.k:
            raise ConfigError(
                f"candidate count {self.num_negatives + 1} is smaller than k={self.k}"
            )


@dataclass
class MetricsReport:
    split: str
    seed: int
    k: int
    ranks: list[int]
    map: float
    recall: float
    ndcg: float
    warnings: list[str] = field(default_factory=list)

    @property
    def user_count(self) -> int:
        return len(self.ranks)

    def to_json_dict(self) -> dict:
        return {
            "format_version": REPORT_VERSION,
            "split": self.split,
            "seed": self.seed,
            "users": self.user_count,
            "map": self.map,
            f"recall_at_{self.k}": self.recall,
            f"ndcg_at_{self.k}": self.ndcg,
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def target_ranks(scores, counts=None) -> np.ndarray:
    """1-based rank of column 0 in each row of a (U, C) score matrix.

    Only the first ``counts[u]`` columns of row u are ranked (all of them
    without `counts`); the columns after them are padding. Every other
    ranked candidate not strictly below the target counts against it: ties
    do, and so does a NaN on either side, so a NaN target ranks last.
    """
    s = np.asarray(scores, dtype=np.float64)
    beaten = ~(s[:, 1:] < s[:, :1])
    if counts is not None:
        beaten &= np.arange(1, s.shape[1]) < np.asarray(counts)[:, None]
    return 1 + beaten.sum(axis=1)


def user_metrics(rank: int, k: int) -> tuple[float, float, float]:
    """(average precision, recall@k, ndcg@k) for a single relevant item."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    ap = 1.0 / rank
    recall = 1.0 if rank <= k else 0.0
    ndcg = 1.0 / math.log2(rank + 1) if rank <= k else 0.0
    return ap, recall, ndcg


def evaluate(scorer, split: str, log: InteractionLog, splits: SplitDataset,
             config: EvalConfig) -> MetricsReport:
    """Rank every user's held-out target among sampled unseen candidates.

    `scorer` only needs a ``score_batch(user_ids, contexts, candidate_ids)``
    method returning a float array of the candidate shape, so trained
    models and popularity baselines evaluate through the same path. A user
    with fewer unseen items than `num_negatives` is ranked against all of
    them, with a warning; one with none raises SamplingError.
    """
    users, contexts, targets = splits.split_arrays(split)
    if len(users) == 0:
        raise ValueError(f"split {split!r} is empty")
    warnings: list[str] = []
    # Target in column 0; a short user's row ends in copies of its target,
    # scored but never ranked. No user has more unseen items than there are items.
    width = 1 + min(config.num_negatives, log.item_count)
    candidates = np.repeat(targets[:, None], width, axis=1)
    counts = np.empty(len(users), dtype=np.intp)
    for i, user in enumerate(users.tolist()):
        stream = rng_streams.stream(config.seed, "eval-candidates", split, user)
        available = log.item_count - len(log.seen_items(user))
        if available == 0 and config.num_negatives:
            raise SamplingError(f"user {user} ({log.user_ids[user - 1]!r}) has seen every "
                                f"item, so no candidate is left to rank the target against")
        n_neg = min(config.num_negatives, available)
        if n_neg < config.num_negatives:
            warnings.append(
                f"user {user}: only {n_neg} of {config.num_negatives} negatives available"
            )
        candidates[i, 1:1 + n_neg] = sample_negatives(log, user, n_neg, stream)
        counts[i] = 1 + n_neg
    candidates = candidates[:, :counts.max()]

    scored = np.asarray(scorer.score_batch(users, contexts, candidates))
    if scored.shape != candidates.shape:
        raise ValueError(f"scorer returned shape {scored.shape} for candidates {candidates.shape}")

    ranks = target_ranks(scored, counts).tolist()
    ap_sum = recall_sum = ndcg_sum = 0.0
    for rank in ranks:
        ap, recall, ndcg = user_metrics(rank, config.k)
        ap_sum += ap
        recall_sum += recall
        ndcg_sum += ndcg

    n = len(ranks)
    return MetricsReport(
        split=split,
        seed=config.seed,
        k=config.k,
        ranks=ranks,
        map=ap_sum / n,
        recall=recall_sum / n,
        ndcg=ndcg_sum / n,
        warnings=warnings,
    )


class PopRecScorer:
    """Non-personalized baseline: score = training-prefix frequency."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts

    def score_batch(self, user_ids, contexts, candidate_ids) -> np.ndarray:
        cands = np.asarray(candidate_ids, dtype=np.intp)
        return self.counts[cands].astype(np.float64)


def poprec_baseline(log: InteractionLog) -> PopRecScorer:
    """Popularity counts excluding each user's two held-out items."""
    prefix_items = [item for seq in log.sequences for item in seq[:-2]]
    counts = np.bincount(np.asarray(prefix_items, dtype=np.intp), minlength=log.item_count + 1)
    return PopRecScorer(counts)
