"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or -v to see them as they complete)."""
from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from qrseq import autodiff as ad
from qrseq import rng as rng_streams
from qrseq.cli import main as cli_main
from qrseq.data import ingest, make_splits, preprocess
from qrseq.evaluation import EvalConfig, evaluate, poprec_baseline, user_metrics
from qrseq.model import (
    ModelConfig,
    ModelScorer,
    ParameterStore,
    _aggregate,
    _pool,
    forward_batch,
)
from qrseq.training import AdamState, TrainConfig, adam_step, bce_loss, train_epoch
from helpers import (
    chain_log,
    mixed_order_log,
    model_loss_case,
    numeric_gradient,
    oracle_rank,
    relative_errors,
)

DATA_DIR = Path(__file__).parent / "data"


def report_criterion(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def gradient_check_configs():
    """20 small configurations spanning dims, lengths, scales, gates, depth."""
    rng = np.random.default_rng(2024)
    dims = (2, 4, 8)
    lengths = (3, 5)
    aggregations = ("S+S", "L+S", "L+M", "S+M", "M+M")
    configs = []
    for i in range(20):
        seq_len = lengths[i % 2]
        width_pool = list(range(1, seq_len + 1))
        n_scales = int(rng.integers(1, seq_len + 1))
        scales = tuple(sorted(rng.choice(width_pool, size=n_scales, replace=False)))
        configs.append(ModelConfig(
            num_items=int(rng.integers(8, 16)),
            num_users=int(rng.integers(2, 6)),
            latent_dim=dims[i % 3],
            seq_len=seq_len,
            scales=scales,
            num_layers=1 + (i // 2) % 2,
            use_output_gate=bool(i % 2),
            use_user_profile=bool((i // 3) % 2 == 0),
            aggregation=aggregations[i % 5],
            dropout=0.0,
        ))
    return configs


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    checked = 0
    for i, config in enumerate(gradient_check_configs()):
        store, loss_fn, run_tape = model_loss_case(config, seed=100 + i)
        run_tape()
        for name, p in store.named_parameters().items():
            numeric = numeric_gradient(loss_fn, p, eps=1e-5)
            worst = max(worst, float(relative_errors(p.grad, numeric).max()))
            checked += p.value.size
    elapsed = time.monotonic() - started
    report_criterion(
        "criterion 1: analytic gradients match central differences",
        worst < 1e-4 and elapsed < 120.0,
        f"20 configs, {checked} parameters, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_pooling_limit_identities():
    rng = np.random.default_rng(1)
    x_val = rng.normal(size=(4, 5))
    x = ad.constant(x_val)
    zeros = ad.constant(np.zeros((4, 5)))
    ones = ad.constant(np.ones((4, 5)))
    # the B=1 case of forward_batch's pooling stage: column t is timestep t
    passed = _pool(x, zeros, None, 1).value
    passthrough = all(np.array_equal(passed[:, t], x_val[:, t]) for t in range(5))
    held_states = _pool(x, ones, None, 1).value
    held = all(np.array_equal(held_states[:, t:t + 1], np.zeros((4, 1))) for t in range(5))
    f_gates = ad.constant(rng.uniform(0.05, 0.95, size=(5, 4)).T)  # one (4,) draw per step
    gated = _pool(x, f_gates, ones, 1).value
    plain = _pool(x, f_gates, None, 1).value
    reduces = all(np.array_equal(gated[:, t], plain[:, t]) for t in range(5))
    report_criterion(
        "criterion 2: pooling limit identities exact",
        passthrough and held and reduces,
        "f=0 passthrough, f=1 hold, o=1 reduction",
    )


def test_criterion_3_causality():
    rng = np.random.default_rng(2)
    cases = 0
    violations = 0
    stores = [
        ParameterStore(
            ModelConfig(num_items=20, num_users=3, latent_dim=4, seq_len=5,
                        num_layers=layers, use_output_gate=gate, dropout=0.0),
            rng_streams.stream(s, "init"), init_std=0.5,
        )
        for s, (layers, gate) in enumerate([(1, False), (2, False), (1, True), (2, True)])
    ]
    while cases < 100:
        store = stores[cases % len(stores)]
        ids = rng.integers(1, 21, size=(1, 5))
        t_perturb = int(rng.integers(1, 5))
        bumped = ids.copy()
        bumped[0, t_perturb] = 1 + (bumped[0, t_perturb] % 20)
        if bumped[0, t_perturb] == ids[0, t_perturb]:
            continue
        _, base = forward_batch(store, ids, [1], [[2]])
        _, other = forward_batch(store, bumped, [1], [[2]])
        for w, stale in base.scales.items():
            alt = other.scales[w]
            for layer in range(len(stale.forget_gates)):
                for t in range(t_perturb):
                    same_gate = np.array_equal(
                        stale.forget_gates[layer][:, t], alt.forget_gates[layer][:, t]
                    )
                    same_hidden = np.array_equal(
                        stale.hidden[layer][:, t], alt.hidden[layer][:, t]
                    )
                    if not (same_gate and same_hidden):
                        violations += 1
        cases += 1
    report_criterion(
        "criterion 3: gates and states are causal",
        violations == 0,
        f"100 perturbed inputs, {violations} violations",
    )


def test_criterion_4_hsa_linearity():
    rng = np.random.default_rng(3)
    # 4 scales of 5 timesteps, one (6,) draw per step; column t is timestep t
    seqs = [ad.constant(seq) for seq in rng.normal(size=(4, 5, 6)).transpose(0, 2, 1)]
    joint = _aggregate(seqs, "S+S", 1).value
    separate = sum(_aggregate([seq], "S+S", 1).value for seq in seqs)
    gap = float(np.abs(joint - separate).max())
    report_criterion(
        "criterion 4: sum-over-scales aggregation is linear",
        gap <= 1e-12,
        f"max abs gap {gap:.2e}",
    )


def test_criterion_5_metric_oracle_equivalence():
    from helpers import uniform_log

    log = uniform_log(num_users=200, num_items=400, seq_len=12, seed=15)
    splits = make_splits(log, seq_len=5)
    config = EvalConfig(seed=21)

    class PseudoScorer:
        def score_batch(self, user_ids, contexts, candidate_ids):
            users = np.asarray(user_ids)[:, None]
            cands = np.asarray(candidate_ids)
            return np.sin(users * 977.0 + cands * 131.0)

    scorer = PseudoScorer()
    report = evaluate(scorer, "test", log, splits, config)

    from qrseq.data import sample_negatives

    mismatches = 0
    ap = recall = ndcg = 0.0
    for i, user in enumerate(splits.test_users):
        user = int(user)
        target = int(splits.test_targets[i])
        stream = rng_streams.stream(config.seed, "eval-candidates", "test", user)
        negs = sample_negatives(log, user, config.num_negatives, stream)
        cands = np.concatenate([[target], negs])
        scores = scorer.score_batch([user], splits.test_contexts[i:i + 1], cands[None, :])[0]
        rank = oracle_rank(cands, scores, target)
        if rank != report.ranks[i]:
            mismatches += 1
        a, r, n = user_metrics(rank, config.k)
        ap += a
        recall += r
        ndcg += n
    n_users = len(report.ranks)
    agg_match = (
        report.map == ap / n_users
        and report.recall == recall / n_users
        and report.ndcg == ndcg / n_users
    )
    report_criterion(
        "criterion 5: evaluation matches the sort-based oracle",
        mismatches == 0 and agg_match,
        f"200 users, {mismatches} rank mismatches",
    )


def test_criterion_6_single_example_overfit():
    config = ModelConfig(num_items=30, num_users=2, latent_dim=16, seq_len=5, dropout=0.0)
    store = ParameterStore(config, rng_streams.stream(6, "init"))
    state = AdamState(store)
    contexts = np.array([[3, 9, 14, 21, 27]])
    users = np.array([1])
    candidates = np.array([[5, 11, 17, 23]])
    steps = 0
    loss_value = np.inf
    while steps < 500 and loss_value >= 0.01:
        store.zero_grads()
        with ad.record():
            scores, _ = forward_batch(store, contexts, users, candidates, mode="eval")
            loss = bce_loss(ad.slice_cols(scores, 0, 1), ad.slice_cols(scores, 1, 4))
        ad.backward(loss)
        adam_step(store, state, lr=0.01, l2=0.0)
        loss_value = loss.item()
        steps += 1
    report_criterion(
        "criterion 6: one repeated window overfits",
        loss_value < 0.01 and steps <= 500,
        f"loss {loss_value:.5f} after {steps} steps",
    )


def test_criterion_7_synthetic_learnability():
    started = time.monotonic()
    log = chain_log(num_users=500, num_items=200, seq_len=30, seed=123)
    model_config = ModelConfig(num_items=log.item_count, num_users=log.user_count)
    splits = make_splits(log, model_config.seq_len)
    eval_config = EvalConfig(seed=123)

    pop_report = evaluate(poprec_baseline(log), "test", log, splits, eval_config)

    train_config = TrainConfig(seed=123)
    store = ParameterStore(model_config, rng_streams.stream(123, "init"))
    state = AdamState(store)
    best_recall = 0.0
    epochs = 0
    for epoch in range(1, 21):
        train_epoch(log, splits, store, state, train_config, epoch)
        report = evaluate(ModelScorer(store), "test", log, splits, eval_config)
        best_recall = max(best_recall, report.recall)
        epochs = epoch
        if best_recall >= 0.9:
            break
    elapsed = time.monotonic() - started
    report_criterion(
        "criterion 7: sequential structure is exploitable",
        best_recall >= 0.9 and pop_report.recall <= 0.3 and elapsed < 600.0,
        f"model recall {best_recall:.3f} in {epochs} epoch(s), "
        f"poprec recall {pop_report.recall:.3f}, {elapsed:.0f}s",
    )


def test_criterion_8_multi_scale_ablation_direction():
    log = mixed_order_log(num_users=500, num_items=200, seq_len=30, seed=321)
    splits = make_splits(log, 5)
    variants = {"multi": (1, 2, 3, 4, 5), **{f"w={w}": (w,) for w in range(1, 6)}}

    def train_variant(scales, seed):
        config = ModelConfig(
            num_items=log.item_count, num_users=log.user_count,
            latent_dim=32, seq_len=5, scales=scales, dropout=0.2,
        )
        train_config = TrainConfig(seed=seed, lr=0.003)
        store = ParameterStore(config, rng_streams.stream(seed, "init"))
        state = AdamState(store)
        for epoch in range(1, 5):
            train_epoch(log, splits, store, state, train_config, epoch)
        return evaluate(
            ModelScorer(store), "test", log, splits, EvalConfig(seed=seed)
        ).ndcg

    seeds = (1, 2, 3)
    means = {
        name: float(np.mean([train_variant(scales, seed) for seed in seeds]))
        for name, scales in variants.items()
    }
    slack = 0.02
    shortfalls = {
        name: means["multi"] - ndcg
        for name, ndcg in means.items()
        if name != "multi" and means["multi"] < ndcg - slack
    }
    detail = ", ".join(f"{name} {value:.3f}" for name, value in means.items())
    report_criterion(
        "criterion 8: multi-scale is not dominated by any single scale",
        not shortfalls,
        detail,
    )


def test_criterion_9_training_determinism(small_dataset, base_config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["train", "--data", str(small_dataset), "--config", str(base_config),
                      "--out", str(out1)])
    code2 = cli_main(["train", "--data", str(small_dataset), "--config", str(base_config),
                      "--out", str(out2)])
    same = (out1 / "test_report.json").read_bytes() == (out2 / "test_report.json").read_bytes()
    report_criterion(
        "criterion 9: identical seeds give byte-identical test reports",
        code1 == 0 and code2 == 0 and same,
    )


def test_criterion_10_preprocessing_conformance():
    records, bad = ingest(DATA_DIR / "interactions_fixture.csv")
    log = preprocess(records, min_rating=3, min_interactions=10)
    golden = json.loads((DATA_DIR / "preprocess_golden.json").read_text(encoding="utf-8"))
    ok = not bad and log.to_dict() == golden
    report_criterion(
        "criterion 10: preprocessing matches the golden fixture",
        ok,
        f"{log.user_count} user(s), {log.item_count} item(s), "
        f"{log.interaction_count} interaction(s)",
    )
