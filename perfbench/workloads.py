"""Workloads of the qrseq benchmark and the closed loop that runs them.

Every workload is a list of cases. A case is one dataset plus one model
and training configuration, all generated here from the workload seed;
nothing is read from `tests/`. One *unit* runs every case once through
the public API, in the order `qrseq train` uses it:

  setup      InteractionLog, make_splits, ParameterStore, AdamState, ModelScorer
             (made SETUP_REPEATS times; the last set is used)
  train      train_epoch, each epoch followed by one validation and one test
             evaluate, as `fit` does
  gradcheck  one taped backward, then central differences over sampled coordinates

A run is a closed loop with one caller: each step starts when the previous
one ends. Its first unit warms up: it is checked but not timed, as it pays
for first touching the process's memory (800k page faults, 3 s, on
train-chain-d128). Timed units follow, two at least, while another should
end within `--seconds`. Because units repeat exactly, every later unit also
checks that the run is deterministic. Between units the benchmark frees the last unit's garbage
with `gc.collect()`, outside every timed interval, so that the peak memory
a run reports is that of one unit.

Times are wall seconds (`time.perf_counter`), less the time the output
checks take inside a timed interval. Every timed part of a unit carries a
key, and parts with one key do the same work: a case's set-up, a training
step over a batch of a given size, the first step of an epoch (which also
shuffles), an epoch's tail, one split's evaluate call (the first epoch's
apart, as it fills the per-user caches), a gradcheck's taped pass, one
gradcheck coordinate. A phase's time is, summed over its keys, the parts
per unit with that key times a quantile of their times pooled over the
run: the median for setup_s, one set-up (a unit makes SETUP_REPEATS of
each case), and the upper quartile for the train, eval and gradcheck rates.
The shared two-core host this was built on runs the same code at two
speeds, up to 1.8x apart; the faster comes and goes for seconds to minutes.
A run's median falls in whichever speed covered more of the run; its upper
quartile stays at the usual, slower speed unless the faster covers three
quarters of it. Over sets of five and ten seeds there, the rates' spread
across seeds was at most 0.01 above the median's and up to three quarters
below it.

Output checks, each counted as one attempted operation:
  * every training step: loss and every gradient finite;
  * every evaluated user: rank equals an independent sort-based oracle over
    the same candidates and scores, and every score is finite;
  * every gradcheck coordinate: relative error below 1e-4;
  * train-chain-d128: test recall@10 of each unit at least 0.9;
  * every unit after the first: same train_loss_final and val_ndcg_at_10.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from qrseq import autodiff, data, evaluation, model, training
from qrseq import rng as rng_streams
from qrseq.data import InteractionLog
from qrseq.evaluation import EvalConfig
from qrseq.model import ModelConfig
from qrseq.training import TrainConfig

import layers
from tracer import Patcher, Tracer, hooked

GRAD_EPS = 1e-5
GRAD_FLOOR = 1e-3
GRAD_TOLERANCE = 1e-4
GRAD_BATCH = 3
GRAD_POOL_LIMIT = 4096  # larger tables only offer rows the gradcheck batch touches
SETUP_REPEATS = 3
WARMUP_UNITS = 1  # checked, not timed
RATE_QUANTILE = 75  # of each part's pooled times; see the module docstring


@dataclass
class Case:
    sequences: list[list[int]]
    num_items: int
    model: ModelConfig
    train: TrainConfig
    eval: EvalConfig
    init_std: float
    epochs: int
    train_slice: np.ndarray | None  # training-window indices; None trains on all
    grad_windows: np.ndarray  # GRAD_BATCH training-window indices
    grad_negatives: np.ndarray  # (GRAD_BATCH, 2) item ids
    grad_per_tensor: int  # coordinates checked per parameter tensor
    grad_rng_key: tuple[int, ...]


@dataclass
class Workload:
    name: str
    why: str
    cases: list[Case]
    min_test_recall: float | None = None


# ---------------------------------------------------------------------------
# input generation (benchmark-owned, seeded by the workload seed)


def chain_sequences(rng: np.random.Generator, num_users: int, num_items: int,
                    length: int) -> list[list[int]]:
    """Users walk one random cycle through every item: the next item follows
    from the last. No item repeats within a history no longer than the
    catalogue, so every user has the same number of unseen items, every
    evaluated user the same candidate count, and the work of a run does not
    depend on its seed."""
    order = rng.permutation(num_items) + 1
    nxt = np.empty(num_items, dtype=np.int64)
    nxt[order - 1] = np.roll(order, -1)
    starts = rng.integers(1, num_items + 1, size=num_users)
    sequences = []
    for item in starts.tolist():
        seq = [item]
        for _ in range(length - 1):
            item = int(nxt[item - 1])
            seq.append(item)
        sequences.append(seq)
    return sequences


def zipf_sequences(rng: np.random.Generator, num_users: int, num_items: int,
                   min_len: int, max_len: int) -> list[list[int]]:
    """Distinct items per user drawn by Zipf(1)-skewed popularity; uneven lengths."""
    popularity = 1.0 / np.arange(1, num_items + 1)
    cdf = np.cumsum(popularity[rng.permutation(num_items)])
    cdf /= cdf[-1]
    # Every seed gets the same multiset of lengths, so the same number of
    # windows and allocations: when the garbage collector runs, and so the
    # peak memory, does not depend on the seed.
    lengths = rng.permutation(np.resize(np.arange(min_len, max_len + 1), num_users))
    sequences = []
    for length in lengths.tolist():
        seq: dict[int, None] = {}
        while len(seq) < length:
            draws = np.searchsorted(cdf, rng.random(3 * length), side="right") + 1
            for item in draws.tolist():
                seq.setdefault(min(item, num_items))
                if len(seq) == length:
                    break
        sequences.append(list(seq))
    return sequences


def window_count(sequences: list[list[int]]) -> int:
    return sum(len(seq) - 3 for seq in sequences)


def gradcheck_inputs(rng: np.random.Generator, sequences, num_items: int):
    windows = np.sort(rng.choice(window_count(sequences), size=GRAD_BATCH, replace=False))
    negatives = rng.integers(1, num_items + 1, size=(GRAD_BATCH, 2))
    return windows, negatives


def criterion1_configs() -> list[ModelConfig]:
    """The 20 small architectures of acceptance criterion 1 (fixed, not seeded)."""
    rng = np.random.default_rng(2024)
    dims = (2, 4, 8)
    lengths = (3, 5)
    aggregations = ("S+S", "L+S", "L+M", "S+M", "M+M")
    configs = []
    for i in range(20):
        seq_len = lengths[i % 2]
        n_scales = int(rng.integers(1, seq_len + 1))
        scales = tuple(sorted(rng.choice(range(1, seq_len + 1), size=n_scales, replace=False)))
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


# catalog-20k runs, but BENCHMARK.json leaves it out: a unit takes about 30 s
# and holds only two evaluate calls of 5-12 s, so at two units a run its
# timings cannot be pooled enough to be steady on a shared two-core machine,
# and its runs would not fit the benchmark's time budget beside the others.
WHY = {
    "train-chain-d128": "criterion-7 shape, default d=128 model, a whole epoch then evaluation: "
                        "autodiff backward and the gate GEMMs do the work; data sampling is "
                        "under 5%",
    "catalog-20k": "20k users x 5k Zipf items at d=64: cold unseen-item build, 40k rng streams, "
                   "per-user ranking and Adam over 2.3M parameters dominate; GEMMs are small",
    "gradcheck-c1": "the 20 tiny criterion-1 configs, trained, evaluated and gradient-checked: "
                    "per-op Python overhead in autodiff and model, not arithmetic, so cutting "
                    "tape records shows here",
}


def build_workload(name: str, seed: int, toy: bool = False) -> Workload:
    """Generate a workload's inputs from its seed. `toy` shrinks every size
    for the schema smoke check; the benchmark itself never sets it."""
    rng = np.random.default_rng([seed, sorted(WHY).index(name)])
    if name == "train-chain-d128":
        users, items, length, dim = (60, 40, 12, 16) if toy else (500, 200, 30, 128)
        sequences = chain_sequences(rng, users, items, length)
        windows, negatives = gradcheck_inputs(rng, sequences, items)
        case = Case(
            sequences, items,
            ModelConfig(num_items=items, num_users=users, latent_dim=dim),
            TrainConfig(seed=seed, batch_size=64 if toy else 512, lr=0.01 if toy else 0.001),
            EvalConfig(seed=seed), init_std=model.INIT_STD, epochs=3 if toy else 1,
            train_slice=None, grad_windows=windows, grad_negatives=negatives,
            grad_per_tensor=2 if toy else 16, grad_rng_key=(seed, 0),
        )
        return Workload(name, WHY[name], [case], min_test_recall=0.9)
    if name == "catalog-20k":
        users, items, dim, batches = (300, 200, 8, 2) if toy else (20_000, 5_000, 64, 10)
        sequences = zipf_sequences(rng, users, items, 8, 40)
        train_slice = np.sort(rng.choice(window_count(sequences), size=batches * 512,
                                         replace=False))
        windows, negatives = gradcheck_inputs(rng, sequences, items)
        case = Case(
            sequences, items,
            ModelConfig(num_items=items, num_users=users, latent_dim=dim),
            TrainConfig(seed=seed), EvalConfig(seed=seed),
            init_std=model.INIT_STD, epochs=1, train_slice=train_slice,
            grad_windows=windows, grad_negatives=negatives,
            grad_per_tensor=2 if toy else 16, grad_rng_key=(seed, 0),
        )
        return Workload(name, WHY[name], [case])
    if name == "gradcheck-c1":
        configs = criterion1_configs()[:3] if toy else criterion1_configs()
        cases = []
        for i, config in enumerate(configs):
            # Keep at least two unseen items per user for the two training negatives.
            length = min(config.seq_len + 4, config.num_items - 2)
            sequences = chain_sequences(rng, config.num_users, config.num_items, length)
            windows, negatives = gradcheck_inputs(rng, sequences, config.num_items)
            cases.append(Case(
                sequences, config.num_items, config,
                TrainConfig(seed=seed, lr=0.01, batch_size=3, negatives_per_target=2),
                EvalConfig(seed=seed), init_std=0.4, epochs=2 if toy else 8,
                train_slice=None, grad_windows=windows, grad_negatives=negatives,
                grad_per_tensor=1, grad_rng_key=(seed, i),
            ))
        return Workload(name, WHY[name], cases)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(sorted(WHY))}")


# ---------------------------------------------------------------------------
# output checks


class Timer:
    """Wall-clock marks that leave out time handed to `exclude`."""

    def __init__(self):
        self.excluded = 0.0

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.excluded

    def exclude(self, seconds: float) -> None:
        self.excluded += seconds

    @staticmethod
    def seconds(start: tuple[float, float], end: tuple[float, float]) -> float:
        return (end[0] - start[0]) - (end[1] - start[1])


class StepGuard:
    """Checks each training step's loss (at `backward`) and gradients (at
    `adam_step`), and marks the timer when each step ends. The checks' time
    is excluded from the timer."""

    def __init__(self, timer: Timer):
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.step_ends: list[tuple[float, float]] = []
        self._loss_finite = True

    def check_loss(self, args) -> None:
        t0 = time.perf_counter()
        self._loss_finite = bool(np.isfinite(args[0].value).all())
        self.timer.exclude(time.perf_counter() - t0)

    def check_grads(self, args) -> None:
        t0 = time.perf_counter()
        ok = self._loss_finite and all(
            np.isfinite(p.grad).all() for p in args[0].named_parameters().values()
        )
        self.attempted += 1
        self.failed += not ok
        self.timer.exclude(time.perf_counter() - t0)

    def end_step(self, result) -> None:
        self.step_ends.append(self.timer.mark())

    def install(self, patcher: Patcher) -> None:
        patcher.patch(autodiff, "backward", lambda fn: hooked(fn, before=self.check_loss))
        patcher.patch(training, "adam_step",
                      lambda fn: hooked(fn, before=self.check_grads, after=self.end_step))


class RecordingScorer:
    """Passes `score_batch` through to the model scorer and keeps what it returned."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def score_batch(self, user_ids, contexts, candidate_ids):
        scores = self.inner.score_batch(user_ids, contexts, candidate_ids)
        self.batches.append((np.asarray(user_ids), np.asarray(candidate_ids), scores))
        return scores


def oracle_failures(report, recorder: RecordingScorer, users, targets) -> int:
    """Users whose rank differs from a sort-based oracle, or with a non-finite score.

    The oracle sorts each user's scores and binary-searches the target's
    score: with every tie counted against the target, the rank is the number
    of scores at or above it.
    """
    target_of = dict(zip(users.tolist(), targets.tolist()))
    expected: dict[int, int] = {}
    for batch_users, cands, scores in recorder.batches:
        wanted = np.array([target_of[int(u)] for u in batch_users])
        hit = cands == wanted[:, None]
        target_score = scores[np.arange(len(batch_users)), hit.argmax(axis=1)]
        ascending = np.sort(scores, axis=1)
        finite = np.isfinite(scores).all(axis=1) & hit.any(axis=1)
        for u, row, value, ok in zip(batch_users.tolist(), ascending, target_score, finite):
            below = int(np.searchsorted(row, value, side="left"))
            expected[u] = row.size - below if ok else -1
    return sum(
        expected.get(int(u), -1) != rank for u, rank in zip(users, report.ranks)
    )


# ---------------------------------------------------------------------------
# one unit


PHASES = ("setup", "train", "eval", "grad")


@dataclass
class UnitResult:
    """Work done by one unit, and the time of each timed part of it as
    (key, seconds) per phase; identical units have identical keys."""

    parts: dict[str, list[tuple[tuple, float]]] = field(
        default_factory=lambda: {phase: [] for phase in PHASES})
    step_seconds: list[float] = field(default_factory=list)
    train_windows: int = 0
    eval_users: int = 0
    grad_coords: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    loss_final: float = 0.0
    val_ndcg: float = 0.0
    test_recall: float = 0.0


def phase_seconds(units: list[UnitResult], phase: str, quantile: float) -> float:
    """Per key, the parts per unit times a quantile (0-100) of their pooled
    times; summed."""
    pooled: dict[tuple, list[float]] = {}
    for u in units:
        for key, seconds in u.parts[phase]:
            pooled.setdefault(key, []).append(seconds)
    return sum(len(times) / len(units) * float(np.percentile(times, quantile))
               for times in pooled.values())


class Runner:
    """Runs units of one workload; `tracer`, once set, labels the spans' phases."""

    def __init__(self, workload: Workload, seed: int, guard: StepGuard):
        self.workload = workload
        self.seed = seed
        self.guard = guard
        self.timer = guard.timer
        self.tracer: Tracer | None = None

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def setup(self, case: Case):
        """Set up SETUP_REPEATS times, dropping each set before the next, so
        the set-up time is a median and peak memory holds one set."""
        self.phase("setup")
        seconds, made = [], None
        for _ in range(SETUP_REPEATS):
            made = None  # drop the previous set before making the next
            t0 = self.timer.mark()
            log = InteractionLog.from_sequences(case.sequences, case.num_items)
            splits = data.make_splits(log, case.model.seq_len)
            store = model.ParameterStore(case.model, rng_streams.stream(self.seed, "init"),
                                         init_std=case.init_std)
            state = training.AdamState(store)
            scorer = model.ModelScorer(store)
            seconds.append(Timer.seconds(t0, self.timer.mark()))
            made = (log, splits, store, state, scorer)
            del log, splits, store, state, scorer
        return seconds, made

    def unit(self) -> UnitResult:
        res = UnitResult()
        started = time.perf_counter()
        val_users = val_ndcg = test_recall = 0.0
        losses = []
        for c, case in enumerate(self.workload.cases):
            seconds, (log, splits, store, state, scorer) = self.setup(case)
            res.parts["setup"] += [((c,), t) for t in seconds]
            train_splits = splits
            if case.train_slice is not None:
                sl = case.train_slice
                train_splits = replace(splits, train_users=splits.train_users[sl],
                                       train_contexts=splits.train_contexts[sl],
                                       train_targets=splits.train_targets[sl])
            for epoch in range(1, case.epochs + 1):
                self.phase("train")
                first = len(self.guard.step_ends)
                start = self.timer.mark()
                loss, windows = training.train_epoch(log, train_splits, store, state,
                                                     case.train, epoch)
                end = self.timer.mark()
                res.train_windows += windows
                marks = [start, *self.guard.step_ends[first:], end]
                times = [Timer.seconds(a, b) for a, b in zip(marks[:-1], marks[1:])]
                size = case.train.batch_size
                keys = [(c, "first")] + [(c, min(size, windows - lo))
                                         for lo in range(size, windows, size)] + [(c, "tail")]
                res.parts["train"] += list(zip(keys, times, strict=True))
                res.step_seconds += times[:-1]
                self.phase("eval")
                reports = {}
                for split in ("validation", "test"):
                    recorder = RecordingScorer(scorer)
                    start = self.timer.mark()
                    report = evaluation.evaluate(recorder, split, log, splits, case.eval)
                    res.parts["eval"].append(((c, split, epoch == 1),
                                              Timer.seconds(start, self.timer.mark())))
                    res.eval_users += report.user_count
                    users, _, targets = splits.split_arrays(split)
                    res.attempted += report.user_count
                    res.failed += oracle_failures(report, recorder, users, targets)
                    reports[split] = report
            losses.append(loss)
            n_val = reports["validation"].user_count
            val_users += n_val
            val_ndcg += reports["validation"].ndcg * n_val
            test_recall += reports["test"].recall * n_val
            self.phase("gradcheck")
            coords, failed, (taped, coord_seconds) = self.gradcheck(case, splits, store)
            res.grad_coords += coords
            res.attempted += coords
            res.failed += failed
            res.parts["grad"] += [((c, "taped"), taped)] + [((c, "coord"), t)
                                                           for t in coord_seconds]
        self.phase("other")
        res.loss_final = float(np.mean(losses))
        res.val_ndcg = val_ndcg / val_users
        res.test_recall = test_recall / val_users
        if self.workload.min_test_recall is not None:
            res.attempted += 1
            res.failed += res.test_recall < self.workload.min_test_recall
        res.wall_s = time.perf_counter() - started
        return res

    def gradcheck(self, case: Case, splits, store
                  ) -> tuple[int, int, tuple[float, list[float]]]:
        """Analytic gradients against central differences at the trained point.

        Returns (coordinates, failures, (taped pass seconds, [each coordinate's]))."""
        w = case.grad_windows
        contexts = splits.train_contexts[w]
        users = splits.train_users[w]
        candidates = np.concatenate([splits.train_targets[w][:, None], case.grad_negatives],
                                    axis=1)
        width = candidates.shape[1]

        def loss_tensor():
            scores, _ = model.forward_batch(store, contexts, users, candidates, mode="eval")
            return training.bce_loss(autodiff.slice_cols(scores, 0, 1),
                                     autodiff.slice_cols(scores, 1, width))

        def loss_value():
            return loss_tensor().item()

        if self.tracer is not None:
            loss_value = self.tracer.span("bench.loss_eval", loss_value)

        params = store.named_parameters()
        touched = np.unique(np.concatenate([contexts.ravel(), candidates.ravel(), users]))
        pick = np.random.default_rng(case.grad_rng_key)
        coords = []
        for name, p in params.items():
            if p.value.size <= GRAD_POOL_LIMIT:
                pool = np.arange(p.value.size)
            else:
                row = p.value.size // p.shape[0]
                rows = touched[touched < p.shape[0]]
                pool = (rows[:, None] * row + np.arange(row)).ravel()
            take = min(case.grad_per_tensor, pool.size)
            coords.extend((name, int(i)) for i in pick.choice(pool, size=take, replace=False))

        start = self.timer.mark()
        store.zero_grads()
        with autodiff.record():
            loss = loss_tensor()
        autodiff.backward(loss)
        taped = Timer.seconds(start, self.timer.mark())
        parts = []
        failed = 0
        for name, i in coords:
            start = self.timer.mark()
            flat = params[name].value.reshape(-1)
            analytic = params[name].grad.reshape(-1)[i]
            orig = flat[i]
            flat[i] = orig + GRAD_EPS
            hi = loss_value()
            flat[i] = orig - GRAD_EPS
            lo = loss_value()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * GRAD_EPS)
            denom = max(abs(analytic), abs(numeric), GRAD_FLOOR)
            failed += not abs(analytic - numeric) / denom < GRAD_TOLERANCE
            parts.append(Timer.seconds(start, self.timer.mark()))
        return len(coords), failed, (taped, parts)


# ---------------------------------------------------------------------------
# a run


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        toy: bool = False) -> dict:
    """Run one workload; returns the result object plus details for the report."""
    workload = build_workload(name, seed, toy=toy)
    timer = Timer()
    guard = StepGuard(timer)
    tracer = Tracer() if trace else None
    runner = Runner(workload, seed, guard)

    def unit() -> UnitResult:
        patcher = Patcher()
        guard.install(patcher)
        try:
            return runner.unit()
        finally:
            patcher.restore()
            gc.collect()

    # After the warm-up, the traced run keeps two untraced units, the faster
    # of which is the base of the tracing overhead.
    untraced = 2 if trace else 0
    units: list[UnitResult] = []
    try:
        started = time.perf_counter()
        # Past the minimum, a unit starts only if it should end within
        # `seconds`, judged by the last unit's time, so a run lasts about
        # `seconds` however long its units are.
        while len(units) < WARMUP_UNITS + max(2, untraced + 1) or (
                time.perf_counter() - started + units[-1].wall_s <= seconds):
            if trace and len(units) == WARMUP_UNITS + untraced:
                runner.tracer = tracer
                tracer.install()
            units.append(unit())
    finally:
        if tracer is not None:
            tracer.uninstall()

    first = units[0]
    attempted = guard.attempted + sum(u.attempted for u in units) + len(units) - 1
    failed = guard.failed + sum(u.failed for u in units)
    failed += sum((u.loss_final, u.val_ndcg) != (first.loss_final, first.val_ndcg)
                  for u in units[1:])

    timed = units[WARMUP_UNITS:]
    if trace:
        base = min(timed[:untraced], key=lambda u: u.wall_s)
        traced = timed[untraced:]
        step_ms = [t * 1e3 for u in traced for t in u.step_seconds]
        metrics = layers.per_layer_metrics(tracer, traced, base, step_ms)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.npz")
    else:
        rate_s = {phase: phase_seconds(timed, phase, RATE_QUANTILE)
                  for phase in ("train", "eval", "grad")}
        metrics = {
            "setup_s": (phase_seconds(timed, "setup", 50) / SETUP_REPEATS, "s"),
            "train_windows_per_s": (first.train_windows / rate_s["train"], "windows/s"),
            "eval_users_per_s": (first.eval_users / rate_s["eval"], "users/s"),
            "gradcheck_coords_per_s": (first.grad_coords / rate_s["grad"], "coords/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "train_loss_final": (first.loss_final, "nats"),
            "val_ndcg_at_10": (first.val_ndcg, "ndcg"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "details": {
            "workload": name,
            "why": workload.why,
            "seed": seed,
            "units": len(units),
            "unit_wall_s": [u.wall_s for u in units],
            "phase_wall_s": {phase: [sum(t for _, t in u.parts[phase]) for u in units]
                             for phase in PHASES},
            "part_seconds": {phase: [[[repr(k), t] for k, t in u.parts[phase]] for u in units]
                             for phase in PHASES},
            "test_recall_at_10": first.test_recall,
            "training_steps": guard.attempted,
        },
    }
