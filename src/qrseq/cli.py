"""Command-line entry point: preprocess, train, evaluate, ablate.

Runs are driven by a flat key=value config file plus repeatable
``--set key=value`` overrides; the seed is mandatory so no run ever
depends on the wall clock. Exit codes: 0 success, 1 runtime failure,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import atomic
from .data import InteractionLog, first_non_utf8_line, ingest, make_splits, preprocess
from .errors import CompatibilityError, ConfigError, QrseqError
from .evaluation import EvalConfig, evaluate, poprec_baseline
from .model import ModelConfig, ModelScorer, load_checkpoint, run_shards_inline, save_checkpoint
from .training import FitResult, TrainConfig, fit

CSV_VERSION_LINE = "# format_version=1"

MANIFEST_VERSION = 1


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_scales(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _config_keys() -> dict:
    """config key -> (caster, section), from the config dataclasses' field
    annotations; sections group keys onto the dataclasses."""
    casters = {int: int, float: float, bool: _parse_bool, str: str,
               tuple[int, ...] | None: _parse_scales}
    keys = {"seed": (casters[typing.get_type_hints(TrainConfig)["seed"]], "run")}
    for section, cls, prefix in (("model", ModelConfig, ""), ("train", TrainConfig, ""),
                                 ("eval", EvalConfig, "eval_")):
        for name, kind in typing.get_type_hints(cls).items():
            if name not in ("num_items", "num_users", "seed"):
                keys[prefix + name] = (casters[kind], section)
    return keys


CONFIG_KEYS = _config_keys()


@dataclass
class RunConfig:
    """A run's validated settings; `model` has placeholder entity counts."""

    model: ModelConfig
    train: TrainConfig
    eval: EvalConfig
    raw: dict[str, str]


def load_config_file(path) -> dict[str, str]:
    """Flat key = value lines; blank lines and #/; comments are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}:{first_non_utf8_line(path)}: not UTF-8 text") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_run_config(file_values: dict[str, str] | None,
                       overrides: list[str] | None) -> RunConfig:
    """Merge config file and --set overrides into typed run settings,
    validated in full before any data is touched."""
    raw: dict[str, str] = dict(file_values or {})
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()

    sections = {"run": {}, "model": {}, "train": {}, "eval": {}}
    for key, text in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
        caster, section = CONFIG_KEYS[key]
        try:
            sections[section][key.removeprefix("eval_")] = caster(text)
        except ValueError as exc:
            raise ConfigError(f"config field {key!r}: {exc}") from exc
    if "seed" not in sections["run"]:
        raise ConfigError("config field 'seed' is required (no wall-clock default)")
    seed = sections["run"]["seed"]
    return RunConfig(
        model=ModelConfig(num_items=1, num_users=1, **sections["model"]),
        train=TrainConfig(seed=seed, **sections["train"]),
        eval=EvalConfig(seed=seed, **sections["eval"]),
        raw=raw,
    )


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _prepare_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output directory {out} is an existing file")
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} already has results; use --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    atomic.write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(args) -> int:
    in_path = _require_file(args.input, "input file")
    records, bad = ingest(in_path, format=args.format, strict=args.strict)
    if bad:
        print(f"skipped {len(bad)} malformed row(s)", file=sys.stderr)
    log = preprocess(records, min_rating=args.min_rating, min_interactions=args.min_interactions)
    log.save(args.out)
    users, items, inter = log.user_count, log.item_count, log.interaction_count
    sparsity = 1.0 - inter / (users * items)
    print(f"users: {users}")
    print(f"items: {items}")
    print(f"interactions: {inter}")
    print(f"sparsity: {sparsity:.2%}")
    print(f"wrote {args.out}")
    return 0


def _run_training(data_path: str, run_cfg: RunConfig, out_dir: Path) -> dict:
    """Shared train pipeline; returns the test-report dict it wrote."""
    log = InteractionLog.load(_require_file(data_path, "processed dataset"))
    model_cfg = replace(run_cfg.model, num_items=log.item_count, num_users=log.user_count)
    train_cfg, eval_cfg = run_cfg.train, run_cfg.eval
    splits = make_splits(log, model_cfg.seq_len)

    result: FitResult = fit(
        log, splits, model_cfg, train_cfg, eval_cfg,
        progress=lambda rec: print(
            f"epoch {rec.epoch}: loss {rec.mean_loss:.4f} "
            f"val map {rec.val_map:.4f} recall {rec.val_recall:.4f} ndcg {rec.val_ndcg:.4f}"
        ),
    )

    digest = log.digest()
    save_checkpoint(
        out_dir / "checkpoint.npz",
        result.store,
        extra={
            "seed": train_cfg.seed,
            "best_epoch": result.best_epoch,
            "eval_num_negatives": eval_cfg.num_negatives,
            "eval_k": eval_cfg.k,
            "dataset_sha256": digest,
        },
    )
    k = eval_cfg.k
    log_lines = [CSV_VERSION_LINE, f"epoch,mean_loss,val_map,val_recall_at_{k},val_ndcg_at_{k}"]
    for rec in result.history:
        log_lines.append(
            f"{rec.epoch},{rec.mean_loss!r},{rec.val_map!r},{rec.val_recall!r},{rec.val_ndcg!r}"
        )
    atomic.write_text(out_dir / "training_log.csv", "\n".join(log_lines) + "\n")

    _write_json(out_dir / "split_manifest.json", {
        "format_version": MANIFEST_VERSION,
        "seq_len": splits.seq_len,
        "seed": train_cfg.seed,
        "dataset_sha256": digest,
        "users": log.user_count,
        "items": log.item_count,
        "train_windows": int(len(splits.train_targets)),
        "validation_targets": int(len(splits.val_targets)),
        "test_targets": int(len(splits.test_targets)),
    })

    config_lines = [f"{key} = {value}" for key, value in sorted(run_cfg.raw.items())]
    atomic.write_text(out_dir / "config_resolved.ini", "\n".join(config_lines) + "\n")

    report = result.test_report.to_json_dict()
    report["best_epoch"] = result.best_epoch
    report["epochs_run"] = result.epochs_run
    _write_json(out_dir / "test_report.json", report)
    return report


def cmd_train(args) -> int:
    file_values = load_config_file(_require_file(args.config, "config file")) if args.config else {}
    run_cfg = resolve_run_config(file_values, args.set)
    _require_file(args.data, "processed dataset")
    out_dir = _prepare_out_dir(args.out, args.force)
    report = _run_training(args.data, run_cfg, out_dir)
    ndcg_key = next(k for k in report if k.startswith("ndcg_at_"))
    print(f"best epoch {report['best_epoch']}: test {ndcg_key} {report[ndcg_key]:.4f}")
    print(f"wrote {out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    log = InteractionLog.load(_require_file(args.data, "processed dataset"))
    if args.baseline == "poprec":
        if args.seed is None:
            raise ConfigError("--seed is required when evaluating the poprec baseline")
        scorer = poprec_baseline(log)
        stored = EvalConfig()
        seq_len = ModelConfig.seq_len  # PopRec ignores contexts
    else:
        store, extra = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
        cfg = store.config
        if cfg.num_items != log.item_count or cfg.num_users != log.user_count:
            raise CompatibilityError(
                f"checkpoint was trained on {cfg.num_users} users / {cfg.num_items} items "
                f"but the dataset has {log.user_count} / {log.item_count}"
            )
        trained_on = extra.get("dataset_sha256")  # a checkpoint without one is refused too
        if trained_on != log.digest():
            raise CompatibilityError(
                f"checkpoint was not trained on this dataset: its dataset_sha256 is "
                f"{trained_on!r}, the dataset's is {log.digest()!r}"
            )
        scorer = ModelScorer(store)
        if args.seed is None and "seed" not in extra:
            raise ConfigError("checkpoint carries no seed; pass --seed explicitly")
        # the settings the checkpoint was validated with
        try:
            stored = EvalConfig(**{key.removeprefix("eval_"): extra[key]
                                   for key in ("seed", "eval_num_negatives", "eval_k")
                                   if key in extra})
        except ConfigError as exc:
            raise CompatibilityError(f"{args.checkpoint}: not a model checkpoint ({exc})") from exc
        seq_len = cfg.seq_len
    flags = {"seed": args.seed, "num_negatives": args.num_negatives, "k": args.k}
    eval_cfg = replace(stored, **{key: v for key, v in flags.items() if v is not None})
    # the held-out rows read each user's last seq_len + 2 items; the windows before go unbuilt
    tails = InteractionLog([seq[-seq_len - 2:] for seq in log.sequences], log.user_ids,
                           log.item_ids)
    report = evaluate(scorer, args.split, log, make_splits(tails, seq_len), eval_cfg)
    text = report.to_json()
    if args.out:
        atomic.write_text(args.out, text)
    print(text, end="")
    return 0


ABLATION_STUDIES = ("output-gate", "aggregation", "user-profile", "scale")


def _study_variants(study: str, seq_len: int) -> list[tuple[str, dict[str, str]]]:
    if study == "output-gate":
        return [
            ("with O", {"use_output_gate": "true"}),
            ("w/o O", {"use_output_gate": "false"}),
        ]
    if study == "aggregation":
        variants = []
        for code in ("L+S", "L+M", "S+M", "M+M"):
            variants.append((code, {"aggregation": code}))
        variants.append(("HSA(S+S)", {"aggregation": "S+S"}))
        return variants
    if study == "user-profile":
        return [
            ("p_u only", {"scales": "", "use_user_profile": "true"}),
            ("QR-Rec w/o p_u", {"use_user_profile": "false"}),
            ("QR-Rec", {}),
        ]
    if study == "scale":
        variants = [
            (f"Quasi-RNN(w={w})", {"scales": str(w)}) for w in range(1, seq_len + 1)
        ]
        variants.append(("QR-Rec", {"scales": ",".join(str(w) for w in range(1, seq_len + 1))}))
        return variants
    raise ConfigError(f"unknown study {study!r}; expected one of {', '.join(ABLATION_STUDIES)}")


def _slug(label: str) -> str:
    return "".join(c.lower() if c.isalnum() else "_" for c in label).strip("_")


def _ablate_worker(job: tuple[str, RunConfig, str]) -> tuple[str, float]:
    data_path, run_cfg, out_dir = job
    report = _run_training(data_path, run_cfg, Path(out_dir))
    ndcg_key = next(k for k in report if k.startswith("ndcg_at_"))
    return out_dir, report[ndcg_key]


def cmd_ablate(args) -> int:
    file_values = load_config_file(_require_file(args.config, "config file")) if args.config else {}
    base_cfg = resolve_run_config(file_values, args.set)
    _require_file(args.data, "processed dataset")
    threads = os.environ.get("QRSEQ_THREADS", "1")  # worker processes for the variants
    if not threads.strip().isdecimal() or int(threads) < 1:
        raise ConfigError(f"QRSEQ_THREADS must be a positive integer, got {threads!r}")
    workers = int(threads)
    out_dir = _prepare_out_dir(args.out, args.force)
    eval_k = base_cfg.eval.k
    variants = _study_variants(args.study, base_cfg.model.seq_len)

    jobs = []
    labels = []
    for label, overrides in variants:
        raw = dict(base_cfg.raw)
        raw.update(overrides)
        variant_dir = out_dir / "variants" / _slug(label)
        variant_dir.mkdir(parents=True, exist_ok=True)
        jobs.append((args.data, resolve_run_config(raw, None), str(variant_dir)))
        labels.append(label)

    results: list[float] = []
    if workers > 1:
        # each process trains its shards and scores its chunks on its own thread:
        # N processes use N cores
        with ProcessPoolExecutor(max_workers=workers, initializer=run_shards_inline) as pool:
            for _, ndcg in pool.map(_ablate_worker, jobs):
                results.append(ndcg)
    else:
        for job in jobs:
            results.append(_ablate_worker(job)[1])

    lines = [CSV_VERSION_LINE, f"variant,ndcg_at_{eval_k}"]
    for label, ndcg in zip(labels, results):
        lines.append(f"\"{label}\",{ndcg:.6f}")
    table_path = out_dir / f"ablation_{args.study}.csv"
    atomic.write_text(table_path, "\n".join(lines) + "\n")
    for label, ndcg in zip(labels, results):
        print(f"{label}: ndcg@{eval_k} {ndcg:.4f}")
    print(f"wrote {table_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrseq",
        description="Multi-scale quasi-recurrent sequential recommender",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter raw interactions and build a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--min-rating", type=float, default=3)
    p.add_argument("--min-interactions", type=int, default=10)
    p.add_argument("--strict", action="store_true", help="fail on any malformed row")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model and report test metrics")
    p.add_argument("--data", required=True, help="processed dataset file")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint or the poprec baseline")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--baseline", choices=("poprec",))
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("validation", "test"), default="test")
    p.add_argument("--seed", type=int, help="evaluation seed (defaults to the checkpoint's)")
    p.add_argument("--num-negatives", type=int,
                   help="sampled negatives per user (defaults to the checkpoint's, else 100)")
    p.add_argument("--k", type=int, help="metric cutoff (defaults to the checkpoint's, else 10)")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train every variant of one ablation study")
    p.add_argument("--data", required=True)
    p.add_argument("--study", required=True, choices=ABLATION_STUDIES)
    p.add_argument("--config", help="base config file shared by all variants")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QrseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
