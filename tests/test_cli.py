"""End-to-end command behavior: artifacts, determinism, exit codes."""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qrseq import model, training
from qrseq.cli import CONFIG_KEYS, _parse_bool, _parse_scales, main, resolve_run_config
from qrseq.data import InteractionLog
from qrseq.model import ModelConfig, load_checkpoint
from helpers import chain_log, rewrite_checkpoint, rewrite_config_keys, write_interactions_csv


def run(args):
    return main([str(a) for a in args])


# -- preprocess -----------------------------------------------------------------


def test_preprocess_prints_counts_and_sparsity(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_interactions_csv(raw, sequences=[[f"i{k}" for k in range(10)]] * 3)
    out = tmp_path / "data.json"
    assert run(["preprocess", "--input", raw, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "users: 3" in text
    assert "items: 10" in text
    assert "interactions: 30" in text
    assert "sparsity: 0.00%" in text


def test_preprocess_reruns_are_byte_identical(tmp_path):
    raw = tmp_path / "raw.csv"
    write_interactions_csv(raw, sequences=[[f"i{k}" for k in range(12)]] * 2)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["preprocess", "--input", raw, "--out", out1]) == 0
    assert run(["preprocess", "--input", raw, "--out", out2]) == 0
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == \
        hashlib.sha256(out2.read_bytes()).hexdigest()


def test_preprocess_empty_result_fails_nonzero(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_interactions_csv(raw, rows=[("u1", "a", 1, 0), ("u1", "b", 2, 1)])
    code = run(["preprocess", "--input", raw, "--out", tmp_path / "data.json"])
    assert code == 1
    assert "no users" in capsys.readouterr().err


def test_preprocess_min_interactions_below_three_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_interactions_csv(raw, sequences=[["a", "b", "c", "d"], ["a", "b"]])
    out = tmp_path / "data.json"
    assert run(["preprocess", "--input", raw, "--min-interactions", 1, "--out", out]) == 2
    assert "min_interactions must be >= 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_preprocess_a_non_finite_min_rating_exits_2(tmp_path, value, capsys):
    raw = tmp_path / "raw.csv"
    write_interactions_csv(raw, sequences=[["a", "b", "c", "d"]] * 2)
    out = tmp_path / "data.json"
    # one token, or argparse reads "-inf" as an option
    assert run(["preprocess", "--input", raw, f"--min-rating={value}", "--out", out]) == 2
    assert "min_rating must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_strict_flag_rejects_malformed(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("user,item,rating,timestamp\nu1,a,bad,0\n", encoding="utf-8")
    code = run(["preprocess", "--input", raw, "--strict", "--out", tmp_path / "d.json"])
    assert code == 1
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_preprocess_an_input_that_is_not_utf8_exits_1(tmp_path, fmt, capsys):
    # the bad byte sits past the first 8 KiB, which a streamed read decodes as one buffer
    rows = [("u1", f"i{k % 40}", 5, k) for k in range(3000)]
    if fmt == "csv":
        lines = ["user,item,rating,timestamp"] + [",".join(map(str, row)) for row in rows]
    else:
        lines = [json.dumps(dict(zip(("user", "item", "rating", "timestamp"), row)))
                 for row in rows]
    text = ("\n".join(lines) + "\n").encode("utf-8")
    raw = tmp_path / f"raw.{fmt}"
    lines_before = 2499
    cut = sum(len(line) + 1 for line in lines[:lines_before])
    raw.write_bytes(text[:cut] + b"u\xe9" + text[cut + 2:])
    out = tmp_path / "data.json"
    assert run(["preprocess", "--input", raw, "--format", fmt, "--out", out]) == 1
    assert one_error_line(capsys) == f"error: {raw}:{lines_before + 1}: not UTF-8 text\n"
    assert not out.exists()


def test_preprocess_a_csv_field_past_the_size_limit_exits_1(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("user,item,rating,timestamp\nu1,a,5,0\nu1," + "b" * 200_000 + ",5,1\n",
                   encoding="utf-8")
    out = tmp_path / "data.json"
    assert run(["preprocess", "--input", raw, "--out", out]) == 1
    assert one_error_line(capsys) == (
        f"error: {raw}:3: field larger than field limit (131072)\n")
    assert not out.exists()


# -- train ------------------------------------------------------------------------


def test_train_writes_expected_artifacts(small_dataset, base_config, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--data", small_dataset, "--config", base_config, "--out", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == [  # no temp file left behind
        "checkpoint.npz", "config_resolved.ini", "split_manifest.json", "test_report.json",
        "training_log.csv",
    ]
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "# format_version=1"
    assert log_lines[1] == "epoch,mean_loss,val_map,val_recall_at_10,val_ndcg_at_10"
    assert len(log_lines) >= 4  # two epochs minimum
    manifest = json.loads((out / "split_manifest.json").read_text())
    assert manifest["seq_len"] == 5 and manifest["seed"] == 9
    report = json.loads((out / "test_report.json").read_text())
    assert report["split"] == "test" and report["users"] == 30


def test_train_refuses_to_overwrite_without_force(small_dataset, base_config, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--data", small_dataset, "--config", base_config, "--out", out]) == 0
    assert run(["train", "--data", small_dataset, "--config", base_config, "--out", out]) == 2
    assert run(["train", "--data", small_dataset, "--config", base_config,
                "--out", out, "--force"]) == 0


def test_train_missing_data_path_exits_2(base_config, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = run(["train", "--data", missing, "--config", base_config, "--out", tmp_path / "o"])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_train_unknown_config_field_exits_2(small_dataset, base_config, tmp_path, capsys):
    code = run(["train", "--data", small_dataset, "--config", base_config,
                "--set", "latent_dmension=8", "--out", tmp_path / "o"])
    assert code == 2
    assert "latent_dmension" in capsys.readouterr().err


def test_train_invalid_field_value_exits_2(small_dataset, base_config, tmp_path, capsys):
    code = run(["train", "--data", small_dataset, "--config", base_config,
                "--set", "dropout=1.5", "--out", tmp_path / "o"])
    assert code == 2
    assert "dropout" in capsys.readouterr().err


def test_train_non_finite_value_exits_2(small_dataset, base_config, tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["train", "--data", small_dataset, "--config", base_config,
                "--set", "lr=nan", "--out", out])
    assert code == 2
    assert "wrong type ['lr']" in capsys.readouterr().err
    assert not out.exists()


# The parent's hand-written table, which the derived one must reproduce.
EXPECTED_CONFIG_KEYS = {
    "seed": (int, "run"),
    "latent_dim": (int, "model"),
    "seq_len": (int, "model"),
    "scales": (_parse_scales, "model"),
    "num_layers": (int, "model"),
    "use_output_gate": (_parse_bool, "model"),
    "use_user_profile": (_parse_bool, "model"),
    "aggregation": (str, "model"),
    "dropout": (float, "model"),
    "lr": (float, "train"),
    "batch_size": (int, "train"),
    "l2": (float, "train"),
    "negatives_per_target": (int, "train"),
    "base_epochs": (int, "train"),
    "patience": (int, "train"),
    "max_epochs": (int, "train"),
    "eval_num_negatives": (int, "eval"),
    "eval_k": (int, "eval"),
}


def test_config_keys_are_derived_with_the_pinned_casters():
    assert list(CONFIG_KEYS.items()) == list(EXPECTED_CONFIG_KEYS.items())


def test_readme_run_ini_example_matches_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n# run\.ini\n(.*?)```", readme, re.S).group(1)
    values = dict(line.split(" = ", 1) for line in block.splitlines())
    assert values.keys() == CONFIG_KEYS.keys()
    for key, text in values.items():
        CONFIG_KEYS[key][0](text)
    resolve_run_config(values, None)


def test_train_requires_seed(small_dataset, tmp_path, capsys):
    code = run(["train", "--data", small_dataset, "--out", tmp_path / "o",
                "--set", "base_epochs=1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_same_seed_runs_are_byte_identical(small_dataset, base_config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["train", "--data", small_dataset, "--config", base_config, "--out", out1]) == 0
    assert run(["train", "--data", small_dataset, "--config", base_config, "--out", out2]) == 0
    assert (out1 / "test_report.json").read_bytes() == (out2 / "test_report.json").read_bytes()
    assert (out1 / "training_log.csv").read_bytes() == (out2 / "training_log.csv").read_bytes()


def test_cli_set_overrides_config_file(small_dataset, base_config, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--data", small_dataset, "--config", base_config,
                "--set", "scales=1", "--set", "base_epochs=1", "--out", out]) == 0
    resolved = (out / "config_resolved.ini").read_text()
    assert "scales = 1" in resolved
    assert "base_epochs = 1" in resolved


def test_single_scale_config_trains(small_dataset, base_config, tmp_path):
    out = tmp_path / "w1"
    assert run(["train", "--data", small_dataset, "--config", base_config,
                "--set", "scales=1", "--out", out]) == 0
    assert json.loads((out / "test_report.json").read_text())["users"] == 30


# -- evaluate ----------------------------------------------------------------------


@pytest.fixture()
def trained(small_dataset, base_config, tmp_path):
    out = tmp_path / "trained"
    assert run(["train", "--data", small_dataset, "--config", base_config, "--out", out]) == 0
    return out


def test_evaluate_reproduces_training_report(trained, small_dataset, capsys):
    # the checkpoint carries seed and eval settings, so no flags are needed
    report = json.loads((trained / "test_report.json").read_text())
    assert run(["evaluate", "--checkpoint", trained / "checkpoint.npz",
                "--data", small_dataset, "--split", "test"]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    for key in ("map", "recall_at_10", "ndcg_at_10", "users", "seed"):
        assert evaluated[key] == report[key]


def test_evaluate_splits_use_different_targets(trained, small_dataset, capsys):
    assert run(["evaluate", "--checkpoint", trained / "checkpoint.npz",
                "--data", small_dataset, "--split", "validation",
                "--num-negatives", "20"]) == 0
    val = json.loads(capsys.readouterr().out)
    assert run(["evaluate", "--checkpoint", trained / "checkpoint.npz",
                "--data", small_dataset, "--split", "test",
                "--num-negatives", "20"]) == 0
    test = json.loads(capsys.readouterr().out)
    assert val["split"] == "validation" and test["split"] == "test"
    assert (val["map"], val["ndcg_at_10"]) != (test["map"], test["ndcg_at_10"])


def test_evaluate_reports_equal_the_full_split_reports(trained, small_dataset, capsys,
                                                      monkeypatch):
    from qrseq import cli
    from qrseq.data import InteractionLog, make_splits
    from qrseq.evaluation import EvalConfig, evaluate, poprec_baseline
    from qrseq.model import ModelConfig, ModelScorer, load_checkpoint

    built = []
    monkeypatch.setattr(cli, "make_splits",
                        lambda *a: built.append(make_splits(*a)) or built[-1])
    log = InteractionLog.load(small_dataset)
    store, extra = load_checkpoint(trained / "checkpoint.npz")
    sources = [
        (["--checkpoint", trained / "checkpoint.npz"], ModelScorer(store), store.config.seq_len,
         EvalConfig(seed=extra["seed"], num_negatives=extra["eval_num_negatives"],
                    k=extra["eval_k"])),
        (["--baseline", "poprec", "--seed", 4], poprec_baseline(log), ModelConfig.seq_len,
         EvalConfig(seed=4)),
    ]
    for args, scorer, seq_len, config in sources:
        full = make_splits(log, seq_len)
        for split in ("validation", "test"):
            assert run(["evaluate", *args, "--data", small_dataset, "--split", split]) == 0
            expected = evaluate(scorer, split, log, full, config).to_json()
            assert capsys.readouterr().out == expected
            # each user's 12 items give 9 windows; the command builds seq_len - 1 of them
            assert len(built[-1].train_targets) == log.user_count * (seq_len - 1)


def test_poprec_baseline_needs_no_checkpoint(small_dataset, capsys):
    assert run(["evaluate", "--baseline", "poprec", "--data", small_dataset,
                "--seed", "4", "--num-negatives", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["users"] == 30


@pytest.mark.parametrize("source", [
    ["--checkpoint", "model.npz", "--baseline", "poprec"],
    [],
], ids=["both", "neither"])
def test_evaluate_needs_exactly_one_of_checkpoint_or_baseline(small_dataset, source, capsys):
    assert run(["evaluate", *source, "--data", small_dataset, "--seed", "4"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_evaluate_writes_report_file(trained, small_dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["evaluate", "--checkpoint", trained / "checkpoint.npz",
                "--data", small_dataset, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert json.loads(printed)["split"] == "test"


def test_evaluate_writes_through_a_symlinked_report_file(trained, small_dataset, tmp_path,
                                                         capsys):
    target = tmp_path / "reports" / "report.json"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "report.json"
    link.symlink_to(target)
    assert run(["evaluate", "--checkpoint", trained / "checkpoint.npz",
                "--data", small_dataset, "--out", link]) == 0
    assert link.is_symlink()
    assert target.read_text() == capsys.readouterr().out
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]


def test_train_divergence_exits_1_without_a_checkpoint(small_dataset, base_config, tmp_path,
                                                       capsys):
    out = tmp_path / "run"
    code = run(["train", "--data", small_dataset, "--config", base_config,
                "--set", "lr=1e300", "--out", out])
    assert code == 1
    assert "error: training diverged at epoch 1, batch 2" in capsys.readouterr().err
    assert not (out / "checkpoint.npz").exists()


def test_evaluate_checkpoint_with_unknown_config_key_fails(trained, small_dataset, capsys):
    path = trained / "checkpoint.npz"
    rewrite_config_keys(path, add={"window": 3})
    code = run(["evaluate", "--checkpoint", path, "--data", small_dataset])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown ['window']" in err


@pytest.mark.parametrize("value", [{"latent_dim": "x"}, {"latent_dim": 0}, {"aggregation": 3}],
                         ids=["wrong-type", "out-of-range", "wrong-type-not-a-choice"])
def test_evaluate_checkpoint_with_a_bad_config_value_exits_1(trained, small_dataset, capsys,
                                                              value):
    path = trained / "checkpoint.npz"
    rewrite_config_keys(path, add=value)
    code = run(["evaluate", "--checkpoint", path, "--data", small_dataset])
    assert code == 1
    assert "not a model checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("value", [{"eval_k": "x"}, {"seed": True}, {"eval_num_negatives": 2.5}],
                         ids=["k-str", "seed-bool", "negatives-float"])
def test_evaluate_checkpoint_with_bad_eval_settings_exits_1(trained, small_dataset, capsys,
                                                            value):
    path = trained / "checkpoint.npz"
    rewrite_checkpoint(path, lambda meta, arrays: meta["extra"].update(value))
    code = run(["evaluate", "--checkpoint", path, "--data", small_dataset])
    assert code == 1
    assert "not a model checkpoint" in capsys.readouterr().err


def test_evaluate_checkpoint_with_non_finite_values_exits_1(trained, small_dataset, capsys):
    path = trained / "checkpoint.npz"

    def poison(meta, arrays):
        arrays["values"][-1] = np.nan  # the last entry of head_bias, the last parameter
    rewrite_checkpoint(path, poison)
    code = run(["evaluate", "--checkpoint", path, "--data", small_dataset])
    assert code == 1
    assert "parameter head_bias holds non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("dtype", [complex, str, object, bool, np.int64, np.float32])
def test_evaluate_checkpoint_with_a_member_that_is_not_float64_exits_1(trained, small_dataset,
                                                                       capsys, dtype):
    path = trained / "checkpoint.npz"

    def convert(meta, arrays):
        arrays["values"] = arrays["values"].astype(dtype)
    rewrite_checkpoint(path, convert)
    code = run(["evaluate", "--checkpoint", path, "--data", small_dataset])
    assert code == 1
    assert " values " in one_error_line(capsys)


def test_evaluate_a_v1_checkpoint_exits_1(trained, small_dataset, capsys):
    # a checkpoint in the first format: one member per parameter name
    path = trained / "checkpoint.npz"
    store, _ = load_checkpoint(path)

    def to_v1(meta, arrays):
        meta["format_version"] = 1
        del arrays["values"]
        arrays.update((name, p.value) for name, p in store.named_parameters().items())
    rewrite_checkpoint(path, to_v1)
    code = run(["evaluate", "--checkpoint", path, "--data", small_dataset])
    assert code == 1
    assert "checkpoint format version 1 not supported (expected 2)" in one_error_line(capsys)


def test_train_records_the_datasets_digest(trained, small_dataset):
    # the dataset file holds the canonical text that the digest hashes
    digest = hashlib.sha256(small_dataset.read_bytes()).hexdigest()
    assert load_checkpoint(trained / "checkpoint.npz")[1]["dataset_sha256"] == digest
    assert json.loads((trained / "split_manifest.json").read_text())["dataset_sha256"] == digest


def test_evaluate_refuses_a_checkpoint_trained_on_other_data(base_config, tmp_path, capsys):
    log = chain_log(num_users=40, num_items=30, seq_len=12, seed=3)
    data, reversed_data = tmp_path / "data.json", tmp_path / "reversed.json"
    log.save(data)
    InteractionLog([seq[::-1] for seq in log.sequences], log.user_ids, log.item_ids).save(
        reversed_data)
    out = tmp_path / "run"
    assert run(["train", "--data", data, "--config", base_config, "--out", out,
                "--set", "seed=1", "--set", "base_epochs=1", "--set", "max_epochs=1",
                "--set", "latent_dim=8"]) == 0
    capsys.readouterr()
    # same users and items, so only the digest tells the two logs apart
    code = run(["evaluate", "--checkpoint", out / "checkpoint.npz", "--data", reversed_data])
    assert code == 1
    assert "not trained on this dataset" in one_error_line(capsys)
    assert run(["evaluate", "--checkpoint", out / "checkpoint.npz", "--data", data]) == 0


def test_evaluate_refuses_a_checkpoint_without_a_dataset_digest(trained, small_dataset, capsys):
    path = trained / "checkpoint.npz"
    rewrite_checkpoint(path, lambda meta, arrays: meta["extra"].pop("dataset_sha256"))
    code = run(["evaluate", "--checkpoint", path, "--data", small_dataset])
    assert code == 1
    assert "its dataset_sha256 is None" in one_error_line(capsys)


def test_evaluate_incompatible_dataset_fails(trained, tmp_path, capsys):
    other_raw = tmp_path / "other.csv"
    write_interactions_csv(other_raw, sequences=[[f"x{k}" for k in range(11)]] * 4)
    other = tmp_path / "other.json"
    assert run(["preprocess", "--input", other_raw, "--out", other]) == 0
    code = run(["evaluate", "--checkpoint", trained / "checkpoint.npz", "--data", other])
    assert code == 1
    assert "items" in capsys.readouterr().err


def dataset_text(sequences, user_ids=("u1",), item_ids=("i1", "i2")) -> str:
    """A processed dataset's JSON; tuples are written as lists."""
    return json.dumps({"format_version": 1, "sequences": sequences,
                       "user_ids": user_ids, "item_ids": item_ids}) + "\n"


MALFORMED_DATASETS = {
    "not-json": "not json\n",
    "missing-keys": '{"format_version": 1}\n',
    "not-an-object": "[1, 2]\n",
    "sequences-not-a-list": dataset_text(5, user_ids=(), item_ids=()),
    "sequence-not-a-list": dataset_text([5]),
    "item-id-zero": dataset_text([[1, 0]]),
    "item-id-past-the-catalogue": dataset_text([[1, 3]]),
    "item-id-not-an-int": dataset_text([[1, 1.5]]),
    "item-id-a-bool": dataset_text([[1, True]]),
    "item-id-a-string": dataset_text([["1"]]),
    "user-ids-not-strings": dataset_text([[1]], user_ids=[1]),
    "item-ids-not-a-list": dataset_text([[1]], item_ids="i1"),
    "fewer-user-ids-than-sequences": dataset_text([[1], [2]]),
    "nested-past-the-recursion-limit": "[" * 1000 + "]" * 1000 + "\n",
}


@pytest.mark.parametrize("content", MALFORMED_DATASETS.values(), ids=MALFORMED_DATASETS.keys())
def test_evaluate_malformed_dataset_exits_1(tmp_path, content, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code = run(["evaluate", "--baseline", "poprec", "--seed", 1, "--data", bad])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not a processed dataset") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "evaluate-poprec"])
def test_a_user_too_short_to_split_exits_1(base_config, tmp_path, command, capsys):
    data = tmp_path / "short.json"
    data.write_text(dataset_text([[1, 2, 3, 4], [2, 3]], user_ids=["u1", "u2"],
                                 item_ids=["i1", "i2", "i3", "i4"]))
    if command == "train":
        args = ["train", "--data", data, "--config", base_config, "--out", tmp_path / "run"]
    else:
        args = ["evaluate", "--baseline", "poprec", "--seed", 1, "--data", data]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: user 2 ('u2') has only 2 interaction") and err.count("\n") == 1


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_train_without_a_training_window_exits_1(base_config, tmp_path, capsys):
    # each user's 3 items are one context item and the two held-out targets
    data = tmp_path / "short.json"
    data.write_text(dataset_text([[1, 2, 3], [2, 3, 4], [4, 5, 6], [5, 6, 7], [7, 1, 2]],
                                 user_ids=[f"u{u}" for u in range(1, 6)],
                                 item_ids=[f"i{i}" for i in range(1, 8)]))
    out = tmp_path / "run"
    assert run(["train", "--data", data, "--config", base_config, "--out", out]) == 1
    assert "training split is empty" in one_error_line(capsys)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "evaluate-poprec"])
def test_a_dataset_with_no_users_exits_1(base_config, tmp_path, command, capsys):
    data = tmp_path / "empty.json"
    data.write_text(dataset_text([], user_ids=[], item_ids=[]))
    if command == "train":
        args = ["train", "--data", data, "--config", base_config, "--out", tmp_path / "run"]
    else:
        args = ["evaluate", "--baseline", "poprec", "--seed", 1, "--data", data]
    assert run(args) == 1
    assert one_error_line(capsys) == f"error: {data}: dataset has no users\n"


def test_evaluate_a_user_with_no_unseen_item_exits_1(tmp_path, capsys):
    # each user saw all 6 items, so a target could only be ranked alone
    data = tmp_path / "seen-all.json"
    data.write_text(dataset_text([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1],
                                  [2, 4, 6, 1, 3, 5], [3, 1, 2, 6, 4, 5]],
                                 user_ids=["u1", "u2", "u3", "u4"],
                                 item_ids=[f"i{i}" for i in range(1, 7)]))
    assert run(["evaluate", "--baseline", "poprec", "--seed", 1, "--data", data]) == 1
    assert one_error_line(capsys).startswith("error: user 1 ('u1') has seen every item")


def test_train_out_naming_a_file_exits_2(small_dataset, base_config, tmp_path, capsys):
    out = tmp_path / "run"
    out.write_text("not a directory\n")
    code = run(["train", "--data", small_dataset, "--config", base_config, "--out", out])
    assert code == 2
    assert capsys.readouterr().err == f"error: output directory {out} is an existing file\n"
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["train-config", "evaluate-data"])
def test_input_file_naming_a_directory_exits_1(small_dataset, tmp_path, command, capsys):
    if command == "train-config":
        args = ["train", "--data", small_dataset, "--config", tmp_path, "--out", tmp_path / "run"]
    else:
        args = ["evaluate", "--baseline", "poprec", "--seed", 1, "--data", tmp_path]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_config_file_that_is_not_utf8_exits_2(small_dataset, tmp_path, command, capsys):
    config = tmp_path / "run.ini"
    config.write_bytes(b"seed = 9\n# caf\xe9 settings\nlatent_dim = 4\n")
    out = tmp_path / "run"
    args = [command, "--data", small_dataset, "--config", config, "--out", out]
    if command == "ablate":
        args += ["--study", "output-gate"]
    assert run(args) == 2
    assert one_error_line(capsys) == f"error: {config}:2: not UTF-8 text\n"
    assert not out.exists()


# -- ablate ------------------------------------------------------------------------


def ablate_config(tmp_path):
    path = tmp_path / "ablate.ini"
    path.write_text(
        "\n".join([
            "seed = 5",
            "latent_dim = 4",
            "seq_len = 5",
            "base_epochs = 1",
            "patience = 1",
            "max_epochs = 1",
            "batch_size = 64",
            "lr = 0.01",
            "dropout = 0.2",
            "eval_num_negatives = 20",
        ]) + "\n",
        encoding="utf-8",
    )
    return path


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# format_version=1"
    assert lines[1] == "variant,ndcg_at_10"
    return [line.rsplit(",", 1)[0].strip('"') for line in lines[2:]]


def test_aggregation_study_emits_five_labeled_rows(small_dataset, tmp_path):
    cfg = ablate_config(tmp_path)
    out = tmp_path / "agg"
    assert run(["ablate", "--data", small_dataset, "--study", "aggregation",
                "--config", cfg, "--out", out]) == 0
    labels = read_table(out / "ablation_aggregation.csv")
    assert labels == ["L+S", "L+M", "S+M", "M+M", "HSA(S+S)"]


def test_user_profile_study_rows(small_dataset, tmp_path):
    cfg = ablate_config(tmp_path)
    out = tmp_path / "profile"
    assert run(["ablate", "--data", small_dataset, "--study", "user-profile",
                "--config", cfg, "--out", out]) == 0
    labels = read_table(out / "ablation_user-profile.csv")
    assert labels == ["p_u only", "QR-Rec w/o p_u", "QR-Rec"]


def test_scale_study_rows(small_dataset, tmp_path):
    cfg = ablate_config(tmp_path)
    out = tmp_path / "scale"
    assert run(["ablate", "--data", small_dataset, "--study", "scale",
                "--config", cfg, "--out", out]) == 0
    labels = read_table(out / "ablation_scale.csv")
    assert labels == [f"Quasi-RNN(w={w})" for w in range(1, 6)] + ["QR-Rec"]


def test_output_gate_study_rows(small_dataset, tmp_path):
    cfg = ablate_config(tmp_path)
    out = tmp_path / "gate"
    assert run(["ablate", "--data", small_dataset, "--study", "output-gate",
                "--config", cfg, "--out", out]) == 0
    labels = read_table(out / "ablation_output-gate.csv")
    assert labels == ["with O", "w/o O"]


def test_unknown_study_exits_2(small_dataset, tmp_path):
    cfg = ablate_config(tmp_path)
    assert run(["ablate", "--data", small_dataset, "--study", "bogus",
                "--config", cfg, "--out", tmp_path / "x"]) == 2


def test_parallel_ablate_matches_sequential(small_dataset, tmp_path, monkeypatch):
    cfg = ablate_config(tmp_path)
    seq_out, par_out = tmp_path / "seq", tmp_path / "par"
    assert run(["ablate", "--data", small_dataset, "--study", "output-gate",
                "--config", cfg, "--out", seq_out]) == 0
    monkeypatch.setenv("QRSEQ_THREADS", "2")
    assert run(["ablate", "--data", small_dataset, "--study", "output-gate",
                "--config", cfg, "--out", par_out]) == 0
    assert (seq_out / "ablation_output-gate.csv").read_bytes() == \
        (par_out / "ablation_output-gate.csv").read_bytes()


def test_parallel_ablate_workers_start_no_shard_thread(
        small_dataset, tmp_path, monkeypatch):
    # at d = 128 each variant's one batch of 270 windows is sharded, and with
    # chunks of 8 users each split's 30 users are scored in 4 chunks, each
    # past the (lowered) entry threshold; a worker process runs both shards
    # and every chunk itself, so N processes keep to N cores
    cfg = ablate_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("latent_dim = 4", "latent_dim = 128")
                   .replace("batch_size = 64", "batch_size = 512"), encoding="utf-8")

    def no_thread(*args, **kwargs):
        raise AssertionError("an ablate worker process started a shard or scoring thread")

    monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(model, "SCORE_CHUNK", 8)
    monkeypatch.setattr(model, "SHARD_MIN_ENTRIES", 128 * 5 * 8)
    monkeypatch.setattr(model, "ThreadPoolExecutor", no_thread)
    config = ModelConfig(num_items=40, num_users=30)
    assert training._shards(config, 270)[1] == slice(135, 270)
    assert model._fills_a_thread(config, model.SCORE_CHUNK) and model._second_thread_wanted()
    monkeypatch.setenv("QRSEQ_THREADS", "2")
    assert run(["ablate", "--data", small_dataset, "--study", "output-gate",
                "--config", cfg, "--out", tmp_path / "abl"]) == 0


@pytest.mark.parametrize("threads", ["two", "0", ""])
def test_ablate_bad_worker_count_exits_2_before_writing(small_dataset, tmp_path, monkeypatch,
                                                        threads, capsys):
    cfg = ablate_config(tmp_path)
    out = tmp_path / "abl"
    monkeypatch.setenv("QRSEQ_THREADS", threads)
    assert run(["ablate", "--data", small_dataset, "--study", "output-gate",
                "--config", cfg, "--out", out]) == 2
    assert one_error_line(capsys) == \
        f"error: QRSEQ_THREADS must be a positive integer, got {threads!r}\n"
    assert not out.exists()
