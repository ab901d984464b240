"""Artifact writes are atomic: an interrupted write leaves the old file and no temp file."""
from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from qrseq import atomic
from qrseq.data import InteractionLog
from qrseq.model import ModelConfig, ParameterStore, load_checkpoint, save_checkpoint


def test_interrupted_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "test_report.json"
    atomic.write_text(path, "old\n")
    with pytest.raises(KeyboardInterrupt):
        with atomic.replacing(path) as fh:
            fh.write(b"new, half of it")
            raise KeyboardInterrupt
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["test_report.json"]


def test_write_creates_and_replaces(tmp_path):
    path = tmp_path / "training_log.csv"
    atomic.write_text(path, "a\n")
    atomic.write_text(path, "b\n")
    assert path.read_bytes() == b"b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["training_log.csv"]


def test_replace_keeps_the_file_mode(tmp_path):
    path = tmp_path / "config_resolved.ini"
    atomic.write_text(path, "a\n")
    path.chmod(0o640)
    atomic.write_text(path, "b\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_a_target_that_is_not_a_regular_file_is_written_directly(tmp_path):
    pipe = tmp_path / "report.pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        atomic.write_text(pipe, "report\n")
        assert os.read(reader, 64) == b"report\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["report.pipe"]


def test_interrupted_checkpoint_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    config = ModelConfig(num_items=6, num_users=3, latent_dim=2, seq_len=2)
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, ParameterStore(config, np.random.default_rng(1)), extra={"seed": 1})
    before = path.read_bytes()

    def interrupted_savez(file, *args, **kwargs):
        file.write(b"PK\x03\x04 the first bytes of a zip")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", interrupted_savez)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, ParameterStore(config, np.random.default_rng(2)), extra={"seed": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path)[1] == {"seed": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]


def test_interrupted_dataset_save_keeps_the_old_dataset(tmp_path, monkeypatch):
    path = tmp_path / "dataset.json"
    InteractionLog.from_sequences([[1, 2, 3]], item_count=3).save(path)
    before = path.read_bytes()

    def interrupted_fsync(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(atomic.os, "fsync", interrupted_fsync)
    with pytest.raises(KeyboardInterrupt):
        InteractionLog.from_sequences([[3, 2, 1, 2]], item_count=3).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.json"]


def test_checkpoint_name_gets_the_npz_suffix_as_before(tmp_path):
    config = ModelConfig(num_items=4, num_users=2, latent_dim=2, seq_len=2)
    save_checkpoint(tmp_path / "model", ParameterStore(config))
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
