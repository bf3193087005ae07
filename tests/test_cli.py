import contextlib
import csv
import hashlib
import io
import os
import shutil
import stat
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hsttn
from hsttn import autodiff
from hsttn.checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from hsttn.cli import RunConfig, main
from hsttn.container import read_container, write_container
from hsttn.data import (
    Schema,
    apply_zscore,
    load_records,
    make_windows,
    mark_invalid,
    synth_generate,
    write_csv,
)
from hsttn.evaluation import evaluate_model, predict_window
from hsttn.model import ModelConfig, ModelParameters
from hsttn.training import TrainConfig

RUN_CONFIG = """\
# desk-scale run
data = synthetic.csv
schema = synthetic.schema
train_end = 100
val_end = 130
history_len = 6
horizon_len = 6
d_model = 4
n_heads = 2
pool_factors = 3
layers_encoder = 1
layers_decoder = 1
dropout = 0.0
lr = 0.002
lr_decay = 1.0
batch_size = 4
max_epochs = 2
patience = 5
seed = 11
train_stride = 4
val_stride = 6
out_dir = run_out
"""


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """One synth + train flow shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root), "--turbines", "2", "--timestamps", "160",
                 "--channels", "4", "--seed", "3", "--noise", "0.05"]) == 0
    (root / "run.cfg").write_text(RUN_CONFIG)
    assert main(["train", "--config", str(root / "run.cfg")]) == 0
    return root


class TestSynth:
    def test_byte_identical_for_same_seed(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / sub), "--turbines", "4",
                         "--timestamps", "200", "--seed", "7"]) == 0
        assert (tmp_path / "a" / "synthetic.csv").read_bytes() == \
            (tmp_path / "b" / "synthetic.csv").read_bytes()
        assert (tmp_path / "a" / "synthetic.schema").read_bytes() == \
            (tmp_path / "b" / "synthetic.schema").read_bytes()

    def test_zero_timestamps_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--timestamps", "0"]) == 2

    def test_grid_beyond_available_memory_is_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("hsttn.cli._mem_available", lambda: 2 ** 20)
        # 8 bytes x 10 x 1000 x (2 x 5 + 8) is 1.4 MiB
        assert main(["synth", "--out", str(tmp_path / "farm"), "--turbines", "10",
                     "--timestamps", "1000"]) == 2
        assert "10 x 1000 x 5 needs about 1.4 MiB; 1.0 MiB is available" in \
            capsys.readouterr().err
        assert not (tmp_path / "farm").exists()
        assert main(["synth", "--out", str(tmp_path / "farm"), "--turbines", "10",
                     "--timestamps", "500"]) == 0

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    def test_without_noise_matches_library_default(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--turbines", "3",
                     "--timestamps", "50", "--channels", "4", "--seed", "5"]) == 0
        write_csv(synth_generate(3, 50, 4, 5), tmp_path / "library.csv")
        assert (tmp_path / "synthetic.csv").read_bytes() == \
            (tmp_path / "library.csv").read_bytes()

    def test_header_matches_schema(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--turbines", "2",
                     "--timestamps", "20", "--channels", "5", "--seed", "1"]) == 0
        schema = Schema.load(tmp_path / "synthetic.schema")
        with (tmp_path / "synthetic.csv").open() as fh:
            header = next(csv.reader(fh))
        assert tuple(header[3:]) == schema.channels


class TestTrain:
    def test_outputs_exist(self, workspace):
        out = workspace / "run_out"
        assert (out / "checkpoint.bin").exists()
        assert (out / "train_log.csv").exists()
        with (out / "train_log.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "lr"]
        assert len(rows) >= 2

    def test_deterministic_checkpoint_bytes(self, workspace, tmp_path):
        cfg = (workspace / "run.cfg").read_text().replace("out_dir = run_out",
                                                          f"out_dir = {tmp_path}/rerun")
        rerun_cfg = workspace / "rerun.cfg"
        rerun_cfg.write_text(cfg)
        assert main(["train", "--config", str(rerun_cfg)]) == 0
        original = (workspace / "run_out" / "checkpoint.bin").read_bytes()
        assert (tmp_path / "rerun" / "checkpoint.bin").read_bytes() == original

    def test_seed_option_matches_seed_key(self, workspace, tmp_path):
        text = (workspace / "run.cfg").read_text()
        assert "seed = 11\n" in text
        (tmp_path / "in_file.cfg").write_text(text.replace("seed = 11", "seed = 9"))
        (tmp_path / "option.cfg").write_text(text)
        for name in ("synthetic.csv", "synthetic.schema"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        assert main(["train", "--config", str(tmp_path / "in_file.cfg"),
                     "--out", str(tmp_path / "in_file")]) == 0
        assert main(["train", "--config", str(tmp_path / "option.cfg"), "--seed", "9",
                     "--out", str(tmp_path / "option")]) == 0
        assert (tmp_path / "option" / "checkpoint.bin").read_bytes() == \
            (tmp_path / "in_file" / "checkpoint.bin").read_bytes()
        assert (tmp_path / "option" / "checkpoint.bin").read_bytes() != \
            (workspace / "run_out" / "checkpoint.bin").read_bytes()

    def test_invalid_config_fails_before_training(self, workspace, tmp_path):
        bad = (workspace / "run.cfg").read_text().replace("pool_factors = 3",
                                                          "pool_factors = 5")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad)
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["lerning_rate = 0.1", "eval_stride = 1",
                                      "dropout_rate = 0.1", "d_k = 2"])
    def test_unknown_key_is_usage_error(self, workspace, tmp_path, line):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text((workspace / "run.cfg").read_text() + line + "\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_missing_keys_take_config_defaults(self, tmp_path):
        cfg = tmp_path / "min.cfg"
        cfg.write_text("data = d.csv\nschema = d.schema\ntrain_end = 1\nval_end = 2\n")
        run = RunConfig.load(cfg)
        assert run.model_config(n_turbines=3, n_channels=5) == ModelConfig(
            n_turbines=3, n_channels=5, history_len=144, horizon_len=144)
        assert run.training == TrainConfig()

    def test_renamed_keys(self, tmp_path):
        cfg = tmp_path / "renamed.cfg"
        cfg.write_text("data = d.csv\nschema = d.schema\ntrain_end = 1\nval_end = 2\n"
                       "dropout = 0.25\nlr = 0.5\n")
        run = RunConfig.load(cfg)
        assert run.model_config(n_turbines=1, n_channels=1).dropout_rate == 0.25
        assert run.training.initial_lr == 0.5

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_usage_error(self, workspace, tmp_path, capsys, lr):
        cfg = tmp_path / "lr.cfg"
        cfg.write_text((workspace / "run.cfg").read_text().replace("lr = 0.002", f"lr = {lr}"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "initial_lr" in capsys.readouterr().err

    @staticmethod
    def diverging_run(workspace, tmp_path):
        """A run whose one huge step is first seen by validation: one batch
        of one epoch at lr = 1e300."""
        text = (workspace / "run.cfg").read_text()
        for old, new in (("lr = 0.002", "lr = 1e300"), ("batch_size = 4", "batch_size = 64"),
                         ("max_epochs = 2", "max_epochs = 1")):
            text = text.replace(old, new)
        (tmp_path / "run.cfg").write_text(text)
        for name in ("synthetic.csv", "synthetic.schema"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        return tmp_path / "run.cfg"

    def test_non_finite_validation_loss_is_numeric_error(self, workspace, tmp_path, capsys):
        assert main(["train", "--config", str(self.diverging_run(workspace, tmp_path))]) == 4
        assert "validation loss is nan at epoch 1" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_numeric_error_prints_no_numpy_warning(self, workspace, tmp_path, capsys):
        cfg = self.diverging_run(workspace, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: validation loss is nan at epoch 1"]
        # library callers keep numpy's own floating-point settings
        assert np.geterr()["over"] == "warn"

    def test_memory_error_is_usage_error(self, workspace, tmp_path, capsys, monkeypatch):
        def allocate(*args):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(ModelParameters, "glorot", allocate)
        assert main(["train", "--config", str(workspace / "run.cfg"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: out of memory: Unable to allocate 298. GiB" in capsys.readouterr().err

    def test_model_too_large_to_build_is_usage_error(self, workspace, tmp_path, capsys):
        # numpy refuses a (channels, 10**30) weight with a ValueError
        for name in ("synthetic.csv", "synthetic.schema"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        cfg = tmp_path / "huge.cfg"
        cfg.write_text((workspace / "run.cfg").read_text().replace("d_model = 4",
                                                                   f"d_model = {10 ** 30}"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}: cannot build the model it describes: "
            "Maximum allowed dimension exceeded"]
        assert not (tmp_path / "run_out").exists()

    def test_overflowing_channel_is_numeric_error(self, workspace, tmp_path, capsys):
        # every Patv reading is finite, but their mean overflows to inf
        (tmp_path / "run.cfg").write_text((workspace / "run.cfg").read_text())
        (tmp_path / "synthetic.schema").write_text((workspace / "synthetic.schema").read_text())
        with (workspace / "synthetic.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        target = header.index("Patv")
        with (tmp_path / "synthetic.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *(row[:target] + ["1.7e308"] + row[target + 1:]
                                                for row in rows)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: channel 'Patv' has mean inf")
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("old, new, option, message", [
        ("seed = 11", "seed = -1", [], "seed must be non-negative, got -1"),
        ("", "", ["--seed", "-1"], "seed must be non-negative, got -1"),
        ("train_end = 100\n", "", [], "missing required key 'train_end'"),
        ("train_stride = 4", "train_stride = 0", [], "key 'train_stride' must be positive, got 0"),
        ("val_stride = 6", "val_stride = -3", [], "key 'val_stride' must be positive, got -3"),
    ], ids=["seed_key", "seed_option", "no_train_end", "train_stride", "val_stride"])
    def test_refused_before_the_data_is_read(self, tmp_path, capsys, old, new, option,
                                             message):
        # no data file exists, so reading it would end in exit 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG.replace(old, new))
        assert main(["train", "--config", str(cfg), *option]) == 2
        assert message in capsys.readouterr().err

    def test_missing_data_is_io_error(self, workspace, tmp_path):
        bad = (workspace / "run.cfg").read_text().replace("synthetic.csv", "missing.csv")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad)
        # config paths resolve relative to the config file
        (tmp_path / "synthetic.schema").write_text(
            (workspace / "synthetic.schema").read_text())
        assert main(["train", "--config", str(cfg)]) == 3

    def test_schema_typo_is_usage_error(self, workspace, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text((workspace / "run.cfg").read_text())
        (tmp_path / "synthetic.csv").write_text((workspace / "synthetic.csv").read_text())
        (tmp_path / "synthetic.schema").write_text(
            (workspace / "synthetic.schema").read_text() + "traget = Wspd\n")
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 2
        assert "traget" in capsys.readouterr().err

    def test_schema_repeating_a_column_is_usage_error(self, workspace, tmp_path, capsys):
        # without the refusal two channels read the same CSV column, and a
        # grid written back gets a header that the loader refuses
        (tmp_path / "run.cfg").write_text((workspace / "run.cfg").read_text())
        (tmp_path / "synthetic.csv").write_text((workspace / "synthetic.csv").read_text())
        text = (workspace / "synthetic.schema").read_text()
        (tmp_path / "synthetic.schema").write_text(
            text.replace("channels = Wspd,", "channels = Wspd,Wspd,"))
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 2
        assert "['Wspd'] repeated in the schema" in capsys.readouterr().err

    def test_sparse_day_span_is_io_error(self, workspace, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text((workspace / "run.cfg").read_text())
        (tmp_path / "synthetic.schema").write_text(
            (workspace / "synthetic.schema").read_text())
        with (workspace / "synthetic.csv").open() as fh:
            header = fh.readline()
            row = fh.readline().split(",")
        far = [row[0], "5000", *row[2:]]
        (tmp_path / "synthetic.csv").write_text(header + ",".join(row) + ",".join(far))
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 3
        assert "(line 2) and the latest (line 3)" in capsys.readouterr().err

    def test_repeated_column_is_io_error(self, workspace, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text((workspace / "run.cfg").read_text())
        (tmp_path / "synthetic.schema").write_text(
            (workspace / "synthetic.schema").read_text())
        lines = (workspace / "synthetic.csv").read_text().splitlines()
        last = lines[0].split(",")[-1]
        doubled = [lines[0] + "," + last] + [line + ",999" for line in lines[1:]]
        (tmp_path / "synthetic.csv").write_text("\n".join(doubled) + "\n")
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 3
        assert f"['{last}'] repeated in header" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [r[:-1] for r in rows], "schema column(s) ['Patv'] absent from header"),
        (lambda rows: rows[:1], "no data rows"),
    ], ids=["no_target_column", "header_only"])
    def test_records_without_target_or_rows_are_io_errors(self, workspace, tmp_path, capsys,
                                                          edit, message):
        (tmp_path / "run.cfg").write_text((workspace / "run.cfg").read_text())
        (tmp_path / "synthetic.schema").write_text(
            (workspace / "synthetic.schema").read_text())
        rows = [line.split(",") for line in (workspace / "synthetic.csv").read_text().splitlines()]
        assert rows[0][-1] == "Patv"
        (tmp_path / "synthetic.csv").write_text("".join(",".join(r) + "\n" for r in edit(rows)))
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 3
        assert f"{tmp_path / 'synthetic.csv'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_row_wider_than_header_is_io_error(self, workspace, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text((workspace / "run.cfg").read_text())
        (tmp_path / "synthetic.schema").write_text(
            (workspace / "synthetic.schema").read_text())
        lines = (workspace / "synthetic.csv").read_text().splitlines()
        lines[3] += ",77"
        (tmp_path / "synthetic.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 3
        assert "synthetic.csv:4: " in capsys.readouterr().err


    # one field past the csv module's default limit of 131,072 characters
    OVERSIZED_ROW = b"1,1,00:00," + b"1" * 131_073 + b",0,0,0\n"

    @pytest.mark.parametrize("name, tail", [
        ("run.cfg", b"# caf\xe9\n"),
        ("synthetic.schema", b"# caf\xe9\n"),
        ("synthetic.csv", b"1,1,caf\xe9,0,0,0,0\n"),
        ("synthetic.csv", OVERSIZED_ROW),
    ], ids=["run_config_latin1", "schema_latin1", "records_latin1", "records_oversized_field"])
    def test_unreadable_text_is_io_error(self, workspace, tmp_path, capsys, name, tail):
        for copy in ("run.cfg", "synthetic.csv", "synthetic.schema"):
            (tmp_path / copy).write_bytes((workspace / copy).read_bytes())
        with (tmp_path / name).open("ab") as fh:
            fh.write(tail)
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 3
        assert f"{tmp_path / name}:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line, key", [
        ("run.cfg", "batch_size = 4", "batch_size"),
        ("run.cfg", "pool_factors = 3", "pool_factors"),
        ("synthetic.schema", "step_minutes = 10", "step_minutes"),
    ])
    def test_unparseable_value_is_usage_error(self, workspace, tmp_path, capsys, name, line,
                                              key):
        for copy in ("run.cfg", "synthetic.csv", "synthetic.schema"):
            (tmp_path / copy).write_bytes((workspace / copy).read_bytes())
        text = (tmp_path / name).read_text()
        assert line in text
        (tmp_path / name).write_text(text.replace(line, f"{key} = x"))
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / name}: key {key!r}" in err and "'x'" in err


class TestPredict:
    def test_row_count_and_cross_path_consistency(self, workspace, tmp_path):
        ckpt_path = workspace / "run_out" / "checkpoint.bin"
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(ckpt_path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--origin", "140", "--out", str(out)]) == 0
        with (out / "forecast.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2 * 6

        # same window through the library path must match bit-exactly
        ckpt = load_checkpoint(ckpt_path)
        schema = Schema.load(workspace / "synthetic.schema")
        rs = mark_invalid(load_records(workspace / "synthetic.csv", schema))
        normed = apply_zscore(rs, ckpt.norm_stats)
        window = make_windows(normed, 6, 6, 1, start=134, end=146)[0]
        model = model_from_checkpoint(ckpt)
        expected = predict_window(model, window, ckpt.norm_stats, rs.target_index)
        got = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        for n in range(2):
            for k in range(6):
                assert got[(n, k)] == expected[n, k]

    @staticmethod
    def predict_at(workspace, out, origin) -> int:
        return main(["predict", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--origin", str(origin), "--out", str(out)])

    def test_horizon_past_the_data_writes_no_truth(self, workspace, tmp_path):
        # 160 timestamps and F = 6: the horizon from 157 runs 3 steps past them
        assert self.predict_at(workspace, tmp_path, 157) == 0
        with (tmp_path / "forecast.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert sorted((int(r[0]), int(r[1])) for r in rows) == [
            (n, k) for n in range(2) for k in range(6)]
        assert not (tmp_path / "truth.csv").exists()

    def test_horizon_past_the_data_removes_an_older_truth(self, workspace, tmp_path):
        # else `plot` would draw this forecast against the older window's actuals
        assert self.predict_at(workspace, tmp_path, 160 - 6) == 0
        assert (tmp_path / "truth.csv").exists()
        assert self.predict_at(workspace, tmp_path, 157) == 0
        assert not (tmp_path / "truth.csv").exists()
        assert main(["plot", "--forecast", str(tmp_path / "forecast.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--out", str(tmp_path / "plot.svg")]) == 3
        assert not (tmp_path / "plot.svg").exists()

    def test_last_full_horizon_writes_truth(self, workspace, tmp_path):
        assert self.predict_at(workspace, tmp_path, 160 - 6) == 0
        ckpt = load_checkpoint(workspace / "run_out" / "checkpoint.bin")
        schema = Schema.load(workspace / "synthetic.schema")
        normed = apply_zscore(mark_invalid(load_records(workspace / "synthetic.csv", schema)),
                              ckpt.norm_stats)
        target = schema.target_index
        actual = ckpt.norm_stats.invert(normed.values[:, 154:, target], target)
        with (tmp_path / "truth.csv").open() as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["turbine", "step", "actual_power", "valid"]
        got = {(int(r[0]), int(r[1])): (float(r[2]), int(r[3])) for r in rows}
        assert got == {(n, k): (actual[n, k], int(normed.validity[n, 154 + k]))
                       for n in range(2) for k in range(6)}

    def test_origin_at_start_is_usage_error(self, workspace, tmp_path):
        assert main(["predict", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--origin", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("data", ["synthetic.csv", "missing.csv"])
    def test_origin_below_history_is_refused_before_the_data_is_read(self, workspace, tmp_path,
                                                                     capsys, data):
        # a missing data file would otherwise end in exit 3
        code = main(["predict", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / data),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--origin", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "--origin 5 is below the history length 6" in capsys.readouterr().err
        assert not (tmp_path / "forecast.csv").exists()


class TestCheckpointTarget:
    """A data schema must name the channels and the target the checkpoint was
    trained on: de-normalising with another channel's statistics is refused."""

    @pytest.mark.parametrize("command, window", [
        ("predict", ["--origin", "140"]),
        ("evaluate", ["--start", "130", "--stride", "6"]),
    ])
    def test_other_target_is_usage_error(self, workspace, tmp_path, capsys, command, window):
        text = (workspace / "synthetic.schema").read_text()
        assert "target = Patv\n" in text
        schema = tmp_path / "wspd.schema"
        schema.write_text(text.replace("target = Patv\n", "target = Wspd\n"))
        code = main([command, "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / "synthetic.csv"), "--schema", str(schema),
                     *window, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'Wspd'" in err and "'Patv'" in err
        assert not (tmp_path / "out").exists()

    def test_renamed_channel_is_usage_error(self, workspace, tmp_path, capsys):
        # the data reads cleanly under its own schema, but its channels are not the checkpoint's
        for name in ("synthetic.csv", "synthetic.schema"):
            text = (workspace / name).read_text()
            assert text.count("Etmp") == 1
            (tmp_path / name).write_text(text.replace("Etmp", "Temp"))
        code = main(["evaluate", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(tmp_path / "synthetic.csv"),
                     "--schema", str(tmp_path / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "dataset channels do not match" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_report_matches_library(self, workspace, tmp_path):
        ckpt_path = workspace / "run_out" / "checkpoint.bin"
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(ckpt_path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(out)]) == 0
        kv = dict(line.split(" = ") for line in
                  (out / "report.kv").read_text().splitlines() if " = " in line)

        ckpt = load_checkpoint(ckpt_path)
        schema = Schema.load(workspace / "synthetic.schema")
        rs = mark_invalid(load_records(workspace / "synthetic.csv", schema))
        normed = apply_zscore(rs, ckpt.norm_stats)
        windows = make_windows(normed, 6, 6, 6, start=130)
        model = model_from_checkpoint(ckpt)
        report = evaluate_model(model, windows, ckpt.norm_stats, rs.target_index)
        assert float(kv["mae"]) == report.mae
        assert float(kv["rmse"]) == report.rmse

    def test_deterministic_report_bytes(self, workspace, tmp_path):
        args = ["evaluate", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                "--data", str(workspace / "synthetic.csv"),
                "--schema", str(workspace / "synthetic.schema"),
                "--start", "130", "--stride", "6"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "report.kv").read_bytes() == \
            (tmp_path / "r2" / "report.kv").read_bytes()
        assert (tmp_path / "r1" / "report.csv").read_bytes() == \
            (tmp_path / "r2" / "report.csv").read_bytes()

    def test_empty_split_fails_nonzero(self, workspace, tmp_path):
        code = main(["evaluate", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--start", "155", "--out", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("bounds", [["--start", "-5"], ["--end", "9999"],
                                        ["--start", "100", "--end", "50"]])
    def test_bounds_outside_data_are_usage_errors(self, workspace, tmp_path, bounds):
        code = main(["evaluate", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     *bounds, "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "report.kv").exists()

    @pytest.mark.parametrize("data", ["synthetic.csv", "missing.csv"])
    def test_stride_below_one_is_refused_before_the_data_is_read(self, workspace, tmp_path,
                                                                 capsys, data):
        # a missing data file would otherwise end in exit 3
        code = main(["evaluate", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / data),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--stride", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "--stride must be positive, got 0" in capsys.readouterr().err
        assert not (tmp_path / "report.kv").exists()

    @pytest.mark.parametrize("data", ["synthetic.csv", "missing.csv"])
    @pytest.mark.parametrize("bounds, message", [
        (["--start", "-5"], "--start -5 must be at least 0 and at most --end"),
        (["--start", "100", "--end", "50"], "--start 100 must be at least 0 and at most --end"),
    ], ids=["negative-start", "end-before-start"])
    def test_bounds_are_refused_before_the_data_is_read(self, workspace, tmp_path, capsys,
                                                        data, bounds, message):
        code = main(["evaluate", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / data),
                     "--schema", str(workspace / "synthetic.schema"),
                     *bounds, "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.kv").exists()


class TestByteOrderMark:
    def test_leading_bom_is_skipped(self, tmp_path):
        """A record file, schema and run config that each start with a UTF-8
        byte-order mark, as Excel's "CSV UTF-8" writes one, train and evaluate
        to the same report as the files without it."""
        assert main(["synth", "--out", str(tmp_path / "plain"), "--turbines", "2",
                     "--timestamps", "160", "--channels", "4", "--seed", "3",
                     "--noise", "0.05"]) == 0
        (tmp_path / "plain" / "run.cfg").write_text(RUN_CONFIG)
        (tmp_path / "bom").mkdir()
        for name in ("synthetic.csv", "synthetic.schema", "run.cfg"):
            text = (tmp_path / "plain" / name).read_bytes()
            (tmp_path / "bom" / name).write_bytes(b"\xef\xbb\xbf" + text)
        reports = []
        for run in ("plain", "bom"):
            root = tmp_path / run
            assert main(["train", "--config", str(root / "run.cfg")]) == 0
            assert main(["evaluate", "--checkpoint", str(root / "run_out" / "checkpoint.bin"),
                         "--data", str(root / "synthetic.csv"),
                         "--schema", str(root / "synthetic.schema"),
                         "--start", "130", "--stride", "6", "--out", str(root / "eval")]) == 0
            reports.append((root / "eval" / "report.kv").read_bytes())
        assert reports[0] == reports[1]


class TestGridCache:
    def test_cold_and_warm_caches_write_the_same_artifacts(self, tmp_path, monkeypatch):
        """train -> evaluate -> predict writes the same bytes whether each load
        parses the record file or each reads the grid cache beside it."""
        assert main(["synth", "--out", str(tmp_path), "--turbines", "2", "--timestamps", "160",
                     "--channels", "4", "--seed", "3", "--noise", "0.05"]) == 0
        data = ["--data", str(tmp_path / "synthetic.csv"),
                "--schema", str(tmp_path / "synthetic.schema")]
        artifacts = {}
        for run in ("cold", "warm"):
            out = tmp_path / run
            (tmp_path / f"{run}.cfg").write_text(RUN_CONFIG.replace("run_out", run))
            ckpt = ["--checkpoint", str(out / "checkpoint.bin")]
            for argv in (["train", "--config", str(tmp_path / f"{run}.cfg")],
                         ["evaluate", *ckpt, *data, "--start", "130", "--stride", "6",
                          "--out", str(out)],
                         ["predict", *ckpt, *data, "--origin", "140", "--out", str(out)]):
                with monkeypatch.context() as patch:
                    if run == "cold":
                        (tmp_path / ".synthetic.csv.hsttn-grid").unlink(missing_ok=True)
                    else:
                        patch.setattr("hsttn.data._parse_records",
                                      lambda *args: pytest.fail("the warm run parsed"))
                    assert main(argv) == 0
            artifacts[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert list(artifacts["cold"]) == ["checkpoint.bin", "forecast.csv", "report.csv",
                                           "report.kv", "train_log.csv", "truth.csv"]
        assert artifacts["cold"] == artifacts["warm"]


def run_to_limit(argv, limit: int) -> subprocess.CompletedProcess:
    """`hsttn argv` in a child that no file can grow past `limit` bytes in: a write
    beyond it fails with EFBIG, as on a full disk, since SIGXFSZ is ignored."""
    code = ("import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from hsttn.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(hsttn.__file__).parent.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


class TestArtifactWrites:
    # each command in `{root}`, the files it writes in order, and the one whose write is cut
    DATA = ["--data", "{root}/synthetic.csv", "--schema", "{root}/synthetic.schema"]
    CASES = {
        "synth": (["synth", "--out", "{root}", "--turbines", "2", "--timestamps", "160",
                   "--channels", "4", "--seed", "3", "--noise", "0.05"],
                  ["synthetic.csv", "synthetic.schema"], "synthetic.csv"),
        "train": (["train", "--config", "{root}/run.cfg", "--out", "{root}"],
                  ["checkpoint.bin", "train_log.csv"], "checkpoint.bin"),
        "evaluate": (["evaluate", "--checkpoint", "{root}/checkpoint.bin", *DATA,
                      "--start", "130", "--stride", "6", "--out", "{root}"],
                     ["report.csv", "report.kv"], "report.csv"),
        "predict-forecast": (["predict", "--checkpoint", "{root}/checkpoint.bin", *DATA,
                              "--origin", "140", "--out", "{root}"],
                             ["forecast.csv", "truth.csv"], "forecast.csv"),
        "plot": (["plot", "--forecast", "{root}/forecast.csv", "--truth", "{root}/truth.csv",
                  "--turbine", "1", "--out", "{root}/plot.svg"], ["plot.svg"], "plot.svg"),
    }
    CASES["predict-truth"] = (*CASES["predict-forecast"][:2], "truth.csv")

    @staticmethod
    def argv(case: str, root: Path) -> list[str]:
        return [arg.format(root=root) for arg in TestArtifactWrites.CASES[case][0]]

    @staticmethod
    def run_all(root: Path) -> None:
        """A cold synth -> train -> evaluate -> predict -> plot, every file in `root`."""
        (root / "run.cfg").write_text(RUN_CONFIG)
        for case in ("synth", "train", "evaluate", "predict-forecast", "plot"):
            assert main(TestArtifactWrites.argv(case, root)) == 0

    @pytest.fixture(scope="class")
    def earlier_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("earlier")
        self.run_all(root)
        return root

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_cut_write_leaves_the_earlier_artifacts(self, earlier_run, tmp_path, case):
        """A write that fails part-way exits 3 and leaves every earlier file as it was,
        the one it was writing included, and no other file."""
        _, written, cut = self.CASES[case]
        root = tmp_path / "run"
        shutil.copytree(earlier_run, root)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        # the files written before the cut one fit under the limit; the cut one does not
        sizes = [len(before[name]) for name in written[:written.index(cut)]]
        limit = max(sizes, default=len(before[cut]) // 2)
        assert limit < len(before[cut])
        result = run_to_limit(self.argv(case, root), limit)
        assert result.returncode == 3, result.stderr
        assert "File too large" in result.stderr
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_every_artifact_has_the_mode_open_gives(self, tmp_path):
        umask = os.umask(0o022)
        try:
            self.run_all(tmp_path)
        finally:
            os.umask(umask)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert {".synthetic.csv.hsttn-grid", "checkpoint.bin", "plot.svg"} <= set(modes)
        assert modes == dict.fromkeys(modes, 0o644)


class TestNonFinite:
    def test_nan_parameters_fail_evaluate_and_predict(self, workspace, tmp_path):
        ckpt = load_checkpoint(workspace / "run_out" / "checkpoint.bin")
        ckpt.parameters["head.b"] = np.array([np.nan])
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, ckpt)
        data = ["--checkpoint", str(path), "--data", str(workspace / "synthetic.csv"),
                "--schema", str(workspace / "synthetic.schema")]
        assert main(["evaluate", *data, "--start", "130", "--out", str(tmp_path / "e")]) == 4
        assert not (tmp_path / "e" / "report.kv").exists()
        assert main(["predict", *data, "--origin", "140", "--out", str(tmp_path / "p")]) == 4
        assert not (tmp_path / "p" / "forecast.csv").exists()


    def test_overflowing_metrics_fail_evaluate(self, workspace, tmp_path, capsys):
        # finite predictions whose squared errors overflow
        ckpt = load_checkpoint(workspace / "run_out" / "checkpoint.bin")
        ckpt.parameters["head.b"] = np.array([1e160])
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, ckpt)
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(tmp_path / "e")]) == 4
        assert "farm metrics are not finite" in capsys.readouterr().err
        assert not (tmp_path / "e" / "report.kv").exists()


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("head.b"), "missing ['head.b']"),
        (lambda p: p.update({"head.b": np.zeros(3)}), "'head.b' has shape (3,)"),
    ], ids=["missing_array", "wrong_shape"])
    def test_arrays_that_do_not_fit_are_io_errors(self, workspace, tmp_path, capsys, edit,
                                                  message):
        ckpt = load_checkpoint(workspace / "run_out" / "checkpoint.bin")
        edit(ckpt.parameters)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, ckpt)
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{path}: checkpoint " in err and message in err
        assert not (tmp_path / "e").exists()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flips_and_truncations_give_documented_exit_codes(self, workspace, data):
        intact = (workspace / "run_out" / "checkpoint.bin").read_bytes()
        blob = mutate(data, intact)
        assume(blob != intact)  # two flips of one byte can cancel out
        fuzz = workspace / "fuzz"
        fuzz.mkdir(exist_ok=True)
        (fuzz / "checkpoint.bin").write_bytes(blob)
        code = main(["evaluate", "--checkpoint", str(fuzz / "checkpoint.bin"),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(fuzz / "out")])
        assert code == 3 and not (fuzz / "out").exists()

    @pytest.mark.parametrize("where", ["param", "norm.std", "header", "trailer", "version-1"])
    def test_one_changed_byte_is_an_io_error(self, workspace, tmp_path, capsys, where):
        intact = workspace / "run_out" / "checkpoint.bin"
        blob, arrays = bytearray(intact.read_bytes()), read_container(intact)[1]
        param = next(a for name, a in arrays.items() if name.startswith("param."))
        at = {"param": blob.find(param.tobytes()),  # the lowest byte of its first value
              "norm.std": blob.find(arrays["norm.std"].tobytes()),
              "header": blob.find(b'"epoch":') + len(b'"epoch":'),  # a digit to a digit
              "trailer": len(blob) - 1}
        if where == "version-1":  # the layout before the sha256 trailer
            blob[4:8], blob[-32:] = struct.pack("<I", 1), b""
        else:
            assert at[where] >= 16
            blob[at[where]] ^= 1
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(bytes(blob))
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(tmp_path / "e")]) == 3
        assert self.run_predict(workspace, path) == 3
        shown = ("unsupported container version 1;" if where == "version-1"
                 else "container checksum mismatch")
        for err in capsys.readouterr().err.splitlines():
            assert err.startswith(f"error: {path}: ") and shown in err
        assert not (tmp_path / "e").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, code", [
        (lambda s: dict(s, target="Aux"), 3),
        (lambda s: dict(s, traget=s["target"]), 3),
        (lambda s: {"channels": s["channels"]}, 0),
    ], ids=["target_outside_channels", "unknown_key", "channels_only"])
    def test_schema_header(self, workspace, tmp_path, capsys, edit, code):
        header, arrays = read_container(workspace / "run_out" / "checkpoint.bin")
        header["schema"] = edit(header["schema"])
        path = tmp_path / "checkpoint.bin"
        write_container(path, header, arrays)
        assert main(["predict", "--checkpoint", str(path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--origin", "140", "--out", str(tmp_path / "out")]) == code
        if code:
            assert f"{path}: checkpoint schema: " in capsys.readouterr().err


    def run_predict(self, workspace, path) -> int:
        return main(["predict", "--checkpoint", str(path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--origin", "140", "--out", str(path.parent / "out")])

    @pytest.mark.parametrize("entry, shown", [
        (struct.pack("<H3sBB33Q", 3, b"odd", 0, 33, *[1] * 33), "array 'odd' has 33 dimensions"),
        (struct.pack("<H3sBBQ", 3, b"\xffdd", 0, 1, 1), "corrupt array name"),
    ], ids=["33_dimensions", "name_not_utf8"])
    def test_unreadable_array_entry_is_io_error(self, workspace, tmp_path, capsys, entry,
                                                shown):
        header, arrays = read_container(workspace / "run_out" / "checkpoint.bin")
        path = tmp_path / "checkpoint.bin"
        write_container(path, header, {**arrays, "odd": np.zeros(1)})
        body = path.read_bytes()[:-32]
        plain = struct.pack("<H3sBBQ", 3, b"odd", 0, 1, 1)
        assert body.count(plain) == 1
        body = body.replace(plain, entry)
        path.write_bytes(body + hashlib.sha256(body).digest())  # a trailer that matches
        assert self.run_predict(workspace, path) == 3
        assert f"error: {path}: {shown}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_header_is_io_error(self, workspace, tmp_path, capsys):
        blob = (workspace / "run_out" / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        nested = b'{"kind":' + b"[" * 200_000 + b"]" * 200_000 + b"}"
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(blob[:8] + struct.pack("<Q", len(nested)) + nested
                         + blob[16 + header_len:])
        assert self.run_predict(workspace, path) == 3
        assert f"error: {path}: corrupt container header: " in capsys.readouterr().err

    @pytest.mark.parametrize("n_turbines", [10 ** 30, 2 ** 62])
    def test_architecture_too_large_to_build_is_io_error(self, workspace, tmp_path, capsys,
                                                          n_turbines):
        # numpy refuses the turbine table's size before allocating anything
        header, arrays = read_container(workspace / "run_out" / "checkpoint.bin")
        header["model_config"]["n_turbines"] = n_turbines
        path = tmp_path / "checkpoint.bin"
        write_container(path, header, arrays)
        assert self.run_predict(workspace, path) == 3
        assert f"error: {path}: checkpoint " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, index, value, shown", [
        ("std", 1, 0.0, "std 0.0"), ("std", 1, -1.0, "std -1.0"), ("std", 1, np.nan, "std nan"),
        ("mean", 0, np.inf, "mean inf"),
    ], ids=["zero_std", "negative_std", "nan_std", "infinite_mean"])
    def test_unusable_norm_stats_are_io_errors(self, workspace, tmp_path, capsys, name, index,
                                               value, shown):
        header, arrays = read_container(workspace / "run_out" / "checkpoint.bin")
        arrays[f"norm.{name}"][index] = value
        path = tmp_path / "checkpoint.bin"
        write_container(path, header, arrays)
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(tmp_path / "e")]) == 3
        assert self.run_predict(workspace, path) == 3
        for err in capsys.readouterr().err.splitlines():
            assert err.startswith(f"error: {path}: checkpoint channel {index} ") and shown in err
        assert not (tmp_path / "e").exists() and not (tmp_path / "out").exists()


def mutate(data, blob: bytes) -> bytes:
    """Truncate `blob` or XOR one to four of its bytes with random masks."""
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="length")])
    flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
    for index, mask in data.draw(st.lists(flips, min_size=1, max_size=4), label="flips"):
        blob[index] ^= mask
    return bytes(blob)


# fields that Python's int() would take but a time of day must not contain
NOT_AN_INTEGER = st.sampled_from(["", "ab", "1.5", "0x1", "--2", "1e1", "1_0", "+1",
                                  "\u0661\u0662"])
CELL_TEXT = st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",))
# a cell that `_parse_time` must refuse: no colon, a non-integer field, a
# third field other than zero seconds, an hour or minute out of range, or
# a time off the 10-minute grid
MALFORMED_TMSTAMPS = st.one_of(
    st.text(CELL_TEXT, max_size=8).filter(lambda t: ":" not in t),
    st.builds("{}:00".format, NOT_AN_INTEGER),
    st.builds("12:{}".format, NOT_AN_INTEGER),
    st.builds("12:10:{}".format,
              st.text(CELL_TEXT, max_size=4).filter(lambda t: t.rstrip() != "00")),
    st.builds("{}:{:02d}".format, st.integers(24, 99) | st.integers(-99, -1),
              st.integers(0, 59)),
    st.builds("{:02d}:{}".format, st.integers(0, 23), st.integers(60, 99) | st.integers(-9, -1)),
    st.builds("{:02d}:{:02d}".format, st.integers(0, 23),
              st.integers(0, 59).filter(lambda m: m % 10)),
)


# small (turbine, step, value) tables with cells of every kind
PLOT_CELL = st.one_of(st.integers(-2, 7).map(str), st.floats().map(repr),
                      st.text(CELL_TEXT, max_size=6))
PLOT_TABLES = st.lists(st.lists(PLOT_CELL, max_size=4), max_size=10).map(
    lambda rows: "".join(",".join(cells) + "\n" for cells in [["turbine", "step", "v"], *rows]))


# the workspace run config with its two required keys last: a truncation
# then drops them (exit 2) instead of training for the default 50 epochs
FUZZ_CONFIG = "".join(sorted(RUN_CONFIG.splitlines(keepends=True),
                             key=lambda line: line.startswith(("data ", "schema "))))


class TestFuzzedInputs:
    """Corrupted training, evaluation, prediction and plot inputs end in a
    documented exit code (0 ok, 2 usage, 3 file, 4 numerical), never in an
    exception."""

    @staticmethod
    def inputs(workspace) -> dict[str, bytes]:
        return {"run.cfg": FUZZ_CONFIG.encode(),
                "synthetic.csv": (workspace / "synthetic.csv").read_bytes(),
                "synthetic.schema": (workspace / "synthetic.schema").read_bytes()}

    def fuzz_dir(self, workspace, corrupt: str | None = None, data=None):
        """A copy of the training inputs with the file `corrupt` mutated."""
        fuzz = workspace / "fuzz_inputs"
        fuzz.mkdir(exist_ok=True)
        for name, blob in self.inputs(workspace).items():
            (fuzz / name).write_bytes(mutate(data, blob) if name == corrupt else blob)
        return fuzz

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_train_on_corrupted_files(self, workspace, data):
        name = data.draw(st.sampled_from(["run.cfg", "synthetic.csv", "synthetic.schema"]))
        fuzz = self.fuzz_dir(workspace, name, data)
        code = main(["train", "--config", str(fuzz / "run.cfg"), "--out", str(fuzz / "out")])
        assert code in (0, 2, 3, 4)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_evaluate_on_corrupted_files(self, workspace, data):
        name = data.draw(st.sampled_from(["synthetic.csv", "synthetic.schema"]))
        fuzz = self.fuzz_dir(workspace, name, data)
        code = main(["evaluate", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(fuzz / "synthetic.csv"),
                     "--schema", str(fuzz / "synthetic.schema"),
                     "--start", "130", "--stride", "6", "--out", str(fuzz / "out")])
        assert code in (0, 2, 3, 4)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_predict_on_corrupted_files(self, workspace, data):
        name = data.draw(st.sampled_from(["synthetic.csv", "synthetic.schema", None]))
        fuzz = self.fuzz_dir(workspace, name, data)
        # the workspace grid has 160 timestamps and a history of 6
        origin = data.draw(st.integers(-5, 170) | st.integers(), label="origin")
        code = main(["predict", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(fuzz / "synthetic.csv"),
                     "--schema", str(fuzz / "synthetic.schema"),
                     "--origin", str(origin), "--out", str(fuzz / "out")])
        assert code in (0, 2, 3, 4)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_plot_on_malformed_tables(self, workspace, data):
        fuzz = workspace / "fuzz_plot"
        if not (fuzz / "forecast.csv").exists():
            assert main(["predict",
                         "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                         "--data", str(workspace / "synthetic.csv"),
                         "--schema", str(workspace / "synthetic.schema"),
                         "--origin", "140", "--out", str(fuzz)]) == 0
        args = []
        for name in ("forecast", "truth"):
            blob = (fuzz / f"{name}.csv").read_bytes()
            kind = data.draw(st.sampled_from(["keep", "mutate", "table"]), label=name)
            if kind == "mutate":
                blob = mutate(data, blob)
            elif kind == "table":
                blob = data.draw(PLOT_TABLES, label=f"{name} table").encode()
            (fuzz / f"fuzzed_{name}.csv").write_bytes(blob)
            args += [f"--{name}", str(fuzz / f"fuzzed_{name}.csv")]
        turbine = data.draw(st.integers(-1, 2) | st.integers(), label="turbine")
        code = main(["plot", *args, "--turbine", str(turbine), "--out", str(fuzz / "x.svg")])
        assert code in (0, 2, 3, 4)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_synth_arguments(self, workspace, data):
        args = ["--out", str(workspace / "fuzz_synth")]
        for name in ("turbines", "timestamps", "channels", "seed"):
            if data.draw(st.booleans(), label=f"pass {name}"):
                value = data.draw(st.integers(-2, 30) | st.integers(), label=name)
                args.append(f"--{name}={value}")
        if data.draw(st.booleans(), label="pass noise"):
            args.append(f"--noise={data.draw(st.floats(), label='noise')!r}")
        # any grid above 4 MiB is refused, so no draw allocates much
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("hsttn.cli._mem_available", lambda: 4 * 2 ** 20)
            code = main(["synth", *args])
        assert code in (0, 2)

    @given(row=st.integers(1, 320), stamp=MALFORMED_TMSTAMPS)
    @settings(max_examples=40, deadline=None)
    def test_malformed_tmstamp_is_io_error(self, workspace, row, stamp):
        fuzz = self.fuzz_dir(workspace)
        lines = (workspace / "synthetic.csv").read_text().splitlines()
        cells = lines[row].split(",")
        cells[2] = stamp
        lines[row] = ",".join(cells)
        (fuzz / "synthetic.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["train", "--config", str(fuzz / "run.cfg")]) == 3
        assert f"synthetic.csv:{row + 1}: " in err.getvalue()


class TestPlot:
    @pytest.fixture()
    def forecast_files(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(workspace / "run_out" / "checkpoint.bin"),
                     "--data", str(workspace / "synthetic.csv"),
                     "--schema", str(workspace / "synthetic.schema"),
                     "--origin", "140", "--out", str(out)]) == 0
        return out / "forecast.csv", out / "truth.csv"

    def test_svg_structure(self, forecast_files, tmp_path):
        forecast, truth = forecast_files
        svg_path = tmp_path / "plot.svg"
        assert main(["plot", "--forecast", str(forecast), "--truth", str(truth),
                     "--turbine", "1", "--out", str(svg_path)]) == 0
        tree = ET.parse(svg_path)
        polylines = tree.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_a_fifo_is_written_in_place(self, forecast_files, tmp_path):
        forecast, truth = forecast_files
        argv = ["plot", "--forecast", str(forecast), "--truth", str(truth), "--turbine", "1"]
        assert main([*argv, "--out", str(tmp_path / "plot.svg")]) == 0
        fifo, delivered = tmp_path / "plot.fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: delivered.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        assert main([*argv, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert delivered == [(tmp_path / "plot.svg").read_bytes()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)

    @pytest.mark.parametrize("sink", ["file", "pipe"])
    def test_stdout_gets_the_svg_and_nothing_else(self, forecast_files, tmp_path, sink):
        # /proc/self/fd/1, not /dev/stdout: the suite may run as root, and a regression
        # must not be able to replace the host's /dev/stdout
        forecast, truth = forecast_files
        argv = ["plot", "--forecast", str(forecast), "--truth", str(truth), "--turbine", "1"]
        assert main([*argv, "--out", str(tmp_path / "plot.svg")]) == 0
        command = [sys.executable, "-m", "hsttn.cli", *argv, "--out", "/proc/self/fd/1"]
        env = {**os.environ, "PYTHONPATH": str(Path(hsttn.__file__).parent.parent)}
        if sink == "file":
            with (tmp_path / "stdout").open("wb") as fh:
                result = subprocess.run(command, env=env, stdout=fh, stderr=subprocess.PIPE,
                                        timeout=120)
            shown = (tmp_path / "stdout").read_bytes()
        else:
            result = subprocess.run(command, env=env, capture_output=True, timeout=120)
            shown = result.stdout
        assert result.returncode == 0
        assert shown == (tmp_path / "plot.svg").read_bytes()
        assert result.stderr.decode().splitlines() == ["plot -> /proc/self/fd/1"]

    def test_identical_series_coincide(self, forecast_files, tmp_path):
        forecast, _ = forecast_files
        svg_path = tmp_path / "same.svg"
        assert main(["plot", "--forecast", str(forecast), "--truth", str(forecast),
                     "--turbine", "0", "--out", str(svg_path)]) == 0
        tree = ET.parse(svg_path)
        polylines = tree.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert polylines[0].get("points") == polylines[1].get("points")

    def test_turbine_out_of_range(self, forecast_files, tmp_path):
        forecast, truth = forecast_files
        assert main(["plot", "--forecast", str(forecast), "--truth", str(truth),
                     "--turbine", "9", "--out", str(tmp_path / "x.svg")]) == 2

    @pytest.mark.parametrize("row", ["x,0,1.0", "0,1.5,1.0", "0,1", "0,1,high",
                                     "0,99,nan", "0,99,-inf"])
    def test_malformed_row_is_io_error(self, forecast_files, tmp_path, row):
        forecast, truth = forecast_files
        bad = tmp_path / "bad.csv"
        bad.write_text(forecast.read_text() + row + "\n")
        assert main(["plot", "--forecast", str(bad), "--truth", str(truth),
                     "--turbine", "0", "--out", str(tmp_path / "x.svg")]) == 3

    @pytest.mark.parametrize("row", [b"0,99,caf\xe9\n", b"0,99," + b"1" * 131_073 + b"\n"],
                             ids=["latin1", "oversized_field"])
    def test_unreadable_text_is_io_error(self, forecast_files, tmp_path, capsys, row):
        forecast, truth = forecast_files
        bad = tmp_path / "bad.csv"
        bad.write_bytes(forecast.read_bytes() + row)
        assert main(["plot", "--forecast", str(bad), "--truth", str(truth),
                     "--turbine", "0", "--out", str(tmp_path / "x.svg")]) == 3
        assert f"{bad}:" in capsys.readouterr().err

    def test_repeated_row_is_io_error(self, forecast_files, tmp_path, capsys):
        forecast, truth = forecast_files
        bad = tmp_path / "repeated.csv"
        text = forecast.read_text()
        bad.write_text(text + "0,0,1e9\n")
        assert main(["plot", "--forecast", str(bad), "--truth", str(truth),
                     "--turbine", "0", "--out", str(tmp_path / "x.svg")]) == 3
        assert f"{bad}:{len(text.splitlines()) + 1}: " in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_grid_mismatch(self, forecast_files, tmp_path):
        forecast, truth = forecast_files
        short = tmp_path / "short.csv"
        lines = forecast.read_text().splitlines()
        short.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["plot", "--forecast", str(forecast), "--truth", str(short),
                     "--turbine", "0", "--out", str(tmp_path / "x.svg")]) == 2


class TestArguments:
    @pytest.mark.parametrize("args, code", [
        (["synth", "--noise", "-1e+16"], 2),  # argparse reads the value as an option
        (["train"], 2),
        (["--bogus"], 2),
        (["--help"], 0),
        (["synth", "--help"], 0),
    ])
    def test_argparse_exit_is_returned(self, tmp_path, capsys, args, code):
        if args[0] == "synth" and "--help" not in args:
            args = [*args, "--out", str(tmp_path)]
        assert main(args) == code
        out = capsys.readouterr()
        assert "usage: hsttn" in (out.err if code else out.out)

    def test_negative_exponent_value_in_equals_form(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--timestamps", "10",
                     "--noise=-1e+16"]) == 0


class TestLogging:
    def test_bad_verbosity_is_usage_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HSTTN_LOG", "shout")
        assert main(["synth", "--out", str(tmp_path), "--timestamps", "10"]) == 2


class TestThreads:
    def test_attention_workers_change_no_checkpoint_bit(self, workspace, tmp_path, monkeypatch):
        # one sequence per chunk, so every attention call runs several chunks,
        # some of them on the pooled thread
        monkeypatch.setattr(autodiff, "_CHUNK_SCORES", 1)
        chunks, counts = autodiff._chunks, []
        monkeypatch.setattr(autodiff, "_chunks", lambda *a: counts.append(chunks(*a)) or counts[-1])
        for workers in (1, 2):
            monkeypatch.setattr(autodiff, "_WORKERS", workers)
            assert main(["train", "--config", str(workspace / "run.cfg"),
                         "--out", str(tmp_path / str(workers))]) == 0
        assert min(len(c) for c in counts) > 1
        assert (tmp_path / "1" / "checkpoint.bin").read_bytes() == \
            (tmp_path / "2" / "checkpoint.bin").read_bytes()
