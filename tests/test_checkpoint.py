import numpy as np
import pytest

from hsttn.checkpoint import (
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from hsttn.container import read_container, write_container
from hsttn.data import NormStats, Schema
from hsttn.errors import IngestError
from hsttn.model import HSTTN, ModelConfig
from hsttn.training import Checkpoint, TrainConfig


def tiny_config(**kw):
    base = dict(n_turbines=2, history_len=6, horizon_len=6, n_channels=3,
                d_model=4, n_heads=2, pool_factors=(3,), dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


SCHEMA = Schema(channels=("a", "b", "c"), target="c", wind_speed=None,
                wind_direction=None, nacelle_direction=None)


def make_checkpoint(seed=0, schema=SCHEMA):
    model = HSTTN(tiny_config(), seed=seed)
    stats = NormStats(mean=np.array([1.0, 2.0, 3.0]), std=np.array([0.5, 1.5, 2.5]))
    return Checkpoint(
        model_config=model.config,
        parameters=model.params.state_arrays(),
        epoch=4,
        val_loss=0.1234,
        norm_stats=stats,
        train_config=TrainConfig(seed=seed),
        schema=schema,
    )


class TestContainer:
    def test_round_trip(self, tmp_path):
        header = {"kind": "test", "note": "x"}
        arrays = {
            "f": np.arange(12.0).reshape(3, 4),
            "g": np.linspace(-1.0, 1.0, 5),
        }
        path = tmp_path / "c.bin"
        write_container(path, header, arrays)
        h2, a2 = read_container(path)
        assert h2 == header
        for k in arrays:
            assert np.array_equal(a2[k], arrays[k])
            assert a2[k].dtype.kind == arrays[k].dtype.kind

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(IngestError, match="magic"):
            read_container(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"kind": "t"}, {"x": np.ones(8)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(IngestError, match="truncated"):
            read_container(path)

    def test_corrupt_header_bytes(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"kind": "t"}, {"x": np.ones(2)})
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF  # first header byte: invalid UTF-8
        path.write_bytes(bytes(blob))
        with pytest.raises(IngestError, match="header"):
            read_container(path)

    def test_header_must_be_object(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, [1, 2], {"x": np.ones(2)})
        with pytest.raises(IngestError, match="not a JSON object"):
            read_container(path)

    @pytest.mark.parametrize("code", [1, 2, 255])
    def test_only_float64_code_is_read(self, tmp_path, code):
        path = tmp_path / "c.bin"
        write_container(path, {"k": 1}, {"x": np.ones(2)})
        blob = bytearray(path.read_bytes())
        header_len = len(b'{"k":1}')
        code_at = 4 + 4 + 8 + header_len + 4 + 2 + len(b"x")
        assert blob[code_at] == 0
        blob[code_at] = code
        path.write_bytes(bytes(blob))
        with pytest.raises(IngestError, match=f"unknown dtype code {code}"):
            read_container(path)

    def test_byte_determinism(self, tmp_path):
        arrays = {"w": np.linspace(0, 1, 7)}
        write_container(tmp_path / "a.bin", {"k": 1}, arrays)
        write_container(tmp_path / "b.bin", {"k": 1}, arrays)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.model_config == ckpt.model_config
        assert back.train_config == ckpt.train_config
        assert back.epoch == ckpt.epoch
        assert back.val_loss == ckpt.val_loss
        assert back.schema == SCHEMA
        assert set(back.parameters) == set(ckpt.parameters)
        for name, arr in ckpt.parameters.items():
            assert np.array_equal(back.parameters[name], arr)
        assert np.array_equal(back.norm_stats.mean, ckpt.norm_stats.mean)
        assert np.array_equal(back.norm_stats.std, ckpt.norm_stats.std)

    def test_no_schema_round_trips_as_none(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, make_checkpoint(schema=None))
        assert read_container(path)[0]["schema"] == {}
        assert load_checkpoint(path).schema is None

    def test_model_restoration_predicts_identically(self, tmp_path):
        ckpt = make_checkpoint(seed=3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, ckpt)
        original = HSTTN(tiny_config(), seed=3)
        restored = model_from_checkpoint(load_checkpoint(path))
        x = np.random.default_rng(5).normal(size=(2, 6, 3))
        assert np.array_equal(original.predict(x), restored.predict(x))

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("epoch"),
        lambda h: h.update(val_loss="low"),
        lambda h: h.update(schema=[1]),
        lambda h: h["schema"].update(step_minutes=10),
        lambda h: h["schema"].update(target="x"),
        lambda h: h["schema"].update(traget="c"),
        lambda h: h["schema"].update(channels="a,a,c"),
        lambda h: h["schema"].pop("channels"),
        lambda h: h["model_config"].pop("d_model"),
        lambda h: h["model_config"].update(d_model="4"),
        lambda h: h["model_config"].update(use_skip=1),
        lambda h: h["model_config"].update(pool_factors=[3.0]),
        lambda h: h["train_config"].update(extra=1),
        lambda h: h.update(model_config=None),
        lambda h: h["train_config"].update(patience=0),
        lambda h: h["train_config"].update(seed=-1),
        lambda h: h["model_config"].update(n_heads=0),
        lambda h: h["model_config"].update(d_k=-1),
    ])
    def test_malformed_header_is_ingest_error(self, tmp_path, edit):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, make_checkpoint())
        header, arrays = read_container(path)
        edit(header)
        write_container(path, header, arrays)
        with pytest.raises(IngestError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["norm.mean", "norm.std"])
    def test_missing_or_misshapen_norm_arrays(self, tmp_path, name):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, make_checkpoint())
        header, arrays = read_container(path)
        arrays[name] = arrays[name][:2]
        write_container(path, header, arrays)
        with pytest.raises(IngestError, match="norm"):
            load_checkpoint(path)
        del arrays[name]
        write_container(path, header, arrays)
        with pytest.raises(IngestError, match="norm"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "d.bin"
        write_container(path, {"kind": "dataset"}, {"x": np.ones(2)})
        with pytest.raises(IngestError):
            load_checkpoint(path)
