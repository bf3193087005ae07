"""Checkpoint serialization on the binary container."""

from __future__ import annotations

from dataclasses import asdict, fields

from .container import read_container, write_container
from .data import NormStats, Schema
from .errors import ConfigError, ContractError, IngestError
from .kv import FIELD_TYPES, parse_fields
from .model import HSTTN, ModelConfig
from .training import Checkpoint, TrainConfig


def _config_from_dict(cls, d, path):
    """Rebuild a config dataclass from its header entry, refusing missing,
    unknown and ill-typed fields and values the config itself refuses."""
    source = f"{path}: checkpoint {cls.__name__}"
    try:
        return cls(**parse_fields(source, d, {f.name: f for f in fields(cls)}, header=True))
    except ConfigError as exc:
        raise IngestError(f"{source} is invalid: {exc}") from None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header = {
        "kind": "checkpoint",
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "epoch": ckpt.epoch,
        "val_loss": ckpt.val_loss,
        "schema": ckpt.schema.to_dict() if ckpt.schema else {},
    }
    arrays = {f"param.{name}": arr for name, arr in ckpt.parameters.items()}
    arrays["norm.mean"] = ckpt.norm_stats.mean
    arrays["norm.std"] = ckpt.norm_stats.std
    write_container(path, header, arrays)


def load_checkpoint(path) -> Checkpoint:
    header, arrays = read_container(path)
    if header.get("kind") != "checkpoint":
        raise IngestError(f"{path}: container is not a checkpoint")
    config = _config_from_dict(ModelConfig, header.get("model_config"), path)
    train_config = _config_from_dict(TrainConfig, header.get("train_config"), path)
    epoch, val_loss = header.get("epoch"), header.get("val_loss")
    schema = header.get("schema", {})
    if not (FIELD_TYPES["int"].holds(epoch) and FIELD_TYPES["float"].holds(val_loss)
            and isinstance(schema, dict) and all(isinstance(v, str) for v in schema.values())):
        raise IngestError(f"{path}: checkpoint epoch, val_loss or schema is malformed")
    try:
        schema = Schema.from_kv(f"{path}: checkpoint schema", schema) if schema else None
    except ConfigError as exc:
        raise IngestError(str(exc)) from None
    norm = [arrays.get(f"norm.{name}") for name in ("mean", "std")]
    if any(a is None or a.shape != (config.n_channels,) for a in norm):
        raise IngestError(
            f"{path}: checkpoint needs norm.mean and norm.std of length {config.n_channels}"
        )
    params = {name[len("param."):]: arr for name, arr in arrays.items()
              if name.startswith("param.")}
    ckpt = Checkpoint(model_config=config, parameters=params, epoch=epoch,
                      val_loss=float(val_loss), norm_stats=NormStats(mean=norm[0], std=norm[1]),
                      train_config=train_config, schema=schema)
    try:  # the arrays must fit the architecture the header describes
        model_from_checkpoint(ckpt)
    except ContractError as exc:
        raise IngestError(f"{path}: checkpoint {exc}") from None
    return ckpt


def model_from_checkpoint(ckpt: Checkpoint) -> HSTTN:
    model = HSTTN(ckpt.model_config)
    model.params.load_arrays(ckpt.parameters)
    return model
