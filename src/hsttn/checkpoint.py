"""Checkpoint serialization on the binary container."""

from __future__ import annotations

from dataclasses import asdict, fields

from .container import read_container, write_container
from .data import NormStats
from .errors import ConfigError, IngestError
from .model import HSTTN, ModelConfig
from .training import Checkpoint, TrainConfig


def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) in (int, float)


# JSON value checks for each config field annotation; bools are not ints here
_FIELD_CHECKS = {
    "int": _is_int,
    "float": _is_number,
    "bool": lambda v: type(v) is bool,
    "Optional[int]": lambda v: v is None or _is_int(v),
    "tuple[int, ...]": lambda v: type(v) is list and all(map(_is_int, v)),
}


def _config_from_dict(cls, d, path):
    """Rebuild a config dataclass from its header entry, refusing missing,
    unknown and ill-typed fields and values the config itself refuses."""
    names = {f.name for f in fields(cls)}
    if not isinstance(d, dict) or set(d) != names:
        raise IngestError(f"{path}: checkpoint header does not hold the {cls.__name__} fields")
    for f in fields(cls):
        if not _FIELD_CHECKS[f.type](d[f.name]):
            raise IngestError(f"{path}: checkpoint {cls.__name__}.{f.name} has the wrong type")
    if "pool_factors" in d:
        d = dict(d, pool_factors=tuple(d["pool_factors"]))
    try:
        return cls(**d)
    except ConfigError as exc:
        raise IngestError(f"{path}: checkpoint {cls.__name__} is invalid: {exc}") from None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header = {
        "kind": "checkpoint",
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "epoch": ckpt.epoch,
        "val_loss": ckpt.val_loss,
        "schema": ckpt.schema_dict,
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
    if not (_is_int(epoch) and _is_number(val_loss) and isinstance(schema, dict)
            and all(isinstance(v, str) for v in schema.values())):
        raise IngestError(f"{path}: checkpoint epoch, val_loss or schema is malformed")
    norm = [arrays.get(f"norm.{name}") for name in ("mean", "std")]
    if any(a is None or a.shape != (config.n_channels,) for a in norm):
        raise IngestError(
            f"{path}: checkpoint needs norm.mean and norm.std of length {config.n_channels}"
        )
    params = {name[len("param."):]: arr for name, arr in arrays.items()
              if name.startswith("param.")}
    return Checkpoint(
        model_config=config,
        parameters=params,
        epoch=epoch,
        val_loss=float(val_loss),
        norm_stats=NormStats(mean=norm[0], std=norm[1]),
        train_config=train_config,
        schema_dict=schema,
    )


def model_from_checkpoint(ckpt: Checkpoint) -> HSTTN:
    model = HSTTN(ckpt.model_config)
    model.params.load_arrays(ckpt.parameters)
    return model
