"""Masked-MSE training loop: Adam with bias correction, exponential
learning-rate decay, early stopping on validation loss, best-checkpoint
selection. Fully deterministic for a fixed seed."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .autodiff import GradTape, RngStream, Tensor, add, backward, mul, sum_all
from .data import NormStats, SampleWindow, Schema, drop_fully_invalid
from .errors import ConfigError, DatasetError, TrainingError
from .model import HSTTN, ModelConfig


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 1e-4
    lr_decay: float = 0.7
    batch_size: int = 4
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.initial_lr < math.inf:
            raise ConfigError(f"initial_lr must be positive and finite, got {self.initial_lr}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be non-negative, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def mse_loss(y_hat: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared error over valid positions only, averaged over windows.

    `y` is (..., N, F, 1) targets and `mask` (..., N, F) validity; every
    index of the leading axes is one window. Each window's squared errors
    are summed over its valid positions and divided by its own valid count,
    and the loss is the mean of those window losses. Masked positions
    contribute nothing, whatever their stored values. A window with no
    valid position is a `TrainingError`.

    The sums over a batch run in a fixed order, so reruns are bitwise
    equal; the loss and its gradients can differ in the last bits from
    the mean of the same windows' losses taken one at a time."""
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if y_hat.shape != y.shape:
        raise TrainingError(f"prediction shape {y_hat.shape} != target shape {y.shape}")
    if y.ndim < 3 or mask.shape != y.shape[:-1]:
        raise TrainingError(f"targets {y.shape} and mask {mask.shape} must be "
                            "(..., N, F, 1) and (..., N, F)")
    counts = mask.sum(axis=(-2, -1))
    if (counts == 0).any():
        raise TrainingError("loss over a window with zero valid positions "
                            "(it should have been dropped upstream)")
    weights = mask / (counts[..., None, None] * counts.size)
    diff = add(y_hat, Tensor(-y))
    return sum_all(mul(mul(diff, diff), Tensor(weights[..., None])))


# Adam's moment decay rates and the epsilon under its square root
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: Mapping[str, Tensor]) -> "AdamState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def adam_step(params: Mapping[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update over every parameter with a populated gradient."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data = p.data - lr * m_hat / np.sqrt(v_hat + EPS)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    return cfg.initial_lr * cfg.lr_decay ** epoch


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class Checkpoint:
    """Best-on-validation snapshot with everything needed to re-run it."""

    model_config: ModelConfig
    parameters: dict[str, np.ndarray]
    epoch: int
    val_loss: float
    norm_stats: NormStats
    train_config: TrainConfig
    schema: Schema | None = None


def _batch_loss(model: HSTTN, windows: Sequence[SampleWindow], training: bool = False,
                rng: RngStream | None = None) -> Tensor:
    """`mse_loss` of one forward pass over `windows`, stacked along a new
    leading window axis."""
    y_hat = model.forward(Tensor(np.stack([w.history for w in windows])),
                          training=training, rng=rng)
    return mse_loss(y_hat, np.stack([w.future_target for w in windows]),
                    np.stack([w.future_validity for w in windows]))


def validation_loss(model: HSTTN, windows: Sequence[SampleWindow],
                    batch_size: int = TrainConfig.batch_size) -> float:
    """Mean masked MSE over windows: the mean of each window's `mse_loss`,
    up to rounding. Dropout is off and no gradient is recorded. Windows go
    through the model `batch_size` at a time, one forward per chunk."""
    if not windows:
        raise DatasetError("validation loss over an empty window set")
    total = 0.0
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo:lo + batch_size]
        total += float(_batch_loss(model, chunk).data) * len(chunk)
    return total / len(windows)


def train(model: HSTTN, train_windows: Sequence[SampleWindow],
          val_windows: Sequence[SampleWindow], cfg: TrainConfig,
          norm_stats: NormStats, schema: Schema | None = None,
          ) -> tuple[Checkpoint, list[EpochRecord]]:
    """Epoch loop over seeded shuffles of full-farm windows. Each batch is
    stacked along a leading window axis and takes one forward and one
    backward pass. Each epoch ends with a validation pass; the best
    snapshot so far is kept and returned once early stopping or the epoch
    budget ends the run. A non-finite training or validation loss stops
    the run (`TrainingError`)."""
    train_windows = drop_fully_invalid(train_windows)
    val_windows = drop_fully_invalid(val_windows)
    if not train_windows:
        raise DatasetError("no training windows with any valid future cell")
    if not val_windows:
        raise DatasetError("no validation windows with any valid future cell")

    params = model.params.trainable()
    state = AdamState.init(params)
    rng = RngStream(cfg.seed)
    dropout_rng = rng.child(1)

    def snapshot(epoch: int, val: float) -> Checkpoint:
        return Checkpoint(model_config=model.config, parameters=model.params.state_arrays(),
                          epoch=epoch, val_loss=val, norm_stats=norm_stats,
                          train_config=cfg, schema=schema)

    def checked_validation(epoch: int) -> float:
        val = validation_loss(model, val_windows, cfg.batch_size)
        if not math.isfinite(val):
            raise TrainingError(f"validation loss is {val} at epoch {epoch}")
        return val

    best = snapshot(0, checked_validation(0))
    records: list[EpochRecord] = []

    for epoch in range(cfg.max_epochs):
        lr = lr_schedule(epoch, cfg)
        order = rng.child(1000 + epoch).permutation(len(train_windows))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_windows[i] for i in order[lo:lo + cfg.batch_size]]
            model.params.zero_grad()
            with GradTape() as tape:
                loss = _batch_loss(model, batch, training=True, rng=dropout_rng)
                if not np.isfinite(loss.data):
                    raise TrainingError(
                        f"training loss diverged at epoch {epoch}, batch {n_batches}"
                    )
                backward(loss, tape)
            adam_step(params, state, lr)
            epoch_loss += float(loss.data)
            n_batches += 1

        val = checked_validation(epoch + 1)
        records.append(EpochRecord(epoch=epoch + 1, train_loss=epoch_loss / n_batches,
                                   val_loss=val, lr=lr))
        # `best` moves only on a strict improvement, so this counts the
        # epochs since the last one
        if val < best.val_loss:
            best = snapshot(epoch + 1, val)
        if epoch + 1 - best.epoch >= cfg.patience:
            break
    return best, records
