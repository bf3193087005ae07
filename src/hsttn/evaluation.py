"""Farm-level masked MAE/RMSE and test-split model evaluation.

Both metrics sum per-turbine figures: MAE is the sum over turbines of
each turbine's mean absolute error over its own valid samples, RMSE the
sum of per-turbine root mean squared errors. A turbine with no valid
samples is excluded from the sums and reported, never silently averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import NormStats, SampleWindow
from .errors import EvaluationError
from .model import HSTTN


@dataclass
class MetricReport:
    mae: float
    rmse: float
    per_turbine_mae: np.ndarray
    per_turbine_rmse: np.ndarray
    valid_counts: np.ndarray
    excluded_turbines: list[int]
    unit: str = "kW"
    n_windows: int = 0

    @classmethod
    def from_sums(cls, abs_sum: np.ndarray, sq_sum: np.ndarray, count: np.ndarray,
                  unit: str, n_windows: int) -> "MetricReport":
        """The farm metrics of per-turbine error sums and valid counts; a
        non-finite farm MAE or RMSE is an `EvaluationError`."""
        if count.sum() == 0:
            raise EvaluationError("no valid cells in the evaluation set")
        included = count > 0
        mae_n = np.full(len(count), np.nan)
        rmse_n = np.full(len(count), np.nan)
        mae_n[included] = abs_sum[included] / count[included]
        rmse_n[included] = np.sqrt(sq_sum[included] / count[included])
        mae, rmse = float(mae_n[included].sum()), float(rmse_n[included].sum())
        if not np.isfinite([mae, rmse]).all():
            raise EvaluationError(f"farm metrics are not finite: MAE {mae!r}, RMSE {rmse!r}")
        return cls(
            mae=mae,
            rmse=rmse,
            per_turbine_mae=mae_n,
            per_turbine_rmse=rmse_n,
            valid_counts=count,
            excluded_turbines=[int(i) for i in np.flatnonzero(~included)],
            unit=unit,
            n_windows=n_windows,
        )

    def to_kv(self) -> dict[str, str]:
        return {
            "mae": repr(float(self.mae)),
            "rmse": repr(float(self.rmse)),
            "unit": self.unit,
            "n_windows": str(self.n_windows),
            "n_turbines": str(len(self.per_turbine_mae)),
            "excluded_turbines": ",".join(map(str, self.excluded_turbines)) or "none",
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["turbine", "mae", "rmse", "valid_count"]]
        for n in range(len(self.per_turbine_mae)):
            rows.append([
                str(n),
                repr(float(self.per_turbine_mae[n])),
                repr(float(self.per_turbine_rmse[n])),
                str(int(self.valid_counts[n])),
            ])
        rows.append(["farm", repr(float(self.mae)), repr(float(self.rmse)),
                     str(int(self.valid_counts.sum()))])
        return rows


def _error_sums(y: np.ndarray, y_hat: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-turbine absolute-error sum, squared-error sum and valid count of
    (N, S) targets and predictions over the cells `mask` marks valid."""
    err = np.where(mask, y - y_hat, 0.0)
    return np.abs(err).sum(axis=1), (err * err).sum(axis=1), mask.sum(axis=1)


def _masked_report(y: np.ndarray, y_hat: np.ndarray, mask: np.ndarray) -> MetricReport:
    """Farm metrics of one (N, ...) set of targets and predictions."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if y.shape != y_hat.shape:
        raise EvaluationError(f"shape mismatch: targets {y.shape} vs predictions {y_hat.shape}")
    if mask.shape != y.shape:
        raise EvaluationError(f"mask shape {mask.shape} does not match targets {y.shape}")
    if y.ndim == 0 or len(y) == 0:
        raise EvaluationError(f"targets of shape {y.shape} hold no turbines")
    y, y_hat, mask = (a.reshape(len(y), -1) for a in (y, y_hat, mask))
    return MetricReport.from_sums(*_error_sums(y, y_hat, mask), "native", 0)


def masked_mae(y: np.ndarray, y_hat: np.ndarray, mask: np.ndarray) -> float:
    """Sum over turbines of per-turbine mean absolute error on valid cells."""
    return _masked_report(y, y_hat, mask).mae


def masked_rmse(y: np.ndarray, y_hat: np.ndarray, mask: np.ndarray) -> float:
    """Sum over turbines of per-turbine root mean squared error on valid cells."""
    return _masked_report(y, y_hat, mask).rmse


def predict_window(model: HSTTN, window: SampleWindow, stats: NormStats,
                   target_channel: int) -> np.ndarray:
    """Denormalized (N, F) predictions for one window; non-finite values
    are an error, never a forecast."""
    y_hat = stats.invert(model.predict(window.history)[:, :, 0], target_channel)
    if not np.isfinite(y_hat).all():
        raise EvaluationError(f"non-finite predictions for the window at origin {window.origin}")
    return y_hat


def _evaluate(windows: Sequence[SampleWindow], forecast: Callable[[SampleWindow], np.ndarray],
              stats: NormStats, target_channel: int, megawatts: bool) -> MetricReport:
    """Accumulate the farm metrics of `forecast` over every window against
    the denormalized targets, in native power units or MW."""
    if not windows:
        raise EvaluationError("evaluation over an empty window set")
    divisor = 1000.0 if megawatts else 1.0
    n = windows[0].history.shape[0]
    sums = (np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64))
    for w in windows:
        pred = forecast(w) / divisor
        truth = stats.invert(w.future_target[:, :, 0], target_channel) / divisor
        for total, part in zip(sums, _error_sums(truth, pred, w.future_validity)):
            total += part
    return MetricReport.from_sums(*sums, "MW" if megawatts else "kW", len(windows))


def evaluate_model(model: HSTTN, windows: Sequence[SampleWindow], stats: NormStats,
                   target_channel: int, megawatts: bool = False) -> MetricReport:
    """Run inference over every window and accumulate the farm metrics."""
    return _evaluate(windows, lambda w: predict_window(model, w, stats, target_channel),
                     stats, target_channel, megawatts)


def persistence_forecast(window: SampleWindow, stats: NormStats,
                         target_channel: int) -> np.ndarray:
    """Baseline: repeat each turbine's last observed target value across
    the whole horizon, in denormalized units."""
    last = stats.invert(window.history[:, -1, target_channel], target_channel)
    horizon = window.future_target.shape[1]
    return np.repeat(last[:, None], horizon, axis=1)


def evaluate_persistence(windows: Sequence[SampleWindow], stats: NormStats,
                         target_channel: int, megawatts: bool = False) -> MetricReport:
    """The farm metrics of the persistence baseline over every window."""
    return _evaluate(windows, lambda w: persistence_forecast(w, stats, target_channel),
                     stats, target_channel, megawatts)
