"""Hierarchical spatial-temporal transformer for wind power forecasting."""

from .autodiff import (
    GradCheckReport,
    GradTape,
    RngStream,
    Tensor,
    backward,
    grad_check,
)
from .data import (
    NormStats,
    RecordSet,
    SampleWindow,
    Schema,
    SplitBounds,
    apply_zscore,
    fit_zscore,
    load_records,
    make_windows,
    mark_invalid,
    synth_generate,
)
from .evaluation import MetricReport, evaluate_model, masked_mae, masked_rmse
from .model import (
    HSTTN,
    ModelConfig,
    ModelParameters,
    ScaleTrace,
    make_variant,
    variant_config,
)
from .training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    lr_schedule,
    mse_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Checkpoint", "GradCheckReport", "GradTape", "HSTTN",
    "MetricReport", "ModelConfig", "ModelParameters", "NormStats", "RecordSet",
    "RngStream", "SampleWindow", "ScaleTrace", "Schema", "SplitBounds",
    "Tensor", "TrainConfig", "adam_step", "apply_zscore", "backward",
    "evaluate_model", "fit_zscore", "grad_check", "load_records",
    "lr_schedule", "make_variant", "make_windows", "mark_invalid",
    "masked_mae", "masked_rmse", "mse_loss", "synth_generate", "train",
    "variant_config",
]
