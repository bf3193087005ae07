"""Command-line front end: synthesize data, train, predict, evaluate, plot.

Exit codes: 0 success, 2 usage/configuration problems (a configuration
too large for memory included), 3 file/parse problems, 4 numerical
failures. Log verbosity comes from the HSTTN_LOG environment variable
(debug, info, warning, quiet).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np

from . import checkpoint as ckpt_io
from .container import replacing
from .data import (
    RecordSet,
    Schema,
    SplitBounds,
    apply_zscore,
    csv_records,
    fit_zscore,
    load_records,
    make_windows,
    mark_invalid,
    synth_generate,
    window_at,
    write_csv,
)
from .errors import (
    ConfigError,
    ContractError,
    DatasetError,
    EvaluationError,
    IngestError,
    ShapeError,
    TrainingError,
)
from .evaluation import evaluate_model, predict_window
from .kv import parse_fields, read_kv, write_kv
from .model import HSTTN, ModelConfig
from .training import TrainConfig, train

log = logging.getLogger("hsttn")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _setup_logging() -> None:
    level_name = os.environ.get("HSTTN_LOG", "warning").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "quiet": logging.CRITICAL}
    if level_name not in levels:
        raise ConfigError(f"HSTTN_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


# ModelConfig fields the dataset decides
_NOT_IN_FILE = ("n_turbines", "n_channels")
# field names the run-config file spells differently
_FILE_KEY = {"dropout_rate": "dropout", "initial_lr": "lr"}


@dataclass
class RunConfig:
    """Everything one training run needs, parsed from a flat config file.

    The keys are the fields below plus every ModelConfig and TrainConfig
    field, with the same defaults, except the dataset-derived
    `n_turbines`/`n_channels`; each head is `d_model / n_heads` wide. The
    file spells `dropout_rate` as `dropout` and `initial_lr` as `lr`. Unknown
    keys, missing keys of fields without a default, and values either
    config refuses are all refused.
    """

    data: Path
    schema: Path
    train_end: int
    val_end: int
    train_stride: int = 1
    val_stride: int = 1
    out_dir: Path = Path("runs/out")
    model: dict = field(default_factory=dict)
    training: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def _file_keys(cls) -> dict[str, tuple[str | None, Field]]:
        """File key -> (section, field); section None is a run key."""
        keys = {f.name: (None, f) for f in fields(cls) if f.name not in ("model", "training")}
        for section, source in (("model", ModelConfig), ("training", TrainConfig)):
            for f in fields(source):
                if f.name not in _NOT_IN_FILE:
                    keys[_FILE_KEY.get(f.name, f.name)] = (section, f)
        return keys

    @classmethod
    def load(cls, path) -> "RunConfig":
        keys = cls._file_keys()
        values: dict = {"model": {}, "training": {}}
        fields_by_key = {k: f for k, (_, f) in keys.items()}
        for key, value in parse_fields(path, read_kv(path), fields_by_key).items():
            section, f = keys[key]
            (values[section] if section else values)[f.name] = value
        values["training"] = TrainConfig(**values["training"])
        cfg = cls(**values)
        for key in ("train_stride", "val_stride"):
            if getattr(cfg, key) < 1:
                raise ConfigError(f"{path}: key {key!r} must be positive, got {getattr(cfg, key)}")
        # the dataset-derived dims are checked once the data is loaded
        cfg.model_config(n_turbines=1, n_channels=1)
        base = Path(path).parent
        cfg.data, cfg.schema = (base / cfg.data).resolve(), (base / cfg.schema).resolve()
        cfg.out_dir = base / cfg.out_dir
        return cfg

    def model_config(self, n_turbines: int, n_channels: int) -> ModelConfig:
        return ModelConfig(n_turbines=n_turbines, n_channels=n_channels, **self.model)


def _write_table(path, header: list[str], rows) -> None:
    with replacing(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_and_prepare(data_path, schema_path) -> RecordSet:
    return mark_invalid(load_records(data_path, Schema.load(schema_path)))


def _mem_available() -> int | None:
    """The kernel's MemAvailable in bytes, or None where it reports none."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            kib = [line.split()[1] for line in fh if line.startswith("MemAvailable:")]
    except OSError:
        return None
    return int(kib[0]) * 1024 if kib else None


def cmd_synth(args) -> int:
    sizes = (args.turbines, args.timestamps, args.channels)
    # synth_generate's peak: two (turbines, timestamps, channels) float64
    # grids and eight (turbines, timestamps) ones
    need = 8 * sizes[0] * sizes[1] * (2 * sizes[2] + 8) if min(sizes) > 0 else 0
    available = _mem_available()
    if available is not None and need > available:
        raise ConfigError(f"a synthetic farm of {' x '.join(map(str, sizes))} needs about "
                          f"{need / 2**20:,.1f} MiB; {available / 2**20:,.1f} MiB is available")
    # `args` has `noise` only when --noise is given; else synth_generate's default holds
    noise = {"noise_scale": args.noise} if "noise" in args else {}
    rs = synth_generate(args.turbines, args.timestamps, args.channels, args.seed, **noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(rs, out / "synthetic.csv")
    rs.schema.save(out / "synthetic.schema")
    log.info("wrote %s and %s", out / "synthetic.csv", out / "synthetic.schema")
    print(f"synthetic farm: {args.turbines} turbines x {args.timestamps} timestamps "
          f"x {args.channels} channels -> {out / 'synthetic.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    if args.out:
        cfg.out_dir = Path(args.out)
    if args.seed is not None:
        cfg.training = replace(cfg.training, seed=args.seed)
    rs = _load_and_prepare(cfg.data, cfg.schema)
    model_cfg = cfg.model_config(rs.n_turbines, rs.n_channels)
    splits = SplitBounds(cfg.train_end, cfg.val_end).ranges(rs.n_timestamps)

    stats = fit_zscore(rs, splits["train"])
    # the raw grid is dropped here, so training's peak does not hold it
    rs = apply_zscore(rs, stats)
    h, f = model_cfg.history_len, model_cfg.horizon_len
    train_windows = make_windows(rs, h, f, cfg.train_stride, *splits["train"])
    val_windows = make_windows(rs, h, f, cfg.val_stride, *splits["val"])

    try:
        model = HSTTN(model_cfg, seed=cfg.training.seed)
    except ValueError as exc:  # numpy: an array too large to build
        raise ConfigError(f"{args.config}: cannot build the model it describes: {exc}") from None
    best, records = train(model, train_windows, val_windows, cfg.training,
                          stats, schema=rs.schema)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_io.save_checkpoint(out / "checkpoint.bin", best)
    _write_table(out / "train_log.csv", ["epoch", "train_loss", "val_loss", "lr"],
                 ([r.epoch, repr(r.train_loss), repr(r.val_loss), repr(r.lr)] for r in records))
    print(f"best validation loss {best.val_loss!r} at epoch {best.epoch}; "
          f"checkpoint -> {out / 'checkpoint.bin'}")
    return EXIT_OK


def _restore(ckpt, data_path, schema_path):
    rs = _load_and_prepare(data_path, schema_path)
    if ckpt.schema is not None and ckpt.schema.channels != rs.schema.channels:
        raise ConfigError(
            "dataset channels do not match the channels this checkpoint was trained on"
        )
    if ckpt.schema is not None and ckpt.schema.target != rs.schema.target:
        raise ConfigError(
            f"dataset target {rs.schema.target!r} differs from the target "
            f"{ckpt.schema.target!r} this checkpoint was trained on"
        )
    if rs.n_turbines != ckpt.model_config.n_turbines:
        raise ConfigError(
            f"dataset has {rs.n_turbines} turbines but the checkpoint was trained "
            f"on {ckpt.model_config.n_turbines}"
        )
    model = ckpt_io.model_from_checkpoint(ckpt)
    return apply_zscore(rs, ckpt.norm_stats), model


def cmd_predict(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    cfg = ckpt.model_config
    if args.origin < cfg.history_len:
        raise ConfigError(f"--origin {args.origin} is below the history length {cfg.history_len}")
    normed, model = _restore(ckpt, args.data, args.schema)
    target = normed.target_index
    window = window_at(normed, cfg.history_len, cfg.horizon_len, args.origin)
    pred = predict_window(model, window, ckpt.norm_stats, target)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "forecast.csv", ["turbine", "step", "predicted_power"],
                 ([n, k, repr(v)] for n, p in enumerate(pred.tolist()) for k, v in enumerate(p)))
    wrote_truth = window.future_validity.shape[1] == cfg.horizon_len
    if wrote_truth:
        truth = ckpt.norm_stats.invert(window.future_target[:, :, 0], target).tolist()
        _write_table(out / "truth.csv", ["turbine", "step", "actual_power", "valid"],
                     ([n, k, repr(v), int(ok)] for n, p in enumerate(truth)
                      for k, (v, ok) in enumerate(zip(p, window.future_validity[n].tolist()))))
    print(f"forecast for {pred.shape[0]} turbines x {pred.shape[1]} steps "
          f"-> {out / 'forecast.csv'}" + (" (+ truth.csv)" if wrote_truth else ""))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"--stride must be positive, got {args.stride}")
    if not 0 <= args.start <= (args.start if args.end is None else args.end):
        raise ConfigError(f"--start {args.start} must be at least 0 and at most --end")
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    normed, model = _restore(ckpt, args.data, args.schema)
    h = ckpt.model_config.history_len
    f = ckpt.model_config.horizon_len
    windows = make_windows(normed, h, f, args.stride, args.start, args.end)
    report = evaluate_model(model, windows, ckpt.norm_stats, normed.target_index,
                            megawatts=args.mw)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header, *rows = report.to_csv_rows()
    _write_table(out / "report.csv", header, rows)
    write_kv(out / "report.kv", report.to_kv(), header="farm evaluation report")
    print(f"MAE {report.mae!r} {report.unit}, RMSE {report.rmse!r} {report.unit} "
          f"over {report.n_windows} windows -> {out / 'report.kv'}")
    return EXIT_OK


def _read_grid(path) -> dict[tuple[int, int], float]:
    grid: dict[tuple[int, int], float] = {}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        records = csv_records(fh, path)
        _, header = next(records, (1, []))
        if len(header) < 3:
            raise IngestError(f"{path}: expected a (turbine, step, value) table")
        for lineno, cells in records:
            if not cells:
                continue
            try:
                key, value = (int(cells[0]), int(cells[1])), float(cells[2])
            except (ValueError, IndexError):
                raise IngestError(
                    f"{path}:{lineno}: expected integer turbine and step and a numeric value"
                ) from None
            if not math.isfinite(value):
                raise IngestError(f"{path}:{lineno}: value {cells[2]!r} is not finite")
            if key in grid:
                raise IngestError(f"{path}:{lineno}: repeated turbine {key[0]} step {key[1]}")
            grid[key] = value
    if not grid:
        raise IngestError(f"{path}: no rows")
    return grid


def _polyline(points: list[tuple[float, float]], color: str) -> ET.Element:
    return ET.Element("polyline", {
        "fill": "none",
        "stroke": color,
        "stroke-width": "1.5",
        "points": " ".join(f"{x:.2f},{y:.2f}" for x, y in points),
    })


def cmd_plot(args) -> int:
    forecast = _read_grid(args.forecast)
    truth = _read_grid(args.truth)
    if set(forecast) != set(truth):
        raise ConfigError("forecast and truth files cover different (turbine, step) grids")
    turbines = sorted({t for t, _ in forecast})
    steps = sorted({k for _, k in forecast})
    if args.turbine not in turbines:
        raise ConfigError(f"--turbine {args.turbine} not in file (has {turbines})")

    pred = [forecast[(args.turbine, k)] for k in steps]
    actual = [truth[(args.turbine, k)] for k in steps]
    width, height, margin = 640, 360, 40
    lo = min(min(pred), min(actual))
    hi = max(max(pred), max(actual))
    span = (hi - lo) or 1.0

    def to_xy(series):
        pts = []
        for i, v in enumerate(series):
            x = margin + (width - 2 * margin) * (i / max(len(series) - 1, 1))
            y = height - margin - (height - 2 * margin) * ((v - lo) / span)
            pts.append((x, y))
        return pts

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(width), "height": str(height),
        "viewBox": f"0 0 {width} {height}",
    })
    ET.SubElement(svg, "rect", {"x": "0", "y": "0", "width": str(width),
                                "height": str(height), "fill": "white"})
    axis = ET.SubElement(svg, "g", {"stroke": "black", "stroke-width": "1"})
    ET.SubElement(axis, "line", {"x1": str(margin), "y1": str(height - margin),
                                 "x2": str(width - margin), "y2": str(height - margin)})
    ET.SubElement(axis, "line", {"x1": str(margin), "y1": str(margin),
                                 "x2": str(margin), "y2": str(height - margin)})
    svg.append(_polyline(to_xy(actual), "#1f77b4"))
    svg.append(_polyline(to_xy(pred), "#d62728"))
    label = ET.SubElement(svg, "text", {"x": str(margin), "y": str(margin - 10),
                                        "font-size": "12"})
    label.text = (f"turbine {args.turbine}: actual (blue) vs predicted (red), "
                  f"{len(steps)} steps")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with replacing(out, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        ET.ElementTree(svg).write(fh, encoding="unicode", xml_declaration=True)
    print(f"plot -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsttn",
        description="Train and evaluate the hierarchical spatial-temporal wind "
                    "power forecaster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic farm")
    p.add_argument("--out", required=True)
    p.add_argument("--turbines", type=int, default=4)
    p.add_argument("--timestamps", type=int, default=2000)
    p.add_argument("--channels", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train from a run config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's out_dir")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="forecast one horizon from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--origin", type=int, required=True,
                   help="timestamp index of the first forecast step")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="masked MAE/RMSE over a window range")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--end", type=int, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--mw", action="store_true", help="report megawatts instead of kW")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("plot", help="SVG overlay of predicted vs actual power")
    p.add_argument("--forecast", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--turbine", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse's --help (0) or usage error (2)
            return exc.code
        # a non-finite loss, gradient or prediction ends in its own `error:`
        # line, so numpy's floating-point warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (ConfigError, ShapeError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TrainingError, EvaluationError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
