#!/usr/bin/env python3
"""End-to-end desk-scale experiment on a synthetic farm.

Generates data, trains the full model, scores it on a held-out test range
against the persistence baseline, and writes a forecast plot. Everything
is seeded, so two runs with the same arguments produce the same numbers.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hsttn import (  # noqa: E402
    HSTTN,
    ModelConfig,
    TrainConfig,
    apply_zscore,
    fit_zscore,
    make_windows,
    synth_generate,
    train,
)
from hsttn.checkpoint import save_checkpoint  # noqa: E402
from hsttn.cli import main as cli_main  # noqa: E402
from hsttn.data import write_csv  # noqa: E402
from hsttn.evaluation import evaluate_model, evaluate_persistence  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs/synth_experiment"))
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--turbines", type=int, default=4)
    parser.add_argument("--timestamps", type=int, default=720)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--horizon", type=int, default=24)
    parser.add_argument("--epochs", type=int, default=40)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    rs = synth_generate(args.turbines, args.timestamps, 5, seed=args.seed,
                        noise_scale=args.noise)
    write_csv(rs, args.out / "synthetic.csv")
    rs.schema.save(args.out / "synthetic.schema")

    train_end = (args.timestamps * 2) // 3
    val_end = train_end + args.timestamps // 6
    stats = fit_zscore(rs, (0, train_end))
    normed = apply_zscore(rs, stats)
    h = f = args.horizon
    train_w = make_windows(normed, h, f, stride=4, start=0, end=train_end)
    val_w = make_windows(normed, h, f, stride=h, start=train_end, end=val_end)
    test_w = make_windows(normed, h, f, stride=h // 2, start=val_end)

    cfg = ModelConfig(n_turbines=args.turbines, history_len=h, horizon_len=f,
                      n_channels=5, d_model=8, n_heads=2, pool_factors=(3, 2),
                      dropout_rate=0.0)
    model = HSTTN(cfg, seed=args.seed)
    tc = TrainConfig(initial_lr=5e-3, lr_decay=0.97, batch_size=4,
                     max_epochs=args.epochs, patience=12, seed=args.seed)
    print(f"training on {len(train_w)} windows "
          f"({args.turbines} turbines, horizon {f} steps) ...")
    best, records = train(model, train_w, val_w, tc, stats,
                          schema=rs.schema)
    model.params.load_arrays(best.parameters)
    save_checkpoint(args.out / "checkpoint.bin", best)
    print(f"best validation loss {best.val_loss:.5f} at epoch {best.epoch} "
          f"({len(records)} epochs run)")

    target = rs.target_index
    model_report = evaluate_model(model, test_w, stats, target)
    persist_report = evaluate_persistence(test_w, stats, target)
    print(f"test MAE:  model {model_report.mae:9.2f} kW | "
          f"persistence {persist_report.mae:9.2f} kW")
    print(f"test RMSE: model {model_report.rmse:9.2f} kW | "
          f"persistence {persist_report.rmse:9.2f} kW")
    improvement = 100.0 * (1.0 - model_report.mae / persist_report.mae)
    print(f"MAE improvement over persistence: {improvement:.1f}%")

    origin = val_end + h
    code = cli_main(["predict", "--checkpoint", str(args.out / "checkpoint.bin"),
                     "--data", str(args.out / "synthetic.csv"),
                     "--schema", str(args.out / "synthetic.schema"),
                     "--origin", str(origin), "--out", str(args.out)])
    if code == 0:
        code = cli_main(["plot", "--forecast", str(args.out / "forecast.csv"),
                         "--truth", str(args.out / "truth.csv"),
                         "--turbine", "0", "--out", str(args.out / "forecast.svg")])
    print(f"done in {time.monotonic() - started:.0f}s; outputs in {args.out}/")
    return code


if __name__ == "__main__":
    sys.exit(main())
