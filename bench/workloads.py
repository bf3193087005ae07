"""Workload definitions: farm shape, run config and CLI arguments.

Every workload runs the same user flow, `hsttn train` then `evaluate` then
`predict`, through `hsttn.cli.main`. The shapes differ so that each
workload is dominated by a different layer (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    turbines: int
    steps: int
    channels: int
    # run-config keys; `data`, `schema` and `out_dir` are filled in
    config: dict = field(default_factory=dict)
    eval_start: int = 0
    eval_stride: int = 1
    predict_origin: int = 0
    # resident memory one cycle needs, checked against MemAvailable first
    need_mb: int = 0
    # run the bitwise turbine-permutation check on the trained checkpoint
    permutation_check: bool = False
    # check that training lowered the validation loss
    expect_learning: bool = False

    @property
    def csv_rows(self) -> int:
        return self.turbines * self.steps

    @property
    def train_windows(self) -> int:
        c = self.config
        span = int(c["history_len"]) + int(c["horizon_len"])
        return (int(c["train_end"]) - span) // int(c["train_stride"]) + 1

    @property
    def batches_per_epoch(self) -> int:
        return -(-self.train_windows // int(self.config["batch_size"]))


def _config(**overrides) -> dict:
    # the model and training seed is fixed: --seed varies the data only
    base = dict(n_heads=2, pool_factors="3,2", layers_encoder=2, layers_decoder=1,
                dropout=0.0, lr=0.005, lr_decay=0.97, patience=1000, seed=0)
    base.update(overrides)
    return base


WORKLOADS = {
    # README / acceptance criterion 7 shape: 109 training windows per epoch,
    # one epoch of batch 4 gives 28 optimizer steps per cycle; a 45 s run
    # makes about twenty cycles, so it has the 100 steps a p90 needs. With
    # more epochs the best epoch, and so the test MAE, flips between seeds.
    "desk-train": Workload(
        name="desk-train", turbines=4, steps=720, channels=5,
        config=_config(train_end=480, val_end=600, history_len=24, horizon_len=24,
                       d_model=8, batch_size=4, max_epochs=1, train_stride=4,
                       val_stride=24),
        eval_start=600, eval_stride=12, predict_origin=640, need_mb=500,
        permutation_check=True, expect_learning=True),
    # SDWPF shape: one training window at batch 1, one validation window,
    # one evaluation window and one forecast; each forward is seconds long.
    "paper-step": Workload(
        name="paper-step", turbines=134, steps=864, channels=13,
        config=_config(train_end=288, val_end=576, history_len=144, horizon_len=144,
                       d_model=16, dropout=0.1, lr=0.0001, batch_size=1, max_epochs=1,
                       train_stride=144, val_stride=144),
        eval_start=576, eval_stride=144, predict_origin=720, need_mb=5000),
    # Not declared in BENCHMARK.json: the benchmark's own tests run it.
    "tiny": Workload(
        name="tiny", turbines=2, steps=150, channels=4,
        config=_config(train_end=90, val_end=120, history_len=6, horizon_len=6,
                       d_model=4, pool_factors="3", layers_encoder=1, batch_size=4,
                       max_epochs=2, train_stride=3, val_stride=6),
        eval_start=120, eval_stride=6, predict_origin=130, need_mb=300,
        permutation_check=True),
}
