"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hsttn import autodiff, model as model_mod  # noqa: E402
from hsttn.data import apply_zscore, fit_zscore, make_windows, synth_generate  # noqa: E402
from hsttn.model import HSTTN, ModelConfig  # noqa: E402
from hsttn.training import mse_loss  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, trace: int) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, time.monotonic() - t0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_pipeline_prints_declared_metrics(trace, section):
    proc, elapsed = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert elapsed < 30.0, f"tiny pipeline took {elapsed:.1f} s"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _desk_model_and_window():
    cfg = ModelConfig(n_turbines=3, history_len=12, horizon_len=12, n_channels=4,
                      d_model=4, n_heads=2, pool_factors=(3, 2), dropout_rate=0.1)
    rs = synth_generate(3, 80, 4, seed=2)
    normed = apply_zscore(rs, fit_zscore(rs, (0, 60)))
    return HSTTN(cfg, seed=5), make_windows(normed, 12, 12, 24)[0]


def _train_step(model, window):
    """One taped forward and backward, looking every name up at call time
    so that installed wrappers are used."""
    with autodiff.GradTape() as tape:
        y = model.forward(autodiff.Tensor(window.history), training=True,
                          rng=autodiff.RngStream(0))
        loss = mse_loss(y, window.future_target, window.future_validity)
        autodiff.backward(loss, tape)
    return tape


@pytest.fixture
def traced():
    tracer = Tracer()
    tracer.install()
    try:
        model, window = _desk_model_and_window()
        tape = _train_step(model, window)
        model.predict(window.history)
    finally:
        tracer.uninstall()
    return tracer, tape


def test_every_tape_node_belongs_to_exactly_one_scope(traced):
    tracer, tape = traced
    scopes, ops = tracer.node_owners(tape)
    assert len(scopes) == len(ops) == len(tape.nodes)
    assert sum(tracer.scope_nodes.values()) == len(tape.nodes)
    assert sum(tracer.op_nodes.values()) == len(tape.nodes)
    assert "other" not in ops
    expected = {"embed", "loss", "pool", "head", "up.t0", "up.t1", "enc.s0.l0",
                "enc.s0.l1.tem", "enc.s2.l1.spa", "enc.s1.l0.cfb", "dec.s2.l0.tem.self",
                "dec.s0.l0.spa.cross", "dec.s1.l0.cfb"}
    assert expected <= set(scopes)
    # the skip concatenation is charged to the up-convolution it feeds
    assert [op for s, op in zip(scopes, ops) if s == "up.t0"] == ["concat", "upconv1d"]


def test_scope_self_times_sum_to_forward_and_backward_totals(traced):
    tracer, _ = traced
    forward_total = sum(t1 - t0 for t0, t1, _ in tracer.forwards)
    backward_total = sum(t1 - t0 for t0, t1 in tracer.backwards)
    assert len(tracer.forwards) == 2 and tracer.taped_windows == 1
    assert sum(tracer.scope_fwd.values()) == pytest.approx(forward_total, rel=1e-6)
    assert sum(tracer.scope_bwd.values()) == pytest.approx(backward_total, rel=1e-6)
    assert min(tracer.scope_fwd.values()) >= 0.0
    taped = sum(t1 - t0 for t0, t1, taped in tracer.forwards if taped)
    assert sum(tracer.scope_fwd_taped.values()) == pytest.approx(taped, rel=1e-6)


def test_tracer_changes_no_result_and_uninstalls():
    originals = (model_mod.attention, model_mod.HSTTN.forward, autodiff.backward,
                 model_mod.matmul, autodiff.GradTape.__enter__)
    model, window = _desk_model_and_window()
    _train_step(model, window)
    plain = {n: t.grad.copy() for n, t in model.params.trainable().items()}
    pred = model.predict(window.history)

    model, window = _desk_model_and_window()
    tracer = Tracer()
    tracer.install()
    try:
        _train_step(model, window)
        traced_pred = model.predict(window.history)
    finally:
        tracer.uninstall()
    assert np.array_equal(pred, traced_pred)
    for name, t in model.params.trainable().items():
        assert np.array_equal(plain[name], t.grad), name
    assert originals == (model_mod.attention, model_mod.HSTTN.forward, autodiff.backward,
                         model_mod.matmul, autodiff.GradTape.__enter__)


def test_low_memory_is_a_recorded_failure(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "mem_available_mb", lambda: 100.0)
    assert run.main(["--workload", "paper-step", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
