import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = SCRIPTS.parent / "bench"


@pytest.mark.parametrize("script", ["run_synth_experiment.py", "run_variant_sweep.py",
                                    "bitwise_digest.py"])
def test_script_imports_and_parses_help(script):
    # --help imports every public name the script uses, then exits 0
    result = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


def test_bitwise_digest_finds_no_difference_between_a_tree_and_itself():
    result = subprocess.run([sys.executable, str(SCRIPTS / "bitwise_digest.py"),
                             "--against", str(SCRIPTS.parent)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # no `differs:` line, only the summary
    [summary] = result.stdout.splitlines()
    assert summary.startswith("0 of ") and " arrays and artifacts differ" in summary


def test_every_exported_name_resolves():
    # the benchmark's tracer wraps every name in `hsttn.autodiff.__all__`
    import hsttn
    from hsttn import autodiff
    for module in (hsttn, autodiff):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_call_log_names_resolve():
    # the benchmark times every `CallLog.CALLS` entry; a renamed function
    # would only show as a failed benchmark run
    for module, name in _bench_module("tracer").CallLog.CALLS:
        value = getattr(importlib.import_module(f"hsttn.{module}"), name, None)
        assert inspect.isfunction(value), f"hsttn.{module}.{name}"


def test_benchmark_run_configs_load(tmp_path, monkeypatch):
    # a run-config key the CLI refused would only show as a failed benchmark
    # run; each workload's config is written by the benchmark's own set-up
    from hsttn import data
    from hsttn.cli import RunConfig
    monkeypatch.syspath_prepend(str(BENCH))
    child = _bench_module("child")
    synth = data.synth_generate
    # set-up also writes the farm CSV: two timestamps keep it small
    monkeypatch.setattr(data, "synth_generate",
                        lambda turbines, steps, channels, seed: synth(turbines, 2, channels, seed))
    for wl in child.WORKLOADS.values():
        run = RunConfig.load(child.setup(wl, 0, tmp_path / wl.name)["config"])
        model = run.model_config(n_turbines=wl.turbines, n_channels=wl.channels)
        c = wl.config
        assert (model.history_len, model.horizon_len) == (c["history_len"], c["horizon_len"])
        assert (model.dropout_rate, run.training.initial_lr) == (c["dropout"], c["lr"])
        assert run.training.seed == c["seed"]


def test_benchmark_tracer_hooks_exist():
    from hsttn import autodiff, model
    assert inspect.isfunction(model.attention)
    assert inspect.isfunction(autodiff.backward)
    for cls, name in [(model.EncoderLayer, "__call__"), (model.DecoderLayer, "__call__"),
                      (model.HSTTN, "forward"), (model.HSTTN, "regress"),
                      (model.ModelParameters, "items"),
                      (autodiff.GradTape, "__enter__"), (autodiff.GradTape, "__exit__")]:
        assert inspect.isfunction(vars(cls).get(name)), f"{cls.__name__}.{name}"


def test_evaluate_model_predicts_once_per_window_through_the_module(monkeypatch):
    # the benchmark counts windows by wrapping `evaluation.predict_window`
    from hsttn import evaluation
    from hsttn.data import apply_zscore, fit_zscore, make_windows, synth_generate
    from hsttn.model import HSTTN, ModelConfig
    rs = synth_generate(2, 60, 3, seed=1)
    stats = fit_zscore(rs, (0, 40))
    windows = make_windows(apply_zscore(rs, stats), 6, 6, 5, start=30)
    model = HSTTN(ModelConfig(n_turbines=2, history_len=6, horizon_len=6, n_channels=3,
                              d_model=4, n_heads=2, pool_factors=(3,)), seed=0)
    calls = []
    predict = evaluation.predict_window

    def counted(*args, **kwargs):
        calls.append(1)
        return predict(*args, **kwargs)

    monkeypatch.setattr(evaluation, "predict_window", counted)
    evaluation.evaluate_model(model, windows, stats, rs.target_index)
    assert len(windows) > 1 and len(calls) == len(windows)


def test_benchmark_tiny_cycle_passes_its_checks(tmp_path, monkeypatch):
    # the benchmark's correctness gate in-process: a function the CLI cycle
    # or the permutation check needs, gone or broken, would otherwise show
    # only as a benchmark run whose outputs are incorrect
    monkeypatch.syspath_prepend(str(BENCH))
    child, tracer = _bench_module("child"), _bench_module("tracer")
    wl = child.WORKLOADS["tiny"]
    inputs = child.setup(wl, 0, tmp_path)
    checks, log = child.Checks(), tracer.CallLog()
    log.install()
    try:
        cycle = child.run_cycle(wl, inputs, log, checks)
    finally:
        log.uninstall()
    assert cycle["complete"]
    child.end_to_end(wl, [cycle], checks)
    assert child.permutation_check(wl, inputs)
    assert checks.attempted > 0 and checks.failures == []
