"""One workload in one process: set up its inputs, run CLI cycles, check, measure.

run.py starts this file with the checkout's `src` on PYTHONPATH and the
parent's monotonic clock reading at spawn time in `--t0`, so set-up time
covers interpreter start, `import hsttn` and input generation. The result
goes to the JSON file named by `--result`; the CLI's own output goes to
this process's stdout, which run.py sends to its stderr.

A cycle is `hsttn train`, `hsttn evaluate`, `hsttn predict`, each called
in-process through `hsttn.cli.main`. An untraced run makes one cycle, then
more while one as long as the last would still end within `--seconds` of
the first. A traced run calls `hsttn train` twice untraced, installs the
tracer, makes one traced cycle and reports the traced `hsttn train` wall
time minus that of the second untraced one as the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

MB = 2.0 ** 20


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    """Operations attempted and failed, with a line of detail per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def setup(wl: Workload, seed: int, work: Path) -> dict:
    """Write the farm CSV, its schema and the run config; return paths and timings."""
    from hsttn.data import synth_generate, write_csv

    work.mkdir(parents=True, exist_ok=True)
    rs = synth_generate(wl.turbines, wl.steps, wl.channels, seed)
    csv_path = work / "farm.csv"
    t0 = time.perf_counter()
    write_csv(rs, csv_path)
    write_csv_s = time.perf_counter() - t0
    rs.schema.save(work / "farm.schema")
    config = dict(wl.config, data="farm.csv", schema="farm.schema", out_dir="out")
    (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()),
                                  encoding="utf-8")
    return {"work": work, "csv": csv_path, "schema": work / "farm.schema",
            "config": work / "run.cfg", "out": work / "out", "write_csv_s": write_csv_s}


def cli_argv(wl: Workload, inputs: dict) -> dict[str, list[str]]:
    """The argument lists of one cycle's CLI commands, in order."""
    out = inputs["out"]
    common = ["--data", str(inputs["csv"]), "--schema", str(inputs["schema"])]
    return {
        "train": ["train", "--config", str(inputs["config"]), "--out", str(out)],
        "evaluate": ["evaluate", "--checkpoint", str(out / "checkpoint.bin"), *common,
                     "--start", str(wl.eval_start), "--stride", str(wl.eval_stride),
                     "--out", str(out)],
        "predict": ["predict", "--checkpoint", str(out / "checkpoint.bin"), *common,
                    "--origin", str(wl.predict_origin), "--out", str(out)],
    }


def run_command(argv: list[str], log, checks: Checks) -> tuple[bool, float, dict]:
    """One CLI command in-process; returns success, wall time and its spans."""
    from hsttn.cli import main

    t0 = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - t0
    return checks(code == 0, f"hsttn {argv[0]} exited {code}"), wall, log.take()


def run_cycle(wl: Workload, inputs: dict, log, checks: Checks) -> dict:
    """train -> evaluate -> predict through the CLI; returns timings and outputs."""
    from hsttn.kv import read_kv

    out = inputs["out"]
    commands = cli_argv(wl, inputs)
    cycle = {"wall": {}, "spans": {}}
    t_cycle = time.perf_counter()
    for name, argv in commands.items():
        ok, cycle["wall"][name], cycle["spans"][name] = run_command(argv, log, checks)
        if not ok:
            break
    cycle["cycle_s"] = time.perf_counter() - t_cycle
    if len(cycle["wall"]) < len(commands) or not all(
            (out / f).is_file() for f in ("checkpoint.bin", "report.kv", "forecast.csv")):
        cycle["complete"] = False
        return cycle
    cycle["complete"] = True

    report = read_kv(out / "report.kv")
    cycle["mae"] = float(report["mae"])
    cycle["n_eval_windows"] = int(report["n_windows"])
    checks(math.isfinite(cycle["mae"]) and math.isfinite(float(report["rmse"])),
           f"report.kv figures not finite: {report}")
    with (out / "train_log.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    checks(bool(rows) and all(math.isfinite(float(r["train_loss"]))
                              and math.isfinite(float(r["val_loss"])) for r in rows),
           "train_log.csv has no rows or a non-finite loss")
    with (out / "forecast.csv").open(newline="", encoding="utf-8") as fh:
        preds = [float(r["predicted_power"]) for r in csv.DictReader(fh)]
    checks(len(preds) == wl.turbines * int(wl.config["horizon_len"])
           and all(math.isfinite(p) for p in preds), "forecast.csv incomplete or not finite")
    cycle["sha256"] = {f: sha256(out / f) for f in ("checkpoint.bin", "report.kv")}
    cycle["checkpoint_bytes"] = (out / "checkpoint.bin").stat().st_size
    cycle["val_losses"] = [r for _, _, r in cycle["spans"]["train"].get(
        "training.validation_loss", [])]
    return cycle


def permutation_check(wl: Workload, inputs: dict) -> bool:
    """Permuting turbines and the turbine table permutes the forecast bitwise."""
    import numpy as np
    from hsttn.checkpoint import load_checkpoint, model_from_checkpoint
    from hsttn.data import Schema, apply_zscore, load_records, make_windows

    ckpt = load_checkpoint(inputs["out"] / "checkpoint.bin")
    rs = load_records(inputs["csv"], Schema.load(inputs["schema"]))
    normed = apply_zscore(rs, ckpt.norm_stats)
    h = int(wl.config["history_len"])
    x = make_windows(normed, h, h, 1, wl.predict_origin - h)[0].history
    perm = np.random.default_rng(0).permutation(wl.turbines)
    model = model_from_checkpoint(ckpt)
    permuted = model_from_checkpoint(ckpt)
    arrays = permuted.params.state_arrays()
    arrays["turbine_table"] = arrays["turbine_table"][perm]
    permuted.params.load_arrays(arrays)
    return bool(np.array_equal(permuted.predict(x[perm]), model.predict(x)[perm]))


def _dur(spans) -> list[float]:
    return [t1 - t0 for t0, t1, _ in spans]


def training_samples(wl: Workload, spans: dict, checks: Checks) -> tuple[list, list]:
    """Per-epoch training windows/s and per-epoch lists of step seconds,
    validation excluded.

    Epoch k runs from the end of validation pass k to the start of pass
    k+1; step i ends when its `adam_step` returns, and the first step of an
    epoch starts when the validation pass before it ends.
    """
    val = spans.get("training.validation_loss", [])
    adam_ends = [t1 for _, t1, _ in spans.get("training.adam_step", [])]
    rates, steps = [], []
    for (_, start, _), (end, _, _) in zip(val, val[1:]):
        ends = [t for t in adam_ends if start < t < end]
        checks(len(ends) == wl.batches_per_epoch,
               f"epoch made {len(ends)} optimizer steps, expected {wl.batches_per_epoch}")
        rates.append(wl.train_windows / (end - start))
        steps.append([b - a for a, b in zip([start] + ends, ends)])
    return rates, steps


def ingest_rates(wl: Workload, cycle: dict) -> list[float]:
    rates = []
    for spans in cycle["spans"].values():
        for load, mark in zip(_dur(spans.get("data.load_records", [])),
                              _dur(spans.get("data.mark_invalid", []))):
            rates.append(wl.csv_rows / (load + mark))
    return rates


def end_to_end(wl: Workload, cycles: list[dict], checks: Checks) -> tuple[dict, dict]:
    """Each timing is the mean of its repeats over the run, and each rate is
    the run's total work over its total time (the harmonic mean of its
    repeats, which all do equal work). Other load on the machine slows it
    by up to 1.9x for stretches of seconds to minutes; a mean moves with
    the share of the run that was slowed, where a median or a best repeat
    flips between the slow and the fast figure from one run to the next.

    A repeat is one command for wall times, one CSV load for ingest, one
    window for inference and one epoch for the training rate. For the step
    time it is one epoch's median step, as an epoch's last step can be a
    partial batch.
    """
    per_cycle: list[dict[str, list[float]]] = []
    steps_ms: list[float] = []
    for c in cycles:
        rates, epochs = training_samples(wl, c["spans"]["train"], checks)
        # cmd_evaluate calls predict_window only from inside evaluate_model
        windows = _dur(c["spans"]["evaluate"].get("evaluation.predict_window", []))
        checks(len(windows) == c["n_eval_windows"],
               f"evaluate_model forecast {len(windows)} windows, report.kv says "
               f"{c['n_eval_windows']}")
        per_cycle.append({
            "train_wall_s": [c["wall"]["train"]],
            "train_windows_per_s": rates,
            "train_step_ms_p50": [statistics.median(e) * 1e3 for e in epochs if e],
            "evaluate_wall_s": [c["wall"]["evaluate"]],
            "infer_windows_per_s": [1.0 / d for d in windows],
            "predict_wall_s": [c["wall"]["predict"]],
            "ingest_rows_per_s": ingest_rates(wl, c),
        })
        steps_ms += [x * 1e3 for e in epochs for x in e]
    metrics: dict[str, float | None] = {}
    for name in per_cycle[0]:
        repeats = [x for c in per_cycle for x in c[name]]
        mean = statistics.harmonic_mean if name.endswith("_per_s") else statistics.fmean
        metrics[name] = mean(repeats) if repeats else None
    metrics["test_mae_kw"] = cycles[-1]["mae"]
    for name, value in metrics.items():
        checks(value is not None, f"{name} could not be measured")
    info = {"repeats": {name: sum(len(c[name]) for c in per_cycle) for name in per_cycle[0]},
            "raw": per_cycle}
    steps_ms.sort()
    if len(steps_ms) >= 100:
        # nearest-rank p90 over every step of the run: at least ten lie beyond it
        info["train_step_ms_p90"] = steps_ms[math.ceil(0.9 * len(steps_ms)) - 1]
    return metrics, info


def _ratio(total: float, n: int) -> float:
    return total / n if n else 0.0


OPS = ("permute", "reshape", "add", "matmul", "mix", "softmax_rows", "concat", "maxpool1d",
       "upconv1d", "scale", "relu")
GROUPS = ("embed", "pool", "up", "head", "enc.tem", "enc.spa", "enc.cfb", "dec.tem",
          "dec.spa", "dec.cfb", "s0", "s1", "s2")


def scope_groups(scope: str) -> list[str]:
    """The `model.*` groups a scope counts toward: `enc.s1.l0.spa` is in
    `enc.spa` and `s1`; a layer's own ops (`enc.s1.l0`) only in `s1`."""
    parts = scope.split(".")
    if parts[0] in ("enc", "dec"):
        return [parts[1]] + ([f"{parts[0]}.{parts[3]}"] if len(parts) > 3 else [])
    return [parts[0]] if parts[0] in ("embed", "pool", "up", "head") else []


def per_layer(wl: Workload, tracer, cycle: dict, overhead_s: float, setup_info: dict,
              ) -> tuple[dict, dict]:
    """Per-layer metrics of one traced cycle, plus the full per-scope table."""
    forwards = len(tracer.forwards)
    windows = tracer.taped_windows
    spans: dict[str, list] = {}
    for command in cycle["spans"].values():
        for key, value in command.items():
            spans.setdefault(key, []).extend(value)
    commands = len(cycle["spans"])
    m: dict[str, float] = {
        "autodiff.tape_nodes_per_window": _ratio(sum(tracer.scope_nodes.values()), windows),
        "autodiff.tape_mb_per_window": _ratio(sum(tracer.scope_bytes.values()), windows) / MB,
        "autodiff.backward_ms_per_window": _ratio(
            sum(t1 - t0 for t0, t1 in tracer.backwards), windows) * 1e3,
        "autodiff.mix.computed_mb": tracer.mix_product_bytes / MB,
    }
    for op in OPS:
        m[f"autodiff.{op}.fwd_ms"] = _ratio(tracer.op_fwd.get(op, 0.0), forwards) * 1e3
        m[f"autodiff.{op}.bwd_ms"] = _ratio(tracer.op_bwd.get(op, 0.0), windows) * 1e3
        m[f"autodiff.{op}.calls"] = _ratio(tracer.op_calls.get(op, 0), forwards)

    fwd = dict.fromkeys(GROUPS, 0.0)
    bwd = dict.fromkeys(GROUPS, 0.0)
    for totals, per_scope in ((fwd, tracer.scope_fwd), (bwd, tracer.scope_bwd)):
        for scope, seconds in per_scope.items():
            for group in scope_groups(scope):
                totals[group] += seconds
    for group in GROUPS:
        m[f"model.{group}.fwd_ms"] = _ratio(fwd[group], forwards) * 1e3
        m[f"model.{group}.bwd_ms"] = _ratio(bwd[group], windows) * 1e3

    taped_fwd = sum(t1 - t0 for t0, t1, taped in tracer.forwards if taped)
    adam = _dur(spans.get("training.adam_step", []))
    loads = _dur(spans.get("data.load_records", []))
    evals = spans.get("evaluation.evaluate_model", [])
    inside = sum(f1 - f0 for f0, f1, _ in tracer.forwards
                 for e0, e1, _ in evals if e0 <= f0 and f1 <= e1)
    m.update({
        "training.forward_ms_per_window": _ratio(taped_fwd, windows) * 1e3,
        "training.adam_ms_per_step": _ratio(sum(adam), len(adam)) * 1e3,
        "training.validation_s": sum(_dur(spans.get("training.validation_loss", []))),
        "data.load_records_s": _ratio(sum(loads), len(loads)),
        "data.rows_per_s": _ratio(wl.csv_rows * len(loads), sum(loads)),
        "data.mark_invalid_ms": _ratio(
            sum(_dur(spans.get("data.mark_invalid", []))), len(loads)) * 1e3,
        "data.zscore_ms": _ratio(sum(_dur(spans.get("data.fit_zscore", [])))
                                      + sum(_dur(spans.get("data.apply_zscore", []))),
                                      commands) * 1e3,
        "data.make_windows_ms": _ratio(
            sum(_dur(spans.get("data.make_windows", []))), commands) * 1e3,
        "data.write_csv_s": setup_info["write_csv_s"],
        "evaluation.accumulate_ms": _ratio(
            sum(e1 - e0 for e0, e1, _ in evals) - inside, len(evals)) * 1e3,
        "checkpoint.save_ms": _ratio(
            sum(_dur(spans.get("checkpoint.save_checkpoint", []))),
            len(spans.get("checkpoint.save_checkpoint", []))) * 1e3,
        "checkpoint.load_ms": _ratio(
            sum(_dur(spans.get("checkpoint.load_checkpoint", []))),
            len(spans.get("checkpoint.load_checkpoint", []))) * 1e3,
        "checkpoint.bytes": float(cycle.get("checkpoint_bytes", 0)),
        "trace.overhead_s": overhead_s,
    })

    scopes = sorted(set(tracer.scope_fwd) | set(tracer.scope_bwd) | set(tracer.scope_nodes))
    table = {s: {
        "train_fwd_ms": _ratio(tracer.scope_fwd_taped.get(s, 0.0), windows) * 1e3,
        "fwd_ms": _ratio(tracer.scope_fwd.get(s, 0.0), forwards) * 1e3,
        "bwd_ms": _ratio(tracer.scope_bwd.get(s, 0.0), windows) * 1e3,
        "nodes": _ratio(tracer.scope_nodes.get(s, 0), windows),
        "tape_mb": _ratio(tracer.scope_bytes.get(s, 0), windows) / MB,
    } for s in scopes}
    ops = sorted(set(tracer.op_fwd) | set(tracer.op_bwd))
    op_table = {o: {
        "fwd_ms": _ratio(tracer.op_fwd.get(o, 0.0), forwards) * 1e3,
        "bwd_ms": _ratio(tracer.op_bwd.get(o, 0.0), windows) * 1e3,
        "calls": _ratio(tracer.op_calls.get(o, 0), forwards),
        "nodes": _ratio(tracer.op_nodes.get(o, 0), windows),
    } for o in ops}
    info = {"forwards": forwards, "taped_windows": windows, "scopes": table, "ops": op_table}
    return m, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import hsttn
    if Path(hsttn.__file__).resolve().parent != (Path.cwd() / "src" / "hsttn").resolve():
        print(f"error: imported hsttn from {hsttn.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = setup(wl, args.seed, Path(args.work))
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "csv_sha256": sha256(inputs["csv"])}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    from tracer import CallLog, Tracer
    checks = Checks()
    log = CallLog()
    log.install()
    cycles, untraced_trains = [], []
    if args.trace:
        # Two untraced `hsttn train` calls first: the first command of a
        # process also pays first-touch page faults that later ones avoid,
        # so the second is the baseline of the tracing overhead.
        for _ in range(2):
            ok, wall, _ = run_command(cli_argv(wl, inputs)["train"], log, checks)
            if not ok:
                break
            untraced_trains.append((wall, sha256(inputs["out"] / "checkpoint.bin")))
        if len(untraced_trains) == 2:
            tracer = Tracer()
            tracer.install()
            try:
                cycles.append(run_cycle(wl, inputs, log, checks))
            finally:
                tracer.uninstall()
    else:
        t_first = time.perf_counter()
        while True:
            cycles.append(run_cycle(wl, inputs, log, checks))
            # start another cycle only if one as long as the last ends in time
            if (not cycles[-1]["complete"]
                    or time.perf_counter() - t_first + cycles[-1]["cycle_s"] > args.seconds):
                break
    log.uninstall()

    complete = bool(cycles) and all(c["complete"] for c in cycles)
    if complete:
        first = cycles[0]["sha256"]
        checks(all(c["sha256"] == first for c in cycles),
               "checkpoint.bin or report.kv differ between cycles of one run")
        if args.trace:
            checks(all(sha == first["checkpoint.bin"] for _, sha in untraced_trains),
                   "traced and untraced `hsttn train` wrote different checkpoints")
        if wl.expect_learning:
            vals = cycles[0]["val_losses"]
            checks(len(vals) >= 2 and min(vals[1:]) < vals[0],
                   f"training did not lower the validation loss: {vals}")
        if wl.permutation_check:
            checks(permutation_check(wl, inputs), "turbine permutation is not bitwise")

    result.update(cycles=len(cycles), metrics={})
    if complete:
        result["sha256"] = first
        if not args.trace:
            metrics, info = end_to_end(wl, cycles, checks)
        else:
            traced = cycles[0]
            metrics, info = per_layer(wl, tracer, traced,
                                      traced["wall"]["train"] - untraced_trains[1][0], inputs)
            trace_path = Path(args.work) / "trace.json"
            trace_path.write_text(json.dumps(
                {"spans": tracer.spans, "forwards": tracer.forwards,
                 "backwards": tracer.backwards, **info}), encoding="utf-8")
            info = {k: info[k] for k in ("forwards", "taped_windows", "scopes")}
            info["trace_file"] = str(trace_path)
        result["metrics"] = metrics
        result["info"] = info
    result.update(attempted=checks.attempted, failures=checks.failures)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
