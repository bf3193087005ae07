"""hsttn benchmark: one workload, end to end through the CLI, or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload desk-train --seed 1 --seconds 45 --trace 0

The workload runs in a child process (bench/child.py) so that its peak RSS
is its own; set-up is repeated in further children and its median is
reported. Human-readable lines go to stdout first; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. Scratch files go to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


def mem_available_mb() -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/meminfo has no MemAvailable line")


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["HSTTN_LOG"] = "warning"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def environment(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def spawn(root: Path, env: dict, args, work: Path, deadline: float, setup_only: bool
          ) -> tuple[dict | None, str]:
    """Run bench/child.py once; return its result (None on failure) and a reason."""
    result_path = work.with_suffix(".json")
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left for this child"
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.is_file():
        return None, f"child exited {proc.returncode}"
    return json.loads(result_path.read_text(encoding="utf-8")), ""


def measure(root: Path, env: dict, args, work: Path, deadline: float) -> tuple[int, dict]:
    """Set-up-only children around the workload child; returns the number of
    operations attempted and the workload child's result with all failures."""
    attempted, failures, setups = 1, [], []

    def setup_child(i: int) -> None:
        nonlocal attempted
        attempted += 1
        res, why = spawn(root, env, args, work / f"setup{i}", deadline, True)
        shutil.rmtree(work / f"setup{i}", ignore_errors=True)
        if res is None:
            failures.append(f"set-up child {i}: {why}")
        else:
            setups.append(res)

    # set-up-only children run before and after the workload child, so
    # that the set-up samples are spread over the whole run
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    for i in range(extra // 2):
        setup_child(i)
    attempted += 1
    result, why = spawn(root, env, args, work / "run", deadline, False)
    for i in range(extra // 2, extra):
        setup_child(i)
    if result is None:
        return attempted, {"metrics": {}, "failures": failures + [f"workload child: {why}"]}
    attempted += result["attempted"] + 1
    failures += result["failures"]
    setups.append(result)
    if not all(s["csv_sha256"] == result["csv_sha256"] for s in setups):
        failures.append("set-up children wrote different inputs for one seed")
    if not args.trace and result["metrics"]:
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
    result["failures"] = failures
    return attempted, result


def report(spec: dict, args, result: dict, env_info: dict) -> None:
    print(f"hsttn benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"environment: {json.dumps(env_info, sort_keys=True)}")
    for key in ("csv_sha256", "sha256", "cycles", "failures"):
        if key in result:
            print(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    info = result.get("info", {})
    if "repeats" in info:
        print(f"repeats per metric: {json.dumps(info['repeats'], sort_keys=True)}")
        p90 = info.get("train_step_ms_p90")
        print("train_step_ms_p90: " + (f"{p90:.3f} ms" if p90 is not None
                                        else "not reported (fewer than 100 steps)"))
    if "scopes" in info:
        print(f"per-scope breakdown over {info['taped_windows']} training windows and "
              f"{info['forwards']} forward passes (trace file {info['trace_file']}):")
        print(f"  {'scope':24s} {'train fwd ms':>13s} {'bwd ms':>11s} {'nodes':>7s} "
              f"{'tape MB':>9s}")
        for scope, row in info["scopes"].items():
            print(f"  {scope:24s} {row['train_fwd_ms']:13.3f} {row['bwd_ms']:11.3f} "
                  f"{row['nodes']:7.1f} {row['tape_mb']:9.2f}")
    section = "per_layer" if args.trace else "end_to_end"
    for m in spec[section]:
        value = result["metrics"].get(m["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {m['name']} = {shown} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "hsttn" / "__init__.py").is_file():
        print("error: run from the root of an hsttn checkout (src/hsttn is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    env = child_env(root, threads)
    env_info = environment(threads)
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env_info["mem_available_mb"] = mem_available_mb()
    if env_info["mem_available_mb"] < wl.need_mb:
        attempted, result = 1, {"metrics": {}, "failures": [
            f"MemAvailable {env_info['mem_available_mb']:.0f} MB is below the "
            f"{wl.need_mb} MB this workload needs; not started"]}
    else:
        attempted, result = measure(root, env, args, work, deadline)
    failures = result["failures"]

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    measured = result["metrics"]
    if measured and set(measured) != set(declared):
        print(f"error: metrics {sorted(set(measured) ^ set(declared))} differ between "
              f"the benchmark and BENCHMARK.json", file=sys.stderr)
        return 1
    report(spec, args, result, env_info)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items() if name in measured},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
