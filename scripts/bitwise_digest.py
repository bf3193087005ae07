#!/usr/bin/env python3
"""Say whether two source trees compute the same bits.

Runs a fixed set of computations and prints one sha256 per named array or
artifact, then one overall digest:

- every model variant at (N, L, d) = (4, 24, 8), (13, 12, 8) and
  (37, 12, 4), with a batch of 4 windows and dropout 0.2: two Adam steps,
  each with its loss, every parameter gradient and every attention
  probability array; then the parameters, a prediction for the batch and
  the evaluation report over held-out windows;
- one `attend` call along axis -2 and one along -3 whose keys tie in
  their last feature, hold duplicate rows and rows of signed zeros, so the
  full lexicographic key sort runs: its output, six gradients and
  probabilities;
- the same for one call along each axis on (4, 6, 96, 8) sequences, which
  `attend` splits into 8 chunks and shares among its threads;
- a `synth` -> `train` -> `evaluate` -> `predict` flow through the CLI,
  with every file it writes;
- one irregular record file loaded: quoted fields (one over a block
  boundary), CRLF line ends, empty and blank cells, short rows, blank and
  comma-only lines and ids above 2**64; its values, validity and ids.

With `--against PATH` the same set also runs on the `src/` of the tree at
PATH, in a child process, and the names whose digests differ are listed
(exit 1 if any differ, else 0). The bits depend on the BLAS build, its
thread count and the machine, so compare two trees on one machine; there
are no stored digests. The CLI pins OpenBLAS to one thread, so in a tree
whose CLI does, the cases after the CLI flow run at one thread and those
before it at the count the environment gives (OPENBLAS_NUM_THREADS).

    python3 scripts/bitwise_digest.py                    # this tree's digests
    python3 scripts/bitwise_digest.py --against ../other # what differs
"""

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SHAPES = ((4, 24, 8), (13, 12, 8), (37, 12, 4))
CHANNELS, BATCH, SEED, LR = 5, 4, 7, 1e-3
RUN_CONFIG = """\
data = synthetic.csv
schema = synthetic.schema
train_end = 150
val_end = 190
history_len = 12
horizon_len = 12
d_model = 8
n_heads = 2
pool_factors = 3,2
layers_encoder = 1
layers_decoder = 1
dropout = 0.1
lr = 0.002
batch_size = 4
max_epochs = 2
patience = 5
seed = 21
train_stride = 3
val_stride = 12
out_dir = out
"""


def sha(a) -> str:
    """Digest of an array's dtype, shape and bytes, or of bytes or text."""
    if isinstance(a, str):
        a = a.encode()
    if isinstance(a, bytes):
        return hashlib.sha256(a).hexdigest()
    a = np.asarray(a)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(a).tobytes()).hexdigest()


def model_digests(out: dict) -> None:
    from hsttn import (AdamState, GradTape, RngStream, ScaleTrace, Tensor, adam_step,
                       apply_zscore, backward, evaluate_model, fit_zscore, make_variant,
                       make_windows, mse_loss, synth_generate, variant_config)
    from hsttn.model import VARIANT_NAMES, ModelConfig

    for n, length, d in SHAPES:
        rs = synth_generate(n, 8 * length, CHANNELS, seed=n)
        stats = fit_zscore(rs, (0, 5 * length))
        normed = apply_zscore(rs, stats)
        batch = make_windows(normed, length, length, length // 2, 0, 5 * length)[:BATCH]
        x = np.stack([w.history for w in batch])
        y = np.stack([w.future_target for w in batch])
        mask = np.stack([w.future_validity for w in batch])
        held_out = make_windows(normed, length, length, length // 2, 5 * length)
        base = ModelConfig(n_turbines=n, n_channels=CHANNELS, history_len=length,
                           horizon_len=length, d_model=d, n_heads=2, pool_factors=(3, 2),
                           dropout_rate=0.2)
        for name in VARIANT_NAMES:
            model = make_variant(variant_config(base, name), seed=SEED)
            params = model.params.trainable()
            state = AdamState.init(params)
            prefix = f"{n}x{length}x{d}/{name}"
            for step in range(2):
                model.params.zero_grad()
                trace = ScaleTrace(collect_probs=True)
                with GradTape() as tape:
                    y_hat = model.forward(Tensor(x), training=True,
                                          rng=RngStream(SEED).child(step), trace=trace)
                    loss = mse_loss(y_hat, y, mask)
                backward(loss, tape)
                out[f"{prefix}/step{step}/loss"] = sha(loss.data)
                for key, p in params.items():
                    out[f"{prefix}/step{step}/grad/{key}"] = sha(p.grad)
                for i, probs in enumerate(trace.attention_probs):
                    out[f"{prefix}/step{step}/probs/{i:02d}"] = sha(probs)
                adam_step(params, state, LR)
            for key, a in model.params.state_arrays().items():
                out[f"{prefix}/params/{key}"] = sha(a)
            out[f"{prefix}/predict"] = sha(model.predict(x))
            report = evaluate_model(model, held_out, stats, rs.target_index)
            out[f"{prefix}/report.kv"] = sha(json.dumps(report.to_kv(), sort_keys=True))
            out[f"{prefix}/report.csv"] = sha(json.dumps(report.to_csv_rows()))


def tied_keys(rng) -> np.ndarray:
    """(3, 4, 9, 8) key sequences: in all but one, two rows share only their
    last feature, two rows are duplicates and two are zeros that differ in
    the sign of one, at shuffled positions."""
    keys = rng.normal(size=(3, 4, 9, 8))
    tied = np.ones((3, 4), dtype=bool)
    tied[1, 2] = False
    keys[tied, 1, -1] = keys[tied, 0, -1]
    keys[tied, 3] = keys[tied, 2]
    keys[tied, 4:6] = 0.0
    keys[tied, 5, 1] = -0.0
    perm = np.argsort(rng.random((3, 4, 9)), axis=-1)
    return np.take_along_axis(keys, perm[..., None], axis=-2)


def attend_digests(out: dict) -> None:
    rng = np.random.default_rng(SEED)
    keys = tied_keys(rng)
    query, proj = rng.normal(size=(3, 4, 5, 8)), rng.normal(size=(3, 4, 5, 6))
    weights = [rng.normal(size=shape) for shape in ((8, 6), (8, 6), (8, 4), (4, 6))]
    attend_case(out, "attend", query, keys, proj, weights)
    # 24 sequences of 2 x 96 x 96 scores, three to a chunk of 2**16 scores
    query, keys = rng.normal(size=(4, 6, 96, 8)), rng.normal(size=(4, 6, 96, 8))
    attend_case(out, "attend/chunks", query, keys, rng.normal(size=(4, 6, 96, 6)), weights)


def attend_case(out: dict, prefix: str, query, keys, proj, weights) -> None:
    """Digests of `attend` along axis -2 and -3 on inputs given in sequence
    layout: its output, six gradients and probabilities."""
    from hsttn import GradTape, Tensor, backward
    from hsttn.autodiff import attend, mul, sum_all

    for axis in (-2, -3):
        q, k = (Tensor(np.swapaxes(a, axis, -2), requires_grad=True) for a in (query, keys))
        ws = [Tensor(w, requires_grad=True) for w in weights]
        probs: list = []
        with GradTape() as tape:
            y = attend(q, k, *ws, 2, axis=axis, probs=probs)
            loss = sum_all(mul(y, Tensor(np.swapaxes(proj, axis, -2))))
        backward(loss, tape)
        for name, a in zip(("out", "query", "keys", "wq", "wk", "wv", "wo", "probs"),
                           (y.data, q.grad, k.grad, *(w.grad for w in ws), probs[0])):
            out[f"{prefix}/axis{axis}/{name}"] = sha(a)


def cli_digests(out: dict) -> None:
    from hsttn.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "run.cfg").write_text(RUN_CONFIG, encoding="utf-8")
        data = ["--data", str(root / "synthetic.csv"), "--schema", str(root / "synthetic.schema")]
        ckpt = ["--checkpoint", str(root / "out" / "checkpoint.bin")]
        commands = [
            ["synth", "--out", tmp, "--turbines", "5", "--timestamps", "240", "--channels", "4",
             "--seed", "3"],
            ["train", "--config", str(root / "run.cfg")],
            ["evaluate", *ckpt, *data, "--start", "190", "--stride", "6",
             "--out", str(root / "out")],
            ["predict", *ckpt, *data, "--origin", "200", "--out", str(root / "out")],
        ]
        for argv in commands:
            # the CLI's messages go to stderr, so stdout keeps the digests alone
            with contextlib.redirect_stdout(sys.stderr):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"hsttn {argv[0]} exited {code}")
        for path in sorted(p for p in root.rglob("*") if p.is_file() and p.suffix != ".cfg"):
            out[f"cli/{path.relative_to(root).as_posix()}"] = sha(path.read_bytes())


def irregular_csv(path: Path) -> None:
    """Two turbines over 2,300 ten-minute slots and a third with an id above
    2**64 at two of them, in CRLF lines. Of the loader's blocks of 1,024
    lines, the first has empty and blank cells, a short row and blank and
    comma-only lines, the second only empty cells and a short row, the third
    the id above 2**64, the fourth a quoted cell whose line break runs into
    the fifth, which has quoted ids and an empty cell."""
    rng = np.random.default_rng(SEED)
    cells = []
    for t in range(2300):
        stamp = [str(1 + t // 144), f"{t % 144 // 6:02d}:{t % 6}0"]
        for tid in (1, 2, 2 ** 64 + 5) if t in (0, 1100) else (1, 2):
            values = rng.normal(size=3) * 10.0 ** rng.integers(-6, 6, size=3)
            cells.append([str(tid), *stamp, *map(repr, values.tolist())])
    cells[50][4] = cells[4400][5] = ""
    cells[51][3] = "  "
    cells[60] = cells[60][:4]
    cells[1500][5] = cells[1600][3] = ""
    cells[1700] = cells[1700][:5]
    # line 4097, the fourth block's last, once the three blank lines are in
    cells[4092][4] = f'"{cells[4092][4]}\r\n"'
    for row in cells[4300:4302]:
        row[0] = f'"{row[0]}"'
    lines = [",".join(row) for row in cells]
    for at, blank in ((900, " , ,"), (70, ",,,,,"), (40, "")):
        lines.insert(at, blank)
    path.write_bytes("\r\n".join(["TurbID,Day,Tmstamp,Wspd,Wdir,Patv", *lines, ""]).encode())


def loader_digests(out: dict) -> None:
    from hsttn.data import Schema, load_records

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "irregular.csv"
        irregular_csv(path)
        rs = load_records(path, Schema(channels=("Wspd", "Wdir", "Patv"), nacelle_direction=None))
    out["loader/values"] = sha(rs.values)
    out["loader/validity"] = sha(rs.validity)
    out["loader/turbine_ids"] = sha(repr(rs.turbine_ids))


def digests(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import hsttn

    print(f"hsttn from {Path(hsttn.__file__).parent}", file=sys.stderr)
    out: dict = {}
    model_digests(out)
    attend_digests(out)
    cli_digests(out)
    loader_digests(out)
    return out


def overall(table: dict) -> str:
    return sha("".join(f"{name} {digest}\n" for name, digest in table.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, default=None,
                        help="root of another source tree to compare with")
    parser.add_argument("--src", type=Path, default=SRC, help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    child = None
    if args.against is not None:
        other = (args.against / "src").resolve()
        if not (other / "hsttn").is_dir():
            parser.error(f"{args.against} has no src/hsttn")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        # the other tree's set runs beside this one's
        child = subprocess.Popen([sys.executable, __file__, "--src", str(other), "--json"],
                                 stdout=subprocess.PIPE, env=env, text=True)
    mine = digests(args.src.resolve())
    if args.json:
        print(json.dumps(mine))
        return 0
    if child is None:
        for name, digest in mine.items():
            print(f"{digest}  {name}")
        print(f"{overall(mine)}  overall ({len(mine)} arrays and artifacts)")
        return 0

    stdout, _ = child.communicate()
    if child.returncode != 0:
        print(f"the run on {args.against} exited {child.returncode}", file=sys.stderr)
        return 2
    theirs = json.loads(stdout.splitlines()[-1])
    differ = [k for k in {**mine, **theirs} if mine.get(k) != theirs.get(k)]
    for name in differ:
        print(f"differs: {name}" + ("" if name in mine and name in theirs
                                    else " (only in one tree)"))
    print(f"{len(differ)} of {len({**mine, **theirs})} arrays and artifacts differ; "
          f"overall {overall(mine)} here, {overall(theirs)} in {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
