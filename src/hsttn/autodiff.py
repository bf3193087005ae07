"""Minimal reverse-mode autodiff over dense float64 arrays.

Only the operations the forecasting model needs are implemented: batched
matrix products, multi-head attention along any axis as one op, ReLU,
channel-wise 1x1 convolution, temporal max-pooling, stride-expanding
transposed convolution, concatenation, dropout, broadcasting views, and a
few elementwise helpers.
Forward values live in numpy arrays; gradients are accumulated on
`Tensor.grad` by replaying a `GradTape` in reverse. The replay consumes
the tape: each node is dropped as its rule starts, and the arrays the
rule saved once it has run; only leaf tensors keep a gradient afterwards.

Sums run in the order their operands are stored. Turbine-permutation
equivariance holds bitwise because `attend` puts every attended sequence
into a canonical row order before it reduces over that sequence. `mix`
and `softmax_rows`, which instead accumulate in sorted order, are kept
only for the acceptance gate's gradient checks. Importing the module sets
numpy's OpenBLAS to one thread for the whole process (see `_WORKERS`).
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, OracleError, ShapeError

__all__ = [
    "Tensor",
    "GradTape",
    "RngStream",
    "add",
    "mul",
    "matmul",
    "mix",
    "attend",
    "reshape",
    "broadcast_to",
    "relu",
    "softmax_rows",
    "concat",
    "maxpool1d",
    "upconv1d",
    "dropout",
    "sum_all",
    "pointwise_conv",
    "backward",
    "grad_check",
    "GradCheckReport",
]


class RngStream:
    """Counter-based random stream: one seed, one reproducible sequence.

    Backed by Philox, so the draw sequence is identical across runs and
    platforms for a fixed seed. `child(salt)` derives an independent
    stream deterministically, which is how per-epoch shuffles and the
    dropout stream stay decoupled from parameter initialization.
    """

    def __init__(self, seed: int, _entropy: tuple[int, ...] | None = None):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self._entropy = _entropy if _entropy is not None else (self.seed,)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self._entropy)))

    def child(self, salt: int) -> "RngStream":
        return RngStream(self.seed, self._entropy + (int(salt),))

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def keep_mask(self, shape, keep_prob: float) -> np.ndarray:
        return self._gen.random(size=shape) < keep_prob

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


class Tensor:
    """Dense float64 array with optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size == 0:
            raise ShapeError(f"tensors must have positive dimensions, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


@dataclass
class TapeNode:
    output: Tensor
    inputs: tuple[Tensor, ...]
    rule: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]]


_TAPE_STACK: list["GradTape"] = []


class GradTape:
    """Execution-ordered op record. `backward` replays it in reverse once
    and consumes it: afterwards `nodes` is empty and `replayed` is set."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.replayed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False


def _op(data, inputs: Sequence[Tensor], rule) -> Tensor:
    """`data` as an op's output, which requires a gradient when any input
    does and is then recorded with its inputs and `rule` on the innermost
    open tape. `rule` must not refer to the output: `_replay` frees it."""
    out = Tensor(data, any(t.requires_grad for t in inputs))
    if _TAPE_STACK and out.requires_grad:
        _TAPE_STACK[-1].nodes.append(TapeNode(out, tuple(inputs), rule))
    return out


def backward(loss: Tensor, tape: GradTape) -> None:
    """Populate `grad` on every requires_grad leaf reachable from `loss`.

    The replay consumes the tape, popping and replaying one node at a
    time, so intermediate arrays and gradients are freed as it moves back
    through the graph; only tensors that no recorded op produced keep
    their `grad`. A second replay of the same tape raises `ContractError`.
    """
    if tape.replayed:
        raise ContractError("this tape has already been replayed; record the computation again")
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    tape.replayed = True
    loss.accumulate_grad(np.ones((), dtype=np.float64))
    while tape.nodes:
        _replay(tape.nodes.pop())


def _replay(node: TapeNode) -> None:
    """Run a node's rule and add its gradients to the node's inputs. The
    node is dropped first, and with it its output unless a caller holds
    it; the rule gets the only reference to the output's gradient, so it
    can free that as it runs (CPython 3.11+ moves call arguments)."""
    inputs, rule, pending = node.inputs, node.rule, [node.output.grad]
    node.output.grad = None
    del node
    if pending[0] is None:
        return
    for t, gi in zip(inputs, rule(pending.pop())):
        if gi is not None and t.requires_grad:
            t.accumulate_grad(gi)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _op(data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _op(data, (a, b), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D operands multiply normally; an n-D left operand
    against a 2-D right one contracts the last axis at every leading index;
    equal-rank stacked operands multiply slice by slice."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if b.ndim == 2:
        return _op(np.matmul(a.data, b.data), (a, b),
                   lambda g: (np.matmul(g, b.data.T), _weight_grad(a.data, g)))
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions disagree: {a.shape} x {b.shape}")

    def rule(g):
        ga = np.matmul(g, b.data.swapaxes(-1, -2))
        gb = np.matmul(a.data.swapaxes(-1, -2), g)
        return ga, gb

    return _op(np.matmul(a.data, b.data), (a, b), rule)


def mix(weights: Tensor, values: Tensor) -> Tensor:
    """`weights @ values` with order-independent accumulation.

    The contraction axis (last of `weights`, second-last of `values`) is
    summed in sorted order, so the result is bitwise invariant to
    permutations of that axis. It forms a (..., M, K, N) product array.
    The model does not use it (attention contracts with `matmul` over
    keys in canonical order); it stays because the acceptance gate
    grad-checks it.
    """
    if weights.ndim < 2 or values.ndim < 2:
        raise ShapeError(f"mix needs matrices, got shapes {weights.shape} and {values.shape}")
    if weights.ndim != values.ndim or weights.shape[:-2] != values.shape[:-2]:
        raise ShapeError(f"mix batch dimensions disagree: {weights.shape} x {values.shape}")
    if weights.shape[-1] != values.shape[-2]:
        raise ShapeError(f"mix inner dimensions disagree: {weights.shape} x {values.shape}")
    products = weights.data[..., :, :, None] * values.data[..., None, :, :]
    products.sort(axis=-2)

    def rule(g):
        gw = np.matmul(g, values.data.swapaxes(-1, -2))
        gv = np.matmul(weights.data.swapaxes(-1, -2), g)
        return gw, gv

    return _op(products.sum(axis=-2), (weights, values), rule)


# score elements `attend` computes at a time, in whole sequences and at least
# one; no size from 2**14 to 2**18 beat 2**16 (one paper-scale sequence,
# 0.5 MiB) on a paper-scale training step
_CHUNK_SCORES = 2**16


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`np.tensordot(a, g)` over all but the last axis, bitwise: in its own layout."""
    return np.matmul(a.transpose((a.ndim - 1, *range(a.ndim - 1))).reshape(a.shape[-1], -1),
                     g.reshape(-1, g.shape[-1]))


def _key_order(keys: np.ndarray) -> np.ndarray:
    """`np.lexsort` of each (L, d) sequence's float64 bits: a stable sort of the
    last feature, the full sort only for the sequences that tie in it."""
    bits = keys.view(np.int64)
    order = bits[..., -1].argsort(axis=-1, kind="stable")
    last = np.sort(bits[..., -1], axis=-1)
    tied = (last[..., 1:] == last[..., :-1]).any(axis=-1)
    if tied.any():
        order[tied] = np.lexsort(np.moveaxis(bits[tied], -1, 0), axis=-1)
    return order


def _chunks(n_seqs: int, scores_per_seq: int) -> list[slice]:
    """Slices that cover `n_seqs` sequences in runs of whole sequences, as
    many as fit in `_CHUNK_SCORES` score elements and at least one; one
    slice of all of them when all fit."""
    step = max(1, min(n_seqs, _CHUNK_SCORES // scores_per_seq))
    return [slice(s, s + step) for s in range(0, n_seqs, step)]


# threads that run `attend`'s chunks: the calling one and `_WORKERS - 1` of `_pool`
_WORKERS = 2
_pool = None  # a ThreadPoolExecutor from the first call of more than one chunk
# a forked child has none of its parent's pooled threads: it makes its own pool
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))
# once per process, the OpenBLAS that numpy's wheel ships runs on one thread: the
# bits of some products, such as a (32, 3216) @ (3216, 16) weight gradient,
# depend on its thread count, which defaults to the core count, and more than
# one would compete with `_pool`'s. Any other BLAS build is left as it is.
for _lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
    try:
        ctypes.CDLL(str(_lib)).scipy_openblas_set_num_threads64_(1)
    except (OSError, AttributeError):
        pass


def _run_chunks(fn: Callable[[slice], None], chunks: list[slice]) -> None:
    """`fn(ix)` for every chunk, on up to `_WORKERS` threads: the caller runs
    the first share of the chunks and the pool the rest, each chunk in a
    copy of the caller's context, which holds numpy's `errstate`. Every
    chunk writes only its own slices, so the results are the serial loop's
    bitwise; the first error in chunk order is raised once all have ended."""
    global _pool
    if _WORKERS < 2 or len(chunks) < 2:
        for ix in chunks:
            fn(ix)
        return
    # imported on first use: with the logging it brings, about 10 ms of every start
    from concurrent.futures import ThreadPoolExecutor, wait
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="hsttn-attend")
    head = -(-len(chunks) // _WORKERS)
    futures = [_pool.submit(contextvars.copy_context().run, fn, ix) for ix in chunks[head:]]
    try:
        for ix in chunks[:head]:
            fn(ix)
    finally:
        wait(futures)  # no pooled thread still writes into the caller's arrays
    for future in futures:
        future.result()


def attend(query: Tensor, keys: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
           n_heads: int, axis: int = -2, probs: list | None = None) -> Tensor:
    """Multi-head scaled dot-product attention with its output projection
    `wo`, as one op. Sequences run along `axis`: each index of the other
    leading axes holds a query sequence (Lq, d) and a key/value sequence
    (Lk, d), and the result is the query's shape with `wo`'s width.

    The op swaps `axis` with the last-but-one as a view, computes in that
    sequence layout and swaps the result and the input gradients back.
    The key/value rows are gathered into a canonical order, a
    lexicographic sort of their float64 bit patterns, so rows tie only
    when bitwise identical and every sum over keys runs in one order
    however the caller numbered them. The forward projects q = query @ wq
    / sqrt(dk), k = rows @ wk and v = rows @ wv, and views each as
    (sequences, heads, L, width): the other leading axes become one axis
    of independent sequences. It then runs a slice of a few whole
    sequences at a time (`_chunks`, shared among threads by `_run_chunks`),
    turning each chunk's scores q @ k^T
    into probabilities in place, so one chunk of (heads, Lq, Lk) scores
    exists at a time and stays in cache. The op keeps its inputs, the key
    order, the heads' contexts and each score row's max and normaliser; its
    backward rebuilds the rows, q, k, v and, chunk by chunk, the probabilities
    with the forward's own calls, so bitwise. A `probs` list receives the
    probabilities in sequence layout, scattered back like the keys' gradient.
    """
    nd = query.ndim
    fits = nd >= 2 and keys.ndim == nd and axis != -1 and axis in range(-nd, nd - 1)
    x_query, x_keys = (t.data.swapaxes(axis, -2) if fits else t.data for t in (query, keys))
    lead = x_query.shape[:-2]
    if not fits or x_keys.shape[:-2] != lead:
        raise ShapeError(f"attention along axis {axis} needs (..., L, d) inputs with the same "
                         f"leading axes, got {query.shape} and {keys.shape}")
    if (wq.ndim != 2 or wq.shape != wk.shape or wv.ndim != 2 or wq.shape[0] != wv.shape[0]
            or wq.shape[1] % n_heads or wv.shape[1] % n_heads
            or wo.ndim != 2 or wo.shape[0] != wv.shape[1]):
        raise ShapeError(f"attention weights {wq.shape}, {wk.shape}, {wv.shape}, {wo.shape} "
                         f"do not split into {n_heads} heads")
    if query.shape[-1] != wq.shape[0] or keys.shape[-1] != wq.shape[0]:
        raise ShapeError(f"attention inputs {query.shape} and {keys.shape} do not match "
                         f"weights {wq.shape}")
    c = 1.0 / math.sqrt(wq.shape[1] // n_heads)

    def split_heads(a: np.ndarray) -> np.ndarray:
        """(..., L, heads * width) -> (sequences, heads, L, width), a view
        of the C-contiguous `a`."""
        return a.reshape(-1, a.shape[-2], n_heads, a.shape[-1] // n_heads).swapaxes(1, 2)

    def merge_heads(a: np.ndarray) -> np.ndarray:
        return a.swapaxes(-3, -2).reshape(lead + (-1, n_heads * a.shape[-1]))

    def project():
        """The gathered rows and the q, k and v heads, the same bits each call."""
        rows = x_keys[at]
        q_proj = np.matmul(x_query, wq.data)
        q_proj *= c
        return rows, *(split_heads(a) for a in (q_proj, np.matmul(rows, wk.data),
                                                np.matmul(rows, wv.data)))

    order = _key_order(x_keys)
    at = (*(i[..., None] for i in np.indices(lead, sparse=True)), order)
    rows, q, k, v = project()
    chunks = _chunks(len(q), q.shape[1] * q.shape[2] * k.shape[2])
    # each chunk's results go into arrays laid out as the whole products' are
    ctx, peak, norm = (np.empty(q.shape[:-1] + (n,)) for n in (v.shape[-1], 1, 1))
    if probs is not None:
        seq_probs = np.empty(q.shape[:-1] + k.shape[2:3])
        probs.append(seq_probs.reshape(lead + seq_probs.shape[1:]))
        seq_order = order.reshape(-1, 1, 1, k.shape[2])

    def forward_chunk(ix):
        p = np.matmul(q[ix], k[ix].swapaxes(-1, -2))
        peak[ix], norm[ix] = _softmax_in_place(p)
        if probs is not None:
            # column j belongs to key order[j]: scatter it back to that column
            np.put_along_axis(seq_probs[ix], seq_order[ix], p, axis=-1)
        ctx[ix] = np.matmul(p, v[ix])
        del p  # before the next chunk's scores, which can then reuse its memory

    _run_chunks(forward_chunk, chunks)
    ctx = merge_heads(ctx)
    # self-attention along a swapped axis gives its input one gradient, the
    # query's plus the keys', the sum order that checkpoints were trained in
    merged = query is keys and axis % nd != nd - 2

    def rule(g):
        # Each product runs on the same array layouts as in the forward, and
        # the rows' gradient adds the v path before the k path: another
        # layout or order changes the last bits of every trained checkpoint.
        nonlocal ctx
        g = g.swapaxes(axis, -2)
        g_ctx = np.matmul(g, wo.data.T)
        g_wo = _weight_grad(ctx, g)
        del g, ctx  # each the size of the output, freed before the attention products
        rows, q, k, v = project()
        g_ctx = split_heads(g_ctx)
        # laid out as the whole products were; g_k as the transpose of q^T @ g_p
        g_q, g_v = np.empty(q.shape), np.empty(v.shape)
        g_k = np.empty(k.shape[:-2] + (k.shape[-1], k.shape[-2])).swapaxes(-1, -2)

        def backward_chunk(ix):
            p = np.matmul(q[ix], k[ix].swapaxes(-1, -2))
            _softmax_in_place(p, (peak[ix], norm[ix]))
            g_v[ix] = np.matmul(p.swapaxes(-1, -2), g_ctx[ix])
            g_p = _softmax_grad_in_place(np.matmul(g_ctx[ix], v[ix].swapaxes(-1, -2)), p)
            g_q[ix] = np.matmul(g_p, k[ix])
            g_k[ix] = np.matmul(q[ix].swapaxes(-1, -2), g_p).swapaxes(-1, -2)
            del p, g_p

        _run_chunks(backward_chunk, chunks)
        del q, k, v  # before the input gradients: about a quarter off a paper-scale peak
        g_v, g_k = merge_heads(g_v), merge_heads(g_k)
        g_rows = np.matmul(g_v, wv.data.T)
        g_wv = _weight_grad(rows, g_v)
        g_rows += np.matmul(g_k, wk.data.T)
        g_wk = _weight_grad(rows, g_k)
        g_q = merge_heads(g_q) * c
        g_query = np.matmul(g_q, wq.data.T)
        g_wq = _weight_grad(x_query, g_q)
        g_keys = np.empty_like(g_rows)
        g_keys[at] = g_rows
        if merged:
            g_query, g_keys = g_query + g_keys, None
        else:
            g_keys = g_keys.swapaxes(axis, -2)
        return g_query.swapaxes(axis, -2), g_keys, g_wq, g_wk, g_wv, g_wo

    return _op(np.matmul(ctx, wo.data).swapaxes(axis, -2),
               (query, keys, wq, wk, wv, wo), rule)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    return _op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """`a` repeated over new leading axes and along axes of length 1, as a
    read-only view: no arithmetic, so every value, signed zeros included,
    is kept bitwise. The gradient sums over the repeated axes. A `shape`
    equal to `a.shape` returns `a` itself and records nothing."""
    shape = tuple(shape)
    if shape == a.shape:
        return a
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from None
    return _op(data, (a,), lambda g: (_unbroadcast(g, a.shape),))


def relu(a: Tensor) -> Tensor:
    # gradient at exactly zero is defined as zero
    mask = a.data > 0.0
    return _op(np.maximum(a.data, 0.0), (a,), lambda g: (g * mask,))


def _softmax_in_place(s: np.ndarray, stats=None):
    """Overwrite scores `s` with their stable softmax over the last axis
    and return each row's (max, normaliser). Given the `stats` of an
    earlier call on the same scores, it reproduces that call's output
    bitwise without summing again."""
    peak = s.max(axis=-1, keepdims=True) if stats is None else stats[0]
    s -= peak
    np.exp(s, out=s)
    if stats is None:
        stats = peak, s.sum(axis=-1, keepdims=True)
    s /= stats[1]
    return stats


def _softmax_grad_in_place(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Overwrite `g`, a gradient with respect to softmax outputs `p`, with
    the gradient with respect to the scores."""
    g -= (g * p).sum(axis=-1, keepdims=True)
    g *= p
    return g


def softmax_rows(a: Tensor) -> Tensor:
    """Stable softmax over the last axis whose normaliser sums each row in
    sorted order, so each output row is bitwise invariant to reordering
    the row's entries. The model's attention (`attend`) sums over keys in
    canonical order instead; this stays because the acceptance gate
    grad-checks it.
    """
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError(f"softmax_rows needs a non-empty last axis, got shape {a.shape}")
    y = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y /= np.sort(y, axis=-1).sum(axis=-1, keepdims=True)
    return _op(y, (a,), lambda g: (_softmax_grad_in_place(g.copy(), y),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    if len(tensors) == 1:
        return tensors[0]
    first = tensors[0]
    axis = axis % first.ndim
    for t in tensors[1:]:
        if t.ndim != first.ndim or any(
            i != axis and t.shape[i] != first.shape[i] for i in range(first.ndim)
        ):
            raise ShapeError(
                f"concat along axis {axis} needs matching off-axis shapes, "
                f"got {[t.shape for t in tensors]}"
            )
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def rule(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tensors, rule)


def maxpool1d(x: Tensor, p: int) -> Tensor:
    """Max over non-overlapping windows of `p` steps along the second-last
    axis; gradient routes to the first occurrence of each window maximum."""
    if p < 1:
        raise ConfigError(f"pooling factor must be positive, got {p}")
    if x.ndim < 2:
        raise ShapeError(f"maxpool1d needs at least 2 dims, got shape {x.shape}")
    length = x.shape[-2]
    if length % p != 0:
        raise ConfigError(f"sequence length {length} is not divisible by pooling factor {p}")
    if p == 1:
        return x
    windows = x.data.reshape(x.shape[:-2] + (length // p, p, x.shape[-1]))
    idx = windows.argmax(axis=-2)

    def rule(g):
        gw = np.zeros_like(windows)
        np.put_along_axis(gw, idx[..., None, :], g[..., None, :], axis=-2)
        return (gw.reshape(x.shape),)

    return _op(windows.max(axis=-2), (x,), rule)


def upconv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Transposed convolution along the second-last axis with kernel width
    equal to stride: every input step emits `factor` consecutive output
    steps, so length L maps to L*factor with no overlap."""
    if w.ndim != 3:
        raise ShapeError(f"upconv1d kernel must be (factor, d_in, d_out), got {w.shape}")
    factor, d_in, d_out = w.shape
    if x.ndim < 2 or x.shape[-1] != d_in:
        raise ShapeError(f"upconv1d input {x.shape} does not match kernel {w.shape}")
    if b.shape != (d_out,):
        raise ShapeError(f"upconv1d bias must be ({d_out},), got {b.shape}")
    length = x.shape[-2]
    steps = np.einsum("...ld,fdo->...lfo", x.data, w.data)
    data = steps.reshape(x.shape[:-2] + (length * factor, d_out)) + b.data

    def rule(g):
        gv = g.reshape(x.shape[:-2] + (length, factor, d_out))
        gx = np.einsum("...lfo,fdo->...ld", gv, w.data)
        gw = np.einsum("bld,blfo->fdo", x.data.reshape(-1, length, d_in),
                       gv.reshape(-1, length, factor, d_out))
        gb = g.reshape(-1, d_out).sum(axis=0)
        return gx, gw, gb

    return _op(data, (x, w, b), rule)


def dropout(x: Tensor, rate: float, training: bool, rng: RngStream | None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate). Identity when not training or rate is zero."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout in training mode needs an RngStream")
    keep = rng.keep_mask(x.shape, 1.0 - rate)
    # the rule keeps the boolean mask, an eighth of the float factor's bytes
    return _op(x.data * (keep.astype(np.float64) / (1.0 - rate)), (x,),
               lambda g: (g * (keep.astype(np.float64) / (1.0 - rate)),))


def sum_all(a: Tensor) -> Tensor:
    return _op(np.sum(a.data), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def pointwise_conv(x: Tensor, w: Tensor, b: Tensor, activation: bool = True) -> Tensor:
    """1x1 convolution over channels: the same affine map applied at every
    position of the leading axes, optionally followed by ReLU."""
    if w.ndim != 2:
        raise ShapeError(f"pointwise_conv weight must be 2-D, got {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"pointwise_conv channel mismatch: input {x.shape} vs weight {w.shape}"
        )
    if b.shape != (w.shape[1],):
        raise ShapeError(f"pointwise_conv bias must be ({w.shape[1]},), got {b.shape}")
    y = add(matmul(x, w), b)
    return relu(y) if activation else y


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    n_elements: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued `f` at `x` against
    central finite differences. Relative error uses max(|analytic|,
    |numeric|, 1) as denominator so near-zero gradients are judged on
    absolute error."""
    probe = Tensor(x.data.copy(), requires_grad=True)
    with GradTape() as tape:
        y = f(probe)
    if y.data.shape != ():
        raise ContractError(f"grad_check needs a scalar-valued function, got shape {y.data.shape}")
    if not np.isfinite(y.data):
        raise OracleError("grad_check: function value is not finite at x")
    backward(y, tape)
    analytic = probe.grad if probe.grad is not None else np.zeros(x.shape)

    base = x.data.copy()
    numeric = np.zeros_like(base)
    flat_base = base.reshape(-1)
    flat_num = numeric.reshape(-1)
    for i in range(flat_base.size):
        saved = flat_base[i]
        flat_base[i] = saved + eps
        fp = f(Tensor(base)).data
        flat_base[i] = saved - eps
        fm = f(Tensor(base)).data
        flat_base[i] = saved
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleError(f"grad_check: non-finite value at perturbed element {i}")
        flat_num[i] = (fp - fm) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel = np.abs(analytic - numeric) / denom
    max_rel = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(max_rel_error=max_rel, tol=tol, n_elements=base.size)
