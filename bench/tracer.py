"""Timing and counting wrappers installed around hsttn's public functions.

Nothing here edits hsttn: each wrapper replaces a function in every
`hsttn.*` module namespace that binds it, or a method on its class, and
`uninstall` puts the originals back. Two levels exist:

- `CallLog` times a few coarse calls (ingest, z-score, windows, validation
  passes, Adam steps, evaluation, checkpoints). It is installed in every
  run; it costs a few microseconds per call and there are at most a few
  hundred such calls per CLI command.
- `Tracer` additionally wraps every autodiff op, `attention`, the encoder
  and decoder layers, `HSTTN.forward`/`regress`, `GradTape` and `backward`.
  It attributes forward time, backward time, tape nodes and tape bytes to
  named scopes and ops. It runs only in the traced run.

Scopes come from parameter identity: an `attention` call whose `wq` is the
tensor named `enc.s0.l1.spa.wq` runs in scope `enc.s0.l1.spa`. Code inside
`HSTTN.forward` that is outside every layer, pooling, up-convolution and
head call (the input and decoder-entry embeddings) is scope `embed`; tape
nodes recorded outside any forward pass (the loss) are scope `loss`. A
`concat` whose output feeds a scoped call (skip and head concatenation,
the fusion block's input) is charged to that call's scope.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

perf = time.perf_counter


def _hsttn_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hsttn" or n.startswith("hsttn."))]


class Patcher:
    """Replaces functions and methods and remembers how to put them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, orig, wrapper) -> None:
        for mod in _hsttn_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name: str, make_wrapper) -> None:
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make_wrapper(orig))

    def restore(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


class CallLog:
    """(start, end, result) of each coarse call, keyed `module.function`.

    Results are kept only for `validation_loss` (a float); other calls
    keep None so no large object outlives its command.
    """

    CALLS = (
        ("training", "train"), ("training", "validation_loss"), ("training", "adam_step"),
        ("data", "load_records"), ("data", "mark_invalid"), ("data", "fit_zscore"),
        ("data", "apply_zscore"), ("data", "make_windows"),
        ("evaluation", "evaluate_model"), ("evaluation", "predict_window"),
        ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
    )
    KEEP_RESULT = {"training.validation_loss"}

    def __init__(self):
        self.spans: dict[str, list[tuple[float, float, object]]] = defaultdict(list)
        self._patcher = Patcher()

    def install(self) -> None:
        import importlib
        for module, name in self.CALLS:
            orig = getattr(importlib.import_module(f"hsttn.{module}"), name)
            self._patcher.function(orig, self._wrap(orig, f"{module}.{name}"))

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, orig, key: str):
        keep = key in self.KEEP_RESULT

        def wrapper(*args, **kwargs):
            t0 = perf()
            out = orig(*args, **kwargs)
            self.spans[key].append((t0, perf(), out if keep else None))
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def take(self) -> dict[str, list]:
        """Return the spans recorded so far and start a fresh record."""
        spans, self.spans = dict(self.spans), defaultdict(list)
        return spans


class Tracer:
    """Per-scope and per-op forward/backward time, calls, tape nodes and bytes.

    Forward times are self times: a frame's duration minus the durations of
    the frames nested in it, kept separately for scopes and for ops. Backward
    time is measured by wrapping each `TapeNode.rule` just before `backward`
    replays the tape; the time between one rule's end and the next rule's
    start (gradient accumulation into the inputs) goes to the earlier node,
    so per-scope backward times add up to the `backward` call's duration.
    """

    NOT_OPS = {"Tensor", "GradTape", "RngStream", "backward", "grad_check",
               "GradCheckReport"}

    def __init__(self):
        self._patcher = Patcher()
        self._scopes: list[list] = []   # open frames: [name, start, child seconds]
        self._ops: list[list] = []
        self._tapes: list = []
        self._owners = weakref.WeakKeyDictionary()  # tape -> (scope per node, op per node)
        self._param_names: dict[int, str] = {}
        self._glue: list[tuple] = []    # pending concat outputs: (tensor, tape, lo, hi, s, scope)
        self._taped_forward = False
        self.scope_fwd = defaultdict(float)
        self.scope_fwd_taped = defaultdict(float)
        self.scope_bwd = defaultdict(float)
        self.scope_nodes = defaultdict(int)
        self.scope_bytes = defaultdict(int)
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.op_nodes = defaultdict(int)
        self.mix_product_bytes = 0
        self.spans: list[tuple[str, float, float, str]] = []
        self.forwards: list[tuple[float, float, bool]] = []
        self.backwards: list[tuple[float, float]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from hsttn import autodiff, model

        scoped_ops = {"maxpool1d": lambda a, k: "pool",
                      "upconv1d": self._upconv_scope,
                      "pointwise_conv": self._fusion_scope}
        names = [n for n in autodiff.__all__ if n not in self.NOT_OPS]
        names += [n for n, v in vars(model).items()
                  if callable(v) and getattr(v, "__module__", "") == autodiff.__name__
                  and n not in self.NOT_OPS and n not in names and not isinstance(v, type)]
        for name in names:
            orig = getattr(autodiff, name)
            self._patcher.function(orig, self._wrap(orig, name, scoped_ops.get(name)))
        self._patcher.function(model.attention,
                               self._wrap(model.attention, None, self._attention_scope))
        for cls in (model.EncoderLayer, model.DecoderLayer):
            self._patcher.method(cls, "__call__",
                                 lambda orig: self._wrap(orig, None, self._layer_scope))
        self._patcher.method(model.HSTTN, "regress",
                             lambda orig: self._wrap(orig, None, lambda a, k: "head"))
        self._patcher.method(model.HSTTN, "forward", self._wrap_forward)
        self._patcher.method(autodiff.GradTape, "__enter__", self._wrap_enter)
        self._patcher.method(autodiff.GradTape, "__exit__", self._wrap_exit)
        self._patcher.function(autodiff.backward, self._wrap_backward(autodiff.backward))

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- scope names from parameter identity --------------------------------

    def _name(self, tensor) -> str | None:
        return self._param_names.get(id(tensor))

    def _attention_scope(self, args, kwargs) -> str:
        weights = args[2] if len(args) > 2 else kwargs["weights"]
        name = self._name(weights.wq)
        return name.rsplit(".", 1)[0] if name else "attention"

    def _layer_scope(self, args, kwargs) -> str:
        for value in vars(args[0]).values():
            name = self._name(getattr(value, "wq", value))
            if name:
                return ".".join(name.split(".")[:3])
        return "layer"

    def _upconv_scope(self, args, kwargs) -> str:
        name = self._name(args[1] if len(args) > 1 else kwargs["w"])
        return ".".join(name.split(".")[:2]) if name else "up"

    def _fusion_scope(self, args, kwargs) -> str | None:
        name = self._name(args[1] if len(args) > 1 else kwargs["w"])
        return name.rsplit(".", 1)[0] if name and ".cfb." in name else None

    # -- frames and tape-node ownership ---------------------------------------

    def _mark(self) -> None:
        """Give every node recorded since the last frame change to the
        innermost scope and op open during that interval."""
        if not self._tapes:
            return
        tape = self._tapes[-1]
        owners = self._owners.get(tape)
        if owners is None:
            return
        scopes, ops = owners
        missing = len(tape.nodes) - len(scopes)
        if missing > 0:
            scopes.extend([self._scopes[-1][0] if self._scopes else "loss"] * missing)
            ops.extend([self._ops[-1][0] if self._ops else "other"] * missing)

    def _push(self, stack: list, name: str) -> None:
        self._mark()
        stack.append([name, perf(), 0.0])

    def _pop(self, stack: list) -> tuple[str, float, float, float]:
        t1 = perf()
        self._mark()
        name, t0, child = stack.pop()
        if stack:
            stack[-1][2] += t1 - t0
        return name, t0, t1, t1 - t0 - child

    def _charge_scope(self, scope: str, seconds: float) -> None:
        self.scope_fwd[scope] += seconds
        if self._taped_forward:
            self.scope_fwd_taped[scope] += seconds

    def _claim_glue(self, scope: str, args) -> None:
        """Move a pending concat that feeds this call into its scope."""
        for entry in list(self._glue):
            out, tape, lo, hi, seconds, owner = entry
            if any(a is out for a in args):
                self._glue.remove(entry)
                self._charge_scope(owner, -seconds)
                self._charge_scope(scope, seconds)
                owners = self._owners.get(tape) if tape is not None else None
                if owners is not None:
                    owners[0][lo:hi] = [scope] * (hi - lo)

    def _tape_len(self):
        return (self._tapes[-1], len(self._tapes[-1].nodes)) if self._tapes else (None, 0)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, orig, op: str | None, scope_of=None):
        def wrapper(*args, **kwargs):
            scope = scope_of(args, kwargs) if scope_of is not None else None
            if scope is not None:
                self._claim_glue(scope, args)
                self._push(self._scopes, scope)
            if op is not None:
                if op == "mix":
                    w, v = args[0], args[1]
                    product = w.data.size * v.shape[-1] * w.data.itemsize
                    self.mix_product_bytes = max(self.mix_product_bytes, product)
                tape, lo = self._tape_len()
                self._push(self._ops, op)
            try:
                out = orig(*args, **kwargs)
            finally:
                if op is not None:
                    _, t0, t1, self_s = self._pop(self._ops)
                    self.op_fwd[op] += self_s
                    self.op_calls[op] += 1
                if scope is not None:
                    _, s0, s1, scope_self = self._pop(self._scopes)
                    self._charge_scope(scope, scope_self)
                    parent = self._scopes[-1][0] if self._scopes else ""
                    self.spans.append((scope, s0, s1, parent))
            if op == "concat" and self._scopes:
                hi = len(tape.nodes) if tape is not None else 0
                self._glue.append((out, tape, lo, hi, t1 - t0, self._scopes[-1][0]))
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _wrap_forward(self, orig):
        def forward(model, *args, **kwargs):
            self._param_names = {id(t): name for name, t in model.params.items()}
            outer, self._taped_forward = self._taped_forward, bool(self._tapes)
            self._push(self._scopes, "embed")
            try:
                return orig(model, *args, **kwargs)
            finally:
                _, t0, t1, self_s = self._pop(self._scopes)
                self._charge_scope("embed", self_s)
                # the span covers the whole forward; its self time is the embedding work
                self.spans.append(("embed", t0, t1, ""))
                self.forwards.append((t0, t1, self._taped_forward))
                self._taped_forward = outer
                self._glue.clear()

        return forward

    def _wrap_enter(self, orig):
        def __enter__(tape):
            out = orig(tape)
            self._mark()
            self._tapes.append(tape)
            self._owners[tape] = ([], [])
            return out

        return __enter__

    def _wrap_exit(self, orig):
        def __exit__(tape, *exc):
            self._mark()
            if self._tapes and self._tapes[-1] is tape:
                self._tapes.pop()
            return orig(tape, *exc)

        return __exit__

    def _wrap_backward(self, orig):
        def backward(loss, tape):
            self._mark()
            owners = self._owners.get(tape)
            if owners is None:
                return orig(loss, tape)
            scopes, ops = owners
            for node, scope, op in zip(tape.nodes, scopes, ops):
                self.scope_nodes[scope] += 1
                self.scope_bytes[scope] += node.output.data.nbytes
                self.op_nodes[op] += 1
            # running owner of the time since the last rule ended
            state = ["loss", "backward", 0.0]

            def timed(rule, scope, op):
                def run(g):
                    t = perf()
                    self._charge_bwd(state[0], state[1], t - state[2])
                    try:
                        return rule(g)
                    finally:
                        t_end = perf()
                        self._charge_bwd(scope, op, t_end - t)
                        state[:] = [scope, op, t_end]
                return run

            for node, scope, op in zip(tape.nodes, scopes, ops):
                node.rule = timed(node.rule, scope, op)
            t0 = state[2] = perf()
            try:
                return orig(loss, tape)
            finally:
                t1 = perf()
                self._charge_bwd(state[0], state[1], t1 - state[2])
                self.backwards.append((t0, t1))
                self.spans.append(("backward", t0, t1, ""))

        backward.__wrapped__ = orig
        return backward

    def _charge_bwd(self, scope: str, op: str, seconds: float) -> None:
        self.scope_bwd[scope] += seconds
        self.op_bwd[op] += seconds

    # -- summaries --------------------------------------------------------------

    def node_owners(self, tape) -> tuple[list[str], list[str]] | None:
        return self._owners.get(tape)

    @property
    def taped_windows(self) -> int:
        return sum(1 for _, _, taped in self.forwards if taped)
