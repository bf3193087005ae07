"""Hourglass spatial-temporal transformer for farm-level power forecasting.

The encoder embeds the raw channel grid, runs stacks of residual layers
that attend along time (per turbine) and across turbines (per timestep),
and max-pools the temporal axis between stacks to form a pyramid of
coarser scales. The decoder starts from the embedding of a zero-feature
future grid, which carries only time positions and turbine identity, runs
mirrored layers with cross-attention into the same-scale encoder outputs, and restores
finer scales with stride-expanding up-convolutions, optionally merging
same-scale encoder outputs through skip concatenation. The original-scale
encoder and decoder outputs are concatenated channel-wise and regressed
to one power value per turbine per future step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .autodiff import (
    RngStream,
    Tensor,
    add,
    attend,
    broadcast_to,
    concat,
    dropout,
    matmul,
    maxpool1d,
    pointwise_conv,
    relu,
    reshape,
    upconv1d,
)
from .errors import ConfigError, ContractError, ShapeError

_VARIANT_EDITS = {
    "hsttn": dict(pool_factors=(3, 2), use_skip=True, use_temporal_branch=True,
                  use_spatial_branch=True, use_cfb=True),
    "sttn": dict(pool_factors=()),
    "2sttn": dict(pool_factors=(3,)),
    "4sttn": dict(pool_factors=(3, 2, 2)),
    "noskip": dict(use_skip=False),
    "t_only": dict(use_spatial_branch=False),
    "s_only": dict(use_temporal_branch=False),
    "st_only": dict(use_cfb=False),
}
VARIANT_NAMES = tuple(_VARIANT_EDITS)


@dataclass(frozen=True)
class ModelConfig:
    n_turbines: int
    n_channels: int
    history_len: int = 144
    horizon_len: int = 144
    d_model: int = 16
    n_heads: int = 2
    d_k: Optional[int] = None
    d_v: Optional[int] = None
    pool_factors: tuple[int, ...] = (3, 2)
    layers_encoder: int = 2
    layers_decoder: int = 1
    dropout_rate: float = 0.1
    use_skip: bool = True
    use_temporal_branch: bool = True
    use_spatial_branch: bool = True
    use_cfb: bool = True

    def __post_init__(self):
        for name in ("n_turbines", "history_len", "horizon_len", "n_channels", "d_model",
                     "n_heads", "layers_encoder", "layers_decoder"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("d_k", "d_v"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive or None, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if not self.use_temporal_branch and not self.use_spatial_branch:
            raise ConfigError("at least one of the temporal/spatial branches must be enabled")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.history_len != self.horizon_len:
            raise ConfigError(
                f"history_len={self.history_len} must equal horizon_len={self.horizon_len}: "
                "the regression head concatenates original-scale encoder and decoder outputs"
            )
        running = 1
        for p in self.pool_factors:
            if p < 1:
                raise ConfigError(f"pooling factors must be positive, got {self.pool_factors}")
            running *= p
            if self.history_len % running != 0:
                raise ConfigError(
                    f"history_len={self.history_len} is not divisible by the cumulative "
                    f"pooling factor {running} (factors {self.pool_factors})"
                )

    @property
    def head_dim_k(self) -> int:
        return self.d_k if self.d_k is not None else self.d_model // self.n_heads

    @property
    def head_dim_v(self) -> int:
        return self.d_v if self.d_v is not None else self.d_model // self.n_heads

    @property
    def fused(self) -> bool:
        """Both branches active and joined by the contextual fusion block."""
        return self.use_cfb and self.use_temporal_branch and self.use_spatial_branch

    @property
    def branch_names(self) -> tuple[str, ...]:
        if self.fused:
            return ("st",)
        names = []
        if self.use_temporal_branch:
            names.append("tem")
        if self.use_spatial_branch:
            names.append("spa")
        return tuple(names)

    @property
    def n_scales(self) -> int:
        return len(self.pool_factors) + 1

    @property
    def scale_lengths(self) -> tuple[int, ...]:
        lengths = [self.history_len]
        for p in self.pool_factors:
            lengths.append(lengths[-1] // p)
        return tuple(lengths)


def variant_config(base: ModelConfig, name: str) -> ModelConfig:
    """Structural ablations expressed as config edits of a base model."""
    if name not in _VARIANT_EDITS:
        raise ConfigError(f"unknown variant {name!r}, expected one of {VARIANT_NAMES}")
    return replace(base, **_VARIANT_EDITS[name])


def sinusoid_table(length: int, width: int) -> np.ndarray:
    """Fixed sin/cos position table over absolute time indices."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = (width + 1) // 2
    freq = np.power(10000.0, -2.0 * np.arange(half, dtype=np.float64) / width)
    angles = pos * freq[None, :]
    table = np.zeros((length, width), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : width // 2])
    return table


class ModelParameters:
    """Named tensor store. The code that uses a tensor declares it through
    `glorot`, `zeros` or `buffer`, which create it, register it under its
    name and return it; declaration order is the order of the Philox draws
    and of the checkpoint arrays."""

    def __init__(self, rng: RngStream):
        self._rng = rng
        self._tensors: dict[str, Tensor] = {}

    def _register(self, name: str, array: np.ndarray, requires_grad: bool) -> Tensor:
        t = self._tensors[name] = Tensor(array, requires_grad=requires_grad)
        return t

    def glorot(self, name: str, shape: tuple[int, ...]) -> Tensor:
        """Trainable, uniform in +-sqrt(6 / (fan_in + fan_out)); the last axis
        is fan-out, the others fan-in."""
        limit = math.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
        return self._register(name, self._rng.uniform(shape, -limit, limit), True)

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, np.zeros(shape, dtype=np.float64), True)

    def buffer(self, name: str, array: np.ndarray) -> Tensor:
        """Stored and checkpointed, never trained."""
        return self._register(name, array, False)

    def items(self):
        return self._tensors.items()

    def trainable(self) -> dict[str, Tensor]:
        return {k: t for k, t in self._tensors.items() if t.requires_grad}

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._tensors.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self._tensors):
            missing = set(self._tensors) - set(arrays)
            extra = set(arrays) - set(self._tensors)
            raise ContractError(
                f"parameter names do not match this architecture "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        for name, t in self._tensors.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ContractError(
                    f"parameter {name!r} has shape {arr.shape}, expected {t.data.shape}"
                )
            t.data = arr.copy()


@dataclass
class ScaleTrace:
    """Observable record of one forward pass: per-scale sequence lengths and
    (optionally) attention weights per call in its sequence layout, keys in the
    caller's order: (W, N, heads, L, L) for `tem`, (W, L, heads, N, N) for `spa`."""

    collect_probs: bool = False
    encoder_lengths: list[int] = field(default_factory=list)
    decoder_lengths: list[int] = field(default_factory=list)
    attention_probs: list[np.ndarray] = field(default_factory=list)

    def reset(self) -> None:
        self.encoder_lengths.clear()
        self.decoder_lengths.clear()
        self.attention_probs.clear()


@dataclass
class AttentionWeights:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    @classmethod
    def declare(cls, store: ModelParameters, prefix: str, cfg: ModelConfig
                ) -> "AttentionWeights":
        d, qk, v = cfg.d_model, cfg.n_heads * cfg.head_dim_k, cfg.n_heads * cfg.head_dim_v
        return cls(store.glorot(f"{prefix}.wq", (d, qk)), store.glorot(f"{prefix}.wk", (d, qk)),
                   store.glorot(f"{prefix}.wv", (d, v)), store.glorot(f"{prefix}.wo", (v, d)))


# The axis of a turbine-major (..., N, L, d) map that each branch attends
# along: time within each turbine, or turbines within each timestep.
_AXIS = {"tem": -2, "spa": -3}


def attention(
    query_seqs: Tensor,
    kv_seqs: Tensor,
    weights: AttentionWeights,
    n_heads: int,
    trace: ScaleTrace | None = None,
    branch: str = "tem",
) -> Tensor:
    """Scaled dot-product attention with `n_heads` heads along the
    sequences of `branch`, output projection included: in a turbine-major
    (..., N, L, d) map, `tem` attends along time within each turbine (axis
    -2) and `spa` along turbines within each timestep (axis -3). Queries
    attend to the keys/values of `kv_seqs` at the same index of the other
    axes. It is one fused op, `autodiff.attend`, which sums over keys
    in a canonical order of the key/value rows (a sort of their float64
    bit patterns): permuting the key/value rows leaves the output bitwise
    unchanged, and permuting the query rows permutes it. A trace that
    collects probabilities records them in the call's sequence layout.
    """
    probs = trace.attention_probs if trace is not None and trace.collect_probs else None
    return attend(query_seqs, kv_seqs, weights.wq, weights.wk, weights.wv, weights.wo,
                  n_heads, _AXIS[branch], probs)


def _fuse_maps(spa_map: Tensor, tem_map: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Contextual fusion block: concatenate the two turbine-major (..., N, L, d)
    branch maps along channels (spatial block first) and squeeze them back
    to d channels with a 1x1 conv and ReLU."""
    return pointwise_conv(concat([spa_map, tem_map], axis=-1), w, b, activation=True)


# The branches that update each state map: the fused model keeps one map
# that both branches read and the fusion block joins; the unfused variants
# keep one map per branch.
_BRANCHES = {"st": ("tem", "spa"), "tem": ("tem",), "spa": ("spa",)}


def _residual(m: Tensor, maps: list[Tensor], fuse: tuple[Tensor, Tensor] | None) -> Tensor:
    """Add a layer's branch output to its input, joining the temporal and
    spatial maps through the fusion block first when the layer has one."""
    joined = maps[0] if fuse is None else _fuse_maps(maps[1], maps[0], *fuse)
    return add(joined, m)


def _declare_fusion(store: ModelParameters, prefix: str, cfg: ModelConfig
                    ) -> tuple[Tensor, Tensor] | None:
    """The fusion block's 1x1 conv from 2d to d channels, if the layer has one."""
    if not cfg.fused:
        return None
    d = cfg.d_model
    return store.glorot(f"{prefix}.cfb.w", (2 * d, d)), store.zeros(f"{prefix}.cfb.b", (d,))


class EncoderLayer:
    """Residual layer: branch attentions, contextual fusion, add input."""

    def __init__(self, store: ModelParameters, prefix: str, cfg: ModelConfig):
        self.cfg = cfg
        if cfg.use_temporal_branch:
            self.tem = AttentionWeights.declare(store, f"{prefix}.tem", cfg)
        if cfg.use_spatial_branch:
            self.spa = AttentionWeights.declare(store, f"{prefix}.spa", cfg)
        self.fuse = _declare_fusion(store, prefix, cfg)

    def __call__(self, state: dict[str, Tensor], trace: ScaleTrace | None = None
                 ) -> dict[str, Tensor]:
        out = {}
        for key, m in state.items():
            maps = [attention(m, m, getattr(self, branch), self.cfg.n_heads, trace, branch)
                    for branch in _BRANCHES[key]]
            out[key] = _residual(m, maps, self.fuse)
        return out


class DecoderLayer:
    """Mirrors the encoder layer with an extra cross-attention into the
    same-scale encoder output; the cross path is residual, so a zero
    encoder contribution degrades the layer to encoder-layer behavior."""

    def __init__(self, store: ModelParameters, prefix: str, cfg: ModelConfig):
        self.cfg = cfg
        if cfg.use_temporal_branch:
            self.tem_self = AttentionWeights.declare(store, f"{prefix}.tem.self", cfg)
            self.tem_cross = AttentionWeights.declare(store, f"{prefix}.tem.cross", cfg)
        if cfg.use_spatial_branch:
            self.spa_self = AttentionWeights.declare(store, f"{prefix}.spa.self", cfg)
            self.spa_cross = AttentionWeights.declare(store, f"{prefix}.spa.cross", cfg)
        self.fuse = _declare_fusion(store, prefix, cfg)

    def __call__(self, state: dict[str, Tensor], enc_state: dict[str, Tensor],
                 trace: ScaleTrace | None = None) -> dict[str, Tensor]:
        n_heads = self.cfg.n_heads
        out = {}
        for key, m in state.items():
            enc = enc_state[key]
            if m.shape != enc.shape:
                raise ContractError(
                    f"branch {key!r}: decoder map {m.shape} and encoder map {enc.shape} "
                    "differ in shape"
                )
            maps = []
            for branch in _BRANCHES[key]:
                s = attention(m, m, getattr(self, f"{branch}_self"), n_heads, trace, branch)
                c = attention(s, enc, getattr(self, f"{branch}_cross"), n_heads, trace, branch)
                maps.append(add(c, s))
            out[key] = _residual(m, maps, self.fuse)
        return out


class HSTTN:
    """The assembled forecaster. `forward` maps (..., N, H, C) history
    grids to (..., N, F, 1) power predictions; leading axes hold
    independent windows, so one pass serves a whole batch."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = cfg = config
        self.params = p = ModelParameters(RngStream(seed).child(0))
        d = cfg.d_model
        self.embed_w = p.glorot("embed.w", (cfg.n_channels, d))
        self.embed_b = p.zeros("embed.b", (d,))
        self.turbine_table = p.glorot("turbine_table", (cfg.n_turbines, d))
        self.pos_table = p.buffer("pos_table",
                                  sinusoid_table(cfg.history_len + cfg.horizon_len, d))
        self.enc_layers = [[EncoderLayer(p, f"enc.s{s}.l{l}", cfg)
                            for l in range(cfg.layers_encoder)] for s in range(cfg.n_scales)]
        self.dec_layers = [[DecoderLayer(p, f"dec.s{s}.l{l}", cfg)
                            for l in range(cfg.layers_decoder)] for s in range(cfg.n_scales)]
        # one up-convolution per scale transition t (scale t+1 -> t) and state map
        up_in = 2 * d if cfg.use_skip else d
        self.up = [{key: (p.glorot(f"up.t{t}.{key}.w", (factor, up_in, d)),
                          p.zeros(f"up.t{t}.{key}.b", (d,))) for key in cfg.branch_names}
                   for t, factor in enumerate(cfg.pool_factors)]
        self.head_w = p.glorot("head.w", (2 * d, 1))
        self.head_b = p.zeros("head.b", (1,))

    def _embed(self, features: Tensor, positions: np.ndarray) -> Tensor:
        """Attach time positions and turbine identity to embedded features:
        (..., N, L, d) from the history, or one (d,) vector for every future
        step."""
        cfg = self.config
        f = add(features, Tensor(self.pos_table.data[positions]))
        turb = reshape(self.turbine_table, (cfg.n_turbines, 1, cfg.d_model))
        return add(f, turb)

    def _decoder_entry(self) -> Tensor:
        """The embedding of an all-zero future grid. The 1x1 conv of zeros is
        its bias, so the entry depends on the parameters alone."""
        cfg = self.config
        future = np.arange(cfg.history_len, cfg.history_len + cfg.horizon_len)
        return self._embed(relu(self.embed_b), future)

    def forward(self, x: Tensor, training: bool = False, rng: RngStream | None = None,
                trace: ScaleTrace | None = None) -> Tensor:
        """(..., N, H, C) histories to (..., N, F, 1) predictions. Each index
        of the leading axes is one window, computed bitwise as if alone;
        dropout draws the windows' masks in order, as consecutive
        single-window forwards would."""
        cfg = self.config
        if x.shape[-3:] != (cfg.n_turbines, cfg.history_len, cfg.n_channels):
            raise ShapeError(
                f"expected history of shape (..., {cfg.n_turbines}, {cfg.history_len}, "
                f"{cfg.n_channels}), got {x.shape}"
            )
        if trace is None:
            trace = ScaleTrace()
        else:
            trace.reset()

        history = pointwise_conv(x, self.embed_w, self.embed_b)
        state = dict.fromkeys(cfg.branch_names, self._embed(history, np.arange(cfg.history_len)))
        n_transitions = len(cfg.pool_factors)
        skips = []  # the encoder output at every scale
        for s in range(cfg.n_scales):
            for layer in self.enc_layers[s]:
                state = layer(state, trace)
            trace.encoder_lengths.append(next(iter(state.values())).shape[-2])
            skips.append(state)
            if s < n_transitions:
                state = {k: maxpool1d(m, cfg.pool_factors[s]) for k, m in state.items()}

        # pooled once per state map: one shared pooled tensor would sum the
        # two unfused maps' gradients in another order, changing last bits.
        # The pooled entry is the same for every window; it is broadcast to
        # the windows' leading axes as a view, without arithmetic.
        entry = self._decoder_entry()
        dstate = {}
        for k in cfg.branch_names:
            pooled = maxpool1d(entry, math.prod(cfg.pool_factors))
            dstate[k] = broadcast_to(pooled, x.shape[:-3] + pooled.shape)

        for s in range(cfg.n_scales - 1, -1, -1):
            trace.decoder_lengths.append(next(iter(dstate.values())).shape[-2])
            for layer in self.dec_layers[s]:
                dstate = layer(dstate, skips[s], trace)
            if s > 0:
                merged = {}
                for key, m in dstate.items():
                    if cfg.use_skip:
                        m = concat([m, skips[s][key]], axis=-1)
                    merged[key] = upconv1d(m, *self.up[s - 1][key])
                dstate = merged

        # one state map: original-scale encoder and decoder outputs side by
        # side; two unfused maps: the temporal and spatial decoder outputs
        parts = (list(dstate.values()) if len(dstate) == 2
                 else [*skips[0].values(), *dstate.values()])
        head_in = concat(parts, axis=-1)
        return self.regress(head_in, training=training, rng=rng)

    def regress(self, features: Tensor, training: bool = False,
                rng: RngStream | None = None) -> Tensor:
        cfg = self.config
        if features.shape[-1] != 2 * cfg.d_model:
            raise ShapeError(
                f"regression head expects {2 * cfg.d_model} channels, got {features.shape[-1]}"
            )
        h = dropout(features, cfg.dropout_rate, training, rng)
        return add(matmul(h, self.head_w), self.head_b)

    def predict(self, history: np.ndarray) -> np.ndarray:
        """Inference without gradient recording: (..., N, H, C) histories
        to (..., N, F, 1) predictions."""
        return self.forward(Tensor(history)).data


def make_variant(config: ModelConfig, seed: int = 0) -> HSTTN:
    """Build a model for any valid configuration, including the structural
    ablations produced by `variant_config`."""
    return HSTTN(config, seed=seed)
