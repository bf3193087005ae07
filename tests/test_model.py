import numpy as np
import pytest

from hsttn import autodiff
from hsttn.autodiff import GradTape, RngStream, Tensor, backward, pointwise_conv
from hsttn.errors import ConfigError, ContractError, ShapeError
from hsttn.model import (
    HSTTN,
    AttentionWeights,
    DecoderLayer,
    EncoderLayer,
    ModelConfig,
    ModelParameters,
    ScaleTrace,
    VARIANT_NAMES,
    _fuse_maps,
    attention,
    make_variant,
    variant_config,
)
from hsttn.training import mse_loss


def tiny_config(**kw) -> ModelConfig:
    base = dict(n_turbines=2, history_len=6, horizon_len=6, n_channels=3,
                d_model=4, n_heads=2, pool_factors=(3,), dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


def weights_from(arrays) -> AttentionWeights:
    return AttentionWeights(*(Tensor(a, requires_grad=True) for a in arrays))


def random_weights(rng, d, h, scale=0.5) -> AttentionWeights:
    return weights_from([rng.normal(size=(d, d)) * scale for _ in range(4)])


def zero_weights(d) -> AttentionWeights:
    return weights_from([np.zeros((d, d)) for _ in range(4)])


def attend_along(m: Tensor, weights: AttentionWeights, n_heads: int, axis: int) -> Tensor:
    """Self-attention over one axis of a turbine-major (N, L, d) map, built
    from attention along the last-but-one axis: axis 1 attends along time
    within each turbine, and axis 0 across turbines within each timestep,
    through the timestep-major (L, N, d) array."""
    if axis == 1:
        return attention(m, m, weights, n_heads)
    view = Tensor(np.swapaxes(m.data, 0, 1))
    return Tensor(np.swapaxes(attention(view, view, weights, n_heads).data, 0, 1))


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            tiny_config(history_len=8, horizon_len=8, pool_factors=(3,))

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=5, n_heads=2)

    def test_some_branch_required(self):
        with pytest.raises(ConfigError):
            tiny_config(use_temporal_branch=False, use_spatial_branch=False)

    def test_history_equals_horizon(self):
        with pytest.raises(ConfigError):
            tiny_config(history_len=6, horizon_len=12, pool_factors=())

    def test_scale_lengths(self):
        cfg = tiny_config(history_len=12, horizon_len=12, pool_factors=(3, 2))
        assert cfg.scale_lengths == (12, 4, 2)

    def test_no_factors_is_single_scale(self):
        assert tiny_config(pool_factors=()).scale_lengths == (6,)


def embed_history(model: HSTTN, x: np.ndarray) -> Tensor:
    """The history path of `HSTTN.forward`: 1x1 conv, then time and turbine."""
    conv = pointwise_conv(Tensor(x), model.embed_w, model.embed_b)
    return model._embed(conv, np.arange(x.shape[1]))


class TestEmbedding:
    def test_zero_everything_gives_zero_views(self):
        cfg = tiny_config()
        model = HSTTN(cfg, seed=0)
        arrays = model.params.state_arrays()
        for name in arrays:
            arrays[name] = np.zeros_like(arrays[name])
        model.params.load_arrays(arrays)
        f_tem = embed_history(model, np.zeros((2, 6, 3)))
        f_spa = np.swapaxes(f_tem.data, 0, 1)
        assert np.array_equal(f_tem.data, np.zeros((2, 6, 4)))
        assert np.array_equal(f_spa, np.zeros((6, 2, 4)))

    def test_view_shapes(self):
        cfg = tiny_config(n_turbines=2, history_len=4, horizon_len=4,
                          n_channels=3, d_model=16, pool_factors=(2,))
        model = HSTTN(cfg, seed=1)
        f_tem = embed_history(model, np.random.default_rng(0).normal(size=(2, 4, 3)))
        f_spa = np.swapaxes(f_tem.data, 0, 1)
        assert f_tem.shape == (2, 4, 16)
        assert f_spa.shape == (4, 2, 16)

    def test_dual_view_consistency(self):
        model = HSTTN(tiny_config(), seed=2)
        x = np.random.default_rng(1).normal(size=(2, 6, 3))
        f_tem = embed_history(model, x)
        f_spa = np.swapaxes(f_tem.data, 0, 1)
        for n in range(2):
            for t in range(6):
                assert np.array_equal(f_tem.data[n, t], f_spa[t, n])

    def test_channel_mismatch(self):
        model = HSTTN(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((2, 6, 5))))


class TestMsa:
    """Self-attention, `attention(x, x, ...)`, over the rows of x."""

    def test_single_token_weight_is_one(self):
        rng = np.random.default_rng(4)
        w = random_weights(rng, 4, 2)
        x = Tensor(rng.normal(size=(1, 4)))
        out = attention(x, x, w, n_heads=2)
        expected = (x.data @ w.wv.data) @ w.wo.data
        assert np.allclose(out.data, expected)

    def test_zero_query_gives_uniform_attention(self):
        rng = np.random.default_rng(5)
        w = random_weights(rng, 4, 2)
        w.wq.data = np.zeros((4, 4))
        x = rng.normal(size=(5, 4))
        out = attention(Tensor(x), Tensor(x), w, n_heads=2)
        expected = np.tile(((x @ w.wv.data).mean(axis=0)) @ w.wo.data, (5, 1))
        assert np.allclose(out.data, expected)

    def test_two_token_scalar_hand_example(self):
        a, b, c, d = 0.7, -1.3, 2.0, 0.5
        x = np.array([[1.0], [2.0]])
        w = weights_from([np.array([[a]]), np.array([[b]]), np.array([[c]]),
                          np.array([[d]])])
        out = attention(Tensor(x), Tensor(x), w, n_heads=1)
        # straight-line oracle
        q, k, v = x * a, x * b, x * c
        scores = q @ k.T
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        expected = (probs @ v) * d
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_output_shape(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 7, 8)))
        out = attention(x, x, random_weights(rng, 8, 2), 2)
        assert out.shape == (3, 7, 8)

    def test_leading_axes_are_independent_sequences(self):
        rng = np.random.default_rng(27)
        w = random_weights(rng, 8, 2)
        q = rng.normal(size=(2, 3, 5, 8))
        kv = rng.normal(size=(2, 3, 4, 8))
        out = attention(Tensor(q), Tensor(kv), w, 2).data
        assert out.shape == (2, 3, 5, 8)
        for i in range(2):
            batch = attention(Tensor(q[i]), Tensor(kv[i]), w, 2).data
            assert np.array_equal(batch, out[i])
            for j in range(3):
                single = attention(Tensor(q[i, j]), Tensor(kv[i, j]), w, 2).data
                assert np.array_equal(single, out[i, j])

    def test_leading_axes_must_match(self):
        rng = np.random.default_rng(28)
        w = random_weights(rng, 4, 2)
        with pytest.raises(ShapeError):
            attention(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 3, 4))), w, 2)
        with pytest.raises(ShapeError):
            attention(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4))), w, 2)


def reference_attention(q_in, kv_in, w: AttentionWeights, n_heads: int):
    """Plain-numpy multi-head attention over the rows of one sequence:
    (output, probabilities of shape (heads, Lq, Lk))."""
    dk = w.wq.shape[1] // n_heads
    dv = w.wv.shape[1] // n_heads
    q = (q_in @ w.wq.data).reshape(len(q_in), n_heads, dk).transpose(1, 0, 2)
    k = (kv_in @ w.wk.data).reshape(len(kv_in), n_heads, dk).transpose(1, 0, 2)
    v = (kv_in @ w.wv.data).reshape(len(kv_in), n_heads, dv).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    ctx = (probs @ v).transpose(1, 0, 2).reshape(len(q_in), n_heads * dv)
    return ctx @ w.wo.data, probs


def awkward_rows(rng, n: int, d: int) -> np.ndarray:
    """Random rows plus exact duplicates and rows that differ only in the
    sign of a zero, at shuffled positions."""
    x = rng.normal(size=(n, d))
    x[1] = x[0]
    x[2] = x[0]
    x[3, :] = 0.0
    x[4, :] = 0.0
    x[4, 1] = -0.0
    x[5] = x[4]
    return x[rng.permutation(n)]


class TestKeyOrder:
    """Attention sums over keys in a canonical order of the key/value rows."""

    @pytest.mark.parametrize("seed", range(4))
    def test_self_attention_is_bitwise_equivariant(self, seed):
        rng = np.random.default_rng(40 + seed)
        w = random_weights(rng, 8, 2)
        x = awkward_rows(rng, 11, 8)
        out = attention(Tensor(x), Tensor(x), w, 2).data
        for _ in range(5):
            perm = rng.permutation(11)
            out_p = attention(Tensor(x[perm]), Tensor(x[perm]), w, 2).data
            assert np.array_equal(out_p, out[perm])

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_attention_is_bitwise_invariant_to_key_order(self, seed):
        rng = np.random.default_rng(50 + seed)
        w = random_weights(rng, 8, 2)
        q = rng.normal(size=(3, 7, 8))
        kv = np.stack([awkward_rows(rng, 13, 8) for _ in range(3)])
        out = attention(Tensor(q), Tensor(kv), w, 2).data
        for _ in range(5):
            perm = np.stack([rng.permutation(13) for _ in range(3)])
            shuffled = np.take_along_axis(kv, perm[..., None], axis=1)
            assert np.array_equal(attention(Tensor(q), Tensor(shuffled), w, 2).data, out)

    def test_signed_zero_rows_are_told_apart(self):
        # +0.0 and -0.0 compare equal but have different bits; the order
        # puts them in one place whatever their input positions
        rng = np.random.default_rng(60)
        w = random_weights(rng, 4, 2)
        q = Tensor(rng.normal(size=(3, 4)))
        kv = np.zeros((2, 4))
        kv[1, 2] = -0.0
        out = attention(q, Tensor(kv), w, 2).data
        assert np.array_equal(attention(q, Tensor(kv[::-1].copy()), w, 2).data, out)

    def test_recorded_probs_follow_the_callers_key_order(self):
        rng = np.random.default_rng(61)
        w = random_weights(rng, 8, 2)
        q = rng.normal(size=(2, 5, 8))
        kv = rng.normal(size=(2, 9, 8))
        trace = ScaleTrace(collect_probs=True)
        out = attention(Tensor(q), Tensor(kv), w, 2, trace).data
        (probs,) = trace.attention_probs
        assert probs.shape == (2, 2, 5, 9)
        for i in range(2):
            ref_out, ref_probs = reference_attention(q[i], kv[i], w, 2)
            assert np.allclose(probs[i], ref_probs, rtol=0, atol=1e-12)
            assert np.allclose(out[i], ref_out, rtol=0, atol=1e-12)

    def test_collecting_probs_leaves_outputs_unchanged(self):
        cfg = tiny_config(n_turbines=5, history_len=12, horizon_len=12)
        model = HSTTN(cfg, seed=62)
        x = Tensor(np.random.default_rng(62).normal(size=(5, 12, 3)))
        trace = ScaleTrace(collect_probs=True)
        traced = model.forward(x, trace=trace).data
        assert trace.attention_probs
        assert np.array_equal(traced, model.forward(x).data)


class TestCrossAttention:
    """Queries from the rows of one sequence, keys and values from another."""

    def test_single_encoder_token_gets_full_weight(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, 4, 1)
        dec = Tensor(rng.normal(size=(3, 4)))
        enc = Tensor(rng.normal(size=(1, 4)))
        out = attention(dec, enc, w, n_heads=1)
        expected = np.tile((enc.data @ w.wv.data) @ w.wo.data, (3, 1))
        assert np.allclose(out.data, expected)

    def test_hand_two_by_one(self):
        wq, wk, wv, wo = 1.5, -0.5, 2.0, 3.0
        w = weights_from([np.array([[v]]) for v in (wq, wk, wv, wo)])
        dec = np.array([[1.0], [-2.0]])
        enc = np.array([[4.0]])
        out = attention(Tensor(dec), Tensor(enc), w, n_heads=1)
        # one key: softmax weight 1, value path only
        expected = np.full((2, 1), 4.0 * wv * wo)
        assert np.allclose(out.data, expected)


class TestContextualFusion:
    """`_fuse_maps` joins two turbine-major (N, L, d) branch maps."""

    def test_zero_inputs_zero_bias(self):
        w = Tensor(np.random.default_rng(9).normal(size=(8, 4)))
        b = Tensor(np.zeros(4))
        fused = _fuse_maps(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 4))), w, b)
        assert np.array_equal(fused.data, np.zeros((2, 3, 4)))
        assert np.array_equal(np.swapaxes(fused.data, 0, 1), np.zeros((3, 2, 4)))

    def test_block_selection_weights(self):
        rng = np.random.default_rng(10)
        d = 4
        tem = np.abs(rng.normal(size=(2, 3, d)))
        spa = np.abs(rng.normal(size=(2, 3, d)))
        select_spatial = np.vstack([np.eye(d), np.zeros((d, d))])
        select_temporal = np.vstack([np.zeros((d, d)), np.eye(d)])
        got_spa = _fuse_maps(Tensor(spa), Tensor(tem), Tensor(select_spatial),
                             Tensor(np.zeros(d)))
        got_tem = _fuse_maps(Tensor(spa), Tensor(tem), Tensor(select_temporal),
                             Tensor(np.zeros(d)))
        assert np.allclose(got_spa.data, spa)
        assert np.allclose(got_tem.data, tem)

    def test_channel_widths(self):
        d = 16
        fused = _fuse_maps(Tensor(np.ones((2, 4, d))), Tensor(np.ones((2, 4, d))),
                           Tensor(np.ones((2 * d, d))), Tensor(np.zeros(d)))
        assert fused.shape == (2, 4, d)
        assert np.swapaxes(fused.data, 0, 1).shape == (4, 2, d)

    def test_branch_disagreement(self):
        with pytest.raises(ShapeError):
            _fuse_maps(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 2, 4))),
                       Tensor(np.ones((8, 4))), Tensor(np.zeros(4)))


def fill_store(store, rng=None, zero=lambda name: False):
    """Overwrite every tensor in declaration order: zeros without an rng
    (or where `zero(name)`), otherwise normal draws scaled by 0.4."""
    store.load_arrays({name: np.zeros(t.shape) if rng is None or zero(name)
                       else rng.normal(size=t.shape) * 0.4 for name, t in store.items()})


def build_encoder_layer(cfg, rng=None):
    store = ModelParameters(RngStream(0))
    layer = EncoderLayer(store, "enc.s0.l0", cfg)
    fill_store(store, rng)
    return layer, store


def build_decoder_layer(cfg, rng=None, zero_cross=False):
    store = ModelParameters(RngStream(0))
    layer = DecoderLayer(store, "dec.s0.l0", cfg)
    fill_store(store, rng, zero=lambda name: zero_cross and ".cross." in name)
    return layer, store


class TestResidualLayers:
    def test_zero_parameters_are_identity(self):
        cfg = tiny_config()
        layer, _ = build_encoder_layer(cfg, rng=None)
        m = Tensor(np.random.default_rng(11).normal(size=(2, 6, 4)))
        out = layer({"st": m})["st"]
        assert np.array_equal(out.data, m.data)

    def test_no_fusion_variant_is_attention_plus_input(self):
        cfg = tiny_config(use_cfb=False)
        rng = np.random.default_rng(12)
        layer, _ = build_encoder_layer(cfg, rng)
        m = Tensor(rng.normal(size=(2, 6, 4)))
        out = layer({"tem": m, "spa": m})
        for branch, axis in (("tem", 1), ("spa", 0)):
            expected = attend_along(m, getattr(layer, branch), cfg.n_heads, axis).data + m.data
            assert np.array_equal(out[branch].data, expected)

    def test_layer_matches_straightline_composition(self):
        cfg = tiny_config()
        rng = np.random.default_rng(13)
        layer, _ = build_encoder_layer(cfg, rng)
        m = Tensor(rng.normal(size=(2, 6, 4)))
        out = layer({"st": m})["st"]

        a_tem = attend_along(m, layer.tem, cfg.n_heads, axis=1)
        a_spa = attend_along(m, layer.spa, cfg.n_heads, axis=0)
        fused = _fuse_maps(a_spa, a_tem, *layer.fuse)
        assert np.array_equal(out.data, fused.data + m.data)

    def test_decoder_zero_parameters_identity(self):
        cfg = tiny_config()
        layer, _ = build_decoder_layer(cfg, rng=None)
        rng = np.random.default_rng(14)
        m = Tensor(rng.normal(size=(2, 6, 4)))
        enc = Tensor(rng.normal(size=(2, 6, 4)))
        out = layer({"st": m}, {"st": enc})["st"]
        assert np.array_equal(out.data, m.data)

    def test_zero_encoder_reduces_decoder_to_encoder_layer(self):
        cfg = tiny_config()
        rng = np.random.default_rng(15)
        dec_layer, dec_store = build_decoder_layer(cfg, rng)
        m = Tensor(rng.normal(size=(2, 6, 4)))
        zero_enc = Tensor(np.zeros((2, 6, 4)))
        out = dec_layer({"st": m}, {"st": zero_enc})["st"]

        enc_cfg_layer, enc_store = build_encoder_layer(cfg, np.random.default_rng(99))
        # mirror the decoder's self-attention and fusion weights
        arrays, dec = enc_store.state_arrays(), dec_store.state_arrays()
        for branch in ("tem", "spa"):
            for name in ("wq", "wk", "wv", "wo"):
                arrays[f"enc.s0.l0.{branch}.{name}"] = dec[f"dec.s0.l0.{branch}.self.{name}"]
        arrays["enc.s0.l0.cfb.w"] = dec["dec.s0.l0.cfb.w"]
        arrays["enc.s0.l0.cfb.b"] = dec["dec.s0.l0.cfb.b"]
        enc_store.load_arrays(arrays)
        expected = enc_cfg_layer({"st": m})["st"]
        assert np.allclose(out.data, expected.data)

    def test_decoder_scale_mismatch_rejected(self):
        cfg = tiny_config()
        layer, _ = build_decoder_layer(cfg, np.random.default_rng(16))
        m = Tensor(np.ones((2, 6, 4)))
        enc = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ContractError):
            layer({"st": m}, {"st": enc})

    def test_unfused_decoder_scale_mismatch_rejected(self):
        layer, _ = build_decoder_layer(tiny_config(use_cfb=False), np.random.default_rng(16))
        m = Tensor(np.ones((2, 6, 4)))
        with pytest.raises(ContractError, match="'spa'"):
            layer({"tem": m, "spa": m}, {"tem": m, "spa": Tensor(np.ones((2, 3, 4)))})


class TestDecoderInput:
    """The decoder entry: the embedding of an all-zero future grid."""

    def signed_bias_model(self, cfg, seed):
        model = HSTTN(cfg, seed=seed)
        arrays = model.params.state_arrays()
        arrays["embed.b"] = np.random.default_rng(seed).normal(size=cfg.d_model)
        assert (arrays["embed.b"] < 0).any() and (arrays["embed.b"] > 0).any()
        model.params.load_arrays(arrays)
        return model

    def test_all_zero_features(self):
        cfg = tiny_config()
        model = self.signed_bias_model(cfg, 3)
        zeros = Tensor(np.zeros((2, 6, 3)))
        expected = model._embed(
            pointwise_conv(zeros, model.embed_w, model.embed_b),
            np.arange(6, 12))
        assert np.array_equal(model._decoder_entry().data, expected.data)

    def test_embedding_of_zeros_is_tables_only(self):
        cfg = tiny_config()
        model = self.signed_bias_model(cfg, 4)
        positions = np.arange(6, 12)
        b = model.embed_b.data
        expected = (np.maximum(b, 0.0) + model.pos_table.data[positions])[None] \
            + model.turbine_table.data[:, None, :]
        assert np.array_equal(model._decoder_entry().data, expected)

    def test_long_horizon_shape(self):
        cfg = ModelConfig(n_turbines=3, history_len=144, horizon_len=144, n_channels=13)
        assert HSTTN(cfg, seed=0)._decoder_entry().shape == (3, 144, cfg.d_model)


class TestHourglass:
    def test_pyramid_twelve(self):
        cfg = tiny_config(history_len=12, horizon_len=12, pool_factors=(3, 2))
        model = HSTTN(cfg, seed=4)
        trace = ScaleTrace()
        y = model.forward(Tensor(np.random.default_rng(17).normal(size=(2, 12, 3))),
                          trace=trace)
        assert y.shape == (2, 12, 1)
        assert trace.encoder_lengths == [12, 4, 2]
        assert trace.decoder_lengths == [2, 4, 12]

    def test_single_scale_variant(self):
        cfg = tiny_config(pool_factors=())
        model = HSTTN(cfg, seed=5)
        trace = ScaleTrace()
        y = model.forward(Tensor(np.random.default_rng(18).normal(size=(2, 6, 3))),
                          trace=trace)
        assert y.shape == (2, 6, 1)
        assert trace.encoder_lengths == [6]
        assert trace.decoder_lengths == [6]

    def test_random_configs_shape_and_pyramid(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            factors = tuple(rng.choice([2, 3], size=rng.integers(0, 3)))
            base = int(np.prod(factors)) if factors else 1
            h = base * int(rng.integers(1, 4)) * 2
            cfg = ModelConfig(
                n_turbines=int(rng.integers(2, 5)),
                history_len=h, horizon_len=h,
                n_channels=int(rng.integers(2, 5)),
                d_model=8, n_heads=int(rng.choice([1, 2])),
                pool_factors=factors,
                layers_encoder=int(rng.integers(1, 3)),
                layers_decoder=1,
                dropout_rate=0.0,
            )
            model = HSTTN(cfg, seed=int(rng.integers(0, 100)))
            trace = ScaleTrace()
            y = model.forward(Tensor(rng.normal(size=(cfg.n_turbines, h, cfg.n_channels))),
                              trace=trace)
            assert y.shape == (cfg.n_turbines, cfg.horizon_len, 1)
            assert tuple(trace.encoder_lengths) == cfg.scale_lengths
            assert trace.decoder_lengths == list(reversed(cfg.scale_lengths))

    def test_attention_rows_normalized(self):
        cfg = tiny_config(history_len=12, horizon_len=12, pool_factors=(2,))
        model = HSTTN(cfg, seed=6)
        trace = ScaleTrace(collect_probs=True)
        model.forward(Tensor(np.random.default_rng(20).normal(size=(2, 12, 3))), trace=trace)
        assert trace.attention_probs
        for probs in trace.attention_probs:
            assert np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9)

    def test_trace_resets_between_forwards(self):
        cfg = tiny_config()
        model = HSTTN(cfg, seed=16)
        x = Tensor(np.random.default_rng(26).normal(size=(2, 6, 3)))
        trace = ScaleTrace()
        model.forward(x, trace=trace)
        model.forward(x, trace=trace)
        assert trace.encoder_lengths == list(cfg.scale_lengths)
        assert trace.decoder_lengths == list(reversed(cfg.scale_lengths))

    def test_forward_determinism(self):
        cfg = tiny_config()
        model = HSTTN(cfg, seed=7)
        x = np.random.default_rng(21).normal(size=(2, 6, 3))
        assert np.array_equal(model.predict(x), model.predict(x))

    def test_dropout_training_determinism(self):
        cfg = tiny_config(dropout_rate=0.3)
        model = HSTTN(cfg, seed=8)
        x = Tensor(np.random.default_rng(22).normal(size=(2, 6, 3)))
        a = model.forward(x, training=True, rng=RngStream(5)).data
        b = model.forward(x, training=True, rng=RngStream(5)).data
        assert np.array_equal(a, b)


class TestRegress:
    def test_zero_weight_gives_bias(self):
        cfg = tiny_config()
        model = HSTTN(cfg, seed=9)
        arrays = model.params.state_arrays()
        arrays["head.w"] = np.zeros_like(arrays["head.w"])
        arrays["head.b"] = np.array([2.5])
        model.params.load_arrays(arrays)
        out = model.regress(Tensor(np.random.default_rng(23).normal(size=(2, 6, 8))))
        assert np.allclose(out.data, 2.5)

    def test_hand_affine(self):
        cfg = ModelConfig(n_turbines=1, history_len=2, horizon_len=2, n_channels=2,
                          d_model=1, n_heads=1, pool_factors=(), dropout_rate=0.0)
        model = HSTTN(cfg, seed=10)
        arrays = model.params.state_arrays()
        arrays["head.w"] = np.array([[1.0], [1.0]])
        arrays["head.b"] = np.array([0.0])
        model.params.load_arrays(arrays)
        out = model.regress(Tensor(np.array([[[1.0, 2.0]]])))
        assert out.data.item() == pytest.approx(3.0)

    def test_width_contract(self):
        model = HSTTN(tiny_config(), seed=11)
        with pytest.raises(ShapeError):
            model.regress(Tensor(np.ones((2, 6, 7))))


class TestVariants:
    def test_two_scale(self):
        cfg = variant_config(tiny_config(history_len=6, horizon_len=6), "2sttn")
        assert cfg.pool_factors == (3,)
        assert cfg.n_scales == 2

    def test_four_scale(self):
        cfg = variant_config(tiny_config(history_len=24, horizon_len=24), "4sttn")
        assert cfg.pool_factors == (3, 2, 2)
        assert cfg.n_scales == 4

    def test_noskip_runs_with_same_shape(self):
        cfg = variant_config(tiny_config(), "noskip")
        model = make_variant(cfg, seed=12)
        y = model.predict(np.random.default_rng(24).normal(size=(2, 6, 3)))
        assert y.shape == (2, 6, 1)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            variant_config(tiny_config(), "bogus")

    @pytest.mark.parametrize("name", ["sttn", "2sttn", "noskip", "t_only", "s_only",
                                      "st_only"])
    def test_all_variants_forward(self, name):
        cfg = variant_config(tiny_config(), name)
        model = make_variant(cfg, seed=13)
        y = model.predict(np.random.default_rng(25).normal(size=(2, 6, 3)))
        assert y.shape == (2, 6, 1)


class TestEquivariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_turbine_permutation_is_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        cfg = tiny_config(n_turbines=4, history_len=12, horizon_len=12,
                          pool_factors=(3,))
        model = HSTTN(cfg, seed=seed + 30)
        x = rng.normal(size=(4, 12, 3))
        perm = rng.permutation(4)

        permuted = HSTTN(cfg, seed=seed + 30)
        arrays = model.params.state_arrays()
        arrays["turbine_table"] = arrays["turbine_table"][perm]
        permuted.params.load_arrays(arrays)

        y = model.predict(x)
        y_perm = permuted.predict(x[perm])
        assert np.array_equal(y_perm, y[perm])


    @pytest.mark.parametrize("name", VARIANT_NAMES)
    @pytest.mark.parametrize("n", [13, 37])
    def test_every_variant_is_bitwise_equivariant(self, name, n):
        # 13 and 37 rows leave partial BLAS tiles on both matmul axes
        cfg = variant_config(ModelConfig(n_turbines=n, history_len=24, horizon_len=24,
                                         n_channels=3, d_model=16, n_heads=2,
                                         pool_factors=(3, 2), dropout_rate=0.0), name)
        rng = np.random.default_rng(n)
        model = HSTTN(cfg, seed=n)
        x = rng.normal(size=(n, 24, 3))
        perm = rng.permutation(n)
        permuted = HSTTN(cfg, seed=n)
        arrays = model.params.state_arrays()
        arrays["turbine_table"] = arrays["turbine_table"][perm]
        permuted.params.load_arrays(arrays)
        assert np.array_equal(permuted.predict(x[perm]), model.predict(x)[perm])


DESK = ModelConfig(n_turbines=4, history_len=24, horizon_len=24, n_channels=5, d_model=8,
                   n_heads=2, pool_factors=(3, 2), dropout_rate=0.2)


def window_batch(seed: int) -> np.ndarray:
    """Four desk-scale histories, (4, N, H, C). The second holds signed
    zeros, whose bit patterns the canonical key order tells apart from +0.0."""
    x = np.random.default_rng(seed).normal(size=(4, 4, 24, 5))
    x[1, :, ::3, 0] = -0.0
    x[1, 2] = -0.0
    return x


class TestWindowBatch:
    """A leading window axis computes every window as if it were alone."""

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_batch_equals_single_windows_bitwise(self, name):
        model = HSTTN(variant_config(DESK, name), seed=40)
        x = window_batch(40)
        assert np.array_equal(model.predict(x), np.stack([model.predict(w) for w in x]))

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_training_mode_dropout_is_bitwise(self, name):
        model = HSTTN(variant_config(DESK, name), seed=41)
        x = window_batch(41)
        batch_rng, window_rng = RngStream(6), RngStream(6)
        batched = model.forward(Tensor(x), training=True, rng=batch_rng).data
        singles = [model.forward(Tensor(w), training=True, rng=window_rng).data for w in x]
        assert np.array_equal(batched, np.stack(singles))
        assert not np.array_equal(batched, model.predict(x))
        # both streams have drawn the same numbers
        assert np.array_equal(batch_rng.uniform(3), window_rng.uniform(3))

    def test_two_leading_axes(self):
        model = HSTTN(DESK, seed=42)
        x = window_batch(42)
        assert np.array_equal(model.predict(x.reshape((2, 2) + x.shape[1:])),
                              model.predict(x).reshape(2, 2, 4, 24, 1))

    def test_trace_holds_every_window(self):
        model = HSTTN(DESK, seed=43)
        x = window_batch(43)
        batch_trace, window_trace = ScaleTrace(collect_probs=True), ScaleTrace(collect_probs=True)
        model.forward(Tensor(x), trace=batch_trace)
        model.forward(Tensor(x[3]), trace=window_trace)
        assert batch_trace.encoder_lengths == window_trace.encoder_lengths
        for batched, single in zip(batch_trace.attention_probs, window_trace.attention_probs):
            assert np.array_equal(batched[3], single)

    def test_four_window_step_records_one_tape(self):
        model = HSTTN(DESK, seed=44)
        x = window_batch(44)
        y = np.zeros(x.shape[:2] + (24, 1))
        with GradTape() as tape:
            loss = mse_loss(model.forward(Tensor(x), training=True, rng=RngStream(0)), y,
                            np.ones(y.shape[:-1], dtype=bool))
        # attention, output projection included, is one node per call: the
        # step records 101 nodes; four single-window steps would record 4x
        assert len(tape.nodes) == 101
        backward(loss, tape)
        assert all(t.grad is not None for t in model.params.trainable().values())

    def test_four_window_forward_attends_in_one_chunk_per_call(self, monkeypatch):
        # desk-scale attention fits one chunk: each call does its work whole
        chunks, calls = autodiff._chunks, []

        def record(n_seqs, scores_per_seq):
            calls.append((n_seqs, chunks(n_seqs, scores_per_seq)))
            return calls[-1][1]

        monkeypatch.setattr(autodiff, "_chunks", record)
        HSTTN(DESK, seed=44).forward(Tensor(window_batch(44)))
        assert len(calls) == 24 and all(c == [slice(0, n)] for n, c in calls)

    @pytest.mark.parametrize("shape", [(4, 24, 6), (3, 24, 5), (2, 4, 12, 5), (24, 5)])
    def test_trailing_shape_checked(self, shape):
        with pytest.raises(ShapeError):
            HSTTN(DESK, seed=45).forward(Tensor(np.ones(shape)))


def attn_names(prefix):
    return [f"{prefix}.{w}" for w in ("wq", "wk", "wv", "wo")]


class TestParameters:
    def test_shapes_derivable_from_config(self):
        cfg = tiny_config()
        a = dict(HSTTN(cfg, seed=1).params.items())
        b = dict(HSTTN(cfg, seed=2).params.items())
        assert list(b) == list(a)
        for name in a:
            assert a[name].shape == b[name].shape

    # checkpoint arrays and the initialiser's draws follow declaration order;
    # the tiny config's single pooling factor keeps the lists short
    @pytest.mark.parametrize("edits, names", [
        ({}, [
            "embed.w", "embed.b", "turbine_table", "pos_table",
            *attn_names("enc.s0.l0.tem"), *attn_names("enc.s0.l0.spa"),
            "enc.s0.l0.cfb.w", "enc.s0.l0.cfb.b",
            *attn_names("enc.s1.l0.tem"), *attn_names("enc.s1.l0.spa"),
            "enc.s1.l0.cfb.w", "enc.s1.l0.cfb.b",
            *attn_names("dec.s0.l0.tem.self"), *attn_names("dec.s0.l0.tem.cross"),
            *attn_names("dec.s0.l0.spa.self"), *attn_names("dec.s0.l0.spa.cross"),
            "dec.s0.l0.cfb.w", "dec.s0.l0.cfb.b",
            *attn_names("dec.s1.l0.tem.self"), *attn_names("dec.s1.l0.tem.cross"),
            *attn_names("dec.s1.l0.spa.self"), *attn_names("dec.s1.l0.spa.cross"),
            "dec.s1.l0.cfb.w", "dec.s1.l0.cfb.b",
            "up.t0.st.w", "up.t0.st.b", "head.w", "head.b",
        ]),
        (dict(use_cfb=False), [
            "embed.w", "embed.b", "turbine_table", "pos_table",
            *attn_names("enc.s0.l0.tem"), *attn_names("enc.s0.l0.spa"),
            *attn_names("enc.s1.l0.tem"), *attn_names("enc.s1.l0.spa"),
            *attn_names("dec.s0.l0.tem.self"), *attn_names("dec.s0.l0.tem.cross"),
            *attn_names("dec.s0.l0.spa.self"), *attn_names("dec.s0.l0.spa.cross"),
            *attn_names("dec.s1.l0.tem.self"), *attn_names("dec.s1.l0.tem.cross"),
            *attn_names("dec.s1.l0.spa.self"), *attn_names("dec.s1.l0.spa.cross"),
            "up.t0.tem.w", "up.t0.tem.b", "up.t0.spa.w", "up.t0.spa.b",
            "head.w", "head.b",
        ]),
    ], ids=["hsttn", "st_only"])
    def test_declaration_order(self, edits, names):
        cfg = tiny_config(layers_encoder=1, **edits)
        assert [n for n, _ in HSTTN(cfg, seed=0).params.items()] == names

    def test_load_rejects_wrong_names(self):
        model = HSTTN(tiny_config(), seed=14)
        arrays = model.params.state_arrays()
        arrays.pop("head.w")
        with pytest.raises(ContractError):
            model.params.load_arrays(arrays)

    def test_load_rejects_wrong_shape(self):
        model = HSTTN(tiny_config(), seed=15)
        arrays = model.params.state_arrays()
        arrays["head.w"] = np.zeros((3, 3))
        with pytest.raises(ContractError):
            model.params.load_arrays(arrays)
