import math
import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hsttn import autodiff
from hsttn.autodiff import (
    GradTape,
    RngStream,
    Tensor,
    add,
    attend,
    broadcast_to,
    backward,
    concat,
    dropout,
    grad_check,
    matmul,
    maxpool1d,
    mix,
    mul,
    pointwise_conv,
    relu,
    reshape,
    softmax_rows,
    sum_all,
    upconv1d,
)
from hsttn.errors import ConfigError, ContractError, OracleError, ShapeError

finite_arrays = arrays(
    np.float64,
    array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
    elements=st.floats(-50, 50),
)


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_zero_annihilates(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.arange(6.0).reshape(3, 2) + 1))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_hand_example(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2, 5))
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(4):
            assert np.allclose(out[i], a[i] @ b[i])


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_single_token(self):
        assert softmax_rows(Tensor([7.0])).data == pytest.approx([1.0])

    def test_closed_form(self):
        out = softmax_rows(Tensor([np.log(2.0), 0.0])).data
        assert out == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    @given(finite_arrays)
    def test_rows_sum_to_one(self, a):
        out = softmax_rows(Tensor(a)).data
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-9)
        assert np.all(out >= 0.0)

    def test_permutation_of_row_is_bitwise_stable(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=12)
        perm = rng.permutation(12)
        out = softmax_rows(Tensor(row)).data
        out_p = softmax_rows(Tensor(row[perm])).data
        assert np.array_equal(out_p, out[perm])

    def test_plain_normaliser_agrees_with_sorted(self):
        # `attend` normalises over keys in canonical order, `softmax_rows` in sorted order
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 9, 4))
        wq, wk, wv, wo = (Tensor(rng.normal(size=(4, 4))) for _ in range(4))
        probs = []
        attend(Tensor(x), Tensor(x), wq, wk, wv, wo, 1, probs=probs)
        scores = (x @ wq.data / 2.0) @ np.swapaxes(x @ wk.data, -1, -2)
        out = probs[0][:, 0]
        assert np.allclose(out, softmax_rows(Tensor(scores)).data, rtol=0, atol=1e-14)
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)

    def test_scalar_rejected(self):
        with pytest.raises(ShapeError, match="softmax_rows needs a non-empty last axis"):
            softmax_rows(Tensor(1.0))


def attention_weights(rng, d: int, width_qk: int, width_v: int, d_out: int | None = None):
    """wq, wk, wv and wo, the output projection back to `d_out` (default d)."""
    shapes = ((d, width_qk), (d, width_qk), (d, width_v), (width_v, d_out or d))
    return tuple(Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes)


class TestAttend:
    def test_single_head_hand_example(self):
        # one query attending to two scalar keys: probabilities by hand
        q, kv = np.array([[1.0]]), np.array([[2.0], [-1.0]])
        wq, wk, wv, wo = Tensor([[0.5]]), Tensor([[1.5]]), Tensor([[3.0]]), Tensor([[-2.0]])
        probs = []
        out = attend(Tensor(q), Tensor(kv), wq, wk, wv, wo, 1, probs=probs).data
        scores = 0.5 * 1.5 * kv[:, 0]
        p = np.exp(scores - scores.max()) / np.exp(scores - scores.max()).sum()
        assert np.allclose(probs[0], p[None, None, :], rtol=0, atol=1e-15)
        assert out.item() == pytest.approx(-2.0 * (p @ (3.0 * kv[:, 0])), abs=1e-14)

    def test_key_gradient_goes_back_through_inverse(self):
        # the keys are gathered into canonical order; their gradient comes
        # back in the caller's order, so shuffling the keys shuffles it
        rng = np.random.default_rng(13)
        weights = attention_weights(rng, 3, 4, 2)
        q, kv = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 5, 3))
        proj = Tensor(rng.normal(size=(2, 4, 3)))
        perm = np.stack([rng.permutation(5) for _ in range(2)])

        def key_grad(keys):
            k = leaf(keys)
            with GradTape() as tape:
                loss = sum_all(mul(attend(Tensor(q), k, *weights, 2), proj))
            backward(loss, tape)
            return k.grad

        shuffled = np.take_along_axis(kv, perm[..., None], axis=1)
        assert np.array_equal(key_grad(shuffled),
                              np.take_along_axis(key_grad(kv), perm[..., None], axis=1))

    def test_leading_axes_must_match(self):
        weights = attention_weights(np.random.default_rng(14), 4, 4, 4)
        with pytest.raises(ShapeError, match="same leading axes"):
            attend(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 3, 4))), *weights, 2)
        with pytest.raises(ShapeError, match="do not split into 3 heads"):
            attend(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), *weights, 3)
        with pytest.raises(ShapeError, match="do not match weights"):
            attend(Tensor(np.ones((3, 5))), Tensor(np.ones((3, 5))), *weights, 2)
        with pytest.raises(ShapeError, match="do not split into 2 heads"):
            attend(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), *weights[:3],
                   Tensor(np.ones((3, 4))), 2)
        for axis in (-1, 2, -4):
            with pytest.raises(ShapeError, match="attention along axis"):
                attend(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 4))), *weights, 2,
                       axis=axis)

    @pytest.mark.parametrize("self_attention", [False, True])
    def test_axis_is_a_swap_of_the_inputs(self, self_attention):
        # attending along axis -3 is bitwise the same call along -2 on the
        # swapped inputs: output, the query and key gradients and all four
        # weight gradients
        rng = np.random.default_rng(17)
        weights = attention_weights(rng, 4, 6, 4, d_out=3)
        query = rng.normal(size=(2, 5, 3, 4))
        keys = query if self_attention else rng.normal(size=(2, 7, 3, 4))
        proj = rng.normal(size=(2, 5, 3, 3))

        def run(query, keys, proj, axis):
            ws = [leaf(w.data) for w in weights]
            q = leaf(query)
            k = q if self_attention else leaf(keys)
            with GradTape() as tape:
                out = attend(q, k, *ws, 2, axis=axis)
                loss = sum_all(mul(out, Tensor(proj)))
            backward(loss, tape)
            return out.data, q.grad, k.grad, [w.grad for w in ws]

        out, g_query, g_keys, g_weights = run(query, keys, proj, -3)
        swapped = run(*(np.swapaxes(a, -3, -2) for a in (query, keys, proj)), -2)
        assert np.array_equal(out, np.swapaxes(swapped[0], -3, -2))
        assert np.array_equal(g_query, np.swapaxes(swapped[1], -3, -2))
        assert np.array_equal(g_keys, np.swapaxes(swapped[2], -3, -2))
        for got, want in zip(g_weights, swapped[3]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("ties", ["none", "some", "all"])
    def test_key_order_is_the_lexsort_of_the_bits(self, lead, ties):
        # a stable sort of the last feature, with the full sort only where it
        # ties, is lexsort's permutation: for signed zeros and NaNs of several
        # bit patterns in every sequence, and in the sequences that tie, rows
        # that share only their last feature, duplicates and a signed-zero pair
        rng = np.random.default_rng(19)
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000,
                         0x7FF0000000000001]).view(np.float64)
        tied = {"none": np.zeros(lead, dtype=bool), "all": np.ones(lead, dtype=bool),
                "some": np.arange(math.prod(lead)).reshape(lead) % 2 == 0}[ties]
        for _ in range(25):
            keys = rng.normal(size=lead + (8, 4))
            keys[..., 4, -1], keys[..., 5, -1] = 0.0, -0.0
            keys[..., 6, -1], keys[..., 7, -1] = rng.choice(nans, 2, replace=False)
            keys[..., 2, 1], keys[..., 3, 0] = -0.0, rng.choice(nans)
            rows = keys[tied]
            rows[:, 1, -1] = rows[:, 0, -1]
            rows[:, 3] = rows[:, 2]
            rows[:, 5] = rows[:, 4]
            rows[:, 4, 0], rows[:, 5, 0] = 0.0, -0.0
            rows[:, 6, -1] = rows[:, 7, -1]
            keys[tied] = rows
            perm = np.argsort(rng.random(lead + (8,)), axis=-1)
            keys = np.take_along_axis(keys, perm[..., None], axis=-2)
            last = np.sort(keys.view(np.int64)[..., -1], axis=-1)
            assert np.array_equal((last[..., 1:] == last[..., :-1]).any(axis=-1), tied)
            want = np.lexsort(np.moveaxis(keys.view(np.int64), -1, 0), axis=-1)
            for layout in (keys, np.asfortranarray(keys)):
                assert np.array_equal(autodiff._key_order(layout), want)

    @pytest.mark.parametrize("n_seqs", [1, 2, 3, 7, 10, 12])
    def test_chunks_cover_every_sequence_once(self, monkeypatch, n_seqs):
        # whole sequences, at most as many as fit and at least one, each once
        for fit in range(1, n_seqs + 2):
            monkeypatch.setattr(autodiff, "_CHUNK_SCORES", 6 * fit)
            chunks = autodiff._chunks(n_seqs, 6)
            seen = np.zeros(n_seqs, dtype=int)
            for ix in chunks:
                seen[ix] += 1
                assert 1 <= seen[ix].size <= fit
            assert (seen == 1).all()
            assert (chunks == [slice(0, n_seqs)]) == (fit >= n_seqs)
        monkeypatch.setattr(autodiff, "_CHUNK_SCORES", 5)
        assert len(autodiff._chunks(n_seqs, 6)) == n_seqs

    @pytest.mark.parametrize("lead, axis, self_attention", [
        ((2, 5), -2, False), ((2, 5), -3, False), ((2, 5), -3, True), ((3, 2, 2), -2, True)])
    def test_chunk_size_changes_no_bit(self, monkeypatch, lead, axis, self_attention):
        # chunks of 1, 2 and 3 sequences give the whole call's output, its six
        # gradients and its probabilities bitwise; a chunk boundary falls
        # inside a leading axis, and with (3, 2, 2) a chunk spans two axes
        rng = np.random.default_rng(18)
        n_heads, lq, lk = 2, 3, 4
        weights = attention_weights(rng, 4, 6, 4, d_out=3)
        query = rng.normal(size=lead + (lk if self_attention else lq, 4))
        keys = query if self_attention else rng.normal(size=lead + (lk, 4))
        keys[..., 1, :] = keys[..., 0, :]
        proj = rng.normal(size=query.shape[:-1] + (3,))
        query, keys, proj = (np.swapaxes(a, axis, -2) for a in (query, keys, proj))
        per_seq = n_heads * lk * (lk if self_attention else lq)

        def run(seqs):
            monkeypatch.setattr(autodiff, "_CHUNK_SCORES", seqs * per_seq)
            ws = [leaf(w.data) for w in weights]
            q = leaf(query)
            k = q if self_attention else leaf(keys)
            probs = []
            with GradTape() as tape:
                out = attend(q, k, *ws, n_heads, axis=axis, probs=probs)
                loss = sum_all(mul(out, Tensor(proj)))
            backward(loss, tape)
            return [out.data, q.grad, k.grad, *(w.grad for w in ws), probs[0]]

        whole = run(math.prod(lead))
        for seqs in (1, 2, 3):
            chunked = run(seqs)
            assert len(autodiff._chunks(math.prod(lead), per_seq)) > 1
            for got, want in zip(chunked, whole):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("axis", [-2, -3])
    def test_worker_count_changes_no_bit(self, monkeypatch, axis):
        # 10 sequences in chunks of 4, 4 and 2: the caller runs the first two
        # chunks and a pooled thread the short last one, in the forward and
        # in the backward, and every result is the serial loop's bitwise
        rng = np.random.default_rng(21)
        n_heads, lq, lk = 2, 3, 4
        weights = attention_weights(rng, 4, 6, 4, d_out=3)
        query, keys = rng.normal(size=(2, 5, lq, 4)), rng.normal(size=(2, 5, lk, 4))
        proj = rng.normal(size=(2, 5, lq, 3))
        query, keys, proj = (np.swapaxes(a, axis, -2) for a in (query, keys, proj))
        monkeypatch.setattr(autodiff, "_CHUNK_SCORES", 4 * n_heads * lq * lk)
        assert [len(range(10)[ix]) for ix in autodiff._chunks(10, n_heads * lq * lk)] == [4, 4, 2]
        softmax, threads = autodiff._softmax_in_place, []

        def counted_softmax(*args):
            threads.append(threading.current_thread() is threading.main_thread())
            return softmax(*args)

        monkeypatch.setattr(autodiff, "_softmax_in_place", counted_softmax)

        def run(workers):
            monkeypatch.setattr(autodiff, "_WORKERS", workers)
            threads.clear()
            ws = [leaf(w.data) for w in weights]
            q, k = leaf(query), leaf(keys)
            probs = []
            with GradTape() as tape:
                out = attend(q, k, *ws, n_heads, axis=axis, probs=probs)
                loss = sum_all(mul(out, Tensor(proj)))
            backward(loss, tape)
            return [out.data, q.grad, k.grad, *(w.grad for w in ws), probs[0]]

        serial = run(1)
        assert threads == [True] * 6
        pooled = run(2)
        # chunk by chunk in each loop: caller, caller, pooled thread
        assert sorted(threads) == [False] * 2 + [True] * 4
        for got, want in zip(pooled, serial):
            assert np.array_equal(got, want)

    def test_errstate_reaches_the_pooled_chunks(self, monkeypatch):
        # the only scores that overflow are in the last of three chunks, which
        # a pooled thread runs; inf - inf in its softmax raises there as it
        # does in the serial loop
        rng = np.random.default_rng(22)
        weights = attention_weights(rng, 4, 4, 4)
        x = rng.normal(size=(5, 6, 4))
        monkeypatch.setattr(autodiff, "_CHUNK_SCORES", 2 * 2 * 6 * 6)
        assert len(autodiff._chunks(5, 2 * 6 * 6)) == 3
        with np.errstate(over="ignore", invalid="raise"):
            assert np.isfinite(attend(Tensor(x), Tensor(x), *weights, 2).data).all()
            x[4] *= 1e160
            for workers in (1, 2):
                monkeypatch.setattr(autodiff, "_WORKERS", workers)
                with pytest.raises(FloatingPointError):
                    attend(Tensor(x), Tensor(x), *weights, 2)

    def test_a_forked_child_runs_pooled_chunks(self, monkeypatch):
        # the child of a fork has none of its parent's pooled threads; a
        # chunk handed to the parent's pool there would never run
        monkeypatch.setattr(autodiff, "_CHUNK_SCORES", 1)
        weights = attention_weights(np.random.default_rng(23), 4, 4, 4)
        x = Tensor(np.random.default_rng(24).normal(size=(3, 5, 4)))
        want = attend(x, x, *weights, 2).data
        assert autodiff._pool is not None

        def child():
            os._exit(0 if np.array_equal(attend(x, x, *weights, 2).data, want) else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
        assert process.exitcode == 0

    def test_one_score_array_per_call(self):
        # the probabilities overwrite the scores: 8 heads x 64 x 64 is 256 KiB
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(64, 8)))
        weights = attention_weights(rng, 8, 8, 8)
        tracemalloc.start()
        try:
            attend(x, x, *weights, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 256 * 1024 <= peak < 2 * 256 * 1024


class TestBroadcastTo:
    def test_values_are_repeated_bitwise(self):
        a = np.array([[-0.0], [1.5]])
        out = broadcast_to(Tensor(a), (3, 2, 4)).data
        assert out.shape == (3, 2, 4)
        assert np.array_equal(out, np.broadcast_to(a, (3, 2, 4)))
        assert np.signbit(out[:, 0]).all()

    def test_same_shape_records_nothing(self):
        a = leaf(np.ones((2, 3)))
        with GradTape() as tape:
            out = broadcast_to(a, (2, 3))
        assert out is a
        assert tape.nodes == []

    def test_gradient_sums_the_repeats(self):
        a = leaf([1.0, 2.0])
        weights = Tensor(np.arange(6.0).reshape(3, 2))
        with GradTape() as tape:
            loss = sum_all(mul(broadcast_to(a, (3, 2)), weights))
        backward(loss, tape)
        assert np.array_equal(a.grad, [6.0, 9.0])

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (3, 2, 1)])
    def test_incompatible_shape(self, shape):
        with pytest.raises(ShapeError, match="cannot broadcast"):
            broadcast_to(Tensor(np.ones((2, 3))), shape)


class TestRelu:
    def test_definition(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_zeros(self):
        assert np.array_equal(relu(Tensor(np.zeros(4))).data, np.zeros(4))

    def test_subgradient(self):
        x = leaf([-1.0, 2.0])
        with GradTape() as tape:
            loss = sum_all(relu(x))
        backward(loss, tape)
        assert np.array_equal(x.grad, [0.0, 1.0])


class TestPointwiseConv:
    def test_zero_input_zero_bias(self):
        x = Tensor(np.zeros((2, 3, 4)))
        out = pointwise_conv(x, Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, np.zeros((2, 3, 2)))

    def test_scalar_affine(self):
        out = pointwise_conv(Tensor([[[3.0]]]), Tensor([[2.0]]), Tensor([-1.0]))
        assert out.data.item() == pytest.approx(5.0)

    def test_widens_channels(self):
        out = pointwise_conv(Tensor(np.ones((2, 4, 13))), Tensor(np.ones((13, 16))),
                             Tensor(np.zeros(16)))
        assert out.shape == (2, 4, 16)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            pointwise_conv(Tensor(np.ones((2, 3, 5))), Tensor(np.ones((4, 2))),
                           Tensor(np.zeros(2)))


class TestMaxpool:
    def test_factor_one_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        assert maxpool1d(x, 1) is x

    def test_constant_sequence(self):
        x = Tensor(np.full((6, 2), 3.5))
        out = maxpool1d(x, 3)
        assert np.array_equal(out.data, np.full((2, 2), 3.5))

    def test_hand_example(self):
        x = Tensor(np.array([1.0, 5.0, 2.0, 4.0, 4.0, 0.0]).reshape(6, 1))
        assert np.array_equal(maxpool1d(x, 3).data.ravel(), [5.0, 4.0])

    def test_indivisible_length_names_both(self):
        with pytest.raises(ConfigError, match="5.*not divisible.*3|3.*5"):
            maxpool1d(Tensor(np.ones((5, 1))), 3)

    def test_gradient_routes_to_first_max(self):
        x = leaf(np.array([1.0, 5.0, 2.0, 4.0, 4.0, 0.0]).reshape(6, 1))
        with GradTape() as tape:
            loss = sum_all(maxpool1d(x, 3))
        backward(loss, tape)
        assert np.array_equal(x.grad.ravel(), [0, 1, 0, 1, 0, 0])


class TestUpconv:
    def test_zero_input_broadcasts_bias(self):
        w = Tensor(np.ones((2, 1, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = upconv1d(Tensor(np.zeros((4, 1))), w, b)
        assert out.shape == (8, 3)
        assert np.array_equal(out.data, np.tile([1.0, 2.0, 3.0], (8, 1)))

    def test_kernel_replication(self):
        w = Tensor(np.array([1.0, 1.0]).reshape(2, 1, 1))
        out = upconv1d(Tensor([[5.0], [8.0]]), w, Tensor(np.zeros(1)))
        assert np.array_equal(out.data.ravel(), [5.0, 5.0, 8.0, 8.0])

    def test_length_contract(self):
        w = Tensor(np.ones((3, 2, 2)))
        out = upconv1d(Tensor(np.ones((2, 2))), w, Tensor(np.zeros(2)))
        assert out.shape == (6, 2)

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=30)
    def test_pool_then_upconv_restores_length(self, p, blocks, d):
        length = p * blocks
        x = Tensor(np.arange(float(length * d)).reshape(length, d))
        pooled = maxpool1d(x, p)
        w = Tensor(np.ones((p, d, d)))
        restored = upconv1d(pooled, w, Tensor(np.zeros(d)))
        assert restored.shape == (length, d)


class TestConcat:
    def test_singleton(self):
        a = Tensor(np.ones((2, 2)))
        assert concat([a], axis=0) is a

    def test_channels(self):
        a = Tensor(np.ones((2, 4, 16)))
        out = concat([a, a], axis=2)
        assert out.shape == (2, 4, 32)

    def test_vectors(self):
        out = concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_backward_splits(self):
        a, b = leaf(np.ones((2, 1))), leaf(np.ones((2, 2)))
        with GradTape() as tape:
            loss = sum_all(mul(concat([a, b], axis=1), Tensor([[1.0, 2.0, 3.0]] * 2)))
        backward(loss, tape)
        assert np.array_equal(a.grad, [[1.0], [1.0]])
        assert np.array_equal(b.grad, [[2.0, 3.0], [2.0, 3.0]])


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones(5))
        assert dropout(x, 0.0, True, RngStream(0)) is x

    def test_eval_identity(self):
        x = Tensor(np.ones(5))
        assert dropout(x, 0.9, False, None) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout(Tensor(np.ones(3)), 1.0, True, RngStream(0))

    def test_monte_carlo_mean(self):
        out = dropout(Tensor(np.ones(10000)), 0.5, True, RngStream(42))
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_survivors_scaled(self):
        out = dropout(Tensor(np.ones(1000)), 0.25, True, RngStream(7)).data
        assert set(np.unique(out)) <= {0.0, 1.0 / 0.75}

    def test_deterministic_given_seed(self):
        a = dropout(Tensor(np.ones(100)), 0.5, True, RngStream(3)).data
        b = dropout(Tensor(np.ones(100)), 0.5, True, RngStream(3)).data
        assert np.array_equal(a, b)


class TestBackward:
    def test_unused_leaf_gets_no_grad(self):
        x, y = leaf(np.ones(3)), leaf(np.ones(3))
        with GradTape() as tape:
            loss = sum_all(mul(x, x))
        backward(loss, tape)
        assert y.grad is None

    def test_mse_gradient_closed_form(self):
        rng = np.random.default_rng(1)
        y_hat, y = leaf(rng.normal(size=4)), rng.normal(size=4)
        with GradTape() as tape:
            diff = add(y_hat, Tensor(-y))
            loss = mul(sum_all(mul(diff, diff)), Tensor(np.asarray(1.0 / 4)))
        backward(loss, tape)
        assert np.allclose(y_hat.grad, 2.0 * (y_hat.data - y) / 4)

    def test_relu_blocks_negative_chain(self):
        x = leaf([-2.0])
        with GradTape() as tape:
            loss = sum_all(relu(x))
        backward(loss, tape)
        assert np.array_equal(x.grad, [0.0])

    def test_accumulation_over_reuse(self):
        x = leaf([2.0, 3.0])
        c = Tensor([4.0, 5.0])
        with GradTape() as tape:
            loss = sum_all(add(mul(x, c), x))
        backward(loss, tape)
        assert np.array_equal(x.grad, [5.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = leaf(np.ones(3))
        with GradTape() as tape:
            y = mul(x, x)
        with pytest.raises(ContractError):
            backward(y, tape)

    def test_replay_consumes_the_tape(self):
        x, c = leaf([2.0, 3.0]), leaf([4.0, 5.0])
        with GradTape() as tape:
            hidden = mul(x, c)
            loss = sum_all(add(hidden, x))
        backward(loss, tape)
        assert tape.nodes == [] and tape.replayed
        assert hidden.grad is None and loss.grad is None
        assert np.array_equal(x.grad, [5.0, 6.0])
        assert np.array_equal(c.grad, [2.0, 3.0])

    def test_second_replay_is_refused(self):
        x = leaf([2.0, 3.0])
        with GradTape() as tape:
            loss = sum_all(mul(x, x))
        backward(loss, tape)
        with pytest.raises(ContractError, match="already been replayed"):
            backward(loss, tape)
        assert np.array_equal(x.grad, [4.0, 6.0])

    @pytest.mark.parametrize("k", [4, 32])
    def test_replay_memory_does_not_grow_with_the_chain(self, k):
        # a chain of k elementwise ops on a 1 MB array: a replay that kept
        # every intermediate gradient would peak k MB above its start
        x = leaf(np.ones(131_072))
        with GradTape() as tape:
            y = x
            for _ in range(k):
                y = mul(y, Tensor(1.5))
            loss = sum_all(y)
        del y
        tracemalloc.start()
        try:
            backward(loss, tape)
            start, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert x.grad[0] == 1.5 ** k

    def test_replay_frees_attention_output_gradient_and_context(self, monkeypatch):
        # 256 sequences of 32 steps in one chunk: the attention output, its
        # gradient and the heads' contexts are 1 MiB each, the probabilities
        # 2 MiB. Counted from before the forward, the backward peaks at 9.6
        # MiB while it holds none of the three once used, and at 10.6 MiB if
        # the output gradient or the contexts stay alive through its loop
        monkeypatch.setattr(autodiff, "_CHUNK_SCORES", 256 * 32 * 32)
        rng = np.random.default_rng(16)
        x = leaf(rng.normal(size=(256, 32, 2)) / 4)
        weights = attention_weights(rng, 2, 1, 16, d_out=16)
        tracemalloc.start()
        try:
            with GradTape() as tape:
                loss = sum_all(attend(x, x, *weights, 1))
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_attention_keeps_its_inputs_not_its_projections(self):
        # at the shape above the output and the heads' contexts are 1 MiB
        # each and the score stats 128 KiB; keeping the gathered rows, q, k
        # and v as well would record 1.25 MiB more
        rng = np.random.default_rng(16)
        x = leaf(rng.normal(size=(256, 32, 2)) / 4)
        weights = attention_weights(rng, 2, 1, 16, d_out=16)
        tracemalloc.start()
        try:
            with GradTape() as tape:
                out = attend(x, x, *weights, 1)
            recorded = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1 and tape.nodes[0].output is out
        assert recorded < 2.5 * 2**20


class TestMix:
    def test_equals_matmul(self):
        rng = np.random.default_rng(5)
        w, v = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        assert np.allclose(mix(Tensor(w), Tensor(v)).data, w @ v)

    def test_bitwise_invariant_to_contraction_order(self):
        rng = np.random.default_rng(6)
        w, v = rng.normal(size=(3, 7)), rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        out = mix(Tensor(w), Tensor(v)).data
        out_p = mix(Tensor(w[:, perm]), Tensor(v[perm])).data
        assert np.array_equal(out, out_p)


def attend_instance(rng, i: int, lead: tuple[int, ...]):
    """Grad-check instance `i` of `attend` over the leading axes `lead`:
    the scalar function of the probed input, that input, and the scores
    one sequence has. The probe is each input in turn (query, keys, wq,
    wk, wv, wo), and for every seventh instance one tensor that is both
    query and keys; every fourth duplicates a key row."""
    probe, self_attention = i % 7, i % 7 == 6
    axis = -3 if lead and i // 7 % 2 else -2
    n_heads, d = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    dk, dv, d_out = (int(n) for n in rng.integers(1, 3, size=3))
    lk = int(rng.integers(1, 5))
    lq = lk if self_attention else int(rng.integers(1, 4))
    kv = rng.normal(size=lead + (lk, d))
    if lk > 1 and i % 4 == 0:
        kv[..., 1, :] = kv[..., 0, :]
    # drawn in sequence layout, (..., L, d), then swapped to the caller's
    inputs = [rng.normal(size=lead + (lq, d)), kv,
              *(rng.normal(size=(d, n_heads * w)) for w in (dk, dk, dv)),
              rng.normal(size=(n_heads * dv, d_out))]
    if self_attention:
        inputs[0], probe = kv, 1
    inputs[:2] = (np.swapaxes(a, axis, -2) for a in inputs[:2])
    proj = Tensor(np.swapaxes(rng.normal(size=lead + (lq, d_out)), axis, -2))

    def f(x):
        args = [Tensor(a) for a in inputs]
        args[probe] = x
        if self_attention:
            args[0] = x
        return sum_all(mul(attend(*args, n_heads, axis=axis), proj))

    return f, Tensor(inputs[probe]), n_heads * lq * lk


class TestGradCheck:
    def test_sum_is_exact(self):
        report = grad_check(sum_all, Tensor(np.arange(6.0).reshape(2, 3)))
        assert report.passed and report.max_rel_error < 1e-9

    def test_matmul_chain(self):
        rng = np.random.default_rng(7)
        b = Tensor(rng.normal(size=(3, 3)))
        target = rng.normal(size=(3, 3))

        def f(x):
            diff = add(matmul(x, b), Tensor(-target))
            return mul(sum_all(mul(diff, diff)), Tensor(np.asarray(1.0 / 9)))

        assert grad_check(f, Tensor(rng.normal(size=(3, 3)))).passed

    def test_softmax_dot(self):
        rng = np.random.default_rng(8)
        probe = Tensor(rng.normal(size=4))
        weights = Tensor(rng.normal(size=4))
        assert grad_check(lambda x: sum_all(mul(softmax_rows(x), weights)), probe).passed

    def test_attend_100_instances(self):
        # self and cross attention, 0-2 extra leading axes, Lq != Lk,
        # duplicated key rows; inputs of rank 3 or more attend along axis -2
        # or, every other round of probes, -3
        rng = np.random.default_rng(10)
        for i in range(140):
            lead = tuple(int(n) for n in rng.integers(1, 3, size=rng.integers(0, 3)))
            f, x, _ = attend_instance(rng, i, lead)
            report = grad_check(f, x, eps=1e-5, tol=1e-4)
            assert report.passed, (i, report.max_rel_error)

    @pytest.mark.parametrize("seqs", [1, 2])
    def test_attend_in_chunks_42_instances(self, monkeypatch, seqs):
        # as above on 5 or 6 sequences, run `seqs` whole sequences at a time
        rng = np.random.default_rng(20 + seqs)
        for i in range(42):
            f, x, scores_per_seq = attend_instance(rng, i, ((2, 3), (5,), (3, 2))[i % 3])
            monkeypatch.setattr(autodiff, "_CHUNK_SCORES", seqs * scores_per_seq)
            report = grad_check(f, x, eps=1e-5, tol=1e-4)
            assert report.passed, (i, report.max_rel_error)

    def test_broadcast_to_100_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            shape = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(1, 4)))
            lead = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(0, 3)))
            target = lead + tuple(int(rng.integers(1, 4)) if n == 1 else n for n in shape)
            proj = Tensor(rng.normal(size=target))
            report = grad_check(lambda x: sum_all(mul(broadcast_to(x, target), proj)),
                                Tensor(rng.normal(size=shape)), eps=1e-5, tol=1e-4)
            assert report.passed, report.max_rel_error

    def test_softmax_100_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
            proj = Tensor(rng.normal(size=shape))
            report = grad_check(lambda x: sum_all(mul(softmax_rows(x), proj)),
                                Tensor(rng.normal(size=shape)), eps=1e-5, tol=1e-4)
            assert report.passed, report.max_rel_error

    def test_non_finite_rejected(self):
        def f(x):
            y = mul(x, x)
            y.data[...] = np.inf
            return sum_all(y)

        with pytest.raises(OracleError):
            grad_check(f, Tensor(np.ones(2)))


class TestDeterminism:
    def test_forward_ops_are_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 6))
        first = softmax_rows(Tensor(a)).data
        second = softmax_rows(Tensor(a.copy())).data
        assert np.array_equal(first, second)

    def test_rng_stream_reproducible(self):
        a = RngStream(123).normal((50,))
        b = RngStream(123).normal((50,))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, RngStream(124).normal((50,)))

    def test_child_streams_are_independent(self):
        root = RngStream(7)
        assert not np.array_equal(root.child(0).normal((10,)), root.child(1).normal((10,)))
        assert np.array_equal(root.child(3).normal((10,)), RngStream(7).child(3).normal((10,)))


# each op applied to its tensor arguments, and the shapes of those arguments;
# the identity shortcuts (one-tensor concat, p = 1 pooling, same-shape
# broadcast, eval dropout) record nothing and are left out
OP_CASES = {
    "add": (add, [(2, 3), (3,)]),
    "mul": (mul, [(2, 3), (2, 3)]),
    "matmul": (matmul, [(4, 2, 3), (3, 5)]),
    "matmul_stacked": (matmul, [(4, 2, 3), (4, 3, 5)]),
    "mix": (mix, [(2, 3), (3, 4)]),
    "attend": (lambda *t: attend(*t, n_heads=2),
               [(2, 3, 4), (2, 5, 4), (4, 2), (4, 2), (4, 2), (2, 4)]),
    "reshape": (lambda a: reshape(a, (3, 2)), [(2, 3)]),
    "broadcast_to": (lambda a: broadcast_to(a, (2, 3)), [(1, 3)]),
    "relu": (relu, [(2, 3)]),
    "softmax_rows": (softmax_rows, [(2, 3)]),
    "concat": (lambda *t: concat(t, axis=-1), [(2, 3), (2, 1)]),
    "maxpool1d": (lambda x: maxpool1d(x, 2), [(4, 2)]),
    "upconv1d": (upconv1d, [(3, 2), (2, 2, 3), (3,)]),
    "dropout": (lambda x: dropout(x, 0.5, True, RngStream(0)), [(2, 3)]),
    "sum_all": (sum_all, [(2, 3)]),
}


class TestOpContract:
    @pytest.mark.parametrize("name", list(OP_CASES))
    def test_output_requires_grad_and_is_recorded_on_the_innermost_tape(self, name):
        op, shapes = OP_CASES[name]
        rng = np.random.default_rng(0)

        def args(*flags):
            return [Tensor(rng.normal(size=s), f) for s, f in zip(shapes, flags)]

        # one input that requires a gradient is enough
        inputs = args(*(i == len(shapes) - 1 for i in range(len(shapes))))
        with GradTape() as outer, GradTape() as tape:
            out = op(*inputs)
        assert out.requires_grad and outer.nodes == [] and len(tape.nodes) == 1
        node = tape.nodes[0]
        assert node.output is out and len(node.inputs) == len(inputs)
        assert all(a is b for a, b in zip(node.inputs, inputs))

        with GradTape() as tape:
            out = op(*args(*[False] * len(shapes)))
        assert not out.requires_grad and tape.nodes == []

        # outside any tape the output still requires a gradient, unrecorded
        out = op(*args(*[True] * len(shapes)))
        assert out.requires_grad and tape.nodes == [] and outer.nodes == []


class TestTensorInvariants:
    def test_grad_matches_shape(self):
        x = leaf(np.ones((2, 3)))
        with GradTape() as tape:
            loss = sum_all(mul(x, x))
        backward(loss, tape)
        assert x.grad.shape == x.data.shape

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((0, 3)))

    @given(finite_arrays)
    def test_forward_ops_stay_finite(self, a):
        assert np.all(np.isfinite(softmax_rows(Tensor(a)).data))
        assert np.all(np.isfinite(relu(Tensor(a)).data))

    def test_reshape_roundtrip(self):
        x = leaf(np.arange(24.0).reshape(2, 3, 4))
        with GradTape() as tape:
            z = reshape(x, (4, 6))
            loss = sum_all(mul(z, z))
        backward(loss, tape)
        assert np.allclose(x.grad, 2 * x.data)
