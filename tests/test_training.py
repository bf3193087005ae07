import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsttn.autodiff import GradTape, Tensor, add, backward, mul
from hsttn.data import apply_zscore, fit_zscore, make_windows, synth_generate
from hsttn.errors import ConfigError, DatasetError, TrainingError
from hsttn.model import HSTTN, ModelConfig
from hsttn.training import (
    AdamState,
    TrainConfig,
    adam_step,
    lr_schedule,
    mse_loss,
    train,
    validation_loss,
)


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestMseLoss:
    def test_zero_on_match(self):
        y = np.random.default_rng(0).normal(size=(2, 3, 1))
        loss = mse_loss(Tensor(y), y, np.ones((2, 3), dtype=bool))
        assert loss.data.item() == 0.0

    def test_hand_value(self):
        y_hat = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1))
        loss = mse_loss(y_hat, np.zeros((1, 2, 1)), np.ones((1, 2), dtype=bool))
        assert loss.data.item() == pytest.approx(5.0)

    def test_hand_value_masked(self):
        y_hat = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1))
        loss = mse_loss(y_hat, np.zeros((1, 2, 1)), np.array([[True, False]]))
        assert loss.data.item() == pytest.approx(1.0)

    def test_invariant_to_masked_values(self):
        rng = np.random.default_rng(1)
        y_hat = Tensor(rng.normal(size=(3, 4, 1)))
        y = rng.normal(size=(3, 4, 1))
        mask = rng.random((3, 4)) > 0.4
        mask[0, 0] = True
        base = mse_loss(y_hat, y, mask).data.item()
        mutated = y.copy()
        mutated[~mask] = 1e6
        assert mse_loss(y_hat, mutated, mask).data.item() == base

    def test_zero_valid_rejected(self):
        with pytest.raises(TrainingError):
            mse_loss(Tensor(np.ones((1, 2, 1))), np.ones((1, 2, 1)),
                     np.zeros((1, 2), dtype=bool))

    def test_batch_is_mean_of_window_losses(self):
        rng = np.random.default_rng(3)
        y_hat = rng.normal(size=(5, 3, 4, 1))
        y = rng.normal(size=(5, 3, 4, 1))
        mask = rng.random((5, 3, 4)) > 0.5
        mask[:, 0, 0] = True
        mask[2] = True
        batched = mse_loss(Tensor(y_hat), y, mask).data.item()
        windows = [mse_loss(Tensor(y_hat[i]), y[i], mask[i]).data.item() for i in range(5)]
        assert batched == pytest.approx(np.mean(windows), rel=1e-12, abs=0.0)

    def test_batch_gradient_closed_form(self):
        rng = np.random.default_rng(4)
        y_hat = leaf(rng.normal(size=(3, 2, 4, 1)))
        y = rng.normal(size=(3, 2, 4, 1))
        mask = rng.random((3, 2, 4)) > 0.3
        mask[:, 0, 0] = True
        with GradTape() as tape:
            loss = mse_loss(y_hat, y, mask)
        backward(loss, tape)
        counts = mask.sum(axis=(1, 2))[:, None, None, None]
        expected = 2.0 * (y_hat.data - y) * mask[..., None] / (counts * 3)
        assert np.allclose(y_hat.grad, expected, rtol=1e-12, atol=0.0)

    def test_batch_with_an_all_masked_window_rejected(self):
        mask = np.ones((3, 2, 4), dtype=bool)
        mask[1] = False
        with pytest.raises(TrainingError, match="zero valid positions"):
            mse_loss(Tensor(np.ones((3, 2, 4, 1))), np.zeros((3, 2, 4, 1)), mask)

    @pytest.mark.parametrize("y_shape, mask_shape", [((2, 4, 1), (2, 3)), ((4, 1), (4,))])
    def test_mask_shape_checked(self, y_shape, mask_shape):
        with pytest.raises(TrainingError, match="must be"):
            mse_loss(Tensor(np.ones(y_shape)), np.ones(y_shape), np.ones(mask_shape, bool))

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(2)
        y_hat = leaf(rng.normal(size=(2, 3, 1)))
        y = rng.normal(size=(2, 3, 1))
        mask = np.ones((2, 3), dtype=bool)
        with GradTape() as tape:
            loss = mse_loss(y_hat, y, mask)
        backward(loss, tape)
        assert np.allclose(y_hat.grad, 2.0 * (y_hat.data - y) / 6)


class TestAdam:
    def test_zero_gradient_is_noop_for_fresh_moments(self):
        p = leaf([1.5, -2.0])
        p.grad = np.zeros(2)
        state = AdamState.init({"w": p})
        state.v["w"] = np.array([0.5, 3.0])
        state.t = 10
        adam_step({"w": p}, state, 0.1)
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_first_step_closed_form(self):
        p = leaf(np.zeros(()))
        p.grad = np.ones(())
        state = AdamState.init({"w": p})
        adam_step({"w": p}, state, 1e-3)
        assert p.data.item() == pytest.approx(-9.99999995e-4, abs=1e-12)

    def test_nan_gradient_names_parameter(self):
        p = leaf(np.zeros(3))
        p.grad = np.array([0.0, np.nan, 0.0])
        state = AdamState.init({"w": p})
        with pytest.raises(TrainingError, match="'w'"):
            adam_step({"w": p}, state, 1e-3)

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(3)
            p = leaf(np.ones(4))
            state = AdamState.init({"w": p})
            for _ in range(20):
                p.grad = rng.normal(size=4)
                adam_step({"w": p}, state, 1e-2)
            return p.data

        assert np.array_equal(run(), run())

    def test_moments_stay_nonnegative(self):
        p = leaf(np.ones(4))
        state = AdamState.init({"w": p})
        rng = np.random.default_rng(4)
        for _ in range(10):
            p.grad = rng.normal(size=4)
            adam_step({"w": p}, state, 1e-2)
        assert np.all(state.v["w"] >= 0)
        assert state.t == 10


class TestSchedule:
    def test_reference_initial(self):
        assert lr_schedule(0, TrainConfig(initial_lr=1e-4)) == 1e-4

    def test_halving(self):
        assert lr_schedule(1, TrainConfig(initial_lr=1e-4, lr_decay=0.5)) == 5e-5

    def test_constant(self):
        cfg = TrainConfig(initial_lr=2e-3, lr_decay=1.0)
        assert lr_schedule(7, cfg) == 2e-3


def tiny_setup(seed=0, n_timestamps=140):
    rs = synth_generate(2, n_timestamps, 3, seed=seed)
    stats = fit_zscore(rs, (0, 100))
    normed = apply_zscore(rs, stats)
    train_w = make_windows(normed, 6, 6, 4, start=0, end=100)
    val_w = make_windows(normed, 6, 6, 12, start=100, end=n_timestamps)
    cfg = ModelConfig(n_turbines=2, history_len=6, horizon_len=6, n_channels=3,
                      d_model=4, n_heads=2, pool_factors=(3,), dropout_rate=0.0)
    return cfg, stats, train_w, val_w


def scripted_run(losses, patience):
    """Train with `validation_loss` replaced by `losses` in order: the
    initial pass reads losses[0] and epoch e reads losses[e]."""
    cfg, stats, train_w, val_w = tiny_setup()
    script = iter(losses)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("hsttn.training.validation_loss", lambda *args: next(script))
        tc = TrainConfig(initial_lr=1e-3, max_epochs=len(losses) - 1, patience=patience)
        return train(HSTTN(cfg, seed=0), train_w[:1], val_w, tc, stats)


class TestEarlyStopping:
    def test_plateau_stops_patience_after_best(self):
        best, records = scripted_run([3.0, 2.0, 2.5, 2.0, 2.0, 1.0, 0.5], patience=3)
        assert best.epoch == 1 and best.val_loss == 2.0
        assert [r.epoch for r in records] == [1, 2, 3, 4]

    def test_strictly_decreasing_runs_every_epoch(self):
        best, records = scripted_run([9.0, 8.0, 7.0, 6.0, 5.0], patience=1)
        assert len(records) == 4
        assert best.epoch == 4 and best.val_loss == 5.0

    def test_equal_loss_is_not_an_improvement(self):
        best, records = scripted_run([1.0, 1.0, 1.0, 0.5], patience=2)
        assert best.epoch == 0
        assert len(records) == 2

    @given(st.lists(st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.1, 10.0),
                    min_size=1, max_size=9), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_stops_at_first_stale_epoch(self, losses, patience):
        best, records = scripted_run(losses, patience)
        n = len(records)
        # the best of epochs 0..k is the first epoch reaching their minimum
        stale = [k - int(np.argmin(losses[:k + 1])) >= patience for k in range(len(losses))]
        assert not any(stale[:n])
        assert n == len(losses) - 1 or stale[n]
        assert best.epoch == int(np.argmin(losses[:n + 1]))
        assert [r.val_loss for r in records] == losses[1:n + 1]


class TestTrainLoop:
    def test_zero_epochs_returns_init(self):
        cfg, stats, train_w, val_w = tiny_setup()
        model = HSTTN(cfg, seed=1)
        init_params = model.params.state_arrays()
        ckpt, records = train(model, train_w, val_w,
                              TrainConfig(max_epochs=0, initial_lr=1e-3), stats)
        assert records == []
        assert ckpt.epoch == 0
        for name, arr in init_params.items():
            assert np.array_equal(ckpt.parameters[name], arr)

    def test_deterministic_checkpoints(self):
        def run():
            cfg, stats, train_w, val_w = tiny_setup()
            model = HSTTN(cfg, seed=2)
            tc = TrainConfig(initial_lr=2e-3, max_epochs=3, batch_size=4, seed=2)
            ckpt, _ = train(model, train_w, val_w, tc, stats)
            return ckpt

        a, b = run(), run()
        assert a.val_loss == b.val_loss
        for name in a.parameters:
            assert np.array_equal(a.parameters[name], b.parameters[name])

    def test_best_checkpoint_dominates_history(self):
        cfg, stats, train_w, val_w = tiny_setup(seed=5)
        model = HSTTN(cfg, seed=3)
        tc = TrainConfig(initial_lr=2e-3, max_epochs=5, batch_size=4, seed=3)
        ckpt, records = train(model, train_w, val_w, tc, stats)
        assert all(ckpt.val_loss <= r.val_loss for r in records)

    def test_checkpoint_val_loss_reproducible(self):
        cfg, stats, train_w, val_w = tiny_setup(seed=6)
        model = HSTTN(cfg, seed=4)
        tc = TrainConfig(initial_lr=2e-3, max_epochs=3, batch_size=4, seed=4)
        ckpt, _ = train(model, train_w, val_w, tc, stats)
        restored = HSTTN(cfg)
        restored.params.load_arrays(ckpt.parameters)
        assert abs(validation_loss(restored, val_w) - ckpt.val_loss) < 1e-9

    @pytest.mark.parametrize("batch_size", [1, 3, 4, 64])
    def test_chunked_validation_loss_is_mean_of_window_losses(self, batch_size):
        cfg, stats, train_w, val_w = tiny_setup(seed=8)
        model = HSTTN(cfg, seed=6)
        reference = np.mean([
            mse_loss(model.forward(Tensor(w.history)), w.future_target,
                     w.future_validity).data.item() for w in train_w])
        assert validation_loss(model, train_w, batch_size) == pytest.approx(
            reference, rel=1e-12, abs=0.0)

    def test_batch_step_gradient_is_mean_of_window_gradients(self):
        cfg, stats, train_w, val_w = tiny_setup(seed=9)
        model = HSTTN(cfg, seed=7)
        batch = train_w[:4]
        params = model.params.trainable()

        def gradients(losses):
            model.params.zero_grad()
            with GradTape() as tape:
                total = None
                for x, y, mask in losses:
                    wl = mse_loss(model.forward(Tensor(x)), y, mask)
                    total = wl if total is None else add(total, wl)
                backward(mul(total, Tensor(1.0 / len(losses))), tape)
            return {k: p.grad.copy() for k, p in params.items()}

        batched = gradients([(np.stack([w.history for w in batch]),
                              np.stack([w.future_target for w in batch]),
                              np.stack([w.future_validity for w in batch]))])
        per_window = gradients([(w.history, w.future_target, w.future_validity)
                                for w in batch])
        for name in params:
            assert np.allclose(batched[name], per_window[name], rtol=1e-9, atol=1e-15), name

    def test_training_reduces_loss(self):
        cfg, stats, train_w, val_w = tiny_setup(seed=7)
        model = HSTTN(cfg, seed=5)
        before = validation_loss(model, train_w)
        tc = TrainConfig(initial_lr=5e-3, lr_decay=1.0, max_epochs=10,
                         batch_size=4, patience=100, seed=5)
        train(model, train_w, val_w, tc, stats)
        after = validation_loss(model, train_w)
        assert after < before

    def test_empty_train_windows_rejected(self):
        cfg, stats, train_w, val_w = tiny_setup()
        model = HSTTN(cfg, seed=6)
        for w in train_w:
            w.future_validity[:] = False
        with pytest.raises(DatasetError):
            train(model, train_w, val_w, TrainConfig(max_epochs=1), stats)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(initial_lr=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)
