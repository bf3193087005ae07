import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsttn.data import NormStats, SampleWindow, apply_zscore, fit_zscore, make_windows, \
    synth_generate
from hsttn.errors import EvaluationError
from hsttn.evaluation import (
    MetricReport,
    _error_sums,
    evaluate_model,
    evaluate_persistence,
    masked_mae,
    masked_rmse,
    persistence_forecast,
    predict_window,
)
from hsttn.model import HSTTN, ModelConfig


def brute_force_metrics(y, y_hat, mask):
    """Straight double-sum recomputation over concatenated raw arrays."""
    n = y.shape[0]
    y, y_hat, mask = (a.reshape(n, -1) for a in (y, y_hat, np.asarray(mask)))
    mae = rmse = 0.0
    for t in range(n):
        errs = y[t][mask[t]] - y_hat[t][mask[t]]
        if errs.size == 0:
            continue
        mae += np.abs(errs).mean()
        rmse += np.sqrt((errs ** 2).mean())
    return mae, rmse


class TestHandExamples:
    def test_perfect_prediction(self):
        y = np.random.default_rng(0).normal(size=(3, 5))
        mask = np.ones((3, 5), dtype=bool)
        assert masked_mae(y, y, mask) == 0.0
        assert masked_rmse(y, y, mask) == 0.0

    def test_two_turbine_mae(self):
        y = np.zeros((2, 2))
        y_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
        mask = np.ones((2, 2), dtype=bool)
        assert masked_mae(y, y_hat, mask) == pytest.approx(1.0)

    def test_two_turbine_rmse(self):
        y = np.zeros((2, 2))
        y_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
        mask = np.ones((2, 2), dtype=bool)
        assert masked_rmse(y, y_hat, mask) == pytest.approx(np.sqrt(0.5) * 2, abs=1e-5)

    def test_masking_zero_error_cells(self):
        y = np.zeros((2, 2))
        y_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
        mask = np.array([[False, True], [True, False]])
        assert masked_mae(y, y_hat, mask) == pytest.approx(2.0)
        assert masked_rmse(y, y_hat, mask) == pytest.approx(2.0)

    def test_single_turbine_rmse(self):
        y = np.zeros((1, 2))
        y_hat = np.array([[3.0, 4.0]])
        mask = np.ones((1, 2), dtype=bool)
        assert masked_rmse(y, y_hat, mask) == pytest.approx(np.sqrt(12.5), abs=1e-5)


class TestMetricProperties:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        y = rng.normal(size=(n, m))
        y_hat = rng.normal(size=(n, m))
        mask = rng.random((n, m)) > 0.3
        mask[:, 0] = True
        mae_ref, rmse_ref = brute_force_metrics(y, y_hat, mask)
        assert abs(masked_mae(y, y_hat, mask) - mae_ref) < 1e-9
        assert abs(masked_rmse(y, y_hat, mask) - rmse_ref) < 1e-9

    def test_masked_cells_do_not_matter(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(3, 10))
        y_hat = rng.normal(size=(3, 10))
        mask = rng.random((3, 10)) > 0.4
        mask[:, 0] = True
        base = (masked_mae(y, y_hat, mask), masked_rmse(y, y_hat, mask))
        y_mut = y.copy()
        y_mut[~mask] = 1e9
        mutated = (masked_mae(y_mut, y_hat, mask), masked_rmse(y_mut, y_hat, mask))
        assert base == mutated

    def test_turbine_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y, y_hat = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        mask = np.ones((4, 8), dtype=bool)
        perm = rng.permutation(4)
        assert masked_mae(y, y_hat, mask) == pytest.approx(
            masked_mae(y[perm], y_hat[perm], mask[perm]), abs=1e-12)
        assert masked_rmse(y, y_hat, mask) == pytest.approx(
            masked_rmse(y[perm], y_hat[perm], mask[perm]), abs=1e-12)

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=25)
    def test_positive_homogeneity(self, c):
        rng = np.random.default_rng(3)
        y, y_hat = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        mask = np.ones((3, 6), dtype=bool)
        assert masked_mae(c * y, c * y_hat, mask) == pytest.approx(
            c * masked_mae(y, y_hat, mask))
        assert masked_rmse(c * y, c * y_hat, mask) == pytest.approx(
            c * masked_rmse(y, y_hat, mask))

    def test_per_turbine_rmse_dominates_mae(self):
        rng = np.random.default_rng(4)
        y, y_hat = rng.normal(size=(5, 20)), rng.normal(size=(5, 20))
        mask = np.ones((5, 20), dtype=bool)
        report = MetricReport.from_sums(*_error_sums(y, y_hat, mask), "kW", 1)
        assert np.all(report.per_turbine_rmse >= report.per_turbine_mae - 1e-12)

    def test_turbine_with_no_valid_cells_is_excluded_and_reported(self):
        y = np.ones((2, 4))
        y_hat = np.zeros((2, 4))
        mask = np.array([[True] * 4, [False] * 4])
        report = MetricReport.from_sums(*_error_sums(y, y_hat, mask), "kW", 1)
        assert report.excluded_turbines == [1]
        assert report.mae == pytest.approx(1.0)
        assert np.isnan(report.per_turbine_mae[1])

    def test_all_invalid_rejected(self):
        with pytest.raises(EvaluationError):
            masked_mae(np.ones((2, 3)), np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))

    @pytest.mark.parametrize("metric", [masked_mae, masked_rmse])
    def test_mask_of_another_shape_rejected(self, metric):
        y = np.ones((3, 4))
        for mask in (np.ones((2, 4), dtype=bool), np.ones((4, 3), dtype=bool)):
            with pytest.raises(EvaluationError, match=r"mask shape \(\d, \d\) does not match"):
                metric(y, np.zeros((3, 4)), mask)

    @pytest.mark.parametrize("metric", [masked_mae, masked_rmse])
    @pytest.mark.parametrize("shape", [(0, 4), (0,), ()])
    def test_no_turbines_rejected(self, metric, shape):
        with pytest.raises(EvaluationError, match="hold no turbines"):
            metric(np.ones(shape), np.zeros(shape), np.ones(shape, dtype=bool))


def trained_free_model():
    cfg = ModelConfig(n_turbines=2, history_len=6, horizon_len=6, n_channels=3,
                      d_model=4, n_heads=2, pool_factors=(3,), dropout_rate=0.0)
    return HSTTN(cfg, seed=8)


class TestEvaluateModel:
    def setup_method(self):
        self.rs = synth_generate(2, 160, 3, seed=9)
        self.stats = fit_zscore(self.rs, (0, 120))
        self.normed = apply_zscore(self.rs, self.stats)
        self.windows = make_windows(self.normed, 6, 6, 6, start=120, end=160)
        self.model = trained_free_model()

    def test_streamed_equals_brute_force(self):
        target = self.rs.target_index
        report = evaluate_model(self.model, self.windows, self.stats, target)
        preds, truths, masks = [], [], []
        for w in self.windows:
            preds.append(predict_window(self.model, w, self.stats, target))
            truths.append(self.stats.invert(w.future_target[:, :, 0], target))
            masks.append(w.future_validity)
        y = np.concatenate(truths, axis=1)
        y_hat = np.concatenate(preds, axis=1)
        mask = np.concatenate(masks, axis=1)
        mae_ref, rmse_ref = brute_force_metrics(y, y_hat, mask)
        assert abs(report.mae - mae_ref) < 1e-9
        assert abs(report.rmse - rmse_ref) < 1e-9

    def test_perfect_oracle_scores_zero(self):
        target = self.rs.target_index

        class Oracle:
            config = self.model.config

            def forward(self, x, **kw):
                raise NotImplementedError

        # feed each window's truth back as the prediction
        sums = (np.zeros(2), np.zeros(2), np.zeros(2, dtype=np.int64))
        for w in self.windows:
            truth = self.stats.invert(w.future_target[:, :, 0], target)
            for total, part in zip(sums, _error_sums(truth, truth, w.future_validity)):
                total += part
        report = MetricReport.from_sums(*sums, "kW", len(self.windows))
        assert report.mae == 0.0 and report.rmse == 0.0

    def test_megawatt_scaling(self):
        target = self.rs.target_index
        kw = evaluate_model(self.model, self.windows, self.stats, target)
        mw = evaluate_model(self.model, self.windows, self.stats, target, megawatts=True)
        assert mw.unit == "MW"
        assert mw.mae == pytest.approx(kw.mae / 1000.0)
        assert mw.rmse == pytest.approx(kw.rmse / 1000.0)

    def test_empty_window_set_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_model(self.model, [], self.stats, 0)


class TestPersistence:
    def test_repeats_last_observation(self):
        stats = NormStats(mean=np.array([0.0, 10.0]), std=np.array([1.0, 2.0]))
        history = np.zeros((2, 4, 2))
        history[:, -1, 1] = [1.0, 2.0]
        w = SampleWindow(history=history, future_target=np.zeros((2, 3, 1)),
                         future_validity=np.ones((2, 3), dtype=bool), origin=4)
        out = persistence_forecast(w, stats, target_channel=1)
        assert np.array_equal(out, [[12.0] * 3, [14.0] * 3])

    def test_persistence_report_runs(self):
        rs = synth_generate(2, 100, 3, seed=10)
        stats = fit_zscore(rs, (0, 80))
        normed = apply_zscore(rs, stats)
        windows = make_windows(normed, 6, 6, 6)
        report = evaluate_persistence(windows, stats, rs.target_index)
        assert report.mae > 0
