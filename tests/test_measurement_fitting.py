"""Tests for demand fitting: shape selection and separable reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import application_by_name
from repro.apps.demand import LogTerm
from repro.errors import FittingError, MeasurementError
from repro.measurement import fitting
from repro.measurement.baseline import DemandSamples, measure_demand_grid
from repro.measurement.fitting import fit_separable_demand, fit_term
from repro.measurement.perf import PerfCounter


class TestFitTerm:
    def test_recovers_linear(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_term(x, 3.0 * x)
        assert fit.kind in ("linear", "power")
        np.testing.assert_allclose(fit.term(x), 3.0 * x, rtol=1e-6)

    def test_recovers_quadratic(self):
        x = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        y = 314.0 + 0.574 * x**2
        fit = fit_term(x, y)
        assert fit.kind == "quadratic"
        assert fit.r2 > 0.999

    def test_recovers_power_two(self):
        x = np.array([8192.0, 16384.0, 32768.0, 65536.0])
        y = 3.1e-7 * x**2
        fit = fit_term(x, y)
        assert fit.kind in ("power", "quadratic")
        np.testing.assert_allclose(fit.term(x), y, rtol=1e-4)

    def test_recovers_log(self):
        x = np.array([0.01, 0.04, 0.16, 0.32, 0.64, 1.0])
        y = 2.5 * np.log1p(x / 0.08)
        fit = fit_term(x, y)
        assert fit.kind == "log"
        assert fit.r2 > 0.999

    def test_constant_response(self):
        x = np.array([1.0, 2.0, 3.0])
        fit = fit_term(x, np.full(3, 5.0))
        assert fit.kind == "constant"

    def test_too_few_samples(self):
        with pytest.raises(FittingError):
            fit_term(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_duplicate_x_rejected(self):
        with pytest.raises(FittingError):
            fit_term(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(FittingError):
            fit_term(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]),
                     kinds=("splines",))

    def test_noise_tolerance(self):
        rng = np.random.default_rng(0)
        x = np.linspace(1, 50, 12)
        y = (100 + 0.6 * x**2) * (1 + rng.normal(0, 0.01, size=12))
        fit = fit_term(x, y)
        assert fit.r2 > 0.99

    def test_describe(self):
        x = np.array([1.0, 2.0, 4.0])
        fit = fit_term(x, 2 * x)
        assert "R2" in fit.describe()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 100), st.floats(0.01, 1.0))
    def test_log_family_closure(self, coeff, tau):
        """Data generated by a LogTerm is fitted with high R2."""
        x = np.array([0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0])
        y = np.asarray(LogTerm(coefficient=coeff, tau=tau)(x))
        fit = fit_term(x, y)
        assert fit.r2 > 0.995


class TestFitSeparableDemand:
    def grid(self, scale=2.0) -> DemandSamples:
        sizes = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        accs = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        demand = scale * np.outer(sizes, 300.0 + 0.5 * accs**2)
        return DemandSamples(app_name="t", sizes=sizes, accuracies=accs,
                             demand_gi=demand)

    def test_reconstruction(self):
        fitted = fit_separable_demand(self.grid())
        samples = self.grid()
        for i, n in enumerate(samples.sizes):
            for j, a in enumerate(samples.accuracies):
                assert fitted.gi(n, a) == pytest.approx(
                    samples.demand_gi[i, j], rel=1e-3)

    def test_grid_r2_reported(self):
        fitted = fit_separable_demand(self.grid())
        assert fitted.grid_r2 > 0.9999

    def test_extrapolation_preserves_shape(self):
        fitted = fit_separable_demand(self.grid())
        # Extrapolate the linear size dimension well beyond the grid.
        assert fitted.gi(32000, 20) == pytest.approx(
            1000 * fitted.gi(32, 20), rel=1e-6)

    def test_describe_mentions_both_axes(self):
        text = fit_separable_demand(self.grid()).describe()
        assert "size" in text and "accuracy" in text

    def test_grid_validation(self):
        with pytest.raises(MeasurementError):
            DemandSamples(app_name="t", sizes=np.array([1.0, 2.0]),
                          accuracies=np.array([1.0]),
                          demand_gi=np.ones((1, 1)))
        with pytest.raises(MeasurementError):
            DemandSamples(app_name="t", sizes=np.array([1.0]),
                          accuracies=np.array([1.0]),
                          demand_gi=np.zeros((1, 1)))

    def test_slices(self):
        samples = self.grid()
        sizes, d = samples.size_slice(2)
        np.testing.assert_array_equal(sizes, samples.sizes)
        np.testing.assert_array_equal(d, samples.demand_gi[:, 2])
        accs, d2 = samples.accuracy_slice(1)
        np.testing.assert_array_equal(d2, samples.demand_gi[1, :])


def reference_try_log(x, y):
    """The replaced fitter: scipy's bounded ``curve_fit`` of b·log1p(x/τ)."""
    curve_fit = pytest.importorskip("scipy.optimize").curve_fit

    def model(xv, b, tau):
        return b * np.log1p(xv / tau)

    if np.any(x < 0) or np.any(y <= 0):
        return None
    tau0 = float(np.median(x)) or 1.0
    b0 = float(y.max() / max(np.log1p(x.max() / tau0), 1e-9))
    try:
        popt, _ = curve_fit(model, x, y, p0=[b0, tau0],
                            bounds=([1e-12, 1e-12], [np.inf, np.inf]),
                            maxfev=20000)
    except (RuntimeError, ValueError):
        return None
    b, tau = float(popt[0]), float(popt[1])
    return LogTerm(coefficient=b, tau=tau), model(x, b, tau), 2


def app_slices():
    """The (size, accuracy) slices `fit_separable_demand` fits, per app
    and seed: ``(label, x, y)``."""
    slices = []
    for name in ("galaxy", "x264", "sand"):
        for seed in range(4):
            samples = measure_demand_grid(application_by_name(name, seed=seed),
                                          PerfCounter(seed=seed))
            j_mid = samples.accuracies.size // 2
            i_mid = samples.sizes.size // 2
            slices.append((f"{name}:{seed}:size", *samples.size_slice(j_mid)))
            slices.append((f"{name}:{seed}:accuracy",
                           *samples.accuracy_slice(i_mid)))
    return slices


def rss(y, pred):
    return float(np.sum((y - pred) ** 2))


class TestLogFitAgainstCurveFit:
    """The variable-projection log fit against the `curve_fit` it replaced."""

    @pytest.fixture(scope="class")
    def slices(self):
        pytest.importorskip("scipy.optimize")
        return app_slices()

    def test_same_kind_and_log_parameters_on_every_app_slice(
            self, slices, monkeypatch):
        log_wins = 0
        for label, x, y in slices:
            new = fit_term(x, y)
            with monkeypatch.context() as patch:
                patch.setitem(fitting._FITTERS, "log", reference_try_log)
                ref = fit_term(x, y)
            assert new.kind == ref.kind, label
            if new.kind == "log":
                log_wins += 1
                assert new.term.coefficient == pytest.approx(
                    ref.term.coefficient, rel=1e-6), label
                assert new.term.tau == pytest.approx(ref.term.tau,
                                                     rel=1e-6), label
                assert new.aicc == pytest.approx(ref.aicc, rel=1e-9), label
            else:
                assert new == ref, label  # no log term: nothing moved
        # sand's accuracy slice at every seed and its size slice at seed 2.
        assert log_wins == 5

    def test_rss_never_above_the_reference(self, slices):
        for label, x, y in slices:
            new = fitting._try_log(x, y)
            ref = reference_try_log(x, y)
            assert new is not None and ref is not None, label
            assert rss(y, new[1]) <= rss(y, ref[1]) * (1 + 1e-9), label

    @settings(max_examples=40, deadline=None)
    @given(coeff=st.floats(0.5, 1e5), tau=st.floats(0.005, 5.0),
           noise_seed=st.integers(0, 2**16))
    def test_noisy_log_data_fits_no_worse_than_the_reference(
            self, coeff, tau, noise_seed):
        pytest.importorskip("scipy.optimize")
        x = np.array([0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0])
        rng = np.random.default_rng(noise_seed)
        y = np.asarray(LogTerm(coefficient=coeff, tau=tau)(x)) \
            * (1 + rng.normal(0, 0.01, size=x.size))
        new = fitting._try_log(x, y)
        ref = reference_try_log(x, y)
        assert new is not None
        if ref is not None:
            assert rss(y, new[1]) <= rss(y, ref[1]) * (1 + 1e-9)


class TestLogFit:
    """`_try_log` on its own: exactness, the bracket ends, the None paths."""

    @settings(max_examples=60, deadline=None)
    @given(coeff=st.floats(0.1, 1e6), tau=st.floats(0.005, 2.0))
    def test_recovers_a_synthetic_log_term(self, coeff, tau):
        x = np.array([0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0])
        y = np.asarray(LogTerm(coefficient=coeff, tau=tau)(x))
        term, pred, k = fitting._try_log(x, y)
        assert k == 2
        assert term.coefficient == pytest.approx(coeff, rel=1e-6)
        assert term.tau == pytest.approx(tau, rel=1e-6)
        np.testing.assert_allclose(pred, y, rtol=1e-8)
        assert fit_term(x, y).kind == "log"

    def test_near_linear_data_goes_to_the_top_of_the_bracket(self):
        # Exactly linear data: the best log1p(x/τ) is the τ → ∞ end, where
        # b·log1p(x/τ) is b·x/τ to 2e-9, and AICc prefers the 1-parameter
        # linear term.
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = 3.0 * x
        term, pred, _ = fitting._try_log(x, y)
        assert term.tau == pytest.approx(16.0 * np.exp(20.0), rel=1e-6)
        np.testing.assert_allclose(pred, y, rtol=1e-7)
        assert fit_term(x, y).kind == "linear"

    def test_zero_in_x_fits_but_is_never_chosen(self):
        # log1p(0/τ) = 0, so the log prediction at x = 0 is 0: fitted, but
        # `fit_term` rejects a non-positive demand factor.
        x = np.array([0.0, 0.1, 0.2, 0.4, 0.8])
        y = 5.0 + 2.0 * x
        term, pred, _ = fitting._try_log(x, y)
        assert np.isfinite(term.coefficient) and np.isfinite(term.tau)
        assert pred[0] == 0.0 and np.all(pred[1:] > 0)
        assert fit_term(x, y).kind != "log"

    @pytest.mark.parametrize("x, y", [
        ([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0]),   # negative x
        ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),    # y = 0
        ([1.0, 2.0, 3.0], [1.0, -2.0, 3.0]),   # y < 0
        ([0.0], [1.0]),                        # no positive x
    ])
    def test_none_paths(self, x, y):
        assert fitting._try_log(np.array(x), np.array(y)) is None
