import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotone import (
    AHMComponent,
    AHMSignal,
    GaussianWindow,
    TwoHarmonicModel,
    ahm_stft_error_bound,
    constructive_time,
    destructive_time,
    destructive_zero,
    freeze_ahm,
    lift_two_harmonic,
)
from twotone.errors import (
    DegenerateAmplitudeError,
    ModelValidationError,
    UnsupportedModelError,
)

MODELS = st.builds(
    TwoHarmonicModel,
    xi0=st.floats(-3.0, 3.0),
    delta=st.floats(0.05, 2.0),
    a=st.floats(0.1, 5.0),
)


def quadratic_signal(curvature=0.01, epsilon=None):
    """Constant amplitudes, one mildly quadratic phase; phases vanish at t=0.

    epsilon defaults to the smallest value consistent with the modulation
    hypothesis |phi''| <= epsilon |phi'| (attained at the lower frequency 1.2).
    """
    if epsilon is None:
        epsilon = curvature / 1.2
    return AHMSignal(
        components=(
            AHMComponent(
                amplitude=lambda t: np.ones_like(np.asarray(t, float)),
                phase=lambda t: np.asarray(t, float),
                phase_derivative=lambda t: np.ones_like(np.asarray(t, float)),
            ),
            AHMComponent(
                amplitude=lambda t: np.ones_like(np.asarray(t, float)),
                phase=lambda t: 1.2 * np.asarray(t, float) + 0.5 * curvature * np.asarray(t, float) ** 2,
                phase_derivative=lambda t: 1.2 + curvature * np.asarray(t, float),
                phase_curvature_bound=curvature,
            ),
        ),
        epsilon=epsilon,
    )


class TestEvaluate:
    def test_phases_align_at_zero(self):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.3)
        assert lift_two_harmonic(model).evaluate(0.0) == pytest.approx(2.3 + 0j, abs=1e-14)

    def test_constructive_time_value(self):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        assert lift_two_harmonic(model).evaluate(2.0) == pytest.approx(2.0 + 0j, abs=1e-12)

    def test_matches_independent_summation(self):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        t = 3.0
        expected = cmath.exp(2j * math.pi * model.xi0 * t) + model.a * cmath.exp(
            2j * math.pi * model.xi1 * t
        )
        assert abs(lift_two_harmonic(model).evaluate(t) - expected) < 1e-12

    @settings(max_examples=200)
    @given(model=MODELS, t=st.floats(-50.0, 50.0))
    def test_amplitude_bound(self, model, t):
        assert abs(lift_two_harmonic(model).evaluate(t)) <= 1.0 + model.a + 1e-12

    @settings(max_examples=100)
    @given(model=MODELS, k=st.integers(-5, 5))
    def test_amplitude_bound_attained_constructively(self, model, k):
        t = constructive_time(model, k)
        assert abs(lift_two_harmonic(model).evaluate(t)) == pytest.approx(1.0 + model.a, rel=1e-9)


class TestTwoHarmonicModelValidation:
    @pytest.mark.parametrize("xi0, delta", [(1e300, 0.3), (1.0, 1e-17), (1e308, 1e308)])
    def test_rejects_xi1_not_finite_or_not_above_xi0(self, xi0, delta):
        with pytest.raises(ModelValidationError, match="xi1"):
            TwoHarmonicModel(xi0=xi0, delta=delta, a=1.0)

    def test_accepts_smallest_gap_that_moves_xi0(self):
        model = TwoHarmonicModel(xi0=1.0, delta=2.0 ** -52, a=1.0)
        assert model.xi1 > model.xi0


class TestGaussianWindow:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 5e153, 1e200,
                                       1e-160, 1e-300])
    def test_rejects_sigma_without_finite_spectral_factor(self, sigma):
        with pytest.raises(ModelValidationError, match="sigma"):
            GaussianWindow(sigma=sigma)

    def test_accepts_large_sigma_with_finite_spectral_factor(self):
        assert math.isfinite(GaussianWindow(sigma=4e153).C)


class TestDistinguishedTimes:
    def test_values(self):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.0)
        assert constructive_time(model, 0) == 0.0
        assert destructive_time(model, 0) == pytest.approx(1 / 0.6, rel=1e-15)
        # phase verification: exp(2 pi i delta t) = -1 at the destructive time
        phase = cmath.exp(2j * math.pi * model.delta * destructive_time(model, 0))
        assert abs(phase + 1.0) < 1e-12

    def test_k2_constructive(self):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        t = constructive_time(model, 2)
        assert t == 4.0
        assert abs(cmath.exp(2j * math.pi * model.delta * t) - 1.0) < 1e-12

    @settings(max_examples=100)
    @given(model=MODELS, k=st.integers(-20, 20))
    def test_half_period_spacing(self, model, k):
        gap = destructive_time(model, k) - constructive_time(model, k)
        assert gap == pytest.approx(1.0 / (2.0 * model.delta), rel=1e-14)

    @pytest.mark.parametrize("a", [0.2, 1.0, 1.3, 4.0])
    @pytest.mark.parametrize("sigma", [0.7, math.sqrt(2.0), 2.5])
    def test_destructive_zero_balances_the_components(self, a, sigma):
        # at t_k^- the two terms of V have opposite phase, so V vanishes where
        # e^{-C (eta - xi0)^2} = a e^{-C (eta - xi1)^2}
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
        window = GaussianWindow(sigma=sigma)
        eta = destructive_zero(model, window)
        log_ratio = window.C * ((eta - model.xi1) ** 2 - (eta - model.xi0) ** 2)
        assert log_ratio == pytest.approx(math.log(a), abs=1e-12)
        assert (eta == model.xibar) == (a == 1.0)


class TestFreeze:
    def test_harmonic_roundtrip(self):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.3)
        frozen, scale = freeze_ahm(lift_two_harmonic(model), t_star=5.0)
        assert frozen.xi0 == pytest.approx(model.xi0, abs=1e-12)
        assert frozen.delta == pytest.approx(model.delta, abs=1e-12)
        assert frozen.a == pytest.approx(model.a, abs=1e-12)
        assert abs(abs(scale) - 1.0) < 1e-12

    def test_quadratic_phase_example(self):
        signal = AHMSignal(
            components=(
                AHMComponent(
                    amplitude=lambda t: np.ones_like(np.asarray(t, float)),
                    phase=lambda t: np.asarray(t, float),
                    phase_derivative=lambda t: np.ones_like(np.asarray(t, float)),
                ),
                AHMComponent(
                    amplitude=lambda t: 1.0 + 0.01 * np.asarray(t, float),
                    phase=lambda t: 1.2 * np.asarray(t, float) + 0.005 * np.asarray(t, float) ** 2,
                    phase_derivative=lambda t: 1.2 + 0.01 * np.asarray(t, float),
                    phase_curvature_bound=0.01,
                ),
            ),
            epsilon=0.01,
        )
        frozen, _ = freeze_ahm(signal, t_star=2.0)
        assert frozen.xi1 == pytest.approx(1.22, abs=1e-12)
        assert frozen.a == pytest.approx(1.02, abs=1e-12)

    def test_single_component_rejected(self):
        lone = AHMSignal(components=(lift_two_harmonic(
            TwoHarmonicModel(1.0, 0.3, 1.0)).components[0],))
        with pytest.raises(UnsupportedModelError):
            freeze_ahm(lone, 0.0)

    def test_degenerate_amplitude(self):
        comps = list(lift_two_harmonic(TwoHarmonicModel(1.0, 0.3, 1.0)).components)
        comps[0] = AHMComponent(
            amplitude=lambda t: np.zeros_like(np.asarray(t, float)),
            phase=comps[0].phase,
            phase_derivative=comps[0].phase_derivative,
        )
        with pytest.raises(DegenerateAmplitudeError):
            freeze_ahm(AHMSignal(components=comps), 0.0)

    def test_separation_violation_detected(self):
        comps = lift_two_harmonic(TwoHarmonicModel(1.0, 0.3, 1.0)).components
        swapped = AHMSignal(components=(comps[1], comps[0]))
        with pytest.raises(ModelValidationError):
            swapped.validate_separation(np.linspace(0, 1, 8))


class TestErrorBound:
    def test_zero_epsilon(self, window):
        assert ahm_stft_error_bound(quadratic_signal(epsilon=0.0), window, 1.0, 0.0) == 0.0

    def test_at_tstar_without_curvature(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.3)
        signal = lift_two_harmonic(model)
        eps = 2e-3
        signal = AHMSignal(components=signal.components, epsilon=eps)
        sigma = window.sigma
        expected = eps * (model.xi0 + model.xi1) * sigma / math.sqrt(math.pi)
        expected += 2 * math.pi * eps * (1.0 * model.xi0 + model.a * model.xi1) * sigma ** 2 / 4
        assert ahm_stft_error_bound(signal, window, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma", [math.sqrt(2.0), 3.0])
    def test_at_tstar_with_curvature(self, sigma):
        # the absolute window moments at t = t_star: I1 = sigma/sqrt(pi),
        # I2 = sigma^2/2 and I3 = sigma^3/sqrt(pi)
        signal = quadratic_signal(curvature=0.01)
        eps, m = signal.epsilon, 0.01
        i1, i2, i3 = sigma / math.sqrt(math.pi), sigma ** 2 / 2, sigma ** 3 / math.sqrt(math.pi)
        expected = eps * ((1.0 + 1.2) * i1 + 0.5 * m * i2)
        expected += 2 * math.pi * eps * (0.5 * (1.0 + 1.2) * i2 + m / 6 * i3)
        bound = ahm_stft_error_bound(signal, GaussianWindow(sigma=sigma), 0.0, 0.0)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_offset(self, window):
        signal = quadratic_signal()
        assert ahm_stft_error_bound(signal, window, 1.0, 0.0) >= ahm_stft_error_bound(
            signal, window, 0.0, 0.0
        )

    @settings(max_examples=50)
    @given(tau=st.floats(0.0, 3.0))
    def test_even_in_offset_and_linear_in_epsilon(self, tau):
        window = GaussianWindow(sigma=math.sqrt(2.0))
        sig1 = quadratic_signal(epsilon=1e-3)
        sig2 = quadratic_signal(epsilon=2e-3)
        left = ahm_stft_error_bound(sig1, window, -tau, 0.0)
        right = ahm_stft_error_bound(sig1, window, tau, 0.0)
        assert left == pytest.approx(right, rel=1e-12)
        assert left >= 0.0
        assert ahm_stft_error_bound(sig2, window, tau, 0.0) == pytest.approx(2 * left, rel=1e-12)
