import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotone import (
    AHMComponent,
    AHMSignal,
    GaussianWindow,
    TFGrid,
    TwoHarmonicModel,
    ahm_stft_error_bound,
    bargmann_consistency,
    bargmann_transform,
    lift_two_harmonic,
    separation_gap_bound,
    spectrogram_decomposition,
    stft_closed_form,
    stft_field,
    stft_numeric,
)
from twotone import gabor
from twotone.errors import PropagationError
from tests.test_model import MODELS, quadratic_signal


def traced_peak(f):
    """(f(), the peak of the memory that tracemalloc traced while f ran)."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bit_cases(rng, count):
    """(model, window, t, eta) over the broadcast forms of the field kernels:
    t (n, 1) with eta (1, m), a t array with a scalar eta and the reverse, and
    both scalar; a runs through 0, 1 and a random amplitude. Every array has
    at least 2 entries."""
    forms = (((rng.integers(2, 9), 1), (1, rng.integers(2, 9))), ((rng.integers(2, 40),), ()),
             ((), (rng.integers(2, 40),)), ((), ()))
    for i in range(count):
        model = TwoHarmonicModel(xi0=rng.uniform(-3.0, 3.0), delta=rng.uniform(0.01, 3.0),
                                 a=(0.0, 1.0, rng.uniform(0.0, 3.0))[i % 3])
        t_shape, eta_shape = forms[i % 4]
        t, eta = rng.uniform(-20.0, 20.0, t_shape), rng.uniform(-5.0, 5.0, eta_shape)
        yield (model, GaussianWindow(sigma=rng.uniform(0.2, 3.0)),
               t if t_shape else float(t), eta if eta_shape else float(eta))


class TestClosedForm:
    def test_midpoint_value(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        val = stft_closed_form(model, window, 0.0, 1.25)
        # both Gaussians evaluated independently
        expected = 2.0 * math.exp(-window.C * 0.25 ** 2)
        assert val == pytest.approx(expected + 0j, rel=1e-14)
        assert abs(val) == pytest.approx(0.5824258664, rel=1e-9)

    def test_single_component_unit_peak(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=0.0)
        for t in (0.0, 0.7, -2.3):
            assert abs(stft_closed_form(model, window, t, model.xi0)) == pytest.approx(1.0, abs=1e-14)

    def test_destructive_zero(self, window, model_a13):
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        t = 0.5 / model_a13.delta
        assert abs(stft_closed_form(model_a13, window, t, eta_avg)) < 1e-10

    @settings(max_examples=100)
    @given(model=MODELS, t=st.floats(-5, 5), eta=st.floats(-4, 8), c=st.floats(-3, 3))
    def test_modulation_covariance(self, model, t, eta, c):
        window = GaussianWindow(sigma=math.sqrt(2.0))
        shifted = TwoHarmonicModel(xi0=model.xi0 + c, delta=model.delta, a=model.a)
        v0 = stft_closed_form(model, window, t, eta)
        v1 = stft_closed_form(shifted, window, t, eta + c)
        assert abs(abs(v1) - abs(v0)) <= 1e-12

    def test_time_periodicity_of_modulus(self, window, model_a13):
        grid_t = np.linspace(0.0, 2.0, 41)
        grid_e = np.linspace(0.2, 2.2, 41)
        v0 = np.abs(stft_closed_form(model_a13, window, grid_t[:, None], grid_e[None, :]))
        v1 = np.abs(stft_closed_form(model_a13, window, (grid_t + 1 / model_a13.delta)[:, None],
                                     grid_e[None, :]))
        assert float(np.max(np.abs(v1 - v0))) <= 1e-12

    def test_in_place_kernel_keeps_the_bits(self):
        # the one-array kernel against the expression with a temporary per
        # operation; numpy's complex multiply is not commutative bit for bit
        rng = np.random.default_rng(34)
        for model, window, t, eta in bit_cases(rng, 400):
            rot0, rot1, g0, g1 = gabor._v_terms(model, window, np.asarray(t, dtype=float),
                                                np.asarray(eta, dtype=float))
            expected = rot0 * (g0 + model.a * rot1 * g1)
            got = stft_closed_form(model, window, t, eta)
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_scalar_inputs_return_a_complex_scalar(self, window, model_a13):
        assert type(stft_closed_form(model_a13, window, 0.3, 1.1)) is np.complex128


class TestNumericQuadrature:
    def test_matches_closed_form(self, window, model_a13):
        signal = lift_two_harmonic(model_a13)
        points = ((0.0, 1.1), (1.7, 0.9), (-0.4, 1.4))
        for t, eta in points:
            num = stft_numeric(signal, window, t, eta)
            ref = stft_closed_form(model_a13, window, t, eta)
            assert abs(num - ref) <= 1e-8
        # an eta array at one t gives the per-eta values bit for bit
        etas = np.array([eta for _, eta in points])
        for t, _ in points:
            per_eta = [stft_numeric(signal, window, t, eta) for eta in etas]
            assert np.array_equal(stft_numeric(signal, window, t, etas), per_eta)

    @staticmethod
    def _tone(amplitude):
        return AHMSignal([AHMComponent(amplitude=amplitude,
                                       phase=lambda x: np.asarray(x, float),
                                       phase_derivative=lambda x: np.ones_like(x))])

    def test_zero_signal(self, window):
        signal = self._tone(lambda x: np.zeros_like(x))
        assert stft_numeric(signal, window, 0.3, 1.0) == 0.0

    def test_non_finite_sample_raises(self, window):
        signal = self._tone(lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0))
        with pytest.raises(PropagationError):
            stft_numeric(signal, window, 0.0, 1.0)

    def test_ahm_bound_holds_pointwise(self, window):
        signal = quadratic_signal()
        from twotone import freeze_ahm

        model, scale = freeze_ahm(signal, 0.0)
        for t in (-0.5, 0.0, 0.8):
            bound = ahm_stft_error_bound(signal, window, t, 0.0)
            for eta in (0.9, 1.1, 1.3):
                err = abs(stft_numeric(signal, window, t, eta)
                          - scale * stft_closed_form(model, window, t, eta))
                assert err <= bound

    def test_trapezoid_converges_geometrically(self, window, model_a13, monkeypatch):
        # the windowed integrand is analytic and negligible at both ends, so
        # each 8 more intervals gain far more than any fixed algebraic order
        # would (measured 6.9e-3, 4.6e-7, 2.3e-13); by 48 it is at round-off
        t, eta = 0.45, 1.2
        signal = lift_two_harmonic(model_a13)
        ref = stft_closed_form(model_a13, window, t, eta)
        errs = []
        for n in (16, 24, 32):
            monkeypatch.setattr(gabor, "_NUMERIC_INTERVALS", n)
            errs.append(abs(stft_numeric(signal, window, t, eta) - ref))
        assert errs[0] >= 1e3 * errs[1] and errs[1] >= 1e3 * errs[2]


class TestDecomposition:
    def test_constructive_cross_positive(self, window, model_a13):
        _, _, cross = spectrogram_decomposition(model_a13, window, 0.0, model_a13.xibar)
        assert cross > 0

    def test_quarter_period_cancellation(self, window, model_a13):
        for k, sign in ((0, 1), (1, -1)):
            t = (k + sign * 0.25) / model_a13.delta
            g0, g1, cross = spectrogram_decomposition(model_a13, window, t, 1.1)
            total = abs(stft_closed_form(model_a13, window, t, 1.1)) ** 2
            assert abs(cross) < 1e-12
            assert g0 + g1 == pytest.approx(total, abs=1e-12)

    @settings(max_examples=150)
    @given(model=MODELS, t=st.floats(-4, 4), eta=st.floats(-2, 6))
    def test_sum_reconstructs_power(self, model, t, eta):
        window = GaussianWindow(sigma=math.sqrt(2.0))
        g0, g1, cross = spectrogram_decomposition(model, window, t, eta)
        total = abs(stft_closed_form(model, window, t, eta)) ** 2
        assert g0 + g1 + cross == pytest.approx(total, abs=1e-12)


class TestSeparationBound:
    def test_value(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=1.0, a=1.3)
        bound = separation_gap_bound(model, window)
        assert bound == pytest.approx(2.6 * math.exp(-2 * math.pi ** 2 / 4), rel=1e-12)
        assert bound == pytest.approx(0.018711, rel=1e-3)

    def test_zero_amplitude(self, window):
        assert separation_gap_bound(TwoHarmonicModel(1.0, 1.0, 0.0), window) == 0.0

    def test_gap_ratio_under_doubling(self, window):
        b1 = separation_gap_bound(TwoHarmonicModel(1.0, 1.0, 1.0), window)
        b2 = separation_gap_bound(TwoHarmonicModel(1.0, 2.0, 1.0), window)
        assert b2 / b1 == pytest.approx(math.exp(-3 * 2 * math.pi ** 2 / 4), rel=1e-12)

    def test_uniform_gap_and_sandwich(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=1.0, a=1.3)
        bound = separation_gap_bound(model, window)
        tt = np.linspace(0.0, 2.0 / model.delta, 120)[:, None]
        ee = np.linspace(model.xi0 - 1.5, model.xi1 + 1.5, 200)[None, :]
        v = np.abs(stft_closed_form(model, window, tt, ee))
        v0 = np.exp(-window.C * (ee - model.xi0) ** 2)
        v1 = model.a * np.exp(-window.C * (ee - model.xi1) ** 2)
        upper = v0 + v1
        lower = upper - 2 * np.minimum(v0, v1)
        assert np.all(v <= upper + 1e-12)
        assert np.all(v >= lower - 1e-12)
        assert float(np.max(upper - v)) <= bound + 1e-12


class TestBargmann:
    def test_grid_residual(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        tt = np.linspace(-2.0, 2.0, 64)[:, None]
        ee = np.linspace(0.0, 2.0, 64)[None, :]
        assert float(np.max(bargmann_consistency(model, window, tt, ee))) <= 1e-10

    def test_single_gaussian_identity(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=0.0)
        tt = np.linspace(-2.0, 2.0, 32)[:, None]
        ee = np.linspace(0.0, 2.0, 32)[None, :]
        assert float(np.max(bargmann_consistency(model, window, tt, ee))) <= 1e-12

    def test_zero_cells_coincide(self, window, model_a13):
        # reconstruct the transform from the entire function and compare the
        # sign-change cells of both representations around the first zero
        t0 = 0.5 / model_a13.delta
        eta0 = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        grid = TFGrid(t_min=t0 - 0.4, t_max=t0 + 0.4, n_t=41,
                      eta_min=eta0 - 0.1, eta_max=eta0 + 0.1, n_eta=41)
        tt = grid.t_values()[:, None]
        ee = grid.eta_values()[None, :]
        s = window.sigma
        z = tt / s - 1j * math.pi * s * ee
        pre = np.exp(-0.5 * ((tt / s) ** 2 + (math.pi * s * ee) ** 2) + 1j * math.pi * tt * ee)
        rec = pre * bargmann_transform(model_a13, window, z)
        direct = stft_closed_form(model_a13, window, tt, ee)

        def flip_cells(values):
            sign_re = np.sign(values.real)
            sign_im = np.sign(values.imag)
            f = lambda sgn: ((sgn[:-1, :-1] * sgn[1:, 1:] <= 0)
                             | (sgn[:-1, :-1] * sgn[1:, :-1] <= 0)
                             | (sgn[:-1, :-1] * sgn[:-1, 1:] <= 0))
            return f(sign_re) & f(sign_im)

        assert np.array_equal(flip_cells(rec), flip_cells(direct))


def test_field_shape_and_tag(window, model_a13):
    grid = TFGrid(0.0, 2.0, 16, 0.5, 1.8, 24)
    assert stft_field(model_a13, window, grid).shape == (16, 24)


def test_field_peaks_at_one_array(window):
    # criterion 3's grid: the field is built in the array it is returned in
    model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.0)
    grid = TFGrid(0.0, 3.5, 512, 0.5, 1.8, 600)
    values, peak = traced_peak(lambda: stft_field(model, window, grid))
    assert peak < 1.1 * values.nbytes


class TestValidation:
    def test_grid_rejects_degenerate_ranges(self):
        from twotone.errors import ModelValidationError

        with pytest.raises(ModelValidationError):
            TFGrid(1.0, 1.0, 4, 0.0, 1.0, 4)
        with pytest.raises(ModelValidationError):
            TFGrid(0.0, 1.0, 1, 0.0, 1.0, 4)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf, 0.2, 2.4), (-math.inf, 7.0, 0.2, 2.4),
                                        (0.0, 7.0, -math.inf, 2.4), (0.0, 7.0, 0.2, math.inf)])
    def test_grid_rejects_non_finite_bounds(self, bounds):
        from twotone.errors import ModelValidationError

        t_min, t_max, eta_min, eta_max = bounds
        with pytest.raises(ModelValidationError, match="finite"):
            TFGrid(t_min, t_max, 4, eta_min, eta_max, 4)

    def test_field_rejects_non_finite_stft(self, window):
        from twotone.errors import ModelValidationError

        # the phase xi0 t overflows at t = 1e10, and e^{i inf} is nan
        model = TwoHarmonicModel(xi0=1e300, delta=0.3, a=1.0)
        with pytest.raises(ModelValidationError, match="non-finite entries in STFT field"):
            stft_field(model, window, TFGrid(0.0, 1e10, 3, 0.2, 2.4, 3))
