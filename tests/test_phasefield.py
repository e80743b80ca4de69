import math

import numpy as np
import pytest

from twotone import (
    GaussianWindow,
    TFGrid,
    TwoHarmonicModel,
    amplitude_weighted_phase,
    destructive_time,
    destructive_zero,
    locate_zeros,
    phase,
    stft_field,
    winding_number,
)
from twotone.errors import ContourThroughZeroError, PhaseUndefinedError, SolverFailureError
from twotone import phasefield
from twotone.phasefield import default_contour_rho


class TestPhase:
    def test_single_component_rotation(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        for t in (0.1, 0.77, 3.4):
            expected = (2 * math.pi * model.xi0 * t) % (2 * math.pi)
            assert phase(model, window, t, 1.3) == pytest.approx(expected, abs=1e-10)

    def test_constructive_time_bracket_real(self, window, model_balanced):
        k = 2
        t = k / model_balanced.delta
        expected = (2 * math.pi * model_balanced.xi0 * t) % (2 * math.pi)
        for eta in np.linspace(model_balanced.xi0, model_balanced.xi1, 7):
            assert phase(model_balanced, window, t, float(eta)) == pytest.approx(expected, abs=1e-9)

    def test_undefined_at_zero(self, window, model_a13):
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        with pytest.raises(PhaseUndefinedError):
            phase(model_a13, window, destructive_time(model_a13, 0), eta_avg)

    def test_range(self, window, model_a13):
        for t in np.linspace(0.0, 3.0, 11):
            for eta in np.linspace(0.6, 1.7, 11):
                val = phase(model_a13, window, float(t), float(eta))
                assert 0.0 <= val < 2 * math.pi


class TestLocateZeros:
    def test_figure_preset_region(self, window, model_a13):
        region = TFGrid(0.0, 7.0, 141, 0.5, 1.8, 101)
        zeros = locate_zeros(model_a13, window, region)
        assert len(zeros) == 2
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        for z, k in zip(zeros, (0, 1)):
            assert z.t0 == pytest.approx(destructive_time(model_a13, k), abs=1e-8)
            assert z.eta0 == pytest.approx(eta_avg, abs=1e-8)
            assert z.refinement_residual <= 1e-9 * (1 + model_a13.a)
            assert z.winding == 1

    def test_single_component_has_none(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        region = TFGrid(0.0, 5.0, 51, 0.5, 1.5, 51)
        assert locate_zeros(model, window, region) == []

    def test_zero_count_matches_destructive_times(self, window):
        for delta, t_max in ((0.3, 7.0), (0.5, 6.0)):
            model = TwoHarmonicModel(xi0=1.0, delta=delta, a=1.2)
            region = TFGrid(0.0, t_max, 121, 0.4, 1.9, 81)
            expected = sum(
                1 for k in range(-2, 20)
                if 0.0 <= destructive_time(model, k) <= t_max
            )
            assert len(locate_zeros(model, window, region)) == expected

    def test_zero_past_t_max_not_reported(self, window, model_a13):
        # t_0^- = 5/3 lies just past t_max; a grid cell at the edge used to
        # converge onto it and report it
        region = TFGrid(0.0, 1.6, 17, 0.5, 1.8, 61)
        assert locate_zeros(model_a13, window, region) == []

    def test_each_destructive_time_reported_once(self):
        model = TwoHarmonicModel(xi0=1.575764463216729, delta=1.90230137957413,
                                 a=0.7857282523426801)
        window = GaussianWindow(sigma=1.3107902698777547)
        region = TFGrid(-1.9401571827959045, 8.868725495067125, 51,
                        1.2339203258606046, 3.155934662555059, 199)
        eta_avg = destructive_zero(model, window)
        times = [destructive_time(model, k) for k in range(-10, 30)
                 if region.t_min <= destructive_time(model, k) <= region.t_max]
        zeros = locate_zeros(model, window, region)
        assert len(times) == 21
        assert len(zeros) == len(times)
        for z, t_k in zip(zeros, times):
            assert abs(z.t0 - t_k) <= 1e-10
            assert abs(z.eta0 - eta_avg) <= 1e-10

    def test_underflowed_region_runs_no_newton(self, window, model_a13, monkeypatch):
        # |V| underflows to 0 far above both components, so a sign-change
        # search would flag every cell there
        calls = []
        newton = phasefield._newton_zero

        def spy(*args, **kwargs):
            calls.append(args[2:])
            return newton(*args, **kwargs)

        monkeypatch.setattr(phasefield, "_newton_zero", spy)
        region = TFGrid(0.0, 7.0, 257, 8.0, 10.0, 257)
        assert locate_zeros(model_a13, window, region) == []
        assert calls == []

    def test_sub_resolution_contour_raises(self):
        # at sigma = 1e-8 the t semi-axis 5e-18 is below the spacing of
        # doubles at t0 = 5/3: every contour sample reads the center
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.0)
        region = TFGrid(0.0, 7.0, 129, 0.2, 2.4, 129)
        with pytest.raises(SolverFailureError):
            locate_zeros(model, GaussianWindow(sigma=1e-8), region)
        zeros = locate_zeros(model, GaussianWindow(sigma=1e-7), region)
        assert [z.winding for z in zeros] == [1, 1]

    def test_newton_overflow_drops_the_seed_silently(self):
        # at sigma = 1e-150 dV/d eta underflows and Newton runs off to
        # overflow; the suite turns a RuntimeWarning into an error
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.0)
        region = TFGrid(0.0, 7.0, 3, 0.2, 2.4, 3)
        assert locate_zeros(model, GaussianWindow(sigma=1e-150), region) == []


class TestWinding:
    def test_single_zero(self, window, model_a13):
        region = TFGrid(0.0, 3.0, 81, 0.8, 1.5, 81)
        zero = locate_zeros(model_a13, window, region)[0]
        center = (zero.t0, zero.eta0)
        assert winding_number(model_a13, window, center, default_contour_rho(window)) == 1

    def test_zero_free_contour(self, window, model_a13):
        assert winding_number(model_a13, window, (0.2, 1.0), default_contour_rho(window)) == 0

    def test_two_zero_contour(self, window, model_a13):
        region = TFGrid(0.0, 7.0, 141, 0.8, 1.5, 81)
        zeros = locate_zeros(model_a13, window, region)
        center = (0.5 * (zeros[0].t0 + zeros[1].t0), zeros[0].eta0)
        assert winding_number(model_a13, window, center, 1.4, n_samples=512) == 2

    def test_invariance_to_resolution_and_radius(self, window, model_a13):
        region = TFGrid(0.0, 3.0, 81, 0.8, 1.5, 81)
        zero = locate_zeros(model_a13, window, region)[0]
        center, rho = (zero.t0, zero.eta0), default_contour_rho(window)
        base = winding_number(model_a13, window, center, rho, n_samples=256)
        assert winding_number(model_a13, window, center, rho, n_samples=512) == base
        assert winding_number(model_a13, window, center, rho / 2, n_samples=256) == base

    @pytest.mark.parametrize("eps, expected", [(5e-5, 1), (1e-5, 1), (1e-6, 1), (-1e-6, 0)])
    def test_zero_between_chord_and_arc(self, window, model_a13, eps, expected):
        # the zero sits halfway between two of the 256 samples, at radius
        # (1 - eps) rho: for 0 < eps < 1 - cos(pi/256) = 7.5e-5 it is inside the
        # arc but outside the chord, so only bisecting that segment counts it
        n = 256
        rho = default_contour_rho(window)
        t_z, eta_z = destructive_time(model_a13, 0), destructive_zero(model_a13, window)
        theta, r = math.pi + math.pi / n, (1.0 - eps) * rho
        center = (t_z - window.sigma * r * math.cos(theta),
                  eta_z + r * math.sin(theta) / (math.pi * window.sigma))
        assert winding_number(model_a13, window, center, rho, n_samples=n) == expected

    def test_contour_through_zero_rejected(self, window, model_a13):
        region = TFGrid(0.0, 3.0, 81, 0.8, 1.5, 81)
        zero = locate_zeros(model_a13, window, region)[0]
        # center the contour so that it passes through the zero itself
        shifted = (zero.t0 + window.sigma * 0.01, zero.eta0)
        with pytest.raises(ContourThroughZeroError):
            winding_number(model_a13, window, shifted, 0.01)


class TestAmplitudeWeightedPhase:
    def test_zero_at_transform_zeros(self, window, model_a13):
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        t0 = destructive_time(model_a13, 0)
        grid = TFGrid(t0 - 0.05, t0 + 0.05, 21, eta_avg - 0.02, eta_avg + 0.02, 21)
        weighted = amplitude_weighted_phase(stft_field(model_a13, window, grid))
        i = np.unravel_index(np.argmin(np.abs(grid.t_values() - t0)), (21,))[0]
        j = np.unravel_index(np.argmin(np.abs(grid.eta_values() - eta_avg)), (21,))[0]
        assert weighted[i, j] <= 1e-3

    def test_single_component_factorization(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        grid = TFGrid(0.03, 0.97, 16, 0.7, 1.3, 16)
        weighted = amplitude_weighted_phase(stft_field(model, window, grid))
        tt = grid.t_values()[:, None]
        ee = grid.eta_values()[None, :]
        mag = np.exp(-window.C * (ee - model.xi0) ** 2) * np.ones_like(tt)
        phi = np.mod(2 * math.pi * model.xi0 * tt, 2 * math.pi) * np.ones_like(ee)
        # compare phase angles modulo a full turn so branch grazing cannot trip
        dphi = np.angle(np.exp(1j * (weighted / mag - phi)))
        assert float(np.max(np.abs(dphi * mag))) < 1e-9

    def test_local_continuity_proxy_near_zero(self, window, model_a13):
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        t0 = destructive_time(model_a13, 0)
        half = 0.03
        grid = TFGrid(t0 - half, t0 + half, 41, eta_avg - half / 2, eta_avg + half / 2, 41)
        field = stft_field(model_a13, window, grid)
        weighted = amplitude_weighted_phase(field)
        jumps = float(np.max(np.abs(np.diff(weighted, axis=1))))
        # Lipschitz estimate of |V| from the sampled field itself
        lip = float(np.max(np.abs(np.diff(np.abs(field), axis=1)))) / grid.eta_step
        box_radius = max(half, half / 2)
        assert jumps <= 2 * math.pi * lip * (box_radius + grid.eta_step) * 1.2
