import math
import sys

import numpy as np
import pytest

from twotone import (
    GaussianWindow,
    QuadratureSpec,
    SqueezeConfig,
    TwoHarmonicModel,
    asym_indicator,
    asym_sst,
    critical_gap_density,
    critical_gap_sst,
    critical_gap_stft,
    destructive_time,
    erf_closed_form,
    preimage_intervals,
    pushforward_density,
    squeeze_cross_section,
    squeeze_transform,
    sst_extreme_amplitude,
)
from twotone import squeeze as squeeze_module
from twotone.errors import (
    DegenerateAmplitudeError,
    ModelValidationError,
    OutOfBranchError,
    PreconditionError,
    SingularityError,
    SolverFailureError,
)
from twotone.oracle import oracle_quadrature_squeeze
from twotone.reassign import eta_s_values
from twotone.ridges import _candidate_peaks, constructive_maxima, flip_bracket
from twotone.squeeze import (
    _NORMAL_EXPONENT,
    _mollified_sums,
    classify_time,
    default_indicator_radius,
    indicator_radius_floor,
    squeeze_single_component,
)

ALPHA = 1e-4


class TestConfig:
    def test_validation(self):
        with pytest.raises(ModelValidationError):
            SqueezeConfig(alpha=0.0)
        with pytest.raises(ModelValidationError):
            SqueezeConfig(alpha=1e-4, weighting="boxcar")
        with pytest.raises(ModelValidationError):
            SqueezeConfig(alpha=1e-4, weighting="indicator")  # missing radius
        with pytest.raises(ModelValidationError):
            SqueezeConfig(alpha=1e-4, reassignment_mode="other")

    @pytest.mark.parametrize("kwargs, bad", [
        ({"alpha": math.inf}, "inf"),
        ({"alpha": math.nan}, "nan"),
        ({"alpha": -1e-4}, "-0.0001"),
        ({"alpha": 1e-4, "weighting": "indicator", "R": math.inf}, "inf"),
        ({"alpha": 1e-4, "weighting": "indicator", "R": math.nan}, "nan"),
        ({"alpha": 1e-4, "weighting": "indicator", "R": 0.0}, "0.0"),
        ({"alpha": 1e-4, "weighting": "boxcar"}, "'boxcar'"),
        ({"alpha": 1e-4, "reassignment_mode": "other"}, "'other'"),
    ])
    def test_rejects_and_names_the_bad_value(self, kwargs, bad):
        with pytest.raises(ModelValidationError) as info:
            SqueezeConfig(**kwargs)
        assert str(info.value).endswith(f"got {bad}")

    def test_default_radius_exponential_branch(self, window, model_balanced):
        # xi = 1.04 clears 3 sqrt(alpha) = 0.03 of xi0; c/(2 alpha) = 8 < ln(1/alpha)
        radius = default_indicator_radius(model_balanced, window, 1e-4, [1.04, 1.9])
        assert radius == pytest.approx(math.exp(0.04 ** 2 / 2e-4), rel=1e-12)
        assert indicator_radius_floor(model_balanced, window) < radius < 1e4

    @pytest.mark.parametrize("alpha", [1e-3, 0.5])
    def test_default_radius_falls_back_when_every_xi_is_filtered(self, window,
                                                                  model_balanced, alpha):
        # every xi lies within 3 sqrt(alpha) of xi0 or xi1, one of them on xi0
        floor = indicator_radius_floor(model_balanced, window)
        radius = default_indicator_radius(model_balanced, window, alpha, [1.0, 1.01, 1.29])
        assert radius == max(1.0 / alpha, 1.5 * floor)

    def test_default_radius_falls_back_below_the_band_floor(self, window, model_balanced):
        # xi = 5 clears 3 sqrt(0.6) but R = min(1/0.6, e^{c/1.2}) = 1.67 is below the floor
        floor = indicator_radius_floor(model_balanced, window)
        assert 1.0 / 0.6 < floor
        radius = default_indicator_radius(model_balanced, window, 0.6, [5.0])
        assert radius == 1.5 * floor

    def test_radius_only_checked_for_indicator_weighting(self):
        assert SqueezeConfig(alpha=1e-4, weighting="stft", R=math.inf).R == math.inf
        assert SqueezeConfig(alpha=1e-4, weighting="indicator", R=50.0).R == 50.0

    def test_mollifier_unit_mass(self, window):
        # a lone unit harmonic reassigns every eta to xi0, so S(t, xi) is
        # (integral of V over eta) times the mollifier at xi - xi0, and the
        # mass of S over xi is that of V: 1/(sigma sqrt(pi)) at t = 0
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        for alpha in (1e-3, 1e-5):
            config = SqueezeConfig(alpha=alpha, weighting="stft")
            x = model.xi0 + np.linspace(-30 * math.sqrt(alpha), 30 * math.sqrt(alpha), 601)
            mass = np.trapezoid(squeeze_cross_section(model, window, config, 0.0, x), x)
            assert mass == pytest.approx(1.0 / (window.sigma * math.sqrt(math.pi)), abs=1e-10)


class TestTransform:
    def test_single_component_closed_form(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        for t, xi in ((0.0, 1.0), (0.6, 1.015), (2.0, 0.99)):
            val = squeeze_transform(model, window, config, t, xi)
            ref = squeeze_single_component(model.xi0, 1.0, window, ALPHA, t, xi)
            assert abs(val - ref) <= 1e-8 * abs(ref)

    def test_far_tail_negligible(self, window, model_balanced):
        config = SqueezeConfig(alpha=1e-3, weighting="stft")
        for xi in (model_balanced.xi0 - 1.5, model_balanced.xi1 + 1.5):
            assert abs(squeeze_transform(model_balanced, window, config, 0.3, xi)) < 1e-12

    def test_large_gap_split(self, window):
        # frozen constant: measured residual/e^{-C/4} ~ 6.1, kept with headroom
        model = TwoHarmonicModel(xi0=1.0, delta=1.0, a=1.0)
        config = SqueezeConfig(alpha=1e-3, weighting="stft")
        cap = 9.0 * math.exp(-window.C * model.delta ** 2 / 4.0)
        worst = 0.0
        for t in (0.137, 0.411, destructive_time(model, 0)):
            xis = np.linspace(model.xi0 - 0.3, model.xi1 + 0.3, 41)
            vals = squeeze_cross_section(model, window, config, t, xis)
            ref = np.array([
                squeeze_single_component(model.xi0, 1.0, window, 1e-3, t, x)
                + squeeze_single_component(model.xi1, 1.0, window, 1e-3, t, x)
                for x in xis
            ])
            worst = max(worst, float(np.max(np.abs(vals - ref))))
        assert worst <= cap

    def test_vector_scalar_consistency(self, window, model_balanced):
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        xis = np.linspace(1.05, 1.25, 5)
        vec = squeeze_cross_section(model_balanced, window, config, 0.0, xis)
        for xi, v in zip(xis, vec):
            single = squeeze_transform(model_balanced, window, config, 0.0, float(xi))
            assert abs(single - v) <= 1e-7 * max(abs(v), 1e-12)

    def test_deterministic(self, window, model_a13):
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        xis = np.linspace(0.95, 1.35, 21)
        first = squeeze_cross_section(model_a13, window, config, 0.4, xis)
        second = squeeze_cross_section(model_a13, window, config, 0.4, xis)
        assert np.array_equal(first, second)

    def test_phase_mode_runs(self, window, model_a13):
        config = SqueezeConfig(alpha=ALPHA, weighting="stft", reassignment_mode="phase")
        val = squeeze_transform(model_a13, window, config, 0.3, 1.1)
        assert np.isfinite(val)

    @staticmethod
    def _record_passes(monkeypatch):
        """Node count of every _mollified_sums call and the eta of every
        eta_s_values call that squeeze_cross_section makes, in order."""
        sums, etas = [], []
        sum_fn, eta_fn = squeeze_module._mollified_sums, squeeze_module.eta_s_values

        def sums_spy(hat, *args):
            sums.append(len(hat))
            return sum_fn(hat, *args)

        def eta_spy(model, window, t, eta):
            etas.append(np.array(eta))
            return eta_fn(model, window, t, eta)

        monkeypatch.setattr(squeeze_module, "_mollified_sums", sums_spy)
        monkeypatch.setattr(squeeze_module, "eta_s_values", eta_spy)
        return sums, etas

    def test_whole_grid_window_sums_each_level_once(self, window, model_a13, monkeypatch):
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        n0 = config.quadrature.n_nodes
        sums, etas = self._record_passes(monkeypatch)
        squeeze_cross_section(model_a13, window, config, 0.0, np.linspace(0.9, 1.4, 11))
        # the window is the whole base grid: no outside pieces, one sum per level
        assert etas[1][0] == etas[0][0] and etas[1][-1] == etas[0][-1]
        assert len(sums) >= 2
        assert sums == [(n0 << k) + 1 for k in range(len(sums))]
        assert len(etas) == len(sums) + 1

    @pytest.mark.parametrize("R", [5.0, 50.0])
    def test_partial_window_sums_each_outside_piece_once(self, window, model_a13,
                                                         monkeypatch, R):
        config = SqueezeConfig(alpha=ALPHA, weighting="indicator", R=R)
        n0 = config.quadrature.n_nodes
        sums, etas = self._record_passes(monkeypatch)
        squeeze_cross_section(model_a13, window, config, 0.0, np.array([1.08, 1.15, 1.22]))
        left, right, levels = sums[0], sums[1], sums[2:]
        # both pieces come first, once each, as whole Simpson cell pairs
        assert left % 2 == 1 and right % 2 == 1 and left + right < n0
        assert len(levels) >= 2
        assert levels == [(n0 << k) + 1 for k in range(len(levels))]
        # the pieces and the refinement window tile the base grid [-R, R]
        base = etas[0]
        assert len(base) == n0 + 1 and base[0] == -R and base[-1] == R
        for eta in etas[1:]:
            assert eta[0] == base[left - 1] and eta[-1] == base[n0 + 1 - right]

    @pytest.mark.parametrize("R", [5.0, 50.0])
    def test_indicator_partial_window_matches_oracle(self, window, model_a13, R):
        config = SqueezeConfig(alpha=ALPHA, weighting="indicator", R=R)
        xis = np.array([1.08, 1.15, 1.22])
        vals = squeeze_cross_section(model_a13, window, config, 0.0, xis)
        ref = np.array([oracle_quadrature_squeeze(model_a13, window, config, 0.0, float(xi),
                                                  n_nodes=2 ** 18) for xi in xis])
        assert np.max(np.abs(vals - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("max_doublings", [0, 1])
    def test_starved_refinement_raises(self, window, model_a13, max_doublings):
        spec = QuadratureSpec(n_nodes=64, rtol=1e-15, max_doublings=max_doublings)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft", quadrature=spec)
        with pytest.raises(SolverFailureError) as err:
            squeeze_cross_section(model_a13, window, config, 0.4, np.linspace(1.0, 1.3, 7))
        change, target = err.value.residuals
        assert max_doublings == 0 or change > target


def _dense_mollified_sums(hat, sent, w, gvals, xis, alpha):
    """The mollified sum as one dense pass over every node per xi: the
    reference the windowed kernel must reproduce."""
    out = np.empty(len(xis), dtype=complex)
    for i, xi in enumerate(xis):
        moll = np.exp(-np.abs(hat - xi) ** 2 / alpha)
        moll[sent] = 0.0
        out[i] = np.dot(w, gvals * moll)
    return out


class TestMollifiedSums:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [1e-5, 1e-4, 1e-3])
    def test_matches_dense_loop(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n = 1201
        hat = rng.uniform(1.0, 1.3, n) + 1j * rng.normal(0.0, 10 * math.sqrt(alpha), n)
        real = rng.random(n) < 0.3  # real-valued nodes, as in phase mode
        hat[real] = hat.real[real]
        sent = rng.random(n) < 0.05  # sentinels sit inside the xi range
        w = rng.uniform(0.0, 1e-3, n)
        gvals = rng.normal(size=n) + 1j * rng.normal(size=n)
        lo, hi = hat.real[~sent].min(), hat.real[~sent].max()
        reach = math.sqrt(alpha)
        # on-support xi, xi whose sums sit around 1e-100 and 1e-200 (the tail
        # terms come from exponents 230 and 460), and xi past the underflow
        # reach where every term is exactly 0.0
        xis = np.concatenate([
            np.linspace(lo - reach, hi + reach, 41),
            [lo - 15.2 * reach, hi + 15.2 * reach, lo - 21.5 * reach, hi + 21.5 * reach],
            [lo - 28 * reach, hi + 30 * reach],
        ])
        ref = _dense_mollified_sums(hat, sent, w, gvals, xis, alpha)
        weights = w * gvals
        weights[sent] = 0.0
        got = _mollified_sums(hat, weights, xis, alpha)
        assert np.array_equal(ref == 0, got == 0)
        assert np.count_nonzero(ref == 0) == 2
        tail = np.abs(ref[41:45])
        assert np.all((tail > 1e-250) & (tail < 1e-80))
        big = np.abs(ref) > 1e-280
        assert np.all(np.abs(got[big] - ref[big]) <= 1e-12 * np.abs(ref[big]))

    def test_subnormal_terms_are_cut(self):
        # every term the dense sum adds at this xi is subnormal: the real
        # nodes sit at exponents 710-745 from xi, past the normal reach, and
        # the complex nodes sit on xi with exp(-(Im hat)^2 / alpha) subnormal
        assert math.exp(-_NORMAL_EXPONENT) >= sys.float_info.min
        alpha, xi = 1e-4, 1.0
        offsets = np.sqrt(np.array([710.0, 720.0, 735.0, 745.0]) * alpha)
        hat = np.concatenate([xi - offsets, xi + offsets, xi + 1j * offsets]).astype(complex)
        n = len(hat)
        sent = np.zeros(n, dtype=bool)
        w = np.ones(n)
        gvals = np.ones(n, dtype=complex)
        ref = _dense_mollified_sums(hat, sent, w, gvals, np.array([xi]), alpha)
        assert 0.0 < abs(ref[0]) < 1e-300
        got = _mollified_sums(hat, w * gvals, np.array([xi]), alpha)
        assert got[0] == 0.0


class TestPushforward:
    def test_indicator_center_value(self, window, model_balanced):
        val = pushforward_density(model_balanced, window, "indicator", 0.0, model_balanced.xibar)
        expected = 1.0 / (2 * window.C * (model_balanced.delta / 2) ** 2)
        assert val == pytest.approx(expected + 0j, rel=1e-14)
        assert val.real == pytest.approx(1.1258, abs=2e-4)

    def test_off_support(self, window, model_balanced):
        assert pushforward_density(model_balanced, window, "indicator", 0.0,
                                   model_balanced.xi1 + 0.1) == 0.0
        t_minus = destructive_time(model_balanced, 0)
        assert pushforward_density(model_balanced, window, "indicator", t_minus,
                                   model_balanced.xibar) == 0.0

    def test_singularity_standoff(self, window, model_balanced):
        with pytest.raises(SingularityError):
            pushforward_density(model_balanced, window, "indicator", 0.0,
                                model_balanced.xi0 + 1e-5)

    def test_stft_weighted_center(self, window, model_balanced):
        val = pushforward_density(model_balanced, window, "stft", 0.0, model_balanced.xibar)
        theta1 = pushforward_density(model_balanced, window, "indicator", 0.0,
                                     model_balanced.xibar)
        a_plus = 2 * math.exp(-window.C * model_balanced.delta ** 2 / 4)
        assert abs(val) == pytest.approx(theta1.real * a_plus, rel=1e-12)

    def test_small_alpha_indicator_cross_check(self, window, model_balanced):
        alpha = 1e-6
        config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
        for xi in (1.08, model_balanced.xibar, 1.26):
            quad = abs(squeeze_transform(model_balanced, window, config, 0.0, float(xi)))
            dens = abs(pushforward_density(model_balanced, window, "indicator", 0.0, float(xi)))
            assert quad == pytest.approx(dens, rel=5e-3)

    def test_requires_distinguished_time(self, window, model_balanced):
        with pytest.raises(PreconditionError):
            pushforward_density(model_balanced, window, "indicator", 0.123, 1.1)
        with pytest.raises(PreconditionError):
            classify_time(model_balanced, 0.123)

    def test_guard_order(self, window, model_balanced):
        # weighting, then the time, then the standoff, then the support
        m = model_balanced
        quarter = 0.25 / m.delta
        with pytest.raises(ModelValidationError):
            pushforward_density(m, window, "boxcar", quarter, m.xi0)
        with pytest.raises(PreconditionError):
            pushforward_density(m, window, "stft", quarter, m.xi0)
        # xi0 - 1e-5 is off the constructive support but inside the standoff
        with pytest.raises(SingularityError):
            pushforward_density(m, window, "stft", 0.0, m.xi0 - 1e-5)
        for value in (asym_sst(m, window, 1e-5, 0.0, m.xi0 - 1e-5),
                      asym_indicator(m, window, 1e-5, 50.0, 0.0, m.xi0 - 1e-5)):
            assert value.off_support and value.near_singularity and value.value == 0.0
        # exactly at a component frequency on the destructive support
        t_minus = destructive_time(m, 0)
        for value in (asym_sst(m, window, 1e-5, t_minus, m.xi0),
                      asym_indicator(m, window, 1e-5, 50.0, t_minus, m.xi1)):
            assert value.value == complex(math.inf) and value.near_singularity
        with pytest.raises(PreconditionError):
            asym_sst(m, window, 0.0, quarter, m.xibar)
        with pytest.raises(PreconditionError):
            asym_indicator(m, window, 1e-5, 50.0, quarter, m.xibar)


class TestAsymptotics:
    def test_indicator_match(self, window, model_balanced):
        alpha = 1e-5
        config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
        for xi in np.linspace(model_balanced.xi0 + model_balanced.delta / 4,
                              model_balanced.xi1 - model_balanced.delta / 4, 7):
            approx = asym_indicator(model_balanced, window, alpha, 50.0, 0.0, float(xi))
            quad = abs(squeeze_transform(model_balanced, window, config, 0.0, float(xi)))
            assert abs(approx.value) == pytest.approx(quad, rel=0.05)
            assert not approx.off_support

    def test_off_support_decay(self, window, model_balanced):
        xi = model_balanced.xi0 - 0.2
        vals = []
        for alpha in (2e-4, 1e-4):
            config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
            vals.append(abs(squeeze_transform(model_balanced, window, config, 0.0, xi)))
        assert vals[0] > 0.0
        assert vals[0] >= 10.0 * vals[1]
        tagged = asym_indicator(model_balanced, window, 1e-4, 50.0, 0.0, xi)
        assert tagged.off_support and tagged.value == 0.0

    def test_indicator_symmetry(self, window, model_balanced):
        for x in (0.02, 0.05, 0.1):
            left = asym_indicator(model_balanced, window, 1e-5, 50.0, 0.0,
                                  model_balanced.xibar - x)
            right = asym_indicator(model_balanced, window, 1e-5, 50.0, 0.0,
                                   model_balanced.xibar + x)
            assert abs(left.value) == pytest.approx(abs(right.value), rel=1e-12)

    def test_radius_preconditions(self, window, model_balanced):
        with pytest.raises(PreconditionError):
            asym_indicator(model_balanced, window, 1e-5, 0.5, 0.0, model_balanced.xibar)

    def test_sst_match(self, window, model_balanced):
        alpha = 1e-5
        config = SqueezeConfig(alpha=alpha, weighting="stft")
        for xi in np.linspace(model_balanced.xi0 + model_balanced.delta / 4,
                              model_balanced.xi1 - model_balanced.delta / 4, 7):
            approx = asym_sst(model_balanced, window, alpha, 0.0, float(xi))
            quad = squeeze_transform(model_balanced, window, config, 0.0, float(xi))
            assert abs(approx.value - quad) <= 0.05 * abs(quad)

    def test_weighting_contrast_at_small_gap(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.15, a=1.0)
        xs = np.linspace(model.xi0 + 0.005, model.xi1 - 0.005, 301)
        sst_curve = np.array([abs(asym_sst(model, window, 1e-5, 0.0, float(x)).value)
                              for x in xs])
        interior_max = np.sum((sst_curve[1:-1] > sst_curve[:-2])
                              & (sst_curve[1:-1] > sst_curve[2:]))
        assert interior_max == 1
        ind_curve = np.array([abs(asym_indicator(model, window, 1e-5, 50.0, 0.0, float(x)).value)
                              for x in xs])
        center = ind_curve[len(xs) // 2]
        assert ind_curve[0] > 5 * center and ind_curve[-1] > 5 * center
        assert np.argmin(ind_curve) == len(xs) // 2


class TestPreimage:
    def test_far_left_empty(self, window, model_balanced):
        pre = preimage_intervals(model_balanced, window, ALPHA, 7.5, 0.0,
                                 model_balanced.xi0 - 0.2)
        assert pre.label == "I1" and pre.intervals == ()

    def test_center_symmetric(self, window, model_balanced):
        pre = preimage_intervals(model_balanced, window, ALPHA, 7.5, 0.0,
                                 model_balanced.xibar)
        assert pre.label == "I4"
        assert pre.c_left == pytest.approx(-pre.c_right, abs=1e-12)
        assert pre.c_right > 0
        lo, hi = pre.intervals[0]
        scan = np.linspace(lo - 0.3, hi + 0.3, 10001)
        hit = np.abs(eta_s_values(model_balanced, window, 0.0, scan)
                     - model_balanced.xibar) < 7.5 * math.sqrt(ALPHA)
        inside = (scan >= lo) & (scan <= hi)
        boundary = (np.abs(scan - lo) < 1e-9) | (np.abs(scan - hi) < 1e-9)
        assert np.array_equal(hit[~boundary], inside[~boundary])

    def test_intermediate_center_empty(self, window, model_balanced):
        t_i = 0.25 / model_balanced.delta
        pre = preimage_intervals(model_balanced, window, ALPHA, 7.5, t_i,
                                 model_balanced.xibar)
        assert pre.intervals == ()

    def test_preconditions(self, window, model_balanced):
        with pytest.raises(PreconditionError):
            preimage_intervals(model_balanced, window, ALPHA, 8.0, 0.0, 1.1)
        with pytest.raises(DegenerateAmplitudeError):
            preimage_intervals(TwoHarmonicModel(1.0, 0.3, 0.0), window, ALPHA, 1.0, 0.0, 1.1)

    def test_segment_boundary_zero_divisor(self, window):
        # delta = 0.5 and the default C put xi1 - C sqrt(alpha) = 1.375 exactly,
        # so the destructive-time divisor d + C sqrt(alpha) is exactly 0
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        t_minus = destructive_time(model, 0)
        c_default = model.delta / (4.0 * math.sqrt(ALPHA))
        with pytest.raises(OutOfBranchError) as err:
            preimage_intervals(model, window, ALPHA, c_default, t_minus, 1.375)
        assert err.value.gamma == "c_left"
        with pytest.raises(OutOfBranchError):
            erf_closed_form(model, window, ALPHA, t_minus, 1.375)

    @pytest.mark.parametrize("t_kind", ["constructive", "destructive", "intermediate"])
    def test_scan_agreement_all_segments(self, window, model_a13, t_kind):
        c_small = model_a13.delta / (8 * math.sqrt(ALPHA))
        cs = c_small * math.sqrt(ALPHA)
        t = {"constructive": 0.0,
             "destructive": destructive_time(model_a13, 0),
             "intermediate": 0.25 / model_a13.delta}[t_kind]
        probes = {
            "I1": model_a13.xi0 - 3 * cs,
            "I2": model_a13.xi0,
            "I3": 0.5 * (model_a13.xi0 + model_a13.xibar),
            "I4": model_a13.xibar,
            "I5": 0.5 * (model_a13.xibar + model_a13.xi1),
            "I6": model_a13.xi1,
            "I7": model_a13.xi1 + 3 * cs,
        }
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        scan = np.linspace(eta_avg - 2.5, eta_avg + 2.5, 10001)
        for label, xi in probes.items():
            pre = preimage_intervals(model_a13, window, ALPHA, c_small, t, xi)
            assert pre.label == label
            hat = eta_s_values(model_a13, window, t, scan)
            dist = np.abs(hat - xi)
            dist[np.isneginf(hat.real)] = np.inf
            hit = dist < cs
            inside = np.zeros_like(hit)
            near_boundary = np.zeros_like(hit)
            for lo, hi in pre.intervals:
                inside |= (scan >= lo) & (scan <= hi)
                near_boundary |= np.abs(scan - lo) < 1e-7
                near_boundary |= np.abs(scan - hi) < 1e-7
            ok = hit[~near_boundary] == inside[~near_boundary]
            assert np.all(ok), f"{t_kind} {label}: {np.count_nonzero(~ok)} mismatches"


class TestErfClosedForm:
    def test_balanced_symmetry(self, window, model_balanced):
        for x in (0.01, 0.03, 0.06):
            left = erf_closed_form(model_balanced, window, ALPHA, 0.0,
                                   model_balanced.xibar - x)
            right = erf_closed_form(model_balanced, window, ALPHA, 0.0,
                                    model_balanced.xibar + x)
            assert left == pytest.approx(right, rel=1e-12)

    def test_zero_branches(self, window, model_balanced):
        t_minus = destructive_time(model_balanced, 0)
        assert erf_closed_form(model_balanced, window, ALPHA, t_minus,
                               model_balanced.xibar) == 0.0
        assert erf_closed_form(model_balanced, window, ALPHA, 0.0,
                               model_balanced.xi0 - 0.2) == 0.0
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        assert abs(squeeze_transform(model_balanced, window, config, t_minus,
                                     model_balanced.xibar)) < 1e-8

    def test_out_of_branch_at_segment_edge(self, window, model_balanced):
        cs = model_balanced.delta / 4.0
        with pytest.raises(OutOfBranchError):
            erf_closed_form(model_balanced, window, ALPHA, 0.0, model_balanced.xi0 - cs)

    def test_one_sided_branches_with_smaller_c(self, window, model_a13):
        c_small = model_a13.delta / (8 * math.sqrt(ALPHA))
        for xi in (model_a13.xi0, model_a13.xi1):
            val = erf_closed_form(model_a13, window, ALPHA, 0.0, xi, C=c_small)
            assert np.isfinite(val) and val >= 0.0

    def test_intermediate_time_rejected(self, window, model_balanced):
        with pytest.raises(PreconditionError):
            erf_closed_form(model_balanced, window, ALPHA,
                            0.25 / model_balanced.delta, model_balanced.xibar)


def _erf_form_maxima(a, window, delta):
    """Interior maxima of the constructive erf form over xi - xi0 in
    (0.2501, 0.7499) delta."""
    model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
    ys = np.linspace(0.2501 * delta, 0.7499 * delta, 4001)
    vals = np.array([erf_closed_form(model, window, ALPHA, 0.0, model.xi0 + float(y))
                     for y in ys])
    return int(np.sum((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])))


class TestCriticalGap:
    def test_balanced_closed_form(self, window):
        delta_c, r, xi_c = critical_gap_sst(1.0, window)
        assert delta_c == math.sqrt(2 * math.log(3.0) / 3.0) / (math.pi * window.sigma)
        assert r == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert xi_c == pytest.approx(delta_c / 2, rel=1e-14)
        assert delta_c == pytest.approx(0.192627, abs=1e-5)

    def test_ratio_to_stft(self, window):
        d_sst, _, _ = critical_gap_sst(1.0, window)
        d_stft, _ = critical_gap_stft(1.0, window)
        assert abs(d_sst / d_stft - math.sqrt(math.log(3.0) / 3.0)) <= 1e-9

    def test_inversion_duality(self, window):
        d1, _, y1 = critical_gap_sst(1.3, window)
        d2, _, y2 = critical_gap_sst(1.0 / 1.3, window)
        assert d2 == pytest.approx(d1, rel=1e-9)
        assert y2 == pytest.approx(d1 - y1, rel=1e-6)

    @pytest.mark.parametrize("sigma", [1.0, math.sqrt(2.0)])
    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5])
    def test_near_balanced_cusp(self, sigma, offset):
        # at a = 1 the double root is a cusp: delta - delta_bal grows like
        # |ln a|^(2/3), and the fold nears Y = 1/2 like |ln a|^(1/3)
        window = GaussianWindow(sigma=sigma)
        a = 1.0 + offset
        d_bal, _, _ = critical_gap_sst(1.0, window)
        d, _, _ = critical_gap_sst(a, window)
        d_inv, _, _ = critical_gap_sst(1.0 / a, window)
        assert 0.0 <= d - d_bal <= abs(math.log(a)) ** (2.0 / 3.0) / (math.pi * sigma)
        assert d_inv == pytest.approx(d, rel=1e-9)

    def test_unbalanced_matches_curve_flip(self, window):
        # independent check: maxima count of the closed-form cross section
        # flips at the solver value
        a = 1.3
        delta_c, _, _ = critical_gap_sst(a, window)
        assert _erf_form_maxima(a, window, delta_c * 0.99) == 1
        assert _erf_form_maxima(a, window, delta_c * 1.01) == 2

    @pytest.mark.parametrize("a", [40.0, 50.0, 200.0, 1e3, 1 / 40, 1 / 200])
    def test_large_ratio_gains_one_maximum_at_the_gap(self, window, a):
        # the dominant maximum sits at the edge of the sampled (1/4, 3/4) delta
        # range, so only the interior maximum born at the fold is counted
        delta_c, _, _ = critical_gap_sst(a, window)
        below = _erf_form_maxima(a, window, delta_c * 0.99)
        assert _erf_form_maxima(a, window, delta_c * 1.01) == below + 1

    def test_inversion_duality_log_uniform(self, window):
        rng = np.random.default_rng(11)
        for a in np.exp(rng.uniform(-100.0, 100.0, 40) * math.log(10.0)):
            d, _, y = critical_gap_sst(float(a), window)
            d_inv, _, y_inv = critical_gap_sst(float(1.0 / a), window)
            assert d_inv == pytest.approx(d, rel=1e-12)
            assert y_inv == pytest.approx(d - y, rel=1e-9)

    @pytest.mark.parametrize("a, expected", [
        (0.5, (0.2577027550532, 0.02411470972690, 0.1814200681584)),
        (1.3, (0.2271132597655, 0.9375318386179, 0.07517388015120)),
        (2.0, (0.2577027550532, 1.662934119563, 0.07628268689480)),
        (3.0, (0.2802121792196, 2.639756707653, 0.07900241649153)),
    ])
    def test_reference_values(self, window, a, expected):
        # (delta, r, xi_c) at sigma = sqrt(2) from the earlier two-variable
        # Newton solve of the same double root, to 13 significant digits
        delta_c, r, xi_c = critical_gap_sst(a, window)
        assert delta_c == pytest.approx(expected[0], rel=1e-12)
        assert r == pytest.approx(expected[1], abs=1e-8)
        assert xi_c == pytest.approx(expected[2], abs=1e-8)

    @pytest.mark.parametrize("a", [1e-300, 1e300, 5e-324, 1.7e308])
    def test_unresolved_fold_raises(self, window, a):
        # the fold lies closer than 1e-12 to Y = 1/4 (or 3/4) from a ~ 1e107 on
        with pytest.raises(SolverFailureError):
            critical_gap_sst(a, window)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("solver", [critical_gap_sst, critical_gap_stft,
                                        critical_gap_density])
    def test_gap_solvers_reject_bad_amplitude(self, window, solver, a):
        with pytest.raises(ModelValidationError):
            solver(a, window)


class TestCriticalGapDensity:
    def test_ratio_to_stft(self):
        rng = np.random.default_rng(7)
        for a in np.exp(rng.uniform(-3.0, 3.0, 50)):
            window = GaussianWindow(sigma=float(rng.uniform(0.5, 3.0)))
            ratio = critical_gap_density(float(a), window) / critical_gap_stft(float(a), window)[0]
            assert abs(ratio - 1.0 / math.sqrt(3.0)) <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.3, 3.0])
    def test_density_count_flips_at_the_form(self, window, a):
        # maxima of |theta| over the constructive support (xi0, xi1), clear of
        # the 1e-3 delta standoff at both component frequencies
        delta_c = critical_gap_density(a, window)

        def count(delta):
            model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
            xis = np.linspace(model.xi0 + 2e-3 * delta, model.xi1 - 2e-3 * delta, 20001)
            vals = np.array([abs(pushforward_density(model, window, "stft", 0.0, float(x)))
                             for x in xis])
            return len(_candidate_peaks(vals))

        assert count(0.999 * delta_c) == 1
        assert count(1.001 * delta_c) == 2

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.3, 3.0])
    def test_density_count_bisects_to_the_form(self, window, a):
        # xi is sampled uniformly in s = ln((xi - xi0)/(xi1 - xi)) out to the
        # 2e-3 delta standoff, 4001 points; 12 halvings of [0.999, 1.001]
        # delta_c leave a bracket 4.9e-7 delta_c wide
        delta_c = critical_gap_density(a, window)
        edge = math.log((1.0 - 2e-3) / 2e-3)
        s = np.linspace(-edge, edge, 4001)

        def count(delta):
            model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
            xis = model.xi0 + delta / (1.0 + np.exp(-s))
            vals = np.array([abs(pushforward_density(model, window, "stft", 0.0, float(x)))
                             for x in xis])
            return len(_candidate_peaks(vals))

        lo, hi = 0.999 * delta_c, 1.001 * delta_c
        assert count(lo) == 1 and count(hi) == 2
        lo, hi = flip_bracket(count, lo, hi, 12)
        assert (1.0 - 1e-6) * delta_c <= lo and hi <= (1.0 + 1e-6) * delta_c

    @pytest.mark.parametrize("a", [1.0, 1.3])
    def test_quadrature_flip_sits_just_above_the_form(self, window, a):
        # the squeeze at alpha = 1e-4 is the density mollified at finite
        # alpha; its 1 -> 2 flip lies within 1% above the alpha -> 0 form
        delta_c = critical_gap_density(a, window)

        def count(delta):
            return constructive_maxima(a, window, "sst", delta)

        lo, hi = 0.99 * delta_c, 1.02 * delta_c
        assert count(lo) < 2 <= count(hi)
        lo, hi = flip_bracket(count, lo, hi, 4)
        assert hi - lo < 2e-3 * delta_c
        assert delta_c <= lo and hi <= 1.01 * delta_c


class TestExtremeAmplitude:
    def test_zero_amplitude_exact(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        for xi in (0.98, 1.01):
            approx = sst_extreme_amplitude(model, window, ALPHA, 0.5, xi, "small_a")
            quad = squeeze_transform(model, window, config, 0.5, xi)
            assert abs(approx - quad) <= 1e-7 * abs(quad)

    def test_regime_warnings(self, window, model_a13):
        with pytest.warns(UserWarning):
            sst_extreme_amplitude(model_a13, window, ALPHA, 0.0, 1.0, "small_a")
        with pytest.warns(UserWarning):
            sst_extreme_amplitude(model_a13, window, ALPHA, 0.0, 1.0, "large_a")

    def test_dominant_component_formula(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=20.0)
        val = sst_extreme_amplitude(model, window, ALPHA, 0.2, 1.31, "large_a")
        ref = squeeze_single_component(model.xi1, model.a, window, ALPHA, 0.2, 1.31)
        assert val == ref


class TestLaplaceConsistency:
    def test_error_shrinks_linearly_in_alpha(self, window, model_balanced):
        xi = model_balanced.xibar + 0.03
        errs = {}
        for alpha in (1e-4, 2.5e-5):
            config = SqueezeConfig(alpha=alpha, weighting="stft")
            quad = squeeze_transform(model_balanced, window, config, 0.0, xi)
            lead = asym_sst(model_balanced, window, alpha, 0.0, xi).value
            errs[alpha] = abs(quad - lead)
        assert errs[2.5e-5] <= 0.3 * errs[1e-4]

    def test_indicator_error_shrinks_linearly_in_alpha(self, window, model_balanced):
        xi = model_balanced.xibar - 0.05
        errs = {}
        for alpha in (1e-4, 2.5e-5):
            config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
            quad = abs(squeeze_transform(model_balanced, window, config, 0.0, xi))
            lead = abs(asym_indicator(model_balanced, window, alpha, 50.0, 0.0, xi).value)
            errs[alpha] = abs(quad - lead)
        assert errs[2.5e-5] <= 0.3 * errs[1e-4]


class TestOtherWindows:
    """Guard against silent sigma = sqrt(2) assumptions."""

    @pytest.mark.parametrize("sigma", [1.0, 2.2])
    def test_core_pipeline_generalizes(self, sigma):
        from twotone import GaussianWindow, count_frequency_maxima

        window = GaussianWindow(sigma=sigma)
        delta_crit, _ = critical_gap_stft(1.0, window)
        assert delta_crit == pytest.approx(math.sqrt(2.0) / (math.pi * sigma), rel=1e-12)
        for factor, expected in ((0.97, 1), (1.03, 2)):
            model = TwoHarmonicModel(xi0=1.0, delta=factor * delta_crit, a=1.0)
            assert count_frequency_maxima(model, window, 0.0, n_samples=2048) == expected

        model = TwoHarmonicModel(xi0=1.0, delta=0.8 * delta_crit, a=1.0)
        config = SqueezeConfig(alpha=1e-5, weighting="stft")
        xi = model.xibar + 0.1 * model.delta
        quad = squeeze_transform(model, window, config, 0.0, xi)
        lead = asym_sst(model, window, 1e-5, 0.0, xi).value
        assert abs(quad - lead) <= 0.05 * abs(quad)

        t_minus = destructive_time(model, 0)
        assert erf_closed_form(model, window, 1e-5, t_minus, model.xibar) == 0.0
        assert abs(squeeze_transform(model, window, config, t_minus, model.xibar)) < 1e-8
