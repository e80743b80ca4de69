import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from twotone import (
    SENTINEL,
    GaussianWindow,
    SqueezeConfig,
    TFGrid,
    TwoHarmonicModel,
    asym_indicator,
    asym_sst,
    constructive_time,
    critical_gap_density,
    critical_gap_sst,
    critical_gap_stft,
    destructive_time,
    destructive_zero,
    erf_closed_form,
    eta_s_derivative,
    preimage_intervals,
    pushforward_density,
    squeeze_cross_section,
    squeeze_transform,
    stft_closed_form,
)
from twotone import squeeze as squeeze_module
from twotone.errors import (
    DegenerateAmplitudeError,
    ModelValidationError,
    OutOfBranchError,
    PreconditionError,
    SolverFailureError,
)
from twotone.oracle import oracle_quadrature_squeeze
from twotone.presets import PRESETS
from twotone.reassign import eta_s_values
from twotone.ridges import _candidate_peaks, flip_bracket
from twotone.squeeze import (
    _BLOCK_ROWS,
    _BLOCK_TERMS,
    _NORMAL_EXPONENT,
    _mollified_sums,
    _preimage_offset,
    classify_time,
    constructive_maxima,
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

    @pytest.mark.parametrize("xi0", [1.0, -0.1, -1.3, -2.7, 0.0])
    def test_band_floor_is_the_ridge_band_radius(self, window, xi0):
        # the floor is the widest |end| of the ridge band, bit for bit the
        # README's max(|xi0|, |xi1|) + 3/(pi sigma) for either sign of each
        model = TwoHarmonicModel(xi0=xi0, delta=0.3, a=1.3)
        floor = max(abs(model.xi0), abs(model.xi1)) + 3.0 / (math.pi * window.sigma)
        assert indicator_radius_floor(model, window) == floor

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

    @pytest.mark.parametrize("alpha", [1e-4, 1e-5, 2e-4])
    def test_default_radius_inverse_alpha_branch_stays_subcritical(self, window,
                                                                   model_balanced, alpha):
        # xi = 2 picks the 1/alpha branch, where exp(ln(1/alpha)) rounds above
        # 1/alpha; asym_indicator accepts any R <= 1/alpha, even at an xi whose
        # e^{c/(2 alpha)} bound is smaller
        radius = default_indicator_radius(model_balanced, window, alpha, [2.0])
        assert radius <= 1.0 / alpha
        xi = model_balanced.xi0 + 2 * math.sqrt(alpha)
        assert math.log(radius) > (xi - model_balanced.xi0) ** 2 / (2 * alpha)
        assert asym_indicator(model_balanced, window, alpha, radius, 0.0, xi) != 0

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
        points = ((0.0, 1.0), (0.6, 1.015), (2.0, 0.99))
        for t, xi in points:
            val = squeeze_transform(model, window, config, t, xi)
            ref = squeeze_single_component(model.xi0, 1.0, window, ALPHA, t, xi)
            assert abs(val - ref) <= 1e-8 * abs(ref)
        # a xi array at one t gives the per-xi values bit for bit
        xis = np.array([xi for _, xi in points])
        for t, _ in points:
            per_xi = [squeeze_single_component(model.xi0, 1.0, window, ALPHA, t, xi) for xi in xis]
            assert np.array_equal(
                squeeze_single_component(model.xi0, 1.0, window, ALPHA, t, xis), per_xi)

    @pytest.mark.parametrize("delta", [0.15, 0.3])
    def test_section_through_a_zero_of_v(self, window, delta):
        # at a = 1 the zero of V on t_0^- is one base node of the band, whose
        # reassignment value is SENTINEL; it carries no mass in either mode
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=1.0)
        t = destructive_time(model, 0)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        (lo, hi), = squeeze_module._integration_pieces(model, window, config)
        nodes = np.linspace(lo, hi, squeeze_module._BASE_INTERVALS + 1)
        assert np.sum(eta_s_values(model, window, t, nodes) == SENTINEL) == 1
        xis = model.xi0 + delta * np.array([-0.3, 0.1, 0.5, 0.9, 1.2])
        for mode in ("sync", "phase"):
            mode_config = SqueezeConfig(alpha=ALPHA, weighting="stft", reassignment_mode=mode)
            assert np.all(np.isfinite(squeeze_cross_section(model, window, mode_config, t, xis)))
        vals = squeeze_cross_section(model, window, config, t, xis)
        ref = np.array([oracle_quadrature_squeeze(model, window, config, t, float(xi))
                        for xi in xis])
        scale = max(float(np.max(np.abs(vals))), 1e-6)
        assert np.max(np.abs(vals - ref)) / scale <= 1e-6

    def test_single_component_indicator_is_the_window_length(self, window):
        # a lone harmonic reassigns every eta in [-R, R] to xi0
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        config = SqueezeConfig(alpha=ALPHA, weighting="indicator", R=20.0)
        xis = model.xi0 + np.array([-0.01, 0.0, 0.005])
        vals = squeeze_cross_section(model, window, config, 0.4, xis)
        ref = 40.0 * np.exp(-(xis - model.xi0) ** 2 / ALPHA) / math.sqrt(math.pi * ALPHA)
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(ref)

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
        """(weight rows, nodes) of every _mollified_sums call and the eta of
        every eta_s_values call that squeeze_cross_section makes, in order."""
        sums, etas = [], []
        sum_fn, eta_fn = squeeze_module._mollified_sums, squeeze_module.eta_s_values

        def sums_spy(hat, weights, *args):
            assert weights.shape[1] == len(hat)
            sums.append(weights.shape)
            return sum_fn(hat, weights, *args)

        def eta_spy(model, window, t, eta):
            etas.append(np.array(eta))
            return eta_fn(model, window, t, eta)

        monkeypatch.setattr(squeeze_module, "_mollified_sums", sums_spy)
        monkeypatch.setattr(squeeze_module, "eta_s_values", eta_spy)
        return sums, etas

    @staticmethod
    def _sync_node_variable(model, window, config, t, xis, eta):
        """u(eta) in sync mode, written out from the arc length: c x +
        (delta/(r sqrt alpha)) atan(T tanh(C delta x))/T, x = eta - eta_avg,
        c = max(sqrt C, C delta), T = tan(p/2), with r = 1 + cos 2 pi delta t
        = 1 + cos p raised to 2 delta^2/(delta^2 + 4 X^2), X = max |xi -
        xibar| + sqrt(708.4 alpha)."""
        reach = np.max(np.abs(np.asarray(xis) - model.xibar)) + math.sqrt(
            -math.log(sys.float_info.min) * config.alpha)
        r = max(1.0 + math.cos(2 * math.pi * model.delta * t),
                2 * model.delta ** 2 / (model.delta ** 2 + 4 * reach ** 2))
        T = math.sqrt((2.0 - r) / r)
        th = np.tanh(window.C * model.delta * (eta - destructive_zero(model, window)))
        arc = np.arctan(T * th) / T if T else th
        c = max(math.sqrt(window.C), window.C * model.delta)
        return (c * (eta - destructive_zero(model, window))
                + model.delta / (r * math.sqrt(config.alpha)) * arc)

    @classmethod
    def _assert_nested(cls, model, window, config, t, xis, base, levels):
        """The base nodes and the midpoint levels evaluate every node of the
        finest graded rule on the band exactly once, and no other node: its
        nodes at equal steps of u from u(lo) to u(hi)."""
        (lo, hi), *_ = squeeze_module._integration_pieces(model, window, config)
        nodes = np.sort(np.concatenate([base] + levels))
        n = (len(levels[0]) << (len(levels) - 1)) * 2
        assert len(nodes) == n + 1 and np.all(np.diff(nodes) > 0)
        assert nodes[0] == pytest.approx(lo, abs=1e-12) and nodes[-1] == pytest.approx(hi, abs=1e-12)
        u = cls._sync_node_variable(model, window, config, t, xis, nodes)
        span = u[-1] - u[0]
        assert np.max(np.abs(u - (u[0] + span / n * np.arange(n + 1)))) <= 1e-12 * span

    def test_whole_grid_window_sums_each_level_once(self, window, model_a13, monkeypatch):
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        sums, etas = self._record_passes(monkeypatch)
        squeeze_cross_section(model_a13, window, config, 0.0, np.linspace(0.9, 1.4, 11))
        # at the constructive time the graded base is the smallest, 256
        # intervals; the base trapezoid T_h and the rule T_2h on its even
        # nodes are two weight rows of one pass over the band, and they agree,
        # so no midpoint level is added
        assert sums == [(2, 257)] and len(etas) == 1
        assert len(etas[0]) == 257

    def test_midpoint_levels_nest_in_u(self, window, model_a13, monkeypatch):
        # a tolerance no rule meets drives the destructive section from its
        # graded base to the finest rule, 4096 << 2 intervals
        monkeypatch.setattr(squeeze_module, "_RTOL", 0.0)
        monkeypatch.setattr(squeeze_module, "_MAX_DOUBLINGS", 2)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        t = destructive_time(model_a13, 0)
        xis = np.linspace(0.6, 1.7, 257)
        sums, etas = self._record_passes(monkeypatch)
        with pytest.raises(SolverFailureError):
            squeeze_cross_section(model_a13, window, config, t, xis)
        base, *levels = etas
        n0 = len(base) - 1
        assert len(levels) >= 1 and n0 << len(levels) == 4096 << 2
        assert sums == [(2, n0 + 1)] + [(1, n0 << k) for k in range(len(levels))]
        self._assert_nested(model_a13, window, config, t, xis, base, levels)
        # the graded nodes crowd around the zero of V
        steps = np.diff(np.sort(np.concatenate(etas)))
        assert np.min(steps) < np.max(steps) / 100

    def test_gap_small_a13_destructive_row_is_one_pass(self, window):
        # the t = 5/3 row of the squeeze preset: a ladder from uniform nodes
        # evaluated 4097 + 4096 + 8192 + 16384 + 32768 = 65537 nodes there,
        # and 12,721 after splitting the band around the zone by the zero of
        # V; the graded rule's base pass of 2049 nodes converges
        cfg = PRESETS["gap-small-a13"]
        model = TwoHarmonicModel(xi0=cfg["model.xi0"], delta=cfg["model.delta"],
                                 a=cfg["model.a"])
        config = SqueezeConfig(alpha=cfg["squeeze.alpha"], weighting=cfg["squeeze.weighting"])
        xis = np.linspace(cfg["grid.eta_min"], cfg["grid.eta_max"], cfg["grid.n_eta"])
        assert destructive_time(model, 0) == pytest.approx(5 / 3)
        nodes = []

        def eta_spy(model, window, t, eta):
            nodes.append(np.size(eta))
            return eta_s_values(model, window, t, eta)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(squeeze_module, "eta_s_values", eta_spy)
            squeeze_cross_section(model, window, config, 5 / 3, xis)
        assert nodes == [2049]

    # sections through and next to the zero of V: the phase rule sits 0.05
    # off the destructive time, where a 2^18-node rule resolves it
    @pytest.mark.parametrize("offset, weighting, mode, a, alpha", [
        (0.0, "stft", "sync", 0.4, 1e-5),
        (0.0, "indicator", "phase", 1.0, 1e-4),
        (0.0, "stft", "phase", 1.3, 1e-4),
        (0.0, "indicator", "sync", 1.3, 1e-5),
        (0.05, "stft", "phase", 0.4, 1e-3),
        (0.005, "indicator", "sync", 1.0, 1e-4),
        (0.05, "indicator", "phase", 1.3, 1e-3),
        (0.005, "stft", "sync", 0.4, 1e-5),
    ])
    def test_split_matches_a_fine_uniform_rule(self, window, offset, weighting, mode, a, alpha):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
        t = destructive_time(model, 0) + offset
        R = 8.0 if weighting == "indicator" else None
        config = SqueezeConfig(alpha=alpha, weighting=weighting, R=R, reassignment_mode=mode)
        xis = model.xi0 + model.delta * np.linspace(-1.0, 2.0, 7)
        vals = squeeze_cross_section(model, window, config, t, xis)
        # one midpoint rule over the band, or over all of [-R, R]
        ref = _midpoint_rule(model, window, config, t, xis, 2 ** 18)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(vals - ref)) <= 1e-9 * scale
        oracle = np.array([oracle_quadrature_squeeze(model, window, config, t, float(xi))
                           for xi in xis])
        assert np.max(np.abs(vals - oracle)) <= 1e-6 * scale

    def test_phase_section_next_to_a_zero_converges(self):
        # a ladder from uniform nodes stopped here after 9 doublings, still
        # 2.8 times over the tolerance; the graded rule matches a 2^22-node
        # midpoint rule to 7.0e-9 of the section's max, and this 2^20-node
        # one on every tenth xi to 4.9e-8
        model = TwoHarmonicModel(xi0=1.0, delta=0.6658918842004374, a=0.4052904036302374)
        window = GaussianWindow(sigma=1.2242797887726682)
        config = SqueezeConfig(alpha=4.849063391677871e-05, weighting="stft",
                               reassignment_mode="phase")
        t = 0.7442895458264165
        xis = np.linspace(model.xi0 - 0.8, model.xi1 + 0.8, 200)
        vals = squeeze_cross_section(model, window, config, t, xis)
        ref = _midpoint_rule(model, window, config, t, xis[::10], 2 ** 20)
        assert np.max(np.abs(vals[::10] - ref)) <= 1e-6 * np.max(np.abs(vals))

    def test_starved_destructive_section_raises(self, window, model_a13, monkeypatch):
        # the finest rule has 4096 << 2 intervals: the destructive section's
        # graded base of 2048 doubles three times to it and raises there
        monkeypatch.setattr(squeeze_module, "_RTOL", 1e-18)
        monkeypatch.setattr(squeeze_module, "_MAX_DOUBLINGS", 2)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        t = destructive_time(model_a13, 0)
        with pytest.raises(SolverFailureError, match=r"in 3 doublings \(16384 intervals\)") as err:
            squeeze_cross_section(model_a13, window, config, t, np.linspace(0.6, 1.7, 33))
        change, target = err.value.residuals
        assert math.isfinite(change) and change > target > 0

    @pytest.mark.parametrize("R", [5.0, 50.0])
    def test_indicator_far_fields_are_one_closed_form_sum(self, window, model_a13,
                                                          monkeypatch, R):
        # a tolerance no rule meets refines the band to the finest rule,
        # 4096 intervals
        monkeypatch.setattr(squeeze_module, "_RTOL", 0.0)
        monkeypatch.setattr(squeeze_module, "_MAX_DOUBLINGS", 0)
        config = SqueezeConfig(alpha=ALPHA, weighting="indicator", R=R)
        xis = np.array([1.08, 1.15, 1.22])
        sums, etas = self._record_passes(monkeypatch)
        weights = []
        sum_fn = squeeze_module._mollified_sums

        def weights_spy(hat, w, *args):
            weights.append(w.copy())
            return sum_fn(hat, w, *args)

        monkeypatch.setattr(squeeze_module, "_mollified_sums", weights_spy)
        with pytest.raises(SolverFailureError, match=r"\(4096 intervals\)"):
            squeeze_cross_section(model_a13, window, config, 0.0, xis)
        # the band's two rules in one sum over its n0 + 1 base nodes, then the
        # far fields [-R, band] and [band, R] in one more: their midpoints,
        # each weighted by its length
        (lo, hi), *_ = squeeze_module._integration_pieces(model_a13, window, config)
        band, far = etas[:2]
        n0 = len(band) - 1
        assert -R < lo and hi < R and n0 < 4096
        assert sums[:2] == [(2, n0 + 1), (1, 2)]
        assert far.tolist() == [(-R + lo) / 2, (hi + R) / 2]
        assert weights[1].tolist() == [[lo + R, R - hi]]
        # the midpoint levels n0, 2 n0, ... are nested on the whole band
        levels = etas[2:]
        assert len(levels) >= 1 and sums[2:] == [(1, n0 << k) for k in range(len(levels))]
        self._assert_nested(model_a13, window, config, 0.0, xis, band, levels)

    def test_converged_base_pass_is_one_kernel_pass(self, window, model_a13, monkeypatch):
        # T_h is returned when it agrees with T_2h; it matches the value one
        # doubling later, T_{h/2}, which a base pass of 2 n0 intervals gives
        xis = np.linspace(0.9, 1.4, 101)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        sums, etas = self._record_passes(monkeypatch)
        vals = squeeze_cross_section(model_a13, window, config, 0.0, xis)
        n0 = sums[0][1] - 1
        assert sums == [(2, n0 + 1)] and len(etas) == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(squeeze_module, "_MIN_BASE_INTERVALS", 2 * n0)
            ref = squeeze_cross_section(model_a13, window, config, 0.0, xis)
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))

    # at R = 2.5 the band is clipped at R and only the left far field remains;
    # at R = 50 xi0 and xi1 take most of their mass from far-field nodes where
    # both Gaussians of V underflow
    @pytest.mark.parametrize("R", [2.5, 5.0, 50.0])
    def test_indicator_partial_window_matches_oracle(self, window, model_a13, R):
        config = SqueezeConfig(alpha=ALPHA, weighting="indicator", R=R)
        xis = np.array([1.0, 1.08, 1.15, 1.22, 1.3])
        vals = squeeze_cross_section(model_a13, window, config, 0.0, xis)
        ref = np.array([oracle_quadrature_squeeze(model_a13, window, config, 0.0, float(xi),
                                                  n_nodes=2 ** 18) for xi in xis])
        assert np.max(np.abs(vals - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("delta", [0.3, 0.05])
    @pytest.mark.parametrize("kind", ["constructive", "destructive"])
    def test_indicator_far_fields_match_a_fine_uniform_rule(self, window, delta, kind):
        # xi on and next to xi0 and xi1 take most of their mass from the far
        # fields, where eta_hat must already sit on xi0 or xi1: at delta = 0.05
        # it is still 7e-4 away at xi0 - 10/(pi sigma). The reference is one
        # midpoint rule over all of [-R, R] at 2^20 nodes
        R = 20.0
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=1.3)
        t = 0.0 if kind == "constructive" else destructive_time(model, 0)
        config = SqueezeConfig(alpha=ALPHA, weighting="indicator", R=R)
        xis = model.xi0 + delta * np.array([-0.05, 0.0, 0.05, 0.5, 0.95, 1.0, 1.05])
        vals = squeeze_cross_section(model, window, config, t, xis)
        n = 2 ** 20
        hat = eta_s_values(model, window, t, -R + (2 * R / n) * (np.arange(n) + 0.5))
        ref = np.array([np.sum(np.exp(-np.abs(hat - xi) ** 2 / ALPHA)) for xi in xis])
        ref *= 2 * R / n / math.sqrt(math.pi * ALPHA)
        assert np.max(np.abs(vals - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("max_doublings", [0, 1])
    def test_starved_refinement_raises(self, window, model_a13, monkeypatch, max_doublings):
        # the finest rule is the graded base of 256 intervals, or one doubling
        # past it; with no doubling the base pass still compares T_h with T_2h
        monkeypatch.setattr(squeeze_module, "_BASE_INTERVALS", 256)
        monkeypatch.setattr(squeeze_module, "_RTOL", 1e-18)
        monkeypatch.setattr(squeeze_module, "_MAX_DOUBLINGS", max_doublings)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        with pytest.raises(SolverFailureError, match=f"in {max_doublings} doublings") as err:
            squeeze_cross_section(model_a13, window, config, 0.4, np.linspace(1.0, 1.3, 7))
        change, target = err.value.residuals
        assert math.isfinite(change) and change > target > 0

    def test_no_doubling_returns_a_converged_base_pass(self, window, model_a13, monkeypatch):
        xis = np.linspace(0.9, 1.4, 11)
        config = SqueezeConfig(alpha=ALPHA, weighting="stft")
        ref = squeeze_cross_section(model_a13, window, config, 0.0, xis)
        monkeypatch.setattr(squeeze_module, "_MAX_DOUBLINGS", 0)
        assert np.array_equal(squeeze_cross_section(model_a13, window, config, 0.0, xis), ref)

    def test_field_rejects_non_finite_entries(self, window, model_a13, monkeypatch):
        monkeypatch.setattr(squeeze_module, "squeeze_cross_section",
                            lambda model, window, config, t, xis: np.full(xis.shape, np.nan + 0j))
        grid = TFGrid(0.0, 1.0, 2, 0.9, 1.4, 3)
        with pytest.raises(ModelValidationError, match="non-finite entries in SQUEEZE field"):
            squeeze_module.squeeze_field(model_a13, window, SqueezeConfig(alpha=ALPHA), grid)

    @pytest.mark.parametrize("mode", squeeze_module.REASSIGN_MODES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_xi_raises(self, window, model_a13, mode, bad):
        # the first non-finite xi is named
        config = SqueezeConfig(alpha=1e-3, reassignment_mode=mode)
        xis = np.array([1.0, bad, 1.2, -bad])
        with pytest.raises(ModelValidationError, match=f"xi = {bad}$"):
            squeeze_cross_section(model_a13, window, config, 0.3, xis)


class TestBaseIntervals:
    """The base of the graded ladder: the smallest power of two n0 >= 256 with
    u(hi) - u(lo) <= n0/4, where u' = max(sqrt(C), C delta) + |D|/sqrt(alpha)."""

    @staticmethod
    def _random_case(rng):
        a = math.exp(rng.uniform(-1.5, 1.5))
        delta, sigma = rng.uniform(0.05, 0.8), rng.uniform(0.7, 2.5)
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
        return model, GaussianWindow(sigma=sigma), rng.uniform(0.0, 1.0 / delta)

    def test_map_derivative_bound(self):
        # on a dense grid in s = ln |q|, with s = 0 on the grid, where cosh s
        # + cos phi is smallest and |D| meets the bound
        rng = np.random.default_rng(30)
        k = 20_000
        for _ in range(200):
            model, window, t = self._random_case(rng)
            bound = window.C * model.delta ** 2 / (1.0 + math.cos(2 * math.pi * model.delta * t))
            step = 30.0 / (2.0 * window.C * model.delta * k)
            eta = destructive_zero(model, window) + step * np.arange(-k, k + 1)
            peak = float(np.max(np.abs(eta_s_derivative(model, window, t, eta))))
            assert peak <= bound * (1 + 1e-12)
            assert peak >= bound * (1 - 1e-9)

    @staticmethod
    def _base(model, window, config, t, xis):
        """The interval count of the first kernel pass, which is then cut
        short, and u(hi) - u(lo) on the band."""
        shapes = []

        class Stop(Exception):
            pass

        def first_pass(hat, weights, *args):
            shapes.append(weights.shape)
            raise Stop

        (lo, hi), *_ = squeeze_module._integration_pieces(model, window, config)
        u_lo, u_hi, _ = squeeze_module._graded_nodes(model, window, config, t, xis, lo, hi)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(squeeze_module, "_mollified_sums", first_pass)
            with pytest.raises(Stop):
                squeeze_cross_section(model, window, config, t, xis)
        assert shapes[0][0] == 2
        return shapes[0][1] - 1, u_hi - u_lo

    def test_smallest_power_of_two_that_resolves_the_band(self):
        rng = np.random.default_rng(31)
        sizes = set()
        for i in range(300):
            model, window, t = self._random_case(rng)
            config = SqueezeConfig(alpha=10.0 ** rng.uniform(-5.0, -2.5),
                                   reassignment_mode=squeeze_module.REASSIGN_MODES[i % 2])
            xis = np.linspace(model.xi0 - model.delta, model.xi1 + model.delta, 5)
            n0, span = self._base(model, window, config, t, xis)
            sizes.add(n0)
            assert n0 >= 256 and n0 & (n0 - 1) == 0
            assert span / n0 <= 0.25
            if n0 > 256:
                assert span / (n0 // 2) > 0.25
        assert len(sizes) >= 5

    def test_arc_length_sets_the_base(self, window, model_a13):
        # away from a zero of V the base follows N(t) = (c width + L(t)/sqrt(alpha))/(1/4)
        # with the closed-form arc length L = delta p/sin p
        config = SqueezeConfig(alpha=ALPHA)
        (lo, hi), = squeeze_module._integration_pieces(model_a13, window, config)
        xis = np.linspace(0.9, 1.4, 11)
        c = max(math.sqrt(window.C), window.C * model_a13.delta)
        for t in (0.0, 0.5, 1.2):
            p = math.acos(math.cos(2 * math.pi * model_a13.delta * t))
            length = model_a13.delta * (p / math.sin(p) if p else 1.0)
            _, span = self._base(model_a13, window, config, t, xis)
            assert span == pytest.approx(c * (hi - lo) + length / math.sqrt(ALPHA), rel=1e-12)

    def test_a_base_past_the_finest_rule_raises_before_any_pass(self, window, model_a13,
                                                                monkeypatch):
        # the destructive row, 2048 intervals, needs more than a finest rule
        # of 1024
        sums, etas = TestTransform._record_passes(monkeypatch)
        t = destructive_time(model_a13, 0)
        xis = np.linspace(0.6, 1.7, 33)
        monkeypatch.setattr(squeeze_module, "_BASE_INTERVALS", 1024)
        monkeypatch.setattr(squeeze_module, "_MAX_DOUBLINGS", 0)
        with pytest.raises(SolverFailureError, match="more than the finest rule's 1024"):
            squeeze_cross_section(model_a13, window, SqueezeConfig(alpha=ALPHA), t, xis)
        assert sums == [] and etas == []

    @pytest.mark.parametrize("offset", [0.0, 1e-6, 3e-4, -1e-4, 1e-2])
    def test_phase_sections_next_to_t0_count_only_the_arc_in_reach(self, window, model_a13,
                                                                     offset):
        # in phase mode next to t_0^- Re eta_s sweeps out to about delta/(2
        # sqrt(2 r)) on either side of xibar, r = 1 + cos 2 pi delta t: the
        # whole arc would take from 6.3e4 intervals at offset 1e-2 to 6.3e8
        # at 1e-6. The part that reaches a xi window is one pass of 4097
        # nodes at each offset, as is t_0^- itself, where r = 0
        t = destructive_time(model_a13, 0) + offset
        xis = np.linspace(0.6, 1.7, 33)
        config = SqueezeConfig(alpha=1e-5, reassignment_mode="phase")
        with pytest.MonkeyPatch.context() as patch:
            sums, _ = TestTransform._record_passes(patch)
            vals = squeeze_cross_section(model_a13, window, config, t, xis)
        assert sums == [(2, 4097)]
        ref = np.array([oracle_quadrature_squeeze(model_a13, window, config, t, float(xi))
                        for xi in xis[::4]])
        assert np.max(np.abs(vals[::4] - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_starved_coarse_start_doubles_to_the_same_finest_rule(self, monkeypatch):
        # with the finest rule at 1024 << 2 = 4096 intervals, a start at 256
        # reaches it after 4 doublings, then raises
        monkeypatch.setattr(squeeze_module, "_BASE_INTERVALS", 1024)
        monkeypatch.setattr(squeeze_module, "_MAX_DOUBLINGS", 2)
        monkeypatch.setattr(squeeze_module, "_RTOL", 0.0)
        model = TwoHarmonicModel(xi0=1.0, delta=0.15, a=1.3)
        window = GaussianWindow(sigma=0.7)
        config = SqueezeConfig(alpha=1e-3, weighting="stft")
        sums, _ = TestTransform._record_passes(monkeypatch)
        with pytest.raises(SolverFailureError, match=r"in 4 doublings \(4096 intervals\)") as err:
            squeeze_cross_section(model, window, config, 0.0, np.linspace(1.0, 1.15, 5))
        assert sums == [(2, 257)] + [(1, 256 << k) for k in range(4)]
        change, target = err.value.residuals
        assert math.isfinite(change) and change > target == 0.0

    @staticmethod
    def _largest_base(monkeypatch):
        """Every section starts from at least _BASE_INTERVALS intervals."""
        monkeypatch.setattr(squeeze_module, "_MIN_BASE_INTERVALS", squeeze_module._BASE_INTERVALS)

    # both weightings and both modes at and near constructive times; t is
    # (k + frac)/delta
    @pytest.mark.parametrize("weighting, mode, a, alpha, sigma, delta, k, frac", [
        ("stft", "sync", 0.4, 1e-5, 0.7, 0.15, 0, 0.0),
        ("stft", "phase", 1.0, 1e-4, math.sqrt(2.0), 0.3, 1, 0.0),
        ("stft", "sync", 1.3, 1e-3, 2.5, 0.3, -1, 0.1),
        ("stft", "phase", 0.4, 1e-3, 0.7, 0.3, 0, 0.15),
        ("indicator", "sync", 1.3, 1e-3, 2.5, 0.3, 0, 0.0),
        ("indicator", "phase", 0.4, 1e-4, 0.7, 0.15, 2, 0.0),
        ("indicator", "sync", 1.0, 1e-5, 0.7, 0.08, 1, 0.05),
        ("indicator", "phase", 1.0, 1e-4, 2.5, 0.15, 0, -0.1),
        ("stft", "sync", 1.0, 1e-4, math.sqrt(2.0), 0.15, 3, 0.05),
        ("indicator", "sync", 1.3, 1e-4, math.sqrt(2.0), 0.15, 0, 0.1),
    ])
    def test_coarse_start_matches_a_fine_uniform_rule(self, monkeypatch, weighting, mode, a,
                                                      alpha, sigma, delta, k, frac):
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
        window = GaussianWindow(sigma=sigma)
        t = (k + frac) / delta
        R = None
        if weighting == "indicator":
            # R just past the band's ends, so that it clips neither
            wide = SqueezeConfig(alpha=alpha, weighting=weighting, R=1e6)
            (lo, hi), *_ = squeeze_module._integration_pieces(model, window, wide)
            R = max(-lo, hi) + 1.0
        config = SqueezeConfig(alpha=alpha, weighting=weighting, R=R, reassignment_mode=mode)
        xis = model.xi0 + delta * np.linspace(-1.0, 2.0, 7)
        sums, _ = TestTransform._record_passes(monkeypatch)
        vals = squeeze_cross_section(model, window, config, t, xis)
        assert sums[0][1] - 1 < squeeze_module._BASE_INTERVALS
        # one midpoint rule over the band, or over all of [-R, R]
        ref = _midpoint_rule(model, window, config, t, xis, 2 ** 18)
        assert np.max(np.abs(vals - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_a_band_clipped_at_r_takes_the_largest_base(self, monkeypatch):
        # R = 8 clips the band, which needs 26 on either side of xibar; its
        # ends are not flat, where a coarser start would lose accuracy: they
        # take at most the step of 4096 uniform intervals
        model = TwoHarmonicModel(xi0=1.0, delta=0.15, a=1.0)
        window = GaussianWindow(sigma=0.7)
        xis = np.array([1.0, 1.075, 1.15])
        for R, expected in ((8.0, 2 * squeeze_module._BASE_INTERVALS), (30.0, 512)):
            config = SqueezeConfig(alpha=1e-3, weighting="indicator", R=R)
            with pytest.MonkeyPatch.context() as patch:
                sizes, etas = TestTransform._record_passes(patch)
                squeeze_cross_section(model, window, config, 0.0, xis)
            assert sizes[0] == (2, expected + 1)
            if R == 8.0:
                steps = np.diff(etas[0])
                assert max(steps[0], steps[-1]) <= 16.0 / squeeze_module._BASE_INTERVALS

    def test_random_sections_match_the_largest_base(self):
        # near constructive times, both weightings and modes, R from
        # clipping the band to far beyond it
        rng = np.random.default_rng(33)
        coarse = 0
        for i in range(40):
            model, window, _ = self._random_case(rng)
            t = (int(rng.integers(-2, 3)) + rng.uniform(-0.3, 0.3)) / model.delta
            weighting = squeeze_module.WEIGHTINGS[i % 2]
            mode = squeeze_module.REASSIGN_MODES[i // 2 % 2]
            R = float(rng.choice([8.0, 30.0, 100.0])) if weighting == "indicator" else None
            config = SqueezeConfig(alpha=10.0 ** rng.uniform(-5.0, -2.5), weighting=weighting,
                                   R=R, reassignment_mode=mode)
            xis = np.linspace(model.xi0 - model.delta, model.xi1 + model.delta, 60)
            with pytest.MonkeyPatch.context() as patch:
                sizes, _ = TestTransform._record_passes(patch)
                vals = squeeze_cross_section(model, window, config, t, xis)
            with pytest.MonkeyPatch.context() as patch:
                self._largest_base(patch)
                ref = squeeze_cross_section(model, window, config, t, xis)
            coarse += sizes[0][1] - 1 < squeeze_module._BASE_INTERVALS
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert coarse >= 10

    def test_criterion_8_sections_match_the_largest_base(self, window):
        # the 641-xi STFT sections of criterion 8's flip search, at t = 0,
        # each one pass of 257 nodes
        config = SqueezeConfig(alpha=1e-4, weighting="stft")
        for delta in (0.15, 0.18, 0.19, 0.2, 0.25):
            model = TwoHarmonicModel(xi0=1.0, delta=delta, a=1.0)
            xis = np.linspace(model.xi0 - 0.08, model.xi1 + 0.08, 641)
            with pytest.MonkeyPatch.context() as patch:
                self._largest_base(patch)
                ref = squeeze_cross_section(model, window, config, 0.0, xis)
                ref_count = squeeze_module.count_squeeze_maxima(model, window, config)
            with pytest.MonkeyPatch.context() as patch:
                sizes, _ = TestTransform._record_passes(patch)
                vals = squeeze_cross_section(model, window, config, 0.0, xis)
                count = squeeze_module.count_squeeze_maxima(model, window, config)
            assert sizes == [(2, 257)] * 2
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert count == ref_count


class TestImageArc:
    """The closed-form length of the image arc of eta_s on a line t = const."""

    # L(t) = delta p/sin p at a = 1.3, delta = 0.3, sigma = sqrt 2
    @pytest.mark.parametrize("t, length", [
        (0.0, 0.3), (0.5, 0.349490), (1.2, 0.880691), (1.5, 2.744930), (1.65, 29.704886),
    ])
    def test_arc_length_is_the_integral_of_the_map_derivative(self, window, model_a13,
                                                               t, length):
        model = model_a13
        p = math.acos(math.cos(2 * math.pi * model.delta * t))
        T = math.tan(p / 2)
        eta = np.linspace(-20.0, 22.0, 400_001)
        centre = destructive_zero(model, window)
        z, dz = squeeze_module._image_arc(model, window, T, eta - centre)
        phi = model.delta / 2 * (1 + T * T) * z
        total = model.delta * (p / math.sin(p) if p else 1.0)
        assert phi[-1] - phi[0] == pytest.approx(total, rel=1e-12)
        assert total == pytest.approx(length, abs=5e-7)
        # Phi' = |D| at every eta, and the trapezoid rule, which converges
        # geometrically on the whole line, integrates |D| to the whole arc
        d = np.abs(eta_s_derivative(model, window, t, eta))
        assert np.max(np.abs(model.delta / 2 * (1 + T * T) * dz - d)) <= 1e-12 * np.max(d)
        assert np.sum(d[1:] + d[:-1]) / 2 * (42.0 / 400_000) == pytest.approx(total, rel=1e-12)


def _midpoint_rule(model, window, config, t, xis, n):
    """S(t, xi) by one midpoint rule of n nodes over the squeeze band, or
    over all of [-R, R] for indicator weighting."""
    indicator = config.weighting == "indicator"
    if indicator:
        lo, hi = -config.R, config.R
    else:
        (lo, hi), = squeeze_module._integration_pieces(model, window, config)
    eta = lo + (hi - lo) / n * (np.arange(n) + 0.5)
    hat = eta_s_values(model, window, t, eta)
    if config.reassignment_mode == "phase":
        hat = hat.real.astype(complex)
    weight = np.ones(n) if indicator else stft_closed_form(model, window, t, eta)
    out = np.empty(len(xis), dtype=complex)
    for i, xi in enumerate(xis):
        # exp(-40^2) is 0.0: the dropped terms add nothing
        near = np.abs(hat - xi) < 40 * math.sqrt(config.alpha)
        out[i] = np.dot(np.exp(-np.abs(hat[near] - xi) ** 2 / config.alpha), weight[near])
    return out * (hi - lo) / n / math.sqrt(math.pi * config.alpha)


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
        # two weight rows; some nodes are weighted by the second row only
        gvals = np.array([gvals, rng.normal(size=n) + 1j * rng.normal(size=n)])
        gvals[0, rng.random(n) < 0.2] = 0.0
        weights = w * gvals
        weights[:, sent] = 0.0
        got = _mollified_sums(hat, weights, xis, alpha)
        assert got.shape == (2, len(xis))
        for row, g in zip(got, gvals):
            ref = _dense_mollified_sums(hat, sent, w, g, xis, alpha)
            assert np.array_equal(ref == 0, row == 0)
            assert np.count_nonzero(ref == 0) == 2
            tail = np.abs(ref[41:45])
            assert np.all((tail > 1e-250) & (tail < 1e-80))
            big = np.abs(ref) > 1e-280
            assert np.all(np.abs(row[big] - ref[big]) <= 1e-12 * np.abs(ref[big]))

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
        got = _mollified_sums(hat, (w * gvals)[None], np.array([xi]), alpha)
        assert got[0, 0] == 0.0

    def test_restores_the_ufunc_buffer_size(self, monkeypatch):
        # the block loop runs with a 1024-element buffer, and the caller's
        # size comes back, also when the loop raises
        rng = np.random.default_rng(7)
        hat = rng.uniform(1.0, 1.3, 200).astype(complex)
        weights = _positive_weights(rng, 1, 200)
        before = np.getbufsize()
        _mollified_sums(hat, weights, np.linspace(1.0, 1.3, 9), 1e-4)
        assert np.getbufsize() == before
        calls = _KernelCalls()
        sizes = []

        def failing_matmul(*args, **kwargs):
            sizes.append(np.getbufsize())
            raise FloatingPointError

        calls.matmul = failing_matmul
        monkeypatch.setattr(squeeze_module, "np", calls)
        with pytest.raises(FloatingPointError):
            _mollified_sums(hat, weights, np.linspace(1.0, 1.3, 9), 1e-4)
        assert sizes == [1024] and np.getbufsize() == before

    @pytest.mark.parametrize("m", [1, 2])
    def test_identical_windows_longer_than_one_block(self, monkeypatch, m):
        # every xi's window is all 3,000 nodes: 40 such rows are 120,000 terms
        rng = np.random.default_rng(5)
        alpha, n = 1e-4, 3000
        hat = rng.uniform(1.0, 1.01, n) + 1j * rng.normal(0.0, 3 * math.sqrt(alpha), n)
        weights = _positive_weights(rng, m, n)
        xis = np.linspace(1.0, 1.01, 40)
        calls = _KernelCalls()
        monkeypatch.setattr(squeeze_module, "np", calls)
        got = _mollified_sums(hat, weights, xis, alpha)
        assert len(calls.blocks) > 1 and sum(rows for rows, _ in calls.blocks) == len(xis)
        assert all(rows * union <= _BLOCK_TERMS for rows, union in calls.blocks)
        _assert_block_shapes(calls, hat, xis, alpha)
        _assert_matches_dense(got, hat, weights, xis, alpha)

    @staticmethod
    def _clusters(rng, m, alpha):
        """Nodes in three clusters farther apart than two reaches, and xi
        sliding across them, so that some windows between them are empty."""
        hat = np.concatenate([rng.uniform(lo, lo + 0.1, 700) for lo in (1.0, 1.4, 1.9)])
        hat = hat + 1j * rng.normal(0.0, 3 * math.sqrt(alpha), len(hat))
        return hat, _positive_weights(rng, m, len(hat)), np.linspace(0.8, 2.2, 400)

    @pytest.mark.parametrize("m", [1, 2])
    def test_sliding_windows_with_empty_windows_between(self, monkeypatch, m):
        alpha = 1e-5
        hat, weights, xis = self._clusters(np.random.default_rng(6), m, alpha)
        calls = _KernelCalls()
        monkeypatch.setattr(squeeze_module, "np", calls)
        got = _mollified_sums(hat, weights, xis, alpha)
        assert np.count_nonzero(got[0] == 0.0) > 50
        assert max(rows for rows, _ in calls.blocks) > 1
        _assert_block_shapes(calls, hat, xis, alpha)
        _assert_matches_dense(got, hat, weights, xis, alpha)
        # -inf masks every exponent below -708.396; every other argument
        # keeps both Gaussian factors normal
        assert -708.4 <= calls.lo and calls.hi <= 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_non_monotone_xi_order(self, m):
        alpha = 1e-5
        rng = np.random.default_rng(7)
        hat, weights, xis = self._clusters(rng, m, alpha)
        perm = rng.permutation(len(xis))
        got = _mollified_sums(hat, weights, xis[perm], alpha)
        _assert_matches_dense(got, hat, weights, xis[perm], alpha)
        # the kernel sorts the xi itself, so permuting distinct xis permutes
        # the columns bit for bit
        assert np.array_equal(got, _mollified_sums(hat, weights, xis, alpha)[:, perm])

    def test_xi_past_its_reach_is_zero_beside_a_block(self):
        # the xi in the middle has its nearest nodes at exponents 710-745: the
        # dense sum is subnormal there, the kernel's exactly 0.0, although
        # its neighbours on both sides have terms and sum in blocks
        alpha, xi = 1e-4, 1.0
        offsets = np.sqrt(np.array([710.0, 720.0, 735.0, 745.0]) * alpha)
        hat = np.concatenate([xi - offsets, xi + offsets]).astype(complex)
        weights = np.ones((2, len(hat)), dtype=complex)
        step = 0.01 * math.sqrt(alpha)
        xis = np.concatenate([xi - offsets[0] - step * np.arange(1, 4)[::-1], [xi],
                              xi + offsets[0] + step * np.arange(1, 4)])
        got = _mollified_sums(hat, weights, xis, alpha)
        ref = _dense_mollified_sums(hat, np.zeros(len(hat), dtype=bool), np.ones(len(hat)),
                                    weights[0], xis, alpha)
        assert 0.0 < abs(ref[3]) < 1e-300
        assert np.all(got[:, 3] == 0.0)
        assert np.all(np.abs(np.delete(got, 3, axis=1)) > 0.1)

    def test_nan_xi_reads_zero_beside_a_block(self):
        # a nan xi sorts last and has an empty window, but it shares a block
        # with finite xi, so its exponents are computed: they are nan, and
        # its column reads 0.0, not nan
        rng = np.random.default_rng(8)
        alpha = 1e-4
        hat = rng.uniform(1.0, 1.3, 500).astype(complex)
        weights = _positive_weights(rng, 2, 500)
        xis = np.array([1.1, np.nan, 1.2])
        got = _mollified_sums(hat, weights, xis, alpha)
        assert np.all(got[:, 1] == 0.0)
        _assert_matches_dense(got[:, [0, 2]], hat, weights, xis[[0, 2]], alpha)


class _KernelCalls:
    """numpy as squeeze sees it, recording the blocks of _mollified_sums: the
    shape of each (rows, union) matrix product and the range of every finite
    exp argument."""

    def __init__(self):
        self.blocks, self.lo, self.hi = [], math.inf, -math.inf

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, **kwargs):
        finite = np.asarray(x)[np.isfinite(x)]
        if finite.size:
            self.lo, self.hi = min(self.lo, finite.min()), max(self.hi, finite.max())
        return np.exp(x, **kwargs)

    def matmul(self, a, b, **kwargs):
        self.blocks.append(a.shape)
        return np.matmul(a, b, **kwargs)


def _positive_weights(rng, m, n):
    # real and imaginary parts positive, so no sum cancels
    return rng.uniform(0.5, 1.5, (m, n)) + 1j * rng.uniform(0.5, 1.5, (m, n))


def _assert_block_shapes(calls, hat, xis, alpha):
    # a block sums at most _BLOCK_ROWS xi over at most _BLOCK_TERMS terms, or
    # over the widest window when one row alone passes that
    re = np.sort(hat.real)
    reach = math.sqrt(_NORMAL_EXPONENT * alpha)
    widest = np.max(np.searchsorted(re, xis + reach, side="right")
                    - np.searchsorted(re, xis - reach, side="left"))
    assert all(rows <= _BLOCK_ROWS and rows * union <= max(_BLOCK_TERMS, widest)
               for rows, union in calls.blocks)


def _assert_matches_dense(got, hat, weights, xis, alpha):
    assert got.shape == (len(weights), len(xis))
    for row, g in zip(got, weights):
        ref = _dense_mollified_sums(hat, np.zeros(len(hat), dtype=bool), np.ones(len(hat)),
                                    g, xis, alpha)
        big = np.abs(ref) > 1e-280
        assert np.all(np.abs(row[big] - ref[big]) <= 1e-12 * np.abs(ref[big]))
        # only terms below the smallest normal double are dropped
        assert np.all(np.abs(row[~big]) <= 2e-280)


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
        # nan within 1e-3 delta of xi0 and xi1, on and off the support
        m = model_balanced
        xis = np.array([m.xi0 - 1e-5, m.xi0, m.xi0 + 1e-5, m.xi0 + 1e-3, m.xi1, m.xi1 + 1e-5])
        dens = pushforward_density(m, window, "indicator", 0.0, xis)
        assert np.array_equal(np.isnan(dens), [True, True, True, False, True, True])

    def test_stft_weighted_center(self, window, model_balanced):
        val = pushforward_density(model_balanced, window, "stft", 0.0, model_balanced.xibar)
        theta1 = pushforward_density(model_balanced, window, "indicator", 0.0,
                                     model_balanced.xibar)
        a_plus = 2 * math.exp(-window.C * model_balanced.delta ** 2 / 4)
        assert abs(val) == pytest.approx(theta1.real * a_plus, rel=1e-12)

    def test_small_alpha_indicator_cross_check(self, window, model_balanced):
        alpha = 1e-6
        config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
        xis = np.array([1.08, model_balanced.xibar, 1.26])
        dens = np.abs(pushforward_density(model_balanced, window, "indicator", 0.0, xis))
        for xi, expected in zip(xis, dens):
            quad = abs(squeeze_transform(model_balanced, window, config, 0.0, float(xi)))
            assert quad == pytest.approx(expected, rel=5e-3)

    def test_requires_distinguished_time(self, window, model_balanced):
        with pytest.raises(PreconditionError):
            pushforward_density(model_balanced, window, "indicator", 0.123, 1.1)
        with pytest.raises(PreconditionError):
            classify_time(model_balanced, 0.123)

    def test_guard_order(self, window, model_balanced):
        # the weighting, then the time raise for the whole array; then per xi
        # the standoff reads nan, then the support decides 0 or the density
        m = model_balanced
        quarter = 0.25 / m.delta
        with pytest.raises(ModelValidationError):
            pushforward_density(m, window, "boxcar", quarter, m.xi0)
        with pytest.raises(PreconditionError):
            pushforward_density(m, window, "stft", quarter, m.xi0)
        # xi0 - 1e-5 is off the constructive support but inside the standoff
        xis = np.array([m.xi0 - 1e-5, m.xi0 - 0.1, m.xibar])
        dens = pushforward_density(m, window, "stft", 0.0, xis)
        assert np.isnan(dens[0]) and dens[1] == 0.0 and np.isfinite(dens[2]) and dens[2] != 0
        # the limits keep no standoff: 0 off the support, inf exactly at a
        # component frequency on the destructive support
        for values in (asym_sst(m, window, 0.0, xis),
                       asym_indicator(m, window, 1e-5, 50.0, 0.0, xis)):
            assert values[0] == 0.0 and values[1] == 0.0 and 0.0 < abs(values[2]) < math.inf
        assert asym_sst(m, window, 0.0, xis)[2] == dens[2]
        t_minus = destructive_time(m, 0)
        ends = np.array([m.xi0, m.xi1])
        for values in (asym_sst(m, window, t_minus, ends),
                       asym_indicator(m, window, 1e-5, 50.0, t_minus, ends)):
            assert np.all(values == complex(math.inf))
        assert np.all(asym_sst(m, window, 0.0, ends) == 0.0)
        with pytest.raises(PreconditionError):
            asym_sst(m, window, quarter, m.xibar)
        with pytest.raises(PreconditionError):
            asym_indicator(m, window, 1e-5, 50.0, quarter, m.xibar)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.3, 3.0])
    @pytest.mark.parametrize("delta", [0.15, 0.3, 1.0])
    def test_stft_density_matches_log_space_form(self, window, a, delta):
        m = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
        # the support outside 2e-3 delta of xi0 and xi1, and just outside that
        # standoff, where the preimage is farthest from eta_avg
        edge = 2.5e-3 * delta * np.array([-1.0, 1.0])
        xis = np.concatenate([np.linspace(m.xi0 - delta, m.xi1 + delta, 241),
                              m.xi0 + edge, m.xi1 + edge])
        xis = xis[(np.abs(xis - m.xi0) > 2e-3 * delta) & (np.abs(xis - m.xi1) > 2e-3 * delta)]
        for t in (0.0, destructive_time(m, 0), constructive_time(m, 2)):
            kind = classify_time(m, t)
            support = [float(xi) for xi in xis if (m.xi0 < xi < m.xi1) == (kind == "constructive")]
            assert len(support) > 50
            whole = pushforward_density(m, window, "stft", t, np.array(support))
            for xi, from_array in zip(support, whole):
                ref = _log_space_density(m, window, kind, t, xi)
                for got in (pushforward_density(m, window, "stft", t, xi),
                            asym_sst(m, window, t, xi), from_array):
                    assert abs(got - ref) <= 1e-13 * abs(ref), (t, xi)
                eta = destructive_zero(m, window) + _preimage_offset(m, window, kind, xi)
                hat = complex(eta_s_values(m, window, t, np.array([eta]))[0])
                assert abs(hat - xi) <= 1e-13 * delta, (t, xi)

    def test_stft_density_at_a_far_preimage_is_zero_without_warning(self):
        # at sigma = 1e-100 the preimage of xi lies near -1.6e199, whose square
        # overflows; V there is 0, as is e^{-ln(u/a)^2/(4 C delta^2)}
        m = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pushforward_density(m, GaussianWindow(sigma=1e-100), "stft", 0.0, 1.1)
        assert value == 0.0


def _log_space_density(model, window, kind, t, xi):
    """V(t, eta_*) over |d eta_s/d eta| at the preimage eta_* of xi, expanded in
    u = a e^{2 C delta (eta_* - xibar)} and ln(u/a):
    V = e^{2 pi i xi0 t} e^{-C delta^2/4} sqrt(a/u) e^{-ln(u/a)^2/(4 C delta^2)} (1 +- u),
    with + at constructive and - at destructive times."""
    C, d = window.C, model.delta
    if kind == "constructive":
        u = (xi - model.xi0) / (model.xi1 - xi)
        tail = 1.0 + u
    else:
        u = (xi - model.xi0) / (xi - model.xi1)
        tail = 1.0 - u
    amp = (math.exp(-C * d * d / 4.0) * math.sqrt(model.a / u)
           * math.exp(-math.log(u / model.a) ** 2 / (4.0 * C * d * d)) * tail)
    phase = complex(math.cos(2 * math.pi * model.xi0 * t), math.sin(2 * math.pi * model.xi0 * t))
    return phase * amp / (2.0 * C * abs((xi - model.xi0) * (xi - model.xi1)))


class TestAsymptotics:
    def test_indicator_match(self, window, model_balanced):
        alpha = 1e-5
        config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
        xis = np.linspace(model_balanced.xi0 + model_balanced.delta / 4,
                          model_balanced.xi1 - model_balanced.delta / 4, 7)
        approx = np.abs(asym_indicator(model_balanced, window, alpha, 50.0, 0.0, xis))
        quad = np.abs(squeeze_cross_section(model_balanced, window, config, 0.0, xis))
        assert approx == pytest.approx(quad, rel=0.05)

    def test_off_support_decay(self, window, model_balanced):
        xi = model_balanced.xi0 - 0.2
        vals = []
        for alpha in (2e-4, 1e-4):
            config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
            vals.append(abs(squeeze_transform(model_balanced, window, config, 0.0, xi)))
        assert vals[0] > 0.0
        assert vals[0] >= 10.0 * vals[1]
        assert asym_indicator(model_balanced, window, 1e-4, 50.0, 0.0, xi) == 0.0

    def test_indicator_symmetry(self, window, model_balanced):
        x = np.array([0.02, 0.05, 0.1])
        left = asym_indicator(model_balanced, window, 1e-5, 50.0, 0.0, model_balanced.xibar - x)
        right = asym_indicator(model_balanced, window, 1e-5, 50.0, 0.0, model_balanced.xibar + x)
        assert np.abs(left) == pytest.approx(np.abs(right), rel=1e-12)

    def test_radius_preconditions(self, window, model_balanced):
        with pytest.raises(PreconditionError):
            asym_indicator(model_balanced, window, 1e-5, 0.5, 0.0, model_balanced.xibar)

    def test_sst_match(self, window, model_balanced):
        alpha = 1e-5
        config = SqueezeConfig(alpha=alpha, weighting="stft")
        xis = np.linspace(model_balanced.xi0 + model_balanced.delta / 4,
                          model_balanced.xi1 - model_balanced.delta / 4, 7)
        approx = asym_sst(model_balanced, window, 0.0, xis)
        quad = squeeze_cross_section(model_balanced, window, config, 0.0, xis)
        assert np.all(np.abs(approx - quad) <= 0.05 * np.abs(quad))

    def test_weighting_contrast_at_small_gap(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.15, a=1.0)
        xs = np.linspace(model.xi0 + 0.005, model.xi1 - 0.005, 301)
        sst_curve = np.abs(asym_sst(model, window, 0.0, xs))
        interior_max = np.sum((sst_curve[1:-1] > sst_curve[:-2])
                              & (sst_curve[1:-1] > sst_curve[2:]))
        assert interior_max == 1
        ind_curve = np.abs(asym_indicator(model, window, 1e-5, 50.0, 0.0, xs))
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
        # erf_closed_form takes the a > 0 check from preimage_intervals
        with pytest.raises(DegenerateAmplitudeError):
            erf_closed_form(TwoHarmonicModel(1.0, 0.3, 0.0), window, ALPHA, 0.0, 1.1)

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

    @pytest.mark.parametrize("a", [1e-50, 1e-100])
    def test_small_amplitude_ratio_is_exact_at_the_fold(self, window, monkeypatch, a):
        # for a < 1 the fold is the mirror 1 - Y of the one found on (1/4, 1/2);
        # r = a (Y - 1/4)/(5/4 - Y) there, which rounding 1 - Y would spoil
        # as Y nears 1/4
        folds = []

        def bracket_spy(*args):
            bracket = flip_bracket(*args)
            folds.append(bracket[1])
            return bracket

        monkeypatch.setattr(squeeze_module, "flip_bracket", bracket_spy)
        delta_c, r, xi_c = critical_gap_sst(a, window)
        y = Fraction(folds[0])
        exact = Fraction(a) * (y - Fraction(1, 4)) / (Fraction(5, 4) - y)
        assert abs(Fraction(r) - exact) <= 4 * Fraction(math.ulp(float(exact)))
        assert xi_c == (1.0 - folds[0]) * delta_c

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
            vals = np.abs(pushforward_density(model, window, "stft", 0.0, xis))
            return len(_candidate_peaks(vals)[0])

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
            vals = np.abs(pushforward_density(model, window, "stft", 0.0, xis))
            return len(_candidate_peaks(vals)[0])

        lo, hi = 0.999 * delta_c, 1.001 * delta_c
        assert count(lo) == 1 and count(hi) == 2
        lo, hi = flip_bracket(lambda d: count(d) >= 2, lo, hi, 12)
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
        lo, hi = flip_bracket(lambda d: count(d) >= 2, lo, hi, 4)
        assert hi - lo < 2e-3 * delta_c
        assert delta_c <= lo and hi <= 1.01 * delta_c


class TestLaplaceConsistency:
    def test_error_shrinks_linearly_in_alpha(self, window, model_balanced):
        xi = model_balanced.xibar + 0.03
        errs = {}
        for alpha in (1e-4, 2.5e-5):
            config = SqueezeConfig(alpha=alpha, weighting="stft")
            quad = squeeze_transform(model_balanced, window, config, 0.0, xi)
            lead = asym_sst(model_balanced, window, 0.0, xi)
            errs[alpha] = abs(quad - lead)
        assert errs[2.5e-5] <= 0.3 * errs[1e-4]

    def test_indicator_error_shrinks_linearly_in_alpha(self, window, model_balanced):
        xi = model_balanced.xibar - 0.05
        errs = {}
        for alpha in (1e-4, 2.5e-5):
            config = SqueezeConfig(alpha=alpha, weighting="indicator", R=50.0)
            quad = abs(squeeze_transform(model_balanced, window, config, 0.0, xi))
            lead = abs(asym_indicator(model_balanced, window, alpha, 50.0, 0.0, xi))
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
        lead = asym_sst(model, window, 0.0, xi)
        assert abs(quad - lead) <= 0.05 * abs(quad)

        t_minus = destructive_time(model, 0)
        assert erf_closed_form(model, window, 1e-5, t_minus, model.xibar) == 0.0
        assert abs(squeeze_transform(model, window, config, t_minus, model.xibar)) < 1e-8
