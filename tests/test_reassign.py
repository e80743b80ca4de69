import math
import warnings

import numpy as np
import pytest

from twotone import (
    SENTINEL,
    GaussianWindow,
    TFGrid,
    TwoHarmonicModel,
    ahm_reassign_error_bound,
    arc_circle,
    attraction_bound_check,
    constructive_time,
    destructive_time,
    destructive_zero,
    eta_s_values,
    lift_two_harmonic,
    reassign_field,
    stft_closed_form,
)
from twotone.errors import DomainError
from twotone.reassign import _EXP_CLIP, _log_q_and_q, eta_s_derivative, eta_s_numeric
from tests.test_gabor import bit_cases, traced_peak
from tests.test_model import quadratic_signal


class TestEtaS:
    def test_single_component_constant(self, window):
        # at eta = xi1 + 8e307 the exponent 2 C delta (eta - xibar) overflows to
        # +inf, which ln a = -inf must not cancel to nan
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        for t, eta in ((0.0, 0.5), (1.3, 1.8), (-2.0, 1.0), (0.4, model.xi1 + 8e307),
                       (0.4, model.xi0 - 8e307)):
            assert complex(eta_s_values(model, window, t, eta)) == 1.0 + 0j
        assert np.isnan(eta_s_values(model, window, 0.4, math.nan).real)

    # at an offset of 8e307 the exponent 2 C delta (eta - xibar) overflows to +-inf
    def test_high_frequency_limit(self, window, model_a13):
        for offset in (50.0, 8e307):
            val = complex(eta_s_values(model_a13, window, 0.37, model_a13.xi1 + offset))
            assert val == model_a13.xi1 + 0j

    def test_low_frequency_limit(self, window, model_a13):
        for offset in (50.0, 8e307):
            val = complex(eta_s_values(model_a13, window, 0.37, model_a13.xi0 - offset))
            assert val == model_a13.xi0 + 0j

    @pytest.mark.parametrize("a", [1e-250, 1e250])
    def test_extreme_amplitude_pins_on_log_q(self, window, a):
        # |ln a| = 575.6: the component follows ln q = ln a + 2 C delta (eta -
        # xibar), not the exponent without ln a, which passes +-500 here
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
        eta = model.xibar + (np.linspace(-60.0, 60.0, 121) - math.log(a)) / (
            2 * window.C * model.delta)
        log_q = math.log(a) + 2 * window.C * model.delta * (eta - model.xibar)
        exact = model.xi0 + model.delta / (1.0 + np.exp(-log_q))
        vals = eta_s_values(model, window, 0.0, eta)
        assert np.max(np.abs(vals - exact)) <= 1e-13

    def test_finite_difference_oracle(self, window, model_a13):
        h = 1e-6
        for t, eta in ((0.21, 1.05), (0.9, 1.24), (1.9, 0.95)):
            v = stft_closed_form(model_a13, window, t, eta)
            dv = (stft_closed_form(model_a13, window, t + h, eta)
                  - stft_closed_form(model_a13, window, t - h, eta)) / (2 * h)
            fd = dv / (2j * math.pi * v)
            exact = complex(eta_s_values(model_a13, window, t, eta))
            assert abs(fd - exact) / abs(exact) <= 1e-6

    def test_sentinel_at_zero(self, window, model_a13):
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        val = eta_s_values(model_a13, window, destructive_time(model_a13, 0), eta_avg)
        assert np.isneginf(val.real)

    def test_range_at_distinguished_times(self, window, model_a13):
        etas = np.linspace(model_a13.xibar - 2.0, model_a13.xibar + 2.0, 401)
        plus = eta_s_values(model_a13, window, constructive_time(model_a13, 1), etas)
        assert np.all(plus.real > model_a13.xi0) and np.all(plus.real < model_a13.xi1)
        minus = eta_s_values(model_a13, window, destructive_time(model_a13, 1), etas)
        finite = np.isfinite(minus.real)
        outside = (minus.real[finite] < model_a13.xi0) | (minus.real[finite] > model_a13.xi1)
        assert np.all(outside)

    def test_scalar_and_column_t_match_array_t_bitwise(self, window):
        # e^{2 pi i delta t} is taken once per t and broadcast: the same bits
        # as the evaluation with t spread over every node
        rng = np.random.default_rng(11)
        for _ in range(200):
            model = TwoHarmonicModel(xi0=1.0, delta=rng.uniform(0.05, 1.0),
                                     a=math.exp(rng.uniform(-3.0, 3.0)))
            ts = rng.uniform(-10.0, 10.0, 3)
            etas = model.xibar + rng.uniform(-2.0, 2.0, 7)
            full = eta_s_values(model, window, np.repeat(ts[:, None], 7, axis=1),
                                np.tile(etas, (3, 1)))
            column = eta_s_values(model, window, ts[:, None], etas[None, :])
            scalar = np.array([eta_s_values(model, window, t, etas) for t in ts])
            assert np.array_equal(column.view(float), full.view(float))
            assert np.array_equal(scalar.view(float), full.view(float))

    def test_in_place_kernel_keeps_the_bits(self, window, model_a13):
        # the one-array kernel against both branches evaluated whole and
        # chosen by np.where
        def expected(model, window, t, eta):
            log_q, q = _log_q_and_q(model, window, t, eta)
            denom = 1.0 + q
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(np.abs(q) < 1.0, model.xi0 + model.delta * (q / denom),
                               model.xi1 - model.delta / denom)
            np.copyto(out, SENTINEL, where=np.abs(denom) <= 1e-14)
            np.copyto(out, model.xi1, where=log_q > _EXP_CLIP)
            np.copyto(out, model.xi0, where=log_q < -_EXP_CLIP)
            return out

        eta_avg = destructive_zero(model_a13, window)
        # |ln q| > 500 at both ends, a nan eta, and eta_avg at a zero of V
        edges = [(model_a13, window, destructive_time(model_a13, 0),
                  np.array([-400.0, 1.1, math.nan, eta_avg, 400.0]))]
        for case in edges + list(bit_cases(np.random.default_rng(35), 400)):
            want, got = expected(*case), eta_s_values(*case)
            assert type(got) is np.ndarray and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        edge = eta_s_values(*edges[0])
        assert np.isnan(edge[2]) and edge[3] == SENTINEL
        assert edge[0] == model_a13.xi0 and edge[4] == model_a13.xi1
        assert eta_s_values(model_a13, window, 0.3, 1.1).shape == ()

    def test_peaks_below_three_results(self, window, model_a13):
        ts = np.linspace(0.0, 2.0 / model_a13.delta, 256)
        etas = np.linspace(0.0, 2.3, 256)
        vals, peak = traced_peak(lambda: eta_s_values(model_a13, window, ts[:, None],
                                                      etas[None, :]))
        assert peak < 3 * vals.nbytes

    def test_monotone_at_constructive_time(self, window, model_a13):
        etas = np.linspace(model_a13.xibar - 1.5, model_a13.xibar + 1.5, 600)
        vals = eta_s_values(model_a13, window, 0.0, etas).real
        assert np.all(np.diff(vals) > 0)


class TestEtaSDerivative:
    @staticmethod
    def _random_points(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            window = GaussianWindow(sigma=rng.uniform(0.5, 2.0))
            model = TwoHarmonicModel(xi0=rng.uniform(0.5, 2.0), delta=rng.uniform(0.05, 1.0),
                                     a=math.exp(rng.uniform(-2.0, 2.0)))
            yield model, window, rng.uniform(-3.0, 3.0), model.xibar + rng.uniform(-0.5, 0.5)

    def test_matches_central_differences(self):
        # d eta_s/d eta = D and d eta_s/dt = (i pi/C) D: eta_s is holomorphic
        # in eta + i pi t/C
        h = 1e-6
        for model, window, t, eta in self._random_points(3, 300):
            d = complex(eta_s_derivative(model, window, t, eta))
            d_eta = (complex(eta_s_values(model, window, t, eta + h))
                     - complex(eta_s_values(model, window, t, eta - h))) / (2 * h)
            d_t = (complex(eta_s_values(model, window, t + h, eta))
                   - complex(eta_s_values(model, window, t - h, eta))) / (2 * h)
            assert abs(d_eta - d) <= 1e-6 * (1.0 + abs(d))
            assert abs(d_t - 1j * math.pi / window.C * d) <= 1e-6 * (1.0 + abs(d_t))

    def test_real_part_is_the_phase_rule_gradient(self):
        # with s = ln a + 2 C delta (eta - xibar) and phi = 2 pi delta t,
        # Re D = C delta^2 (1 + cos phi cosh s)/(cosh s + cos phi)^2
        for model, window, t, eta in self._random_points(4, 300):
            d = complex(eta_s_derivative(model, window, t, eta))
            s = math.log(model.a) + 2 * window.C * model.delta * (eta - model.xibar)
            phi = 2 * math.pi * model.delta * t
            real = (window.C * model.delta ** 2 * (1 + math.cos(phi) * math.cosh(s))
                    / (math.cosh(s) + math.cos(phi)) ** 2)
            assert abs(d.real - real) <= 1e-12 * (1.0 + abs(d))

    def test_pole_at_the_zero_of_v(self, window, model_balanced):
        # at a = 1 the zero of V on t_0^- is xibar, a node of this grid
        t = destructive_time(model_balanced, 0)
        etas = model_balanced.xibar + np.linspace(-0.5, 0.5, 101)
        d = eta_s_derivative(model_balanced, window, t, etas)
        pole = eta_s_values(model_balanced, window, t, etas) == SENTINEL
        assert np.count_nonzero(pole) == 1
        assert np.all(d[pole] == complex(math.inf, 0.0)) and np.all(np.isfinite(d[~pole]))

    @pytest.mark.parametrize("a", [0.0, 1e-250, 1.3, 1e250])
    def test_extreme_eta_reads_zero_without_warning(self, window, a):
        # the eta of eta_s_values' overflow tests: at an offset of 8e307 the
        # exponent overflows to +-inf, and at 50 it passes +-500 for a = 1.3.
        # RuntimeWarnings are errors in this suite
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
        etas = [model.xi1 + 8e307, model.xi0 - 8e307, math.nan]
        if a == 1.3:
            etas += [model.xi1 + 50.0, model.xi0 - 50.0]
        d = eta_s_derivative(model, window, 0.37, np.array(etas))
        assert np.isnan(d[2].real) and np.all(np.delete(d, 2) == 0.0)

    @pytest.mark.parametrize("a", [1e-250, 1e250])
    def test_extreme_amplitude_follows_log_q(self, window, a):
        # at t = 0, q is real and D = C delta^2/(1 + cosh ln q), whatever a is
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
        log_q = np.linspace(-60.0, 60.0, 121)
        eta = model.xibar + (log_q - math.log(a)) / (2 * window.C * model.delta)
        exact = window.C * model.delta ** 2 / (1.0 + np.cosh(log_q))
        d = eta_s_derivative(model, window, 0.0, eta)
        assert np.max(np.abs(d - exact) / exact) <= 1e-9

    def test_broadcasts_over_t_and_eta(self, window, model_a13):
        ts, etas = np.array([0.1, 0.7, 1.9]), np.linspace(0.9, 1.5, 5)
        grid = eta_s_derivative(model_a13, window, ts[:, None], etas[None, :])
        rows = np.array([eta_s_derivative(model_a13, window, t, etas) for t in ts])
        assert grid.shape == (3, 5) and np.array_equal(grid, rows)


class TestEtaP:
    def test_equals_real_part(self, window, model_a13):
        # the phase rule (1/2 pi) d/dt arg V, by a central difference of step h
        # whose error is O(h^2), is Re eta_s
        h = 1e-5
        ts = np.linspace(0.05, 2.9, 9)[:, None]
        etas = np.linspace(0.7, 1.6, 9)
        turn = (stft_closed_form(model_a13, window, ts + h, etas)
                / stft_closed_form(model_a13, window, ts - h, etas))
        full = eta_s_values(model_a13, window, ts, etas)
        assert np.max(np.abs(np.angle(turn) / (4 * math.pi * h) - full.real)) <= 1e-6

    def test_imag_vanishes_at_constructive_times(self, window, model_a13):
        for k in (0, 1, 2):
            t = constructive_time(model_a13, k)
            for eta in np.linspace(0.8, 1.5, 7):
                assert abs(complex(eta_s_values(model_a13, window, t, float(eta))).imag) < 1e-12

    def test_imag_matches_closed_form(self, window, model_a13):
        # Im eta_s = a delta e^{-C((eta - xi0)^2 + (eta - xi1)^2)} sin(2 pi delta t)
        # / |V|^2, the offset between the two reassignment rules
        a, delta, C = model_a13.a, model_a13.delta, window.C
        for t in (0.21, 0.9, 1.37):
            for eta in (0.95, 1.15, 1.31):
                direct = complex(eta_s_values(model_a13, window, t, eta)).imag
                d2 = (eta - model_a13.xi0) ** 2 + (eta - model_a13.xi1) ** 2
                formula = (a * delta * math.exp(-C * d2) * math.sin(2 * math.pi * delta * t)
                           / abs(stft_closed_form(model_a13, window, t, eta)) ** 2)
                assert direct == pytest.approx(formula, abs=1e-10)


class TestMobius:
    def test_anchor_points(self, window, model_a13):
        # on t = theta/(2 pi delta) at eta = eta_avg, q = e^{i theta}: q = 1
        # gives xibar and theta = pi/2 gives xibar + i delta/2
        eta_avg = destructive_zero(model_a13, window)
        at_one = eta_s_values(model_a13, window, 0.0, eta_avg)
        assert complex(at_one) == pytest.approx(model_a13.xibar + 0j, abs=1e-15)
        quarter = eta_s_values(model_a13, window, 1 / (4 * model_a13.delta), eta_avg)
        expected = complex(model_a13.xibar, model_a13.delta / 2)
        assert abs(complex(quarter) - expected) < 1e-14

    def test_unit_circle_image(self, window, model_a13):
        # at eta = eta_avg, |q| = 1 and q = e^{i theta} maps onto the vertical
        # line Re = xibar at height (delta/2) tan(theta/2)
        eta_avg = destructive_zero(model_a13, window)
        for theta in (-2.0, -0.4, 0.3, math.pi / 2, 2.5):
            t = theta / (2 * math.pi * model_a13.delta)
            val = complex(eta_s_values(model_a13, window, t, eta_avg))
            expected = complex(model_a13.xibar, model_a13.delta / 2 * math.tan(theta / 2))
            assert abs(val - expected) < 1e-13 * max(1.0, abs(expected))


class TestAttraction:
    def test_premise_violation_reads_nan(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.15, a=1.0)
        # at eta = xi0 the premise value is ~0.80 > 1/2
        chk = attraction_bound_check(model, window, 0.3, model.xi0)
        assert np.isnan(chk.premise) and np.isnan(chk.bound) and np.isnan(chk.actual)
        assert not chk.holds

    def test_premise_decided_before_the_exponential(self, window, model_a13):
        # at eta = 200 the premise value a e^{C delta (eta - xibar)} is far
        # past the float range; the premise fails, so the check reads nan
        # without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chk = attraction_bound_check(model_a13, window, 0.0, 200.0)
        assert np.isnan(chk.premise) and not chk.holds

    @pytest.mark.parametrize("a, eta", [(1e-6, 2.5), (0.3, 1.16), (1e-310, 121.2)])
    def test_premise_stops_at_xibar(self, window, a, eta):
        # for a < 1/2, w = a e^{C delta (eta - xibar)} <= 1/2 reaches above xibar,
        # where w no longer bounds |eta_s - xi0|; at a = 1e-6, eta = 2.5 the bound
        # is 0.0018 against 0.27. At a = 1e-310 the exponent passes 709.8 inside w <= 1/2.
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
        assert np.isnan(attraction_bound_check(model, window, 0.0, eta).premise)
        assert attraction_bound_check(model, window, 0.0, model.xibar).holds
        # one call on a mixed array: nan exactly at the cells outside the premise
        etas = np.array([model.xibar - 1.0, eta, model.xibar, model.xibar + 1e-9, eta])
        ts = np.array([[0.0], [0.7]])
        chk = attraction_bound_check(model, window, ts, etas)
        outside = np.broadcast_to(etas > model.xibar, (2, 5))
        assert chk.premise.shape == (2, 5)
        for field in (chk.premise, chk.bound, chk.actual):
            assert np.array_equal(np.isnan(field), outside)
        assert np.array_equal(chk.holds, ~outside)

    def test_zero_of_v_lies_outside_the_premise(self, window):
        # V vanishes on a line t = const only at eta_avg, where the exponent
        # x = -(ln a)/2 exceeds min(0, ln(1/(2a))) for every a > 0
        for a in (1e-9, 0.3, 0.5, 1.0, 1.3, 1e9):
            model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
            t_minus = destructive_time(model, 0)
            eta_avg = model.xibar - math.log(a) / (2 * window.C * model.delta)
            assert np.isneginf(eta_s_values(model, window, t_minus, eta_avg).real)
            assert np.isnan(attraction_bound_check(model, window, t_minus, eta_avg).premise)

    def test_holds_over_a_period(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.15, a=1.0)
        eta = model.xibar - 0.5
        chk = attraction_bound_check(model, window, np.linspace(0.0, 1.0 / model.delta, 25), eta)
        assert chk.holds.shape == (25,) and np.all(chk.holds)

    def test_small_amplitude_limit(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1e-9)
        chk = attraction_bound_check(model, window, 0.4, model.xibar)
        assert chk.bound < 1e-8 and chk.actual <= chk.bound

    def test_premise_is_returned(self, window, model_a13):
        # w = a e^{pi^2 sigma^2 delta (eta - xibar)}, and the bound is 2 delta w
        etas = np.array([model_a13.xibar - 0.5, model_a13.xi0 - 0.2, model_a13.xibar - 2.0])
        chk = attraction_bound_check(model_a13, window, 0.7, etas)
        w = model_a13.a * np.exp(window.C * model_a13.delta * (etas - model_a13.xibar))
        assert chk.premise == pytest.approx(w, rel=1e-14)
        assert chk.bound == pytest.approx(2 * model_a13.delta * w, rel=1e-14)


class TestArcCircle:
    def test_right_angle(self, model_a13):
        center, radius = arc_circle(model_a13, math.pi / 2)
        assert center == pytest.approx(complex(model_a13.xibar, 0.0), abs=1e-15)
        assert radius == pytest.approx(model_a13.delta / 2, rel=1e-14)

    def test_flat_limit(self, model_a13):
        # circumradius grows like (delta/2)/theta as the arc flattens
        _, radius = arc_circle(model_a13, 0.01)
        assert radius > 40 * model_a13.delta
        _, finer = arc_circle(model_a13, 0.005)
        assert finer > 1.9 * radius

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.3, 3.0])
    def test_frequency_lines_map_onto_arcs(self, window, a):
        # q = r e^{i theta} on the line t = theta/(2 pi delta) at
        # eta = eta_avg + ln r/(2 C delta)
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=a)
        etas = destructive_zero(model, window) + np.log(np.geomspace(0.1, 10.0, 21)) / (
            2 * window.C * model.delta)
        for theta in (0.3, 1.0, 2.0, 2.8):
            line = eta_s_values(model, window, theta / (2 * math.pi * model.delta), etas)
            center, radius = arc_circle(model, theta)
            assert np.max(np.abs(np.abs(line - center) - radius)) <= 1e-10

    def test_domain(self, model_a13):
        for theta in (-0.1, 0.0, math.pi, 4.0):
            with pytest.raises(DomainError):
                arc_circle(model_a13, theta)


class TestReassignField:
    def test_sentinel_alignment(self, window, model_a13):
        eta_avg = model_a13.xibar - math.log(model_a13.a) / (2 * window.C * model_a13.delta)
        t0 = destructive_time(model_a13, 0)
        grid = TFGrid(t0 - 1e-9, t0 + 1e-9, 3, eta_avg - 1e-9, eta_avg + 1e-9, 3)
        field = reassign_field(model_a13, window, grid)
        assert np.isneginf(field.real).any()

    def test_is_a_reassign_field(self, window, model_a13):
        grid = TFGrid(0.0, 2.0, 8, 0.7, 1.6, 8)
        field = reassign_field(model_a13, window, grid)
        expected = eta_s_values(model_a13, window, grid.t_values()[:, None],
                                grid.eta_values()[None, :])
        assert field.shape == (8, 8) and field.tobytes() == expected.tobytes()


class TestAhmReassignBound:
    def test_zero_modulation(self, window):
        signal = quadratic_signal(epsilon=0.0)
        assert ahm_reassign_error_bound(signal, window, 0.0, 0.25, 1.0, 1.0) == 0.0

    def test_beta_domain(self, window):
        signal = quadratic_signal()
        for beta in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(DomainError):
                ahm_reassign_error_bound(signal, window, 0.0, beta, 1.0, 1.0)

    def test_linear_phase_exact(self, window, model_a13):
        signal = lift_two_harmonic(model_a13)
        points = ((0.4, 1.05), (1.1, 1.25))
        for t, eta in points:
            num = eta_s_numeric(signal, window, t, eta)
            ref = complex(eta_s_values(model_a13, window, t, eta))
            assert abs(num - ref) <= 1e-8
        # an eta array at one t gives the per-eta values bit for bit
        etas = np.array([eta for _, eta in points])
        for t, _ in points:
            per_eta = [eta_s_numeric(signal, window, t, eta) for eta in etas]
            assert np.array_equal(eta_s_numeric(signal, window, t, etas), per_eta)

    def test_quadratic_phase_within_bound(self, window):
        signal = quadratic_signal()
        from twotone import ahm_stft_error_bound, ahm_stft_error_bound_dwindow, freeze_ahm

        model, _ = freeze_ahm(signal, 0.0)
        probes = [(-0.5, 1.02), (0.0, 1.1), (0.5, 1.21)]
        eps = signal.epsilon
        c_h = max(ahm_stft_error_bound(signal, window, t, 0.0) for t, _ in probes) / eps
        c_dh = max(ahm_stft_error_bound_dwindow(signal, window, t, 0.0) for t, _ in probes) / eps
        beta = 0.25
        bound = ahm_reassign_error_bound(signal, window, 0.0, beta, c_h, c_dh)
        for t, eta in probes:
            if abs(stft_closed_form(model, window, t, eta)) < eps ** beta:
                continue
            dev = abs(eta_s_numeric(signal, window, t, eta)
                      - complex(eta_s_values(model, window, t, eta)))
            assert dev <= bound
