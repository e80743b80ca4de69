import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twotone
from twotone import (
    GaussianWindow,
    SqueezeConfig,
    TwoHarmonicModel,
    destructive_time,
    lift_two_harmonic,
    squeeze_cross_section,
    stft_closed_form,
)
from twotone.errors import InconclusiveCountError
from twotone.oracle import (
    oracle_maxima_count,
    oracle_quadrature_squeeze,
    oracle_stft,
)
from twotone.squeeze import squeeze_single_component, squeeze_transform


class TestOracleStft:
    def test_against_closed_form(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        val = oracle_stft(lift_two_harmonic(model).evaluate, window, 1.0, 1.1)
        ref = stft_closed_form(model, window, 1.0, 1.1)
        assert abs(val - ref) <= 1e-7

    def test_zero_signal(self, window):
        assert oracle_stft(lambda x: np.zeros_like(x, dtype=complex), window, 0.0, 1.0) == 0.0

    def test_step_halving_order(self, window):
        # The integrand is a harmonic times a Gaussian, so the midpoint sum
        # converges spectrally, not at an algebraic order: its aliasing error
        # is about sum_j |a_j| exp(-pi^2 sigma^2 (1/h - |xi_j - eta|)^2).
        # At sigma = sqrt(2) that reaches round-off (~3e-16) from h ~ 0.5
        # down, where an error ratio between two steps is noise. So the
        # steps are taken where discretisation error dominates round-off.
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        ref = stft_closed_form(model, window, 1.0, 1.1)
        f = lift_two_harmonic(model).evaluate
        err = {h: abs(oracle_stft(f, window, 1.0, 1.1, step=h) - ref)
               for h in (1.2, 1.0, 0.9, 0.8, 0.7, 0.6)}
        # The step is honoured: a coarse sum is visibly off.
        assert err[1.0] >= 1e-5
        # Each refinement cuts the error by more than an order of magnitude.
        for coarse, fine in ((1.0, 0.9), (0.9, 0.8), (0.8, 0.7)):
            assert err[coarse] >= 10.0 * err[fine]
        # Halving the step gains far more than the 4x of a second-order rule.
        assert err[1.2] >= 1e6 * err[0.6]
        # The default step sits at round-off.
        default = abs(oracle_stft(f, window, 1.0, 1.1) - ref)
        assert default <= 1e-13

    def test_explicit_resolution_reruns_exactly(self, window):
        # the step and half-width are the whole resolution: passing the
        # defaults explicitly reproduces the value bit for bit
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        f = lift_two_harmonic(model).evaluate
        value = oracle_stft(f, window, 1.0, 1.1)
        assert abs(value - stft_closed_form(model, window, 1.0, 1.1)) <= 1e-7
        assert oracle_stft(f, window, 1.0, 1.1, step=1e-4, half_width_sigmas=8.0) == value


class TestMaximaCount:
    def test_single_gaussian(self):
        assert oracle_maxima_count(lambda x: np.exp(-x ** 2), -4.0, 4.0, 512) == 1

    def test_two_bumps(self):
        curve = lambda x: np.exp(-(x - 1) ** 2) + np.exp(-(x + 1) ** 2)
        assert oracle_maxima_count(curve, -4.0, 4.0, 512) == 2

    def test_straddles_critical_gap(self, window):
        for delta, expected in ((0.31, 1), (0.33, 2)):
            model = TwoHarmonicModel(xi0=1.0, delta=delta, a=1.0)
            curve = lambda e: np.abs(stft_closed_form(model, window, 0.0, np.asarray(e)))
            lo = model.xi0 - 3 / (math.pi * window.sigma)
            hi = model.xi1 + 3 / (math.pi * window.sigma)
            assert oracle_maxima_count(curve, lo, hi, 2048) == expected

    def test_sample_floor(self):
        with pytest.raises(InconclusiveCountError):
            oracle_maxima_count(lambda x: np.exp(-x ** 2), -4.0, 4.0, 128)


class TestOracleSqueeze:
    def test_single_component_closed_form(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=0.0)
        config = SqueezeConfig(alpha=1e-4, weighting="stft")
        val = oracle_quadrature_squeeze(model, window, config, 0.4, 1.02)
        ref = squeeze_single_component(1.0, 1.0, window, 1e-4, 0.4, 1.02)
        assert abs(val - ref) / abs(ref) <= 1e-6

    def test_mutual_agreement_with_adaptive_path(self, window, model_a13):
        config = SqueezeConfig(alpha=1e-4, weighting="stft")
        for t in np.linspace(0.1, 1.5, 5):
            for xi in np.linspace(1.02, 1.28, 5):
                a_val = squeeze_transform(model_a13, window, config, float(t), float(xi))
                o_val = oracle_quadrature_squeeze(model_a13, window, config, float(t), float(xi))
                scale = max(abs(a_val), 1e-6)
                assert abs(a_val - o_val) / scale <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(0.1, 1.0), a=st.floats(0.3, 3.0), sigma=st.floats(1.0, 2.0),
           log10_alpha=st.floats(-5.0, -3.0), phase=st.floats(0.0, 1.0),
           spots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    def test_cross_section_property(self, delta, a, sigma, log10_alpha, phase, spots):
        # t anywhere in one beat period, xi anywhere on [xi0 - 0.1, xi1 + 0.1]
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
        window = GaussianWindow(sigma=sigma)
        config = SqueezeConfig(alpha=10.0 ** log10_alpha, weighting="stft")
        t = phase / delta
        xis = model.xi0 - 0.1 + np.array(spots) * (delta + 0.2)
        got = squeeze_cross_section(model, window, config, t, xis)
        ref = np.array([oracle_quadrature_squeeze(model, window, config, t, float(xi))
                        for xi in xis])
        # the quadrature converges on the whole cross section at once, so
        # the relative tolerance is taken against its largest value
        scale = max(float(np.max(np.abs(got))), 1e-6)
        assert np.max(np.abs(got - ref)) / scale <= 1e-6

    def test_node_doubling_stable(self, window, model_balanced):
        config = SqueezeConfig(alpha=1e-4, weighting="stft")
        v1 = oracle_quadrature_squeeze(model_balanced, window, config, 0.0, 1.15)
        v2 = oracle_quadrature_squeeze(model_balanced, window, config, 0.0, 1.15,
                                       n_nodes=2 ** 17)
        assert abs(v1 - v2) < 1e-8


def _oracle_section(model, window, config, t, xis, n_nodes=2 ** 16):
    return np.array([oracle_quadrature_squeeze(model, window, config, t, float(xi),
                                               n_nodes=n_nodes) for xi in xis])


class TestOracleNearAZero:
    """Sections next to a destructive time, where 1 + cos 2 pi delta t is small
    and the oracle grades its nodes around the zero of V."""

    # (a, delta, sigma, alpha, t): indicator weighting, phase mode, R = 100,
    # 1 + cos 2 pi delta t below 5e-4. A squeeze ladder that starts from
    # uniform nodes converged on the sections of 120 xi on [1 - delta, 1 + 2
    # delta] 1.2e-6, 4.5e-7 and 1.3e-8 of their max away from the oracle,
    # nearly alike at every xi: its base step did not resolve the narrow
    # features by the zero, and T_h and T_2h agreed there because neither
    # sampled them. A midpoint rule with 2^23 nodes on eta_avg +- 0.05 and
    # 2^22 on either side agrees with the oracle within 1.8e-11 of the max
    MISSED = [
        (1.2500508678589979, 0.07976481384425001, 2.142995929165372,
         0.0025129120713025463, 6.208792051982055),
        (0.6785469430940223, 0.09815900012457772, 1.633797221308531,
         0.0007827981055581372, 5.059059246599359),
        (0.3822112100435376, 0.3095460793343588, 2.4066233105394668,
         0.000271226296601904, 1.6039880138062712),
    ]

    @pytest.mark.parametrize("a, delta, sigma, alpha, t", MISSED)
    def test_library_resolves_the_zero(self, a, delta, sigma, alpha, t):
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
        window = GaussianWindow(sigma=sigma)
        config = SqueezeConfig(alpha=alpha, weighting="indicator", R=100.0,
                               reassignment_mode="phase")
        xis = np.linspace(1.0 - delta, 1.0 + 2.0 * delta, 120)
        vals = squeeze_cross_section(model, window, config, t, xis)
        ref = _oracle_section(model, window, config, t, xis[::40])
        assert np.max(np.abs(vals[::40] - ref)) <= 1e-8 * np.max(np.abs(vals))

    def test_library_resolves_the_zero_with_stft_weighting(self, window, model_a13):
        # the uniform-node ladder also missed this section by 1.9e-7 of its
        # max; the oracle and the composite rule above agree within 1.7e-14
        config = SqueezeConfig(alpha=1e-5, weighting="stft", reassignment_mode="phase")
        t = destructive_time(model_a13, 0) + 0.01
        xis = np.linspace(model_a13.xi0 - model_a13.delta, model_a13.xi1 + model_a13.delta, 7)
        vals = squeeze_cross_section(model_a13, window, config, t, xis)
        ref = _oracle_section(model_a13, window, config, t, xis)
        assert np.max(np.abs(vals - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_indicator_phase_section_next_to_a_zero(self, window, model_a13):
        # Re eta_s spikes next to t_0^-, and a uniform midpoint rule over
        # [-8, 8] still moves by 2.9e-4 of the max from 2^22 to 2^24 nodes: at
        # 2^24 its step times max |D| is 0.75 sqrt(alpha). The spikes are at
        # least sqrt(alpha)/max |D| = 1.3e-6 wide, which the library resolves
        config = SqueezeConfig(alpha=1e-5, weighting="indicator", R=8.0,
                               reassignment_mode="phase")
        t = destructive_time(model_a13, 0) + 0.02
        xis = np.linspace(model_a13.xi0 - model_a13.delta, model_a13.xi1 + model_a13.delta, 7)
        vals = squeeze_cross_section(model_a13, window, config, t, xis)
        ref = _oracle_section(model_a13, window, config, t, xis)
        assert np.max(np.abs(vals - ref)) <= 1e-9 * np.max(np.abs(ref))

    # the first of MISSED, then t = t_0^- = 1/(2 delta) + offset, where
    # 1 + cos 2 pi delta t is 0 at offset 0
    @pytest.mark.parametrize("a, delta, sigma, alpha, weighting, mode, R, t", [
        (*MISSED[0][:4], "indicator", "phase", 100.0, MISSED[0][4]),
        (1.3, 0.3, math.sqrt(2.0), 1e-5, "stft", "sync", None, 0.5 / 0.3),
        (0.4, 0.3, math.sqrt(2.0), 1e-4, "indicator", "sync", 8.0, 0.5 / 0.3 + 1e-3),
        (1.0, 0.15, 0.7, 1e-3, "stft", "phase", None, 0.5 / 0.15 + 0.01),
    ])
    def test_twice_the_nodes_agree(self, a, delta, sigma, alpha, weighting, mode, R, t):
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
        window = GaussianWindow(sigma=sigma)
        config = SqueezeConfig(alpha=alpha, weighting=weighting, R=R, reassignment_mode=mode)
        xis = np.linspace(model.xi0 - delta, model.xi1 + delta, 4)
        once = _oracle_section(model, window, config, t, xis)
        twice = _oracle_section(model, window, config, t, xis, n_nodes=2 ** 17)
        assert np.max(np.abs(once - twice)) <= 1e-12 * np.max(np.abs(twice))


def _twotone_imports(path: Path) -> set:
    """Names imported from the twotone package by one source file, as
    submodule names ("from .errors import X" and "import twotone.errors" both
    give "errors"; "from . import oracle" gives "oracle")."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("twotone.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "twotone" and not module.startswith("twotone."):
                    continue
                module = module[len("twotone."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def test_oracle_stays_independent_of_the_kernels():
    package = Path(twotone.__file__).parent
    assert _twotone_imports(package / "oracle.py") <= {"errors", "model"}
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "oracle.py" and "oracle" in _twotone_imports(path)]
    assert importers == []
