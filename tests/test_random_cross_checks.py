"""Randomized cross-validation with fixed seeds: random window/model/probe
combinations checked against the independent oracles and closed-form
identities. Catches parameter-regime regressions the fixed-value tests miss.
"""

import math
import random

import numpy as np
import pytest

import twotone as tt
from twotone.errors import InconclusiveCountError, OutOfBranchError
from twotone.gabor import TFGrid
from twotone.oracle import oracle_maxima_count, oracle_quadrature_squeeze
from twotone.squeeze import SqueezeConfig


def random_setup(rng):
    sigma = rng.uniform(0.7, 2.5)
    window = tt.GaussianWindow(sigma=sigma)
    model = tt.TwoHarmonicModel(
        xi0=rng.uniform(-1.0, 2.0),
        delta=rng.uniform(0.08, 1.2),
        a=rng.uniform(0.15, 4.0),
    )
    return window, model


def test_counting_matches_oracle():
    rng = random.Random(101)
    compared = 0
    for _ in range(60):
        window, model = random_setup(rng)
        t = rng.uniform(-2.0, 5.0)
        lo = model.xi0 - 3 / (math.pi * window.sigma)
        hi = model.xi1 + 3 / (math.pi * window.sigma)
        curve = lambda e: np.abs(tt.stft_closed_form(model, window, t, np.asarray(e)))
        try:
            lib = tt.count_frequency_maxima(model, window, t, n_samples=1024)
            ref = oracle_maxima_count(curve, lo, hi, 4096)
        except InconclusiveCountError:
            continue
        compared += 1
        assert lib == ref, (window.sigma, model, t)
    assert compared >= 45


def test_reassignment_matches_finite_differences():
    rng = random.Random(202)
    for _ in range(80):
        window, model = random_setup(rng)
        t = rng.uniform(-2.0, 5.0)
        eta = rng.uniform(model.xi0 - 0.5, model.xi1 + 0.5)
        v = tt.stft_closed_form(model, window, t, eta)
        if abs(v) <= 1e-6:
            continue
        h = 1e-6
        fd = (tt.stft_closed_form(model, window, t + h, eta)
              - tt.stft_closed_form(model, window, t - h, eta)) / (2 * h * 2j * math.pi * v)
        exact = complex(tt.eta_s_values(model, window, t, eta))
        assert abs(fd - exact) / max(abs(exact), 1e-9) <= 1e-5


def test_destructive_extrema_across_regimes():
    rng = random.Random(303)
    for _ in range(80):
        window, model = random_setup(rng)
        eta_avg, eta_minus, eta_plus = tt.destructive_extrema(model, window, 0)
        t_zero = 0.5 / model.delta
        assert abs(tt.stft_closed_form(model, window, t_zero, eta_avg)) < 1e-9
        assert eta_minus < eta_avg < eta_plus


def test_squeeze_matches_midpoint_oracle():
    rng = random.Random(404)
    for _ in range(20):
        window, model = random_setup(rng)
        t = rng.uniform(-2.0, 5.0)
        alpha = rng.choice([1e-4, 3e-4])
        config = SqueezeConfig(alpha=alpha, weighting="stft")
        xi = rng.uniform(model.xi0 - 0.2, model.xi1 + 0.2)
        adaptive = tt.squeeze_transform(model, window, config, t, xi)
        fixed = oracle_quadrature_squeeze(model, window, config, t, xi)
        scale = max(abs(adaptive), abs(fixed), 1e-9)
        assert abs(adaptive - fixed) / scale <= 1e-5


def test_preimage_intervals_match_scan():
    rng = random.Random(505)
    alpha = 1e-4
    for _ in range(30):
        window, model = random_setup(rng)
        c_use = 0.5 * model.delta / (4 * math.sqrt(alpha))
        kind = rng.choice(["constructive", "destructive", "intermediate"])
        t = {"constructive": 1.0 / model.delta,
             "destructive": 0.5 / model.delta,
             "intermediate": 0.25 / model.delta}[kind]
        xi = rng.uniform(model.xi0 - 0.1, model.xi1 + 0.1)
        try:
            pre = tt.preimage_intervals(model, window, alpha, c_use, t, xi)
        except OutOfBranchError:
            continue
        eta_avg = model.xibar - math.log(model.a) / (2 * window.C * model.delta)
        scan = np.linspace(eta_avg - 2.5, eta_avg + 2.5, 6001)
        hat = tt.eta_s_values(model, window, t, scan)
        dist = np.abs(hat - xi)
        dist[np.isneginf(hat.real)] = np.inf
        hit = dist < c_use * math.sqrt(alpha)
        inside = np.zeros_like(hit)
        near_boundary = np.zeros_like(hit)
        for lo, hi in pre.intervals:
            inside |= (scan >= lo) & (scan <= hi)
            near_boundary |= np.abs(scan - lo) < 1e-6
            near_boundary |= np.abs(scan - hi) < 1e-6
        assert np.all(hit[~near_boundary] == inside[~near_boundary])


def test_zero_census_and_winding_across_regimes():
    rng = random.Random(606)
    for _ in range(25):
        window, model = random_setup(rng)
        t_max = 2.2 / model.delta
        eta_avg = model.xibar - math.log(model.a) / (2 * window.C * model.delta)
        region = TFGrid(0.0, t_max, 101, eta_avg - 1.2, eta_avg + 1.2, 61)
        zeros = tt.locate_zeros(model, window, region)
        expected = sum(1 for k in range(-1, 10) if 0.0 <= (k + 0.5) / model.delta <= t_max)
        assert len(zeros) == expected, (window.sigma, model)
        assert all(z.winding == 1 for z in zeros)


def test_attraction_bound_with_moderate_amplitudes():
    rng = random.Random(707)
    checked = 0
    for _ in range(40):
        window, model = random_setup(rng)
        if model.a < 0.5:
            continue
        t, eta = np.array([(rng.uniform(0.0, 3.0 / model.delta),
                            rng.uniform(model.xibar - 2.0, model.xibar)) for _ in range(6)]).T
        chk = tt.attraction_bound_check(model, window, t, eta)
        applies = ~np.isnan(chk.premise)
        checked += int(np.count_nonzero(applies))
        assert np.all(chk.holds[applies]), (window.sigma, model, t, eta, chk)
    assert checked >= 60


def test_stft_critical_gap_flip_across_regimes():
    rng = random.Random(808)
    for _ in range(15):
        window, model = random_setup(rng)
        delta_crit, _ = tt.critical_gap_stft(model.a, window)
        below = tt.TwoHarmonicModel(model.xi0, 0.97 * delta_crit, model.a)
        above = tt.TwoHarmonicModel(model.xi0, 1.03 * delta_crit, model.a)
        assert tt.count_frequency_maxima(below, window, 0.0, n_samples=2048) == 1
        assert tt.count_frequency_maxima(above, window, 0.0, n_samples=2048) == 2


def test_sst_critical_gap_duality_across_windows():
    rng = random.Random(909)
    for _ in range(8):
        sigma = rng.uniform(0.8, 2.2)
        a = rng.uniform(0.45, 2.3)
        window = tt.GaussianWindow(sigma=sigma)
        d1, r1, y1 = tt.critical_gap_sst(a, window)
        d2, _, y2 = tt.critical_gap_sst(1.0 / a, window)
        assert 0.0 < d1 < 1.5 and r1 > 0
        assert 0.25 * d1 < y1 < 0.75 * d1
        assert d2 == pytest.approx(d1, rel=1e-8)
        assert y2 == pytest.approx(d1 - y1, rel=1e-5, abs=1e-9)
