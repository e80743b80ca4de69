"""Brute-force oracles used by the test suite and cross-checks.

Everything here is deliberately primitive (fixed step, no adaptivity) and
re-derives its own formulas inline rather than importing the numerical kernels
it is meant to check. Slow is fine; auditable is the point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InconclusiveCountError
from .model import GaussianWindow, TwoHarmonicModel

TWO_PI = 2.0 * math.pi


def oracle_stft(signal, window: GaussianWindow, t: float, eta: float,
                step: float = 1e-4, half_width_sigmas: float = 8.0) -> complex:
    """Midpoint Riemann sum of the windowed transform at fixed step.

    For a Gaussian-windowed harmonic signal the integrand is smooth and
    decays fast, so the sum converges spectrally in the step, with aliasing
    error about exp(-pi^2 sigma^2 (1/step - |xi - eta|)^2) per harmonic xi.
    The default step of 1e-4 therefore sits at round-off.

    signal: callable x -> complex samples (vectorized).
    """
    w = half_width_sigmas * window.sigma
    n = max(2, int(math.ceil(2 * w / step)))
    edges = np.linspace(t - w, t + w, n + 1)
    x = 0.5 * (edges[:-1] + edges[1:])
    h = np.exp(-((x - t) / window.sigma) ** 2) / (window.sigma * math.sqrt(math.pi))
    vals = np.asarray(signal(x), dtype=complex) * h * np.exp(-2j * math.pi * eta * (x - t))
    return complex(vals.sum() * (2 * w / n))


def plateau_aware_max_count(values: np.ndarray) -> int:
    """Interior maxima with equal-valued runs counted once.

    Symmetric sampling puts exactly equal neighbors at a peak (and flat-topped
    peaks do the same), which a strict three-point comparison misses entirely.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    count = 0
    i = 1
    while i < n - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < n and v[j + 1] == v[i]:
                j += 1
            if j < n - 1 and v[j + 1] < v[i]:
                count += 1
            i = j + 1
        else:
            i += 1
    return count


def oracle_maxima_count(curve: Callable[[np.ndarray], np.ndarray],
                        lo: float, hi: float, n: int = 512) -> int:
    """Count interior local maxima of curve on [lo, hi], requiring agreement
    between n and 2n+1 samples. Disagreement raises: the caller must refine.
    """
    if n < 512:
        raise InconclusiveCountError(f"need at least 512 samples, got {n}")
    coarse = plateau_aware_max_count(curve(np.linspace(lo, hi, n)))
    fine = plateau_aware_max_count(curve(np.linspace(lo, hi, 2 * n + 1)))
    if coarse != fine:
        raise InconclusiveCountError(
            f"maxima counts disagree between resolutions ({coarse} at n={n}, {fine} at 2n)"
        )
    return fine


def oracle_quadrature_squeeze(model: TwoHarmonicModel, window: GaussianWindow,
                              config, t: float, xi: float, n_nodes: int = 2 ** 16) -> complex:
    """Midpoint evaluation of the squeezed transform, 2^16 nodes, graded near
    a zero of V.

    All ingredients are re-derived inline: V from the two-Gaussian closed form,
    the reassignment value from (1/2 pi i) dV/dt / V (its real part in phase
    mode), and the Gaussian mollifier of variance scale alpha. Intended for
    cross-checks at alpha >= 1e-5.

    The nodes are the midpoints of n_nodes equal steps h of [lo, hi] unless
    the line t = const passes near a zero of V. With s = 2 C delta (eta -
    eta_avg), eta_avg = xibar - ln a/(2 C delta), and r = 1 + cos 2 pi delta t,
    the map derivative obeys |d eta_s/d eta| = C delta^2/(cosh s - 1 + r)
    <= C delta^2/(r + s^2/2). Where that bound times h exceeds sqrt(alpha)/2,
    the nodes are the midpoints of equal steps of U(eta) = eta + A b
    arctan((eta - eta_avg)/b), b = sqrt(2 r)/(2 C delta), A = 2 h C
    delta^2/(r sqrt(alpha)), with weights 1/U'. That grades a fine sub-grid
    into the uniform one around eta_avg, about A pi b/h = 2 pi delta/sqrt(2 r
    alpha) more nodes on a half-width of order b, and keeps every step times
    the bound below sqrt(alpha)/2. U is analytic, so the rule keeps the
    midpoint rule's geometric convergence, where a sub-grid with a jump in
    step would add an O(h^2) error at each junction. r is floored at 1e-6:
    in sync mode the nodes then resolve every xi within 700 delta of xibar,
    also at the destructive times; in phase mode the narrow features at r <
    1e-6 hold a share of order r/(C delta^2) of the mass and go unresolved.
    """
    n = n_nodes
    a, xi0, xi1, d = model.a, model.xi0, model.xi1, model.delta
    C = window.C
    alpha = config.alpha
    if config.weighting == "indicator":
        lo, hi = -config.R, config.R
    else:
        lo, hi = xi0 - 10 / (math.pi * window.sigma), xi1 + 10 / (math.pi * window.sigma)
    h = (hi - lo) / n
    room = max(1.0 + math.cos(TWO_PI * d * t), 1e-6)
    boost = 2.0 * h * C * d * d / (room * math.sqrt(alpha))
    graded = a > 0 and boost > 1.0
    if graded:
        b = math.sqrt(2.0 * room) / (2.0 * C * d)
        center = 0.5 * (xi0 + xi1) - math.log(a) / (2.0 * C * d)

        def U(x):
            return x + boost * b * np.arctan((x - center) / b)

        m = math.ceil((U(hi) - U(lo)) / h)
        du = (U(hi) - U(lo)) / m
        tau = U(lo) + du * (np.arange(m) + 0.5) - center
        # x + A b arctan(x/b) = |tau| for x = |eta - center|: the left side is
        # concave and rising on x >= 0, so Newton from below, from a bound
        # that arctan(y) <= min(y, pi/2) gives, rises monotonically to the
        # root; 20 steps reach it to rounding for A up to 1e12, b from 1e-9 to 0.1
        x = np.maximum(np.abs(tau) / (1.0 + boost), np.abs(tau) - boost * b * math.pi / 2)
        for _ in range(20):
            x += ((np.abs(tau) - x - boost * b * np.arctan(x / b))
                  / (1.0 + boost / (1.0 + (x / b) ** 2)))
        eta = center + np.copysign(x, tau)
        step = du / (1.0 + boost / (1.0 + ((eta - center) / b) ** 2))
    else:
        edges = np.linspace(lo, hi, n + 1)
        eta = 0.5 * (edges[:-1] + edges[1:])

    rot = complex(math.cos(TWO_PI * d * t), math.sin(TWO_PI * d * t))
    e0, e1 = (eta - xi0) ** 2, (eta - xi1) ** 2
    # eta_hat = xi0 + delta a rot g1 / (g0 + a rot g1) with g_j = e^{-C e_j};
    # both Gaussians are taken over the larger one, so the ratio stays
    # defined where both underflow (|eta - xi_j| beyond about 6 at sigma = sqrt 2)
    e_min = np.minimum(e0, e1)
    scaled1 = a * rot * np.exp(-C * (e1 - e_min))
    scaled = np.exp(-C * (e0 - e_min)) + scaled1
    ok = np.abs(scaled) > 1e-300
    etahat = np.full(eta.shape, np.inf, dtype=complex)
    etahat[ok] = xi0 + d * scaled1[ok] / scaled[ok]
    if config.reassignment_mode == "phase":
        etahat = etahat.real.astype(complex)

    weight = np.zeros(eta.shape)
    finite = np.isfinite(etahat)
    weight[finite] = np.exp(-np.abs(etahat[finite] - xi) ** 2 / alpha) / math.sqrt(math.pi * alpha)
    if config.weighting == "indicator":
        g = np.ones(eta.shape, dtype=complex)
    else:
        phase0 = complex(math.cos(TWO_PI * xi0 * t), math.sin(TWO_PI * xi0 * t))
        g = phase0 * (np.exp(-C * e0) + a * rot * np.exp(-C * e1))
    if graded:
        return complex(np.sum(g * weight * step))
    return complex(np.sum(g * weight) * (hi - lo) / n)
