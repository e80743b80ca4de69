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
    """Fixed-grid midpoint evaluation of the squeezed transform, 2^16 nodes.

    All ingredients are re-derived inline: V from the two-Gaussian closed form,
    the reassignment value from (1/2 pi i) dV/dt / V, and the Gaussian mollifier
    of variance scale alpha. Intended for cross-checks at alpha >= 1e-5.
    """
    n = n_nodes
    a, xi0, xi1, d = model.a, model.xi0, model.xi1, model.delta
    C = window.C
    alpha = config.alpha
    if config.weighting == "indicator":
        lo, hi = -config.R, config.R
    else:
        lo, hi = xi0 - 10 / (math.pi * window.sigma), xi1 + 10 / (math.pi * window.sigma)
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

    weight = np.zeros(eta.shape)
    finite = np.isfinite(etahat)
    weight[finite] = np.exp(-np.abs(etahat[finite] - xi) ** 2 / alpha) / math.sqrt(math.pi * alpha)
    if config.weighting == "indicator":
        g = np.ones(eta.shape, dtype=complex)
    else:
        phase0 = complex(math.cos(TWO_PI * xi0 * t), math.sin(TWO_PI * xi0 * t))
        g = phase0 * (np.exp(-C * e0) + a * rot * np.exp(-C * e1))
    return complex(np.sum(g * weight) * (hi - lo) / n)
