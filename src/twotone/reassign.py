"""Frequency reassignment maps for the two-harmonic model.

The complex (synchrosqueezing) rule eta_s = (1/2 pi i) dV/dt / V factors
through a Moebius transformation M(z) = (xi0 + xi1 z)/(1 + z) applied to
q(t, eta) = a e^{2 pi i delta t} e^{2 pi^2 sigma^2 delta (eta - xibar)}; the
phase rule is its real part. Zeros of V map to a sentinel value.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ModelValidationError,
    NotApplicableError,
    PhaseUndefinedError,
)
from .gabor import ComplexField, QuadratureSpec, TFGrid, spectrogram_decomposition, stft_numeric
from .model import (
    AHMSignal,
    GaussianWindow,
    TwoHarmonicModel,
    freeze_ahm,
)

SENTINEL = complex(-math.inf, 0.0)
_EXP_CLIP = 500.0


class _AtInfinity:
    """Point at infinity of the extended complex plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF_POINT"


INF_POINT = _AtInfinity()


def is_sentinel(value) -> bool:
    return isinstance(value, complex) and value.real == -math.inf


@dataclass(frozen=True)
class MobiusMap:
    """M(z) = (xi0 + xi1 z)/(1 + z); requires xi1 > xi0 so ad - bc != 0."""

    xi0: float
    xi1: float

    def __post_init__(self):
        if not self.xi1 > self.xi0:
            raise ModelValidationError("MobiusMap needs xi1 > xi0")


def mobius_apply(mapping: MobiusMap, z):
    """Extended-plane evaluation: M(-1) is the explicit point at infinity,
    M(INF_POINT) = xi1. No reliance on float infinity propagation."""
    if z is INF_POINT:
        return complex(mapping.xi1, 0.0)
    z = complex(z)
    if z == -1.0:
        return INF_POINT
    return (mapping.xi0 + mapping.xi1 * z) / (1.0 + z)


def mobius_of(model: TwoHarmonicModel) -> MobiusMap:
    return MobiusMap(xi0=model.xi0, xi1=model.xi1)


def eta_s_values(model: TwoHarmonicModel, window: GaussianWindow, t, eta) -> np.ndarray:
    """Vectorized eta_s over broadcastable (t, eta); SENTINEL where V = 0.

    Evaluated as xi1 - delta/(1 + q), with the extreme-exponent regions pinned
    to the exact limits xi0 / xi1 so large gaps cannot overflow.
    """
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    expo = 2.0 * window.C * model.delta * (eta - model.xibar)
    expo, t = np.broadcast_arrays(expo, t)
    out = np.empty(expo.shape, dtype=complex)
    hi = expo > _EXP_CLIP
    lo = (expo < -_EXP_CLIP) | (model.a == 0.0)
    mid = ~(hi | lo)
    out[hi] = model.xi1
    out[lo] = model.xi0
    if np.any(mid):
        q = model.a * np.exp(2j * math.pi * model.delta * t[mid]) * np.exp(expo[mid])
        denom = 1.0 + q
        zero = np.abs(denom) <= 1e-14
        vals = np.empty(q.shape, dtype=complex)
        ok = ~zero
        # anchor to the nearer fixed point: xi0 + delta q/(1+q) avoids the
        # delta-sized cancellation when |q| << 1, and symmetrically for large q
        small = ok & (np.abs(q) < 1.0)
        big = ok & ~small
        vals[small] = model.xi0 + model.delta * (q[small] / denom[small])
        vals[big] = model.xi1 - model.delta / denom[big]
        vals[zero] = SENTINEL
        out[mid] = vals
    return out


def eta_s(model: TwoHarmonicModel, window: GaussianWindow, t: float, eta: float) -> complex:
    """Scalar synchrosqueezing reassignment value (or SENTINEL at a zero of V)."""
    return complex(eta_s_values(model, window, float(t), float(eta)))


def eta_p(model: TwoHarmonicModel, window: GaussianWindow, t: float, eta: float) -> float:
    """Phase reassignment rule; equals Re(eta_s) wherever V != 0."""
    val = eta_s(model, window, t, eta)
    if is_sentinel(val):
        raise PhaseUndefinedError(f"V(t={t}, eta={eta}) = 0: phase rule undefined")
    return val.real


def imag_correction(model: TwoHarmonicModel, window: GaussianWindow, t: float, eta: float) -> float:
    """Closed form of Im(eta_s): the purely imaginary offset between the two
    reassignment rules,
    a delta e^{-C((eta-xi0)^2 + (eta-xi1)^2)} sin(2 pi delta t) / |V|^2."""
    d2 = (eta - model.xi0) ** 2 + (eta - model.xi1) ** 2
    num = model.a * model.delta * math.exp(-window.C * d2) * math.sin(2 * math.pi * model.delta * t)
    den = sum(spectrogram_decomposition(model, window, t, eta))
    if den <= 0.0:
        raise PhaseUndefinedError(f"|V|^2 vanishes at (t={t}, eta={eta})")
    return num / den


def reassign_field(model: TwoHarmonicModel, window: GaussianWindow, grid: TFGrid,
                   mode: str = "SYNC") -> ComplexField:
    """eta_s over the grid as a REASSIGN field, SENTINEL at zeros of V; PHASE
    mode keeps the real parts only (the sentinel's real part is -inf)."""
    if mode not in ("PHASE", "SYNC"):
        raise ModelValidationError(f"unknown reassignment mode {mode!r}")
    vals = eta_s_values(model, window, grid.t_values()[:, None], grid.eta_values()[None, :])
    if mode == "PHASE":
        vals = vals.real.astype(complex)
    return ComplexField(grid=grid, values=vals, tag="REASSIGN")


AttractionCheck = namedtuple("AttractionCheck", ["bound", "actual", "holds", "premise"])


def attraction_bound_check(model: TwoHarmonicModel, window: GaussianWindow,
                           t: float, eta: float) -> AttractionCheck:
    """Quantitative pull toward xi0: with the premise value
    w = a e^{pi^2 sigma^2 delta (eta - xibar)}, |eta_s - xi0| <= 2 delta w
    whenever w <= 1/2, for every t; w is returned as the premise field.

    Outside the premise the check is not applicable and raises. The holds flag
    carries an absolute rounding floor: far below xibar the bound shrinks
    beneath the eps-level noise of the reassignment value itself.
    """
    w = model.a * math.exp(window.C * model.delta * (eta - model.xibar))
    if w > 0.5:
        raise NotApplicableError(f"premise a e^(pi^2 sigma^2 delta (eta-xibar)) = {w:.6f} > 1/2")
    bound = 2.0 * model.delta * w
    val = eta_s(model, window, t, eta)
    if is_sentinel(val):
        raise PhaseUndefinedError("zero of V inside the attraction premise region")
    actual = abs(val - model.xi0)
    atol = 1e-13 * (1.0 + abs(model.xi0) + abs(model.xi1))
    return AttractionCheck(bound=bound, actual=actual,
                           holds=actual <= bound * (1 + 1e-12) + atol, premise=w)


def arc_circle(model: TwoHarmonicModel, theta: float) -> tuple[complex, float]:
    """Circle traced by r -> M(r e^{i theta}), r >= 0, for fixed theta in (0, pi).

    Returns (center, radius) of the unique circle through xi0, xi1 and
    xibar + i (delta/2) tan(theta/2); the center lies on Re = xibar.
    """
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    half_gap = 0.5 * model.delta
    h = half_gap * math.tan(0.5 * theta)
    y_c = (h * h - half_gap * half_gap) / (2.0 * h)
    center = complex(model.xibar, y_c)
    return center, math.hypot(half_gap, y_c)


def ahm_reassign_error_bound(signal: AHMSignal, window: GaussianWindow,
                             t: float, t_star: float, beta: float,
                             c_h: float, c_dh: float) -> float:
    """Bound C ehat * eps^(1 - 2 beta) on |eta_s of the signal - eta_s of its
    linearization|, valid where |V of the linearization| >= eps^beta and
    |t - t_star| stays within the range the constants c_h, c_dh were built for.

    C ehat = (c_dh + (1 + |a|) (sqrt(2)/sigma) e^{-1/2} c_h) / (pi |a0|).
    """
    if not (0.0 < beta < 0.5):
        raise DomainError(f"beta must lie in (0, 1/2), got {beta}")
    model, scale = freeze_ahm(signal, t_star)
    a0 = abs(scale)
    c_eta = (c_dh + (1.0 + abs(model.a)) * (math.sqrt(2.0) / window.sigma)
             * math.exp(-0.5) * c_h) / (math.pi * a0)
    return c_eta * signal.epsilon ** (1.0 - 2.0 * beta)


def eta_s_numeric(signal, window: GaussianWindow, t: float, eta: float,
                  quad: QuadratureSpec | None = None) -> complex:
    """Reassignment value of an arbitrary signal via direct quadrature:
    eta - (1/2 pi i) V^(Dh)/V^(h). Used to validate the proximity bound."""
    v_h = stft_numeric(signal, window, t, eta, quad=quad)
    v_dh = stft_numeric(signal, window, t, eta, quad=quad, deriv_window=True)
    if abs(v_h) == 0.0:
        raise PhaseUndefinedError(f"numeric V(t={t}, eta={eta}) = 0")
    return eta - v_dh / (2j * math.pi * v_h)
