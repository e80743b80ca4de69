"""Frequency reassignment maps for the two-harmonic model.

The complex (synchrosqueezing) rule eta_s = (1/2 pi i) dV/dt / V factors
through a Moebius transformation M(z) = (xi0 + xi1 z)/(1 + z) applied to
q(t, eta) = a e^{2 pi i delta t} e^{2 pi^2 sigma^2 delta (eta - xibar)}; the
phase rule is its real part. eta_s_values is the one evaluation of M, and
zeros of V, where q = -1, map to SENTINEL. M sends each frequency line
t = const, where arg q is fixed, to a circular arc through xi0 and xi1
(arc_circle).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .errors import DomainError, PhaseUndefinedError
from .gabor import TFGrid, stft_numeric
from .model import (
    AHMSignal,
    GaussianWindow,
    TwoHarmonicModel,
    freeze_ahm,
)

SENTINEL = complex(-math.inf, 0.0)
_EXP_CLIP = 500.0


def _log_q_and_q(model: TwoHarmonicModel, window: GaussianWindow, t, eta) -> tuple:
    """ln |q| = ln a + 2 C delta (eta - xibar) over broadcastable (t, eta), and
    q itself with ln |q| clipped to [-500, 500]; a = 0 gives ln |q| = -inf at
    every eta but nan."""
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if model.a == 0:  # ln a = -inf, which an overflowed exponent +inf would cancel to nan
        log_q = np.where(np.isnan(eta), math.nan, -math.inf)
    else:
        # a log q that overflows to +-inf lies in a pinned region; a rate 2 C
        # delta past the float range is held at its largest value, so that
        # eta = xibar still gives ln a and not inf times 0
        rate = min(2.0 * window.C * model.delta, sys.float_info.max)
        with np.errstate(over="ignore"):
            log_q = math.log(model.a) + rate * (eta - model.xibar)
    # e^{2 pi i delta t} on t's own shape: once per t, not once per node; a
    # phase 2 pi delta t past the float range reads nan, quietly
    with np.errstate(invalid="ignore"):
        rot = np.exp(2j * math.pi * model.delta * t)
    q = rot * np.exp(np.clip(log_q, -_EXP_CLIP, _EXP_CLIP))
    return log_q, q


def eta_s_values(model: TwoHarmonicModel, window: GaussianWindow, t, eta) -> np.ndarray:
    """Vectorized eta_s over broadcastable (t, eta); SENTINEL where V = 0.

    Evaluated as xi1 - delta/(1 + q), with the regions of extreme
    ln |q| = ln a + 2 C delta (eta - xibar) pinned to the exact limits xi0 / xi1
    so that neither large gaps nor extreme amplitudes can overflow; a = 0 is
    pinned to xi0 at every eta but nan.
    """
    log_q, q = _log_q_and_q(model, window, t, eta)
    q = np.asarray(q)
    denom = np.asarray(1.0 + q)
    # anchor to the nearer fixed point: xi0 + delta q/(1+q) avoids the
    # delta-sized cancellation when |q| << 1, and symmetrically for large q;
    # a nan q takes the second branch
    far = ~(np.abs(q) < 1.0)
    zero = np.abs(denom) <= 1e-14
    # each branch in place, q's first, since both divide by denom
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(q, denom, out=q)
        np.multiply(model.delta, q, out=q)
        np.add(model.xi0, q, out=q)
        np.divide(model.delta, denom, out=denom)
        np.subtract(model.xi1, denom, out=denom)
    np.copyto(q, denom, where=far)
    np.copyto(q, SENTINEL, where=zero)
    np.copyto(q, model.xi1, where=log_q > _EXP_CLIP)
    np.copyto(q, model.xi0, where=log_q < -_EXP_CLIP)
    return q


def eta_s_derivative(model: TwoHarmonicModel, window: GaussianWindow, t, eta) -> np.ndarray:
    """D = d eta_s/d eta = 2 C delta^2 q/(1 + q)^2 over broadcastable (t, eta).

    eta_s depends on (t, eta) only through eta + i pi t/C, so it is
    holomorphic there and d eta_s/dt = (i pi/C) D. q/(1 + q)^2 is unchanged
    by q -> 1/q, so it is evaluated on whichever of q and 1/q lies in the
    unit disc, where no term overflows. D reads 0 in the pinned regions of
    eta_s_values, where eta_s is constant. The pole at a zero of V, q = -1,
    reads complex(inf, 0), so |D| = inf at exactly the nodes where
    eta_s_values reads SENTINEL.
    """
    log_q, q = _log_q_and_q(model, window, t, eta)
    # a nan eta gives a nan D, quietly, and the pole is written below
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(np.abs(q) < 1.0, q, 1.0 / q)
        out = np.where(np.abs(log_q) > _EXP_CLIP, 0j,
                       2.0 * window.C * model.delta ** 2 * (p / (1.0 + p) ** 2))
    np.copyto(out, complex(math.inf, 0.0), where=np.abs(1.0 + q) <= 1e-14)
    return out


def reassign_field(model: TwoHarmonicModel, window: GaussianWindow, grid: TFGrid) -> np.ndarray:
    """eta_s over the grid, shape (n_t, n_eta), SENTINEL at zeros of V."""
    return eta_s_values(model, window, grid.t_values()[:, None], grid.eta_values()[None, :])


AttractionCheck = namedtuple("AttractionCheck", ["bound", "actual", "holds", "premise"])


def attraction_bound_check(model: TwoHarmonicModel, window: GaussianWindow,
                           t, eta) -> AttractionCheck:
    """Quantitative pull toward xi0 over broadcastable (t, eta): with the
    premise value w = a e^{pi^2 sigma^2 delta (eta - xibar)}, |eta_s - xi0| <=
    2 delta w whenever w <= 1/2 and eta <= xibar, for every t; w is returned
    as the premise field. Above xibar w no longer bounds |q| = a e^{2 pi^2
    sigma^2 delta (eta - xibar)}, and the bound fails for small a.

    Each field is an array of the broadcast shape. Where the premise fails
    the check does not apply: premise, bound and actual are nan and holds is
    False. The premise is decided on the exponent, x <= min(0, ln(1/(2a))),
    and e^x is taken only inside it, so no eta overflows. V has no zero
    inside the premise: its one zero on a line t = const lies at eta_avg,
    where x = -(ln a)/2 > min(0, ln(1/(2a))). The holds flag carries an
    absolute rounding floor: far below xibar the bound shrinks beneath the
    eps-level noise of the reassignment value itself.
    """
    t, eta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(eta, dtype=float))
    # an x that overflows to -inf lies inside the premise, where w is 0, and
    # one at +inf outside it; C delta is held finite as in _log_q_and_q
    rate = min(window.C * model.delta, sys.float_info.max)
    with np.errstate(over="ignore"):
        x = rate * (eta - model.xibar)
    x_max = min(0.0, -math.log(2.0 * model.a)) if model.a > 0 else 0.0
    w = model.a * np.exp(np.where(x <= x_max, x, np.nan))
    with np.errstate(invalid="ignore"):  # 2 delta overflows to inf, and inf 0 reads nan
        bound = 2.0 * model.delta * w
    d = eta_s_values(model, window, t, eta) - model.xi0
    actual = np.where(np.isnan(w), np.nan, np.hypot(d.real, d.imag))
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


def ahm_reassign_error_bound(signal: AHMSignal, window: GaussianWindow, t_star: float,
                             beta: float, c_h: float, c_dh: float) -> float:
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


def eta_s_numeric(signal, window: GaussianWindow, t: float, eta):
    """Reassignment value of an AM/FM signal via direct quadrature:
    eta - (1/2 pi i) V^(Dh)/V^(h), over an array of eta at one t. Used to
    validate the proximity bound."""
    eta = np.asarray(eta, dtype=float)
    v_h = stft_numeric(signal, window, t, eta)
    v_dh = stft_numeric(signal, window, t, eta, deriv_window=True)
    if np.any(v_h == 0):
        raise PhaseUndefinedError(f"numeric V vanishes at t={t} on eta={eta}")
    return eta - v_dh / (2j * math.pi * v_h)
