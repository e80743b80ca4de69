"""STFT phase: principal-branch extraction, zero localization by Newton on the
closed form, winding numbers along elliptical contours, and the
amplitude-weighted phase map used for visualization-grade export.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourThroughZeroError, PhaseUndefinedError, PreconditionError, SolverFailureError
from .gabor import TFGrid, _v_terms, stft_closed_form
from .model import GaussianWindow, TwoHarmonicModel, destructive_time, destructive_zero

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ZeroPoint:
    t0: float
    eta0: float
    winding: int
    refinement_residual: float


def _phase_threshold(a: float) -> float:
    return 1e-14 * (1.0 + a)


def phase(model: TwoHarmonicModel, window: GaussianWindow, t: float, eta: float) -> float:
    """Principal argument of V(t, eta), shifted to [0, 2 pi)."""
    v = stft_closed_form(model, window, t, eta)
    if abs(v) <= _phase_threshold(model.a):
        raise PhaseUndefinedError(f"|V| = {abs(v):.3e} at (t={t}, eta={eta})")
    return float(np.angle(v)) % TWO_PI


def _dv(model: TwoHarmonicModel, window: GaussianWindow, t, eta):
    """V and its exact partials (dV/dt, dV/deta)."""
    xi0, xi1, a = model.xi0, model.xi1, model.a
    rot0, rot1, g0, g1 = _v_terms(model, window, t, eta)
    v = rot0 * (g0 + a * rot1 * g1)
    dv_dt = rot0 * (2j * math.pi) * (xi0 * g0 + a * xi1 * rot1 * g1)
    dv_de = rot0 * (-2 * window.C) * ((eta - xi0) * g0 + a * rot1 * (eta - xi1) * g1)
    return v, dv_dt, dv_de


# where the eta derivative underflows (tiny sigma) the steps overflow, and the
# non-finite iterate fails the residual test without a warning
@np.errstate(over="ignore", invalid="ignore")
def _newton_zero(model, window, t, eta):
    # iterate to step collapse rather than the first tolerance crossing, so the
    # refined zero does not depend on where the tolerance was first met
    for _ in range(50):
        v, dv_dt, dv_de = _dv(model, window, t, eta)
        jac = np.array([[dv_dt.real, dv_de.real], [dv_dt.imag, dv_de.imag]])
        rhs = -np.array([v.real, v.imag])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            return None
        t, eta = t + step[0], eta + step[1]
        if float(np.max(np.abs(step))) < 1e-13 * (1.0 + abs(t) + abs(eta)):
            break
    v, dv_dt, dv_de = _dv(model, window, t, eta)
    grad = max(abs(dv_dt), abs(dv_de))
    resid = abs(v)
    if resid <= 1e-10 and grad > 0 and resid <= 1e-8 * grad:
        return t, eta, resid, grad
    return None


def _length_scale(window: GaussianWindow) -> float:
    """The shorter window spread: sigma in time or 1/(pi sigma) in frequency."""
    return min(window.sigma, 1.0 / (math.pi * window.sigma))


def default_contour_rho(window: GaussianWindow) -> float:
    """Small relative to both contour semi-axes sigma*rho and rho/(pi sigma)."""
    return 0.05 * _length_scale(window)


def locate_zeros(model: TwoHarmonicModel, window: GaussianWindow,
                 region: TFGrid) -> list[ZeroPoint]:
    """Zeros of V inside the region, in ascending t.

    V vanishes exactly at the destructive times t_k^- on the line eta_avg and
    nowhere else, so Newton is seeded only at each (t_k^-, eta_avg) in the
    region and refined with the exact Jacobian to |V| <= 1e-10. Seeds that do
    not converge, or converge where V is flat rather than crossing zero, are
    logged and dropped. Winding numbers are computed for every retained zero.
    """
    if model.a == 0.0:
        return []
    eta_avg = destructive_zero(model, window)
    if not region.eta_min <= eta_avg <= region.eta_max:
        return []
    rho = default_contour_rho(window)
    out = []
    k_lo = math.floor(region.t_min * model.delta - 0.5)
    k_hi = math.ceil(region.t_max * model.delta - 0.5)
    for k in range(k_lo, k_hi + 1):
        t_k = destructive_time(model, k)
        if not region.t_min <= t_k <= region.t_max:
            continue
        res = _newton_zero(model, window, t_k, eta_avg)
        if res is None:
            logger.info("zero candidate at (%.6f, %.6f) did not converge; dropped", t_k, eta_avg)
            continue
        t_ref, e_ref, resid, grad = res
        # a seed deep in a Gaussian tail meets |V| <= tol over a whole flat
        # neighborhood; a simple zero is pinned by |V|/|grad V| collapsing
        if resid > 1e-6 * grad * _length_scale(window):
            logger.info("candidate at (%.6f, %.6f) is not an isolated zero; dropped",
                        t_ref, e_ref)
            continue
        w = winding_number(model, window, (t_ref, e_ref), rho)
        out.append(ZeroPoint(t0=float(t_ref), eta0=float(e_ref), winding=w,
                             refinement_residual=float(resid)))
    return out


def winding_number(model: TwoHarmonicModel, window: GaussianWindow, center,
                   rho: float, n_samples: int = 256) -> int:
    """Winding of V about 0 along the ellipse
    (t - t0)^2 + pi^2 sigma^4 (eta - eta0)^2 = (sigma rho)^2.

    Phase increments are accumulated on the principal branch; any segment with
    increment magnitude >= pi/2 is bisected (branch tracking stays unambiguous
    below pi). The contour runs counterclockwise in the entire-function plane,
    so a simple zero gives +1. center is a (t0, eta0) pair.
    """
    if n_samples < 256:
        raise PreconditionError("n_samples must be >= 256")
    t0, eta0 = center
    sigma = window.sigma
    dt, deta = sigma * rho, rho / (math.pi * sigma)
    if t0 + dt == t0 or t0 - dt == t0 or eta0 + deta == eta0 or eta0 - deta == eta0:
        # every sample would read the center, and the sum 0
        raise SolverFailureError(f"contour semi-axes {dt:.3e}, {deta:.3e} vanish beside "
                                 f"the center ({t0}, {eta0}) in floating point")

    def point(theta):
        return (t0 + sigma * rho * np.cos(theta),
                eta0 - rho * np.sin(theta) / (math.pi * sigma))

    thetas = np.linspace(0.0, TWO_PI, n_samples + 1)
    tt, ee = point(thetas)
    samples = stft_closed_form(model, window, tt, ee)
    # through-zero floor scaled to the contour itself: unbalanced models have
    # zeros deep in a Gaussian tail where the whole contour is tiny yet clean
    floor = min(1e-12 * (1.0 + model.a), 1e-9 * float(np.max(np.abs(samples))))

    def checked(theta, v):
        if abs(v) <= floor:
            raise ContourThroughZeroError(
                f"contour sample at theta = {theta:.4f} has |V| = {abs(v):.2e}; change rho"
            )
        return v

    def value(theta):
        return checked(theta, stft_closed_form(model, window, *point(theta)))

    weakest = int(np.argmin(np.abs(samples)))
    checked(float(thetas[weakest]), samples[weakest])
    values = list(samples)
    thetas = list(thetas)
    total = 0.0
    stack = [(thetas[i], thetas[i + 1], values[i], values[i + 1], 0)
             for i in range(n_samples)]
    while stack:
        th_a, th_b, va, vb, depth = stack.pop()
        inc = np.angle(vb / va)
        if abs(inc) < 0.5 * math.pi or depth >= 30:
            total += inc
            continue
        th_m = 0.5 * (th_a + th_b)
        vm = value(th_m)
        stack.append((th_a, th_m, va, vm, depth + 1))
        stack.append((th_m, th_b, vm, vb, depth + 1))
    w = total / TWO_PI
    nearest = round(w)
    if abs(w - nearest) > 0.01:
        raise SolverFailureError(
            f"winding sum {w:.6f} is not within 0.01 of an integer", residuals=(w,)
        )
    return int(nearest)


def amplitude_weighted_phase(v: np.ndarray) -> np.ndarray:
    """|V| * phase of the STFT values v, with phase in [0, 2 pi), zeroed where
    the phase is undefined."""
    mag = np.abs(v)
    thresh = 1e-14 * (1.0 + float(mag.max(initial=0.0)))
    phi = np.angle(v)
    np.mod(phi, TWO_PI, out=phi)
    phi[mag <= thresh] = 0.0
    with np.errstate(over="ignore"):  # |V| near the float range times 2 pi reads inf
        phi *= mag
    return phi
