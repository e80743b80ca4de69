"""Generalized synchrosqueezing: the squeezed transform with STFT or indicator
weighting, pushforward densities along the reassignment image, small-kernel
asymptotics, preimage case analysis at distinguished times, erf closed forms,
the SST critical-gap solver, and extreme-amplitude limits.

The transform is S_G(t, xi) = integral G(t, eta) g_alpha(eta_s(t, eta) - xi) d eta
with Gaussian mollifier g_alpha(z) = e^{-|z|^2/alpha}/sqrt(pi alpha) (unit mass
on the real line).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAmplitudeError,
    ModelValidationError,
    OutOfBranchError,
    PreconditionError,
    SingularityError,
    SolverFailureError,
)
from .gabor import ComplexField, QuadratureSpec, TFGrid, _simpson_weights, stft_closed_form
from .model import GaussianWindow, TwoHarmonicModel, destructive_zero
from .reassign import eta_s_values

WEIGHTINGS = ("stft", "indicator")
REASSIGN_MODES = ("sync", "phase")
_LOG_CUTOFF = 60.0  # e^{-60} ~ 9e-27: negligible next to every stated tolerance
# exp(-x) is a normal double for x <= 708.396...; past that it is subnormal
# (below 2.2e-308) and then 0.0 from x = 746 on
_NORMAL_EXPONENT = -math.log(sys.float_info.min)


@dataclass(frozen=True)
class SqueezeConfig:
    """Mollifier scale, weighting choice, quadrature controls, and which
    reassignment rule feeds the mollifier."""

    alpha: float
    weighting: str = "stft"
    R: float | None = None
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    reassignment_mode: str = "sync"

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ModelValidationError(f"alpha must be positive and finite, got {self.alpha!r}")
        if self.weighting not in WEIGHTINGS:
            raise ModelValidationError(
                f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if self.reassignment_mode not in REASSIGN_MODES:
            raise ModelValidationError(f"reassignment_mode must be one of {REASSIGN_MODES}, "
                                       f"got {self.reassignment_mode!r}")
        if self.weighting == "indicator" and not (self.R is not None and 0 < self.R < math.inf):
            raise ModelValidationError(
                f"indicator weighting requires a finite R > 0, got {self.R!r}")


def indicator_radius_floor(model: TwoHarmonicModel, window: GaussianWindow) -> float:
    return max(abs(model.xi0), abs(model.xi1)) + 3.0 / (math.pi * window.sigma)


def require_indicator_radius(model: TwoHarmonicModel, window: GaussianWindow, R: float) -> None:
    """The indicator window [-R, R] must clear the band floor."""
    floor = indicator_radius_floor(model, window)
    if not R > floor:
        raise PreconditionError(
            f"indicator radius R = {R!r} must exceed the band floor {floor:.6f}")


def default_indicator_radius(model: TwoHarmonicModel, window: GaussianWindow,
                             alpha: float, xi_set) -> float:
    """R(alpha) = min(1/alpha, e^{c/(2 alpha)}) with c the squared distance of
    the requested xi set to {xi0, xi1}; diverges as alpha -> 0 while staying
    exponentially subcritical. Only xi farther than 3 sqrt(alpha) from xi0 and
    xi1 count; when none do, or R does not clear the band floor, R is
    max(1/alpha, 1.5 floor) instead, so the rule never raises."""
    xis = np.atleast_1d(np.asarray(xi_set, dtype=float))
    reach = 3 * math.sqrt(alpha)
    xis = xis[(np.abs(xis - model.xi0) > reach) & (np.abs(xis - model.xi1) > reach)]
    floor = indicator_radius_floor(model, window)
    if xis.size:
        c = float(np.min(np.minimum((xis - model.xi0) ** 2, (xis - model.xi1) ** 2)))
        radius = math.exp(min(math.log(1.0 / alpha), c / (2.0 * alpha)))
        if radius > floor:
            return radius
    return max(1.0 / alpha, 1.5 * floor)


def _integration_window(model: TwoHarmonicModel, window: GaussianWindow,
                        config: SqueezeConfig) -> tuple[float, float]:
    if config.weighting == "indicator":
        require_indicator_radius(model, window, config.R)
        return -config.R, config.R
    pad = 10.0 / (math.pi * window.sigma)
    return model.xi0 - pad, model.xi1 + pad


def _eta_hat(model, window, config, t, eta):
    vals = eta_s_values(model, window, t, eta)
    sentinel = np.isneginf(vals.real)
    if config.reassignment_mode == "phase":
        vals = vals.real.astype(complex)
    vals = np.where(sentinel, 0.0, vals)
    return vals, sentinel


def _weight_values(model, window, config, t, eta):
    if config.weighting == "indicator":
        return np.ones(np.shape(eta), dtype=complex)
    return np.asarray(stft_closed_form(model, window, t, np.asarray(eta, float)), dtype=complex)


def _dist2_to_hull(etahat: np.ndarray, sentinel: np.ndarray,
                   xi_lo: float, xi_hi: float) -> np.ndarray:
    """Squared distance from reassignment values to the [xi_lo, xi_hi] hull.
    Conservative activity test: scattered xi sets only mark more cells."""
    re = etahat.real
    dx = np.maximum(np.maximum(xi_lo - re, re - xi_hi), 0.0)
    d2 = dx ** 2 + etahat.imag ** 2
    d2[sentinel] = np.inf
    return d2


def _mollified_sums(hat: np.ndarray, weights: np.ndarray, xis: np.ndarray,
                    alpha: float) -> np.ndarray:
    """sum_k weights_k exp(-|hat_k - xi|^2 / alpha) for each xi in xis.

    A term is kept only while both of its Gaussian factors are normal
    doubles: |Re hat_k - xi|^2 / alpha and |Im hat_k|^2 / alpha at most
    -ln(2.2e-308) = 708.396... Every dropped term is below 2.2e-308 |w_k|, so
    no sum above ~1e-292 moves, and the kernel never computes with subnormal
    numbers, which take a slow path in exp and in the matrix-vector product.
    The nodes are sorted once by Re hat, and each xi sums over its own
    contiguous searchsorted window of half-width sqrt(708.396 alpha). The
    factor exp(-(Im hat_k)^2 / alpha) is folded into the weights, and nodes
    whose factor is below the smallest normal double, or whose weight is 0,
    sort past every window. Memory is O(nodes + xis).
    """
    fold = np.exp(-hat.imag ** 2 / alpha)
    key = np.where((fold >= sys.float_info.min) & (weights != 0.0), hat.real, np.inf)
    order = np.argsort(key, kind="stable")
    re = key[order]
    # each node-sized temporary is dropped as soon as it is used, so this
    # set-up peaks below the evaluation of hat itself
    del key
    fold = fold[order]
    folded = np.empty((2, len(order)))
    np.take(weights.real, order, out=folded[0])
    np.take(weights.imag, order, out=folded[1])
    del order
    folded *= fold
    del fold
    reach = math.sqrt(_NORMAL_EXPONENT * alpha)
    starts = np.searchsorted(re, xis - reach, side="left")
    stops = np.searchsorted(re, xis + reach, side="right")
    buf = np.empty(int(np.max(stops - starts, initial=0)))
    out = np.zeros(len(xis), dtype=complex)
    for i, (xi, a, b) in enumerate(zip(xis.tolist(), starts.tolist(), stops.tolist())):
        if a < b:
            moll = buf[:b - a]
            np.subtract(re[a:b], xi, out=moll)
            np.multiply(moll, moll, out=moll)
            moll /= -alpha
            np.exp(moll, out=moll)
            s_re, s_im = folded[:, a:b] @ moll
            out[i] = complex(s_re, s_im)
    return out


def squeeze_cross_section(model: TwoHarmonicModel, window: GaussianWindow,
                          config: SqueezeConfig, t: float, xis) -> np.ndarray:
    """S_G(t, xi) for an array of xi at fixed t.

    Composite Simpson on the truncation window. A base pass finds the active
    nodes (reassignment value within e^-60 mollifier reach of the xi hull);
    the refinement window spans them plus two base cells, and the base cells
    outside it are summed once at base resolution (none on a whole-grid
    window). Inside the window the resolution doubles until the whole vector
    changes by <= quadrature.rtol relative (floored by a tiny absolute term).
    Sentinel reassignment values contribute zero mass.

    Each pass sums, for every xi, only over the nodes with
    |Re eta_hat - xi| <= sqrt(708.396 alpha) and |Im eta_hat| within the same
    reach, where both Gaussian factors of exp(-|eta_hat - xi|^2 / alpha) are
    still normal doubles. A dropped term is below 2.2e-308 times its weight,
    so no value above ~1e-292 moves; values below that may read 0.0 where
    the sum over all nodes would give a subnormal number. A smaller reach
    (such as the e^-60 activity cutoff) would drop the exponentially small
    off-support tails.

    Raises SolverFailureError when max_doublings doublings of the active
    region do not reach the tolerance. With max_doublings = 0 there is no
    second resolution to compare against, so convergence is never shown and
    the call always raises.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    lo, hi = _integration_window(model, window, config)
    spec = config.quadrature
    n0 = spec.n_nodes + (spec.n_nodes % 2)
    alpha = config.alpha
    xi_lo, xi_hi = float(xis.min()), float(xis.max())

    base_eta = np.linspace(lo, hi, n0 + 1)
    base_hat, base_sent = _eta_hat(model, window, config, t, base_eta)
    active = np.flatnonzero(
        _dist2_to_hull(base_hat, base_sent, xi_lo, xi_hi) <= _LOG_CUTOFF * alpha)

    def integrate(hat, sent, weights):
        weights[sent] = 0.0
        return _mollified_sums(hat, weights, xis, alpha) / math.sqrt(math.pi * alpha)

    # refinement window: the sampled hits padded by two base cells, widened to
    # even nodes so the pieces outside it stay whole Simpson cell pairs
    i0, i1 = 0, n0
    if active.size:
        i0, i1 = max(int(active[0]) - 2, 0), min(int(active[-1]) + 2, n0)
    i0, i1 = i0 - i0 % 2, i1 + i1 % 2
    step = base_eta[1] - base_eta[0]
    outside = np.zeros(len(xis), dtype=complex)
    for j0, j1 in ((0, i0), (i1, n0)):
        if j1 > j0:
            weights = _weight_values(model, window, config, t, base_eta[j0:j1 + 1])
            weights *= _simpson_weights(j1 - j0 + 1, step)
            outside += integrate(base_hat[j0:j1 + 1], base_sent[j0:j1 + 1], weights)
    a_lo, a_hi = float(base_eta[i0]), float(base_eta[i1])

    def window_integral(n):
        # the weights overwrite the weighting values and eta is dropped, so
        # the summation holds only hat, sent and weights
        eta = np.linspace(a_lo, a_hi, n + 1)
        hat, sent = _eta_hat(model, window, config, t, eta)
        weights = _weight_values(model, window, config, t, eta)
        weights *= _simpson_weights(n + 1, eta[1] - eta[0])
        del eta
        return integrate(hat, sent, weights)

    scale_floor = 1e-13 / math.sqrt(alpha)
    n_win = max(n0, i1 - i0)
    total = outside + window_integral(n_win)
    change = scale = math.nan
    for _ in range(spec.max_doublings):
        n_win *= 2
        new_total = outside + window_integral(n_win)
        change = float(np.max(np.abs(new_total - total)))
        scale = max(float(np.max(np.abs(new_total))), scale_floor)
        total = new_total
        if change <= spec.rtol * scale:
            return total
    raise SolverFailureError(
        f"squeeze quadrature at t = {t} did not converge in {spec.max_doublings} "
        f"doublings ({n_win} intervals): last change {change:.3e} > "
        f"rtol * scale = {spec.rtol * scale:.3e}",
        residuals=(change, spec.rtol * scale),
    )


def squeeze_transform(model: TwoHarmonicModel, window: GaussianWindow,
                      config: SqueezeConfig, t: float, xi: float) -> complex:
    """Scalar squeezed-transform value; see squeeze_cross_section."""
    return complex(squeeze_cross_section(model, window, config, t, np.array([xi]))[0])


def squeeze_field(model: TwoHarmonicModel, window: GaussianWindow,
                  config: SqueezeConfig, grid: TFGrid) -> ComplexField:
    rows = [squeeze_cross_section(model, window, config, t, grid.eta_values())
            for t in grid.t_values()]
    return ComplexField(grid=grid, values=np.vstack(rows), tag="SQUEEZE")


# ---------------------------------------------------------------------------
# distinguished times and densities


def classify_time(model: TwoHarmonicModel, t: float, tol: float = 1e-9) -> str:
    """'constructive', 'destructive', or 'intermediate' (quarter-period) time."""
    frac = (t * model.delta) % 1.0
    for target, kind in ((0.0, "constructive"), (1.0, "constructive"),
                         (0.5, "destructive"), (0.25, "intermediate")):
        if abs(frac - target) <= tol:
            return kind
    raise PreconditionError(
        f"t = {t} is none of the distinguished times (phase fraction {frac:.3e})"
    )


def _near_singularity(model: TwoHarmonicModel, xi: float) -> bool:
    standoff = 1e-3 * model.delta
    return abs(xi - model.xi0) < standoff or abs(xi - model.xi1) < standoff


def _on_support(model: TwoHarmonicModel, kind: str, xi: float) -> bool:
    inside = model.xi0 < xi < model.xi1
    return inside if kind == "constructive" else not inside


def _map_gradient(model: TwoHarmonicModel, window: GaussianWindow, xi: float) -> float:
    """|d eta_s/d eta| = 2C |(xi - xi0)(xi - xi1)| at the preimage of xi."""
    return 2.0 * window.C * abs((xi - model.xi0) * (xi - model.xi1))


def _theta_stft(model: TwoHarmonicModel, window: GaussianWindow,
                kind: str, t: float, xi: float) -> complex:
    """V(t, eta_*) / |d eta_s/d eta| at the unique preimage of xi."""
    C = window.C
    d = model.delta
    if kind == "constructive":
        u = (xi - model.xi0) / (model.xi1 - xi)
        tail = 1.0 + u
    else:
        u = (xi - model.xi0) / (xi - model.xi1)
        tail = 1.0 - u
    if u <= 0:
        raise SolverFailureError(f"no real preimage at xi = {xi} for {kind} time")
    if model.a <= 0:
        raise DegenerateAmplitudeError("STFT-weighted density requires a > 0")
    log_u_a = math.log(u / model.a)
    amp = (
        math.exp(-C * d * d / 4.0)
        * math.sqrt(model.a / u)
        * math.exp(-log_u_a ** 2 / (4.0 * C * d * d))
        * tail
    )
    phase = complex(math.cos(2 * math.pi * model.xi0 * t), math.sin(2 * math.pi * model.xi0 * t))
    return phase * amp / _map_gradient(model, window, xi)


@dataclass(frozen=True)
class AsymptoticValue:
    """Leading-order value with classification tags; off_support values carry
    an exponentially small remainder rather than a polynomial one."""

    value: complex
    off_support: bool = False
    near_singularity: bool = False


def _leading_order(model: TwoHarmonicModel, window: GaussianWindow, weighting: str,
                   t: float, xi: float, standoff_raises: bool) -> AsymptoticValue:
    """Indicator or STFT density at a distinguished time, tagged: 0 off the
    support, inf exactly at xi0/xi1. Inside the 1e-3*delta standoff it raises
    when standoff_raises, and is tagged near_singularity otherwise."""
    kind = classify_time(model, t)
    if kind == "intermediate":
        raise PreconditionError("leading-order forms exist at t_k^+ / t_k^- only")
    near = _near_singularity(model, xi)
    if near and standoff_raises:
        raise SingularityError(
            f"xi = {xi} is within {1e-3 * model.delta:.3e} of a component frequency"
        )
    if not _on_support(model, kind, xi):
        return AsymptoticValue(value=0.0 + 0.0j, off_support=True, near_singularity=near)
    if near and (xi == model.xi0 or xi == model.xi1):
        return AsymptoticValue(value=complex(math.inf), near_singularity=True)
    value = (complex(1.0 / _map_gradient(model, window, xi)) if weighting == "indicator"
             else _theta_stft(model, window, kind, t, xi))
    return AsymptoticValue(value=value, near_singularity=near)


def pushforward_density(model: TwoHarmonicModel, window: GaussianWindow,
                        weighting: str, t: float, xi: float) -> complex:
    """Density of the reassignment-mapped weight measure at a distinguished time.

    Indicator weighting: 1/(2 pi^2 sigma^2 |xi - xi0| |xi - xi1|) on the
    support ((xi0, xi1) at constructive times, its complement at destructive
    times), 0 off support. STFT weighting: V at the preimage over the map
    gradient. Diverges at xi0/xi1; evaluation inside the 1e-3*delta standoff
    raises.
    """
    if weighting not in WEIGHTINGS:
        raise ModelValidationError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    return _leading_order(model, window, weighting, t, xi, standoff_raises=True).value


def asym_indicator(model: TwoHarmonicModel, window: GaussianWindow, alpha: float,
                   R: float, t: float, xi: float) -> AsymptoticValue:
    """Small-alpha limit of the indicator-weighted squeeze at t_k^+/-.

    R must stay exponentially subcritical: R <= 1/alpha or
    ln R <= min((xi-xi0)^2, (xi-xi1)^2)/(2 alpha).
    """
    require_indicator_radius(model, window, R)
    c = min((xi - model.xi0) ** 2, (xi - model.xi1) ** 2)
    if R > 1.0 / alpha and (c <= 0 or math.log(R) > c / (2.0 * alpha)):
        raise PreconditionError(f"R = {R} grows too fast for alpha = {alpha} at xi = {xi}")
    return _leading_order(model, window, "indicator", t, xi, standoff_raises=False)


def asym_sst(model: TwoHarmonicModel, window: GaussianWindow, alpha: float,
             t: float, xi: float) -> AsymptoticValue:
    """Small-alpha limit of the STFT-weighted squeeze at t_k^+/- (error O(alpha))."""
    if not alpha > 0:
        raise PreconditionError("alpha must be positive")
    return _leading_order(model, window, "stft", t, xi, standoff_raises=False)


# ---------------------------------------------------------------------------
# preimage case analysis


@dataclass(frozen=True)
class PreimageIntervals:
    """Solution set of |eta_s(t, eta) - xi| < C sqrt(alpha) at a distinguished
    time, as ordered disjoint eta intervals (possibly half-infinite)."""

    time_kind: str
    label: str
    intervals: tuple
    eta_avg: float
    c_left: float | None = None
    c_right: float | None = None
    c_star: float | None = None


def _segment_label(model: TwoHarmonicModel, cs: float, xi: float) -> str:
    bounds = [model.xi0 - cs, model.xi0 + cs, model.xibar - cs,
              model.xibar + cs, model.xi1 - cs, model.xi1 + cs]
    return f"I{int(np.searchsorted(np.asarray(bounds), xi, side='right')) + 1}"


def _log_or_raise(sign: float, delta: float, den: float, gamma: str) -> float:
    """log(sign (1 + delta / den)) for the endpoint gamma. den = d +- C sqrt(alpha)
    is 0 when xi sits on a segment boundary, where the endpoint is infinite;
    that raises like a non-positive argument."""
    if den == 0:
        raise OutOfBranchError(f"zero divisor in {gamma}: xi on a segment boundary",
                               gamma=gamma)
    arg = sign * (1.0 + delta / den)
    if arg <= 0:
        raise OutOfBranchError(f"log argument {arg:.6e} <= 0 in {gamma}", gamma=gamma)
    return math.log(arg)


def preimage_intervals(model: TwoHarmonicModel, window: GaussianWindow, alpha: float,
                       C: float, t: float, xi: float) -> PreimageIntervals:
    """Exact preimage case split with closed-form endpoints, per segment label.

    Needs C <= delta/(4 sqrt alpha) at t_k^+/- and C <= delta/(2 sqrt alpha) at
    quarter-period times, so the seven segments stay disjoint.
    """
    if model.a <= 0:
        raise DegenerateAmplitudeError("preimage case split requires a > 0")
    kind = classify_time(model, t)
    sa = math.sqrt(alpha)
    cap = model.delta / (2.0 * sa) if kind == "intermediate" else model.delta / (4.0 * sa)
    if not (0.0 < C <= cap * (1 + 1e-12)):
        raise PreconditionError(f"C = {C} outside (0, {cap:.6f}] for a {kind} time")
    cs = C * sa
    d = xi - model.xi1
    two_cd = 2.0 * window.C * model.delta
    eta_avg = destructive_zero(model, window)
    label = _segment_label(model, cs, xi)
    seg = int(label[1])

    if kind != "intermediate":
        # the destructive case mirrors the constructive one: the log argument
        # and the roles of d +- cs flip sign, and the empty segments move
        sign = -1.0 if kind == "constructive" else 1.0
        if seg in ((1, 7) if kind == "constructive" else (3, 4, 5)):
            return PreimageIntervals(kind, label, (), eta_avg)
        c_l = c_r = None
        if seg != 2:
            c_l = _log_or_raise(sign, model.delta, d + sign * cs, "c_left") / two_cd
        if seg != 6:
            c_r = _log_or_raise(sign, model.delta, d - sign * cs, "c_right") / two_cd
        lo = -math.inf if c_l is None else eta_avg + c_l
        hi = math.inf if c_r is None else eta_avg + c_r
        return PreimageIntervals(kind, label, ((lo, hi),), eta_avg, c_left=c_l, c_right=c_r)

    # intermediate time: only the one-sided segments survive
    if seg not in (2, 6):
        return PreimageIntervals(kind, label, (), eta_avg)
    num = (xi - model.xi0) ** 2 - (C * sa) ** 2
    den = (C * sa) ** 2 - (xi - model.xi1) ** 2
    if den == 0 or num / den <= 0:
        raise OutOfBranchError(f"square-root argument {num:.6e} / {den:.6e} "
                               "not > 0 in c_star", gamma="c_star")
    c_star = math.log(math.sqrt(num / den)) / two_cd
    interval = (-math.inf, eta_avg + c_star) if seg == 2 else (eta_avg + c_star, math.inf)
    return PreimageIntervals(kind, label, (interval,), eta_avg, c_star=c_star)


def erf_closed_form(model: TwoHarmonicModel, window: GaussianWindow, alpha: float,
                    t: float, xi: float, C: float | None = None) -> float:
    """Piecewise erf approximation of |S_V| at t_k^+/- (all four branches),
    with the alpha^{-1/2} and 1/(2 pi sigma) normalization of the derivation.

    Integrates both Gaussian components of V over the preimage intervals of
    preimage_intervals (default C = delta/(4 sqrt alpha)); log arguments
    outside their branch raise with the offending endpoint, c_left or c_right.
    """
    if model.a <= 0:
        raise DegenerateAmplitudeError("closed form requires a > 0")
    if classify_time(model, t) == "intermediate":
        raise PreconditionError("closed forms stated at t_k^+ / t_k^- only")
    sa = math.sqrt(alpha)
    if C is None:
        C = model.delta / (4.0 * sa)
    ps = math.pi * window.sigma
    norm = 1.0 / (2.0 * math.pi * window.sigma * sa)

    def pair(g: float) -> float:
        # erf(+-inf) = +-1, so a half-infinite interval ends at pair = +-(1 + a)
        return math.erf(ps * (g - model.xi0)) + model.a * math.erf(ps * (g - model.xi1))

    intervals = preimage_intervals(model, window, alpha, C, t, xi).intervals
    return norm * abs(sum(pair(r) - pair(l) for l, r in intervals))


# ---------------------------------------------------------------------------
# critical gap


def critical_gap_sst(a: float, window: GaussianWindow) -> tuple[float, float, float]:
    """Critical gap for the STFT-weighted squeezed transform to resolve two
    maxima at constructive times.

    Returns (delta_crit, r, xi_c) with xi_c relative to xi0. Balanced
    amplitudes short-circuit to the closed form delta = sqrt(2 ln 3 / 3)/(pi
    sigma), r = 1/3, xi_c = delta/2.

    Otherwise the gap is the double root of the erf form at C = delta/(4
    sqrt alpha), where alpha and sigma drop out. With u = pi sigma delta and
    Y = xi_c/delta in (1/4, 3/4), set p1 = Y + 1/4, q1 = 3/4 - Y, p2 = Y -
    1/4, q2 = 5/4 - Y and L_j = ln(p_j/q_j) - ln a. At z = u/2 + L/(2u) the
    erf pair's derivative e^{-z^2} + a e^{-(z-u)^2} factors as e^{-u^2/4 -
    L^2/(4u^2)} sqrt(a) (1 + w)/sqrt(w) with w = p/q. As p + q = 1, d ln
    w/dY = 1/(pq) and (1 + w)/sqrt(w) = 1/sqrt(pq), so the critical points
    of the form lie on the curve u^2 = N/(4G), with N = L2^2 - L1^2 and G =
    1.5 ln(p1 q1/(p2 q2)). The double root is where this curve folds,
    d(u^2)/dY = 0: the sign change of N'G - NG', which is bracketed on (1/4,
    1/2) for a > 1 because u^2 -> inf at both ends. For a < 1 the fold is
    its mirror, since u^2(1 - Y; 1/a) = u^2(Y; a). Then delta = u/(pi
    sigma), r = a q1/p1 and xi_c = Y delta.

    Raises SolverFailureError when the fold is not resolved in floating
    point: it lies within 1e-12 of Y = 1/4 or 3/4 from about a = 1e107 and
    its reciprocal on.
    """
    if not 0 < a < math.inf:
        raise ModelValidationError(f"a must be positive and finite, got {a!r}")
    sigma = window.sigma
    if a == 1.0:
        delta_c = math.sqrt(2.0 * math.log(3.0) / 3.0) / (math.pi * sigma)
        return delta_c, 1.0 / 3.0, 0.5 * delta_c
    log_a = abs(math.log(a))

    def curve(y):
        """N, G and N'G - NG' at Y in (1/4, 1/2), for a > 1."""
        p1, q1, p2, q2 = y + 0.25, 0.75 - y, y - 0.25, 1.25 - y
        l1, l2 = math.log(p1 / q1) - log_a, math.log(p2 / q2) - log_a
        # p1 p2 - q1 q2 = 2Y - 1 and p1 q1 - p2 q2 = 1/2 - Y, both exact here,
        # so N and G keep full relative precision as the fold nears 1/2 (a -> 1)
        n = (l2 - l1) * (math.log1p((2.0 * y - 1.0) / (q1 * q2)) - 2.0 * log_a)
        g = 1.5 * math.log1p((0.5 - y) / (p2 * q2))
        dn = 2.0 * (l2 / (p2 * q2) - l1 / (p1 * q1))
        dg = 1.5 * ((q1 - p1) / (p1 * q1) - (q2 - p2) / (p2 * q2))
        return n, g, dn * g - n * dg

    # 52 halvings shrink [1/4, 1/2] to one ulp of Y; every midpoint is exact
    # and interior, so the logs above stay finite
    lo, hi = 0.25, 0.5
    for _ in range(52):
        y = 0.5 * (lo + hi)
        if curve(y)[2] < 0.0:
            lo = y
        else:
            hi = y
    n, g, _ = curve(y)
    u2 = n / (4.0 * g)
    if not (y - 0.25 > 1e-12 and 0.0 < u2 < math.inf):
        raise SolverFailureError(
            f"the fold of the critical-point curve at a = {a!r} is not resolved in "
            f"floating point: |Y - Y_edge| = {y - 0.25:.3e}, u^2 = {u2!r}",
            residuals=(y - 0.25, u2),
        )
    if a < 1.0:
        y = 1.0 - y
    delta_c = math.sqrt(u2) / (math.pi * sigma)
    return delta_c, a * (0.75 - y) / (y + 0.25), y * delta_c


def critical_gap_density(a: float, window: GaussianWindow) -> float:
    """Gap at which the STFT-weighted pushforward density at constructive times
    flips from one maximum to two: delta_stft(a)/sqrt(3).

    With s = ln((xi - xi0)/(xi1 - xi)), ln|theta| = 3 ln cosh(s/2)
    - (s - ln a)^2/(4 C delta^2) + const; its double root solves s - sinh s =
    ln a with delta = sqrt(2/3) cosh(s/2)/(pi sigma), the plain-transform
    root scaled by 1/sqrt(3) for every a.
    """
    from .ridges import critical_gap_stft  # ridges imports this module

    return critical_gap_stft(a, window)[0] / math.sqrt(3.0)


# ---------------------------------------------------------------------------
# extreme amplitudes


def squeeze_single_component(xi_component: float, amplitude: float,
                             window: GaussianWindow, alpha: float,
                             t: float, xi: float) -> complex:
    """Closed-form squeeze of a lone harmonic: amplitude * e^{2 pi i xi_c t}
    e^{-(xi_c - xi)^2/alpha} / (pi sigma sqrt(alpha))."""
    phase = complex(math.cos(2 * math.pi * xi_component * t),
                    math.sin(2 * math.pi * xi_component * t))
    return (amplitude / (math.pi * window.sigma * math.sqrt(alpha))
            * phase * math.exp(-(xi_component - xi) ** 2 / alpha))


def sst_extreme_amplitude(model: TwoHarmonicModel, window: GaussianWindow,
                          alpha: float, t: float, xi: float, regime: str) -> complex:
    """Leading-order squeeze for unbalanced amplitudes: the dominant single
    component (error O(a) as a -> 0, O(1/a) as a -> infinity)."""
    if regime not in ("small_a", "large_a"):
        raise ModelValidationError("regime must be 'small_a' or 'large_a'")
    if regime == "small_a":
        if model.a > 0.2:
            warnings.warn(f"small-amplitude regime questionable at a = {model.a}",
                          stacklevel=2)
        return squeeze_single_component(model.xi0, 1.0, window, alpha, t, xi)
    if model.a < 5.0:
        warnings.warn(f"large-amplitude regime questionable at a = {model.a}",
                      stacklevel=2)
    return squeeze_single_component(model.xi1, model.a, window, alpha, t, xi)
