"""Generalized synchrosqueezing: the squeezed transform with STFT or indicator
weighting, maxima counting of its cross sections, pushforward densities along
the reassignment image, small-kernel asymptotics, preimage case analysis at
distinguished times, erf closed forms, the SST critical-gap solver, and
the closed-form squeeze of a lone harmonic.

The transform is S_G(t, xi) = integral G(t, eta) g_alpha(eta_s(t, eta) - xi) d eta
with Gaussian mollifier g_alpha(z) = e^{-|z|^2/alpha}/sqrt(pi alpha) (unit mass
on the real line).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAmplitudeError,
    ModelValidationError,
    OutOfBranchError,
    PreconditionError,
    SolverFailureError,
)
from .gabor import TFGrid, stft_closed_form
from .model import GaussianWindow, TwoHarmonicModel, destructive_zero
from .reassign import eta_s_values
from .ridges import (_candidate_peaks, count_frequency_maxima, critical_gap_stft, default_band,
                     flip_bracket)

WEIGHTINGS = ("stft", "indicator")
REASSIGN_MODES = ("sync", "phase")
# exp(-x) is a normal double for x <= 708.396...; past that it is subnormal
# (below 2.2e-308) and then 0.0 from x = 746 on
_NORMAL_EXPONENT = -math.log(sys.float_info.min)
# the most terms one block of _mollified_sums evaluates, one 512 KB buffer;
# caps of 2^12-2^14 and 2^18 terms measured slower
_BLOCK_TERMS = 1 << 16
# the most xi one block sums: 32 measured near the fastest of 16-64 on every workload
_BLOCK_ROWS = 32
# the squeeze ladder: the fewest base intervals, the base of a band that R
# clips, the tolerance and the doublings from there to the finest rule
_MIN_BASE_INTERVALS = 256
_BASE_INTERVALS = 4096
_RTOL = 1e-8
_MAX_DOUBLINGS = 9
# the step in u of _graded_nodes
_STEP_RESOLUTION = 0.25


@dataclass(frozen=True)
class SqueezeConfig:
    """Mollifier scale, weighting choice, the indicator radius R, and which
    reassignment rule feeds the mollifier."""

    alpha: float
    weighting: str = "stft"
    R: float | None = None
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
    """max(|xi0|, |xi1|) + 3/(pi sigma): the radius of the ridge band."""
    return max(map(abs, default_band(model, window)))


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
        # the outer min keeps R <= 1/alpha: exp(log(1/alpha)) can round above it
        radius = min(1.0 / alpha, math.exp(min(math.log(1.0 / alpha), c / (2.0 * alpha))))
        if radius > floor:
            return radius
    return max(1.0 / alpha, 1.5 * floor)


def _integration_pieces(model: TwoHarmonicModel, window: GaussianWindow,
                        config: SqueezeConfig) -> tuple:
    """The band, refined as a whole, then for indicator weighting the far
    fields of [-R, R] on either side of it, integrated in closed form. The
    band [xi0 - 10/(pi sigma), xi1 + 10/(pi sigma)] puts the STFT weight
    below e^-100 at its ends; for indicator weighting it widens until q = a
    e^{2 C delta (eta - xibar)}, or 1/q, is below e^-37, so that the
    reassignment value is xi0 or xi1 to double precision across each far
    field, where the integrand is then constant, and it is clipped to
    [-R, R]."""
    pad = 10.0 / (math.pi * window.sigma)
    lo, hi = model.xi0 - pad, model.xi1 + pad
    if config.weighting != "indicator":
        return ((lo, hi),)
    require_indicator_radius(model, window, config.R)
    if model.a > 0:
        reach = (37.0 + abs(math.log(model.a))) / (2.0 * window.C * model.delta)
        lo, hi = min(lo, model.xibar - reach), max(hi, model.xibar + reach)
    R = config.R
    lo, hi = max(lo, -R), min(hi, R)
    return ((lo, hi),) + tuple((x0, x1) for x0, x1 in ((-R, lo), (hi, R)) if x0 < x1)


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialised float64 array whose data starts on a 64-byte boundary.

    The kernel runs about 5% slower when its weight matrix does not, and
    numpy aligns only as malloc does (16 bytes on x86-64 Linux), so its
    speed would otherwise follow whatever the heap held before.
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def _image_arc(model: TwoHarmonicModel, window: GaussianWindow, T: float, x) -> tuple:
    """(z, dz/dx) over an x array, with th = tanh(C delta x) and z = atan(T th)/T
    (th at T = 0). At T = tan(p/2), p = arccos(cos 2 pi delta t), the image arc
    of eta_s from eta_avg to eta_avg + x is (delta/sin p) atan(T th) = (delta/2)
    (1 + T^2) z long: the integral of |D| = C delta^2/(cosh s + cos p), s = 2 C
    delta x. The whole arc, delta p/sin p, is delta at the constructive times
    and grows without bound toward the destructive ones.
    """
    th = np.tanh(window.C * model.delta * x)
    z = np.arctan(T * th) / T if T else th
    return z, window.C * model.delta * (1.0 - th * th) / (1.0 + (T * th) ** 2)


def _graded_nodes(model: TwoHarmonicModel, window: GaussianWindow, config: SqueezeConfig,
                  t: float, xis: np.ndarray, lo: float, hi: float) -> tuple:
    """(u_lo, u_hi, place): the band [lo, hi] in the node variable u(eta) = c
    (eta - eta_avg) + Phi(eta)/sqrt(alpha), c = max(sqrt(C), C delta), with
    Phi the length of the part of the image arc (_image_arc) that reaches a
    xi window, and place(u), the nodes eta at an array of u and 1/u' there.

    u' = c + |D|/sqrt(alpha) counts the mollifier widths that eta_s sweeps and
    the widths 1/sqrt(C) of the weight's Gaussians. u' continues analytically
    to 0 at Im u = c pi/(2 C delta), which bounds the strip where the rule in u
    converges geometrically; c >= C delta keeps it pi/2 wide, so the rules of
    steps 1/4 and 1/2 err by about e^-39 and e^-20. A band that R clips ends
    where the integrand is not flat, and the rule converges there only like
    h^2: c is raised so that its ends take at least the step of 4096
    uniform intervals.

    A window's terms are below e^-708.4 farther than X = max |xi - xibar| +
    sqrt(708.4 alpha) from xibar. In sync mode, and at r = 1 + cos 2 pi delta
    t = 0, |eta_s - xibar|^2 >= (delta^2/4)(2|D|/(C delta^2) - 1), so eta_s
    leaves every window where |D| > C delta^2/2 + 2 C X^2; r is raised to 2
    delta^2/(delta^2 + 4 X^2), which caps |D| there and keeps it within a
    factor 2 below. In phase mode at r > 0, Re eta_s - xibar = rho sin psi on
    a circle of radius rho = delta/(2 sin p), at the angle psi = 2 atan(T th)
    from the core. Where rho > X the arc from psi = beta = asin(X/rho) to pi
    - beta lies past every window and does not count, so the counted arc is
    at most 2 pi X long however close t is to t_k^-, and u has kinks only
    where every window's terms are below e^-708.4. At a = 0, u = c (eta -
    xibar).

    u is odd about eta_avg. On x = eta - eta_avg >= 0 it is concave up to pi -
    beta and equal to another concave function past it; place runs Newton's
    method on the one that holds at the root, from a table of x at equal steps
    of x and of the arc up to beta, and at pi - beta. The chord's x lies above
    the root and, where no arc is skipped, the x of its z below it, from where
    the steps rise; a step that lands below x = 0, or below pi - beta for a
    root past it, restarts there. It raises SolverFailureError unless every
    residual is at most 1e-14 max(|u_k|, 1) within 16 steps.
    """
    delta, alpha, rate = model.delta, config.alpha, window.C * model.delta
    room = 1.0 + math.cos(2.0 * math.pi * delta * t)
    # float() makes a square that overflows inf without a warning
    reach = float(np.max(np.abs(xis - model.xibar), initial=0.0))
    reach += math.sqrt(_NORMAL_EXPONENT * alpha)
    phase = config.reassignment_mode == "phase" and room > 0 and model.a > 0
    if not phase:
        # r below 2^-52 is 0 to rounding (cos rounds to multiples of 2^-53 near
        # -1); that floor keeps T and the arc finite where the square overflows
        ratio = 2.0 * reach / delta
        room = max(room, 2.0 / (1.0 + ratio * ratio), sys.float_info.epsilon)
    T = math.sqrt((2.0 - room) / room)
    centre, arc = model.xibar, 0.0
    if model.a > 0:
        centre, arc = destructive_zero(model, window), delta / (room * math.sqrt(alpha))
    c = max(math.sqrt(window.C), window.C * delta)
    if config.weighting == "indicator" and not -config.R < lo < hi < config.R:
        c = max(c, _BASE_INTERVALS * _STEP_RESOLUTION / (hi - lo))
    # the counted arc in units of z = psi/(2 T): z up to top, then from pi -
    # beta on, at x >= x_far, where the arc left to its end, tail, is below skip
    top, skip, x_far = math.inf, -math.inf, math.inf
    if phase and 0 < 2.0 * reach * T * room < delta:
        beta = math.asin(2.0 * reach * T * room / delta)
        top, skip = beta / (2.0 * T), (beta - 2.0 * math.atan(1.0 / T)) / (2.0 * T)
        if skip > 0:
            x_far = math.atanh(min(1.0 / (T * math.tan(beta / 2)), 1.0 - 2.0 ** -53)) / rate

    def x_of(z):
        # z at the end of the arc can round to its limit, where th would reach 1
        th = np.minimum(np.tan(T * z) / T if T else z, 1.0 - 2.0 ** -53)
        return np.arctanh(th) / rate

    def u(x, far=None):
        # (u, u', z) on x >= 0; far selects the concave function past pi - beta
        z, dz = _image_arc(model, window, T, x)
        if top == math.inf:
            return c * x + arc * z, c + arc * dz, z
        q = np.exp(-2.0 * rate * x)  # (1 - th)/(1 + th)
        tail = np.arctan(2.0 * T * q / (1.0 + q + T * T * (1.0 - q))) / T
        far = tail < skip if far is None else far
        counted = np.where(far, top + skip - tail, np.minimum(z, top))
        return c * x + arc * counted, c + arc * dz * (far | (z < top)), z

    bounds = np.array([lo, hi]) - centre
    ends, _, z_ends = u(np.abs(bounds))
    u_lo, u_hi = np.copysign(ends, bounds)
    end = float(np.max(np.abs(bounds)))
    x_tab = np.sort(np.concatenate([np.linspace(0.0, end, 256), [min(x_far, end)],
                                    x_of(np.linspace(0.0, min(top, np.max(z_ends)), 256))]))
    u_tab, _, z_tab = u(x_tab)
    u_far = float(u(np.array([x_far]))[0][0]) if x_far < end else math.inf

    def place(targets):
        w = np.abs(targets)
        far = w > u_far
        # a root past pi - beta lies past x_far, and Newton's steps rise from there
        floor = np.where(far, x_far, 0.0)
        x = np.interp(w, u_tab, x_tab)
        if top == math.inf:
            x = np.minimum(x, x_of(np.interp(w, u_tab, z_tab)))
        tol = 1e-14 * max(float(np.max(w)), 1.0)
        for _ in range(16):
            value, slope, _ = u(x, far)
            miss = w - value
            if np.max(np.abs(miss)) <= tol:
                return centre + np.copysign(x, targets), 1.0 / slope
            x = np.maximum(x + miss / slope, floor)
        raise SolverFailureError(f"squeeze nodes at t = {t} did not settle in 16 Newton steps")

    return u_lo, u_hi, place


def _mollified_sums(hat: np.ndarray, weights: np.ndarray, xis: np.ndarray,
                    alpha: float) -> np.ndarray:
    """sum_k weights[r, k] exp(-|hat_k - xi|^2 / alpha) for each row r of the
    (m, nodes) weight matrix and each xi in xis, as an (m, len(xis)) array.

    The m rows are m quadrature rules on the same nodes (in the squeeze base
    pass: the trapezoid rule and the rule of twice its step). They share one
    sort and one exp per term. A term is kept only while both of its
    Gaussian factors are normal doubles: |Re hat_k - xi|^2 / alpha and
    |Im hat_k|^2 / alpha at most -ln(2.2e-308) = 708.396... Every dropped
    term is below 2.2e-308 |w_k|, so no sum above ~1e-292 moves, and the
    kernel never computes with subnormal numbers, which take a slow path in
    exp and in the matrix product.
    The nodes are sorted once by Re hat, and each xi sums over its own
    contiguous searchsorted window of half-width sqrt(708.396 alpha). The
    factor exp(-(Im hat_k)^2 / alpha) is folded into the weights, and nodes
    whose factor is below the smallest normal double, or whose weights are
    all 0, sort past every window.
    The xi are sorted once, so each window starts and stops no earlier than
    the one before, and taken in blocks of up to 32 neighbours, fewer where
    the rows times the union of their windows would pass 2^16 terms. Each
    block takes one broadcast exponent, one exp and one (rows, union) @
    (union, 2m) matrix product. Where a block has two or more rows, each
    exponent below -708.396, or nan, is set to -inf, whose exp is 0.0: every
    other argument to exp lies in [-708.4, 0], and each xi sums only its own
    terms, up to rounding at its window's edge. A xi with an empty window, or
    a nan xi, reads 0.0. Memory is O(m (nodes + xis)) plus one buffer of
    2^16 terms, or of the widest window when that is larger.
    """
    m = len(weights)
    fold = np.exp(-hat.imag ** 2 / alpha)
    key = np.where((fold >= sys.float_info.min) & np.any(weights != 0.0, axis=0),
                   hat.real, np.inf)
    order = np.argsort(key, kind="stable")
    re = key[order]
    # each node-sized temporary is dropped as soon as it is used, so this
    # set-up peaks below the evaluation of hat itself
    del key
    fold = fold[order]
    # rows re_0, im_0, re_1, im_1, ...: each product below is m complex sums
    folded = _aligned_empty((m, 2, len(order)))
    np.take(weights.real, order, axis=1, out=folded[:, 0])
    np.take(weights.imag, order, axis=1, out=folded[:, 1])
    del order
    folded *= fold
    del fold
    folded = folded.reshape(2 * m, -1)
    reach = math.sqrt(_NORMAL_EXPONENT * alpha)
    perm = np.argsort(xis, kind="stable")
    xis = xis[perm]
    starts = np.searchsorted(re, xis - reach, side="left")
    stops = np.searchsorted(re, xis + reach, side="right")
    buf = _aligned_empty((max(_BLOCK_TERMS, int(np.max(stops - starts, initial=0))),))
    starts, stops = starts.tolist(), stops.tolist()
    out = np.zeros((len(xis), m), dtype=complex)
    parts = out.view(float)
    # the broadcast subtraction of a short union takes numpy's buffered path,
    # which runs 2-4 times faster per term with a 1024-element buffer than
    # with the default; numpy < 2.0 does not scope the size with errstate, so
    # it is restored here
    old_bufsize = np.setbufsize(1024)
    try:
        i = 0
        while i < len(xis):
            j = min(i + _BLOCK_ROWS, len(xis))
            while j - i > 1 and (j - i) * (stops[j - 1] - starts[i]) > _BLOCK_TERMS:
                j -= 1
            lo, hi = starts[i], stops[j - 1]
            if lo < hi:
                moll = buf[:(j - i) * (hi - lo)].reshape(j - i, hi - lo)
                np.subtract(re[lo:hi], xis[i:j, None], out=moll)
                np.multiply(moll, moll, out=moll)
                moll *= -1.0 / alpha
                if j - i > 1:  # one row's union is its own window
                    moll[~(moll >= -_NORMAL_EXPONENT)] = -np.inf
                np.exp(moll, out=moll)
                np.matmul(moll, folded[:, lo:hi].T, out=parts[i:j])
            i = j
    finally:
        np.setbufsize(old_bufsize)
    return out[np.argsort(perm)].T


def squeeze_cross_section(model: TwoHarmonicModel, window: GaussianWindow,
                          config: SqueezeConfig, t: float, xis) -> np.ndarray:
    """S_G(t, xi) for an array of xi at fixed t.

    Nested trapezoid rules on the band of _integration_pieces, where the
    integrand is analytic and flat at both ends, at equal steps of the graded
    variable u of _graded_nodes, with the Jacobian 1/u'. A step of u = 1/4
    resolves the integrand everywhere, also next to a zero of V, where eta_s
    sweeps a long arc over a short stretch of eta. The base has the smallest
    power of two >= 256 intervals with that step, at least 4096 on a band
    that R clips.

    The base pass sums two weight rows over the same nodes, T_h and T_2h
    (twice the T_h weights on the even nodes), and each doubling evaluates
    only the midpoints in u, T_{h/2} = T_h/2 + (h/2) sum f(midpoints). The
    ladder returns the first rule within 1e-8 of the whole section (floored
    by a tiny absolute term) of the one before, so a section whose T_h and
    T_2h agree costs one kernel pass. On the indicator far fields the
    reassignment value is xi0 or xi1 to double precision: each field's
    integral is its length times the integrand at its midpoint. Sentinel
    reassignment values contribute zero mass. Each xi sums only the nodes
    whose terms are normal doubles (_mollified_sums), so a value below ~1e-292
    may read 0.0.

    Raises ModelValidationError, naming the first, for a nan or infinite xi,
    and SolverFailureError when the rule has not met the tolerance at the
    finest rule, 2^9 4096 intervals, or the base would need more than that.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    bad = ~np.isfinite(xis)
    if np.any(bad):
        raise ModelValidationError(f"xi must be finite, got xi = {xis[bad][0]}")
    alpha = config.alpha

    def sums(eta, steps):
        # steps: the step weights of m rules, (m, nodes) or (m, 1), times the
        # integrand; sentinel reassignment values carry no mass
        hat = eta_s_values(model, window, t, eta)
        sent = np.isneginf(hat.real)
        if config.reassignment_mode == "phase":
            hat = hat.real.astype(complex)
        # the weights are built after hat, so they add nothing to its peak
        w = np.broadcast_to(steps, (len(steps), len(eta))).astype(complex)
        if config.weighting == "stft":
            # a phase xi0 t that overflows gives nan weights, quietly: a sum
            # that reaches one reads nan
            with np.errstate(over="ignore", invalid="ignore"):
                w *= stft_closed_form(model, window, t, eta)
        w[:, sent] = 0.0
        return _mollified_sums(hat, w, xis, alpha) / math.sqrt(math.pi * alpha)

    (lo, hi), *far = _integration_pieces(model, window, config)
    u_lo, u_hi, place = _graded_nodes(model, window, config, t, xis, lo, hi)
    n = _MIN_BASE_INTERVALS
    finest = _BASE_INTERVALS << _MAX_DOUBLINGS
    while n <= finest and u_hi - u_lo > _STEP_RESOLUTION * n:
        n *= 2
    if n > finest:
        raise SolverFailureError(f"squeeze quadrature at t = {t} needs more than the "
                                 f"finest rule's {finest} intervals")
    h = (u_hi - u_lo) / n
    eta, jac = place(u_lo + h * np.arange(n + 1))
    # T_h, and T_2h with twice its weights on the even nodes (n is even)
    rules = np.full((2, n + 1), h)
    rules[1] = np.where(np.arange(n + 1) % 2, 0.0, 2.0 * h)
    rules[:, [0, -1]] /= 2.0
    fine, coarse = sums(eta, rules * jac)
    # the largest midpoint level sets the memory peak; the base arrays go first
    del eta, jac
    # the integrand is constant on each far field: its length times the value
    # at its midpoint
    outside = sums(np.array([(x0 + x1) / 2 for x0, x1 in far]),
                   [[x1 - x0 for x0, x1 in far]])[0] if far else 0.0

    scale_floor = 1e-13 / math.sqrt(alpha)
    done = 0
    while True:
        total = fine + outside
        scale = max(float(np.max(np.abs(total))), scale_floor)
        change = float(np.max(np.abs(fine - coarse)))
        if change <= _RTOL * scale:
            return total
        if n >= finest:
            raise SolverFailureError(
                f"squeeze quadrature at t = {t} did not converge in {done} "
                f"doublings ({n} intervals): last change {change:.3e} > "
                f"rtol * scale = {_RTOL * scale:.3e}",
                residuals=(change, _RTOL * scale),
            )
        eta, jac = place(u_lo + h * (np.arange(n) + 0.5))
        fine, coarse = fine / 2 + sums(eta, h / 2 * jac[None])[0], fine
        h, n, done = h / 2, 2 * n, done + 1


def squeeze_transform(model: TwoHarmonicModel, window: GaussianWindow,
                      config: SqueezeConfig, t: float, xi: float) -> complex:
    """Scalar squeezed-transform value; see squeeze_cross_section."""
    return complex(squeeze_cross_section(model, window, config, t, np.array([xi]))[0])


def squeeze_field(model: TwoHarmonicModel, window: GaussianWindow,
                  config: SqueezeConfig, grid: TFGrid) -> np.ndarray:
    """S over the grid, shape (n_t, n_eta), one cross section per time."""
    values = np.vstack([squeeze_cross_section(model, window, config, t, grid.eta_values())
                        for t in grid.t_values()])
    if not np.all(np.isfinite(values)):
        raise ModelValidationError("non-finite entries in SQUEEZE field")
    return values


def count_squeeze_maxima(model: TwoHarmonicModel, window: GaussianWindow,
                         config: SqueezeConfig) -> int:
    """Interior local maxima of xi -> |S(0, xi)| at 641 xi on [xi0 - 0.08, xi1 + 0.08].

    Samples below 1e-3 of the largest are raised to that floor first: in the
    tails they carry only quadrature noise, which would register spurious
    maxima.
    """
    xis = np.linspace(model.xi0 - 0.08, model.xi1 + 0.08, 641)
    vals = np.abs(squeeze_cross_section(model, window, config, 0.0, xis))
    return len(_candidate_peaks(np.maximum(vals, 1e-3 * vals.max()))[0])


def constructive_maxima(a: float, window: GaussianWindow, method: str, delta: float) -> int:
    """Maxima count on the constructive slice t = 0 of the model (xi0 = 1, delta, a):
    of |V| at 4096 samples for method 'stft', of the STFT-weighted squeeze at
    alpha = 1e-4 for 'sst'."""
    model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
    if method == "stft":
        return count_frequency_maxima(model, window, 0.0, n_samples=4096)
    return count_squeeze_maxima(model, window, SqueezeConfig(alpha=1e-4, weighting="stft"))


def constructive_flip(a: float, window: GaussianWindow, method: str, lo: float, hi: float,
                      steps: int) -> tuple[int, int, tuple[float, float] | None]:
    """(count_lo, count_hi, bracket): the constructive_maxima counts at the
    gaps lo and hi, and the bracket of the 1 -> 2 count flip after steps
    halvings, which is None unless the counts read 1 and at least 2."""
    def count(delta):
        return constructive_maxima(a, window, method, delta)

    count_lo, count_hi = count(lo), count(hi)
    if not (count_lo == 1 and count_hi >= 2):
        return count_lo, count_hi, None
    return count_lo, count_hi, flip_bracket(lambda d: count(d) >= 2, lo, hi, steps)


# ---------------------------------------------------------------------------
# distinguished times and densities


def classify_time(model: TwoHarmonicModel, t: float) -> str:
    """'constructive', 'destructive', or 'intermediate' (quarter-period) time."""
    frac = (t * model.delta) % 1.0
    for target, kind in ((0.0, "constructive"), (1.0, "constructive"),
                         (0.5, "destructive"), (0.25, "intermediate")):
        if abs(frac - target) <= 1e-9:
            return kind
    raise PreconditionError(
        f"t = {t} is none of the distinguished times (phase fraction {frac:.3e})"
    )


def _map_gradient(model: TwoHarmonicModel, window: GaussianWindow, xi):
    """|d eta_s/d eta| = 2C |(xi - xi0)(xi - xi1)| at the preimage of xi."""
    return 2.0 * window.C * np.abs((xi - model.xi0) * (xi - model.xi1))


def _preimage_offset(model: TwoHarmonicModel, window: GaussianWindow, kind: str, y):
    """eta - eta_avg at the preimage eta of each y under the real reassignment
    map at t_k^+ or t_k^-: ln(sign (y - xi0)/(y - xi1))/(2 C delta), with sign
    = -1 at constructive and +1 at destructive times. Each y must have a
    preimage: it lies on the support, off xi0 and xi1, where the log argument
    is positive."""
    sign = -1.0 if kind == "constructive" else 1.0
    return np.log(sign * (y - model.xi0) / (y - model.xi1)) / (2.0 * window.C * model.delta)


def _leading_order(model: TwoHarmonicModel, window: GaussianWindow, weighting: str,
                   t: float, xi) -> np.ndarray:
    """Indicator or STFT density at a distinguished time for each xi, as a
    complex array: 0 off the support, inf at xi0 and xi1 where they are on it.
    The time and, for STFT weighting, a > 0 are checked once for all xi."""
    kind = classify_time(model, t)
    if kind == "intermediate":
        raise PreconditionError("leading-order forms exist at t_k^+ / t_k^- only")
    if weighting == "stft" and not model.a > 0:
        raise DegenerateAmplitudeError("STFT-weighted density requires a > 0")
    xi = np.asarray(xi, dtype=float)
    inside = (model.xi0 < xi) & (xi < model.xi1)
    support = inside if kind == "constructive" else ~inside
    out = np.where(support, complex(math.inf), 0j)
    live = support & (xi != model.xi0) & (xi != model.xi1)
    y = xi[live]
    weight = 1.0
    # V at the unique preimage of each xi: at a tiny sigma the preimage is so
    # far out that its square overflows, and V there is 0; a gradient that
    # overflows, at a huge xi, gives density 0
    with np.errstate(over="ignore"):
        if weighting == "stft":
            weight = stft_closed_form(model, window, t, destructive_zero(model, window)
                                      + _preimage_offset(model, window, kind, y))
        out[live] = weight / _map_gradient(model, window, y)
    return out


def pushforward_density(model: TwoHarmonicModel, window: GaussianWindow,
                        weighting: str, t: float, xi) -> np.ndarray:
    """Density of the reassignment-mapped weight measure at a distinguished
    time, for each xi.

    Indicator weighting: 1/(2 pi^2 sigma^2 |xi - xi0| |xi - xi1|) on the
    support ((xi0, xi1) at constructive times, its complement at destructive
    times), 0 off support. STFT weighting: V at the preimage over the map
    gradient. Diverges at xi0/xi1; within the 1e-3*delta standoff of either
    it reads nan.
    """
    if weighting not in WEIGHTINGS:
        raise ModelValidationError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    xi = np.asarray(xi, dtype=float)
    out = _leading_order(model, window, weighting, t, xi)
    out[np.minimum(np.abs(xi - model.xi0), np.abs(xi - model.xi1)) < 1e-3 * model.delta] = np.nan
    return out


def asym_indicator(model: TwoHarmonicModel, window: GaussianWindow, alpha: float,
                   R: float, t: float, xi) -> np.ndarray:
    """Small-alpha limit of the indicator-weighted squeeze at t_k^+/- for
    each xi: the indicator density, inf at xi0/xi1 on the support.

    R must stay exponentially subcritical: R <= 1/alpha or
    ln R <= min((xi-xi0)^2, (xi-xi1)^2)/(2 alpha). The limit reads nan at
    each xi where it does not.
    """
    require_indicator_radius(model, window, R)
    out = _leading_order(model, window, "indicator", t, xi)
    if R > 1.0 / alpha:
        xi = np.asarray(xi, dtype=float)
        c = np.minimum((xi - model.xi0) ** 2, (xi - model.xi1) ** 2)
        out[(c <= 0) | (math.log(R) > c / (2.0 * alpha))] = np.nan
    return out


def asym_sst(model: TwoHarmonicModel, window: GaussianWindow, t: float, xi) -> np.ndarray:
    """Small-alpha limit of the STFT-weighted squeeze at t_k^+/- for each xi
    (error O(alpha)): the STFT-weighted density, inf at xi0/xi1 on the
    support. The limit does not depend on alpha."""
    return _leading_order(model, window, "stft", t, xi)


# ---------------------------------------------------------------------------
# preimage case analysis


@dataclass(frozen=True)
class PreimageIntervals:
    """Solution set of |eta_s(t, eta) - xi| < C sqrt(alpha) at a distinguished
    time, as ordered disjoint eta intervals (possibly half-infinite)."""

    label: str
    intervals: tuple
    c_left: float | None = None
    c_right: float | None = None


def _segment_label(model: TwoHarmonicModel, cs: float, xi: float) -> str:
    bounds = [model.xi0 - cs, model.xi0 + cs, model.xibar - cs,
              model.xibar + cs, model.xi1 - cs, model.xi1 + cs]
    return f"I{int(np.searchsorted(np.asarray(bounds), xi, side='right')) + 1}"


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
    eta_avg = destructive_zero(model, window)
    label = _segment_label(model, cs, xi)
    seg = int(label[1])

    if kind != "intermediate":
        # c_left and c_right are the preimages of xi - cs and xi + cs at
        # constructive times, where the map rises, and of xi + cs and xi - cs
        # at destructive times, where it falls; the empty segments move
        sign = -1.0 if kind == "constructive" else 1.0
        if seg in ((1, 7) if kind == "constructive" else (3, 4, 5)):
            return PreimageIntervals(label, ())

        def offset(y, gamma):
            # xi on a segment boundary puts y = xi +- cs on xi0 or xi1, which
            # has no preimage
            if not (model.xi0 < y < model.xi1 if kind == "constructive"
                    else y < model.xi0 or y > model.xi1):
                raise OutOfBranchError(f"{gamma}: {y!r} has no preimage at a {kind} time",
                                       gamma=gamma)
            return float(_preimage_offset(model, window, kind, y))

        c_l = c_r = None
        if seg != 2:
            c_l = offset(xi + sign * cs, "c_left")
        if seg != 6:
            c_r = offset(xi - sign * cs, "c_right")
        lo = -math.inf if c_l is None else eta_avg + c_l
        hi = math.inf if c_r is None else eta_avg + c_r
        return PreimageIntervals(label, ((lo, hi),), c_left=c_l, c_right=c_r)

    # intermediate time: only the one-sided segments survive
    if seg not in (2, 6):
        return PreimageIntervals(label, ())
    num = (xi - model.xi0) ** 2 - (C * sa) ** 2
    den = (C * sa) ** 2 - (xi - model.xi1) ** 2
    end = "c_right" if seg == 2 else "c_left"  # the one finite endpoint
    if den == 0 or num / den <= 0:
        raise OutOfBranchError(f"square-root argument {num:.6e} / {den:.6e} "
                               f"not > 0 in {end}", gamma=end)
    c = math.log(math.sqrt(num / den)) / (2.0 * window.C * model.delta)
    interval = (-math.inf, eta_avg + c) if seg == 2 else (eta_avg + c, math.inf)
    return PreimageIntervals(label, (interval,))


def erf_closed_form(model: TwoHarmonicModel, window: GaussianWindow, alpha: float,
                    t: float, xi: float, C: float | None = None) -> float:
    """Piecewise erf approximation of |S_V| at t_k^+/- (all four branches),
    with the alpha^{-1/2} and 1/(2 pi sigma) normalization of the derivation.

    Integrates both Gaussian components of V over the preimage intervals of
    preimage_intervals (default C = delta/(4 sqrt alpha)); an endpoint
    without a preimage raises, naming it, c_left or c_right.
    """
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
    sigma), r = a q1/p1 and xi_c = Y delta at the fold, which for a < 1 is
    r = a p2/q2 and xi_c = (1 - Y) delta in the Y of a > 1.

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
    # and interior, so the logs above stay finite. Y is the bracket's upper
    # end, where N'G - NG' >= 0
    y = flip_bracket(lambda y: curve(y)[2] >= 0.0, 0.25, 0.5, 52)[1]
    n, g, _ = curve(y)
    u2 = n / (4.0 * g)
    if not (y - 0.25 > 1e-12 and 0.0 < u2 < math.inf):
        raise SolverFailureError(
            f"the fold of the critical-point curve at a = {a!r} is not resolved in "
            f"floating point: |Y - Y_edge| = {y - 0.25:.3e}, u^2 = {u2!r}",
            residuals=(y - 0.25, u2),
        )
    delta_c = math.sqrt(u2) / (math.pi * sigma)
    if a < 1.0:
        # r = a q1/p1 at the mirror 1 - Y, formed from Y itself: rounding 1 - Y
        # would lose the small Y - 1/4
        return delta_c, a * (y - 0.25) / (1.25 - y), (1.0 - y) * delta_c
    return delta_c, a * (0.75 - y) / (y + 0.25), y * delta_c


def critical_gap_density(a: float, window: GaussianWindow) -> float:
    """Gap at which the STFT-weighted pushforward density at constructive times
    flips from one maximum to two: delta_stft(a)/sqrt(3).

    With s = ln((xi - xi0)/(xi1 - xi)), ln|theta| = 3 ln cosh(s/2)
    - (s - ln a)^2/(4 C delta^2) + const; its double root solves s - sinh s =
    ln a, the equation critical_gap_stft solves in x = ln s, with delta =
    sqrt(2/3) cosh(s/2)/(pi sigma): the plain-transform gap scaled by
    1/sqrt(3) for every a.
    """
    return critical_gap_stft(a, window)[0] / math.sqrt(3.0)


# ---------------------------------------------------------------------------
# a lone harmonic


def squeeze_single_component(xi_component: float, amplitude: float,
                             window: GaussianWindow, alpha: float, t: float, xi):
    """Closed-form squeeze of a lone harmonic over a xi array: amplitude *
    e^{2 pi i xi_c t} e^{-(xi_c - xi)^2/alpha} / (pi sigma sqrt(alpha))."""
    xi = np.asarray(xi, dtype=float)
    return (amplitude / (math.pi * window.sigma * math.sqrt(alpha))
            * np.exp(2j * math.pi * xi_component * t) * np.exp(-(xi_component - xi) ** 2 / alpha))
