"""Spectrogram ridge machinery: frequency-axis maxima counting of |V| with
refinement, the library's one bisection (of a count flip or a root), the
amplitude-dependent critical gap, bifurcation times and the elliptical ridge
loops ("bubbles") of the balanced model, destructive-slice extrema, and
grid-based ridge extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAmplitudeError,
    HypothesisViolationError,
    InconclusiveCountError,
    ModelValidationError,
    NoBifurcationError,
    SolverFailureError,
)
from .gabor import TFGrid, _rotations, _v_terms, spectrogram_decomposition, stft_closed_form
from .model import GaussianWindow, TwoHarmonicModel, destructive_time, destructive_zero

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MERGE_TOL = 1e-8  # frequency maxima closer than this count once
_ARC_STEPS = 1024  # periodic trapezoid steps of ellipse_residual


@dataclass(frozen=True)
class EllipseParams:
    """Ridge bubble around the k-th destructive time (balanced amplitudes)."""

    center_t: float
    center_eta: float
    semi_axis_eta: float
    semi_axis_t: float
    k: int


@dataclass(frozen=True)
class RidgeReport:
    points: np.ndarray                       # (n, 2) columns (t, eta)
    maxima_count_per_t: tuple                # ((t, count), ...)
    bifurcation_times: tuple                 # detected count-change midpoints


def default_band(model: TwoHarmonicModel, window: GaussianWindow) -> tuple[float, float]:
    """Frequency band guaranteed to contain every ridge feature."""
    pad = 3.0 / (math.pi * window.sigma)
    return (model.xi0 - pad, model.xi1 + pad)


def golden_max(f, lo: float, hi: float) -> float:
    """Golden-section maximizer of a unimodal scalar function on [lo, hi], to a
    bracket of width 1e-10."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _candidate_peaks(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Interior local maxima along the last axis of a 1-D or 2-D array, as
    index arrays: (left, right) plateau bounds for 1-D input, (row, left,
    right) for 2-D, in row-major order.

    Equal-valued runs count once; machine-flat quartic tops near the critical
    gap would otherwise split into spurious strict maxima. A maximal run is a
    peak when it has a neighbour on each side and both are strictly lower; a
    NaN sample is a run of its own and compares false, so it neither peaks nor
    lets a neighbour peak. A run's left end is a top, where a rise ends; the
    top is its right end too unless the next sample is equal. Only then are
    the samples equal to their successor located, which are few on smooth
    data, so a whole field needs no index array of its size. A run that
    reaches its row's last sample has no right neighbour. The run peaks when
    the sample after its right end is lower.
    """
    v = values
    n = v.shape[-1]
    flat = v.reshape(-1)
    up = v[..., :-1] < v[..., 1:]
    is_top = np.zeros(v.shape, dtype=bool)
    # rise into the sample and no rise out of it
    np.greater(up[..., :-1], up[..., 1:], out=is_top[..., 1:-1])
    tops = np.flatnonzero(is_top)
    ends = tops.copy()
    level = flat[tops] == flat[tops + 1]
    if level.any():
        # positions of samples equal to their successor in the row; a run
        # ends one past the last of its chain of consecutive positions
        same = np.zeros(v.shape, dtype=bool)
        np.equal(v[..., :-1], v[..., 1:], out=same[..., :-1])
        same = np.flatnonzero(same)
        last = same[np.append(same[1:] != same[:-1] + 1, True)]
        ends[level] = last[np.searchsorted(last, tops[level])] + 1
        inside = ends % n != n - 1
        tops, ends = tops[inside], ends[inside]
    keep = flat[ends] > flat[ends + 1]
    tops, ends = tops[keep], ends[keep]
    if v.ndim == 1:
        return tops, ends
    rows = tops // n
    return rows, tops - rows * n, ends - rows * n


def _refined_maxima(f, grid: np.ndarray, values: np.ndarray) -> list[float]:
    """Maxima of f at the candidate peaks of values on the increasing grid,
    merged where they lie within _MERGE_TOL of each other.

    A golden result never leaves its bracket [grid[left - 1], grid[right + 1]],
    and brackets follow each other along the grid, touching at most at their
    ends, so the results come out in order. A candidate whose bracket lies at
    least _MERGE_TOL from both neighbouring brackets cannot merge; it stays at
    its bracket midpoint. Only the others are golden-refined, which gives the
    count that refining every candidate gives; when there are none, the
    midpoints are the maxima.
    """
    left, right = _candidate_peaks(values)
    lo, hi = grid[left - 1], grid[right + 1]
    close = lo[1:] - hi[:-1] < _MERGE_TOL
    out = (0.5 * (lo + hi)).tolist()
    if not close.any():
        return out
    near = np.zeros(len(out), dtype=bool)
    near[1:] |= close
    near[:-1] |= close
    for k in np.flatnonzero(near):
        out[k] = golden_max(f, lo[k], hi[k])
    merged: list[float] = []
    for x in out:
        if merged and abs(x - merged[-1]) < _MERGE_TOL:
            merged[-1] = 0.5 * (merged[-1] + x)
        else:
            merged.append(x)
    return merged


def count_frequency_maxima(model: TwoHarmonicModel, window: GaussianWindow, t: float,
                           n_samples: int = 512) -> int:
    """Strict interior local maxima of eta -> |V(t, eta)| on default_band.

    Counts at n and 2n samples must agree (guards grid aliasing near
    bifurcations); up to four doublings are tried. Each level's grid is one
    linspace of 2n + 1 samples, whose even entries are the n + 1 samples of
    the level below bit for bit. The first level evaluates |V| on its grid in
    one call and counts n on its even entries, a strided view, so a count that
    agrees at once costs one call of at most 2n + 1 samples; each further
    doubling evaluates |V| only at its new midpoints. Maxima within 1e-8 of
    each other count once: only the candidates whose brackets lie within 1e-8
    of a neighbouring bracket can merge, so only those are golden-refined (to
    1e-10) before counting. A non-finite t raises ModelValidationError.

    Where c = a e^{2 pi i delta t} is real and not negative (t = 0), |V| = g0
    + c g1 and both terms rise below xi0 and fall above xi1, so every maximum
    lies in (xi0, xi1). There the first level samples only the stretch [i, j)
    of its grid from at least two coarse steps below xi0 to two above xi1,
    with i even, and each doubling maps it to [2i, 2j - 1). In each tail
    neighbouring samples differ by at least C h^2 relative, far above exp's
    rounding, so the tail samples keep their order and no run of equal ones
    peaks there. A strict rise f[i] < f[i + 2] into the stretch and a strict
    fall f[j - 3] > f[j - 1] out of it then keep every plateau run off its
    ends, and the peaks, refinements and count are those of the whole band.
    When either fails, as where a subnormal a flattens an edge, the stretch
    is the whole band, i = 0 and j = 2n + 1, as it always is for complex c.
    """
    if not math.isfinite(t):
        raise ModelValidationError(f"t must be finite, got {t!r}")
    band = default_band(model, window)
    if n_samples < 512:
        raise ModelValidationError("n_samples must be >= 512")
    c = model.a * _rotations(model, t)[1]
    # a tiny a can make c.imag underflow to 0 with c.real < 0
    real = c.imag == 0.0 and c.real >= 0.0

    def modulus(eta):
        # where c is real and not negative, g0 + c g1 >= 0 is its own modulus:
        # formed in place (a scalar eta rebinds), it equals |stft_closed_form|
        # bit for bit
        _, _, g0, g1 = _v_terms(model, window, t, eta)
        if not real:
            return np.abs(g0 + c * g1)
        g1 *= c.real
        g1 += g0
        return g1

    def count(grid, vals):
        return len(_refined_maxima(lambda e: float(modulus(e)), grid, vals))

    n = n_samples
    grid = np.linspace(band[0], band[1], 2 * n + 1)
    i, j = 0, 2 * n + 1
    if real:
        k0, k1 = np.searchsorted(grid[::2], (model.xi0, model.xi1)).tolist()
        i, j = 2 * max(k0 - 3, 0), 2 * min(k1 + 2, n) + 1
    vals = modulus(grid[i:j])
    if real and not (vals[0] < vals[2] and vals[-3] > vals[-1]):
        i, j = 0, 2 * n + 1
        vals = modulus(grid)
    count_n = count(grid[i:j:2], vals[::2])
    for level in range(4):
        if level:
            i, j = 2 * i, 2 * j - 1
            grid = np.linspace(band[0], band[1], 2 * n + 1)
            finer = np.empty(j - i)
            finer[::2] = vals
            finer[1::2] = modulus(grid[i + 1:j:2])
            vals = finer
        count_2n = count(grid[i:j], vals)
        if count_2n == count_n:
            return count_n
        count_n, n = count_2n, 2 * n
    raise InconclusiveCountError(
        f"maxima count did not stabilize up to n = {n} samples at t = {t}"
    )


def flip_bracket(pred, lo: float, hi: float, steps: int) -> tuple[float, float]:
    """Halve [lo, hi] steps times around the point where pred flips from
    false to true, and return the last bracket.

    Assumes pred(lo) is false and pred(hi) true; checking that is left to the
    caller. This is the library's one bisection: the 1 <-> 2 flip of a maxima
    count (pred = count >= 2), the STFT gap root and the SST fold all run it.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def critical_gap_stft(a: float, window: GaussianWindow) -> tuple[float, float]:
    """Smallest gap at which the constructive-time slice resolves two maxima.

    Returns (delta_crit, s) with delta_crit = (1+s)/(pi sigma sqrt(2 s)) and s
    the unique root of ln(s/a) = (s - 1/s)/2. In x = ln s the equation is
    x - sinh x = ln a, whose left side strictly decreases; as |ln a| <= 745 <
    sinh 8 - 8 for every positive finite a, 64 halvings of [-8, 8] always
    hold the root, and s = e^x at the upper end of the last bracket. a = 1
    short-circuits to s = 1 exactly.
    """
    if not 0 < a < math.inf:
        raise ModelValidationError(f"a must be positive and finite, got {a!r}")
    s = 1.0
    if a != 1.0:
        log_a = math.log(a)
        s = math.exp(flip_bracket(lambda x: x - math.sinh(x) <= log_a, -8.0, 8.0, 64)[1])
    delta_crit = (1.0 + s) / (math.pi * window.sigma * math.sqrt(2.0 * s))
    return delta_crit, s


def _arccos_argument(model: TwoHarmonicModel, window: GaussianWindow) -> float:
    """C delta^2 - 1, inf where delta ** 2 raises OverflowError."""
    try:
        return window.C * model.delta ** 2 - 1.0
    except OverflowError:
        return math.inf


def bifurcation_times(model: TwoHarmonicModel, window: GaussianWindow, k: int) -> tuple[float, float]:
    """Times around the k-th destructive time where the count flips 1 <-> 2:
    t_L = k/delta + arccos(C delta^2 - 1)/(2 pi delta), t_R mirrored. Balanced
    amplitudes only; requires C delta^2 <= 2.
    """
    if model.a != 1.0:
        raise HypothesisViolationError("bifurcation formulas require a = 1")
    arg = _arccos_argument(model, window)
    if arg > 1.0 + 1e-12:
        raise NoBifurcationError(
            f"pi^2 sigma^2 delta^2 = {window.C * model.delta**2:.6f} exceeds 2"
        )
    shift = math.acos(min(arg, 1.0)) / (2 * math.pi * model.delta)
    t_l = k / model.delta + shift
    t_r = (k + 1) / model.delta - shift
    return t_l, t_r


def bubble_ellipse(model: TwoHarmonicModel, window: GaussianWindow, k: int) -> EllipseParams:
    """Elliptical approximation of the k-th ridge bubble:
    2 C (eta - xibar)^2 + 4 pi^2 delta^2 (t - t_k^-)^2 / arccos^2(1 - C delta^2) = 1.
    """
    if model.a != 1.0:
        raise HypothesisViolationError("bubble ellipse requires a = 1")
    if window.C * model.delta ** 2 >= 2.0:
        raise NoBifurcationError(
            f"pi^2 sigma^2 delta^2 = {window.C * model.delta**2:.6f} must be < 2"
        )
    return EllipseParams(
        center_t=destructive_time(model, k),
        center_eta=model.xibar,
        semi_axis_eta=1.0 / (math.sqrt(2.0) * math.pi * window.sigma),
        semi_axis_t=math.acos(1.0 - window.C * model.delta ** 2) / (2 * math.pi * model.delta),
        k=k,
    )


def ellipse_residual(model: TwoHarmonicModel, window: GaussianWindow, k: int) -> float:
    """Arc-length integral of |d|V|^2/d eta| along the bubble ellipse.

    The derivative is exact (from the spectrogram decomposition); the arc
    integral is the periodic trapezoid rule, 1024 equal steps of the ellipse
    parameter on [0, 2 pi).
    """
    ell = bubble_ellipse(model, window, k)
    ra, rb = ell.semi_axis_eta, ell.semi_axis_t
    u = np.linspace(0.0, 2 * math.pi, _ARC_STEPS, endpoint=False)
    eta = ell.center_eta + ra * np.cos(u)
    t = ell.center_t + rb * np.sin(u)
    g0, g1, cross = spectrogram_decomposition(model, window, t, eta)
    df_deta = -4 * window.C * ((eta - model.xi0) * g0 + (eta - model.xi1) * g1
                               + (eta - model.xibar) * cross)
    jac = np.sqrt((ra * np.sin(u)) ** 2 + (rb * np.cos(u)) ** 2)
    return float(np.sum(np.abs(df_deta) * jac) * (2 * math.pi / _ARC_STEPS))


def destructive_extrema(model: TwoHarmonicModel, window: GaussianWindow, k: int
                        ) -> tuple[float, float, float]:
    """(eta_avg, eta_minus, eta_plus) on the destructive slice t_k^-.

    eta_avg (model.destructive_zero) is the exact modulus zero; the flanking
    maxima are located by golden search on each side and must straddle
    [xi0, xi1]. Their distances obey y <= delta w/(1-w) on the left
    (w = a e^{-C delta^2}, when w < 1) and z <= delta e^{-C delta^2}/(a - e^{-C delta^2})
    on the right (when positive); both are asserted.
    """
    if model.a <= 0:
        raise DegenerateAmplitudeError("destructive zero requires a > 0")
    C = window.C
    d = model.delta
    eta_avg = destructive_zero(model, window)
    # provable flank-distance caps fix the search window: from the
    # stationarity fixed points, y e^{2C d y} = a (d + y) e^{-C d^2} gives
    # y <= max(d, ln^+(2 a e^{-C d^2})/(2 C d)); the right side is its a -> 1/a dual
    efac = math.exp(-C * d ** 2)
    y_cap = max(d, math.log(max(2 * model.a * efac, 1.0)) / (2 * C * d)) + d
    z_cap = max(d, math.log(max(2 * efac / model.a, 1.0)) / (2 * C * d)) + d
    lo = min(model.xi0, eta_avg) - y_cap
    hi = max(model.xi1, eta_avg) + z_cap
    t = destructive_time(model, k)

    def modulus(eta):
        return float(abs(stft_closed_form(model, window, t, float(eta))))

    gap = 1e-9 * d
    eta_minus = golden_max(modulus, lo, eta_avg - gap)
    eta_plus = golden_max(modulus, eta_avg + gap, hi)
    # flank distances shrink like e^{-C d^2}; below float resolution the
    # strict comparisons carry no information, hence the absolute slack
    slack = 1e-7 * (1.0 + d)
    if not (eta_minus < model.xi0 + slack and eta_plus > model.xi1 - slack):
        raise SolverFailureError(
            f"flanking maxima {eta_minus}, {eta_plus} do not straddle [{model.xi0}, {model.xi1}]"
        )
    wfac = model.a * efac
    if wfac < 1.0:
        if model.xi0 - eta_minus > d * wfac / (1 - wfac) + slack:
            raise SolverFailureError("left flank exceeds its distance bound")
    if model.a > efac:
        if eta_plus - model.xi1 > d * efac / (model.a - efac) + slack:
            raise SolverFailureError("right flank exceeds its distance bound")
    return eta_avg, eta_minus, eta_plus


def extract_ridges(grid: TFGrid, values: np.ndarray) -> RidgeReport:
    """Per-column ridge maxima of |V|^2 with three-point parabolic refinement,
    for the STFT values over the grid. Only |values| is read, so a caller may
    pass the modulus and free the complex field first.

    One peak search runs on the whole (n_t, n_eta) power array. A one-sample
    peak j moves by the parabola's vertex offset, clipped to half a step (0
    where the second difference is 0); a plateau [left, right] sits at the
    midpoint of its ends. Returns refined ridge points, per-time maxima
    counts, and detected bifurcation times (midpoints of adjacent columns
    where the count changes).
    """
    ts = grid.t_values()
    etas = grid.eta_values()
    # |V| over 2^e, e the exponent of its maximum, is exact and squares
    # without overflow; in place, so one array holds it
    power = np.abs(values)
    np.ldexp(power, -np.frexp(power.max())[1], out=power)
    power *= power
    rows, left, right = _candidate_peaks(power)
    eta_ref = 0.5 * (etas[left] + etas[right])
    single = np.flatnonzero(left == right)
    row, j = rows[single], left[single]
    before, top, after = power[row, j - 1], power[row, j], power[row, j + 1]
    denom = before - 2 * top + after
    off = np.divide(0.5 * (before - after), denom, out=np.zeros(len(j)), where=denom != 0)
    eta_ref[single] = etas[j] + np.clip(off, -0.5, 0.5) * grid.eta_step
    counts = np.bincount(rows, minlength=len(ts))
    flips = counts[:-1] != counts[1:]
    return RidgeReport(
        points=np.column_stack((ts[rows], eta_ref)),
        maxima_count_per_t=tuple(zip(ts.tolist(), counts.tolist())),
        bifurcation_times=tuple((0.5 * (ts[:-1] + ts[1:]))[flips].tolist()),
    )
