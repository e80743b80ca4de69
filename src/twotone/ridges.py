"""Spectrogram ridge machinery: frequency-axis maxima counting with refinement
(of |V| and of squeezed cross sections) and bisection of the 1 <-> 2 count
flip, the amplitude-dependent critical gap, bifurcation times and the
elliptical ridge loops ("bubbles") of the balanced model, destructive-slice
extrema, and grid-based ridge extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandCoverageError,
    DegenerateAmplitudeError,
    HypothesisViolationError,
    InconclusiveCountError,
    ModelValidationError,
    NoBifurcationError,
    PreconditionError,
    SolverFailureError,
)
from .gabor import ComplexField, _simpson_weights, spectrogram_decomposition, stft_closed_form
from .model import GaussianWindow, TwoHarmonicModel, destructive_time, destructive_zero
from .squeeze import SqueezeConfig, squeeze_cross_section

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def golden_max(f, lo: float, hi: float, xtol: float = 1e-10) -> float:
    """Golden-section maximizer of a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _candidate_peaks(values: np.ndarray) -> list[tuple[int, int]]:
    """Interior local maxima as (left, right) plateau index bounds.

    Equal-valued runs count once; machine-flat quartic tops near the critical
    gap would otherwise split into spurious strict maxima. A maximal run is a
    peak when it has a neighbour on each side and both are strictly lower; a
    NaN sample is a run of its own and compares false, so it neither peaks nor
    lets a neighbour peak.
    """
    v = values
    if len(v) < 3:
        return []
    starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
    ends = np.append(starts[1:] - 1, len(v) - 1)
    run = v[starts]
    mid = run[1:-1]
    k = np.flatnonzero((run[:-2] < mid) & (run[2:] < mid)) + 1
    return list(zip(starts[k].tolist(), ends[k].tolist()))


def _refined_maxima(f, grid: np.ndarray, values: np.ndarray,
                    xtol: float = 1e-10, merge_tol: float = 1e-8) -> list[float]:
    """Maxima of f at the candidate peaks of values on the increasing grid,
    merged where they lie within merge_tol of each other.

    A golden result never leaves its bracket [grid[left - 1], grid[right + 1]],
    and brackets follow each other along the grid, touching at most at their
    ends, so the results come out in order. A candidate whose bracket lies at
    least merge_tol from both neighbouring brackets cannot merge; it stays at
    its bracket midpoint. Only the others are golden-refined, which gives the
    count that refining every candidate gives.
    """
    peaks = np.array(_candidate_peaks(values), dtype=int).reshape(-1, 2)
    lo, hi = grid[peaks[:, 0] - 1], grid[peaks[:, 1] + 1]
    close = lo[1:] - hi[:-1] < merge_tol
    near = np.zeros(len(peaks), dtype=bool)
    near[1:] |= close
    near[:-1] |= close
    out = (0.5 * (lo + hi)).tolist()
    for k in np.flatnonzero(near):
        out[k] = golden_max(f, lo[k], hi[k], xtol=xtol)
    merged: list[float] = []
    for x in out:
        if merged and abs(x - merged[-1]) < merge_tol:
            merged[-1] = 0.5 * (merged[-1] + x)
        else:
            merged.append(x)
    return merged


def count_frequency_maxima(model: TwoHarmonicModel, window: GaussianWindow, t: float,
                           band: tuple[float, float] | None = None,
                           n_samples: int = 512) -> int:
    """Strict interior local maxima of eta -> |V(t, eta)| on the band.

    Counts at n and 2n samples must agree (guards grid aliasing near
    bifurcations). Maxima within 1e-8 of each other count once: only the
    candidates whose brackets lie within 1e-8 of a neighbouring bracket can
    merge, so only those are golden-refined (to 1e-10) before counting. The
    band must cover the default ridge band.
    """
    lo_req, hi_req = default_band(model, window)
    if band is None:
        band = (lo_req, hi_req)
    if band[0] > lo_req or band[1] < hi_req:
        raise BandCoverageError(
            f"band {band} must cover [{lo_req:.6f}, {hi_req:.6f}]"
        )
    if n_samples < 512:
        raise ModelValidationError("n_samples must be >= 512")

    def modulus(eta):
        return np.abs(stft_closed_form(model, window, t, np.asarray(eta, dtype=float)))

    def count_at(n):
        grid = np.linspace(band[0], band[1], n + 1)
        vals = modulus(grid)
        return len(_refined_maxima(lambda e: float(modulus(e)), grid, vals))

    n = n_samples
    for _ in range(4):
        c1, c2 = count_at(n), count_at(2 * n)
        if c1 == c2:
            return c1
        n *= 2
    raise InconclusiveCountError(
        f"maxima count did not stabilize up to n = {n} samples at t = {t}"
    )


def count_squeeze_maxima(model: TwoHarmonicModel, window: GaussianWindow,
                         config: SqueezeConfig) -> int:
    """Interior local maxima of xi -> |S(0, xi)| at 641 xi on [xi0 - 0.08, xi1 + 0.08].

    Samples below 1e-3 of the largest are raised to that floor first: in the
    tails they carry only quadrature noise, which would register spurious
    maxima.
    """
    xis = np.linspace(model.xi0 - 0.08, model.xi1 + 0.08, 641)
    vals = np.abs(squeeze_cross_section(model, window, config, 0.0, xis))
    return len(_candidate_peaks(np.maximum(vals, 1e-3 * vals.max())))


def constructive_maxima(a: float, window: GaussianWindow, method: str, delta: float) -> int:
    """Maxima count on the constructive slice t = 0 of the model (xi0 = 1, delta, a):
    of |V| at 4096 samples for method 'stft', of the STFT-weighted squeeze at
    alpha = 1e-4 for 'sst'."""
    model = TwoHarmonicModel(xi0=1.0, delta=delta, a=a)
    if method == "stft":
        return count_frequency_maxima(model, window, 0.0, n_samples=4096)
    return count_squeeze_maxima(model, window, SqueezeConfig(alpha=1e-4, weighting="stft"))


def flip_bracket(count, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Halve [lo, hi] iters times around the gap where count(delta) >= 2 starts.

    Assumes count(lo) < 2 <= count(hi); checking that is left to the caller.
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if count(mid) >= 2:
            hi = mid
        else:
            lo = mid
    return lo, hi


def critical_gap_stft(a: float, window: GaussianWindow) -> tuple[float, float]:
    """Smallest gap at which the constructive-time slice resolves two maxima.

    Returns (delta_crit, s) with delta_crit = (1+s)/(pi sigma sqrt(2 s)) and s
    the unique root of ln(s/a) = (s - 1/s)/2 (the left side minus the right is
    strictly decreasing, so bisection is safe). a = 1 short-circuits to s = 1.
    """
    if not 0 < a < math.inf:
        raise ModelValidationError(f"a must be positive and finite, got {a!r}")
    if a == 1.0:
        s = 1.0
    else:
        def g(s):
            return math.log(s / a) - 0.5 * (s - 1.0 / s)

        lo, hi = 1e-8, 1e8
        if not (g(lo) > 0 > g(hi)):
            raise SolverFailureError(
                f"no bracket for the gap equation in (1e-8, 1e8) at a = {a}",
                residuals=(g(lo), g(hi)),
            )
        mid = math.sqrt(lo * hi)
        for _ in range(400):
            mid = math.sqrt(lo * hi)
            val = g(mid)
            if abs(val) < 1e-12:
                break
            if val > 0:
                lo = mid
            else:
                hi = mid
        else:
            raise SolverFailureError(
                f"gap-equation bisection stalled at residual {g(mid)}",
                residuals=(g(mid),),
            )
        s = mid
    delta_crit = (1.0 + s) / (math.pi * window.sigma * math.sqrt(2.0 * s))
    return delta_crit, s


def _arccos_argument(model: TwoHarmonicModel, window: GaussianWindow) -> float:
    return window.C * model.delta ** 2 - 1.0


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


def ellipse_residual(model: TwoHarmonicModel, window: GaussianWindow, k: int,
                     n_arc: int = 1024) -> float:
    """Arc-length integral of |d|V|^2/d eta| along the bubble ellipse.

    The derivative is exact (from the spectrogram decomposition); the arc
    integral uses composite Simpson in the ellipse parameter.
    """
    if n_arc < 256:
        raise ModelValidationError("n_arc must be >= 256")
    ell = bubble_ellipse(model, window, k)
    ra, rb = ell.semi_axis_eta, ell.semi_axis_t
    n = n_arc + (n_arc % 2)
    u = np.linspace(0.0, 2 * math.pi, n + 1)
    eta = ell.center_eta + ra * np.cos(u)
    t = ell.center_t + rb * np.sin(u)
    g0, g1, cross = spectrogram_decomposition(model, window, t, eta)
    df_deta = -4 * window.C * ((eta - model.xi0) * g0 + (eta - model.xi1) * g1
                               + (eta - model.xibar) * cross)
    jac = np.sqrt((ra * np.sin(u)) ** 2 + (rb * np.cos(u)) ** 2)
    return float((np.abs(df_deta) * jac) @ _simpson_weights(n + 1, u[1] - u[0]))


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


def extract_ridges(field: ComplexField) -> RidgeReport:
    """Per-column ridge maxima of |V|^2 with three-point parabolic refinement.

    Returns refined ridge points, per-time maxima counts, and detected
    bifurcation times (midpoints of adjacent columns where the count changes).
    """
    if field.tag != "STFT":
        raise PreconditionError(f"ridge extraction needs an STFT field, got {field.tag}")
    grid = field.grid
    ts = grid.t_values()
    etas = grid.eta_values()
    step = grid.eta_step
    power = np.abs(field.values) ** 2
    points = []
    counts = []
    for i, t in enumerate(ts):
        row = power[i]
        col_count = 0
        for left, right in _candidate_peaks(row):
            col_count += 1
            if left == right:
                j = left
                denom = row[j - 1] - 2 * row[j] + row[j + 1]
                off = 0.0 if denom == 0 else 0.5 * (row[j - 1] - row[j + 1]) / denom
                off = float(np.clip(off, -0.5, 0.5))
                eta_ref = etas[j] + off * step
            else:
                eta_ref = 0.5 * (etas[left] + etas[right])
            points.append((t, eta_ref))
        counts.append((float(t), col_count))
    bifurcations = []
    for (t0, c0), (t1, c1) in zip(counts[:-1], counts[1:]):
        if c0 != c1:
            bifurcations.append(0.5 * (t0 + t1))
    return RidgeReport(
        points=np.asarray(points, dtype=float).reshape(-1, 2),
        maxima_count_per_t=tuple(counts),
        bifurcation_times=tuple(bifurcations),
    )
