"""Gaussian-window STFT: exact two-harmonic closed form, direct quadrature for
AM/FM signals, spectrogram cross-term decomposition, and the entire-function
(Bargmann) consistency check.

The transform is the modified STFT
    V(t, eta) = integral f(x) h(x - t) e^{-2 pi i eta (x - t)} dx,
whose two-harmonic closed form is
    V = e^{2 pi i xi0 t} (e^{-C (eta-xi0)^2} + a e^{2 pi i delta t} e^{-C (eta-xi1)^2}),
with C = pi^2 sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, PropagationError
from .model import AHMSignal, GaussianWindow, TwoHarmonicModel

# trapezoid intervals of stft_numeric on |x - t| <= 8 sigma
_NUMERIC_INTERVALS = 4096


@dataclass(frozen=True)
class TFGrid:
    """Uniform rectangular time-frequency lattice, endpoints inclusive."""

    t_min: float
    t_max: float
    n_t: int
    eta_min: float
    eta_max: float
    n_eta: int

    def __post_init__(self):
        bounds = (self.t_min, self.t_max, self.eta_min, self.eta_max)
        if not all(map(math.isfinite, bounds)):
            raise ModelValidationError(f"grid bounds must be finite, got {bounds}")
        spans = (self.t_max - self.t_min, self.eta_max - self.eta_min)
        if not all(map(math.isfinite, spans)):
            raise ModelValidationError(f"grid spans t_max - t_min and eta_max - eta_min "
                                       f"must be finite, got {spans}")
        if not (self.t_min < self.t_max and self.eta_min < self.eta_max):
            raise ModelValidationError("grid ranges must be nonempty")
        if self.n_t < 2 or self.n_eta < 2:
            raise ModelValidationError("grid needs at least 2 points per axis")

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_t)

    def eta_values(self) -> np.ndarray:
        return np.linspace(self.eta_min, self.eta_max, self.n_eta)

    @property
    def t_step(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)

    @property
    def eta_step(self) -> float:
        return (self.eta_max - self.eta_min) / (self.n_eta - 1)


def _rotations(model: TwoHarmonicModel, t):
    """(rot0, rot1) = (e^{2 pi i xi0 t}, e^{2 pi i delta t})."""
    return np.exp(2j * math.pi * model.xi0 * t), np.exp(2j * math.pi * model.delta * t)


def _v_terms(model: TwoHarmonicModel, window: GaussianWindow, t, eta):
    """(rot0, rot1, g0, g1) with V = rot0 (g0 + a rot1 g1): rot0 and rot1 from
    _rotations, g_j = e^{-C (eta - xi_j)^2}."""
    C = window.C
    return (*_rotations(model, t),
            np.exp(-C * (eta - model.xi0) ** 2), np.exp(-C * (eta - model.xi1) ** 2))


def stft_closed_form(model: TwoHarmonicModel, window: GaussianWindow, t, eta):
    """Exact V(t, eta) for the two-harmonic model. Broadcasts over t and eta.

    rot0 (g0 + a rot1 g1) is built in one array of the result's size, each
    product in its written operand order: numpy's complex multiply is not
    commutative bit for bit."""
    rot0, rot1, g0, g1 = _v_terms(model, window, np.asarray(t, dtype=float),
                                  np.asarray(eta, dtype=float))
    v = np.asarray(model.a * rot1 * g1)
    np.add(g0, v, out=v)
    np.multiply(rot0, v, out=v)
    return v[()]


def stft_field(model: TwoHarmonicModel, window: GaussianWindow, grid: TFGrid) -> np.ndarray:
    """The closed form over the grid, shape (n_t, n_eta), row-major in t."""
    # a phase xi0 t that overflows leaves nan entries, which raise below
    with np.errstate(over="ignore", invalid="ignore"):
        values = stft_closed_form(model, window, grid.t_values()[:, None],
                                  grid.eta_values()[None, :])
    if not np.all(np.isfinite(values)):
        raise ModelValidationError("non-finite entries in STFT field")
    return values


def stft_numeric(signal: AHMSignal, window: GaussianWindow, t: float, eta,
                 deriv_window: bool = False):
    """V(t, eta) by the trapezoid rule with 4096 intervals on |x - t| <= W,
    W = 8 sigma. The window is below e^-64 at both ends, so for a smooth
    signal the error falls faster than any power of the interval count. eta
    may be an array: every eta integrates against one sampling of the signal,
    and the result has eta's shape. A two-harmonic model enters through
    lift_two_harmonic.

    With deriv_window=True the window is Dh = h' (needed by reassignment
    proximity checks). The closed form is reproduced to <= 1e-8.
    """
    w = 8.0 * window.sigma
    x = np.linspace(t - w, t + w, _NUMERIC_INTERVALS + 1)
    fx = signal.evaluate(x)
    bad = ~np.isfinite(fx)
    if np.any(bad):
        raise PropagationError(f"non-finite signal sample at x = {x[bad][0]!r}")
    signal.validate_separation(x[::64])
    win = window.dh(x - t) if deriv_window else window.h(x - t)
    eta = np.asarray(eta, dtype=float)[..., None]
    integrand = fx * win * np.exp(-2j * math.pi * eta * (x - t))
    return (integrand.sum(-1) - (integrand[..., 0] + integrand[..., -1]) / 2) * (x[1] - x[0])


def spectrogram_decomposition(model: TwoHarmonicModel, window: GaussianWindow, t, eta):
    """Three terms of |V|^2: (g0, g1, cross) with
    g0 = e^{-2C(eta-xi0)^2}, g1 = a^2 e^{-2C(eta-xi1)^2},
    cross = 2a e^{-C((eta-xi0)^2 + (eta-xi1)^2)} cos(2 pi delta t); sum = |V|^2.
    """
    _, rot1, g0, g1 = _v_terms(model, window, np.asarray(t, dtype=float),
                               np.asarray(eta, dtype=float))
    return g0 ** 2, model.a ** 2 * g1 ** 2, 2 * model.a * g0 * g1 * rot1.real


def separation_gap_bound(model: TwoHarmonicModel, window: GaussianWindow) -> float:
    """Uniform bound on |V| - (|V0| + |V1|): 2 a e^{-pi^2 sigma^2 (delta/2)^2}."""
    return 2 * model.a * math.exp(-window.C * (model.delta / 2) ** 2)


def _bargmann_exponents(model: TwoHarmonicModel, window: GaussianWindow, z):
    """(e0, e1) with B f(z) = e^{e0} + a e^{e1}: e_j = (z + i pi sigma xi_j)^2 - z^2/2."""
    shift = 1j * math.pi * window.sigma
    return ((z + shift * model.xi0) ** 2 - 0.5 * z ** 2,
            (z + shift * model.xi1) ** 2 - 0.5 * z ** 2)


def bargmann_transform(model: TwoHarmonicModel, window: GaussianWindow, z):
    """Rescaled entire transform B f(z) of the two-harmonic signal, closed form:
    B f(z) = e^{(z + i pi sigma xi0)^2 - z^2/2} + a e^{(z + i pi sigma xi1)^2 - z^2/2}.
    """
    e0, e1 = _bargmann_exponents(model, window, np.asarray(z, dtype=complex))
    return np.exp(e0) + model.a * np.exp(e1)


def bargmann_consistency(model: TwoHarmonicModel, window: GaussianWindow, t, eta):
    """|V_reconstructed - V_closed_form| where V is rebuilt from the entire
    transform via V = e^{-[(t/sigma)^2 + (pi sigma eta)^2]/2} e^{i pi t eta} B f(z),
    z = t/sigma - i pi sigma eta. Exponents are combined before exp to avoid
    overflow on large grids.
    """
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    s = window.sigma
    pre = -0.5 * ((t / s) ** 2 + (math.pi * s * eta) ** 2) + 1j * math.pi * t * eta
    e0, e1 = _bargmann_exponents(model, window, t / s - 1j * math.pi * s * eta)
    rec = np.exp(pre + e0) + model.a * np.exp(pre + e1)
    return np.abs(rec - stft_closed_form(model, window, t, eta))
