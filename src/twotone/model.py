"""Signal models: two complex harmonics, general two-component AM/FM signals,
distinguished interference times, local linearization, and the STFT proximity
bound between the two.

Conventions: components are complex exponentials A(t) e^{2 pi i phi(t)}; the
two-harmonic model is f(t) = e^{2 pi i xi0 t} + a e^{2 pi i xi1 t} with gap
delta = xi1 - xi0 > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateAmplitudeError,
    ModelValidationError,
    UnsupportedModelError,
)

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class TwoHarmonicModel:
    """Parameters (xi0, delta, a) of f(t) = e^{2 pi i xi0 t} + a e^{2 pi i xi1 t}:
    xi0 finite, 0 < delta < inf, 0 <= a < inf.

    a = 0 degenerates to a single harmonic and is accepted; operations whose
    formulas need a > 0 (e.g. the destructive-slice zero) raise instead.
    """

    xi0: float
    delta: float
    a: float

    def __post_init__(self):
        if not math.isfinite(self.xi0):
            raise ModelValidationError(f"xi0 must be finite, got {self.xi0}")
        if not (0 < self.delta < math.inf):
            raise ModelValidationError(f"delta must be positive and finite, got {self.delta}")
        if not (0 <= self.a < math.inf):
            raise ModelValidationError(f"a must be nonnegative and finite, got {self.a}")

    @property
    def xi1(self) -> float:
        return self.xi0 + self.delta

    @property
    def xibar(self) -> float:
        return self.xi0 + 0.5 * self.delta


@dataclass(frozen=True)
class GaussianWindow:
    """Gaussian analysis window h(x) = e^{-x^2/sigma^2}/(sigma sqrt(pi)).

    Temporal bandwidth sigma/sqrt(2); spectral factor C = pi^2 sigma^2 recurs
    in every closed form.
    """

    sigma: float

    def __post_init__(self):
        # squaring raises OverflowError for sigma past about 1.34e154, and for
        # the widest band pad 10/(pi sigma) of a sigma below about 2.374e-154
        try:
            valid = (0 < self.sigma and math.isfinite(self.C)
                     and math.isfinite((10.0 / (math.pi * self.sigma)) ** 2))
        except OverflowError:
            valid = False
        if not valid:
            raise ModelValidationError(
                "sigma must be positive with pi^2 sigma^2 and (10/(pi sigma))^2 finite, "
                f"got {self.sigma}")

    @property
    def C(self) -> float:
        return math.pi ** 2 * self.sigma ** 2

    def h(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x / self.sigma) ** 2) / (self.sigma * SQRT_PI)

    def dh(self, x):
        """Derivative window Dh(x) = h'(x)."""
        x = np.asarray(x, dtype=float)
        return -2.0 * x / self.sigma ** 2 * self.h(x)


@dataclass(frozen=True)
class AHMComponent:
    """One AM/FM component: callables for A(t), phi(t), phi'(t) plus a global
    curvature bound sup |phi''|. The derivative is supplied, never estimated."""

    amplitude: Callable[[np.ndarray], np.ndarray]
    phase: Callable[[np.ndarray], np.ndarray]
    phase_derivative: Callable[[np.ndarray], np.ndarray]
    phase_curvature_bound: float = 0.0

    def __post_init__(self):
        if self.phase_curvature_bound < 0:
            raise ModelValidationError("phase_curvature_bound must be >= 0")


@dataclass(frozen=True)
class AHMSignal:
    """Sum of AM/FM components with modulation scale epsilon.

    The frequency-separation invariant phi'_k - phi'_{k-1} > 0 is checked by
    sampling (validate_separation), never proven.
    """

    components: Sequence[AHMComponent]
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.epsilon < 0:
            raise ModelValidationError("epsilon must be >= 0")
        if not self.components:
            raise ModelValidationError("signal needs at least one component")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros(t.shape, dtype=complex)
        for c in self.components:
            total = total + np.asarray(c.amplitude(t)) * np.exp(
                2j * math.pi * np.asarray(c.phase(t))
            )
        return total

    def validate_separation(self, t_samples) -> None:
        """Raises unless every sampled gap phi'_k - phi'_{k-1} is > 0."""
        t = np.asarray(t_samples, dtype=float)
        gaps = [float(np.min(np.asarray(hi.phase_derivative(t))
                             - np.asarray(lo.phase_derivative(t))))
                for lo, hi in zip(self.components[:-1], self.components[1:])]
        worst = min(gaps, default=math.inf)
        if worst <= 0:
            raise ModelValidationError(
                f"frequency separation violated on the sample grid (min gap {worst})"
            )


def constructive_time(model: TwoHarmonicModel, k: int) -> float:
    """t_k^+ = k/delta, where the cross term is maximal."""
    return k / model.delta


def destructive_time(model: TwoHarmonicModel, k: int) -> float:
    """t_k^- = (k + 1/2)/delta, where the cross term is minimal."""
    return (k + 0.5) / model.delta


def destructive_zero(model: TwoHarmonicModel, window: GaussianWindow) -> float:
    """eta_avg = xibar - ln(a)/(2 C delta), the frequency of the zero of V on
    every destructive slice t_k^-; needs a > 0."""
    return model.xibar - math.log(model.a) / (2 * window.C * model.delta)


def lift_two_harmonic(model: TwoHarmonicModel) -> AHMSignal:
    """Embed a TwoHarmonicModel as a constant-amplitude linear-phase AHMSignal."""
    comps = []
    for amp, xi in ((1.0, model.xi0), (model.a, model.xi1)):
        comps.append(
            AHMComponent(
                amplitude=lambda t, _a=amp: np.full_like(np.asarray(t, float), _a),
                phase=lambda t, _x=xi: _x * np.asarray(t, float),
                phase_derivative=lambda t, _x=xi: np.full_like(np.asarray(t, float), _x),
                phase_curvature_bound=0.0,
            )
        )
    return AHMSignal(comps, epsilon=0.0)


def freeze_ahm(signal: AHMSignal, t_star: float) -> tuple[TwoHarmonicModel, complex]:
    """Linearize a two-component signal at t_star.

    Returns (model, scale) with xi_j = phi_j'(t_star), a = A_1/A_0 and
    scale = A_0(t_star) e^{2 pi i phi_0(t_star)}. The first component's phase
    offset folds into the scale; the second component's offset is assumed to
    vanish mod 1 at t_star (construct phases accordingly).
    """
    if len(signal.components) != 2:
        raise UnsupportedModelError(
            f"freeze_ahm needs exactly 2 components, got {len(signal.components)}"
        )
    c0, c1 = signal.components
    a0 = float(np.asarray(c0.amplitude(t_star)))
    a1 = float(np.asarray(c1.amplitude(t_star)))
    if a0 == 0.0:
        raise DegenerateAmplitudeError("A_0(t_star) = 0: amplitude ratio undefined")
    xi0 = float(np.asarray(c0.phase_derivative(t_star)))
    xi1 = float(np.asarray(c1.phase_derivative(t_star)))
    if not xi1 > xi0:
        raise ModelValidationError(
            f"components must be ordered by frequency at t_star ({xi1} <= {xi0})"
        )
    phi0 = float(np.asarray(c0.phase(t_star)))
    scale = a0 * complex(math.cos(2 * math.pi * phi0), math.sin(2 * math.pi * phi0))
    return TwoHarmonicModel(xi0=xi0, delta=xi1 - xi0, a=a1 / a0), scale


def _bound_from_moments(signal: AHMSignal, t_star: float, moments) -> float:
    """Shared evaluator: moments = (I1, I2, I3) upper bounds for the absolute
    window moments of |x - t_star|^m, already expanded in |t - t_star|."""
    if len(signal.components) != 2:
        raise UnsupportedModelError("error bound defined for exactly 2 components")
    i1, i2, i3 = moments
    eps = signal.epsilon
    amp_sum = 0.0
    phase_sum = 0.0
    for comp in signal.components:
        xi_j = abs(float(np.asarray(comp.phase_derivative(t_star))))
        a_j = abs(float(np.asarray(comp.amplitude(t_star))))
        m_j = comp.phase_curvature_bound
        amp_sum += xi_j * i1 + 0.5 * m_j * i2
        phase_sum += a_j * (0.5 * xi_j * i2 + m_j / 6.0 * i3)
    return eps * amp_sum + 2 * math.pi * eps * phase_sum


def ahm_stft_error_bound(
    signal: AHMSignal, window: GaussianWindow, t: float, t_star: float
) -> float:
    """Upper bound for |V_F(t, eta) - a_0 V_f(t - t_star, eta)|, uniform in eta.

    F is the two-component signal, f its linearization at t_star. Scales
    linearly in epsilon and is even in (t - t_star) term by term.
    """
    sigma = window.sigma
    tau = abs(t - t_star)
    i1 = tau + sigma / SQRT_PI
    i2 = tau ** 2 + 0.5 * sigma ** 2
    i3 = tau ** 3 + 3 * sigma / SQRT_PI * tau ** 2 + 1.5 * sigma ** 2 * tau + sigma ** 3 / SQRT_PI
    return _bound_from_moments(signal, t_star, (i1, i2, i3))


def ahm_stft_error_bound_dwindow(
    signal: AHMSignal, window: GaussianWindow, t: float, t_star: float
) -> float:
    """Same bound with the derivative window Dh = h' in place of h.

    Uses the absolute moments of |Dh|: m0 = 2/(sigma sqrt(pi)), m1 = 1,
    m2 = 2 sigma/sqrt(pi), m3 = 3 sigma^2/2. Recommended source for the C_Dh
    constant of the reassignment proximity bound.
    """
    sigma = window.sigma
    tau = abs(t - t_star)
    m0 = 2.0 / (sigma * SQRT_PI)
    m1 = 1.0
    m2 = 2.0 * sigma / SQRT_PI
    m3 = 1.5 * sigma ** 2
    i1 = m0 * tau + m1
    i2 = m0 * tau ** 2 + 2 * m1 * tau + m2
    i3 = m0 * tau ** 3 + 3 * m1 * tau ** 2 + 3 * m2 * tau + m3
    return _bound_from_moments(signal, t_star, (i1, i2, i3))
