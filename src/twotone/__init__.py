"""Interference numerics for two-component harmonic signals under the
Gaussian-window STFT and synchrosqueezing-style reassignment."""

__version__ = "0.1.0"

from .gabor import (
    TFGrid,
    bargmann_consistency,
    bargmann_transform,
    separation_gap_bound,
    spectrogram_decomposition,
    stft_closed_form,
    stft_field,
    stft_numeric,
)
from .model import (
    AHMComponent,
    AHMSignal,
    GaussianWindow,
    TwoHarmonicModel,
    ahm_stft_error_bound,
    ahm_stft_error_bound_dwindow,
    constructive_time,
    destructive_time,
    destructive_zero,
    freeze_ahm,
    lift_two_harmonic,
)
from .phasefield import ZeroPoint, amplitude_weighted_phase, locate_zeros, phase, winding_number
from .reassign import (
    SENTINEL,
    arc_circle,
    attraction_bound_check,
    ahm_reassign_error_bound,
    eta_s_derivative,
    eta_s_values,
    reassign_field,
)
from .ridges import (
    EllipseParams,
    RidgeReport,
    bifurcation_times,
    bubble_ellipse,
    count_frequency_maxima,
    critical_gap_stft,
    destructive_extrema,
    ellipse_residual,
    extract_ridges,
)
from .squeeze import (
    PreimageIntervals,
    SqueezeConfig,
    asym_indicator,
    asym_sst,
    critical_gap_density,
    critical_gap_sst,
    erf_closed_form,
    preimage_intervals,
    pushforward_density,
    squeeze_cross_section,
    squeeze_field,
    squeeze_transform,
)
