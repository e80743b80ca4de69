"""Configuration defaults and the named experiment presets: the four parameter
sets every report figure uses, all at sigma = sqrt(2), xi0 = 1."""

import math

# every configuration key but squeeze.r, which has no default
DEFAULTS = {
    "model.xi0": 1.0,
    "model.delta": 0.3,
    "model.a": 1.0,
    "model.sigma": math.sqrt(2.0),
    "grid.t_min": 0.0,
    "grid.t_max": 7.0,
    "grid.n_t": 129,
    "grid.eta_min": 0.2,
    "grid.eta_max": 2.4,
    "grid.n_eta": 129,
    "squeeze.alpha": 1e-4,
    "squeeze.weighting": "stft",
    "squeeze.reassignment_mode": "sync",
    "reassign.arc_thetas": "0.5,1.0,2.0",
    "output.dir": "out",
}

_COMMON = {**DEFAULTS, "grid.n_t": 257, "grid.n_eta": 257}

PRESETS = {
    "gap-wide-a13": {**_COMMON, "model.delta": 1.0, "model.a": 1.3},
    "gap-small-a13": {**_COMMON, "model.delta": 0.3, "model.a": 1.3},
    "gap-small-balanced": {**_COMMON, "model.delta": 0.3, "model.a": 1.0},
    "gap-tiny-balanced": {**_COMMON, "model.delta": 0.15, "model.a": 1.0},
}
