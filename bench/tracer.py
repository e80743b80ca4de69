"""Spans around the public functions of each twotone module, from outside.

The modules import one another by name (``from .gabor import stft_closed_form``)
and ``twotone/__init__`` re-exports them, so wrapping one module attribute is
not enough: every ``twotone.*`` module attribute that *is* the original
function is rebound to the wrapper, and restored afterwards. The acceptance
criteria are reached through the ``acceptance.CRITERIA`` table, whose entries
are wrapped in place.

A span is (name, start, end, parent, operation). Spans stay in memory until
the traced pass ends. A function's busy time is the union of its spans, and
its self time is busy time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> wrapped public functions
FUNCTIONS = {
    "cli": ("main", "build_config", "write_grid_csv", "write_table_csv", "write_metadata"),
    "gabor": ("stft_field", "stft_closed_form", "stft_numeric"),
    "reassign": ("reassign_field", "eta_s_values", "attraction_bound_check"),
    "ridges": ("count_frequency_maxima", "golden_max", "extract_ridges", "critical_gap_stft"),
    "phasefield": ("locate_zeros", "winding_number", "amplitude_weighted_phase"),
    "squeeze": ("squeeze_field", "squeeze_cross_section", "squeeze_transform",
                "erf_closed_form", "asym_sst", "critical_gap_sst"),
    "oracle": ("plateau_aware_max_count",),
}
N_CRITERIA = 12
BOOKKEEPING = "trace.bookkeeping"
_LOG_CUTOFF = 60.0  # the squeeze quadrature treats |eta_hat - xi|^2 > 60 alpha as inactive


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_active_pairs(etahat: np.ndarray, xis: np.ndarray, alpha: float, phase_mode: bool):
    """(active, attempted) (node, xi) pairs among non-sentinel nodes, where a
    pair is active when |eta_hat - xi|^2 <= 60 alpha; sort and searchsorted,
    no nodes x xi matrix."""
    hat = np.asarray(etahat).ravel()
    hat = hat[~np.isneginf(hat.real)]
    im2 = np.zeros(hat.shape) if phase_mode else hat.imag ** 2
    r2 = _LOG_CUTOFF * alpha
    near = im2 <= r2
    half = np.sqrt(r2 - im2[near])
    re = hat.real[near]
    xs = np.sort(np.asarray(xis, dtype=float).ravel())
    active = np.searchsorted(xs, re + half, side="right") - np.searchsorted(xs, re - half, side="left")
    return int(active.sum()), hat.size * xs.size


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index, operation]
        self._stack = []
        self._call_args = {}    # open span index -> (args, kwargs), for hooks
        self._restore = []
        self.operation = None
        self.counts = defaultdict(float)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.operation])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = tracer._open(name)
            tracer._call_args[idx] = (args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                del tracer._call_args[idx]
            if hook is not None:
                # counting is tracing work: its own span keeps it out of the
                # caller's self time
                book = tracer._open(BOOKKEEPING)
                try:
                    hook(parent, args, kwargs, result)
                finally:
                    tracer._close(book)
            return result

        return wrapper

    # -- counters measured at layer boundaries -----------------------------

    def _on_eta_s_values(self, parent, args, kwargs, result):
        """Squeeze work, counted where squeeze_cross_section calls reassign."""
        if parent < 0 or self.spans[parent][0] != "squeeze.squeeze_cross_section":
            return
        p_args, p_kwargs = self._call_args[parent]
        config = _arg(p_args, p_kwargs, 2, "config")
        xis = np.atleast_1d(_arg(p_args, p_kwargs, 4, "xis"))
        nodes = int(np.size(_arg(args, kwargs, 3, "eta")))
        active, attempted = _count_active_pairs(result, xis, config.alpha,
                                                config.reassignment_mode == "phase")
        self.counts["squeeze.passes"] += 1
        self.counts["squeeze.nodes"] += nodes
        self.counts["squeeze.pair_evals"] += nodes * xis.size
        self.counts["squeeze.active_pairs"] += active
        self.counts["squeeze.valid_pairs"] += attempted

    def _on_write(self, parent, args, kwargs, result):
        self.counts["cli.output_bytes"] += _arg(args, kwargs, 0, "path").stat().st_size

    def _on_metadata(self, parent, args, kwargs, result):
        outdir = _arg(args, kwargs, 0, "outdir")
        self.counts["cli.output_bytes"] += (outdir / "metadata.json").stat().st_size

    def _on_criterion(self, parent, args, kwargs, result):
        self.counts["acceptance.passed"] += int(result.passed)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "twotone" or mod_name.startswith("twotone.")):
                continue
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)
                self._restore.append((module, attr, original))

    def install(self) -> None:
        hooks = {
            "reassign.eta_s_values": self._on_eta_s_values,
            "cli.write_grid_csv": self._on_write,
            "cli.write_table_csv": self._on_write,
            "cli.write_metadata": self._on_metadata,
        }
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"twotone.{layer}"]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name)
                self._rebind(original, self.wrap(name, original, hooks.get(name)))
        criteria = sys.modules["twotone.acceptance"].CRITERIA
        for index, original in list(criteria.items()):
            criteria[index] = self.wrap(f"acceptance.criterion_{index:02d}", original,
                                        self._on_criterion)
            self._restore.append((criteria, index, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> dict:
        """name -> (calls, busy seconds, self seconds)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:  # outermost span of this name: no double counting
                busy[name] += end - start
        return {name: (calls[name], busy[name], self_s[name]) for name in calls}


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, with unit and direction."""
    out = []
    for layer, names in FUNCTIONS.items():
        for fn_name in names:
            out.append((f"{layer}.{fn_name}.calls", "count", "lower"))
            out.append((f"{layer}.{fn_name}.s", "s", "lower"))
            out.append((f"{layer}.{fn_name}.self_s", "s", "lower"))
    out += [(f"acceptance.criterion_{i:02d}.s", "s", "lower") for i in range(1, N_CRITERIA + 1)]
    out += [
        ("acceptance.passed", "count", "higher"),
        ("cli.output_bytes", "B", "lower"),
        ("squeeze.passes", "count", "lower"),
        ("squeeze.nodes", "count", "lower"),
        ("squeeze.pair_evals", "count", "lower"),
        ("squeeze.pair_active_frac", "frac", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.uncovered_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.ref_unit_s", "s", "lower"),
    ]
    return out


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_median: float,
                      unit_s: float) -> dict:
    """Per-layer metric values for one traced pass (0 for layers not reached).

    ``untraced_median`` is the median wall time of the timed passes, not
    scaled, and ``unit_s`` the mean reference-unit time (calibrate.py) of the
    block after set-up."""
    times = tracer.layer_times()
    values = {}
    for layer, names in FUNCTIONS.items():
        for fn_name in names:
            calls, busy, self_s = times.get(f"{layer}.{fn_name}", (0, 0.0, 0.0))
            values[f"{layer}.{fn_name}.calls"] = calls
            values[f"{layer}.{fn_name}.s"] = busy
            values[f"{layer}.{fn_name}.self_s"] = self_s
    for i in range(1, N_CRITERIA + 1):
        values[f"acceptance.criterion_{i:02d}.s"] = times.get(f"acceptance.criterion_{i:02d}",
                                                             (0, 0.0, 0.0))[1]
    c = tracer.counts
    for key in ("acceptance.passed", "cli.output_bytes", "squeeze.passes", "squeeze.nodes",
                "squeeze.pair_evals"):
        values[key] = int(c[key])
    values["squeeze.pair_active_frac"] = (c["squeeze.active_pairs"] / c["squeeze.valid_pairs"]
                                          if c["squeeze.valid_pairs"] else 0.0)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_median
    values["trace.uncovered_s"] = traced_wall - times.get("cli.main", (0, 0.0, 0.0))[1]
    values["trace.untraced_wall_s"] = untraced_median
    values["trace.ref_unit_s"] = unit_s
    return values


def layer_shares(tracer: Tracer, traced_wall: float) -> dict:
    """Share of the traced pass spent in each layer's own code (self time)."""
    shares = defaultdict(float)
    for name, (_, _, self_s) in tracer.layer_times().items():
        shares[name.split(".")[0]] += self_s / traced_wall
    return dict(shares)
