"""Command-line front end: deterministic field exports, reports, critical-gap
queries, and the acceptance-suite runner.

Configuration is a flat key=value file with dotted sections (model.xi0=1.0);
any key can be overridden on the command line as --section.key=value. Outputs
are CSV plus a JSON metadata sidecar; reruns with identical configuration are
byte-identical. Every CSV is UTF-8 with \\r\\n line ends and no quoting, floats
in repr's shortest round-trip decimals and integers and flags as integers.
Grid cells are formatted a block of rows at a time by a numpy kernel that
certifies each cell's shortest decimal or hands the cell to repr, so the
bytes are repr's either way.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, acceptance, reassign, ridges, squeeze
from .errors import ConfigError, ModelValidationError, TwoToneError
from .gabor import TFGrid, stft_field
from .model import GaussianWindow, TwoHarmonicModel, constructive_time, destructive_time
from .phasefield import _phase_threshold, amplitude_weighted_phase, locate_zeros
from .presets import DEFAULTS, PRESETS
from .squeeze import SqueezeConfig

_SCHEMA = {**{key: type(value) for key, value in DEFAULTS.items()}, "squeeze.r": float}


@dataclass(frozen=True)
class ExperimentConfig:
    model: TwoHarmonicModel
    window: GaussianWindow
    grid: TFGrid
    squeeze: SqueezeConfig
    arc_thetas: tuple
    outdir: Path
    raw: dict


def _coerce(key: str, text: str, line_no=None):
    where = f" (line {line_no})" if line_no is not None else ""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}{where}")
    typ = _SCHEMA[key]
    try:
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
        return text.strip()
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}{where}: {text!r}") from exc


def parse_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value on line {line_no}: {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        values[key] = _coerce(key, text.strip(), line_no)
    return values


def parse_overrides(tokens: list[str]) -> dict:
    """--section.key=value leftovers from argparse."""
    pattern = re.compile(r"^--([a-z_]+\.[a-z_0-9]+)=(.*)$")
    values = {}
    for token in tokens:
        m = pattern.match(token)
        if not m:
            raise ConfigError(f"unrecognized argument {token!r}")
        values[m.group(1)] = _coerce(m.group(1), m.group(2))
    return values


def build_config(args, extra: list[str]) -> ExperimentConfig:
    merged = dict(DEFAULTS)
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        merged.update(PRESETS[args.preset])
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    merged.update(parse_overrides(extra))
    if getattr(args, "out", None):
        merged["output.dir"] = args.out
    alpha, weighting = merged["squeeze.alpha"], merged["squeeze.weighting"]
    radius, mode = merged.get("squeeze.r"), merged["squeeze.reassignment_mode"]
    if radius is not None and not 0 < radius < math.inf:
        raise ConfigError(f"squeeze.r must be positive and finite, got {radius!r}")
    try:
        thetas = tuple(float(x) for x in str(merged["reassign.arc_thetas"]).split(",") if x)
    except ValueError as exc:
        raise ConfigError(f"bad value for 'reassign.arc_thetas': {exc}") from exc
    try:
        model = TwoHarmonicModel(xi0=merged["model.xi0"], delta=merged["model.delta"],
                                 a=merged["model.a"])
        window = GaussianWindow(sigma=merged["model.sigma"])
        grid = TFGrid(t_min=merged["grid.t_min"], t_max=merged["grid.t_max"],
                      n_t=merged["grid.n_t"], eta_min=merged["grid.eta_min"],
                      eta_max=merged["grid.eta_max"], n_eta=merged["grid.n_eta"])
        if weighting == "indicator" and radius is None:
            SqueezeConfig(alpha=alpha)  # rejects a bad alpha before the default radius uses it
            radius = squeeze.default_indicator_radius(
                model, window, alpha, np.linspace(grid.eta_min, grid.eta_max, 65))
        sq_config = SqueezeConfig(alpha=alpha, weighting=weighting, R=radius,
                                  reassignment_mode=mode)
        if weighting == "indicator":
            squeeze.require_indicator_radius(model, window, radius)
        for theta in thetas:
            reassign.arc_circle(model, theta)  # rejects an angle outside (0, pi)
    except TwoToneError as exc:  # every failure here is a bad configuration value
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        model=model, window=window, grid=grid, squeeze=sq_config, arc_thetas=thetas,
        outdir=Path(merged["output.dir"]), raw=merged,
    )


def _write_lines(path: Path, header: list[str], lines) -> None:
    """Stream a header and pre-joined rows: UTF-8, \\r\\n line ends, no quoting."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for line in lines:
            fh.write(line + "\r\n")


# Grid cells are written by a numpy kernel that gives, for a block of rows at
# once, the bytes repr gives cell by cell. Each cell's shortest round-trip
# digits come from integer and double-double arithmetic that certifies its
# result (Loitsch, PLDI 2010; Adams, PLDI 2018); a cell it cannot certify is
# written by repr.
_GRID_BLOCK_ROWS = 16
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_MARGIN = 1e-9        # closest a certified decision may come to a boundary, in scaled units
_LOG10_2 = math.log10(2.0)
_U64 = np.dtype("<u8")
_DECPT_RANGE = 300    # |decpt| bound of the layout tables; certified cells reach 282
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_STEPS = np.array([1.0, 10.0, 100.0])


@functools.cache
def _pow10_parts(q: int) -> tuple:
    """10^q as hi + lo, two doubles that together carry it to about 2^-106
    relative, and Dekker's halves of hi. Built from Python integers, whose true
    division rounds correctly."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    n, d = hi.as_integer_ratio()
    lo = (num * d - n * den) / (den * d)
    big = _SPLIT * hi
    hi_head = big - (big - hi)
    return hi, lo, hi_head, hi - hi_head


def _shortest_decimals(a: np.ndarray) -> tuple:
    """Shortest round-trip decimals of the doubles a >= 0, as repr chooses them.

    Returns (c, decpt, nd, ok). The int64 c lies in [10^16, 10^17) and holds
    the nd significant digits followed by zeros; the decimal is 0.d1...d_nd
    times 10^decpt. ok is False where the result is not certified: a outside
    [1e-280, 1e280] (so zero, subnormals, inf and nan), a power of two, whose
    rounding interval is not symmetric, and any decision closer than _MARGIN
    to a boundary. Near 1e16 the ends of the rounding interval are exact in
    the scaled units, so every double in [1e16, 1e17) goes to repr, about half
    of those in the decades on either side, and a share falling about
    fivefold per decade beyond (1e-4 at 1e10 and at 1e22).

    With e10 = floor((e2 - 1) log10 2) <= log10 a, y = a 10^(16 - e10) lies in
    [10^16, 2 10^17). Dekker's product gives y as p + s exactly enough (numpy
    has no fused multiply-add), and y is split as base + z with base a multiple
    of 100. Half an ulp of a is h in the same units, 0.55 < h < 22.3, and every
    decimal in z +- h reads back as a. The shortest is a multiple of the
    largest power of ten with a multiple inside, and repr takes the one
    closest to z; inside a width below 100 that is the nearest multiple of 1,
    10 or 100, and a multiple of 100 may carry more zeros. c >= 10^16 because
    y >= 10^16: when z - h reaches below it, 10^16 itself is the multiple.
    """
    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.5)
    mant, e2 = np.frexp(a)
    ok &= mant != 0.5
    e10 = np.floor((e2 - 1) * _LOG10_2).astype(np.int64)
    e10_min = int(e10.min())
    col = e10 - e10_min
    table = np.zeros((4, int(col.max()) + 1))
    for k in np.flatnonzero(np.bincount(col)):
        table[:, k] = _pow10_parts(16 - e10_min - int(k))
    scale, scale_lo, scale_head, scale_tail = (row.take(col) for row in table)
    p = a * scale
    big = a * _SPLIT
    a_head = big - (big - a)
    a_tail = a - a_head
    s = (((a_head * scale_head - p) + a_head * scale_tail + a_tail * scale_head)
         + a_tail * scale_tail + a * scale_lo)
    p_int = p.astype(np.int64)
    base = p_int // 100 * 100
    z = (p_int - base) + s
    h = np.ldexp(scale, e2 - 54)
    low, high = z - h, z + h
    ok &= (np.abs(low - np.rint(low)) > _MARGIN) & (np.abs(high - np.rint(high)) > _MARGIN)
    has100 = ((low < 0.0) & (high > 0.0)) | ((low < 100.0) & (high > 100.0))
    has10 = 10.0 * np.floor(high * 0.1) > low
    zeros = has10 + has100.astype(np.int64)
    step = _STEPS.take(zeros)
    v = z / step
    nearest = np.rint(v)
    ok &= np.abs(v - nearest) < 0.5 - _MARGIN  # not a tie between two multiples
    c = base + (nearest * step).astype(np.int64)
    rows = np.flatnonzero(has100)
    tail = c[rows] // 100
    for k in (8, 4, 2, 1):  # up to 15 more zeros, counted in binary
        whole = tail % 10 ** k == 0
        tail = np.where(whole, tail // 10 ** k, tail)
        zeros[rows] += k * whole
    decpt = 1 + e10
    over = c >= 10 ** 17
    c[over] //= 10
    decpt += over
    zeros -= over
    return c, decpt, 17 - zeros, ok


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each uint64 v < 10^8 as one word, most
    significant in the lowest byte: halves, quarters and eighths are split
    in parallel lanes, with w // 100 = (w 10486) >> 20 for w < 10^4 and
    w // 10 = (w 103) >> 10 for w < 100."""
    u = np.uint64
    hi = v // u(10000)
    x = hi | ((v - hi * u(10000)) << u(32))
    hi = ((x * u(10486)) >> u(20)) & u(0x0000007F0000007F)
    x = hi | ((x - hi * u(100)) << u(16))
    hi = ((x * u(103)) >> u(10)) & u(0x000F000F000F000F)
    return hi | ((x - hi * u(10)) << u(8)) | _ASCII_ZEROS


@functools.cache
def _layout_tables() -> tuple:
    """Lookup tables of the cell layout in _format_rows, built on first use.

    form[decpt + _DECPT_RANGE] is decpt + 3 for the positional forms,
    decpt in [-3, 16], and 20 for the exponent form, and exponent[...] holds
    the exponent's bytes "e-05", "e+16", "e+308" in bytes 24-28 of a cell.
    masks[:, 17 form + nd - 1] are nine words: three that keep the digits
    before the point, three that keep the digits moved one byte up after it,
    and three of fixed characters, the point and the "0.000" prefix.
    """
    decpts = range(-_DECPT_RANGE, _DECPT_RANGE + 1)
    form = np.array([d + 3 if -3 <= d <= 16 else 20 for d in decpts])
    exponent = np.array([0 if -3 <= d <= 16 else int.from_bytes(f"e{d - 1:+03d}".encode(), "little")
                         for d in decpts], _U64)
    masks = np.zeros((9, 21 * 17), _U64)
    for f in range(21):
        for nd in range(1, 18):
            if f == 20:
                kept, point, prefix = nd, 7 if nd > 1 else 24, b""
            elif f >= 4:  # d.dd, dd.d and dd0.0: zeros up to the point and one after it
                kept, point, prefix = max(nd, f - 2), f + 3, b""
            else:         # 0.ddd to 0.000ddd
                kept, point, prefix = nd, 24, b"0." + b"0" * (3 - f)
            before = sum(0xFF << 8 * i for i in range(6, min(6 + kept, point)))
            after = sum(0xFF << 8 * i for i in range(point + 1, 7 + kept))
            dot = 0x2E << 8 * point if point < 24 else 0
            chars = int.from_bytes(b"\0" + prefix, "little") | dot
            masks[:, 17 * f + nd - 1] = [v >> 64 * k & 2 ** 64 - 1
                                         for v in (before, after, chars) for k in range(3)]
    return form, exponent, masks


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D block of doubles, each row
    ",".join(map(repr, row)) + "\\r\\n", byte for byte.

    Each cell is laid out in 32 bytes, four little-endian words, and the NUL
    bytes between its parts are deleted at the end: byte 0 the sign, bytes
    1-5 the "0." and zeros of 0 >= decpt >= -3, bytes 6-23 the digits and the
    point, bytes 24-28 the exponent, bytes 29-30 the separator. repr writes
    d.ddde+XX when decpt <= -4 or decpt > 16, and positional notation
    otherwise. Every array is one value per cell, so numpy runs each step
    over contiguous memory.
    """
    u = np.uint64
    x = block.ravel()
    a = np.abs(x)
    c, decpt, nd, ok = _shortest_decimals(a)
    zero = a == 0.0
    c[zero], decpt[zero], nd[zero] = 0, 1, 1
    ok |= zero
    form, exponent, masks = _layout_tables()
    at = decpt + _DECPT_RANGE
    layout = form.take(at) * 17 + (nd - 1)
    cu = c.astype(_U64)
    halves = np.empty((2, x.size), _U64)
    halves[0] = cu // u(10 ** 9)
    rest = cu - halves[0] * u(10 ** 9)
    halves[1] = rest // u(10)
    last = rest - halves[1] * u(10) + u(48)
    d0, d1 = _digits8(halves)
    # the 17 digits from byte 6, and the same digits from byte 7
    words = (d0 << u(48), (d0 >> u(16)) | (d1 << u(48)), (d1 >> u(16)) | (last << u(48)))
    moved = (d0 << u(56), (d0 >> u(8)) | (d1 << u(56)), (d1 >> u(8)) | (last << u(56)))
    out = np.empty((4, x.size), _U64)
    for i in range(3):
        out[i] = ((words[i] & masks[i].take(layout)) | (moved[i] & masks[3 + i].take(layout))
                  | masks[6 + i].take(layout))
    out[0] |= np.signbit(x) * u(0x2D)
    sep = np.full(x.size, u(0x2C << 40))
    sep[block.shape[1] - 1::block.shape[1]] = u(0x0A0D << 40)
    out[3] = exponent.take(at) | sep
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array([repr(v) for v in x[bad].tolist()], dtype="S24")
        out[:3, bad] = text.view(_U64).reshape(bad.size, 3).T
        out[3, bad] = sep[bad]
    return out.T.tobytes().translate(None, b"\0")


def write_grid_csv(path: Path, grid: TFGrid, values: np.ndarray, quantity: str) -> None:
    header = [f"t\\eta ({quantity})"] + list(map(repr, grid.eta_values().tolist()))
    t = grid.t_values()
    block = np.empty((_GRID_BLOCK_ROWS, 1 + values.shape[1]))
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(t), _GRID_BLOCK_ROWS):
            rows = block[:len(t) - start]
            rows[:, 0] = t[start:start + _GRID_BLOCK_ROWS]
            rows[:, 1:] = values[start:start + _GRID_BLOCK_ROWS]
            fh.write(_format_rows(rows))


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_table_csv(path: Path, header: list[str], rows) -> None:
    _write_lines(path, header, (",".join(map(_cell, row)) for row in rows))


def write_metadata(outdir: Path, command: str, config: ExperimentConfig, files: list[str]) -> None:
    doc = {
        "command": command,
        "config": {k: config.raw[k] for k in sorted(config.raw)},
        "files": sorted(files),
        "library": "twotone",
        "version": __version__,
    }
    (outdir / "metadata.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_outputs(config: ExperimentConfig, command: str, outputs: dict) -> None:
    """Write each named output, a grid of values or a (header, rows) table,
    and the metadata that lists them."""
    try:
        config.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(config.outdir)!r}: {exc}") from exc
    for name, value in outputs.items():
        if isinstance(value, np.ndarray):
            write_grid_csv(config.outdir / name, config.grid, value, name[:-4])
        else:
            write_table_csv(config.outdir / name, *value)
    write_metadata(config.outdir, command, config, list(outputs))


def cmd_stft(config: ExperimentConfig) -> int:
    values = stft_field(config.model, config.window, config.grid)
    mag = np.abs(values)
    phase = np.mod(np.angle(values), 2 * math.pi)
    phase[mag <= _phase_threshold(config.model.a)] = 0.0
    _write_outputs(config, "stft", {
        "abs_v.csv": mag,
        "re_v.csv": values.real,
        "im_v.csv": values.imag,
        "phase.csv": phase,
        "amp_weighted_phase.csv": amplitude_weighted_phase(values),
    })
    return 0


def cmd_ridges(config: ExperimentConfig) -> int:
    model, window, grid = config.model, config.window, config.grid
    report = ridges.extract_ridges(grid, np.abs(stft_field(model, window, grid)))
    ellipse_rows = []
    if model.a == 1.0 and window.C * model.delta ** 2 < 2.0:
        k_lo = math.floor(grid.t_min * model.delta - 0.5)
        k_hi = math.ceil(grid.t_max * model.delta)
        for k in range(k_lo, k_hi + 1):
            ell = ridges.bubble_ellipse(model, window, k)
            if grid.t_min <= ell.center_t <= grid.t_max:
                ellipse_rows.append((ell.k, ell.center_t, ell.center_eta,
                                     ell.semi_axis_t, ell.semi_axis_eta))
    _write_outputs(config, "ridges", {
        "ridge_points.csv": (["t", "eta"], report.points),
        "maxima_counts.csv": (["t", "count"], report.maxima_count_per_t),
        "bifurcation_times.csv": (["t_detected"], [(b,) for b in report.bifurcation_times]),
        "ellipses.csv": (["k", "center_t", "center_eta", "semi_axis_t", "semi_axis_eta"],
                         ellipse_rows),
    })
    return 0


def cmd_zeros(config: ExperimentConfig) -> int:
    zeros = locate_zeros(config.model, config.window, config.grid)
    _write_outputs(config, "zeros", {
        "zeros.csv": (["t0", "eta0", "winding", "residual"],
                      [(z.t0, z.eta0, z.winding, z.refinement_residual) for z in zeros]),
    })
    return 0


def cmd_reassign(config: ExperimentConfig) -> int:
    model, window, grid = config.model, config.window, config.grid
    values = reassign.reassign_field(model, window, grid)
    np.copyto(values, np.nan + 0j, where=np.isneginf(values.real))
    arc_rows = []
    for theta in config.arc_thetas:
        center, radius = reassign.arc_circle(model, theta)
        arc_rows.append((theta, center.real, center.imag, radius))
    ts, etas = np.meshgrid(np.linspace(grid.t_min, grid.t_max, 13),
                           np.linspace(grid.eta_min, model.xibar, 17), indexing="ij")
    chk = reassign.attraction_bound_check(model, window, ts, etas)
    # a point outside the premise, where the check reads nan, writes no row
    applies = ~np.isnan(chk.premise)
    audit_rows = zip(*(column[applies] for column in
                       (ts, etas, chk.premise, chk.bound, chk.actual, chk.holds)))
    _write_outputs(config, "reassign", {
        "eta_s_re.csv": values.real,
        "eta_s_im.csv": values.imag,
        "arc_circles.csv": (["theta", "center_re", "center_im", "radius"], arc_rows),
        "attraction_audit.csv": (["t", "eta", "premise", "bound", "actual", "holds"],
                                 audit_rows),
    })
    return 0


def cmd_squeeze(config: ExperimentConfig) -> int:
    model, window, grid = config.model, config.window, config.grid
    sq_config = config.squeeze
    outputs = {"abs_s.csv": np.abs(squeeze.squeeze_field(model, window, sq_config, grid))}
    standoff = 2e-3 * model.delta
    xis = grid.eta_values()
    xis = xis[(np.abs(xis - model.xi0) > standoff) & (np.abs(xis - model.xi1) > standoff)]
    for label, t in (("constructive", constructive_time(model, 0)),
                     ("destructive", destructive_time(model, 0))):
        quads = (np.abs(squeeze.squeeze_cross_section(model, window, sq_config, t, xis))
                 if xis.size else xis)
        # a limit that does not apply at a xi reads nan
        if sq_config.weighting == "indicator":
            limits = squeeze.asym_indicator(model, window, sq_config.alpha, sq_config.R, t, xis)
        elif model.a > 0:
            limits = squeeze.asym_sst(model, window, t, xis)
        else:  # the STFT-weighted limit needs a > 0
            limits = np.full(xis.shape, np.nan)
        erf_vals = []
        for xi in xis:
            try:
                erf_vals.append(squeeze.erf_closed_form(model, window, sq_config.alpha, t,
                                                        float(xi)))
            except TwoToneError:
                erf_vals.append(float("nan"))
        rows = zip(xis, quads, np.abs(limits), erf_vals)
        outputs[f"cross_section_{label}.csv"] = (
            ["xi", "abs_quadrature", "abs_density_limit", "abs_erf_form"], rows)
    _write_outputs(config, "squeeze", outputs)
    return 0


def cmd_critical(args) -> int:
    if not 0.0 < args.a < math.inf:
        raise ConfigError(f"--a must be positive and finite, got {args.a!r}")
    try:
        window = GaussianWindow(sigma=args.sigma)
    except ModelValidationError as exc:
        raise ConfigError(f"--sigma: {exc}") from exc
    if args.method == "stft":
        delta_crit, aux = ridges.critical_gap_stft(args.a, window)
        aux_name = "s"
    else:
        delta_crit, aux, _ = squeeze.critical_gap_sst(args.a, window)
        aux_name = "r"
    bracket = None
    if not args.no_empirical:
        lo, hi = (0.9, 1.1) if args.method == "stft" else (0.7, 1.35)
        try:
            bracket = squeeze.constructive_flip(args.a, window, args.method, lo * delta_crit,
                                                hi * delta_crit, 10)[2]
        except TwoToneError:
            pass
    doc = {
        "a": args.a,
        "sigma": args.sigma,
        "method": args.method,
        "delta_critical": delta_crit,
        "auxiliary_root": {aux_name: aux},
        "empirical_bracket": bracket,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_validate(args) -> int:
    results = acceptance.run_criteria(level=args.level)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"criterion {r.index:>2}  {status}  {r.name:<{width}}  [{r.seconds:7.2f} s]  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 0 if failures == 0 else 1


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    parser.add_argument("--out", help="output directory (overrides output.dir)")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing fills a fresh
    namespace each time, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="twotone",
        description="Interference numerics for two-component harmonic signals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("stft", "export transform magnitude, parts, and phase grids"),
        ("ridges", "export ridge points, counts, bifurcations, bubble parameters"),
        ("zeros", "export transform zeros with winding numbers"),
        ("reassign", "export reassignment fields, arc circles, attraction audit"),
        ("squeeze", "export squeezed-transform field and cross sections"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_options(p)
    p = sub.add_parser("critical", help="critical-gap solvers with empirical bracket")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--method", choices=("stft", "sst"), required=True)
    p.add_argument("--no-empirical", action="store_true",
                   help="skip the maxima-counting bracket")
    p = sub.add_parser("validate", help="run the acceptance criteria")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


_FIELD_COMMANDS = {
    "stft": cmd_stft,
    "ridges": cmd_ridges,
    "zeros": cmd_zeros,
    "reassign": cmd_reassign,
    "squeeze": cmd_squeeze,
}


def main(argv=None) -> int:
    parser = make_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command in _FIELD_COMMANDS:
            config = build_config(args, extra)
            return _FIELD_COMMANDS[args.command](config)
        if extra:
            raise ConfigError(f"unrecognized arguments: {' '.join(extra)}")
        if args.command == "critical":
            return cmd_critical(args)
        return cmd_validate(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TwoToneError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
