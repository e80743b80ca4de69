"""Command-line front end: deterministic field exports, reports, critical-gap
queries, and the acceptance-suite runner.

Configuration is a flat key=value file with dotted sections (model.xi0=1.0);
any key can be overridden on the command line as --section.key=value. Outputs
are CSV plus a JSON metadata sidecar; reruns with identical configuration are
byte-identical. Every CSV is UTF-8 with \\r\\n line ends and no quoting, floats
in repr's shortest round-trip decimals and integers and flags as integers.
Grid cells are formatted a block at a time by the numpy kernel in gridcsv,
which certifies each cell's shortest decimal or hands the cell to repr, so
the bytes are repr's either way.

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
from .gridcsv import grid_lines
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


def write_grid_csv(path: Path, grid: TFGrid, values: np.ndarray, quantity: str) -> None:
    header = [f"t\\eta ({quantity})"] + list(map(repr, grid.eta_values().tolist()))
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(grid_lines(grid.t_values(), values))


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


def _write_outputs(config: ExperimentConfig, command: str, outputs) -> None:
    """Write each (name, value) pair of outputs as it comes, a grid of values
    or a (header, rows) table, and then the metadata that lists them."""
    try:
        config.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(config.outdir)!r}: {exc}") from exc
    names = []
    for name, value in outputs:
        if isinstance(value, np.ndarray):
            write_grid_csv(config.outdir / name, config.grid, value, name[:-4])
        else:
            write_table_csv(config.outdir / name, *value)
        names.append(name)
    write_metadata(config.outdir, command, config, names)


def _stft_grids(config: ExperimentConfig, values: np.ndarray):
    """The grids of cmd_stft, each formed when the one before has been written."""
    mag = np.abs(values)
    yield "abs_v.csv", mag
    yield "re_v.csv", values.real
    yield "im_v.csv", values.imag
    phase = np.angle(values)
    np.mod(phase, 2 * math.pi, out=phase)
    phase[mag <= _phase_threshold(config.model.a)] = 0.0
    del mag
    yield "phase.csv", phase
    del phase
    yield "amp_weighted_phase.csv", amplitude_weighted_phase(values)


def cmd_stft(config: ExperimentConfig) -> int:
    # the field is formed before any file, so a numerical failure writes nothing
    _write_outputs(config, "stft", _stft_grids(config, stft_field(config.model, config.window,
                                                                  config.grid)))
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
    }.items())
    return 0


def cmd_zeros(config: ExperimentConfig) -> int:
    zeros = locate_zeros(config.model, config.window, config.grid)
    _write_outputs(config, "zeros", {
        "zeros.csv": (["t0", "eta0", "winding", "residual"],
                      [(z.t0, z.eta0, z.winding, z.refinement_residual) for z in zeros]),
    }.items())
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
    }.items())
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
    _write_outputs(config, "squeeze", outputs.items())
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
