"""The four benchmark workloads and the oracle checks on their outputs.

A workload is a fixed list of operations; one operation is one call of
``twotone.cli.main`` with an argv list, exactly as a user would type it. Each
operation carries a check that compares what the command wrote (files or
standard output) with the library's brute-force oracles or with closed forms
re-derived here. Inputs and checked cells are drawn from the seed only.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from twotone.model import GaussianWindow, TwoHarmonicModel
from twotone.oracle import oracle_maxima_count, oracle_quadrature_squeeze, oracle_stft
from twotone.presets import PRESETS
from twotone.squeeze import SqueezeConfig

EXPORT_COMMANDS = ("stft", "ridges", "zeros", "reassign")
SQUEEZE_PRESET = "gap-small-a13"
# 43 rows put the row step at 1/6, which lands exactly on both destructive
# times of the preset (t = 5/3 and t = 5), the rows that refine most.
SQUEEZE_ROWS = 43
SCAN_AMPLITUDES = 40
SCAN_SIGMA = math.sqrt(2.0)
VALIDATE_EXPECTED_FAILS = frozenset({3, 8, 10})  # the strict xfails the suite keeps

STFT_TOL = 1e-7           # oracle_stft agreement used by tests/test_oracle.py
ETA_S_TOL = 1e-11         # times the condition number of the bracket g0 + a e^{..} g1
ZERO_TOL = 1e-10          # |V| at a reported zero, the refinement target of locate_zeros
SQUEEZE_RTOL = 1e-6       # relative tolerance and scale floor of tests/test_oracle.py
SQUEEZE_FLOOR = 1e-6
CRITICAL_RTOL = 0.02      # criterion 2's tolerance on the empirical flip
STFT_CELLS = 4            # oracle_stft cells per preset
ETA_S_CELLS = 64          # reassignment cells per preset
SQUEEZE_CELLS = 24        # oracle_quadrature_squeeze cells


@dataclass(frozen=True)
class Operation:
    label: str
    argv: list
    expected_code: int
    # check(stdout, rng) -> list of failure messages; empty means correct
    check: Callable[[str, np.random.Generator], list]
    # True when the outputs are files, which later passes overwrite, so only
    # the last pass is checked; stdout is kept and checked for every pass
    writes_files: bool


def _model(preset: str) -> tuple[TwoHarmonicModel, GaussianWindow, dict]:
    cfg = PRESETS[preset]
    model = TwoHarmonicModel(xi0=cfg["model.xi0"], delta=cfg["model.delta"], a=cfg["model.a"])
    return model, GaussianWindow(sigma=cfg["model.sigma"]), cfg


def _bracket(model: TwoHarmonicModel, window: GaussianWindow, t, eta):
    """V e^{-2 pi i xi0 t} = g0 + a e^{2 pi i delta t} g1 and its terms, inline."""
    C = math.pi ** 2 * window.sigma ** 2
    g0 = np.exp(-C * (np.asarray(eta) - model.xi0) ** 2)
    g1 = np.exp(-C * (np.asarray(eta) - model.xi1) ** 2)
    rot = np.exp(2j * math.pi * model.delta * np.asarray(t))
    return g0 + model.a * rot * g1, g0, g1, rot


class _Grid:
    """A CSV grid as the CLI writes it: header row of eta, first column t."""

    def __init__(self, path: Path):
        self.lines = path.read_text().splitlines()
        self.etas = np.array([float(x) for x in self.lines[0].split(",")[1:]])
        self.ts = np.array([float(line.split(",", 1)[0]) for line in self.lines[1:]])

    def cell(self, i: int, j: int) -> float:
        return float(self.lines[i + 1].split(",")[j + 1])

    def sample(self, rng: np.random.Generator, k: int) -> list:
        return [(int(rng.integers(len(self.ts))), int(rng.integers(len(self.etas))))
                for _ in range(k)]


def _read_table(path: Path) -> list:
    lines = path.read_text().splitlines()[1:]
    return [[float(x) for x in line.split(",")] for line in lines]


def _check_stft(outdir: Path, preset: str, rng) -> list:
    model, window, _ = _model(preset)

    def signal(x):
        return np.exp(2j * math.pi * model.xi0 * x) + model.a * np.exp(2j * math.pi * model.xi1 * x)

    grids = {name: _Grid(outdir / f"{name}.csv") for name in ("abs_v", "re_v", "im_v")}
    fails = []
    for i, j in grids["abs_v"].sample(rng, STFT_CELLS):
        t, eta = grids["abs_v"].ts[i], grids["abs_v"].etas[j]
        ref = oracle_stft(signal, window, float(t), float(eta))
        for name, want in (("abs_v", abs(ref)), ("re_v", ref.real), ("im_v", ref.imag)):
            got = grids[name].cell(i, j)
            if not abs(got - want) <= STFT_TOL:
                fails.append(f"{preset} {name}[t={t}, eta={eta}] = {got!r}, oracle {want!r}")
    return fails


def _check_reassign(outdir: Path, preset: str, rng) -> list:
    model, window, _ = _model(preset)
    re_grid = _Grid(outdir / "eta_s_re.csv")
    im_grid = _Grid(outdir / "eta_s_im.csv")
    fails = []
    for i, j in re_grid.sample(rng, ETA_S_CELLS):
        t, eta = float(re_grid.ts[i]), float(re_grid.etas[j])
        # (1/2 pi i) dV/dt / V with dV/dt from the closed form, differentiated inline
        br, g0, g1, rot = _bracket(model, window, t, eta)
        want = complex(model.xi0 + model.a * model.delta * rot * g1 / br)
        cond = float((g0 + model.a * g1) / abs(br))
        got = complex(re_grid.cell(i, j), im_grid.cell(i, j))
        if math.isnan(got.real) or math.isnan(got.imag):
            ok = cond >= 1e12  # a sentinel is right only at a zero of V
        else:
            ok = abs(got - want) <= ETA_S_TOL * cond
        if not ok:
            fails.append(f"{preset} eta_s[t={t}, eta={eta}] = {got!r}, expected {want!r}")
    return fails


def _check_zeros(outdir: Path, preset: str, rng) -> list:
    model, window, cfg = _model(preset)
    rows = _read_table(outdir / "zeros.csv")
    fails = []
    for t0, eta0, *_ in rows:
        br, *_ = _bracket(model, window, t0, eta0)
        if not abs(br) <= ZERO_TOL:
            fails.append(f"{preset} zero at ({t0}, {eta0}) has |V| = {abs(br):.3e}")
    # V = 0 exactly at t_k = (k + 1/2)/delta, eta = xibar - ln a / (2 C delta)
    C = math.pi ** 2 * window.sigma ** 2
    eta_zero = model.xibar - math.log(model.a) / (2 * C * model.delta)
    k_lo = math.ceil(cfg["grid.t_min"] * model.delta - 0.5)
    k_hi = math.floor(cfg["grid.t_max"] * model.delta - 0.5)
    expected = max(0, k_hi - k_lo + 1) if cfg["grid.eta_min"] <= eta_zero <= cfg["grid.eta_max"] else 0
    if len(rows) != expected:
        fails.append(f"{preset} has {len(rows)} zeros, expected {expected} destructive times")
    return fails


def _check_ridges(outdir: Path, preset: str, rng) -> list:
    model, window, cfg = _model(preset)
    rows = _read_table(outdir / "maxima_counts.csv")
    t, count = rows[int(rng.integers(len(rows)))]

    def power(eta):
        return np.abs(_bracket(model, window, t, eta)[0]) ** 2

    want = oracle_maxima_count(power, cfg["grid.eta_min"], cfg["grid.eta_max"], 512)
    if int(count) != want:
        return [f"{preset} maxima count at t={t} is {int(count)}, oracle {want}"]
    return []


def _check_squeeze(outdir: Path, preset: str, rng) -> list:
    model, window, cfg = _model(preset)
    config = SqueezeConfig(alpha=cfg["squeeze.alpha"], weighting=cfg["squeeze.weighting"])
    grid = _Grid(outdir / "abs_s.csv")
    fails = []
    for i, j in grid.sample(rng, SQUEEZE_CELLS):
        t, xi = float(grid.ts[i]), float(grid.etas[j])
        want = abs(oracle_quadrature_squeeze(model, window, config, t, xi))
        got = grid.cell(i, j)
        if not abs(got - want) / max(want, SQUEEZE_FLOOR) <= SQUEEZE_RTOL:
            fails.append(f"abs_s[t={t}, xi={xi}] = {got!r}, oracle {want!r}")
    return fails


def _check_critical_stft(stdout: str, rng) -> list:
    doc = json.loads(stdout)
    bracket, crit = doc["empirical_bracket"], doc["delta_critical"]
    if bracket is None:
        return [f"a={doc['a']}: no empirical bracket"]
    rel = abs(0.5 * (bracket[0] + bracket[1]) - crit) / crit
    if not rel <= CRITICAL_RTOL:
        return [f"a={doc['a']}: bracket {bracket} is {rel:.4f} from delta_critical {crit}"]
    return []


def _check_critical_sst(stdout: str, rng) -> list:
    doc = json.loads(stdout)
    crit = doc["delta_critical"]
    if not (isinstance(crit, float) and math.isfinite(crit) and crit > 0):
        return [f"a={doc['a']}: sst solver returned {crit!r}"]
    return []


def _check_validate(stdout: str, rng) -> list:
    status = {int(m.group(1)): m.group(2)
              for m in re.finditer(r"^criterion\s+(\d+)\s+(PASS|FAIL)", stdout, re.M)}
    failing = {i for i, s in status.items() if s == "FAIL"}
    if len(status) != 12 or failing != VALIDATE_EXPECTED_FAILS:
        return [f"validate ran {sorted(status)}, failing {sorted(failing)}, "
                f"expected failing {sorted(VALIDATE_EXPECTED_FAILS)}"]
    return []


_FILE_CHECKS = {
    "stft": _check_stft,
    "ridges": _check_ridges,
    "zeros": _check_zeros,
    "reassign": _check_reassign,
}


def _file_op(label: str, argv: list, outdir: Path, check, preset: str) -> Operation:
    return Operation(label=label, argv=argv + ["--out", str(outdir)], expected_code=0,
                     check=lambda _stdout, rng: check(outdir, preset, rng), writes_files=True)


def _scan_amplitudes(seed: int) -> np.ndarray:
    """Log-uniform amplitudes in [0.5, 2]."""
    rng = np.random.default_rng([seed, 0])
    return np.exp(rng.uniform(math.log(0.5), math.log(2.0), SCAN_AMPLITUDES))


def operations(workload: str, seed: int, outdir: Path) -> list:
    """The workload's operations in the order one pass runs them."""
    if workload == "export":
        return [_file_op(f"{command}:{preset}", [command, "--preset", preset],
                         outdir / preset / command, _FILE_CHECKS[command], preset)
                for preset in sorted(PRESETS) for command in EXPORT_COMMANDS]
    if workload == "squeeze":
        argv = ["squeeze", "--preset", SQUEEZE_PRESET, f"--grid.n_t={SQUEEZE_ROWS}"]
        return [_file_op(f"squeeze:{SQUEEZE_PRESET}", argv, outdir / "squeeze",
                         _check_squeeze, SQUEEZE_PRESET)]
    if workload == "scan":
        ops = []
        for a in _scan_amplitudes(seed):
            common = ["critical", "--a", repr(float(a)), "--sigma", repr(SCAN_SIGMA)]
            ops.append(Operation(f"critical-stft:a={a:.6f}", common + ["--method", "stft"],
                                 0, _check_critical_stft, writes_files=False))
            ops.append(Operation(f"critical-sst:a={a:.6f}",
                                 common + ["--method", "sst", "--no-empirical"],
                                 0, _check_critical_sst, writes_files=False))
        return ops
    if workload == "validate":
        return [Operation("validate:full", ["validate", "--level", "full"], 1,
                          _check_validate, writes_files=False)]
    raise ValueError(f"unknown workload {workload!r}")
