#!/usr/bin/env python3
"""Scan the amplitude ratio and report both critical gaps.

Writes a CSV with the plain-transform and squeeze critical gaps per amplitude
ratio, plus the auxiliary roots, and prints a small table. The squeeze column
is the double root of the erf form: a bisection finds where the one-variable
curve of its critical points folds. The balanced row is the exact closed
form.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from twotone import GaussianWindow, critical_gap_sst, critical_gap_stft
from twotone.cli import write_table_csv
from twotone.errors import SolverFailureError


def scan(sigma: float, ratios) -> list[dict]:
    window = GaussianWindow(sigma=sigma)
    rows = []
    for a in ratios:
        d_stft, s = critical_gap_stft(a, window)
        try:
            d_sst, r, xi_c = critical_gap_sst(a, window)
        except SolverFailureError as exc:
            print(f"a={a}: squeeze solver failed ({exc})", file=sys.stderr)
            d_sst = r = xi_c = float("nan")
        rows.append({
            "a": a,
            "delta_critical_stft": d_stft,
            "s_root": s,
            "delta_critical_sst": d_sst,
            "r_root": r,
            "xi_c_offset": xi_c,
            "ratio_sst_over_stft": d_sst / d_stft,
        })
    return rows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma", type=float, default=math.sqrt(2.0))
    parser.add_argument("--a-min", type=float, default=0.4)
    parser.add_argument("--a-max", type=float, default=2.5)
    parser.add_argument("--n", type=int, default=13)
    parser.add_argument("--out", default="critical_gaps.csv")
    args = parser.parse_args()

    ratios = sorted(set(np.geomspace(args.a_min, args.a_max, args.n)) | {1.0})
    rows = scan(args.sigma, ratios)
    write_table_csv(Path(args.out), list(rows[0]), [row.values() for row in rows])
    print(f"{'a':>8}  {'gap (plain)':>12}  {'gap (squeeze)':>13}  {'ratio':>7}")
    for row in rows:
        print(f"{row['a']:8.4f}  {row['delta_critical_stft']:12.6f}  "
              f"{row['delta_critical_sst']:13.6f}  {row['ratio_sst_over_stft']:7.4f}")
    print(f"wrote {args.out}")
