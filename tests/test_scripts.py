import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_critical_gap_scan(tmp_path):
    out = tmp_path / "gaps.csv"
    proc = run_script("critical_gap_scan.py", "--n", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["a", "delta_critical_stft", "s_root", "delta_critical_sst",
                             "r_root", "xi_c_offset", "ratio_sst_over_stft"]
    assert [float(row["a"]) for row in rows] == sorted(float(row["a"]) for row in rows)
    assert {0.4, 1.0, 2.5} <= {round(float(row["a"]), 12) for row in rows}
    assert f"wrote {out}" in proc.stdout


def test_export_figure_data(tmp_path):
    proc = run_script("export_figure_data.py", "--coarse", "--preset", "gap-small-balanced",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    expected = {
        "stft": ["abs_v.csv", "re_v.csv", "im_v.csv", "phase.csv", "amp_weighted_phase.csv"],
        "ridges": ["ridge_points.csv", "maxima_counts.csv", "bifurcation_times.csv",
                   "ellipses.csv"],
        "zeros": ["zeros.csv"],
        "reassign": ["eta_s_re.csv", "eta_s_im.csv", "arc_circles.csv",
                     "attraction_audit.csv"],
        "squeeze": ["abs_s.csv", "cross_section_constructive.csv",
                    "cross_section_destructive.csv"],
    }
    for command, names in expected.items():
        folder = tmp_path / "gap-small-balanced" / command
        assert sorted(p.name for p in folder.iterdir()) == sorted(names + ["metadata.json"])
    # --coarse grids are 49 x 65: a header line plus one line per time
    assert len((tmp_path / "gap-small-balanced" / "stft" / "abs_v.csv")
               .read_text().splitlines()) == 50
