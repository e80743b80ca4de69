import csv
import json
import math

import numpy as np
import pytest

from twotone import (
    GaussianWindow,
    SqueezeConfig,
    TFGrid,
    TwoHarmonicModel,
    constructive_time,
    destructive_time,
    squeeze_transform,
)
from twotone.cli import (
    main,
    parse_config_file,
    parse_overrides,
    write_grid_csv,
    write_table_csv,
)
from twotone import squeeze
from twotone.errors import ConfigError, SolverFailureError
from twotone.presets import PRESETS


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nmodel.xi0 = 1.5\nmodel.delta=0.25\n\ngrid.n_t=64\n")
        values = parse_config_file(path)
        assert values == {"model.xi0": 1.5, "model.delta": 0.25, "grid.n_t": 64}

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model.xi0=1.0\nmodel.bogus=3\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert "model.bogus" in str(err.value)
        assert "line 2" in str(err.value)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("grid.n_t=abc\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert "line 1" in str(err.value)

    def test_override_parsing(self):
        assert parse_overrides(["--model.delta=0.4"]) == {"model.delta": 0.4}
        with pytest.raises(ConfigError):
            parse_overrides(["--definitely-not-a-key"])

    def test_presets_cover_report_parameters(self):
        combos = {(cfg["model.a"], cfg["model.delta"]) for cfg in PRESETS.values()}
        assert combos == {(1.3, 1.0), (1.3, 0.3), (1.0, 0.3), (1.0, 0.15)}
        assert all(cfg["model.sigma"] == math.sqrt(2.0) for cfg in PRESETS.values())


def reference_csv(path, rows):
    # the csv.writer exporter the line writer replaced
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


def reference_cell(v):
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    return repr(float(v))


class TestWriters:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-5, 9.999999999999998e15,
               1e16, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5]

    def check_grid(self, tmp_path, values):
        grid = TFGrid(t_min=0.0, t_max=0.7, n_t=values.shape[0],
                      eta_min=0.1, eta_max=2.3, n_eta=values.shape[1])
        write_grid_csv(tmp_path / "new.csv", grid, values, "abs_v")
        expected = [["t\\eta (abs_v)"] + [repr(float(e)) for e in grid.eta_values()]]
        expected += [[repr(float(t))] + [repr(float(v)) for v in row]
                     for t, row in zip(grid.t_values(), values)]
        assert (tmp_path / "new.csv").read_bytes() == reference_csv(tmp_path / "old.csv",
                                                                    expected)

    def test_grid_special_values(self, tmp_path):
        values = np.array(self.SPECIAL * 3).reshape(6, 6)
        values[3:] = values[3:, ::-1]
        self.check_grid(tmp_path, values)

    def test_float32_grid(self, tmp_path):
        # float32 cells widen to the exact double: 0.1f is 0.10000000149011612
        values = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-45, 1e-5, 0.1, 1 / 3,
                           -2.5, 3.4028234663852886e38, 16777217.0, 7.0],
                          dtype=np.float32).reshape(3, 4)
        self.check_grid(tmp_path, values)

    def test_table_cell_types(self, tmp_path):
        header = ["flag", "np_flag", "k", "np_k", "x", "np_x", "np_x32"]
        rows = [(True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(math.nan),
                 np.float32(0.1)),
                (False, np.bool_(True), 0, np.int64(2 ** 40), -0.0, np.float64(1e16),
                 np.float32(-math.inf)),
                (1, np.bool_(True), -1, np.int64(0), math.inf, np.float64(5e-324),
                 np.float32(1 / 3))]
        write_table_csv(tmp_path / "new.csv", header, rows)
        expected = [header] + [[reference_cell(v) for v in row] for row in rows]
        assert (tmp_path / "new.csv").read_bytes() == reference_csv(tmp_path / "old.csv",
                                                                    expected)

    def test_header_only_table(self, tmp_path):
        write_table_csv(tmp_path / "new.csv", ["t_detected"], [])
        assert (tmp_path / "new.csv").read_bytes() == b"t_detected\r\n"
        assert (tmp_path / "new.csv").read_bytes() == reference_csv(tmp_path / "old.csv",
                                                                    [["t_detected"]])


class TestCommands:
    def test_stft_outputs_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["stft", "--preset", "gap-small-a13", "--out", str(out),
                "--grid.n_t=12", "--grid.n_eta=16", "--grid.t_max=2.0"]
        code, _, _ = run(argv, capsys)
        assert code == 0
        names = ["abs_v.csv", "re_v.csv", "im_v.csv", "phase.csv",
                 "amp_weighted_phase.csv", "metadata.json"]
        blobs = {}
        for name in names:
            target = out / name
            assert target.exists()
            blobs[name] = target.read_bytes()
        meta = json.loads(blobs["metadata.json"])
        assert meta["command"] == "stft"
        assert meta["config"]["model.delta"] == 0.3
        code, _, _ = run(argv, capsys)
        assert code == 0
        for name in names:
            assert (out / name).read_bytes() == blobs[name]

    @pytest.mark.parametrize("argv", [
        ["ridges", "--preset", "gap-small-balanced", "--grid.n_t=24", "--grid.n_eta=128",
         "--grid.t_max=3.5"],
        ["zeros", "--preset", "gap-small-a13", "--grid.n_t=71", "--grid.n_eta=51",
         "--grid.t_max=4.0", "--grid.eta_min=0.6", "--grid.eta_max=1.7"],
        ["reassign", "--preset", "gap-tiny-balanced", "--grid.n_t=9", "--grid.n_eta=17",
         "--grid.t_max=2.0"],
        ["squeeze", "--preset", "gap-small-balanced", "--grid.n_t=5", "--grid.n_eta=33",
         "--grid.t_max=2.0", "--grid.eta_min=0.9", "--grid.eta_max=1.4"],
    ], ids=lambda argv: argv[0])
    def test_rerun_is_byte_identical(self, tmp_path, capsys, argv):
        out = tmp_path / argv[0]
        assert run(argv + ["--out", str(out)], capsys)[0] == 0
        blobs = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(blobs) > 1 and "metadata.json" in blobs
        assert run(argv + ["--out", str(out)], capsys)[0] == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == blobs

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code, _, err = run(["stft", "--out", str(tmp_path), "--model.bogus=1"], capsys)
        assert code == 2
        assert "model.bogus" in err

    @pytest.mark.parametrize("overrides", [
        ["--squeeze.weighting=foo"],
        ["--squeeze.reassignment_mode=foo"],
        ["--model.delta=-1"],
        ["--model.sigma=0"],
        ["--squeeze.alpha=0"],
        ["--squeeze.alpha=nan"],
        ["--grid.n_t=0"],
        ["--grid.eta_max=0.1"],
        ["--squeeze.weighting=indicator", "--squeeze.r=0.5"],
        ["--reassign.arc_thetas=0.5,x"],
        ["--model.sigma=inf"],
        ["--model.delta=inf"],
        ["--model.xi0=nan"],
        ["--model.a=inf"],
        ["--squeeze.weighting=indicator", "--squeeze.r=inf"],
        ["--squeeze.weighting=indicator", "--squeeze.r=nan"],
        ["--squeeze.alpha=inf"],
        ["--grid.t_max=inf"],
        ["--grid.eta_min=-inf"],
    ])
    def test_invalid_value_exits_2(self, tmp_path, capsys, overrides):
        code, _, err = run(["squeeze", "--preset", "gap-small-balanced", "--out", str(tmp_path)]
                           + overrides, capsys)
        assert code == 2
        assert err.startswith("configuration error:")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["reassign", "stft"])
    @pytest.mark.parametrize("override", ["--grid.t_max=inf", "--grid.eta_min=-inf"])
    def test_non_finite_grid_bound_exits_2(self, tmp_path, capsys, command, override):
        code, _, err = run([command, "--preset", "gap-small-a13", "--out", str(tmp_path),
                            override], capsys)
        assert code == 2
        assert err.startswith("configuration error:") and "finite" in err
        assert not any(tmp_path.iterdir())

    def test_numerical_failure_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                          monkeypatch):
        # the field and the constructive cross section succeed; the
        # destructive cross section fails, as the default indicator radius
        # makes it do on the presets
        original = squeeze.squeeze_cross_section

        def fail_at_destructive_time(model, window, config, t, xis):
            if t == destructive_time(model, 0):
                raise SolverFailureError("did not converge")
            return original(model, window, config, t, xis)

        monkeypatch.setattr(squeeze, "squeeze_cross_section", fail_at_destructive_time)
        out = tmp_path / "out"
        code, _, err = run(["squeeze", "--preset", "gap-small-a13", "--grid.n_t=3",
                            "--grid.n_eta=17", "--out", str(out)], capsys)
        assert code == 3
        assert err.startswith("numerical failure:")
        assert not out.exists()

    @pytest.mark.parametrize("override, bad", [
        ("--squeeze.weighting=foo", "'foo'"),
        ("--squeeze.reassignment_mode=foo", "'foo'"),
        ("--squeeze.alpha=nan", "nan"),
        ("--squeeze.r=inf", "inf"),
        ("--squeeze.r=0.5", "0.5"),
    ])
    def test_squeeze_config_error_names_the_value(self, tmp_path, capsys, override, bad):
        argv = ["squeeze", "--out", str(tmp_path), override]
        if override.startswith("--squeeze.r="):
            argv.append("--squeeze.weighting=indicator")
        code, _, err = run(argv, capsys)
        assert code == 2 and bad in err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code, _, err = run(["stft", "--preset", "nope", "--out", str(tmp_path)], capsys)
        assert code == 2

    def test_ridges_outputs(self, tmp_path, capsys):
        out = tmp_path / "ridges"
        code, _, _ = run(["ridges", "--preset", "gap-small-balanced", "--out", str(out),
                          "--grid.n_t=48", "--grid.n_eta=256", "--grid.t_max=3.5"], capsys)
        assert code == 0
        assert (out / "ridge_points.csv").exists()
        assert (out / "maxima_counts.csv").exists()
        assert (out / "bifurcation_times.csv").exists()
        ellipses = (out / "ellipses.csv").read_text().strip().splitlines()
        assert len(ellipses) >= 2  # header + at least bubble k=0

    def test_zeros_outputs(self, tmp_path, capsys):
        out = tmp_path / "zeros"
        code, _, _ = run(["zeros", "--preset", "gap-small-a13", "--out", str(out),
                          "--grid.n_t=71", "--grid.n_eta=51", "--grid.t_max=4.0",
                          "--grid.eta_min=0.6", "--grid.eta_max=1.7"], capsys)
        assert code == 0
        rows = (out / "zeros.csv").read_text().strip().splitlines()
        assert rows[0] == "t0,eta0,winding,residual"
        assert len(rows) == 2  # one zero inside t <= 4
        fields = rows[1].split(",")
        assert float(fields[0]) == pytest.approx(1 / 0.6, abs=1e-6)
        assert int(float(fields[2])) == 1

    def test_reassign_outputs(self, tmp_path, capsys):
        out = tmp_path / "reassign"
        code, _, _ = run(["reassign", "--preset", "gap-tiny-balanced", "--out", str(out),
                          "--grid.n_t=9", "--grid.n_eta=17", "--grid.t_max=2.0"], capsys)
        assert code == 0
        arcs = (out / "arc_circles.csv").read_text().strip().splitlines()
        assert len(arcs) == 4  # header + three default thetas
        audit = (out / "attraction_audit.csv").read_text().strip().splitlines()
        assert audit[0] == "t,eta,premise,bound,actual,holds"
        assert len(audit) > 1
        assert all(line.endswith(",1") for line in audit[1:])

    def test_squeeze_outputs(self, tmp_path, capsys):
        out = tmp_path / "squeeze"
        code, _, _ = run(["squeeze", "--preset", "gap-small-balanced", "--out", str(out),
                          "--grid.n_t=5", "--grid.n_eta=33", "--grid.t_max=2.0",
                          "--grid.eta_min=0.9", "--grid.eta_max=1.4"], capsys)
        assert code == 0
        for name in ("abs_s.csv", "cross_section_constructive.csv",
                     "cross_section_destructive.csv"):
            assert (out / name).exists()
        header = (out / "cross_section_constructive.csv").read_text().splitlines()[0]
        assert header == "xi,abs_quadrature,abs_density_limit,abs_erf_form"
        # one vector call per cross section agrees with per-xi scalar calls
        # to the quadrature tolerance
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.0)
        window = GaussianWindow(sigma=math.sqrt(2.0))
        config = SqueezeConfig(alpha=1e-4)
        for label, t in (("constructive", constructive_time(model, 0)),
                         ("destructive", destructive_time(model, 0))):
            rows = [[float(x) for x in line.split(",")] for line in
                    (out / f"cross_section_{label}.csv").read_text().splitlines()[1:]]
            column = np.array([row[1] for row in rows])
            scalar = np.array([abs(squeeze_transform(model, window, config, t, row[0]))
                               for row in rows])
            assert len(rows) == 33
            assert np.max(np.abs(column - scalar)) <= 1e-8 * np.max(scalar)

    def test_squeeze_erf_nan_on_segment_boundary(self, tmp_path, capsys):
        # xi = 1.375 = xi1 - delta/4 sits on an erf segment boundary at the
        # destructive time t = 1: the erf form is undefined there
        out = tmp_path / "squeeze_edge"
        code, _, _ = run(["squeeze", "--out", str(out), "--model.delta=0.5",
                          "--grid.eta_min=1.0", "--grid.eta_max=2.0", "--grid.n_eta=9",
                          "--grid.n_t=2", "--grid.t_max=1"], capsys)
        assert code == 0
        rows = {float(line.split(",")[0]): line.split(",")[3] for line in
                (out / "cross_section_destructive.csv").read_text().splitlines()[1:]}
        assert rows[1.375] == "nan"
        assert rows[1.125] != "nan"

    def test_squeeze_indicator_default_radius(self, tmp_path, capsys):
        out = tmp_path / "squeeze_ind"
        code, _, _ = run(["squeeze", "--preset", "gap-small-balanced", "--out", str(out),
                          "--squeeze.weighting=indicator",
                          "--grid.n_t=3", "--grid.n_eta=17", "--grid.t_max=2.0",
                          "--grid.eta_min=0.9", "--grid.eta_max=1.4"], capsys)
        assert code == 0
        assert (out / "abs_s.csv").exists()

    def test_squeeze_phase_mode(self, tmp_path, capsys):
        out = tmp_path / "squeeze_phase"
        code, _, _ = run(["squeeze", "--preset", "gap-small-balanced", "--out", str(out),
                          "--squeeze.reassignment_mode=phase",
                          "--grid.n_t=3", "--grid.n_eta=17", "--grid.t_max=2.0",
                          "--grid.eta_min=0.9", "--grid.eta_max=1.4"], capsys)
        assert code == 0


class TestCritical:
    def test_stft_balanced(self, capsys):
        code, out, _ = run(["critical", "--a", "1", "--sigma", repr(math.sqrt(2.0)),
                            "--method", "stft"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["delta_critical"] == pytest.approx(1 / math.pi, abs=1e-12)
        assert doc["auxiliary_root"] == {"s": 1.0}
        lo, hi = doc["empirical_bracket"]
        assert lo < 1 / math.pi < hi

    def test_stft_sigma_one(self, capsys):
        code, out, _ = run(["critical", "--a", "1", "--sigma", "1.0",
                            "--method", "stft", "--no-empirical"], capsys)
        doc = json.loads(out)
        assert doc["delta_critical"] == pytest.approx(math.sqrt(2) / math.pi, abs=1e-12)

    def test_sst_balanced(self, capsys):
        code, out, _ = run(["critical", "--a", "1", "--sigma", repr(math.sqrt(2.0)),
                            "--method", "sst", "--no-empirical"], capsys)
        doc = json.loads(out)
        assert doc["delta_critical"] == pytest.approx(0.192627, abs=2e-5)
        assert doc["auxiliary_root"]["r"] == pytest.approx(1 / 3, abs=1e-12)

    def test_sst_empirical_bracket_brackets_the_pitchfork(self, capsys):
        sigma = math.sqrt(2.0)
        code, out, _ = run(["critical", "--a", "1", "--sigma", repr(sigma),
                            "--method", "sst"], capsys)
        assert code == 0
        doc = json.loads(out)
        lo, hi = doc["empirical_bracket"]
        assert lo < hi
        # ten halvings of [0.7, 1.35] * delta_c; the slack covers the rounding
        # of 1.35 delta_c - 0.7 delta_c
        assert hi - lo <= 0.65 * doc["delta_critical"] / 2 ** 10 * (1 + 1e-9)
        # the small-kernel count flip follows the pushforward-density pitchfork
        pitchfork = math.sqrt(2.0 / 3.0) / (math.pi * sigma)
        assert abs(0.5 * (lo + hi) - pitchfork) <= 0.01 * pitchfork

    def test_sst_unresolved_fold_exits_3(self, capsys):
        code, out, err = run(["critical", "--a", "1e300", "--sigma", repr(math.sqrt(2.0)),
                              "--method", "sst", "--no-empirical"], capsys)
        assert code == 3
        assert err.startswith("numerical failure:")
        assert out == ""

    @pytest.mark.parametrize("args", [
        ["--a", "0", "--sigma", "1.0"],
        ["--a", "nan", "--sigma", "1.0"],
        ["--a", "1", "--sigma", "-1"],
        ["--a", "1", "--sigma", "inf"],
    ])
    @pytest.mark.parametrize("method", ["stft", "sst"])
    def test_invalid_parameter_exits_2(self, capsys, args, method):
        code, out, err = run(["critical", *args, "--method", method], capsys)
        assert code == 2
        assert err.startswith("configuration error:")
        assert out == ""


def test_validate_fast_passes(capsys):
    code, out, _ = run(["validate", "--level", "fast"], capsys)
    assert code == 0
    assert "6/6 criteria passed" in out
