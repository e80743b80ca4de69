import csv
import json
import math
import random
import tracemalloc
import warnings
from decimal import Decimal

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
    build_config,
    main,
    make_parser,
    parse_config_file,
    parse_overrides,
    write_grid_csv,
    write_table_csv,
)
from twotone import cli, squeeze
from twotone.errors import ConfigError, InconclusiveCountError, SolverFailureError
from twotone.gridcsv import _GRID_BLOCK_CELLS, _cell_words, _shortest_decimals, grid_lines
from twotone.presets import PRESETS


# xi0 = 10 over t in [0, 1e308]: the phase xi0 t overflows, delta t does not
HUGE_PHASE = ["--model.xi0=10", "--model.delta=0.1", "--grid.t_max=1e308", "--grid.n_t=3",
              "--grid.n_eta=3"]

# extreme values per configuration key for the exit-code sweep; t spans stay
# short, since zeros and ridges visit every destructive time in the span
SWEEP_VALUES = {
    "model.xi0": [-1e300, -1e200, -1e10, -5.0, 0.0, 1.0, 1e10, 1e200, 1e300],
    "model.delta": [1e-300, 1e-12, 1e-6, 0.01, 0.3, 3.0, 1e6, 1e150, 1e300],
    "model.a": [0.0, 5e-324, 1e-310, 1e-12, 0.5, 1.0, 1.3, 1e12, 1e300],
    "model.sigma": [1e-150, 1e-6, 0.3, math.sqrt(2.0), 10.0, 1e6, 1e150],
    "squeeze.alpha": [1e-12, 1e-6, 1e-3, 0.1, 1.0, 1e6],
    "squeeze.weighting": ["stft", "indicator"],
    "squeeze.reassignment_mode": ["sync", "phase"],
    "grid.t_min": [-3.0, 0.0, 1.0],
    "grid.t_max": [0.5, 7.0, 20.0],
}


def _inconclusive_count(*args):
    raise InconclusiveCountError("count did not stabilize")


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


def edge_doubles(rng):
    """About 300k doubles where a shortest-decimal formatter can go wrong."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    # short decimals over the whole exponent range, and as many in [1e-6, 1e6]
    digits = rng.integers(-10 ** 7, 10 ** 7, 40_000).tolist()
    powers = np.concatenate([rng.integers(-330, 302, 20_000), rng.integers(-13, 0, 20_000)])
    short = np.array([float(f"{m}e{k}") for m, k in zip(digits, powers.tolist())])
    # the switches to exponent form at decpt -4 and 17; integers and halves near
    # 2^53; quarters in [2^50, 2^51), halfway between two 17-digit decimals
    quarters = rng.integers(2 ** 50, 2 ** 51, 5_000)
    switch = np.concatenate([rng.uniform(1e-5, 2e-4, 10_000), rng.uniform(1e15, 2e17, 10_000),
                             rng.integers(0, 2 ** 54, 10_000) + 0.5,
                             quarters + 0.25, quarters + 0.75])
    centres = np.concatenate([tens, -tens, twos, -twos, short, switch,
                              [1e-4, 1e-5, 1e16, 1e-280, 1e280, 1e-300, 1e300]])
    above = np.nextafter(centres, math.inf)
    below = np.nextafter(centres, -math.inf)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    subnormal = rng.integers(1, 2 ** 52, 5_000, dtype=np.int64).view(np.float64)
    every = np.concatenate([centres, above, below, bits, subnormal, -subnormal, [-0.0, 0.0]])
    return rng.permutation(every)


class TestWriters:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-5, 9.999999999999998e15,
               1e16, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5,
               0.0, 1e-4, 9.999999999999999e-05, -1e-300, 1e300, 1e-280, 1e280,
               2.2250738585072014e-308, 2.225073858507201e-308, 2.0 ** 1023,
               0.30000000000000004, 1.2345678901234568e17]

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
        values = np.array(self.SPECIAL * 3).reshape(6, 12)
        values[3:] = values[3:, ::-1]
        self.check_grid(tmp_path, values)

    def test_grid_matches_repr_on_edge_doubles(self, tmp_path):
        values = edge_doubles(np.random.default_rng(20))
        values = values[:values.size // 250 * 250].reshape(-1, 250)
        assert values.size > 290_000
        write_grid_csv(tmp_path / "grid.csv", TFGrid(0.0, 1.0, values.shape[0], 0.0, 1.0, 250),
                       values, "x")
        lines = (tmp_path / "grid.csv").read_bytes().split(b"\r\n")[1:-1]
        cells = [line.split(b",", 1)[1] for line in lines]
        assert cells == [",".join(map(repr, row)).encode() for row in values.tolist()]

    def test_kernel_certifies_ordinary_doubles(self):
        # ordinary values take the numpy path, not repr: a kernel that certified
        # nothing would still write the right bytes. Near 1e16 the rounding
        # interval's ends are exact in the scaled units, and repr decides there.
        rng = np.random.default_rng(21)
        x = np.exp(np.concatenate([rng.uniform(math.log(1e-270), math.log(1e7), 40_000),
                                   rng.uniform(math.log(1e26), math.log(1e270), 10_000)]))
        assert _shortest_decimals(x)[3].all()

    def test_grid_matches_repr_at_every_binary_exponent(self, tmp_path):
        # one double of each frexp exponent, the subnormal and out-of-range
        # ones that repr writes included
        rng = np.random.default_rng(22)
        values = np.ldexp(rng.uniform(0.5, 1.0, 2099), np.arange(-1074, 1025))
        self.check_grid(tmp_path, np.concatenate([values, -values]).reshape(-1, 2))

    def test_exponent_table_covers_every_certified_exponent(self):
        # a random double of each frexp exponent whose doubles lie in
        # [1e-280, 1e280], the two partial binades at the ends included;
        # the decades around 1e16 go to repr by design
        e2 = np.arange(np.frexp(1e-280)[1], np.frexp(1e280)[1] + 1)
        lower = np.maximum(np.ldexp(1.0, e2 - 1), 1e-280)
        upper = np.minimum(np.ldexp(1.0, e2), 1e280)
        x = np.random.default_rng(23).uniform(lower, upper)
        assert (np.frexp(x)[1] == e2).all() and (e2[[0, -1]] == [-930, 931]).all()
        x = x[(x < 1e7) | (x > 1e26)]
        c, decpt, nd, ok = _shortest_decimals(x)
        assert ok.all()
        for v, *got in zip(x.tolist(), c.tolist(), decpt.tolist(), nd.tolist()):
            _, digits, exponent = Decimal(repr(v)).normalize().as_tuple()
            shortest = int("".join(map(str, digits)))
            assert got == [shortest * 10 ** (17 - len(digits)), len(digits) + exponent,
                           len(digits)], v

    @pytest.mark.parametrize("width", [7, 257])
    def test_block_split_keeps_the_bytes(self, tmp_path, width):
        # grids that end just before, on and after a block boundary; a grid
        # has at least two rows, so one row goes through the kernel alone
        height = _GRID_BLOCK_CELLS // (1 + width)
        rng = np.random.default_rng(24)

        def cells(rows):
            return (rng.standard_normal((rows, width))
                    * 10.0 ** rng.integers(-30, 30, (rows, width)))

        one = cells(1)
        assert (_cell_words(one).tobytes().translate(None, b"\0")
                == (",".join(map(repr, one[0].tolist())) + "\r\n").encode())
        for rows in (2, height - 1, height, height + 1, 257):
            self.check_grid(tmp_path, cells(rows))

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

    @pytest.mark.parametrize("shape", [(8, 3), (0, 4), (5, 1), (1, 2)])
    def test_float_array_table_writes_the_row_bytes(self, tmp_path, monkeypatch, shape):
        # a 2-D float64 array of rows goes through the grid kernel and writes
        # what the same rows as tuples of floats write cell by cell
        cells = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 1 / 3, 0.0, -2.5]
        rows = np.resize(np.array(cells), shape[0] * shape[1]).reshape(shape)
        header = [f"c{k}" for k in range(shape[1])]
        blocks = []
        monkeypatch.setattr(cli, "grid_lines", lambda t, values: blocks.append(t.size)
                            or grid_lines(t, values))
        write_table_csv(tmp_path / "array.csv", header, rows)
        assert blocks == [shape[0]]
        write_table_csv(tmp_path / "rows.csv", header, [tuple(row) for row in rows.tolist()])
        expected = (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "array.csv").read_bytes() == expected
        assert expected == reference_csv(tmp_path / "old.csv",
                                         [header] + [[repr(v) for v in row]
                                                     for row in rows.tolist()])

    def test_header_only_table(self, tmp_path):
        write_table_csv(tmp_path / "new.csv", ["t_detected"], [])
        assert (tmp_path / "new.csv").read_bytes() == b"t_detected\r\n"
        assert (tmp_path / "new.csv").read_bytes() == reference_csv(tmp_path / "old.csv",
                                                                    [["t_detected"]])


class TestCommands:
    def test_stft_memory_peak(self, tmp_path, capsys):
        # each grid is written as soon as it is formed: holding all five for
        # writing, the command peaked at 3.60 MiB of traced memory
        argv = ["stft", "--preset", "gap-small-a13", "--out", str(tmp_path)]
        assert run(argv, capsys)[0] == 0  # builds the kernel's tables first
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.60 * 2 ** 20

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
        ["--reassign.arc_thetas=4.0"],
        ["--reassign.arc_thetas=0.5,nan"],
        ["--model.sigma=5e153"],
        ["--model.sigma=1e200"],
        ["--model.sigma=1e-160"],
        ["--model.sigma=1e-300"],
        # finite bounds whose span t_max - t_min or eta_max - eta_min is not
        ["--grid.eta_min=-1e308", "--grid.eta_max=1e308"],
        ["--grid.t_min=-1e308", "--grid.t_max=1e308"],
    ])
    def test_invalid_value_exits_2(self, tmp_path, capsys, overrides):
        code, _, err = run(["squeeze", "--preset", "gap-small-balanced", "--out", str(tmp_path)]
                           + overrides, capsys)
        assert code == 2
        assert err.startswith("configuration error:")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("config", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / config
        if config == "directory":
            path.mkdir()
        elif config == "not_utf8":
            path.write_bytes(b"model.a=\xff\n")
        out = tmp_path / "out"
        code, stdout, err = run(["stft", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("configuration error:") and str(path) in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
    def test_uncreatable_output_directory_exits_2(self, tmp_path, capsys, sub):
        # --out names an existing file, or a directory under one
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / sub if sub else blocker
        code, stdout, err = run(["zeros", "--grid.n_t=3", "--grid.n_eta=3", "--out", str(out)],
                                capsys)
        assert code == 2
        assert err.startswith("configuration error: cannot create output directory")
        assert str(out) in err
        assert stdout == "" and blocker.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [blocker]

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
        # the destructive cross section, the first thing the command
        # computes, fails
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

    def test_node_budget_failure_exits_3_before_the_field(self, tmp_path, capsys,
                                                          monkeypatch):
        # at alpha = 1e-12 the destructive section needs more intervals than
        # the finest rule has; it is computed first, so no field row starts
        # (each took about 1 s when the field came first)
        sections = []
        original = squeeze.squeeze_cross_section

        def spy(model, window, config, t, xis):
            sections.append(t)
            return original(model, window, config, t, xis)

        monkeypatch.setattr(squeeze, "squeeze_cross_section", spy)
        out = tmp_path / "out"
        code, _, err = run(["squeeze", "--squeeze.alpha=1e-12", "--model.xi0=-5.0",
                            "--grid.t_max=0.5", "--grid.n_t=5", "--grid.n_eta=9",
                            "--out", str(out)], capsys)
        assert code == 3 and "needs more than the finest rule" in err
        assert sections == [destructive_time(TwoHarmonicModel(xi0=-5.0, delta=0.3, a=1.0), 0)]
        assert not out.exists()

    def test_nan_rule_exits_3_at_the_base_pass(self, tmp_path, capsys):
        # at a = 1.7e308 the sums overflow and the first change between two
        # rules reads nan, which no finer rule mends: the ladder stops there
        # instead of doubling 13 times, and no RuntimeWarning, an error in
        # this suite, leaves it
        out = tmp_path / "out"
        code, _, err = run(["squeeze", "--model.a=1.7e+308", "--grid.n_t=5", "--grid.n_eta=9",
                            "--out", str(out)], capsys)
        assert code == 3
        assert "did not converge in 0 doublings" in err and "last change nan" in err
        assert not out.exists()

    def test_huge_gap_reassign_exits_0_without_warnings(self, tmp_path, capsys):
        # 2 pi delta t and 2 delta overflow at delta = 1.7e308: the phase of q
        # and the attraction bound read nan, quietly
        code, _, err = run(["reassign", "--model.delta=1.7e+308", "--grid.n_t=5",
                            "--grid.n_eta=9", "--out", str(tmp_path)], capsys)
        assert code == 0 and err == ""

    def test_huge_amplitude_stft_exits_0_without_warnings(self, tmp_path, capsys):
        # |V| near 1.7e308 times a phase above 1 reads inf, quietly
        code, _, err = run(["stft", "--model.a=1.7e+308", "--model.delta=0.01", "--grid.n_t=5",
                            "--grid.n_eta=9", "--out", str(tmp_path)], capsys)
        assert code == 0 and err == ""
        assert b"inf" in (tmp_path / "amp_weighted_phase.csv").read_bytes()

    def test_far_grid_squeeze_exits_3_without_warnings(self, tmp_path, capsys):
        # xi = -1e300 squares past the float range in the kernel's exponent,
        # where the term reads 0; the destructive section then needs more
        # intervals than the finest rule has
        out = tmp_path / "out"
        code, _, err = run(["squeeze", "--grid.eta_min=-1e+300", "--grid.n_t=5",
                            "--grid.n_eta=9", "--out", str(out)], capsys)
        assert code == 3 and err.startswith("numerical failure:")
        assert not out.exists()

    def test_squeeze_takes_one_erf_call_per_time(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = squeeze.erf_closed_form

        def spy(model, window, alpha, t, xi):
            calls.append((t, np.shape(xi)))
            return original(model, window, alpha, t, xi)

        monkeypatch.setattr(squeeze, "erf_closed_form", spy)
        code, _, err = run(["squeeze", "--preset", "gap-small-a13", "--grid.n_t=3",
                            "--grid.n_eta=17", "--out", str(tmp_path)], capsys)
        assert code == 0, err
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.3)
        assert sorted(t for t, _ in calls) == [constructive_time(model, 0),
                                               destructive_time(model, 0)]
        rows = len((tmp_path / "cross_section_constructive.csv").read_bytes().splitlines()) - 1
        assert rows == 16 and all(shape == (rows,) for _, shape in calls)

    @pytest.mark.parametrize("command", ["stft", "ridges"])
    def test_overflowing_phase_exits_3_without_warnings(self, tmp_path, capsys, command):
        # xi0 t overflows at t = 1e10; a RuntimeWarning, an error in this
        # suite, would escape main instead
        out = tmp_path / "out"
        code, _, err = run([command, "--out", str(out), *HUGE_PHASE], capsys)
        assert code == 3
        assert err == "numerical failure: non-finite entries in STFT field\n"
        assert not out.exists()

    def test_overflowing_phase_squeezes_to_zero_without_warnings(self, tmp_path, capsys):
        code, _, err = run(["squeeze", "--out", str(tmp_path), *HUGE_PHASE], capsys)
        assert code == 0, err
        with (tmp_path / "abs_s.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 3 and all(cell == "0.0" for row in rows for cell in row[1:])

    @pytest.mark.parametrize("override, bad", [
        ("--squeeze.weighting=foo", "'foo'"),
        ("--squeeze.reassignment_mode=foo", "'foo'"),
        ("--squeeze.alpha=nan", "nan"),
        ("--squeeze.r=inf", "inf"),
        ("--squeeze.r=0.5", "0.5"),
        # R must be positive and finite under the default weighting too
        ("--squeeze.weighting=stft --squeeze.r=inf", "inf"),
        ("--squeeze.weighting=stft --squeeze.r=nan", "nan"),
        ("--squeeze.weighting=stft --squeeze.r=-1", "-1"),
        # the (0, pi) rule is arc_circle's, reported through its DomainError
        ("--reassign.arc_thetas=4.0", "4.0"),
        ("--reassign.arc_thetas=0.5,nan", "nan"),
    ])
    def test_squeeze_config_error_names_the_value(self, tmp_path, capsys, override, bad):
        argv = ["squeeze", "--out", str(tmp_path), *override.split()]
        if override.startswith("--squeeze.r="):
            argv.append("--squeeze.weighting=indicator")
        code, _, err = run(argv, capsys)
        assert code == 2 and bad in err

    @pytest.mark.parametrize("command", ["stft", "ridges", "zeros", "reassign", "squeeze"])
    def test_zero_width_band_exits_2(self, tmp_path, capsys, command):
        # xi0 + delta rounds to xi0 = 1e300: the model has no second tone, and
        # squeeze with indicator weighting divided by the band's zero width
        code, _, err = run([command, "--out", str(tmp_path), "--model.xi0=1e300",
                            "--squeeze.weighting=indicator", "--grid.n_t=5", "--grid.n_eta=9"],
                           capsys)
        assert code == 2
        assert err.startswith("configuration error: xi1 = xi0 + delta must be finite")
        assert not any(tmp_path.iterdir())

    def test_huge_gap_ridges_exits_0(self, tmp_path, capsys):
        # the ellipse test's C delta^2 overflows at delta = 1e300; it reads
        # inf, so the balanced model writes no bubble rows
        code, _, err = run(["ridges", "--out", str(tmp_path), "--model.delta=1e300",
                            "--grid.n_t=5", "--grid.n_eta=9"], capsys)
        assert code == 0 and err == ""
        assert (tmp_path / "ellipses.csv").read_bytes() == (
            b"k,center_t,center_eta,semi_axis_t,semi_axis_eta\r\n")

    @pytest.mark.parametrize("command, overrides, expected", [
        # the default indicator radius squared distances near 1e200
        ("stft", ["--model.xi0=1e200", "--model.delta=1e190",
                  "--squeeze.weighting=indicator"], 0),
        # C delta x overflows in the squeeze nodes before the ladder gives up
        ("squeeze", ["--model.delta=1e300"], 3),
        # C delta itself overflows: the squeeze nodes refuse it
        ("squeeze", ["--model.delta=1e300", "--model.sigma=1e6"], 3),
        # C delta overflows and eta = xibar is on the attraction audit grid
        ("reassign", ["--model.delta=1e150", "--model.sigma=1e150"], 0),
    ])
    def test_overflow_runs_without_warnings(self, tmp_path, capsys, command, overrides,
                                            expected):
        # a RuntimeWarning is an error in this suite
        code, _, err = run([command, "--out", str(tmp_path), "--grid.n_t=5", "--grid.n_eta=9",
                            *overrides], capsys)
        assert code == expected, err

    def test_extreme_configuration_sweep(self, tmp_path, capsys):
        # seeded configurations of the five field commands, each with one to
        # four keys at extreme values: the exit code is one the README
        # documents, no exception or warning leaves main, and a configuration
        # error writes nothing
        rng = random.Random(27)
        codes = set()
        for case in range(400):
            command = rng.choice(["stft", "ridges", "zeros", "reassign", "squeeze"])
            keys = rng.sample(sorted(SWEEP_VALUES), rng.randint(1, 4))
            out = tmp_path / str(case)
            argv = [command, "--grid.n_t=5", "--grid.n_eta=9", "--out", str(out)]
            argv += [f"--{key}={rng.choice(SWEEP_VALUES[key])}" for key in keys]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except Exception as exc:  # any escape fails the sweep, naming its argv
                    pytest.fail(f"{argv} raised {exc!r}")
            capsys.readouterr()
            assert code in (0, 2, 3), argv
            assert not caught, (argv, [str(w.message) for w in caught])
            if code == 2:
                assert not out.exists(), argv
            codes.add(code)
        assert codes == {0, 2, 3}

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

    def test_reassign_grid_above_the_premise_writes_an_empty_audit(self, tmp_path, capsys):
        # every audited eta lies in [xibar, 200], where a e^{C delta (eta - xibar)}
        # either exceeds 1/2 or overflows a float: no row applies
        out = tmp_path / "reassign"
        code, _, _ = run(["reassign", "--out", str(out), "--grid.eta_min=200",
                          "--grid.eta_max=300", "--grid.n_t=5", "--grid.n_eta=9"], capsys)
        assert code == 0
        audit = (out / "attraction_audit.csv").read_bytes()
        assert audit == b"t,eta,premise,bound,actual,holds\r\n"

    def test_reassign_audit_above_xibar_writes_only_rows_that_hold(self, tmp_path, capsys):
        # the audit runs from eta_min = 2.5 down to xibar = 1.15; for a = 1e-6 the
        # premise w = a e^{C delta (eta - xibar)} <= 1/2 holds up to eta ~ 3.4, but
        # w bounds |eta_s - xi0| only at eta <= xibar, so only the xibar rows apply
        out = tmp_path / "reassign"
        code, _, _ = run(["reassign", "--model.a=1e-6", "--grid.eta_min=2.5",
                          "--grid.eta_max=3", "--grid.n_t=3", "--grid.n_eta=3",
                          "--out", str(out)], capsys)
        assert code == 0
        audit = (out / "attraction_audit.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in audit[1:]]
        assert len(rows) == 13
        assert all(float(row[1]) <= 1.15 and row[5] == "1" for row in rows)

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

    @pytest.mark.parametrize("override", ["--squeeze.r=1e6", "--squeeze.alpha=0.5"])
    def test_squeeze_density_limit_nan_where_it_does_not_apply(self, tmp_path, capsys,
                                                                override):
        # R = 1e6 grows too fast for alpha = 1e-4 near xi0 and xi1; at
        # alpha = 0.5 the radius the CLI chose itself grows too fast at most xi
        argv = ["squeeze", "--preset", "gap-small-a13", "--out", str(tmp_path),
                "--squeeze.weighting=indicator", override,
                "--grid.n_t=3", "--grid.n_eta=17"]
        code, _, err = run(argv, capsys)
        assert code == 0, err
        config = build_config(*make_parser().parse_known_args(argv))
        model, window, sq = config.model, config.window, config.squeeze
        too_fast = 0
        for label, t in (("constructive", constructive_time(model, 0)),
                         ("destructive", destructive_time(model, 0))):
            lines = (tmp_path / f"cross_section_{label}.csv").read_text().splitlines()[1:]
            xis = np.array([float(line.split(",")[0]) for line in lines])
            written = np.array([line.split(",")[2] == "nan" for line in lines])
            c = np.minimum((xis - model.xi0) ** 2, (xis - model.xi1) ** 2)
            expected = (sq.R > 1.0 / sq.alpha) & ((c <= 0) | (math.log(sq.R) > c / (2 * sq.alpha)))
            limits = squeeze.asym_indicator(model, window, sq.alpha, sq.R, t, xis)
            assert np.array_equal(written, expected)
            assert np.array_equal(np.isnan(limits), expected)
            too_fast += int(expected.sum())
        assert too_fast > 0

    def test_squeeze_indicator_default_radius(self, tmp_path, capsys):
        out = tmp_path / "squeeze_ind"
        code, _, _ = run(["squeeze", "--preset", "gap-small-balanced", "--out", str(out),
                          "--squeeze.weighting=indicator",
                          "--grid.n_t=3", "--grid.n_eta=17", "--grid.t_max=2.0",
                          "--grid.eta_min=0.9", "--grid.eta_max=1.4"], capsys)
        assert code == 0
        assert (out / "abs_s.csv").exists()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_squeeze_indicator_default_radius_on_presets(self, tmp_path, capsys, preset):
        # the default R is 368 or 1e4; only the band around [xi0, xi1] is refined
        code, _, err = run(["squeeze", "--preset", preset, "--out", str(tmp_path),
                            "--squeeze.weighting=indicator", "--grid.n_t=5",
                            "--grid.n_eta=33"], capsys)
        assert code == 0, err

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

    def test_stft_tiny_amplitude(self, capsys):
        code, out, _ = run(["critical", "--a", "1e-305", "--sigma", repr(math.sqrt(2.0)),
                            "--method", "stft", "--no-empirical"], capsys)
        assert code == 0
        assert 0.0 < json.loads(out)["delta_critical"] < math.inf

    def test_stft_smallest_sigma_keeps_its_bracket(self, capsys):
        # (10/(pi sigma))^2 is still finite at 3e-154, so the window is
        # accepted and the band the empirical count samples stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(["critical", "--a", "1", "--sigma", "3e-154",
                                "--method", "stft"], capsys)
        assert code == 0
        assert json.loads(out)["empirical_bracket"] is not None

    def test_reused_parser_leaks_no_flag(self, capsys):
        # main builds its parser once per process; a flag given to one call
        # must not carry over into the next
        argv = ["critical", "--a", "1.3", "--sigma", "1.0", "--method", "stft"]
        make_parser.cache_clear()
        fresh = run(argv, capsys)
        make_parser.cache_clear()
        assert run(argv + ["--no-empirical"], capsys)[0] == 0
        parser = make_parser()
        assert run(argv, capsys) == fresh
        assert make_parser() is parser
        assert fresh[0] == 0 and json.loads(fresh[1])["empirical_bracket"] is not None

    @pytest.mark.parametrize("count", [lambda *args: 1, _inconclusive_count],
                             ids=["no-flip", "inconclusive"])
    @pytest.mark.parametrize("method", ["stft", "sst"])
    def test_failed_count_gives_null_bracket(self, capsys, monkeypatch, count, method):
        monkeypatch.setattr(squeeze, "constructive_maxima", count)
        code, out, _ = run(["critical", "--a", "1", "--sigma", repr(math.sqrt(2.0)),
                            "--method", method], capsys)
        assert code == 0
        assert '"empirical_bracket": null' in out

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
        ["--a", "1", "--sigma", "5e153"],
        ["--a", "1", "--sigma", "1e200"],
        ["--a", "1", "--sigma", "1e-160"],
        ["--a", "1", "--sigma", "1e-300"],
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
