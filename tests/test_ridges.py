import math

import numpy as np
import pytest

from twotone import (
    GaussianWindow,
    TFGrid,
    TwoHarmonicModel,
    bifurcation_times,
    bubble_ellipse,
    count_frequency_maxima,
    critical_gap_stft,
    destructive_extrema,
    ellipse_residual,
    extract_ridges,
    stft_closed_form,
    stft_field,
)
from twotone.errors import (
    DegenerateAmplitudeError,
    HypothesisViolationError,
    InconclusiveCountError,
    ModelValidationError,
    NoBifurcationError,
)
from twotone import ridges
from twotone.gabor import _v_terms
from twotone.presets import PRESETS
from twotone.ridges import _candidate_peaks, _refined_maxima, default_band, golden_max


class TestCounting:
    def test_above_critical(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        for k in (0, 1, 3):
            assert count_frequency_maxima(model, window, k / model.delta) == 2

    def test_below_critical_constructive(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.2, a=1.0)
        assert count_frequency_maxima(model, window, 0.0) == 1

    def test_below_critical_destructive(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.2, a=1.0)
        assert count_frequency_maxima(model, window, 0.5 / model.delta) == 2

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_raises(self, window, model_balanced, t):
        with pytest.raises(ModelValidationError, match=f"t must be finite, got {t!r}"):
            count_frequency_maxima(model_balanced, window, t)

    def test_huge_finite_time_counts(self, window, model_balanced):
        assert count_frequency_maxima(model_balanced, window, 1e300) in (1, 2)

    def test_each_resolution_counted_once(self, window, model_balanced, monkeypatch):
        # a count that grows with the grid never stabilizes; each of n, 2n,
        # ..., 16n is sampled and counted exactly once before the error
        sizes = []

        def fake_refined_maxima(f, grid, values):
            sizes.append(len(grid))
            return [0.0] * (len(grid) // 512)

        monkeypatch.setattr(ridges, "_refined_maxima", fake_refined_maxima)
        with pytest.raises(InconclusiveCountError, match="up to n = 8192 samples"):
            count_frequency_maxima(model_balanced, window, 0.0)
        assert sizes == [513, 1025, 2049, 4097, 8193]

    @pytest.mark.parametrize("stable, evaluated", [
        (True, [1025]),
        (False, [1025, 1024, 2048, 4096]),
    ])
    def test_doublings_evaluate_only_new_midpoints(self, window, model_balanced, monkeypatch,
                                                   stable, evaluated):
        # |V| is evaluated once on the first level's whole grid of 2n + 1
        # samples, the base level counting on its even entries; each further
        # doubling keeps the samples it has and evaluates only its new
        # midpoints, and every level still counts on the whole linspace grid
        band = default_band(model_balanced, window)
        sizes, grids = [], []
        v_terms = ridges._v_terms

        def spy_v_terms(model, window, t, eta):
            sizes.append(np.size(eta))
            return v_terms(model, window, t, eta)

        def fake_refined_maxima(f, grid, values):
            grids.append(grid)
            return [0.0] * (1 if stable else len(grid) // 512)

        monkeypatch.setattr(ridges, "_v_terms", spy_v_terms)
        monkeypatch.setattr(ridges, "_refined_maxima", fake_refined_maxima)
        if stable:
            assert count_frequency_maxima(model_balanced, window, 0.0) == 1
        else:
            with pytest.raises(InconclusiveCountError):
                count_frequency_maxima(model_balanced, window, 0.0)
        assert sizes == evaluated
        for grid in grids:
            assert np.array_equal(grid, np.linspace(band[0], band[1], len(grid)))

    @pytest.mark.parametrize("sigma", [0.7, math.sqrt(2.0), 2.5])
    @pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 1.3, 40.0])
    def test_samples_match_closed_form(self, monkeypatch, a, sigma):
        # the counted samples are |stft_closed_form| bit for bit on the
        # constructive slice t = 0, and within 4 ulp elsewhere
        window = GaussianWindow(sigma=sigma)
        model = TwoHarmonicModel(xi0=1.0, delta=critical_gap_stft(a, window)[0], a=a)
        levels = []

        def fake_refined_maxima(f, grid, values):
            levels.append((grid, values))
            return [0.0] * (len(grid) // 512)

        monkeypatch.setattr(ridges, "_refined_maxima", fake_refined_maxima)
        for t in (0.0, 0.4, 5.0 / 3.0):
            levels.clear()
            with pytest.raises(InconclusiveCountError):
                count_frequency_maxima(model, window, t)
            assert [len(grid) for grid, _ in levels] == [513, 1025, 2049, 4097, 8193]
            for grid, values in levels:
                ref = np.abs(stft_closed_form(model, window, t, grid))
                if t == 0.0:
                    assert np.array_equal(values, ref)
                else:
                    assert np.all(np.abs(values - ref) <= 4 * np.spacing(ref))

    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_golden_refinement_matches_two_call_count(self, window, monkeypatch, t):
        # with every pair of brackets within _MERGE_TOL each candidate is
        # golden-refined, and golden_max hands the modulus a scalar eta
        monkeypatch.setattr(ridges, "_MERGE_TOL", 1.0)
        golden_calls = []

        def spy_golden_max(f, lo, hi):
            golden_calls.append((lo, hi))
            return golden_max(f, lo, hi)

        monkeypatch.setattr(ridges, "golden_max", spy_golden_max)
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.3)
        ref_levels, ref_count = _two_call_levels(model, window, t, 512)
        golden_calls.clear()
        levels, count = _one_call_levels(monkeypatch, model, window, t, 512)
        assert golden_calls
        assert count == ref_count == 1
        _assert_same_levels(levels, ref_levels)

    @pytest.mark.parametrize("sigma", [0.7, math.sqrt(2.0), 2.5])
    @pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 1.3, 40.0])
    def test_matches_two_call_count(self, monkeypatch, a, sigma):
        # one call on the first level's whole grid gives the samples, maxima
        # and count of the even samples and midpoints evaluated apart
        window = GaussianWindow(sigma=sigma)
        delta_crit = critical_gap_stft(a, window)[0]
        for scale in (0.9, 1.0, 1.1):
            model = TwoHarmonicModel(xi0=1.0, delta=scale * delta_crit, a=a)
            for t in (0.0, 0.4, 5.0 / 3.0):
                ref_levels, ref_count = _two_call_levels(model, window, t, 512)
                levels, count = _one_call_levels(monkeypatch, model, window, t, 512)
                assert count == ref_count
                _assert_same_levels(levels, ref_levels)

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_matches_two_call_count_past_first_doubling(self, window, monkeypatch, a):
        # just above the critical gap the flat top splits only on the finer
        # grid, so the count needs a second doubling with its lazy midpoints
        model = TwoHarmonicModel(xi0=1.0, delta=1.00001 * critical_gap_stft(a, window)[0], a=a)
        ref_levels, ref_count = _two_call_levels(model, window, 0.0, 512)
        levels, count = _one_call_levels(monkeypatch, model, window, 0.0, 512)
        assert [len(grid) for grid, _, _ in levels] == [513, 1025, 2049]
        assert count == ref_count == 2
        _assert_same_levels(levels, ref_levels)

    def test_underflowing_imaginary_part_matches_two_call_count(self, window, monkeypatch):
        # at a = 1e-310 and half a period, c = a e^{2 pi i delta t} reads
        # (-1e-310 + 0j): real but negative, so g0 + c g1 < 0 where g0 has
        # underflowed, and the far maximum of |V| = a g1 must still count
        model = TwoHarmonicModel(xi0=1.0, delta=30.0, a=1e-310)
        t = 0.5 / model.delta
        ref_levels, ref_count = _two_call_levels(model, window, t, 512)
        levels, count = _one_call_levels(monkeypatch, model, window, t, 512)
        assert count == ref_count == 2
        _assert_same_levels(levels, ref_levels)

    def test_period_sweep_above_critical(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        for t in np.linspace(0.0, 1.0 / model.delta, 17):
            assert count_frequency_maxima(model, window, float(t)) == 2

    def test_period_sweep_above_critical_unbalanced(self, window):
        delta_crit, _ = critical_gap_stft(2.0, window)
        model = TwoHarmonicModel(xi0=1.0, delta=1.05 * delta_crit, a=2.0)
        for t in np.linspace(0.0, 1.0 / model.delta, 13):
            assert count_frequency_maxima(model, window, float(t), n_samples=1024) == 2

    def test_subcritical_pattern(self, window, model_balanced):
        t_l, t_r = bifurcation_times(model_balanced, window, 0)
        period = 1.0 / model_balanced.delta
        margin = 0.01 * period
        for t in np.linspace(-t_l + margin, t_l - margin, 5):
            assert count_frequency_maxima(model_balanced, window, float(t)) == 1
        for t in np.linspace(t_l + margin, t_r - margin, 5):
            assert count_frequency_maxima(model_balanced, window, float(t)) == 2


def _two_call_levels(model, window, t, n_samples):
    """The count as count_frequency_maxima ran it before its first level
    became one call of |V|: the n + 1 even samples, then the n midpoints in a
    second call, both copied into a third array. Returns the counted levels as
    (grid, values, maxima) and the count, or None where it does not
    stabilize: the reference the one-call count must reproduce."""
    band = default_band(model, window)

    def modulus(eta):
        _, rot1, g0, g1 = _v_terms(model, window, t, eta)
        c = model.a * rot1
        return np.abs(g0 + (c.real if c.imag == 0.0 else c) * g1)

    levels = []

    def count(grid, vals):
        maxima = _refined_maxima(lambda e: float(modulus(e)), grid, vals)
        levels.append((grid, vals, maxima))
        return len(maxima)

    n = n_samples
    grid = np.linspace(band[0], band[1], 2 * n + 1)
    vals = modulus(grid[::2])
    count_n = count(grid[::2], vals)
    for _ in range(4):
        finer = np.empty(2 * n + 1)
        finer[::2] = vals
        finer[1::2] = modulus(grid[1::2])
        vals, count_2n = finer, count(grid, finer)
        if count_2n == count_n:
            return levels, count_n
        count_n, n = count_2n, 2 * n
        grid = np.linspace(band[0], band[1], 2 * n + 1)
    return levels, None


def _one_call_levels(monkeypatch, model, window, t, n_samples):
    """count_frequency_maxima's counted levels and count, as _two_call_levels
    returns them."""
    levels = []

    def spy_refined_maxima(f, grid, values):
        maxima = _refined_maxima(f, grid, values)
        levels.append((grid, values, maxima))
        return maxima

    monkeypatch.setattr(ridges, "_refined_maxima", spy_refined_maxima)
    try:
        count = count_frequency_maxima(model, window, t, n_samples=n_samples)
    except InconclusiveCountError:
        count = None
    return levels, count


def _assert_same_levels(levels, ref_levels):
    assert len(levels) == len(ref_levels)
    for (grid, values, maxima), (ref_grid, ref_values, ref_maxima) in zip(levels, ref_levels):
        assert grid.tobytes() == ref_grid.tobytes()
        assert values.tobytes() == ref_values.tobytes()
        assert maxima == ref_maxima


def _loop_candidate_peaks(v):
    """The plateau-aware peak scan as one pass over the samples: the
    reference the array version must reproduce."""
    n = len(v)
    peaks = []
    i = 1
    while i < n - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < n and v[j + 1] == v[i]:
                j += 1
            if j < n - 1 and v[j + 1] < v[i]:
                peaks.append((i, j))
            i = j + 1
        else:
            i += 1
    return peaks


def _peaks(v):
    """_candidate_peaks of a 1-D array as a list of (left, right) pairs."""
    left, right = _candidate_peaks(np.asarray(v, dtype=float))
    assert left.dtype.kind == right.dtype.kind == "i"
    return list(zip(left.tolist(), right.tolist()))


def _loop_extract_ridges(grid, values):
    """extract_ridges as one pass per column over the reference peak loop:
    the reference the whole-array version must reproduce."""
    ts = grid.t_values()
    etas = grid.eta_values()
    step = grid.eta_step
    power = np.abs(values)
    np.ldexp(power, -np.frexp(power.max())[1], out=power)
    power *= power
    points = []
    counts = []
    for i, t in enumerate(ts):
        row = power[i]
        col_count = 0
        for left, right in _loop_candidate_peaks(row):
            col_count += 1
            if left == right:
                j = left
                denom = row[j - 1] - 2 * row[j] + row[j + 1]
                off = 0.0 if denom == 0 else 0.5 * (row[j - 1] - row[j + 1]) / denom
                off = float(np.clip(off, -0.5, 0.5))
                eta_ref = etas[j] + off * step
            else:
                eta_ref = 0.5 * (etas[left] + etas[right])
            points.append((t, eta_ref))
        counts.append((float(t), col_count))
    bifurcations = []
    for (t0, c0), (t1, c1) in zip(counts[:-1], counts[1:]):
        if c0 != c1:
            bifurcations.append(0.5 * (t0 + t1))
    return (np.asarray(points, dtype=float).reshape(-1, 2), tuple(counts), tuple(bifurcations))


def _assert_matches_loop(grid, values):
    report = extract_ridges(grid, values)
    points, counts, bifurcations = _loop_extract_ridges(grid, values)
    assert report.points.shape == points.shape
    assert np.array_equal(report.points, points, equal_nan=True)
    assert report.maxima_count_per_t == counts
    assert all(type(t) is float and type(c) is int for t, c in report.maxima_count_per_t)
    assert report.bifurcation_times == bifurcations
    assert all(type(t) is float for t in report.bifurcation_times)


def _count_refining_every_candidate(model, window, t, n_samples):
    """count_frequency_maxima with every candidate golden-refined before the
    merge; None where the counts never stabilise."""
    band = default_band(model, window)

    def modulus(eta):
        return np.abs(stft_closed_form(model, window, t, np.asarray(eta, dtype=float)))

    def count_at(n):
        grid = np.linspace(band[0], band[1], n + 1)
        xs = sorted(golden_max(lambda e: float(modulus(e)), grid[left - 1], grid[right + 1])
                    for left, right in _loop_candidate_peaks(modulus(grid)))
        merged = []
        for x in xs:
            if merged and abs(x - merged[-1]) < 1e-8:
                merged[-1] = 0.5 * (merged[-1] + x)
            else:
                merged.append(x)
        return len(merged)

    n = n_samples
    for _ in range(4):
        c1, c2 = count_at(n), count_at(2 * n)
        if c1 == c2:
            return c1
        n *= 2
    return None


class TestCandidatePeaks:
    def test_matches_reference_loop(self, window):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            v = rng.choice([0.0, 1.0, 2.0, 3.0], size=int(rng.integers(0, 41)))
            u = rng.random(v.size)
            v[u < 0.1] = np.nan
            v[(u >= 0.1) & (u < 0.2)] = -0.0
            assert _peaks(v) == _loop_candidate_peaks(v)
        inf, nan = math.inf, math.nan
        for v in ([], [1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                  [2.0, 2.0, 2.0], [2.0] * 9, [0.0, inf, 0.0], [0.0, inf, inf, 0.0],
                  [-inf, 0.0, -inf], [inf, 1.0, inf], [-inf, inf, -inf, inf],
                  [0.0, 1.0, 1.0, nan], [nan, 1.0, 1.0, 0.0], [0.0, nan, 1.0, 1.0, 0.0],
                  [0.0, 1.0, 1.0, nan, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0]):
            assert _peaks(v) == _loop_candidate_peaks(np.array(v)), v
        for _ in range(500):
            v = rng.choice([-inf, 0.0, 1.0, 2.0, inf, nan], size=int(rng.integers(0, 21)))
            assert _peaks(v) == _loop_candidate_peaks(v)
        # one full-resolution |V| row at the critical gap (4096-sample count, doubled)
        delta_crit, _ = critical_gap_stft(1.0, window)
        model = TwoHarmonicModel(xi0=1.0, delta=delta_crit, a=1.0)
        row = np.abs(stft_closed_form(model, window, 0.0,
                                      np.linspace(*default_band(model, window), 8193)))
        assert _peaks(row) == _loop_candidate_peaks(row)

    def test_rows_match_reference_loop(self):
        # the 2-D search is the 1-D one on each row: a run never continues
        # past a row's end, even when the next row starts at the same value
        rng = np.random.default_rng(8)
        inf, nan = math.inf, math.nan
        for _ in range(300):
            shape = (int(rng.integers(0, 6)), int(rng.integers(0, 12)))
            v = rng.choice([-inf, 0.0, 1.0, 2.0, 2.0, inf, nan], size=shape)
            rows, left, right = _candidate_peaks(v)
            assert rows.dtype.kind == left.dtype.kind == right.dtype.kind == "i"
            want = [(i, l, r) for i in range(shape[0]) for l, r in _loop_candidate_peaks(v[i])]
            assert list(zip(rows.tolist(), left.tolist(), right.tolist())) == want
        v = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [2.0, 0.0, 0.0]])
        assert all(a.size == 0 for a in _candidate_peaks(v))
        assert [a.tolist() for a in _candidate_peaks(v.reshape(2, 6))] == [[0, 1], [1, 1], [4, 3]]


class TestRefinedMaxima:
    @pytest.mark.parametrize("gap, expected", [(1, 1), (2, 2)])
    def test_merge_needs_refinement(self, gap, expected):
        # two plateaus `gap` samples apart; f peaks at grid[3], the right end
        # of the first bracket, so with gap 1 (shared bracket end) both
        # refined maxima converge on it and merge
        values = np.array([0.0, 1.0, 1.0] + [0.0] * gap + [1.0, 1.0, 0.0, 0.0])
        grid = np.arange(values.size, dtype=float)
        maxima = _refined_maxima(lambda x: -(x - 3.0) ** 2, grid, values)
        assert len(maxima) == expected
        if expected == 1:
            assert maxima[0] == pytest.approx(3.0, abs=1e-9)

    def test_merge_across_a_fine_grid(self):
        # brackets [0, 8e-9] and [1.2e-8, 2e-8] (offsets from 1) lie 4e-9
        # apart, within the 1e-8 merge distance, though their midpoints do
        # not; f peaks between them, so the refined maxima meet and merge
        values = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        grid = 1.0 + 4e-9 * np.arange(values.size)
        maxima = _refined_maxima(lambda x: -abs(x - (1.0 + 1e-8)), grid, values)
        assert len(maxima) == 1

    def test_near_critical_sweep_matches_refining_all(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = math.exp(rng.uniform(-1.5, 1.5))
            window = GaussianWindow(sigma=rng.uniform(0.5, 3.0))
            delta_crit, _ = critical_gap_stft(a, window)
            model = TwoHarmonicModel(xi0=1.0, delta=delta_crit * rng.uniform(0.97, 1.03), a=a)
            t = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 1.0 / model.delta)
            n = int(rng.choice([512, 1024]))
            ref = _count_refining_every_candidate(model, window, t, n)
            if ref is None:
                with pytest.raises(InconclusiveCountError):
                    count_frequency_maxima(model, window, t, n_samples=n)
            else:
                assert count_frequency_maxima(model, window, t, n_samples=n) == ref


class TestCriticalGap:
    def test_balanced(self, window):
        delta_crit, s = critical_gap_stft(1.0, window)
        assert s == 1.0
        assert delta_crit == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_a2(self, window):
        delta_crit, s = critical_gap_stft(2.0, window)
        assert 0.20 < s < 0.22
        assert delta_crit == pytest.approx(0.418, abs=0.01)
        # counting straddles the returned gap
        for factor, expected in ((0.98, 1), (1.02, 2)):
            model = TwoHarmonicModel(xi0=1.0, delta=factor * delta_crit, a=2.0)
            assert count_frequency_maxima(model, window, 0.0, n_samples=2048) == expected

    def test_root_residual(self, window):
        _, s = critical_gap_stft(2.0, window)
        assert abs(math.log(s / 2.0) - 0.5 * (s - 1.0 / s)) < 1e-12

    def test_inversion_symmetry(self, window):
        # x - sinh x = ln a is odd in x, so s(1/a) = 1/s(a), down to a = 1e-305
        for a in (0.5, 2.0, 1e-300, 1e-305):
            d1, s1 = critical_gap_stft(a, window)
            d2, s2 = critical_gap_stft(1.0 / a, window)
            assert s2 == pytest.approx(1.0 / s1, rel=1e-9)
            assert d2 == pytest.approx(d1, rel=1e-12)

    def test_smallest_amplitude(self, window):
        # 5e-324 is the smallest positive double: ln a = -744.4
        delta_crit, s = critical_gap_stft(5e-324, window)
        assert 0.0 < delta_crit < math.inf and 1.0 < s < math.inf

    @pytest.mark.parametrize("a", [1 - 1e-12, 1 + 1e-12, 1 - 1e-10, 1 + 1e-10])
    def test_near_balanced_root(self, window, a):
        # x - sinh x = -x^3/6 (1 + x^2/20 + ...), so ln s = -cbrt(6 ln a) up
        # to a relative x^2/60, below 1.2e-8 here
        _, s = critical_gap_stft(a, window)
        leading = float(np.cbrt(6.0 * math.log(a)))
        assert abs(math.log(s) + leading) <= 1e-6 * abs(leading)


class TestBifurcations:
    def test_formula_value(self, window, model_balanced):
        t_l, t_r = bifurcation_times(model_balanced, window, 0)
        expected = math.acos(window.C * 0.09 - 1.0) / (2 * math.pi * 0.3)
        assert t_l == pytest.approx(expected, rel=1e-14)
        assert t_l == pytest.approx(0.36163, abs=2e-4)

    def test_counts_flip_near_bifurcation(self, window, model_balanced):
        t_l, _ = bifurcation_times(model_balanced, window, 0)
        assert count_frequency_maxima(model_balanced, window, t_l - 0.02, n_samples=2048) == 1
        assert count_frequency_maxima(model_balanced, window, t_l + 0.02, n_samples=2048) == 2

    def test_touching_at_critical_gap(self, window):
        delta = math.sqrt(2.0) / (math.pi * window.sigma)
        model = TwoHarmonicModel(xi0=1.0, delta=delta, a=1.0)
        t_l, t_r = bifurcation_times(model, window, 2)
        assert t_l == pytest.approx(2.0 / delta, rel=1e-12)
        assert t_r == pytest.approx(3.0 / delta, rel=1e-12)

    def test_symmetry_about_destructive_time(self, window, model_balanced):
        for k in (0, 1, 4):
            t_l, t_r = bifurcation_times(model_balanced, window, k)
            assert t_l + t_r == pytest.approx((2 * k + 1) / model_balanced.delta, rel=1e-12)

    def test_hypothesis_and_domain_errors(self, window, model_a13):
        with pytest.raises(HypothesisViolationError):
            bifurcation_times(model_a13, window, 0)
        wide = TwoHarmonicModel(xi0=1.0, delta=0.5, a=1.0)
        with pytest.raises(NoBifurcationError):
            bifurcation_times(wide, window, 0)
        with pytest.raises(NoBifurcationError):
            bubble_ellipse(wide, window, 0)


class TestBubble:
    def test_parameters(self, window, model_balanced):
        ell = bubble_ellipse(model_balanced, window, 0)
        assert ell.center_t == pytest.approx(1 / 0.6, rel=1e-14)
        assert ell.center_eta == pytest.approx(1.15, rel=1e-14)
        assert ell.semi_axis_eta == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
        # the frequency half-width does not depend on the gap
        other = bubble_ellipse(TwoHarmonicModel(1.0, 0.2, 1.0), window, 0)
        assert other.semi_axis_eta == ell.semi_axis_eta

    def test_small_gap_time_axis_limit(self, window):
        ell = bubble_ellipse(TwoHarmonicModel(1.0, 0.02, 1.0), window, 0)
        assert abs(ell.semi_axis_t - window.sigma / math.sqrt(2.0)) <= 1e-3

    def test_residual_properties(self, window):
        res = {d: ellipse_residual(TwoHarmonicModel(1.0, d, 1.0), window, 0)
               for d in (0.2, 0.1, 0.05)}
        assert all(v >= 0 for v in res.values())
        # explicit cap with 50% headroom at delta = 0.1
        cap = 12 * 0.1 ** 2 * (1 + math.pi * window.sigma ** 2) * 1.5
        assert res[0.1] <= cap
        # decay per gap halving: at least quadratic-rate; in fact the quadratic
        # coefficient cancels on the bubble, so the observed decay is ~quartic
        assert 3.2 <= res[0.2] / res[0.1] <= 17.0
        assert 3.2 <= res[0.1] / res[0.05] <= 17.0

    def test_residual_quadrature_converged(self, window, model_balanced, monkeypatch):
        r1 = ellipse_residual(model_balanced, window, 0)
        monkeypatch.setattr(ridges, "_ARC_STEPS", 4096)
        r2 = ellipse_residual(model_balanced, window, 0)
        assert r1 == pytest.approx(r2, rel=1e-6)


class TestDestructiveExtrema:
    def test_balanced_center(self, window, model_balanced):
        eta_avg, eta_minus, eta_plus = destructive_extrema(model_balanced, window, 0)
        assert eta_avg == model_balanced.xibar
        assert eta_minus < model_balanced.xi0 < model_balanced.xi1 < eta_plus
        # balanced slice is symmetric about the center
        # golden search resolves a flat maximum to ~sqrt(eps) only
        assert eta_plus - eta_avg == pytest.approx(eta_avg - eta_minus, abs=1e-6)

    def test_unbalanced_zero_location(self, window, model_a13):
        eta_avg, eta_minus, eta_plus = destructive_extrema(model_a13, window, 0)
        assert eta_avg == pytest.approx(1.127847, abs=1e-6)
        t = 0.5 / model_a13.delta
        assert abs(stft_closed_form(model_a13, window, t, eta_avg)) < 1e-10
        assert eta_minus < model_a13.xi0 and eta_plus > model_a13.xi1

    def test_straddle_at_small_gap(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.2, a=1.0)
        eta_avg, eta_minus, eta_plus = destructive_extrema(model, window, 0)
        assert eta_minus < model.xi0 < model.xi1 < eta_plus

    def test_requires_positive_amplitude(self, window):
        with pytest.raises(DegenerateAmplitudeError):
            destructive_extrema(TwoHarmonicModel(1.0, 0.3, 0.0), window, 0)

    def test_zero_outside_component_band(self):
        # strongly unbalanced amplitudes push the slice zero below xi0
        from twotone import GaussianWindow

        window = GaussianWindow(sigma=0.98)
        model = TwoHarmonicModel(xi0=0.2, delta=0.126, a=2.16)
        eta_avg, eta_minus, eta_plus = destructive_extrema(model, window, 0)
        assert eta_avg < model.xi0
        assert eta_minus < eta_avg
        assert eta_plus > model.xi1

    def test_wide_gap_flanks_hug_components(self):
        # flank distances are ~e^{-C delta^2}, far below float resolution here
        from twotone import GaussianWindow

        window = GaussianWindow(sigma=2.0)
        model = TwoHarmonicModel(xi0=1.0, delta=0.85, a=0.7)
        eta_avg, eta_minus, eta_plus = destructive_extrema(model, window, 0)
        assert eta_minus == pytest.approx(model.xi0, abs=1e-6)
        assert eta_plus == pytest.approx(model.xi1, abs=1e-6)

    def test_zero_is_unique_on_slice(self, window, model_a13):
        eta_avg, _, _ = destructive_extrema(model_a13, window, 0)
        t = 0.5 / model_a13.delta
        etas = np.linspace(model_a13.xi0 - 0.6, model_a13.xi1 + 0.6, 20001)
        etas = etas[np.abs(etas - eta_avg) > 1e-6]
        vals = np.abs(stft_closed_form(model_a13, window, t, etas))
        assert float(vals.min()) > 0.0


class TestExtractRidges:
    def test_well_separated_curves(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=1.0, a=1.0)
        grid = TFGrid(0.0, 2.0, 64, model.xi0 - 0.7, model.xi1 + 0.7, 256)
        report = extract_ridges(grid, stft_field(model, window, grid))
        assert all(c == 2 for _, c in report.maxima_count_per_t)
        pts = report.points
        near0 = pts[np.abs(pts[:, 1] - model.xi0) < 0.05]
        near1 = pts[np.abs(pts[:, 1] - model.xi1) < 0.05]
        assert len(near0) == 64 and len(near1) == 64

    def test_single_component(self, window):
        model = TwoHarmonicModel(xi0=1.0, delta=0.5, a=0.0)
        grid = TFGrid(0.0, 1.0, 16, 0.3, 1.8, 256)
        report = extract_ridges(grid, stft_field(model, window, grid))
        assert all(c == 1 for _, c in report.maxima_count_per_t)
        assert float(np.max(np.abs(report.points[:, 1] - model.xi0))) < 1e-4

    def test_detected_bifurcations_match_formula(self, window, model_balanced):
        pad = 3.0 / (math.pi * window.sigma)
        grid = TFGrid(0.0, 3.5, 256, model_balanced.xi0 - pad, model_balanced.xi1 + pad, 512)
        report = extract_ridges(grid, stft_field(model_balanced, window, grid))
        t_l, t_r = bifurcation_times(model_balanced, window, 0)
        assert len(report.bifurcation_times) == 2
        for detected, predicted in zip(report.bifurcation_times, (t_l, t_r)):
            assert abs(detected - predicted) <= 2 * grid.t_step

    def test_report_is_invariant_to_exact_scaling(self, window):
        # at a = 1e300 the squares of |V| near the ridges overflow unless |V|
        # is scaled first; 2^-800 scales the field exactly
        model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1e300)
        grid = TFGrid(0.0, 7.0, 33, 0.2, 2.4, 129)
        field = stft_field(model, window, grid)
        report, ref = extract_ridges(grid, field), extract_ridges(grid, field * 2.0 ** -800)
        assert np.array_equal(report.points, ref.points)
        assert report.maxima_count_per_t == ref.maxima_count_per_t
        assert report.bifurcation_times == ref.bifurcation_times
        assert all(c == 1 for _, c in report.maxima_count_per_t)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_column_loop_on_presets(self, preset):
        cfg = PRESETS[preset]
        model = TwoHarmonicModel(xi0=cfg["model.xi0"], delta=cfg["model.delta"], a=cfg["model.a"])
        window = GaussianWindow(sigma=cfg["model.sigma"])
        grid = TFGrid(cfg["grid.t_min"], cfg["grid.t_max"], cfg["grid.n_t"],
                      cfg["grid.eta_min"], cfg["grid.eta_max"], cfg["grid.n_eta"])
        values = stft_field(model, window, grid)
        _assert_matches_loop(grid, values)
        # quantised to 32 levels of |V|, the ridges become plateaus
        _assert_matches_loop(grid, np.round(32 * np.abs(values)))

    def test_matches_column_loop_on_plateaus(self):
        # flat tops inside a row, reaching its last sample, spanning it,
        # single-sample peaks with a zero second difference, and NaN samples
        grid = TFGrid(0.0, 1.0, 9, -1.0, 1.0, 7)
        rows = [[0, 1, 2, 2, 2, 2, 2], [0, 1, 1, 0, 2, 2, 1], [2, 2, 2, 2, 2, 2, 2],
                [0, 2, 0, 1, 3, 3, 3], [1, 0, 1, 0, 1, 0, 1], [0, 1, 0, 0, 0, 1, 1],
                [0, 1, 1, 1, 1, 1, 0], [0, 3, 1, 3, 0, 3, 3], [0, 1, math.nan, 2, 1, 2, 0]]
        _assert_matches_loop(grid, np.array(rows, dtype=float))
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_t, n_eta = (int(k) for k in rng.integers(2, 14, size=2))
            grid = TFGrid(0.0, 1.0, n_t, 0.0, 1.0, n_eta)
            _assert_matches_loop(grid, rng.integers(0, 4, size=(n_t, n_eta)).astype(float))

    def test_balanced_symmetry(self, window, model_balanced):
        grid = TFGrid(0.0, 3.4, 48, 0.4, 1.9, 400)
        report = extract_ridges(grid, stft_field(model_balanced, window, grid))
        center = model_balanced.xibar
        for t, eta in report.points:
            mirrored = 2 * center - eta
            match = report.points[(np.abs(report.points[:, 0] - t) < 1e-12)
                                  & (np.abs(report.points[:, 1] - mirrored) < 2 * grid.eta_step)]
            assert len(match) >= 1
