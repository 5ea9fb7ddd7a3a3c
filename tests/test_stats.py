import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsynth.stats import (BOOTSTRAP_RESAMPLES, CI_LEVEL, average_ranks, bootstrap_mean_ci,
                            counter_uniforms, f1_micro_macro, rng_stream, spearman)


def avg_ranks(v):
    # independent average ranks for ties
    order = sorted(range(len(v)), key=lambda i: v[i])
    ranks = [0.0] * len(v)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
            j += 1
        r = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = r
        i = j + 1
    return ranks


def naive_spearman(xs, ys):
    # independent rank-then-Pearson with average ranks for ties
    rx, ry = avg_ranks(list(xs)), avg_ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


class TestSpearman:
    def test_identity(self):
        xs = [1.0, 5.0, 3.0, 2.0]
        assert spearman(xs, xs) == pytest.approx(1.0)

    def test_reversed(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, xs[::-1]) == pytest.approx(-1.0)

    def test_ties_match_oracle(self):
        rng = rng_stream(42)
        for _ in range(20):
            xs = rng.integers(0, 6, size=15).astype(float)
            ys = rng.integers(0, 6, size=15).astype(float)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            assert spearman(xs, ys) == pytest.approx(naive_spearman(xs, ys), abs=1e-12)

    def test_monotone_invariance(self):
        rng = rng_stream(7)
        xs = rng.random(20)
        ys = rng.random(20)
        base = spearman(xs, ys)
        assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
        assert spearman(xs, ys ** 3 + 5) == pytest.approx(base, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_rejected(self, bad, side):
        clean = [1.0, 2.0, 3.0, 4.0, 5.0]
        dirty = [1.0, bad, 3.0, 4.0, 2.0]
        xs, ys = (dirty, clean) if side == "x" else (clean, dirty)
        with pytest.raises(ValueError, match="non-finite input"):
            spearman(xs, ys)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-5, 5).map(float), min_size=1, max_size=200))
def test_average_ranks_match_oracle(values):
    assert average_ranks(values).tolist() == avg_ranks(values)


class TestBootstrap:
    def test_constant_samples(self):
        res = bootstrap_mean_ci([3.0] * 10, rng=rng_stream(0))
        assert res.ci_low == res.ci_high == res.estimate == 3.0

    def test_deterministic_under_seed(self):
        samples = rng_stream(1).normal(size=100)
        a = bootstrap_mean_ci(samples, rng=rng_stream(2))
        b = bootstrap_mean_ci(samples, rng=rng_stream(2))
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_ci_contains_sample_mean(self):
        samples = rng_stream(3).normal(size=80)
        res = bootstrap_mean_ci(samples, rng=rng_stream(4))
        assert res.ci_low <= res.estimate <= res.ci_high

    def test_width_shrinks_with_n(self):
        widths = []
        for n in (50, 500, 5000):
            samples = rng_stream(5).normal(size=n)
            res = bootstrap_mean_ci(samples, rng=rng_stream(6))
            widths.append(res.ci_high - res.ci_low)
        assert widths[0] > widths[1] > widths[2]

    def test_empty_error(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([])

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 999, 1000, 1001, 4099])
    def test_equals_whole_matrix_means(self, n):
        # the CI from one (B, n) index draw and its gather, against 16 block draws
        rng = rng_stream(7, n)
        samples = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        idx = rng_stream(8, n).integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
        alpha = (1.0 - CI_LEVEL) / 2.0
        lo, hi = np.quantile(samples[idx].mean(axis=1), [alpha, 1.0 - alpha])
        res = bootstrap_mean_ci(samples, rng=rng_stream(8, n))
        assert (res.estimate, res.ci_low, res.ci_high) == (samples.mean(), lo, hi)


def oracle_f1(pred, actual):
    # straight confusion-matrix tally
    n, labels = pred.shape
    tps = fps = fns = 0
    per_label = []
    for j in range(labels):
        tp = fp = fn = 0
        for i in range(n):
            if pred[i, j] and actual[i, j]:
                tp += 1
            elif pred[i, j] and not actual[i, j]:
                fp += 1
            elif not pred[i, j] and actual[i, j]:
                fn += 1
        tps, fps, fns = tps + tp, fps + fp, fns + fn
        per_label.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    micro = 2 * tps / (2 * tps + fps + fns) if (2 * tps + fps + fns) else 0.0
    return micro, sum(per_label) / labels


class TestF1:
    def test_perfect(self):
        y = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
        assert f1_micro_macro(y, y) == (1.0, 1.0)

    def test_half_macro(self):
        actual = np.array([[1, 1], [1, 1]], dtype=bool)
        pred = np.array([[1, 0], [1, 0]], dtype=bool)  # label 0 perfect, label 1 all wrong
        micro, macro = f1_micro_macro(pred, actual)
        assert macro == pytest.approx(0.5)

    def test_matches_oracle(self):
        rng = rng_stream(11)
        for _ in range(30):
            shape = (int(rng.integers(2, 12)), int(rng.integers(1, 8)))
            pred = rng.random(shape) < 0.4
            actual = rng.random(shape) < 0.4
            assert f1_micro_macro(pred, actual) == pytest.approx(oracle_f1(pred, actual))

    def test_micro_equals_macro_on_identical_labels(self):
        rng = rng_stream(12)
        col_pred = rng.random(30) < 0.5
        col_actual = rng.random(30) < 0.5
        pred = np.tile(col_pred[:, None], (1, 4))
        actual = np.tile(col_actual[:, None], (1, 4))
        micro, macro = f1_micro_macro(pred, actual)
        assert micro == pytest.approx(macro)


def test_rng_stream_determinism():
    assert rng_stream(1, 2).random() == rng_stream(1, 2).random()
    assert rng_stream(1, 2).random() != rng_stream(1, 3).random()


class TestCounterUniforms:
    def test_range_and_uniformity(self):
        from scipy.stats import chisquare
        u = counter_uniforms(3, np.arange(4000)[:, None], np.arange(16)[None, :]).ravel()
        assert u.min() >= 0.0 and u.max() < 1.0
        bins = np.bincount((u * 64).astype(np.int64), minlength=64)
        assert len(bins) == 64
        assert chisquare(bins).pvalue > 0.001

    def test_no_repeats_across_neighbouring_cells(self):
        cells = counter_uniforms(5, np.arange(300)[:, None], np.arange(300)[None, :])
        assert len(np.unique(cells)) == cells.size
        assert not np.isin(cells, counter_uniforms(6, np.arange(300)[:, None],
                                                   np.arange(300)[None, :])).any()

    def test_pure_function_of_seed_item_draw(self):
        grid = counter_uniforms(7, np.arange(50)[:, None], np.arange(40)[None, :])
        assert grid[13, 29] == counter_uniforms(7, 13, 29)[0]
        assert np.array_equal(grid[13], counter_uniforms(7, 13, np.arange(40)))
        assert counter_uniforms(7, 2**32 - 1, 2**32 - 1)[0] < 1.0
