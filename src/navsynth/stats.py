"""Shared statistical primitives: rank correlation, bootstrap CIs, F1, seeded RNG streams."""

from dataclasses import dataclass

import numpy as np


def rng_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic generator fully determined by (seed, index).

    Parallel workloads draw one stream per work item so serial and
    parallel runs are replayable.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def counter_uniforms(seed: int, items, draws) -> np.ndarray:
    """u(seed, item, draw) in [0, 1) (Salmon et al., SC'11): the top 53 bits of output
    `item << 32 | draw` (each below 2**32; arrays broadcast) of a splitmix64 stream seeded by
    a hash of `seed`. Array-only arithmetic: numpy scalars warn on the intended uint64 wrap."""
    counter = np.array(items, np.uint64, ndmin=1) << 32 | np.array(draws, np.uint64, ndmin=1)
    state = _splitmix64(np.array([seed], dtype=np.uint64))
    return (_splitmix64(state + (counter + 1) * np.uint64(0x9E3779B97F4A7C15)) >> 11) * 2.0 ** -53


def average_ranks(x) -> np.ndarray:
    """1-based ranks of `x`; each group of tied values gets the mean of its ranks."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    sx = x[order]
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    # a group at sorted positions [start, end) holds ranks start+1 .. end
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties.

    Raises ValueError on length mismatch, fewer than 3 points, NaN or
    infinite values, or constant input on either side.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("length mismatch: %d vs %d" % (len(xs), len(ys)))
    if len(xs) < 3:
        raise ValueError("need at least 3 pairs")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("non-finite input: rank correlation undefined")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("constant input: rank correlation undefined")
    return float(np.corrcoef(average_ranks(xs), average_ranks(ys))[0, 1])


@dataclass
class BootstrapResult:
    estimate: float
    ci_low: float
    ci_high: float


CI_LEVEL = 0.95
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_BLOCK = 1 << 15  # resample indices that `bootstrap_mean_ci` draws and gathers at once


def bootstrap_mean_ci(samples, rng: np.random.Generator | None = None) -> BootstrapResult:
    """Percentile bootstrap CI_LEVEL confidence interval for the mean."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample")
    if rng is None:
        rng = rng_stream(0)
    # resamples in blocks of BOOTSTRAP_BLOCK indices (or one resample), each drawn as its rows of
    # one (B, n) draw would be: the whole (B, n) index matrix would set the command's peak memory
    step = max(1, BOOTSTRAP_BLOCK // n)
    means = np.concatenate([samples[rng.integers(0, n, size=(len(b), n))].mean(axis=1)
                            for b in np.array_split(range(BOOTSTRAP_RESAMPLES),
                                                    range(step, BOOTSTRAP_RESAMPLES, step))])
    alpha = (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return BootstrapResult(float(samples.mean()), float(lo), float(hi))


def f1_micro_macro(predicted: np.ndarray, actual: np.ndarray) -> tuple[float, float]:
    """Micro- and macro-averaged F1 over a (items x labels) boolean decision matrix.

    Micro pools TP/FP/FN over all labels; macro averages per-label F1,
    scoring 0 for labels where F1 is undefined.
    """
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.shape != actual.shape:
        raise ValueError("shape mismatch")
    if predicted.ndim == 1:
        predicted = predicted[:, None]
        actual = actual[:, None]
    tp = (predicted & actual).sum(axis=0).astype(float)
    fp = (predicted & ~actual).sum(axis=0).astype(float)
    fn = (~predicted & actual).sum(axis=0).astype(float)

    denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2 * tp.sum() / denom) if denom > 0 else 0.0

    per_label_denom = 2 * tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        per_label = np.where(per_label_denom > 0, 2 * tp / per_label_denom, 0.0)
    macro = float(per_label.mean())
    return micro, macro
