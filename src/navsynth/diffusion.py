"""Diffusion of navigation sequences in a semantic embedding space."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Interner, ParseError, _parse, open_text, write_csv
from .sessions import SequenceCorpus
from .stats import BootstrapResult, bootstrap_mean_ci

HISTOGRAM_BIN_WIDTH = 0.02


@dataclass(eq=False)
class EmbeddingTable:
    """Row i of `vectors` embeds article `articles[i]`; other articles have no vector."""

    articles: np.ndarray
    vectors: np.ndarray
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.articles = np.asarray(self.articles, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[:1] != self.articles.shape:
            raise ValueError("vectors of shape %s for articles of shape %s"
                             % (self.vectors.shape, self.articles.shape))
        ordered = np.sort(self.articles)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise ValueError("duplicate article %d" % repeated[0])
        zero = self.articles[~self.vectors.any(axis=1)]
        if len(zero):
            raise ValueError("all-zero vector for article %d" % zero[0])
        self.norms = np.sqrt(np.vecdot(self.vectors, self.vectors))

    def __len__(self):
        return len(self.articles)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def rows(self, articles) -> np.ndarray:
        """Row of each article in `vectors`; -1 for an article without a vector."""
        order = np.argsort(self.articles)
        lo = np.searchsorted(self.articles, articles, "left", order)
        hi = np.searchsorted(self.articles, articles, "right", order)
        return np.where(hi > lo, np.append(order, -1)[lo], -1)

    def vector(self, article: int) -> np.ndarray:
        row = self.rows(article)
        if row < 0:
            raise KeyError(article)
        return self.vectors[row]

    def cosines(self, a, b) -> np.ndarray:
        """Cosine similarity of rows a[i] and b[i]; equals the per-pair np.dot formula bit for bit."""
        return np.vecdot(self.vectors[a], self.vectors[b]) / (self.norms[a] * self.norms[b])


def load_embeddings(path, interner: Interner) -> EmbeddingTable:
    """Read the text format: header "N dim", then "name v1 ... v_dim" rows."""
    vectors: dict[int, np.ndarray] = {}
    with open_text(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ParseError(path, 1, "expected 'N dim' header")
        n = _parse(int, header[0], path, 1, "row count")
        dim = _parse(int, header[1], path, 1, "dimension")
        for line_no, line in enumerate(f, 2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ParseError(path, line_no,
                                 "expected %d values, got %d" % (dim, len(parts) - 1))
            article = interner.intern(parts[0])
            if article in vectors:
                raise ParseError(path, line_no, "duplicate article %r" % parts[0])
            try:
                vector = np.array(parts[1:], dtype=float)
            except ValueError as e:
                raise ParseError(path, line_no, str(e)) from None
            if not vector.any():
                raise ParseError(path, line_no, "all-zero vector for article %r" % parts[0])
            if not np.isfinite(vector).all():
                raise ParseError(path, line_no, "non-finite value for article %r" % parts[0])
            vectors[article] = vector
    if len(vectors) != n:
        raise ParseError(path, 1, "header declared %d rows, found %d" % (n, len(vectors)))
    return EmbeddingTable(list(vectors), np.array(list(vectors.values())).reshape(n, dim))


def save_embeddings(table: EmbeddingTable, path, interner: Interner):
    row = "%s" + " %.6f" * table.dim + "\n"
    with open_text(path, "wt") as f:
        f.write("%d %d\n" % (len(table), table.dim))
        # one row at a time: a whole-matrix tolist() would raise the peak RSS
        f.writelines(row % (interner.name(a), *v.tolist())
                     for a, v in zip(table.articles.tolist(), table.vectors))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine distance undefined for zero vectors")
    return float(1.0 - np.dot(a, b) / (na * nb))


@dataclass
class DiffusionCurve:
    ks: list[int]
    means: list[float]
    ci_low: list[float]
    ci_high: list[float]
    counts: list[int]


def _distances_at_k(corpus: SequenceCorpus, emb: EmbeddingTable, k: int) -> np.ndarray:
    """Cosine distance from first to k-th page of each sequence where both have a vector."""
    starts = corpus.offsets[:-1][np.diff(corpus.offsets) > k]
    first, later = emb.rows([corpus.pages[starts], corpus.pages[starts + k]])
    covered = (first >= 0) & (later >= 0)
    return 1.0 - emb.cosines(first[covered], later[covered])


def diffusion_curve(corpus: SequenceCorpus, emb: EmbeddingTable, k_max: int,
                    rng: np.random.Generator | None = None) -> DiffusionCurve:
    """Mean cosine distance between a sequence's first and k-th article.

    Sequences too short, or with either endpoint missing from the embedding,
    are skipped for that k only. Each mean carries a percentile-bootstrap
    95% CI over the contributing sequences; k values with no eligible
    sequence are omitted.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    curve = DiffusionCurve([], [], [], [], [])
    for k in range(1, k_max + 1):
        vals = _distances_at_k(corpus, emb, k)
        if len(vals) == 0:
            continue
        res = bootstrap_mean_ci(vals, rng=rng)
        curve.ks.append(k)
        curve.means.append(res.estimate)
        curve.ci_low.append(res.ci_low)
        curve.ci_high.append(res.ci_high)
        curve.counts.append(len(vals))
    return curve


def diffusion_histogram(corpus: SequenceCorpus, emb: EmbeddingTable, k: int):
    """Normalized histogram of k-step cosine distances over fixed bins on [0, 2].

    Returns (bin_edges, fractions) with len(fractions) = len(bin_edges) - 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vals = _distances_at_k(corpus, emb, k)
    edges = np.arange(0.0, 2.0 + HISTOGRAM_BIN_WIDTH / 2, HISTOGRAM_BIN_WIDTH)
    if len(vals) == 0:
        return edges, np.zeros(len(edges) - 1)
    hist, _ = np.histogram(vals, bins=edges)
    return edges, hist / hist.sum()


def random_pair_baseline(emb: EmbeddingTable, num_pairs: int,
                         rng: np.random.Generator) -> BootstrapResult:
    """Mean cosine distance between uniformly drawn distinct article pairs."""
    if len(emb) < 2:
        raise ValueError("need at least 2 embedded articles")
    first = rng.integers(0, len(emb), size=num_pairs)
    second = rng.integers(0, len(emb) - 1, size=num_pairs)
    second += second >= first
    return bootstrap_mean_ci(1.0 - emb.cosines(first, second), rng=rng)


def write_curve_csv(curve: DiffusionCurve, path, header_comment: str = ""):
    write_csv(path, ["k", "mean", "ci_low", "ci_high", "n"],
              [("%d" % k, "%.10g" % m, "%.10g" % lo, "%.10g" % hi, "%d" % n)
               for k, m, lo, hi, n in zip(curve.ks, curve.means, curve.ci_low,
                                          curve.ci_high, curve.counts)], header_comment)


def write_histogram_csv(edges, fractions, path, header_comment: str = ""):
    write_csv(path, ["bin_low", "bin_high", "fraction"],
              [("%.2f" % lo, "%.2f" % hi, "%.10g" % frac)
               for lo, hi, frac in zip(edges[:-1], edges[1:], fractions)], header_comment)
