"""Diffusion of navigation sequences in a semantic embedding space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Interner, ParseError, _parse, open_text, write_csv
from .sessions import SequenceCorpus
from .stats import BootstrapResult, bootstrap_mean_ci

HISTOGRAM_BIN_WIDTH = 0.02


class EmbeddingTable:
    """Dense vector per covered article; articles outside coverage have no vector."""

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, int] = {}
        self._vectors: list[np.ndarray] = []

    def add(self, article: int, vector: np.ndarray):
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dim,):
            raise ValueError("vector dimension %d, expected %d" % (len(vector), self.dim))
        if not np.any(vector):
            raise ValueError("all-zero vector for article %d" % article)
        if article in self._rows:
            raise ValueError("duplicate article %d" % article)
        self._rows[article] = len(self._vectors)
        self._vectors.append(vector)

    def __contains__(self, article: int) -> bool:
        return article in self._rows

    def __len__(self):
        return len(self._vectors)

    def vector(self, article: int) -> np.ndarray:
        return self._vectors[self._rows[article]]

    @property
    def articles(self) -> list[int]:
        return list(self._rows)

    def scale(self, factor: float) -> "EmbeddingTable":
        out = EmbeddingTable(self.dim)
        for a in self._rows:
            out.add(a, self.vector(a) * factor)
        return out


def load_embeddings(path, interner: Interner) -> EmbeddingTable:
    """Read the text format: header "N dim", then "name v1 ... v_dim" rows."""
    with open_text(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ParseError(path, 1, "expected 'N dim' header")
        n = _parse(int, header[0], path, 1, "row count")
        dim = _parse(int, header[1], path, 1, "dimension")
        table = EmbeddingTable(dim)
        for line_no, line in enumerate(f, 2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ParseError(path, line_no,
                                 "expected %d values, got %d" % (dim, len(parts) - 1))
            article = interner.intern(parts[0])
            if article in table:
                raise ParseError(path, line_no, "duplicate article %r" % parts[0])
            try:
                vector = np.array(parts[1:], dtype=float)
            except ValueError as e:
                raise ParseError(path, line_no, str(e)) from None
            table.add(article, vector)
    if len(table) != n:
        raise ParseError(path, 1, "header declared %d rows, found %d" % (n, len(table)))
    return table


def save_embeddings(table: EmbeddingTable, path, interner: Interner):
    row = "%s" + " %.6f" * table.dim + "\n"
    with open_text(path, "wt") as f:
        f.write("%d %d\n" % (len(table), table.dim))
        f.writelines(row % (interner.name(a), *table.vector(a).tolist())
                     for a in table.articles)


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
    vals = []
    for seq in corpus.sequences:
        if len(seq) <= k:
            continue
        first, later = seq[0], seq[k]
        if first in emb and later in emb:
            vals.append(cosine_distance(emb.vector(first), emb.vector(later)))
    return np.array(vals)


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


def diffusion_histogram(corpus: SequenceCorpus, emb: EmbeddingTable, k: int,
                        bin_width: float = HISTOGRAM_BIN_WIDTH):
    """Normalized histogram of k-step cosine distances over fixed bins on [0, 2].

    Returns (bin_edges, fractions) with len(fractions) = len(bin_edges) - 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vals = _distances_at_k(corpus, emb, k)
    edges = np.arange(0.0, 2.0 + bin_width / 2, bin_width)
    if len(vals) == 0:
        return edges, np.zeros(len(edges) - 1)
    hist, _ = np.histogram(vals, bins=edges)
    return edges, hist / hist.sum()


def random_pair_baseline(emb: EmbeddingTable, num_pairs: int,
                         rng: np.random.Generator) -> BootstrapResult:
    """Mean cosine distance between uniformly drawn distinct article pairs."""
    articles = emb.articles
    if len(articles) < 2:
        raise ValueError("need at least 2 embedded articles")
    vals = []
    for _ in range(num_pairs):
        i, j = rng.choice(len(articles), size=2, replace=False)
        vals.append(cosine_distance(emb.vector(articles[i]), emb.vector(articles[j])))
    return bootstrap_mean_ci(vals, rng=rng)


def write_curve_csv(curve: DiffusionCurve, path, header_comment: str = ""):
    write_csv(path, ["k", "mean", "ci_low", "ci_high", "n"],
              [("%d" % k, "%.10g" % m, "%.10g" % lo, "%.10g" % hi, "%d" % n)
               for k, m, lo, hi, n in zip(curve.ks, curve.means, curve.ci_low,
                                          curve.ci_high, curve.counts)], header_comment)


def write_histogram_csv(edges, fractions, path, header_comment: str = ""):
    write_csv(path, ["bin_low", "bin_high", "fraction"],
              [("%.2f" % lo, "%.2f" % hi, "%.10g" % frac)
               for lo, hi, frac in zip(edges[:-1], edges[1:], fractions)], header_comment)
