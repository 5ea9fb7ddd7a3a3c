"""Diffusion of navigation sequences in a semantic embedding space."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graph import Interner, ParseError, _chunks, _parse, _row_texts, write_csv, write_rows
from .sessions import SequenceCorpus
from .stats import bootstrap_mean_ci

HISTOGRAM_BIN_WIDTH = 0.02
COSINE_BLOCK = 1 << 17  # vector values of each side that `cosines` gathers at once (1 MiB)


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

    def cosines(self, a, b) -> np.ndarray:
        """Cosine similarity of rows a[i] and b[i]; equals the per-pair np.dot formula bit for bit."""
        out, step = np.empty(len(a)), max(1, COSINE_BLOCK // self.dim)
        for lo in range(0, len(a), step):
            x, y = a[lo:lo + step], b[lo:lo + step]
            out[lo:lo + step] = (np.vecdot(self.vectors[x], self.vectors[y])
                                 / (self.norms[x] * self.norms[y]))
        return out


def load_embeddings(path, interner: Interner) -> EmbeddingTable:
    """Read the text format: header "N dim", then "name v1 ... v_dim" rows. The last `dim`
    space-separated fields are the vector and the rest is the name, which may hold spaces.
    The rows fill one (N, dim) array; rows past the N-th are checked and counted, not kept."""
    chunks = _row_texts(path)
    line_nos, lines = next((chunk for chunk in chunks if chunk[1]), ([1], [""]))
    header = lines[0].split() if line_nos[0] == 1 else []
    if len(header) != 2:
        raise ParseError(path, 1, "expected 'N dim' header")
    n = _parse(int, header[0], path, 1, "row count")
    dim = _parse(int, header[1], path, 1, "dimension")
    if n < 0 or dim < 1:
        raise ParseError(path, 1, "expected N >= 0 and dim >= 1, got %d %d" % (n, dim))
    try:  # pages are only reserved: the rows a file holds are the memory it takes
        vectors = np.empty((n, dim))
    except (MemoryError, ValueError):  # ValueError: more bytes than an array can address
        raise ParseError(path, 1, "no memory for %d rows of %d values" % (n, dim)) from None
    seen = {}  # the names in file order, interned at the end in one call
    for line_nos, lines in chain([(line_nos[1:], lines[1:])], chunks):
        for line_no, line in zip(line_nos, map(str.rstrip, lines)):
            if not line:
                continue
            name, *values = line.rsplit(" ", dim)
            if len(values) != dim:
                raise ParseError(path, line_no, "expected %d values, got %d" % (dim, len(values)))
            if not name:
                raise ParseError(path, line_no, "empty article name")
            if name in seen:
                raise ParseError(path, line_no, "duplicate article %r" % name)
            try:
                vector = np.array(values, dtype=float)
            except ValueError as e:
                raise ParseError(path, line_no, str(e)) from None
            if not vector.any():
                raise ParseError(path, line_no, "all-zero vector for article %r" % name)
            if not np.isfinite(vector).all():
                raise ParseError(path, line_no, "non-finite value for article %r" % name)
            if len(seen) < n:
                vectors[len(seen)] = vector
            seen[name] = None
    if len(seen) != n:
        raise ParseError(path, 1, "header declared %d rows, found %d" % (n, len(seen)))
    return EmbeddingTable(interner.intern_all([*seen]), vectors)


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def load_relatedness_pairs(path, interner: Interner) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) int64 article ids and the n float scores of "a<TAB>b<TAB>score" rows."""
    ids, scores = [], []
    for line_nos, _, fields in _chunks(path, 3):
        empty = ~fields.lengths.reshape(-1, 3)[:, :2].all(1)
        for line_no, blank, score in zip(line_nos.tolist(), empty.tolist(), fields[2::3]):
            if blank:
                raise ParseError(path, line_no, "empty article name")
            scores.append(_parse(_finite_float, score, path, line_no, "score"))
        ids.append(interner.intern_spans(*fields.take(np.arange(len(fields.starts)) % 3 < 2)))
    return np.concatenate(ids).reshape(-1, 2), np.array(scores, dtype=float)


def load_topic_labels(path, interner: Interner, emb: EmbeddingTable, num_topics: int) -> dict:
    """Article id -> topic id set of "article<TAB>t1,t2,..." rows of articles with a vector."""
    covered = set(emb.articles.tolist())
    labels: dict[int, set[int]] = {}
    for line_nos, _, fields in _chunks(path, 2):
        articles = interner.intern_spans(*fields.take(slice(0, None, 2))).tolist()
        for line_no, ids, article in zip(line_nos.tolist(), fields[1::2], articles):
            name = interner.names([article])[0]
            topics = {_parse(int, x, path, line_no, "topic") for x in ids.split(",")}
            outside = sorted(t for t in topics if not 0 <= t < num_topics)
            if outside:
                raise ParseError(path, line_no, "topic %d outside [0, %d)"
                                 % (outside[0], num_topics))
            if article in labels:
                raise ParseError(path, line_no, "duplicate article %r" % name)
            if article not in covered:
                raise ParseError(path, line_no, "article %r has no vector" % name)
            labels[article] = topics
    return labels


def save_embeddings(table: EmbeddingTable, path, interner: Interner):
    vector = " ".join(["%.6f"] * table.dim)
    # `write_rows` draws the rows lazily, so only one row's text exists at a time
    write_rows(path, ((name, vector % tuple(v.tolist()))
                      for name, v in zip(interner.names(table.articles), table.vectors)),
               "%d %d\n" % (len(table), table.dim), " ")


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
    # a sequence of n pages has a k-th page for k < n only
    longest = int(np.diff(corpus.offsets).max(initial=0))
    for k in range(1, min(k_max, longest - 1) + 1):
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


def write_curve_csv(curve: DiffusionCurve, path, header_comment: str = ""):
    write_csv(path, ["k", "mean", "ci_low", "ci_high", "n"],
              [("%d" % k, "%.10g" % m, "%.10g" % lo, "%.10g" % hi, "%d" % n)
               for k, m, lo, hi, n in zip(curve.ks, curve.means, curve.ci_low,
                                          curve.ci_high, curve.counts)], header_comment)


def write_histogram_csv(edges, fractions, path, header_comment: str = ""):
    write_csv(path, ["bin_low", "bin_high", "fraction"],
              [("%.2f" % lo, "%.2f" % hi, "%.10g" % frac)
               for lo, hi, frac in zip(edges[:-1], edges[1:], fractions)], header_comment)
