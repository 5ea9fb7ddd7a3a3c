"""Diffusion of navigation sequences in a semantic embedding space."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Interner, ParseError, _chunks, _parse, write_csv, write_rows
from .sessions import SequenceCorpus
from .stats import bootstrap_mean_ci

HISTOGRAM_BIN_WIDTH = 0.02
COSINE_BLOCK = 1 << 17  # vector values of each side that `cosines` gathers at once (1 MiB)
FORMAT_BLOCK = 1 << 14  # vector values that `save_embeddings` formats at once
NAME_BLOCK = 1 << 12  # names that `load_embeddings` interns at once


@dataclass(eq=False)
class EmbeddingTable:
    """Row i of `vectors` embeds article `articles[i]`; other articles have no vector."""

    articles: np.ndarray
    vectors: np.ndarray
    norms: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)  # the argsort of `articles`

    def __post_init__(self):
        self.articles = np.asarray(self.articles, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[:1] != self.articles.shape:
            raise ValueError("vectors of shape %s for articles of shape %s"
                             % (self.vectors.shape, self.articles.shape))
        self.order = np.argsort(self.articles)
        ordered = self.articles[self.order]
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
        lo = np.searchsorted(self.articles, articles, "left", self.order)
        hi = np.searchsorted(self.articles, articles, "right", self.order)
        return np.where(hi > lo, np.append(self.order, -1)[lo], -1)

    def cosines(self, a, b) -> np.ndarray:
        """Cosine similarity of rows a[i] and b[i]; equals the per-pair np.dot formula bit for bit."""
        out, step = np.empty(len(a)), max(1, COSINE_BLOCK // self.dim)
        for lo in range(0, len(a), step):
            x, y = a[lo:lo + step], b[lo:lo + step]
            out[lo:lo + step] = (np.vecdot(self.vectors[x], self.vectors[y])
                                 / (self.norms[x] * self.norms[y]))
        return out


def _fixed_point(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each little-endian 8-byte word reads "d.dddddd", and the value it reads where it
    does. The seven digits become one integer by three multiply-shift steps on the word
    (Lemire, "Number parsing at a gigabyte per second", 2021); it and 1e6 are exact below
    2**53, so their one IEEE division is `float(text)` bit for bit (Clinger 1990)."""
    ok = (words >> 8 & 0xFF) == ord(".")
    words = words & 0xFFFFFFFFFFFF0000 | (words & 0xFF) << 8 | 0x30  # "0d", then six digits
    ok &= (words & 0xF0F0F0F0F0F0F0F0 | (words + 0x0606060606060606 & 0xF0F0F0F0F0F0F0F0) >> 4
           ) == 0x3333333333333333  # eight bytes "0" to "9"
    words = words - 0x3030303030303030
    words = words * 10 + (words >> 8)  # each pair of digits, then all eight at once
    words = ((words & 0x000000FF000000FF) * 0x000F424000000064
             + (words >> 16 & 0x000000FF000000FF) * 0x0000271000000001) >> 32
    return ok, words / 1e6


def _fixed_point_rows(buf, starts, ends, dim) -> tuple[np.ndarray, np.ndarray]:
    """Per row `buf[start:end]`, where its name ends if it has a name and `dim` values that
    are all in the form `save_embeddings` writes below 10, not all zero, and else 0; and the
    vectors of those rows. `buf` ends in 8 zero bytes past its rows."""
    raw = np.frombuffer(buf, np.uint8)
    spaces = np.append(np.flatnonzero(raw == 32), len(buf))
    first = np.searchsorted(spaces, ends) - dim  # the space after each row's name
    quick = np.flatnonzero((ends - starts > 9 * dim) & (first >= 0))  # long enough
    name_ends = np.zeros(len(ends), np.int64)
    if not len(quick):
        return name_ends, np.empty((0, dim))
    cuts = spaces[first[quick, None] + np.arange(dim + 1)]
    cuts[:, dim] = ends[quick]  # each value lies between two cuts
    gaps, cuts = np.diff(cuts), cuts[:, :-1] + 1  # each value's length + 1, and first byte
    signed = (gaps == 10) & (raw[cuts] == ord("-"))
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # unaligned, per byte
    ok, values = _fixed_point(words[cuts + signed])
    ok &= gaps == 9 + signed
    values[signed] *= -1
    fast = ok.all(1) & (cuts[:, 0] > starts[quick] + 1) & values.any(1)
    name_ends[quick[fast]] = cuts[fast, 0] - 1
    return name_ends, values[fast]


def _embedding_header(path, text):
    """N, dim and the (N, dim) array of the header row "N dim"."""
    header = text.split()
    if len(header) != 2:
        raise ParseError(path, 1, "expected 'N dim' header")
    n = _parse(int, header[0], path, 1, "row count")
    dim = _parse(int, header[1], path, 1, "dimension")
    if n < 0 or dim < 1:
        raise ParseError(path, 1, "expected N >= 0 and dim >= 1, got %d %d" % (n, dim))
    try:  # pages are only reserved: the rows a file holds are the memory it takes
        return n, dim, np.empty((n, dim))
    except (MemoryError, ValueError):  # ValueError: more bytes than an array can address
        raise ParseError(path, 1, "no memory for %d rows of %d values" % (n, dim)) from None


def _embedding_row(path, line_no, line, dim, seen):
    """The name's UTF-8 bytes and the vector of one row's text, or None for a blank row; a
    row that is malformed, or names an article of `seen`, raises ParseError."""
    line = line.rstrip()
    if not line:
        return None
    name, *values = line.rsplit(" ", dim)
    if len(values) != dim:
        raise ParseError(path, line_no, "expected %d values, got %d" % (dim, len(values)))
    if not name:
        raise ParseError(path, line_no, "empty article name")
    key = name.encode()
    if key in seen:
        raise ParseError(path, line_no, "duplicate article %r" % name)
    try:
        vector = np.array(values, dtype=float)
    except ValueError as e:
        raise ParseError(path, line_no, str(e)) from None
    if not vector.any():
        raise ParseError(path, line_no, "all-zero vector for article %r" % name)
    if not np.isfinite(vector).all():
        raise ParseError(path, line_no, "non-finite value for article %r" % name)
    return key, vector


def load_embeddings(path, interner: Interner) -> EmbeddingTable:
    """Read the text format: header "N dim", then "name v1 ... v_dim" rows. The last `dim`
    space-separated fields are the vector and the rest is the name, which may hold spaces.
    The rows fill one (N, dim) array; rows past the N-th are checked and counted, not kept.

    Per chunk, numpy finds each row's last `dim` spaces and reads every value in the form
    `save_embeddings` writes below 10, "-d.dddddd" or "d.dddddd", as one 8-byte word. A row
    with a value in any other form, a blank or all-zero row, and a row with no name or a
    repeated one, take `_embedding_row`, which reads any float syntax and gives every error."""
    n = None
    seen, names = {}, bytearray()  # the names' bytes in file order, interned at the end
    for line_nos, widths, fields in _chunks(path):
        buf, last = fields.buf, np.cumsum(widths) - 1
        starts = fields.starts[last - widths + 1]
        ends = fields.starts[last] + fields.lengths[last]
        if n is None:
            if not len(line_nos):
                continue
            n, dim, vectors = _embedding_header(
                path, buf[starts[0]:ends[0]].decode() if line_nos[0] == 1 else "")
            line_nos, starts, ends = line_nos[1:], starts[1:], ends[1:]
        name_ends, values = _fixed_point_rows(buf, starts, ends, dim)
        rows, slots = [], []  # the rows of `values` that fill `vectors`, and their slots
        for row, line_no, start, cut, end in zip((np.cumsum(name_ends > 0) - 1).tolist(),
                                                 line_nos.tolist(), starts.tolist(),
                                                 name_ends.tolist(), ends.tolist()):
            name = buf[start:cut] if cut else None
            if name is None or name in seen:
                parsed = _embedding_row(path, line_no, buf[start:end].decode(), dim, seen)
                if parsed is None:
                    continue
                name, vector = parsed
                if len(seen) < n:
                    vectors[len(seen)] = vector
            elif len(seen) < n:
                rows.append(row)
                slots.append(len(seen))
            seen[name] = None
            names += name
        vectors[slots] = values[rows]
    if n is None:  # no row, so no header
        _embedding_header(path, "")
    if len(seen) != n:
        raise ParseError(path, 1, "header declared %d rows, found %d" % (n, len(seen)))
    lengths = np.fromiter(map(len, seen), np.int64, len(seen))
    seen, starts = None, np.cumsum(lengths) - lengths  # the dict is freed before interning
    names += bytes(8)
    ids = [interner.intern_spans(names, starts[lo:lo + NAME_BLOCK], lengths[lo:lo + NAME_BLOCK])
           for lo in range(0, n, NAME_BLOCK)]  # in blocks, which bound the transient memory
    return EmbeddingTable(np.concatenate([np.zeros(0, np.int64), *ids]), vectors)


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
    labels: dict[int, set[int]] = {}
    for line_nos, _, fields in _chunks(path, 2):
        articles = interner.intern_spans(*fields.take(slice(0, None, 2)))
        covered = (emb.rows(articles) >= 0).tolist()
        named = (fields.lengths[0::2] > 0).tolist()
        for line_no, ids, article, has_vector, has_name in zip(
                line_nos.tolist(), fields[1::2], articles.tolist(), covered, named):
            if not has_name:
                raise ParseError(path, line_no, "empty article name")
            topics = {_parse(int, x, path, line_no, "topic") for x in ids.split(",")}
            outside = sorted(t for t in topics if not 0 <= t < num_topics)
            if outside:
                raise ParseError(path, line_no, "topic %d outside [0, %d)"
                                 % (outside[0], num_topics))
            if article in labels:
                raise ParseError(path, line_no,
                                 "duplicate article %r" % interner.names([article])[0])
            if not has_vector:
                raise ParseError(path, line_no,
                                 "article %r has no vector" % interner.names([article])[0])
            labels[article] = topics
    return labels


def _fixed_point_texts(vectors: np.ndarray):
    """The "%.6f" texts of each row's values, joined by spaces. A block of rows is formatted in
    numpy: each value is rounded half to even at six decimals by `np.rint` of |x| * 1e6, where
    a product that is exactly k + 0.5 takes its direction from the product's rounding error
    (Dekker's two-product), and its seven digits are packed into one 8-byte word "d.dddddd".
    A row with a value that rounds to 10 or more in size, or is not finite, is formatted by
    `%`."""
    rows, dim = vectors.shape
    row_format, step = " ".join(["%.6f"] * dim), max(1, FORMAT_BLOCK // max(dim, 1))
    for lo in range(0, rows, step):
        x = vectors[lo:lo + step]
        absolute = np.fmin(np.abs(x), 10.0).ravel()  # 10 where not finite
        scaled = absolute * 1e6
        micros = np.rint(scaled)
        tie = np.flatnonzero(np.abs(scaled - micros) == 0.5)
        top = absolute[tie] * 134217729.0
        top -= top - absolute[tie]  # the top 26 bits, whose product with 1e6 is exact
        error = (top * 1e6 - scaled[tie]) + (absolute[tie] - top) * 1e6  # |x| * 1e6 - scaled
        micros[tie] = np.where(error == 0, micros[tie], scaled[tie] + np.copysign(0.5, error))
        slow = (micros >= 1e7).reshape(x.shape).any(1)
        # the eight digits of each value, one per byte and the first in the lowest, in three
        # divide-and-shift steps on the whole word
        words = micros.astype(np.uint64)
        words = words // 10000 | words % 10000 << 32
        high = words * 5243 >> 19 & 0x0000007F0000007F  # each half-word // 100
        words = high | words - high * 100 << 16
        high = words * 103 >> 10 & 0x000F000F000F000F  # each quarter-word // 10
        words = high | words - high * 10 << 8 | 0x3030303030303030
        words = words & 0xFFFFFFFFFFFF0000 | words >> 8 & 0xFF | 0x2E00  # "0d" -> "d."
        negative = np.signbit(x).ravel()
        ends = np.cumsum(9 + negative)  # each value's text with the space before it
        text = bytearray(int(ends[-1]))
        np.ndarray((len(text) - 7,), "<u8", text, strides=(1,))[ends - 8] = words
        raw = np.frombuffer(text, np.uint8)
        raw[ends - 9 - negative] = ord(" ")
        raw[ends[negative] - 9] = ord("-")
        text = text.decode()
        bounds = np.append(0, ends[dim - 1::dim]).tolist()
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            yield row_format % tuple(x[i].tolist()) if slow[i] else text[a + 1:b]


def save_embeddings(table: EmbeddingTable, path, interner: Interner):
    """Write the text format that `load_embeddings` reads, each value as "%.6f"."""
    # `write_rows` draws the rows lazily, so only one block's text exists at a time
    write_rows(path, zip(interner.names(table.articles), _fixed_point_texts(table.vectors)),
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
