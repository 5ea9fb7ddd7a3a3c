"""Hyperlink graph and clickstream ingestion, the transition models built from them, and the
text readers and the one writer that every module shares."""

from __future__ import annotations

import csv
import gzip
import io
import re
from dataclasses import dataclass, field
from itertools import chain, compress, count, filterfalse, repeat

import numpy as np

CHUNK_CHARS = 1 << 16  # characters read per step, which bound a reader's transient memory


class ParseError(ValueError):
    """Raised on malformed input rows; carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__("%s:%d: %s" % (path, line_no, message))
        self.path = path
        self.line_no = line_no


def open_text(path, errors="strict"):
    """Open a text file to read, transparently gunzipping on a .gz extension."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors=errors)
    return open(path, encoding="utf-8", errors=errors)


_CSV_QUOTED = re.compile(r'^#|[,"\r\n]')  # a CSV field that a reader would split or skip


def write_rows(path, rows, head="", sep="\t"):
    """Write `head`, then one line per row of text fields joined by `sep`; `rows` is read
    lazily. With sep "," the rows are CSV: a field that holds a comma, a quote or a line break,
    or starts with "#", is quoted (RFC 4180). A .gz path is gzipped with no time and no file
    name in its header, so the same rows give the same bytes. Every text output is written
    here."""
    with open(path, "wb") as raw, io.TextIOWrapper(
            gzip.GzipFile("", "wb", fileobj=raw, mtime=0) if str(path).endswith(".gz") else raw,
            encoding="utf-8") as f:
        f.write(head)
        if sep == ",":
            rows = (['"%s"' % x.replace('"', '""') if _CSV_QUOTED.search(x) else x for x in row]
                    for row in rows)
        f.writelines(sep.join(row) + "\n" for row in rows)


def write_csv(path, columns, rows, header_comment: str = ""):
    """Write rows of pre-formatted fields below the column names and, when
    given, a "# header_comment" line."""
    write_rows(path, chain([columns], rows), "# %s\n" % header_comment if header_comment else "",
               ",")


def _chunks(path, ncols=0):
    """Read a TSV file in chunks of whole lines. Yields, per chunk and at least once, the int64
    1-based line number and the width of each row (non-blank line), and the flat list of their
    fields. A line not valid UTF-8, or with `ncols` a row of another width, raises ParseError
    after the rows before it."""
    line_no, tail, text = 1, "", None  # the first line not yet split, and its text read so far
    with open_text(path, errors="surrogateescape") as f:  # an undecodable byte reads as U+DCxx
        while text != "":
            text = f.read(CHUNK_CHARS)  # "" at the end, where the last line may lack "\n"
            head, newline, tail = (tail + (text or "\n")).rpartition("\n")
            block, undecodable = head + newline, None  # whole lines
            try:
                raw = np.frombuffer(block.encode(), np.uint8)
            except UnicodeEncodeError as e:
                undecodable = ParseError(path, line_no + block.count("\n", 0, e.start),
                                         "invalid UTF-8")
                block = block[:block.rfind("\n", 0, e.start) + 1]  # the lines before it
                raw = np.frombuffer(block.encode(), np.uint8)
            # tabs and newlines are single bytes in UTF-8; the newlines among them end the rows
            ends = np.flatnonzero(raw[(raw == 9) | (raw == 10)] == 10)
            widths = np.diff(ends, prepend=-1)
            fields = block.replace("\n", "\t").split("\t")[:-1]
            line_nos, line_no = np.arange(line_no, line_no + len(ends)), line_no + len(ends)
            if "" in fields:  # a blank line is a row of one empty field
                full = [w > 1 or fields[e] != "" for e, w in zip(ends.tolist(), widths.tolist())]
                fields = [*compress(fields, np.repeat(full, widths))]
                line_nos, widths = line_nos[full], widths[full]
            end = np.append(widths != (ncols or widths), True).argmax()  # first bad row, if any
            yield line_nos[:end], widths[:end], fields[:widths[:end].sum()]
            if end < len(widths):
                raise ParseError(path, int(line_nos[end]), "expected %d columns" % ncols)
            if undecodable:
                raise undecodable


def _parse(convert, text, path, line_no, what):
    """`convert(text)`; a ValueError becomes a ParseError citing the line."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(path, line_no, "invalid %s %r" % (what, text)) from None


def _row_texts(path):
    """Per chunk of `_chunks`, the line numbers and the texts of its rows: each row's fields
    joined by tabs again."""
    for line_nos, widths, fields in _chunks(path):
        ends = np.cumsum(widths).tolist()
        yield line_nos.tolist(), ["\t".join(fields[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def load_config(path, options: dict) -> dict:
    """The settings of a flat "key=value" file. `options` maps each key to the function that
    converts its value's text, or to None to keep the text; any other key is an error."""
    settings = {}
    for line_nos, lines in _row_texts(path):
        for line_no, line in zip(line_nos, lines):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in options:
                raise ParseError(path, line_no, "unknown option %r" % key)
            settings[key] = _parse(options[key] or str, value.strip(), path, line_no, key)
    return settings


def load_result_values(paths) -> dict[tuple[str, str], float]:
    """(dataset, metric) -> value of the rows of "dataset,metric,value" CSV files, in file order.
    A file's first row that is no comment is its column names if it starts "dataset,metric,"."""
    values: dict[tuple[str, str], float] = {}
    for path in paths:
        first = True
        for line_nos, lines in _row_texts(path):
            for line_no, line in zip(line_nos, lines):
                if line.startswith("#"):
                    continue
                columns, first = first and line.startswith("dataset,metric,"), False
                if columns:
                    continue
                try:
                    fields = next(csv.reader([line]))  # a quoted field may hold "," or '"'
                except csv.Error as e:  # a field over csv.field_size_limit()
                    raise ParseError(path, line_no, str(e)) from None
                if len(fields) != 3:
                    raise ParseError(path, line_no, "expected 3 columns")
                key = (fields[0], fields[1])
                if key in values:
                    raise ParseError(path, line_no, "duplicate row %r" % ",".join(key))
                values[key] = _parse(float, fields[2], path, line_no, "value")
    return values


class Interner:
    """Bijective article-name <-> dense-id table. Ids are contiguous from 0."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern_all(self, names: list[str]) -> np.ndarray:
        """The int64 id of each name, interning new names in order of first appearance."""
        self._names += filterfalse(self._ids.__contains__, dict.fromkeys(names))
        self._ids.update(zip(self._names[len(self._ids):], count(len(self._ids))))
        return np.fromiter(map(self._ids.__getitem__, names), np.int64, len(names))

    def names(self, ids) -> list[str]:
        """The name of each id."""
        return [*map(self._names.__getitem__, np.asarray(ids).tolist())]

    def __len__(self):
        return len(self._names)

    def write_tsv(self, path):
        write_rows(path, zip(map(str, range(len(self._names))), self._names))

    @classmethod
    def read_tsv(cls, path) -> "Interner":
        """The interner of "id<TAB>name" rows, where row k gives id k to a new name."""
        interner = cls()
        for line_nos, _, fields in _chunks(path, 2):
            rows = count(len(interner))  # the rows before this chunk were all new names
            ids = interner.intern_all(fields[1::2]).tolist()
            for line_no, article_id, i, k in zip(line_nos.tolist(), fields[0::2], ids, rows):
                if _parse(int, article_id, path, line_no, "id") != k or i != k:
                    raise ParseError(path, line_no, "non-contiguous interning ids")
        return interner


@dataclass
class _Rows:
    """Compressed sparse rows over interned ids.

    Row v is `indices[indptr[v]:indptr[v + 1]]`, sorted ascending.
    """

    interner: Interner
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    def successors(self, node: int) -> np.ndarray:
        """Row `node`, a view into `indices`."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]


def pair_keys(a, b) -> np.ndarray:
    """Pack id pairs into int64 keys `a << 32 | b`, which sort as the (a, b) pairs do and
    never collide: interned ids are dense, so every id is below 2**31."""
    return np.asarray(a, dtype=np.int64) << 32 | np.asarray(b, dtype=np.int64)


def unpack_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) id arrays of packed pair keys."""
    return keys >> 32, keys & 0xFFFFFFFF


def _lookup(keys: np.ndarray, query) -> np.ndarray:
    """Index of each query key in the sorted unique `keys`; len(keys) where absent."""
    i = np.searchsorted(keys, query)
    return np.where(np.searchsorted(keys, query, side="right") > i, i, len(keys))


def _row_offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """`indptr` of `n` rows for the sorted row id of every entry."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


@dataclass
class HyperlinkGraph(_Rows):
    """Immutable directed graph; each row holds a node's deduplicated successors."""

    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) of every edge, ordered by source, then target."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.indptr)), self.indices


def load_edge_list(path, interner: Interner | None = None) -> HyperlinkGraph:
    """Read a 2-column "source<TAB>target" edge list.

    Duplicate edges are collapsed, self-loops dropped (counted on the graph).
    An empty file yields an empty graph.
    """
    if interner is None:
        interner = Interner()
    keys, loops = [], 0  # per chunk, the packed keys of its edges that are no self-loop
    for line_nos, _, names in _chunks(path, 2):
        if "" in names:
            raise ParseError(path, int(line_nos[names.index("") // 2]), "empty article name")
        sources, targets = interner.intern_all(names).reshape(-1, 2).T
        loops += int((sources == targets).sum())
        keys.append(pair_keys(sources, targets)[sources != targets])
    keys = np.concatenate(keys)
    keys.sort()
    first = np.diff(keys, prepend=-1) != 0  # keys are >= 0
    keys = keys[first]
    sources, targets = unpack_pairs(keys)
    return HyperlinkGraph(interner, _row_offsets(sources, len(interner)), targets, loops,
                          len(first) - len(keys))


def save_edge_list(graph: HyperlinkGraph, path):
    """Write the edges as the "source<TAB>target" rows that `load_edge_list` reads."""
    write_rows(path, zip(*map(graph.interner.names, graph.edge_arrays())))


@dataclass
class ClickstreamTable:
    """Aggregate (source, target) -> click count table over interned ids: the sorted unique
    packed pair keys `entries` (see `pair_keys`) and their int64 click `counts`."""

    interner: Interner
    entries: np.ndarray
    counts: np.ndarray
    skipped_rows: int = 0

    @property
    def total_clicks(self) -> int:
        return int(self.counts.sum())

    def write_tsv(self, path):
        write_rows(path, zip(*map(self.interner.names, unpack_pairs(self.entries)), repeat("link"),
                             map(str, self.counts.tolist())))


CLICK_LINK_TYPES = frozenset({"link"})  # row types that are clicks on a hyperlink


def load_clickstream(path, interner: Interner | None = None) -> ClickstreamTable:
    """Read a 4-column "prev<TAB>curr<TAB>type<TAB>count" clickstream dump.

    Rows whose type is outside CLICK_LINK_TYPES are skipped and counted.
    Repeated (prev, curr) rows are summed. A file whose click total reaches
    2**63 is rejected at the row where it does, so no int64 sum can wrap.
    """
    if interner is None:
        interner = Interner()
    keys, counts = [], []  # per chunk, the packed keys and click counts of its link rows
    skipped = total = 0
    for line_nos, _, fields in _chunks(path, 4):
        kept = [*map(CLICK_LINK_TYPES.__contains__, fields[2::4])]
        skipped += kept.count(False)
        clicks = []
        for line_no, count_str in compress(zip(line_nos.tolist(), fields[3::4]), kept):
            count = _parse(int, count_str, path, line_no, "count")
            if count < 1:
                raise ParseError(path, line_no, "non-positive count %d" % count)
            total += count
            if total >= 2**63:
                raise ParseError(path, line_no, "click total reaches 2**63")
            clicks.append(count)
        counts.append(np.array(clicks, dtype=np.int64))
        ids = interner.intern_all([*chain.from_iterable(
            compress(zip(fields[0::4], fields[1::4]), kept))])
        keys.append(pair_keys(ids[0::2], ids[1::2]))
    keys, counts = np.concatenate(keys), np.concatenate(counts)
    order = np.argsort(keys)
    keys = keys[order]
    counts = counts[order]
    del order  # each temporary is freed before the next is made, which bounds the peak
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # the first row of each pair
    keys = keys[starts]
    return ClickstreamTable(interner, keys, np.add.reduceat(counts, starts), skipped)


def apply_k_anonymity(table: ClickstreamTable, threshold: int = 10) -> ClickstreamTable:
    """Drop entries with `threshold` or fewer observations (strict: count > threshold kept)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    kept = table.counts > threshold
    return ClickstreamTable(table.interner, table.entries[kept], table.counts[kept],
                            table.skipped_rows)


@dataclass
class TransitionModel(_Rows):
    """Per-node distribution over successors, plus optional per-node stop mass.

    `probs` runs parallel to `indices`. For every non-terminal node,
    successor probabilities + stop probability sum to 1. Nodes with empty
    rows are terminal.
    """

    probs: np.ndarray
    stop_probs: np.ndarray = None  # type: ignore[assignment]
    dropped_click_mass: int = 0
    cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.stop_probs is None:
            self.stop_probs = np.zeros(self.num_nodes)
        # each row's own cumulative sum in np.cumsum's order (one sum across rows would
        # round differently): pass k adds entry k - 1 into entry k of rows longer than k
        self.cum = self.probs.copy()
        degree = np.diff(self.indptr)
        heads = self.indptr[np.argsort(degree)]  # row starts, shortest rows first
        longer = np.searchsorted(np.sort(degree), np.arange(degree.max(initial=0)), "right")
        for k, first in enumerate(longer[1:], 1):
            self.cum[heads[first:] + k] += self.cum[heads[first:] + k - 1]

    def row_probs(self, node: int) -> np.ndarray:
        """Successor probabilities of `node`, a view parallel to `successors(node)`."""
        return self.probs[self.indptr[node]:self.indptr[node + 1]]

    def with_stops(self, stop_probs: np.ndarray) -> "TransitionModel":
        """Attach per-node stop mass, scaling successor probabilities by (1 - stop)."""
        stop_probs = np.asarray(stop_probs, dtype=float)
        if stop_probs.shape != (self.num_nodes,):
            raise ValueError("stop_probs length mismatch")
        if np.any((stop_probs < 0) | (stop_probs > 1)):
            raise ValueError("stop probabilities must lie in [0, 1]")
        probs = self.probs * np.repeat(1.0 - stop_probs, np.diff(self.indptr))
        return TransitionModel(self.interner, self.indptr, self.indices, probs,
                               stop_probs, self.dropped_click_mass)


def build_transition_model(graph: HyperlinkGraph,
                           weights: ClickstreamTable | None = None) -> TransitionModel:
    """Build the uniform-graph model (no weights) or a click-weighted model.

    The uniform model shares the graph's rows. Weighted pairs that are not
    edges of the graph are dropped and the dropped click mass recorded on
    the model.
    """
    n = graph.num_nodes
    if weights is None:
        degree = np.diff(graph.indptr)
        probs = np.repeat(1.0 / np.maximum(degree, 1), degree)
        return TransitionModel(graph.interner, graph.indptr, graph.indices, probs)

    edges = pair_keys(*graph.edge_arrays())  # sorted: CSR order is key order
    on_graph = _lookup(edges, weights.entries) < len(edges)
    if not on_graph.any():
        raise ValueError("empty transition model: no usable weighted entries")
    (s, t), c = unpack_pairs(weights.entries[on_graph]), weights.counts[on_graph]
    # float sums of integer counts are exact below 2**53
    totals = np.bincount(s, weights=c, minlength=n)
    return TransitionModel(graph.interner, _row_offsets(s, n), t, c / totals[s],
                           dropped_click_mass=int(weights.counts[~on_graph].sum()))
