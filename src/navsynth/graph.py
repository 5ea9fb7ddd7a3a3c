"""Hyperlink graph and clickstream ingestion, and the transition models built from them."""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Raised on malformed input rows; carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__("%s:%d: %s" % (path, line_no, message))
        self.path = path
        self.line_no = line_no


def open_text(path, mode="rt"):
    """Open a text file, transparently gunzipping on a .gz extension."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_csv(path, columns, rows, header_comment: str = ""):
    """Write rows of pre-formatted fields below the column names and, when
    given, a "# header_comment" line."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if header_comment:
            f.write("# %s\n" % header_comment)
        f.write(",".join(columns) + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def _rows(path, ncols):
    """Yield (line_no, fields) for each non-blank line of a TSV file of `ncols` columns."""
    with open_text(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != ncols:
                raise ParseError(path, line_no, "expected %d columns" % ncols)
            yield line_no, parts


def _parse(convert, text, path, line_no, what):
    """`convert(text)`; a ValueError becomes a ParseError citing the line."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(path, line_no, "invalid %s %r" % (what, text)) from None


class Interner:
    """Bijective article-name <-> dense-id table. Ids are contiguous from 0."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def id(self, name: str) -> int:
        return self._ids[name]

    def name(self, article_id: int) -> str:
        return self._names[article_id]

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._ids

    def write_tsv(self, path):
        with open_text(path, "wt") as f:
            for i, name in enumerate(self._names):
                f.write("%d\t%s\n" % (i, name))

    @classmethod
    def read_tsv(cls, path) -> "Interner":
        interner = cls()
        for line_no, (article_id, name) in _rows(path, 2):
            if interner.intern(name) != _parse(int, article_id, path, line_no, "id"):
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

    def has_edge(self, s: int, t: int) -> bool:
        if s < 0 or s >= self.num_nodes:
            return False
        row = self.successors(s)
        i = row.searchsorted(t)
        return bool(i < len(row) and row[i] == t)

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
    ids = []
    for line_no, (source, target) in _rows(path, 2):
        if not source or not target:
            raise ParseError(path, line_no, "empty article name")
        ids.append(interner.intern(source))
        ids.append(interner.intern(target))
    pairs = np.array(ids, dtype=np.int64).reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    n = len(interner)
    keys = np.sort(pair_keys(pairs[~loops, 0], pairs[~loops, 1]))
    unique = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
    sources, targets = unpack_pairs(unique)
    return HyperlinkGraph(interner, _row_offsets(sources, n), targets,
                          int(loops.sum()), len(keys) - len(unique))


@dataclass
class ClickstreamTable:
    """Aggregate (source, target) -> click count table over interned ids."""

    interner: Interner
    entries: dict[tuple[int, int], int]
    skipped_rows: int = 0

    @property
    def total_clicks(self) -> int:
        return sum(self.entries.values())

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sources, targets, counts) as int64 arrays, in entry order."""
        pairs = np.array(list(self.entries), dtype=np.int64).reshape(-1, 2)
        counts = np.fromiter(self.entries.values(), dtype=np.int64, count=len(self.entries))
        return pairs[:, 0], pairs[:, 1], counts

    def write_tsv(self, path, link_type: str = "link"):
        with open_text(path, "wt") as f:
            for (s, t), c in sorted(self.entries.items()):
                f.write("%s\t%s\t%s\t%d\n"
                        % (self.interner.name(s), self.interner.name(t), link_type, c))


CLICK_LINK_TYPES = frozenset({"link"})  # row types that are clicks on a hyperlink


def load_clickstream(path, interner: Interner | None = None) -> ClickstreamTable:
    """Read a 4-column "prev<TAB>curr<TAB>type<TAB>count" clickstream dump.

    Rows whose type is outside CLICK_LINK_TYPES are skipped and counted.
    Repeated (prev, curr) rows are summed.
    """
    if interner is None:
        interner = Interner()
    entries: dict[tuple[int, int], int] = {}
    skipped = 0
    for line_no, (prev, curr, row_type, count_str) in _rows(path, 4):
        if row_type not in CLICK_LINK_TYPES:
            skipped += 1
            continue
        count = _parse(int, count_str, path, line_no, "count")
        if count < 1:
            raise ParseError(path, line_no, "non-positive count %d" % count)
        key = (interner.intern(prev), interner.intern(curr))
        entries[key] = entries.get(key, 0) + count
    return ClickstreamTable(interner, entries, skipped)


def apply_k_anonymity(table: ClickstreamTable, threshold: int = 10) -> ClickstreamTable:
    """Drop entries with `threshold` or fewer observations (strict: count > threshold kept)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    kept = {pair: c for pair, c in table.entries.items() if c > threshold}
    return ClickstreamTable(table.interner, kept, table.skipped_rows)


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

    def is_terminal(self, node: int) -> bool:
        return node >= self.num_nodes or self.indptr[node] == self.indptr[node + 1]

    def step(self, node: int, rng: np.random.Generator) -> int:
        """Sample a successor conditional on not stopping."""
        lo, hi = self.indptr[node], self.indptr[node + 1]
        r = rng.random() * self.cum[hi - 1]
        return int(self.indices[lo + self.cum[lo:hi].searchsorted(r, side="right")])

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

    sources, targets, counts = weights.arrays()
    keys = pair_keys(sources, targets)
    on_graph = np.isin(keys, pair_keys(*graph.edge_arrays()), assume_unique=True)
    if not on_graph.any():
        raise ValueError("empty transition model: no usable weighted entries")
    order = np.argsort(keys[on_graph])
    s, t, c = sources[on_graph][order], targets[on_graph][order], counts[on_graph][order]
    # float sums of integer counts are exact below 2**53
    totals = np.bincount(s, weights=c, minlength=n)
    return TransitionModel(graph.interner, _row_offsets(s, n), t, c / totals[s],
                           dropped_click_mass=int(counts[~on_graph].sum()))
