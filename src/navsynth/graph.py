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
class HyperlinkGraph:
    """Immutable directed graph with sorted, deduplicated out-adjacency lists."""

    interner: Interner
    out: list[np.ndarray]
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.out)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.out)

    def successors(self, node: int) -> np.ndarray:
        return self.out[node]

    def has_edge(self, s: int, t: int) -> bool:
        if s < 0 or s >= len(self.out):
            return False
        a = self.out[s]
        i = np.searchsorted(a, t)
        return i < len(a) and a[i] == t

    def edges(self):
        for s, a in enumerate(self.out):
            for t in a:
                yield s, int(t)


def build_graph(edge_pairs, interner: Interner,
                self_loops_dropped: int = 0, duplicates_dropped: int = 0) -> HyperlinkGraph:
    """Assemble a HyperlinkGraph from deduplicated (source, target) id pairs."""
    out_sets: list[set] = [set() for _ in range(len(interner))]
    for s, t in edge_pairs:
        out_sets[s].add(t)
    out = [np.array(sorted(s), dtype=np.int64) for s in out_sets]
    return HyperlinkGraph(interner, out, self_loops_dropped, duplicates_dropped)


def load_edge_list(path, interner: Interner | None = None) -> HyperlinkGraph:
    """Read a 2-column "source<TAB>target" edge list.

    Duplicate edges are collapsed, self-loops dropped (counted on the graph).
    An empty file yields an empty graph.
    """
    if interner is None:
        interner = Interner()
    edges = set()
    self_loops = 0
    duplicates = 0
    for line_no, (source, target) in _rows(path, 2):
        if not source or not target:
            raise ParseError(path, line_no, "empty article name")
        s = interner.intern(source)
        t = interner.intern(target)
        if s == t:
            self_loops += 1
            continue
        if (s, t) in edges:
            duplicates += 1
            continue
        edges.add((s, t))
    return build_graph(edges, interner, self_loops, duplicates)


@dataclass
class ClickstreamTable:
    """Aggregate (source, target) -> click count table over interned ids."""

    interner: Interner
    entries: dict[tuple[int, int], int]
    skipped_rows: int = 0

    @property
    def total_clicks(self) -> int:
        return sum(self.entries.values())

    def write_tsv(self, path, link_type: str = "link"):
        with open_text(path, "wt") as f:
            for (s, t), c in sorted(self.entries.items()):
                f.write("%s\t%s\t%s\t%d\n"
                        % (self.interner.name(s), self.interner.name(t), link_type, c))


def load_clickstream(path, link_type_filter=frozenset({"link"}),
                     interner: Interner | None = None) -> ClickstreamTable:
    """Read a 4-column "prev<TAB>curr<TAB>type<TAB>count" clickstream dump.

    Rows whose type is outside the filter are skipped and counted.
    Repeated (prev, curr) rows are summed.
    """
    if interner is None:
        interner = Interner()
    entries: dict[tuple[int, int], int] = {}
    skipped = 0
    for line_no, (prev, curr, row_type, count_str) in _rows(path, 4):
        if row_type not in link_type_filter:
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
class TransitionModel:
    """Per-node distribution over successors, plus optional per-node stop mass.

    For every non-terminal node, successor probabilities + stop probability
    sum to 1. Nodes with empty rows are terminal.
    """

    kind: str  # "uniform-graph" or "weighted"
    interner: Interner
    successors: list[np.ndarray]
    probs: list[np.ndarray]
    stop_probs: np.ndarray = None  # type: ignore[assignment]
    dropped_click_mass: int = 0
    _cum: list = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.stop_probs is None:
            self.stop_probs = np.zeros(len(self.successors))
        if self._cum is None:
            self._cum = [np.cumsum(p) for p in self.probs]

    @property
    def num_nodes(self) -> int:
        return len(self.successors)

    def is_terminal(self, node: int) -> bool:
        return node >= len(self.successors) or len(self.successors[node]) == 0

    def step(self, node: int, rng: np.random.Generator) -> int:
        """Sample a successor conditional on not stopping."""
        cum = self._cum[node]
        r = rng.random() * cum[-1]
        return int(self.successors[node][np.searchsorted(cum, r, side="right")])

    def with_stops(self, stop_probs: np.ndarray) -> "TransitionModel":
        """Attach per-node stop mass, scaling successor probabilities by (1 - stop)."""
        stop_probs = np.asarray(stop_probs, dtype=float)
        if stop_probs.shape != (self.num_nodes,):
            raise ValueError("stop_probs length mismatch")
        if np.any((stop_probs < 0) | (stop_probs > 1)):
            raise ValueError("stop probabilities must lie in [0, 1]")
        probs = [p * (1.0 - q) for p, q in zip(self.probs, stop_probs)]
        return TransitionModel(self.kind, self.interner, self.successors, probs,
                               stop_probs, self.dropped_click_mass)


def build_transition_model(graph: HyperlinkGraph,
                           weights: ClickstreamTable | None = None,
                           restrict_to_graph: bool = True) -> TransitionModel:
    """Build the uniform-graph model (no weights) or a click-weighted model.

    With `restrict_to_graph`, weighted pairs that are not edges of the graph
    are dropped and the dropped click mass recorded on the model.
    """
    n = graph.num_nodes
    if weights is None:
        succs = [a.copy() for a in graph.out]
        probs = [np.full(len(a), 1.0 / len(a)) if len(a) else np.empty(0)
                 for a in graph.out]
        return TransitionModel("uniform-graph", graph.interner, succs, probs)

    per_source: dict[int, list[tuple[int, int]]] = {}
    dropped_mass = 0
    for (s, t), c in weights.entries.items():
        if restrict_to_graph and not graph.has_edge(s, t):
            dropped_mass += c
            continue
        per_source.setdefault(s, []).append((t, c))
    if not any(per_source.values()):
        raise ValueError("empty transition model: no usable weighted entries")

    succs: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    max_source = max(per_source) if per_source else -1
    size = max(n, max_source + 1)
    for node in range(size):
        row = per_source.get(node)
        if not row:
            succs.append(np.empty(0, dtype=np.int64))
            probs.append(np.empty(0))
            continue
        row.sort()
        targets = np.array([t for t, _ in row], dtype=np.int64)
        counts = np.array([c for _, c in row], dtype=float)
        succs.append(targets)
        probs.append(counts / counts.sum())
    return TransitionModel("weighted", graph.interner, succs, probs,
                           dropped_click_mass=dropped_mass)
