"""Navigation-tree construction from pageview events and root-to-leaf sampling."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .graph import Interner, ParseError, _parse, _rows, open_text

DEFAULT_INACTIVITY_MS = 60 * 60 * 1000  # new tree if the parent is older than this


def reader_key(ip: str, user_agent: str) -> bytes:
    """Approximate reader id: MD5 digest of ip concatenated with user agent.

    Concatenation is ambiguous across the boundary ("a"+"bc" == "ab"+"c");
    callers should treat the key as a lossy grouping heuristic.
    """
    if not ip or not user_agent:
        raise ValueError("ip and user_agent must be non-empty")
    return hashlib.md5((ip + user_agent).encode("utf-8")).digest()


@dataclass
class PageviewEvent:
    reader: bytes
    timestamp_ms: int
    article: int
    referrer: int | None = None


@dataclass
class TreeNode:
    article: int
    timestamp_ms: int
    parent: int | None
    children: list[int] = field(default_factory=list)


@dataclass
class NavigationTree:
    nodes: list[TreeNode]  # nodes[0] is the root

    def leaves(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if not n.children]

    def path_to_root(self, node: int) -> list[int]:
        path = []
        cur: int | None = node
        while cur is not None:
            path.append(self.nodes[cur].article)
            cur = self.nodes[cur].parent
        path.reverse()
        return path


def build_trees(events: list[PageviewEvent],
                inactivity_ms: int = DEFAULT_INACTIVITY_MS) -> list[NavigationTree]:
    """Stitch one reader's timestamp-sorted events into navigation trees.

    An event with referrer R attaches as a child of the most recent prior
    node for article R; without a usable referrer (unseen article, or the
    candidate parent older than the inactivity cutoff) it starts a new tree.
    """
    trees: list[NavigationTree] = []
    # article -> (tree index, node index, timestamp) of its most recent node
    latest: dict[int, tuple[int, int, int]] = {}
    prev_ts = None
    for ev in events:
        if prev_ts is not None and ev.timestamp_ms < prev_ts:
            raise ValueError("unsorted input: timestamps must be non-decreasing")
        prev_ts = ev.timestamp_ms
        parent = None
        if ev.referrer is not None and ev.referrer in latest:
            tree_i, node_i, ts = latest[ev.referrer]
            if ev.timestamp_ms - ts <= inactivity_ms:
                parent = (tree_i, node_i)
        if parent is None:
            tree_i = len(trees)
            trees.append(NavigationTree([TreeNode(ev.article, ev.timestamp_ms, None)]))
            node_i = 0
        else:
            tree_i, parent_i = parent
            tree = trees[tree_i]
            node_i = len(tree.nodes)
            tree.nodes.append(TreeNode(ev.article, ev.timestamp_ms, parent_i))
            tree.nodes[parent_i].children.append(node_i)
        latest[ev.article] = (tree_i, node_i, ev.timestamp_ms)
    return trees


def build_forest(events: list[PageviewEvent],
                 inactivity_ms: int = DEFAULT_INACTIVITY_MS) -> list[NavigationTree]:
    """Group events by reader key, sort by timestamp, and build all trees."""
    by_reader: dict[bytes, list[PageviewEvent]] = {}
    for ev in events:
        by_reader.setdefault(ev.reader, []).append(ev)
    trees: list[NavigationTree] = []
    for key in sorted(by_reader):
        group = sorted(by_reader[key], key=lambda e: e.timestamp_ms)
        trees.extend(build_trees(group, inactivity_ms))
    return trees


def sample_root_to_leaf(tree: NavigationTree,
                        rng: np.random.Generator) -> list[int] | None:
    """Sample one root-to-leaf path uniformly over leaves.

    Single-node trees yield None: only sessions with at least 2 pageviews
    become sequences.
    """
    if len(tree.nodes) < 2:
        return None
    leaves = tree.leaves()
    leaf = leaves[int(rng.integers(len(leaves)))]
    return tree.path_to_root(leaf)


@dataclass
class SequenceCorpus:
    """A homogeneous set of navigation sequences as one flat ragged array: sequence i is
    `pages[offsets[i]:offsets[i + 1]]`, both int64, offsets[0] == 0, offsets[-1] == len(pages)."""

    pages: np.ndarray
    offsets: np.ndarray
    kind: str
    flagged: set[int] = field(default_factory=set)
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_sequences(cls, sequences, kind: str) -> "SequenceCorpus":
        offsets = np.cumsum([0, *map(len, sequences)])
        pages = np.fromiter((a for s in sequences for a in s), dtype=np.int64, count=offsets[-1])
        return cls(pages, offsets, kind)

    def __len__(self):
        return len(self.offsets) - 1

    @property
    def sequences(self) -> list[list[int]]:
        """Each sequence as a list, built on each access. No navsynth module reads it: it is kept
        for the tests and the benchmark tracer, until the tracer reads a run record instead."""
        pages, b = self.pages.tolist(), self.offsets.tolist()
        return [pages[lo:hi] for lo, hi in zip(b, b[1:])]


def corpus_triples(corpus: SequenceCorpus) -> np.ndarray:
    """Every window of 3 consecutive pages as a (source, middle, target) row, in corpus order."""
    pages, lengths = corpus.pages, np.diff(corpus.offsets)
    first = np.flatnonzero(np.arange(len(pages)) + 2 < np.repeat(corpus.offsets[1:], lengths))
    return np.column_stack((pages[first], pages[first + 1], pages[first + 2]))


def corpus_from_trees(trees: list[NavigationTree],
                      rng: np.random.Generator) -> SequenceCorpus:
    paths = [sample_root_to_leaf(tree, rng) for tree in trees]
    return SequenceCorpus.from_sequences([p for p in paths if p is not None], "Logs")


def save_corpus(corpus: SequenceCorpus, path, interner: Interner):
    names, b = [interner.name(a) for a in corpus.pages.tolist()], corpus.offsets.tolist()
    with open_text(path, "wt") as f:
        f.write("#kind=%s\n" % corpus.kind)
        f.writelines("\t".join(names[lo:hi]) + "\n" for lo, hi in zip(b, b[1:]))


def load_corpus(path, interner: Interner) -> SequenceCorpus:
    tokens, offsets, kind, seen = [], [0], "Logs", {}
    with open_text(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#kind="):
                    kind = line[len("#kind="):]
                continue
            names = line.split("\t")
            if "" in names:
                raise ParseError(path, line_no, "empty article name")
            tokens += map(seen.setdefault, names, names)  # one str object per distinct name
            offsets.append(len(tokens))
    # `seen` is in first-appearance order: the ids that interning one token at a time gives
    ids = {name: interner.intern(name) for name in seen}
    pages = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    return SequenceCorpus(pages, np.array(offsets, dtype=np.int64), kind)


def load_pageview_events(path, interner: Interner) -> list[PageviewEvent]:
    """Read "reader_key_hex<TAB>timestamp_ms<TAB>article<TAB>referrer_or_dash" rows."""
    events = []
    for line_no, (key_hex, ts, article, referrer) in _rows(path, 4):
        key = _parse(bytes.fromhex, key_hex, path, line_no, "reader key")
        ts_ms = _parse(int, ts, path, line_no, "timestamp")
        ref = None if referrer == "-" else interner.intern(referrer)
        events.append(PageviewEvent(key, ts_ms, interner.intern(article), ref))
    return events
