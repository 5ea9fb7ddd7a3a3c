"""Navigation-tree construction from pageview events and root-to-leaf sampling."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graph import Interner, _parse, _rows, open_text

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
    """A homogeneous set of navigation sequences (lists of article ids)."""

    sequences: list[list[int]]
    kind: str
    flagged: set[int] = field(default_factory=set)
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.sequences)


def flatten(sequences) -> tuple[np.ndarray, np.ndarray]:
    """(pages, lengths): every page of `sequences` in order, and each sequence's length."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    pages = np.fromiter(chain.from_iterable(sequences), dtype=np.int64, count=int(lengths.sum()))
    return pages, lengths


def corpus_triples(corpus: SequenceCorpus) -> np.ndarray:
    """Every window of 3 consecutive pages as a (source, middle, target) row, in corpus order."""
    pages, lengths = flatten(corpus.sequences)
    first = np.flatnonzero(np.arange(len(pages)) + 2 < np.repeat(np.cumsum(lengths), lengths))
    return np.column_stack((pages[first], pages[first + 1], pages[first + 2]))


def corpus_from_trees(trees: list[NavigationTree],
                      rng: np.random.Generator) -> SequenceCorpus:
    sequences = []
    for tree in trees:
        seq = sample_root_to_leaf(tree, rng)
        if seq is not None:
            sequences.append(seq)
    return SequenceCorpus(sequences, "Logs")


def save_corpus(corpus: SequenceCorpus, path, interner: Interner):
    with open_text(path, "wt") as f:
        f.write("#kind=%s\n" % corpus.kind)
        for seq in corpus.sequences:
            f.write("\t".join(interner.name(a) for a in seq))
            f.write("\n")


def load_corpus(path, interner: Interner) -> SequenceCorpus:
    sequences = []
    kind = "Logs"
    with open_text(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#kind="):
                    kind = line[len("#kind="):]
                continue
            sequences.append([interner.intern(name) for name in line.split("\t")])
    return SequenceCorpus(sequences, kind)


def load_pageview_events(path, interner: Interner) -> list[PageviewEvent]:
    """Read "reader_key_hex<TAB>timestamp_ms<TAB>article<TAB>referrer_or_dash" rows."""
    events = []
    for line_no, (key_hex, ts, article, referrer) in _rows(path, 4):
        key = _parse(bytes.fromhex, key_hex, path, line_no, "reader key")
        ts_ms = _parse(int, ts, path, line_no, "timestamp")
        ref = None if referrer == "-" else interner.intern(referrer)
        events.append(PageviewEvent(key, ts_ms, interner.intern(article), ref))
    return events
