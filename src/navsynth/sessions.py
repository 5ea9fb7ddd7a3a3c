"""Navigation trees from pageview events, root-to-leaf sampling, and sequence corpora."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Interner, ParseError, _chunks, _parse, pair_keys, write_rows


@dataclass
class PageviewEvents:
    """Pageview events in file order as parallel int64 arrays: the rank of each reader key
    among the distinct keys in byte order, timestamps in ms, article ids, and referrer ids
    with -1 for none."""

    readers: np.ndarray
    timestamps: np.ndarray
    articles: np.ndarray
    referrers: np.ndarray

    def __len__(self):
        return len(self.timestamps)


def build_forest(events: PageviewEvents, inactivity_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Navigation trees as one parent array, over the events in reading order: by reader key,
    then timestamp, then file order. Returns the articles in that order and the int64 parent
    of each: the latest earlier event of the same reader on its referrer, if that event is at
    most `inactivity_ms` older, and otherwise -1, which makes the event a tree's root."""
    order = np.lexsort((events.timestamps, events.readers))
    reader, stamps = events.readers[order], events.timestamps[order]
    articles, referrers = events.articles[order], events.referrers[order]
    n, position = len(order), np.arange(len(order))
    # code = rank of the event's (reader, article) key * n + position: sorted, the codes list
    # the events of each key in reading order
    keys = pair_keys(reader, articles)
    visited, rank = np.unique(keys, return_inverse=True)
    codes = np.sort(rank * n + position)
    # the last code below (rank of the (reader, referrer) key, position) is the latest earlier
    # event on the referrer, if its key is that one; no referrer packs to the key -1, which no
    # event has
    wanted = pair_keys(reader, referrers)
    last = np.searchsorted(codes, np.searchsorted(visited, wanted) * n + position) - 1
    parent = codes[last] % n
    linked = (last >= 0) & (keys[parent] == wanted) & (stamps - stamps[parent] <= inactivity_ms)
    return articles, np.where(linked, parent, -1)


@dataclass
class SequenceCorpus:
    """A homogeneous set of navigation sequences as one flat ragged array: sequence i is
    `pages[offsets[i]:offsets[i + 1]]`, both int64, offsets[0] == 0, offsets[-1] == len(pages).
    `flagged` holds the sorted int64 indices of the sequences a generator flagged."""

    pages: np.ndarray
    offsets: np.ndarray
    kind: str
    flagged: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.offsets) - 1

    @property
    def sequences(self) -> list[list[int]]:
        """Each sequence as a list, built on each access. No navsynth module reads it: it is kept
        for the tests and the benchmark tracer, until the tracer reads a run record instead."""
        pages, b = self.pages.tolist(), self.offsets.tolist()
        return [pages[lo:hi] for lo, hi in zip(b, b[1:])]


def corpus_triples(corpus: SequenceCorpus) -> np.ndarray:
    """The int64 position in `corpus.pages` of the source of every window of 3 consecutive
    pages (source, middle, target), ascending."""
    lengths, starts = np.diff(corpus.offsets), np.ones(len(corpus.pages), dtype=bool)
    for k in (1, 2):  # no window starts at the last or the second-to-last page of a sequence
        starts[corpus.offsets[1:][lengths >= k] - k] = False
    return np.flatnonzero(starts)


def count_triples(pages: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The windows of `pages` starting at `starts`, counted: the sorted unique packed (middle,
    source) `pairs`, the sorted unique packed (pair index, target) `keys` and their counts."""
    key = pages[starts + 1] << 32  # pair_keys(middles, sources), packed in place
    key |= pages[starts]
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)  # each window whose key differs from the one before
    np.not_equal(key[1:], key[:-1], out=new[1:])
    pairs = key[np.flatnonzero(new)]
    np.cumsum(new, out=key)  # one past the window's pair index
    key -= 1
    key <<= 32
    np.add(starts[order], 2, out=order)  # the position of the window's target
    key |= pages[order]
    del order
    key.sort()
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return pairs, key[first], np.diff(first, append=len(key))


def corpus_from_trees(articles: np.ndarray, parent: np.ndarray,
                      rng: np.random.Generator) -> SequenceCorpus:
    """One root-to-leaf path per tree of two or more pages, in the order of the roots. The
    leaves of each tree, in reading order, are drawn from uniformly, in one call for all trees."""
    # depth and root of every event by pointer doubling, one pass per doubling of the depth
    up, depth = parent.copy(), (parent >= 0).astype(np.int64)
    root = np.where(up >= 0, up, np.arange(len(up)))
    while (jump := up >= 0).any():
        depth[jump] += depth[up[jump]]
        root[jump] = root[up[jump]]
        up[jump] = up[up[jump]]
    is_leaf = parent >= 0  # a root without children is a single-page tree, which gives no path
    is_leaf[parent[is_leaf]] = False
    leaves = np.flatnonzero(is_leaf)
    leaves = leaves[np.argsort(root[leaves], kind="stable")]
    _, first, counts = np.unique(root[leaves], return_index=True, return_counts=True)
    chosen = leaves[first + rng.integers(0, counts)]
    offsets = np.cumsum(np.r_[0, depth[chosen] + 1])
    pages = np.empty(offsets[-1], dtype=np.int64)
    node, slot = chosen, offsets[1:] - 1
    while len(node):  # each path one page further from its leaf per pass
        pages[slot] = articles[node]
        node, slot = parent[node], slot - 1
        node, slot = node[node >= 0], slot[node >= 0]
    return SequenceCorpus(pages, offsets, "Logs")


def save_corpus(corpus: SequenceCorpus, path, interner: Interner):
    """Write one tab-separated sequence per line below "#kind=". A sequence whose first article
    starts with "#" would read back as a comment, so it is refused before the file is opened."""
    names, b = interner.names(corpus.pages), corpus.offsets.tolist()
    comment = next((names[lo] for lo in b[:-1] if names[lo][:1] == "#"), None)
    if comment is not None:
        raise ValueError("%s: article %r starts a sequence, which would read back as a comment"
                         % (path, comment))
    write_rows(path, (names[lo:hi] for lo, hi in zip(b, b[1:])), "#kind=%s\n" % corpus.kind)


def load_corpus(path, interner: Interner) -> SequenceCorpus:
    """Read one tab-separated sequence per line; "#" starts a comment and "#kind=" the kind."""
    pages, lengths, kind = [], [], "Logs"
    for line_nos, widths, fields in _chunks(path):
        starts = np.cumsum(widths) - widths
        comment = np.frombuffer(fields.buf, np.uint8)[fields.starts[starts]] == ord("#")
        for start, width in zip(starts[comment], widths[comment]):
            line = "\t".join(fields[start:start + width])
            kind = line[len("#kind="):] if line.startswith("#kind=") else kind
        named = np.repeat(~comment, widths)  # the fields of the sequences
        line_nos, widths = line_nos[~comment], widths[~comment]
        if not fields.lengths[named].all():
            row = np.searchsorted(np.cumsum(widths), fields.lengths[named].argmin(), "right")
            raise ParseError(path, int(line_nos[row]), "empty article name")
        pages.append(interner.intern_spans(*fields.take(named)))
        lengths.append(widths)
    return SequenceCorpus(np.concatenate(pages), np.cumsum(np.concatenate([[0], *lengths])), kind)


def load_pageview_events(path, interner: Interner) -> PageviewEvents:
    """Read "reader_key_hex<TAB>timestamp_ms<TAB>article<TAB>referrer_or_dash" rows."""
    keys, texts, readers, stamps, ids = {}, {}, [], [], []  # key -> first index; text -> key
    for line_nos, _, fields in _chunks(path, 4):
        empty = ~fields.lengths.reshape(-1, 4)[:, 2:].all(1)  # an empty article or referrer
        for line_no, key_hex, ts, blank in zip(line_nos.tolist(), fields[0::4], fields[1::4],
                                               empty.tolist()):
            if blank:
                raise ParseError(path, line_no, "empty article name")
            if key_hex not in texts:  # each distinct text is parsed once
                texts[key_hex] = _parse(bytes.fromhex, key_hex, path, line_no, "reader key")
            readers.append(keys.setdefault(texts[key_hex], len(keys)))
            stamps.append(_parse(int, ts, path, line_no, "timestamp"))
            if not -2**62 <= stamps[-1] < 2**62:  # so that no difference of two overflows int64
                raise ParseError(path, line_no, "timestamp %s outside [-2**62, 2**62)" % ts)
        spans = np.arange(len(line_nos))[:, None] * 4 + [3, 2]  # each row's referrer, article
        named = np.ones(spans.shape, dtype=bool)  # all but the referrers "-"
        named[:, 0] = (fields.lengths[3::4] != 1) | (
            np.frombuffer(fields.buf, np.uint8)[fields.starts[3::4]] != ord("-"))
        ids.append(np.full(named.shape, -1, dtype=np.int64))
        ids[-1][named] = interner.intern_spans(*fields.take(spans[named]))
    # the inverse of the byte-order permutation of the keys is the rank of each
    rank = np.argsort(sorted(range(len(keys)), key=[*keys].__getitem__))
    ids = np.concatenate(ids).reshape(-1, 2)
    return PageviewEvents(rank[np.array(readers, dtype=np.int64)],
                          np.array(stamps, dtype=np.int64), ids[:, 1], ids[:, 0])
