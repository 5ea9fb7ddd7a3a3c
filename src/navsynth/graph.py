"""Hyperlink graph and clickstream ingestion, the transition models built from them, and the
text readers and the one writer that every module shares."""

from __future__ import annotations

import csv
import gzip
import io
import re
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

CHUNK_BYTES = 1 << 16  # bytes read per step, which bound a reader's transient memory


class ParseError(ValueError):
    """Raised on malformed input rows; carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__("%s:%d: %s" % (path, line_no, message))
        self.path = path
        self.line_no = line_no


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


@dataclass
class _Fields:
    """A chunk's fields: field i is the UTF-8 text `buf[starts[i]:starts[i] + lengths[i]]`, and
    `buf` ends in 8 zero bytes past its lines."""

    buf: bytes
    starts: np.ndarray
    lengths: np.ndarray

    def __getitem__(self, i) -> list[str]:
        """The texts of the fields that `i` (a slice, an index array or a mask) selects, in
        ascending order: each field's bytes and the tab or line end after it, kept by one mask
        over the bytes they span, then one `decode`, split at line ends."""
        starts, lengths = self.starts[i].ravel(), self.lengths[i].ravel() + 1
        if not len(starts):
            return []
        skipped = np.diff(starts, prepend=starts[0]) - np.append(0, lengths[:-1])
        kept = np.repeat(np.tile([False, True], len(starts)),
                         np.stack([skipped, lengths], 1).ravel())
        text = np.frombuffer(self.buf, np.uint8, len(kept), starts[0])[kept]
        text[np.cumsum(lengths) - 1] = 10  # no field holds a line end
        return text[:-1].tobytes().decode().split("\n")

    def take(self, i=slice(None)) -> tuple[bytes, np.ndarray, np.ndarray]:
        """The bytes, and the starts and lengths of the fields that `i` selects, flattened."""
        return self.buf, self.starts[i].ravel(), self.lengths[i].ravel()


def _split(block, line_no):
    """The 1-based line number and the width of each row (non-blank line) of `block`, lines
    from `line_no` on; the int64 start and length of each of their fields; and the number of
    lines. Its temporaries are freed on return, before `_chunks` yields."""
    raw = np.frombuffer(block, np.uint8)
    seps = np.flatnonzero(raw < 11)
    seps = seps[raw[seps] > 8]  # each field's tab or line end
    lengths = np.diff(seps, prepend=-1) - 1
    ends = np.flatnonzero(raw[seps] == 10)  # the last field of each row
    widths = np.diff(ends, prepend=-1)
    full = (widths > 1) | (lengths[ends] > 0)  # a blank line is a row of one empty field
    seps -= lengths  # the starts
    if not full.all():
        kept = np.repeat(full, widths)
        seps, lengths = seps[kept], lengths[kept]
    return np.flatnonzero(full) + line_no, widths[full], seps, lengths, len(ends)


def _chunks(path, ncols=0):
    """Read a TSV file in chunks of whole lines, where a CR, LF or CRLF ends a line. Yields, per
    chunk and at least once, the int64 1-based line number and the width of each row (non-blank
    line), and their `_Fields`. A line not valid UTF-8, or with `ncols` a row of another width,
    raises ParseError after the rows before it."""
    line_no, tail, more = 1, b"", True  # the first line not yet split, and its bytes read so far
    with gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb") as f:
        while more:
            block = f.read(CHUNK_BYTES)
            more = block != b""  # at the end, the last line may lack its line end
            block = tail + (block or b"\n")
            # a CR that ends what was read may be the first half of a CRLF
            end = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - more))
            block, tail, undecodable = block[:end + 1] + bytes(8), block[end + 1:], None
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            try:
                block.decode()
            except UnicodeDecodeError as e:
                undecodable = ParseError(path, line_no + block.count(b"\n", 0, e.start),
                                         "invalid UTF-8")
                block = block[:block.rfind(b"\n", 0, e.start) + 1] + bytes(8)  # lines before it
            line_nos, widths, starts, lengths, lines = _split(block, line_no)
            line_no += lines
            end = np.append(widths != (ncols or widths), True).argmax()  # first bad row, if any
            n = widths[:end].sum()
            yield line_nos[:end], widths[:end], _Fields(block, starts[:n], lengths[:n])
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
        last = np.cumsum(widths) - 1
        starts = fields.starts[last - widths + 1]
        yield line_nos.tolist(), _Fields(fields.buf, starts,
                                         fields.starts[last] + fields.lengths[last] - starts)[:]


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


_MASKS = np.array([(1 << 8 * i) - 1 for i in range(8)] + [2**64 - 1], np.uint64)  # low i bytes


def _word_steps(words, starts, lengths) -> list:
    """Per 8-byte word k of the longest field of `lengths` bytes from `starts` (word i of
    `words` is bytes i to i + 7): the fields longer than 8k bytes (a slice while that is all),
    k, the mask of the bytes of their word k that they hold (None where all 8), and those
    words, masked."""
    steps, left, rest = [], slice(None), lengths
    while True:
        if not len(rest) or rest.min() <= 0:
            more = np.flatnonzero(rest > 0)
            left, rest = np.arange(len(lengths))[left][more], rest[more]
            if not len(rest):
                return steps
        mask = None if rest.min() >= 8 else _MASKS[np.minimum(rest, 8)]
        word = words[starts[left] + 8 * len(steps)]
        steps.append((left, len(steps), mask, word if mask is None else word & mask))
        rest = rest - 8


def _hash(steps, lengths) -> np.ndarray:
    """A uint64 hash of each field: its length mixed with its words (see `_word_steps`)."""
    h = lengths.astype(np.uint64) * 0x9E3779B97F4A7C15
    for left, _, _, word in steps:
        h[left] = (h[left] ^ word) * 0xBF58476D1CE4E5B9
    h ^= h >> 31  # so that every byte reaches the low bits, which pick the slot
    h *= 0x94D049BB133111EB
    return h ^ h >> 29


def _extend(a, used, values):
    """`a` with `values` written from item `used` on, reallocated with a quarter more room than
    they need when they do not fit."""
    need = used + len(values)
    if need > len(a):
        a = np.concatenate([a[:used], np.zeros(need // 4 + len(values), a.dtype)])
    a[used:need] = values
    return a


class Interner:
    """Bijective article-name <-> dense-id table. Ids are contiguous from 0.

    Beside the names it keeps their UTF-8 bytes in one uint64 array (`_words`), each name
    zero-padded to whole words; `_ends[id + 1]` is one past the name's last byte, and the name
    starts at `_ends[id]` rounded up to a word. It also keeps a uint64 hash per id, and an
    open-addressing table of ids (`_slots`, int32, -1 where free) of a power-of-two size, at
    most a quarter full and probed linearly. A field whose hash matches a name's holds that
    name only if its length and its bytes match too."""

    def __init__(self):
        self._names: list[str] = []
        self._words = np.zeros(8, dtype=np.uint64)
        self._ends = np.zeros(8, dtype=np.int64)
        self._hashes = np.zeros(8, dtype=np.uint64)
        self._slots = np.full(8, -1, dtype=np.int32)

    def intern_all(self, names: list[str]) -> np.ndarray:
        """The int64 id of each name, interning new names in order of first appearance."""
        encoded = [*map(str.encode, names)]
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
        return self.intern_spans(b"".join([*encoded, bytes(8)]), np.cumsum(lengths) - lengths,
                                 lengths)

    def intern_spans(self, buf: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """`intern_all` of the UTF-8 names `buf[start:start + length]`, where `buf` ends in 8
        zero bytes past the last."""
        words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # unaligned, per byte
        ids, h = self._find(words, starts, lengths)
        missing = np.flatnonzero(ids < 0)
        h, lengths, starts = h[missing], lengths[missing], starts[missing]
        while len(missing):
            # the first field of each hash holds a new name, and so does each later field up
            # to the first that differs from the first of its hash, which a collision makes
            _, first, heads = np.unique(h, return_index=True, return_inverse=True)
            heads = first[heads]
            differ = lengths[heads] != lengths
            for left, k, mask, word in _word_steps(words, starts, lengths):
                theirs = words[np.minimum(starts[heads[left]] + 8 * k, len(words) - 1)]
                differ[left] |= (theirs if mask is None else theirs & mask) != word
            cut = np.append(np.flatnonzero(differ), len(h))[0]
            new = np.sort(first[first < cut])
            ids[missing[new]] = self._add(buf, words, starts[new], lengths[new], h[new])
            done = ~differ & (heads < cut)
            ids[missing[done]] = ids[missing[heads[done]]]
            missing, h, lengths, starts = (a[~done] for a in (missing, h, lengths, starts))
        return ids.astype(np.int64)

    def _find(self, words, starts, lengths, h=None, at=None) -> tuple[np.ndarray, np.ndarray]:
        """The id of the name each field holds, or -1 where it holds no interned name, and the
        fields' hashes `h`, probing from slot `at` on, or from the slot that `h` picks."""
        steps = _word_steps(words, starts, lengths)
        h = _hash(steps, lengths) if h is None else h
        mask = len(self._slots) - 1
        at = (h & mask).view(np.int64) if at is None else at
        f = self._slots[at]
        on = np.flatnonzero((f >= 0) & (self._hashes[f] != h))
        while len(on):  # on to the first slot that is free or holds an id of the field's hash
            at[on] = (at[on] + 1) & mask
            f[on] = self._slots[at[on]]
            on = on[(f[on] >= 0) & (self._hashes[f[on]] != h[on])]
        start = self._ends[f] + 7 & -8  # a start past the words compares some other word
        same = self._ends[f + 1] - start == lengths
        for left, k, _, word in steps:
            same[left] &= self._words.take((start[left] >> 3) + k, mode="clip") == word
        on = np.flatnonzero((f >= 0) & ~same)  # an id of the field's hash but other bytes
        f[~same] = -1
        if len(on):
            f[on] = self._find(words, starts[on], lengths[on], h[on], (at[on] + 1) & mask)[0]
        return f, h

    def _add(self, buf, words, starts, lengths, h) -> np.ndarray:
        """Intern the distinct new names of these fields, in their order; their ids."""
        n, nwords = len(self._names), lengths + 7 >> 3
        self._names += [buf[a:a + k].decode() for a, k in zip(starts.tolist(), lengths.tolist())]
        size, at = self._ends[n] + 7 >> 3, np.cumsum(nwords) - nwords  # each name's first word
        new = words[np.repeat(starts - 8 * at, nwords) + 8 * np.arange(nwords.sum())]
        last = nwords > 0
        new[(at + nwords - 1)[last]] &= _MASKS[(lengths - 1)[last] % 8 + 1]
        self._words = _extend(self._words, size, new)
        self._ends = _extend(self._ends, n + 1, 8 * (size + at) + lengths)
        self._hashes = _extend(self._hashes, n, h)
        slots, ids = 1 << (4 * len(self._names) - 1).bit_length(), np.arange(n, len(self._names))
        if slots > len(self._slots):  # a larger table places every id again
            self._slots, ids = np.full(slots, -1, dtype=np.int32), np.arange(len(self._names))
        mask = len(self._slots) - 1
        at = (self._hashes[ids] & mask).view(np.int64)
        while len(ids):  # of the ids that probe a free slot, one takes it
            free = self._slots[at] < 0
            self._slots[at[free]] = ids[free]
            lost = self._slots[at] != ids
            ids, at = ids[lost], (at[lost] + 1) & mask
        return np.arange(n, len(self._names))

    def names(self, ids) -> list[str]:
        """The name of each id."""
        return [*map(self._names.__getitem__, np.asarray(ids).tolist())]

    def __len__(self):
        return len(self._names)

    def write_tsv(self, path):
        write_rows(path, zip(map(str, range(len(self._names))), self._names))


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
    for line_nos, _, fields in _chunks(path, 2):
        if not fields.lengths.all():
            raise ParseError(path, int(line_nos[fields.lengths.argmin() // 2]),
                             "empty article name")
        sources, targets = interner.intern_spans(*fields.take()).reshape(-1, 2).T
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
        kept = np.flatnonzero([*map(CLICK_LINK_TYPES.__contains__, fields[2::4])])
        skipped += len(line_nos) - len(kept)
        named = fields.lengths.reshape(-1, 4)[:, :2].all(1)  # a prev and a curr, of any type
        blank = len(named) if named.all() else int(named.argmin())  # the first row without
        above = kept[:np.searchsorted(kept, blank)]  # the link rows above it
        clicks = []
        for line_no, count_str in zip(line_nos[above].tolist(), fields[above * 4 + 3]):
            count = _parse(int, count_str, path, line_no, "count")
            if count < 1:
                raise ParseError(path, line_no, "non-positive count %d" % count)
            total += count
            if total >= 2**63:
                raise ParseError(path, line_no, "click total reaches 2**63")
            clicks.append(count)
        if blank < len(named):
            raise ParseError(path, int(line_nos[blank]), "empty article name")
        counts.append(np.array(clicks, dtype=np.int64))
        ids = interner.intern_spans(*fields.take(kept[:, None] * 4 + [0, 1]))
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
