"""Reference implementations that the tests check the vectorized code against: per-item ones,
and earlier designs of the same result; and `from_sequences`, the tests' corpus of lists."""

import gzip
import math

import numpy as np
from scipy.special import expit, log_expit

from navsynth.downstream import LabeledLinkSet
from navsynth.graph import ParseError, _lookup, pair_keys, unpack_pairs
from navsynth.sessions import SequenceCorpus


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine distance undefined for zero vectors")
    return float(1.0 - np.dot(a, b) / (na * nb))


def vector(table, article: int) -> np.ndarray:
    """The embedding of one article in an EmbeddingTable."""
    row = table.rows(article)
    if row < 0:
        raise KeyError(article)
    return table.vectors[row]


def sgns_pair_loss(center_vec: np.ndarray, pos_out: np.ndarray,
                   neg_outs: np.ndarray) -> float:
    """Loss of one (center, positive, negatives) example:
    -log sigma(u_pos . v) - sum_n log sigma(-u_n . v).
    """
    loss = -log_expit(pos_out @ center_vec) - log_expit(-(neg_outs @ center_vec)).sum()
    return float(loss)


def sgns_pair_gradients(center_vec, pos_out, neg_outs):
    """Analytic gradients of sgns_pair_loss w.r.t. (center, positive, negatives)."""
    g_pos_score = expit(pos_out @ center_vec) - 1.0
    g_neg_score = expit(neg_outs @ center_vec)  # shape (negatives,)
    g_center = g_pos_score * pos_out + g_neg_score @ neg_outs
    g_pos = g_pos_score * center_vec
    g_negs = g_neg_score[:, None] * center_vec[None, :]
    return g_center, g_pos, g_negs


def sum_rows(ids, cols, weights, vectors):
    """The distinct ids, and for each the sum of weights[i] * vectors[cols[i]] over the entries
    i equal to it: one scipy CSR product, as SGNS summed its gradients before it dropped scipy."""
    from scipy import sparse
    rows, inv = np.unique(ids, return_inverse=True)
    hits = sparse.csr_matrix((weights, (inv, cols)), shape=(len(rows), len(vectors)))
    return rows, hits @ vectors


def sgns_whole_batch_gradients(w_in, w_out, centers, contexts, negatives):
    """`embeddings.sgns_batch_gradients` as one pass over the whole batch: the (B, 1 +
    negatives, dim) out rows gathered at once and every touched row summed by one sparse
    product. Returns (loss, (in_rows, g_in), (out_rows, g_out))."""
    out_ids = np.column_stack([contexts, negatives])
    v = w_in[centers]
    u = w_out[out_ids]
    scores = np.einsum("bd,bjd->bj", v, u)
    loss = -log_expit(scores[:, 0]).sum() - log_expit(-scores[:, 1:]).sum()
    g_scores = expit(scores)
    g_scores[:, 0] -= 1.0
    g_v = np.einsum("bj,bjd->bd", g_scores, u)
    b = np.arange(len(centers))
    return (float(loss), sum_rows(centers, b, np.ones(len(b)), g_v),
            sum_rows(out_ids.ravel(), np.repeat(b, out_ids.shape[1]), g_scores.ravel(), v))


def from_sequences(sequences, kind: str) -> SequenceCorpus:
    """The corpus of lists of ids; an empty sequence is refused."""
    lengths = [*map(len, sequences)]
    if 0 in lengths:
        raise ValueError("empty sequence %d" % lengths.index(0))
    offsets = np.cumsum([0, *lengths])
    pages = np.fromiter((a for s in sequences for a in s), dtype=np.int64, count=offsets[-1])
    return SequenceCorpus(pages, offsets, kind)


def triple_pages(triples) -> tuple[np.ndarray, np.ndarray]:
    """`(pages, starts)` whose windows are the given (source, middle, target) triples, in
    order: the triples laid end to end, each window starting at a multiple of 3."""
    pages = np.asarray(triples, dtype=np.int64).reshape(-1)
    return pages, np.arange(0, len(pages), 3)


def step(model, node: int, u: float) -> int:
    """The successor of `node` that uniform `u` picks: a search of the model's cumulative row."""
    lo, hi = model.indptr[node], model.indptr[node + 1]
    return int(model.indices[lo + model.cum[lo:hi].searchsorted(u * model.cum[hi - 1],
                                                                 side="right")])


def forest(readers, timestamps, articles, referrers, inactivity_ms):
    """(event indices in reading order, parent of each in that order): for each reader in the
    order of its key as bytes, one dict pass over its events sorted by timestamp."""
    order, parent = [], []
    for key in sorted(set(readers)):
        latest = {}  # article -> reading-order position of the reader's latest event on it
        for i in sorted((i for i, r in enumerate(readers) if r == key),
                        key=timestamps.__getitem__):
            j = latest.get(referrers[i])
            linked = j is not None and timestamps[i] - timestamps[order[j]] <= inactivity_ms
            parent.append(j if linked else -1)
            latest[articles[i]] = len(order)
            order.append(i)
    return order, parent


def root_to_leaf_paths(articles, parent, rng) -> list[list[int]]:
    """Per tree of two or more pages, in root order: the path from the root to a leaf that one
    `rng.integers(len(leaves))` picks from its leaves in reading order."""
    trees = {}  # root -> its pages in reading order; a parent comes before its children
    root = []
    for i, p in enumerate(parent):
        root.append(i if p < 0 else root[p])
        trees.setdefault(root[i], []).append(i)
    has_children = set(parent)
    paths = []
    for pages in trees.values():
        if len(pages) < 2:
            continue
        leaves = [i for i in pages if i not in has_children]
        node = leaves[int(rng.integers(len(leaves)))]
        path = []
        while node >= 0:
            path.append(articles[node])
            node = parent[node]
        paths.append(path[::-1])
    return paths


def intern(ids: dict, name: str) -> int:
    """The id of `name` in a name -> id dict, which gives a new name the next id."""
    return ids.setdefault(name, len(ids))


def name_ids(interner) -> dict:
    """name -> id of every name an Interner holds."""
    return {name: i for i, name in enumerate(interner.names(range(len(interner))))}


def parse(convert, text, path, line_no, what):
    try:
        return convert(text)
    except ValueError:
        raise ParseError(path, line_no, "invalid %s %r" % (what, text)) from None


def lines(path):
    """(line_no, line without its line end) of each line of a text file, gzipped if its path
    ends in .gz."""
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rt", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            yield line_no, line.rstrip("\n")


def rows(path, ncols):
    """(line_no, fields) of each non-blank line of a TSV file of `ncols` columns, one line at a
    time."""
    for line_no, line in lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != ncols:
            raise ParseError(path, line_no, "expected %d columns" % ncols)
        yield line_no, parts


def edge_ids(path, ids) -> list[tuple[int, int]]:
    """The (source, target) ids of each row of an edge list, interned one name at a time."""
    pairs = []
    for line_no, (source, target) in rows(path, 2):
        if not source or not target:
            raise ParseError(path, line_no, "empty article name")
        pairs.append((intern(ids, source), intern(ids, target)))
    return pairs


def corpus(path, ids) -> tuple[str, list[list[int]]]:
    """The kind and the id sequences of a corpus file, one line and one name at a time."""
    kind, sequences = "Logs", []
    for line_no, line in lines(path):
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#kind="):
                kind = line[len("#kind="):]
            continue
        names = line.split("\t")
        if "" in names:
            raise ParseError(path, line_no, "empty article name")
        sequences.append([intern(ids, name) for name in names])
    return kind, sequences


def interning(path) -> list[str]:
    """The names of an interning file, in id order, checked one row at a time: row k gives id
    k to a new name."""
    ids = {}
    for k, (line_no, (article_id, name)) in enumerate(rows(path, 2)):
        if parse(int, article_id, path, line_no, "id") != k or intern(ids, name) != k:
            raise ParseError(path, line_no, "non-contiguous interning ids")
    return [*ids]


def clickstream(path, ids) -> tuple[list, int]:
    """The sorted ((source, target), summed count) pairs of a clickstream's link rows, and the
    number of other rows."""
    sums, skipped, total = {}, 0, 0
    for line_no, (prev, curr, row_type, count_text) in rows(path, 4):
        if "" in (prev, curr):
            raise ParseError(path, line_no, "empty article name")
        if row_type != "link":
            skipped += 1
            continue
        count = parse(int, count_text, path, line_no, "count")
        if count < 1:
            raise ParseError(path, line_no, "non-positive count %d" % count)
        total += count
        if total >= 2**63:
            raise ParseError(path, line_no, "click total reaches 2**63")
        pair = intern(ids, prev), intern(ids, curr)
        sums[pair] = sums.get(pair, 0) + count
    return sorted(sums.items()), skipped


def pageview_events(path, ids) -> list[tuple]:
    """(reader rank, timestamp, article, referrer or -1) of each event row, where readers rank
    by their key's bytes."""
    events = []
    for line_no, (key_hex, ts, article, referrer) in rows(path, 4):
        if "" in (article, referrer):
            raise ParseError(path, line_no, "empty article name")
        key = parse(bytes.fromhex, key_hex, path, line_no, "reader key")
        stamp = parse(int, ts, path, line_no, "timestamp")
        if not -2**62 <= stamp < 2**62:
            raise ParseError(path, line_no, "timestamp %s outside [-2**62, 2**62)" % ts)
        events.append((key, stamp, -1 if referrer == "-" else intern(ids, referrer),
                       intern(ids, article)))
    rank = {key: r for r, key in enumerate(sorted({event[0] for event in events}))}
    return [(rank[key], stamp, article, referrer) for key, stamp, referrer, article in events]


def embeddings(path, ids) -> tuple[list[int], list[list[float]]]:
    """The article ids and vectors of an embeddings file, one line at a time."""
    vectors = {}
    numbered = lines(path)
    header = next(numbered, (1, ""))[1].split()
    if len(header) != 2:
        raise ParseError(path, 1, "expected 'N dim' header")
    n = parse(int, header[0], path, 1, "row count")
    dim = parse(int, header[1], path, 1, "dimension")
    if n < 0 or dim < 1:
        raise ParseError(path, 1, "expected N >= 0 and dim >= 1, got %d %d" % (n, dim))
    for line_no, line in numbered:
        line = line.rstrip()
        if not line:
            continue
        name, *values = line.rsplit(" ", dim)
        if len(values) != dim:
            raise ParseError(path, line_no, "expected %d values, got %d" % (dim, len(values)))
        if not name:
            raise ParseError(path, line_no, "empty article name")
        article = intern(ids, name)
        if article in vectors:
            raise ParseError(path, line_no, "duplicate article %r" % name)
        try:
            vector = np.array(values, dtype=float)
        except ValueError as e:
            raise ParseError(path, line_no, str(e)) from None
        if not vector.any():
            raise ParseError(path, line_no, "all-zero vector for article %r" % name)
        if not np.isfinite(vector).all():
            raise ParseError(path, line_no, "non-finite value for article %r" % name)
        vectors[article] = vector.tolist()
    if len(vectors) != n:
        raise ParseError(path, 1, "header declared %d rows, found %d" % (n, len(vectors)))
    return [*vectors], [*vectors.values()]


def finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def relatedness_pairs(path, ids) -> list[tuple[int, int, float]]:
    """(a, b, score) of each row of a relatedness pairs file."""
    pairs = []
    for line_no, (a, b, score) in rows(path, 3):
        if "" in (a, b):
            raise ParseError(path, line_no, "empty article name")
        pairs.append((intern(ids, a), intern(ids, b),
                      parse(finite_float, score, path, line_no, "score")))
    return pairs


def topic_labels(path, ids, covered, num_topics) -> dict:
    """Article id -> topic id set of a labels file, for articles in `covered`."""
    labels = {}
    for line_no, (name, topic_ids) in rows(path, 2):
        if not name:
            raise ParseError(path, line_no, "empty article name")
        topics = {parse(int, x, path, line_no, "topic") for x in topic_ids.split(",")}
        outside = sorted(t for t in topics if not 0 <= t < num_topics)
        if outside:
            raise ParseError(path, line_no, "topic %d outside [0, %d)" % (outside[0], num_topics))
        article = intern(ids, name)
        if article in labels:
            raise ParseError(path, line_no, "duplicate article %r" % name)
        if article not in covered:
            raise ParseError(path, line_no, "article %r has no vector" % name)
        labels[article] = topics
    return labels


def config(path, options) -> dict:
    """The settings of a key=value file, where `options` maps a key to its converter or None."""
    settings = {}
    for line_no, line in lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise ParseError(path, line_no, "unknown option %r" % key)
        settings[key] = parse(options[key] or str, value.strip(), path, line_no, key)
    return settings


def result_values(paths) -> dict:
    """(dataset, metric) -> value of result CSV files, skipping each file's column names."""
    values = {}
    for path in paths:
        first = True
        for line_no, line in lines(path):
            if not line or line.startswith("#"):
                continue
            if first and line.startswith("dataset,metric,"):
                first = False
                continue
            first = False
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(path, line_no, "expected 3 columns")
            key = (fields[0], fields[1])
            if key in values:
                raise ParseError(path, line_no, "duplicate row %r" % ",".join(key))
            values[key] = parse(float, fields[2], path, line_no, "value")
    return values


def indirect_path_counts(corpus, candidates: np.ndarray) -> np.ndarray:
    """Number of sequences with s strictly before t, per sorted unique candidate key (s, t)."""
    pages, lengths = corpus.pages, np.diff(corpus.offsets)
    sequence = np.repeat(np.arange(len(lengths)), lengths)
    ends = corpus.offsets[1:][sequence]
    pos = np.arange(len(pages))
    hits = [np.zeros(0, dtype=np.int64)]  # packed (candidate index, sequence) keys
    for offset in range(1, int(lengths.max(initial=0))):
        pos = pos[pos + offset < ends[pos]]
        found = _lookup(candidates, pair_keys(pages[pos], pages[pos + offset]))
        hit = found < len(candidates)
        hits.append(pair_keys(found[hit], sequence[pos[hit]]))
    return np.bincount(unpack_pairs(np.unique(np.concatenate(hits)))[0], minlength=len(candidates))


def added_links_by_grid(old_graph, new_graph, corpus, min_paths) -> LabeledLinkSet:
    """`build_added_links` as it was first built: count the added links' indirect paths, then
    those of every pair of the grid of positive sources x positive targets. The grid grows with
    the square of the positives."""
    old_keys = pair_keys(*old_graph.edge_arrays())
    added = pair_keys(*new_graph.edge_arrays())
    added = added[_lookup(old_keys, added) == len(old_keys)]
    positives = added[indirect_path_counts(corpus, added) >= min_paths]
    if not len(positives):
        raise ValueError("no positive examples")
    sources, targets = (np.unique(ids) for ids in unpack_pairs(positives))
    s, t = np.repeat(sources, len(targets)), np.tile(targets, len(sources))
    grid = pair_keys(s[s != t], t[s != t])  # sorted
    candidates = grid[(_lookup(positives, grid) == len(positives))
                      & (_lookup(old_keys, grid) == len(old_keys))]
    negatives = candidates[indirect_path_counts(corpus, candidates) >= min_paths]
    return LabeledLinkSet(positives, negatives)
