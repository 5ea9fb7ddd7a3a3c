"""Per-item reference implementations that the tests check the vectorized code against."""

import numpy as np
from scipy.special import expit, log_expit

from navsynth.graph import ParseError, open_text


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


def rows(path, ncols):
    """(line_no, fields) of each non-blank line of a TSV file of `ncols` columns, one line at a
    time."""
    with open_text(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != ncols:
                raise ParseError(path, line_no, "expected %d columns" % ncols)
            yield line_no, parts


def edge_ids(path, interner) -> list[tuple[int, int]]:
    """The (source, target) ids of each row of an edge list, interned one name at a time."""
    ids = []
    for line_no, (source, target) in rows(path, 2):
        if not source or not target:
            raise ParseError(path, line_no, "empty article name")
        ids.append((interner.intern(source), interner.intern(target)))
    return ids


def corpus(path, interner) -> tuple[str, list[list[int]]]:
    """The kind and the id sequences of a corpus file, one line and one name at a time."""
    kind, sequences = "Logs", []
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
            sequences.append([interner.intern(name) for name in names])
    return kind, sequences
