"""Downstream evaluations: next-article prediction, link prediction, relatedness, topic classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import EmbeddingTable
from .graph import HyperlinkGraph, pair_keys, unpack_pairs
from .sessions import SequenceCorpus, corpus_triples  # noqa: F401 (re-exported)
from .stats import f1_micro_macro, rng_stream, spearman


# ---------------------------------------------------------------- next article

def _lookup(keys: np.ndarray, query) -> np.ndarray:
    """Index of each query key in the sorted unique `keys`; len(keys) where absent."""
    i = np.searchsorted(keys, query)
    return np.where(np.searchsorted(keys, query, side="right") > i, i, len(keys))


def _count_of(keys: np.ndarray, counts: np.ndarray, query) -> np.ndarray:
    """The count of each query key in the sorted unique `keys`; 0 where absent."""
    return np.append(counts, 0)[_lookup(keys, query)]


@dataclass
class Markov2Model:
    """Pure count model over (prev, current) -> next transitions. No smoothing.

    Sorted packed (prev, current) `contexts`; sorted packed (context index, next) `keys`."""

    contexts: np.ndarray
    keys: np.ndarray
    counts: np.ndarray


def fit_markov2(triples) -> Markov2Model:
    """Count (source, middle, target) rows."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    contexts, context = np.unique(pair_keys(triples[:, 0], triples[:, 1]), return_inverse=True)
    keys, counts = np.unique(pair_keys(context, triples[:, 2]), return_counts=True)
    return Markov2Model(contexts, keys, counts)


@dataclass
class MrrResult:
    mrr: float
    reciprocal_ranks: np.ndarray
    num_queries: int


def evaluate_mrr(model: Markov2Model, graph: HyperlinkGraph, test_triples,
                 mode: str = "all",
                 compared_models: list[Markov2Model] | None = None) -> MrrResult:
    """Mean reciprocal rank of the true next article over test triples.

    Candidates are the out-neighbors of the middle article, ranked by count
    in the query's context, ties by ascending id. A target that is not a
    candidate scores 0. In "filtered" mode, only queries whose context has
    training observations in EVERY compared model are kept.
    """
    if mode not in ("all", "filtered"):
        raise ValueError("mode must be 'all' or 'filtered'")
    if mode == "filtered" and not compared_models:
        raise ValueError("filtered mode requires the list of compared models")
    test = np.asarray(test_triples, dtype=np.int64).reshape(-1, 3)
    if mode == "filtered":
        keys = pair_keys(test[:, 0], test[:, 1])
        seen = [_lookup(m.contexts, keys) < len(m.contexts) for m in compared_models]
        test = test[np.logical_and.reduce(seen)]
    if not len(test):
        raise ValueError("empty test set after filtering")
    s1, s2, target = test.T
    # one row per (query, candidate)
    degree = graph.indptr[s2 + 1] - graph.indptr[s2]
    query = np.repeat(np.arange(len(test)), degree)
    candidate = graph.indices[np.arange(len(query))
                              + np.repeat(graph.indptr[s2] - np.cumsum(degree) + degree, degree)]
    # an unseen context gets index len(contexts), which no key holds
    context = _lookup(model.contexts, pair_keys(s1, s2))
    count = _count_of(model.keys, model.counts, pair_keys(context[query], candidate))
    target_count = _count_of(model.keys, model.counts, pair_keys(context, target))[query]
    ahead = (count > target_count) | ((count == target_count) & (candidate < target[query]))
    rank = 1 + np.bincount(query[ahead], minlength=len(test))
    found = np.bincount(query, weights=candidate == target[query], minlength=len(test)) > 0
    rrs = np.where(found, 1.0 / rank, 0.0)
    return MrrResult(float(rrs.mean()), rrs, len(rrs))


# ---------------------------------------------------------------- link prediction

@dataclass
class LabeledLinkSet:
    """Sorted packed (source, target) keys of the positive and negative links."""

    positives: np.ndarray
    negatives: np.ndarray


def _indirect_path_counts(corpus: SequenceCorpus, candidates: np.ndarray) -> np.ndarray:
    """Number of sequences with s strictly before t, per sorted unique candidate key (s, t).

    Callers pass no old-graph edge: those never qualify as indirect paths.
    """
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


def build_added_links(old_graph: HyperlinkGraph, new_graph: HyperlinkGraph,
                      corpus: SequenceCorpus, min_paths: int = 10) -> LabeledLinkSet:
    """Label added links as positives and endpoint-sharing non-links as negatives.

    Positives: edges present in the new graph but not the old one, with at
    least `min_paths` sequences containing an indirect path. Negatives: pairs
    (s, t') and (s', t) over positive endpoints that are neither old edges
    nor positives, again with at least `min_paths` indirect-path sequences.
    """
    old_keys = pair_keys(*old_graph.edge_arrays())
    added = np.setdiff1d(pair_keys(*new_graph.edge_arrays()), old_keys, assume_unique=True)
    positives = added[_indirect_path_counts(corpus, added) >= min_paths]
    if not len(positives):
        raise ValueError("no positive examples")

    sources, targets = (np.unique(ids) for ids in unpack_pairs(positives))
    grid = pair_keys(np.repeat(sources, len(targets)), np.tile(targets, len(sources)))
    excluded = np.hstack([positives, old_keys, pair_keys(sources, sources)])  # disjoint parts
    candidates = np.setdiff1d(grid, excluded, assume_unique=True)
    negatives = candidates[_indirect_path_counts(corpus, candidates) >= min_paths]
    return LabeledLinkSet(positives, negatives)


class PathProportions:
    """Precomputed p(s, t) = N(s, t) / N(s) over a corpus.

    N(s) counts sequences starting at s; N(s, t) those that also visit t at
    a later position.
    """

    def __init__(self, corpus: SequenceCorpus):
        pages, first = corpus.pages, corpus.pages[corpus.offsets[:-1]]
        self._starts, self._start_counts = np.unique(first, return_counts=True)
        sequence = np.repeat(np.arange(len(corpus)), np.diff(corpus.offsets))
        later = pages != first[sequence]
        # the distinct later pages of each sequence, then their (start, page) keys
        seq, page = unpack_pairs(np.unique(pair_keys(sequence[later], pages[later])))
        self._pairs, self._pair_counts = np.unique(pair_keys(first[seq], page), return_counts=True)

    def proportion(self, sources, targets):
        """p(s, t) of each (s, t); a ValueError when no sequence starts at some s."""
        n_s = _count_of(self._starts, self._start_counts, sources)
        if np.any(n_s == 0):
            raise ValueError("no sequence starts at %d: proportion undefined"
                             % np.extract(n_s == 0, sources)[0])
        return _count_of(self._pairs, self._pair_counts, pair_keys(sources, targets)) / n_s

    def defined(self, sources):
        """Whether some sequence starts at each s."""
        return _count_of(self._starts, self._start_counts, sources) > 0


def rank_links(corpus: SequenceCorpus, keys) -> tuple[np.ndarray, np.ndarray]:
    """Rank packed (s, t) link keys by path proportion descending, ties by (s, t) id order.

    Returns (ranked, excluded) key arrays where excluded holds the links with
    no sequence starting at s (no prediction can be made).
    """
    props = PathProportions(corpus)
    keys = np.asarray(keys, dtype=np.int64)
    sources, targets = unpack_pairs(keys)
    defined = props.defined(sources)
    scored = keys[defined]
    p = props.proportion(sources[defined], targets[defined])
    return scored[np.lexsort((scored, -p))], keys[~defined]


@dataclass
class PrecisionAtK:
    k: int
    effective_k: int
    precision: float
    truncated: bool


def precision_at_k(ranked, labels: LabeledLinkSet, ks) -> list[PrecisionAtK]:
    """Fraction of positives among the top-k ranked link keys, per requested k."""
    hits = np.cumsum(np.isin(ranked, labels.positives))
    results = []
    for k in ks:
        if k < 1:
            raise ValueError("k must be >= 1")
        eff = min(k, len(ranked))
        if eff == 0:
            results.append(PrecisionAtK(k, 0, 0.0, True))
            continue
        results.append(PrecisionAtK(k, eff, int(hits[eff - 1]) / eff, eff < k))
    return results


# ---------------------------------------------------------------- relatedness

@dataclass
class RelatednessResult:
    rho: float
    num_pairs: int
    num_dropped: int


def relatedness_eval(emb: EmbeddingTable, pairs) -> RelatednessResult:
    """Spearman correlation between embedding cosine similarities and human scores.

    Pairs with either article missing from the embedding are dropped and
    counted; fewer than 3 surviving pairs is an error.
    """
    pairs = np.array(pairs, dtype=object).reshape(-1, 3)
    rows = emb.rows(pairs[:, :2].astype(np.int64))
    covered = (rows >= 0).all(axis=1)
    used = int(covered.sum())
    if used < 3:
        raise ValueError("fewer than 3 pairs covered by the embedding")
    sims = emb.cosines(rows[covered, 0], rows[covered, 1])
    return RelatednessResult(spearman(sims, pairs[covered, 2].astype(float)),
                             used, len(pairs) - used)


# ---------------------------------------------------------------- topic classification

@dataclass
class TrainTestSplit:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int


def make_split(num_items: int, fractions=(0.8, 0.1, 0.1), seed: int = 0) -> TrainTestSplit:
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    perm = rng_stream(seed, 0).permutation(num_items)
    n_train = round(fractions[0] * num_items)
    n_val = round(fractions[1] * num_items)
    return TrainTestSplit(perm[:n_train], perm[n_train:n_train + n_val],
                          perm[n_train + n_val:], seed)


def logreg_loss_grad(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy with L2 penalty on the weights (not the bias)."""
    n = len(y)
    z = x @ w + b
    # log(1 + exp(z)) computed stably
    log1pexp = np.logaddexp(0.0, z)
    loss = float((log1pexp - y * z).mean() + 0.5 * l2 * (w @ w) / n)
    p = 1.0 / (1.0 + np.exp(-z))
    resid = p - y
    grad_w = x.T @ resid / n + l2 * w / n
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def train_logreg(x: np.ndarray, y: np.ndarray, l2: float = 1.0,
                 epochs: int = 100, lr: float = 0.1) -> tuple[np.ndarray, float]:
    """Deterministic full-batch gradient descent with lr halving on loss increase."""
    w = np.zeros(x.shape[1])
    b = 0.0
    prev_loss = np.inf
    for _ in range(epochs):
        loss, gw, gb = logreg_loss_grad(w, b, x, y, l2)
        if loss > prev_loss:
            lr *= 0.5
        prev_loss = loss
        w = w - lr * gw
        b = b - lr * gb
    return w, b


@dataclass
class TopicClassificationResult:
    micro_f1: float
    macro_f1: float
    # topics with no training positives; their classifier predicts all-negative
    degenerate_topics: list[int]


def topic_classification(emb: EmbeddingTable, labels: dict[int, set[int]],
                         split: TrainTestSplit, num_topics: int = 64,
                         l2: float = 1.0, epochs: int = 100,
                         lr: float = 0.1) -> TopicClassificationResult:
    """One-vs-rest logistic regression over article embeddings.

    `labels` maps article id to its topic-id set; every labeled article must
    be covered by the embedding. Split indices refer to the sorted list of
    labeled articles.
    """
    articles = sorted(labels)
    rows = emb.rows(articles)
    if (rows < 0).any():
        raise ValueError("articles without embeddings: %r"
                         % np.asarray(articles)[rows < 0][:5].tolist())
    x = emb.vectors[rows]
    y = np.zeros((len(articles), num_topics), dtype=bool)
    for i, a in enumerate(articles):
        for topic in labels[a]:
            if not 0 <= topic < num_topics:
                raise ValueError("topic id %d out of range" % topic)
            y[i, topic] = True

    x_train, y_train = x[split.train], y[split.train]
    x_test, y_test = x[split.test], y[split.test]
    predictions = np.zeros_like(y_test)
    degenerate = []
    for topic in range(num_topics):
        yt = y_train[:, topic].astype(float)
        if not yt.any():
            degenerate.append(topic)
            continue  # all-negative prediction
        w, b = train_logreg(x_train, yt, l2=l2, epochs=epochs, lr=lr)
        predictions[:, topic] = (x_test @ w + b) >= 0.0  # p >= 0.5
    micro, macro = f1_micro_macro(predictions, y_test)
    return TopicClassificationResult(micro, macro, degenerate)


# ---------------------------------------------------------------- effect sizes

def relative_difference(a: float, b: float) -> float:
    """Percentage relative difference 100 * (a - b) / a.

    Negative means b outperforms a.
    """
    if a == 0:
        raise ValueError("relative difference undefined for a = 0")
    return 100.0 * (a - b) / a
