"""Downstream evaluations: next-article prediction, link prediction, relatedness, topic classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import EmbeddingTable
from .graph import HyperlinkGraph, _lookup, pair_keys, unpack_pairs
from .sessions import SequenceCorpus, corpus_triples, count_triples
from .stats import f1_micro_macro, rng_stream, spearman


# ---------------------------------------------------------------- next article

def _count_of(keys: np.ndarray, counts: np.ndarray, query) -> np.ndarray:
    """The count of each query key in the sorted unique `keys`; 0 where absent."""
    return np.append(counts, 0)[_lookup(keys, query)]


@dataclass
class Markov2Model:
    """Pure count model over (prev, current) -> next transitions. No smoothing.

    Sorted packed (current, prev) `contexts`; sorted packed (context index, next) `keys`, as
    `sessions.count_triples` gives them."""

    contexts: np.ndarray
    keys: np.ndarray
    counts: np.ndarray


def fit_markov2(pages: np.ndarray, starts: np.ndarray) -> Markov2Model:
    """Count the windows of `pages` that start at `starts` (see `corpus_triples`)."""
    return Markov2Model(*count_triples(pages, starts))


@dataclass
class MrrResult:
    mrr: float
    reciprocal_ranks: np.ndarray
    num_queries: int


def evaluate_mrr(model: Markov2Model, graph: HyperlinkGraph, test_triples,
                 compared_models: list[Markov2Model] | None = None) -> MrrResult:
    """Mean reciprocal rank of the true next article over test triples.

    Candidates are the out-neighbors of the middle article, ranked by count
    in the query's context, ties by ascending id. A target that is not a
    candidate scores 0. Given `compared_models`, only queries whose context
    has training observations in EVERY compared model are kept; an empty list
    keeps every query.
    """
    test = np.asarray(test_triples, dtype=np.int64).reshape(-1, 3)
    if not len(test):
        raise ValueError("empty test split")
    if compared_models is not None:
        keys = pair_keys(test[:, 1], test[:, 0])
        keep = np.ones(len(test), dtype=bool)
        for m in compared_models:
            keep &= _lookup(m.contexts, keys) < len(m.contexts)
        test = test[keep]
        if not len(test):
            raise ValueError("empty test set after filtering")
    s1, s2, target = test.T
    # one row per (query, candidate)
    degree = graph.indptr[s2 + 1] - graph.indptr[s2]
    query = np.repeat(np.arange(len(test)), degree)
    candidate = graph.indices[np.arange(len(query))
                              + np.repeat(graph.indptr[s2] - np.cumsum(degree) + degree, degree)]
    # an unseen context gets index len(contexts), which no key holds
    context = _lookup(model.contexts, pair_keys(s2, s1))
    count = _count_of(model.keys, model.counts, pair_keys(context[query], candidate))
    target_count = _count_of(model.keys, model.counts, pair_keys(context, target))[query]
    ahead = (count > target_count) | ((count == target_count) & (candidate < target[query]))
    rank = 1 + np.bincount(query[ahead], minlength=len(test))
    found = np.bincount(query, weights=candidate == target[query], minlength=len(test)) > 0
    rrs = np.where(found, 1.0 / rank, 0.0)
    return MrrResult(float(rrs.mean()), rrs, len(rrs))


def next_article_rows(graph: HyperlinkGraph, reference: SequenceCorpus, train,
                      seed: int) -> list[tuple]:
    """(dataset, metric, value) rows: per (name, corpus) pair of `train`, the MRR over every
    and over the filtered `make_split` test triples of `reference` of a Markov-2 model fit to
    the corpus, or to the train triples of `reference` where the corpus is None. `train` is
    read once, in order, so a generator that loads each corpus holds one at a time. A
    `reference` with fewer than 3 triples leaves no test triple, which is an error."""
    starts = corpus_triples(reference)
    if len(starts) < 3:
        raise ValueError("the reference has %d windows of 3 pages; 3 are needed" % len(starts))
    split = make_split(len(starts), seed=seed)
    test = reference.pages[starts[split.test, None] + np.arange(3)]
    models = {}
    for name, corpus in train:
        models[name] = (fit_markov2(reference.pages, starts[split.train]) if corpus is None
                        else fit_markov2(corpus.pages, corpus_triples(corpus)))
        del corpus  # hold no corpus after its model is fit
    return [(name, metric, "%.6f" % evaluate_mrr(model, graph, test, compared).mrr)
            for name, model in models.items()
            for metric, compared in (("mrr_all", None), ("mrr_filtered", [*models.values()]))]


# ---------------------------------------------------------------- link prediction

@dataclass
class LabeledLinkSet:
    """Sorted packed (source, target) keys of the positive and negative links."""

    positives: np.ndarray
    negatives: np.ndarray


def _path_counts(corpus: SequenceCorpus, first: np.ndarray,
                 second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys (s, t), s != t, s in the `first` page mask and t in the `second`,
    with s strictly before t in some sequence; and per key, the number of such sequences."""
    pages, lengths = corpus.pages, np.diff(corpus.offsets)
    sequence = np.repeat(np.arange(len(lengths)), lengths)
    ends = corpus.offsets[1:][sequence]
    pos = np.flatnonzero(first[pages])
    hits = [np.zeros((0, 2), dtype=np.int64)]  # (pair key, sequence) rows
    for offset in range(1, int(lengths.max(initial=0))):
        pos = pos[pos + offset < ends[pos]]
        s, t = pages[pos], pages[pos + offset]
        hit = second[t] & (s != t)
        hits.append(np.column_stack((pair_keys(s[hit], t[hit]), sequence[pos[hit]])))
    return np.unique(np.unique(np.concatenate(hits), axis=0)[:, 0], return_counts=True)


def build_added_links(old_graph: HyperlinkGraph, new_graph: HyperlinkGraph,
                      corpus: SequenceCorpus, min_paths: int) -> LabeledLinkSet:
    """Positives: new-graph edges that are not old edges, with an indirect path (s strictly
    before t) in at least `min_paths` sequences. Negatives: the pairs (s, t), s != t, of a
    positive's source and a positive's target that are neither positives nor old edges, with
    indirect paths in at least `min_paths` sequences."""
    old_keys = pair_keys(*old_graph.edge_arrays())  # sorted: CSR order is key order
    added = pair_keys(*new_graph.edge_arrays())
    added = added[_lookup(old_keys, added) == len(old_keys)]
    # the masks cover both graphs and the corpus pages interned after them
    size = max(old_graph.num_nodes, new_graph.num_nodes, int(corpus.pages.max(initial=-1)) + 1)

    def masks(keys):
        return [np.bincount(ids, minlength=size) > 0 for ids in unpack_pairs(keys)]
    counts = _count_of(*_path_counts(corpus, *masks(added)), added)
    positives = added[counts >= min_paths]
    if not len(positives):
        raise ValueError("no positive examples: 0 of %d added links reach --min-paths %d "
                         "(most: %d sequences)" % (len(added), min_paths, counts.max(initial=0)))
    pairs, counts = _path_counts(corpus, *masks(positives))
    negatives = pairs[(counts >= min_paths) & (_lookup(positives, pairs) == len(positives))
                      & (_lookup(old_keys, pairs) == len(old_keys))]
    return LabeledLinkSet(positives, negatives)


def rank_links(corpus: SequenceCorpus, keys) -> tuple[np.ndarray, np.ndarray]:
    """Rank packed (s, t) link keys by path proportion p(s, t) = N(s, t) / N(s) descending,
    ties by (s, t) id order. N(s) counts the sequences starting at s; N(s, t) those of them
    that visit t at a later position, and N(s, s) = 0.

    Returns (ranked, excluded) key arrays where excluded holds the links with
    no sequence starting at s (no prediction can be made).
    """
    pages, first = corpus.pages, corpus.pages[corpus.offsets[:-1]]
    starts, start_counts = np.unique(first, return_counts=True)
    sequence = np.repeat(np.arange(len(corpus)), np.diff(corpus.offsets))
    later = pages != first[sequence]
    # the distinct later pages of each sequence, then their (start, page) keys
    seq, page = unpack_pairs(np.unique(pair_keys(sequence[later], pages[later])))
    pairs, pair_counts = np.unique(pair_keys(first[seq], page), return_counts=True)
    keys = np.asarray(keys, dtype=np.int64)
    n_s = _count_of(starts, start_counts, unpack_pairs(keys)[0])
    defined = n_s > 0
    scored = keys[defined]
    p = _count_of(pairs, pair_counts, scored) / n_s[defined]
    return scored[np.lexsort((scored, -p))], keys[~defined]


@dataclass
class PrecisionAtK:
    k: int
    effective_k: int
    precision: float
    truncated: bool


def precision_at_k(ranked, labels: LabeledLinkSet, ks) -> list[PrecisionAtK]:
    """Fraction of positives among the top-k ranked link keys, per requested k."""
    hits = np.cumsum(_lookup(labels.positives, ranked) < len(labels.positives))
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


def link_prediction_rows(old_graph: HyperlinkGraph, new_graph: HyperlinkGraph,
                         reference: SequenceCorpus, corpora, min_paths: int,
                         ks) -> list[tuple]:
    """(dataset, metric, value) rows: per (name, corpus) pair of `corpora`, read once after
    the labels, the precision at each k of `ks` of the corpus's ranking of the links that
    `build_added_links` labels on `reference`."""
    labels = build_added_links(old_graph, new_graph, reference, min_paths=min_paths)
    candidates = np.union1d(labels.positives, labels.negatives)
    return [(name, "precision_at_%d" % r.k, "%.6f" % r.precision)
            for name, corpus in corpora
            for r in precision_at_k(rank_links(corpus, candidates)[0], labels, ks)]


# ---------------------------------------------------------------- relatedness

@dataclass
class RelatednessResult:
    rho: float
    num_pairs: int
    num_dropped: int


def relatedness_eval(emb: EmbeddingTable, pairs) -> RelatednessResult:
    """Spearman correlation between embedding cosine similarities and human scores.

    `pairs` is (ids, scores): an (n, 2) int64 array of article ids and n float scores.
    Pairs with either article missing from the embedding are dropped and
    counted; fewer than 3 surviving pairs is an error.
    """
    ids, scores = pairs
    rows = emb.rows(ids)
    covered = (rows >= 0).all(axis=1)
    used = int(covered.sum())
    if used < 3:
        raise ValueError("fewer than 3 pairs covered by the embedding")
    sims = emb.cosines(rows[covered, 0], rows[covered, 1])
    return RelatednessResult(spearman(sims, scores[covered]), used, len(scores) - used)


# ---------------------------------------------------------------- topic classification

TRAIN_FRACTION, VALIDATION_FRACTION = 0.8, 0.1  # the rest is the test split
# full-batch logistic regression per topic
LOGREG_L2, LOGREG_EPOCHS, LOGREG_LR = 1.0, 100, 0.1


@dataclass
class TrainTestSplit:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def make_split(num_items: int, seed: int = 0) -> TrainTestSplit:
    perm = rng_stream(seed, 0).permutation(num_items)
    n_train = round(TRAIN_FRACTION * num_items)
    # at most all but one of the rest, so that 3 or more items leave a test item
    n_val = max(0, min(round(VALIDATION_FRACTION * num_items), num_items - n_train - 1))
    return TrainTestSplit(perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:])


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


def train_logreg(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Deterministic full-batch gradient descent with lr halving on loss increase."""
    w = np.zeros(x.shape[1])
    b = 0.0
    lr = LOGREG_LR
    prev_loss = np.inf
    for _ in range(LOGREG_EPOCHS):
        loss, gw, gb = logreg_loss_grad(w, b, x, y, LOGREG_L2)
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
                         split: TrainTestSplit,
                         num_topics: int = 64) -> TopicClassificationResult:
    """One-vs-rest logistic regression over article embeddings.

    `labels` maps article id to its topic-id set; every labeled article must
    be covered by the embedding. Split indices refer to the sorted list of
    labeled articles; an empty test split is an error.
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
    if not len(split.test):
        raise ValueError("empty test split")

    x_train, y_train = x[split.train], y[split.train]
    x_test, y_test = x[split.test], y[split.test]
    predictions = np.zeros_like(y_test)
    degenerate = []
    for topic in range(num_topics):
        yt = y_train[:, topic].astype(float)
        if not yt.any():
            degenerate.append(topic)
            continue  # all-negative prediction
        w, b = train_logreg(x_train, yt)
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


def relative_difference_rows(values: dict, baseline: str) -> list[tuple]:
    """(dataset, metric, relative difference) rows of each (dataset, metric) -> value against
    the `baseline` dataset's value of the metric, where that exists and is not 0."""
    return [(dataset, metric, "%.4f" % relative_difference(values[baseline, metric], value))
            for (dataset, metric), value in values.items()
            if dataset != baseline and values.get((baseline, metric))]
