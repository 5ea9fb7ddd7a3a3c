"""Downstream evaluations: next-article prediction, link prediction, relatedness, topic classification."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import EmbeddingTable
from .graph import HyperlinkGraph
from .sessions import SequenceCorpus, corpus_triples  # noqa: F401 (re-exported)
from .stats import f1_micro_macro, rng_stream, spearman


# ---------------------------------------------------------------- next article

@dataclass
class Markov2Model:
    """Pure count model over (prev, current) -> next transitions. No smoothing."""

    counts: dict[tuple[int, int], dict[int, int]] = field(default_factory=dict)

    def context_total(self, s1: int, s2: int) -> int:
        return sum(self.counts.get((s1, s2), {}).values())

    def has_context(self, s1: int, s2: int) -> bool:
        return (s1, s2) in self.counts


def fit_markov2(triples) -> Markov2Model:
    model = Markov2Model()
    for s1, s2, t in triples:
        row = model.counts.setdefault((s1, s2), {})
        row[t] = row.get(t, 0) + 1
    return model


def rank_next(model: Markov2Model, graph: HyperlinkGraph, s1: int, s2: int) -> list[int]:
    """Out-neighbors of s2 ranked by P(t | s1, s2) descending.

    Zero-count candidates follow counted ones; ties break by ascending id,
    so rankings are deterministic and comparable across models.
    """
    candidates = graph.successors(s2)
    row = model.counts.get((s1, s2), {})
    return sorted((int(t) for t in candidates), key=lambda t: (-row.get(t, 0), t))


@dataclass
class MrrResult:
    mrr: float
    reciprocal_ranks: np.ndarray
    num_queries: int


def evaluate_mrr(model: Markov2Model, graph: HyperlinkGraph, test_triples,
                 mode: str = "all",
                 compared_models: list[Markov2Model] | None = None) -> MrrResult:
    """Mean reciprocal rank of the true next article over test triples.

    Queries whose target is absent from the candidate list score 0. In
    "filtered" mode, only queries whose context has training observations in
    EVERY compared model are kept.
    """
    if mode not in ("all", "filtered"):
        raise ValueError("mode must be 'all' or 'filtered'")
    if mode == "filtered" and not compared_models:
        raise ValueError("filtered mode requires the list of compared models")
    rrs = []
    for s1, s2, t in test_triples:
        if mode == "filtered" and not all(m.has_context(s1, s2) for m in compared_models):
            continue
        ranked = rank_next(model, graph, s1, s2)
        try:
            rank = ranked.index(t) + 1
        except ValueError:
            rrs.append(0.0)
            continue
        rrs.append(1.0 / rank)
    if not rrs:
        raise ValueError("empty test set after filtering")
    rrs = np.array(rrs)
    return MrrResult(float(rrs.mean()), rrs, len(rrs))


# ---------------------------------------------------------------- link prediction

@dataclass
class LabeledLinkSet:
    positives: set[tuple[int, int]]
    negatives: set[tuple[int, int]]


def _indirect_path_counts(corpus: SequenceCorpus,
                          candidates: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Number of sequences with s strictly before t, per candidate pair.

    Callers pass no old-graph edge: those never qualify as indirect paths.
    """
    counts: dict[tuple[int, int], int] = {}
    for seq in corpus.sequences:
        seen: set[tuple[int, int]] = set()
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                pair = (seq[i], seq[j])
                if pair in candidates:
                    seen.add(pair)
        for pair in seen:
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def build_added_links(old_graph: HyperlinkGraph, new_graph: HyperlinkGraph,
                      corpus: SequenceCorpus, min_paths: int = 10) -> LabeledLinkSet:
    """Label added links as positives and endpoint-sharing non-links as negatives.

    Positives: edges present in the new graph but not the old one, with at
    least `min_paths` sequences containing an indirect path. Negatives: pairs
    (s, t') and (s', t) over positive endpoints that are neither old edges
    nor positives, again with at least `min_paths` indirect-path sequences.
    """
    n = max(old_graph.num_nodes, new_graph.num_nodes)
    old_sources, old_targets = old_graph.edge_arrays()
    new_sources, new_targets = new_graph.edge_arrays()
    added_keys = np.setdiff1d(new_sources * n + new_targets, old_sources * n + old_targets,
                              assume_unique=True)
    added = set(zip((added_keys // n).tolist(), (added_keys % n).tolist()))
    added_counts = _indirect_path_counts(corpus, added)
    positives = {p for p in added if added_counts.get(p, 0) >= min_paths}
    if not positives:
        raise ValueError("no positive examples")

    sources = {s for s, _ in positives}
    targets = {t for _, t in positives}
    candidates = set()
    for s in sources:
        for t in targets:
            if s == t:
                continue
            pair = (s, t)
            if pair in positives or old_graph.has_edge(s, t):
                continue
            candidates.add(pair)
    neg_counts = _indirect_path_counts(corpus, candidates)
    negatives = {p for p in candidates if neg_counts.get(p, 0) >= min_paths}
    return LabeledLinkSet(positives, negatives)


class PathProportions:
    """Precomputed p(s, t) = N(s, t) / N(s) over a corpus.

    N(s) counts sequences starting at s; N(s, t) those that also visit t at
    a later position.
    """

    def __init__(self, corpus: SequenceCorpus):
        self._start_counts: dict[int, int] = {}
        self._pair_counts: dict[tuple[int, int], int] = {}
        for seq in corpus.sequences:
            s = seq[0]
            self._start_counts[s] = self._start_counts.get(s, 0) + 1
            for t in set(seq[1:]):
                if t != s:
                    self._pair_counts[(s, t)] = self._pair_counts.get((s, t), 0) + 1

    def proportion(self, s: int, t: int) -> float:
        n_s = self._start_counts.get(s, 0)
        if n_s == 0:
            raise ValueError("no sequence starts at %d: proportion undefined" % s)
        return self._pair_counts.get((s, t), 0) / n_s

    def defined(self, s: int) -> bool:
        return s in self._start_counts


def path_proportion(corpus: SequenceCorpus, s: int, t: int) -> float:
    return PathProportions(corpus).proportion(s, t)


def rank_links(corpus: SequenceCorpus, pairs) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Rank links by path proportion descending, ties by (s, t) id order.

    Returns (ranked, excluded) where excluded holds the pairs with no
    sequence starting at s (no prediction can be made).
    """
    props = PathProportions(corpus)
    scored = []
    excluded = []
    for s, t in pairs:
        if props.defined(s):
            scored.append((s, t))
        else:
            excluded.append((s, t))
    scored.sort(key=lambda p: (-props.proportion(*p), p))
    return scored, excluded


@dataclass
class PrecisionAtK:
    k: int
    effective_k: int
    precision: float
    truncated: bool


def precision_at_k(ranked_links, labels: LabeledLinkSet, ks) -> list[PrecisionAtK]:
    """Fraction of positives among the top-k ranked links, per requested k."""
    results = []
    for k in ks:
        if k < 1:
            raise ValueError("k must be >= 1")
        eff = min(k, len(ranked_links))
        if eff == 0:
            results.append(PrecisionAtK(k, 0, 0.0, True))
            continue
        hits = sum(1 for pair in ranked_links[:eff] if pair in labels.positives)
        results.append(PrecisionAtK(k, eff, hits / eff, eff < k))
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
    sims = []
    scores = []
    dropped = 0
    for a, b, score in pairs:
        if a not in emb or b not in emb:
            dropped += 1
            continue
        va, vb = emb.vector(a), emb.vector(b)
        sims.append(float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))))
        scores.append(float(score))
    if len(sims) < 3:
        raise ValueError("fewer than 3 pairs covered by the embedding")
    return RelatednessResult(spearman(sims, scores), len(sims), dropped)


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
    missing = [a for a in articles if a not in emb]
    if missing:
        raise ValueError("articles without embeddings: %r" % missing[:5])
    x = np.vstack([emb.vector(a) for a in articles])
    y = np.zeros((len(articles), num_topics), dtype=bool)
    for i, a in enumerate(articles):
        for topic in labels[a]:
            if topic >= num_topics:
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
