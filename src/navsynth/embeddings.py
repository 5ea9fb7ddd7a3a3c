"""Skip-gram-with-negative-sampling trainer over navigation sequences.

Sequences play the role of sentences and articles the role of tokens.
Training is mini-batch SGD over each epoch's shuffled (center, context)
pairs. Deterministic under a fixed seed (single worker).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit, log_expit

from .diffusion import EmbeddingTable
from .sessions import SequenceCorpus
from .stats import rng_stream

UNIGRAM_POWER = 0.75  # negatives are drawn from the unigram distribution to this power
# A batch applies the summed gradients of its pairs at once, so a row that
# many pairs of one batch hit takes one large step. The batch size keeps the
# busiest row's expected hits per batch at or below MAX_ROW_HITS: without
# that bound, the loss on corpora with a hub article diverged.
MAX_ROW_HITS = 32
MAX_BATCH = 512  # bounds the (batch, 1 + negatives, dim) work arrays


@dataclass
class SgnsConfig:
    dim: int = 128
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 0


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


def _sum_rows(ids, cols, weights, vectors):
    """The distinct ids and, for each id r, the sum of weights[i] * vectors[cols[i]]
    over the entries i with ids[i] == r."""
    rows, inv = np.unique(ids, return_inverse=True)
    hits = sparse.csr_matrix((weights, (inv, cols)), shape=(len(rows), len(vectors)))
    return rows, hits @ vectors


def sgns_batch_gradients(w_in, w_out, centers, contexts, negatives):
    """Total loss and summed gradients of a batch of examples.

    Example b is sgns_pair_loss(w_in[centers[b]], w_out[contexts[b]],
    w_out[negatives[b]]). Returns (loss, (in_rows, g_in), (out_rows, g_out)):
    the rows of each matrix that the batch touches, each with the sum of its
    sgns_pair_gradients over the batch.
    """
    out_ids = np.column_stack([contexts, negatives])  # (B, 1 + negatives)
    v = w_in[centers]
    u = w_out[out_ids]
    scores = np.einsum("bd,bjd->bj", v, u)
    loss = -log_expit(scores[:, 0]).sum() - log_expit(-scores[:, 1:]).sum()
    g_scores = expit(scores)
    g_scores[:, 0] -= 1.0
    g_v = np.einsum("bj,bjd->bd", g_scores, u)
    # the gradient of out row u_bj is g_scores[b, j] * v_b
    b = np.arange(len(centers))
    return (float(loss), _sum_rows(centers, b, np.ones(len(b)), g_v),
            _sum_rows(out_ids.ravel(), np.repeat(b, out_ids.shape[1]), g_scores.ravel(), v))


class SgnsTrainer:
    sequences = SequenceCorpus.sequences  # the kept sequences, from `pages` and `offsets`

    def __init__(self, corpus: SequenceCorpus, config: SgnsConfig):
        lengths = np.diff(corpus.offsets)
        pages = corpus.pages[np.repeat(lengths >= 2, lengths)]
        lengths = lengths[lengths >= 2]
        if not len(lengths):
            raise ValueError("no sequences of length >= 2 to train on")
        self.pages, self.offsets = pages, np.cumsum(np.append(0, lengths))
        self.config = config
        vocab, self._ids, counts = np.unique(pages, return_inverse=True,
                                             return_counts=True)
        self.vocab = vocab.tolist()
        # room to the left and right of each page within its sequence
        self._left = np.arange(len(pages)) - np.repeat(self.offsets[:-1], lengths)
        self._right = np.repeat(lengths, lengths) - 1 - self._left
        weights = counts ** UNIGRAM_POWER
        self._neg_cum = np.cumsum(weights)
        # expected hits on an article's rows per pair: as center or context
        # (its unigram frequency, twice) and as each of the negatives
        row_hits = 2 * counts / counts.sum() + config.negatives * weights / self._neg_cum[-1]
        self.batch_size = int(np.clip(MAX_ROW_HITS // row_hits.max(), 1, MAX_BATCH))
        rng = rng_stream(config.seed, 0)
        v = len(self.vocab)
        self.w_in = (rng.random((v, config.dim)) - 0.5) / config.dim
        self.w_out = np.zeros((v, config.dim))
        self.epoch_losses: list[float] = []

    def _sample_negatives(self, rng, shape):
        r = rng.random(shape) * self._neg_cum[-1]
        return np.searchsorted(self._neg_cum, r, side="right")

    def _epoch_pairs(self, rng):
        """(centers, contexts) of one epoch, shuffled. Each position draws one
        window span in [1, window] and pairs with every page that close."""
        span = rng.integers(1, self.config.window + 1, size=len(self._ids))
        centers, contexts = [], []
        for d in range(1, self.config.window + 1):
            near = span >= d
            for room, offset in ((self._left, -d), (self._right, d)):
                at = np.flatnonzero(near & (room >= d))
                centers.append(self._ids[at])
                contexts.append(self._ids[at + offset])
        centers = np.concatenate(centers)
        order = rng.permutation(len(centers))
        return centers[order], np.concatenate(contexts)[order]

    def train(self) -> EmbeddingTable:
        cfg = self.config
        rng = rng_stream(cfg.seed, 1)
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate * max(1.0 - epoch / cfg.epochs, 1e-4)
            centers, contexts = self._epoch_pairs(rng)
            total_loss = 0.0
            for lo in range(0, len(centers), self.batch_size):
                c = centers[lo:lo + self.batch_size]
                o = contexts[lo:lo + self.batch_size]
                negs = self._sample_negatives(rng, (len(c), cfg.negatives))
                loss, (in_rows, g_in), (out_rows, g_out) = sgns_batch_gradients(
                    self.w_in, self.w_out, c, o, negs)
                total_loss += loss
                self.w_in[in_rows] -= lr * g_in
                self.w_out[out_rows] -= lr * g_out
            self.epoch_losses.append(total_loss / len(centers))
        return EmbeddingTable(self.vocab, self.w_in.copy())


def train_sequence_embeddings(corpus: SequenceCorpus,
                              config: SgnsConfig | None = None) -> EmbeddingTable:
    """Train article embeddings from a corpus; see SgnsConfig for the defaults."""
    return SgnsTrainer(corpus, config or SgnsConfig()).train()
