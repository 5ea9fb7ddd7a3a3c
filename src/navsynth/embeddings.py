"""Skip-gram-with-negative-sampling trainer over navigation sequences.

Sequences play the role of sentences and articles the role of tokens.
Training is mini-batch SGD over each epoch's shuffled (center, context)
pairs. Deterministic under a fixed seed (single worker).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import EmbeddingTable
from .sessions import SequenceCorpus
from .stats import rng_stream

UNIGRAM_POWER = 0.75  # negatives are drawn from the unigram distribution to this power
# A batch applies the summed gradients of its pairs at once, so a row that
# many pairs of one batch hit takes one large step. The batch size keeps the
# busiest row's expected hits per batch at or below MAX_ROW_HITS: without
# that bound, the loss on corpora with a hub article diverged.
MAX_ROW_HITS = 32
MAX_BATCH = 512  # the batch size where no row is busy; another value changes the vectors
EXAMPLE_BLOCK, ROW_BLOCK = 128, 256  # examples gathered and out rows summed at once; no bit moves
EXP_MAX = 709.782712893384  # math.exp(x) raises past it, where libm's exp is inf


@dataclass
class SgnsConfig:
    dim: int = 128
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "window", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.negatives < 0:
            raise ValueError("negatives must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")


def _libm(f, x):
    """f (math.exp or math.log1p) of each value by libm, whose bits scipy.special shares: numpy's
    own exp and log1p differ from libm's in the last bit for about 5% of values on AVX-512."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _expit(s, e):
    """scipy.special.expit(s) = 1 / (1 + exp(-s)) bit for bit, given e = exp(-|s|) for s >= 0."""
    e, neg = e.copy(), s < 0
    e[neg] = _libm(math.exp, np.where(s[neg] < -EXP_MAX, np.inf, -s[neg]))
    return 1 / (1 + e)


def _log_expit(x, e):
    """scipy.special.log_expit(x) bit for bit, given e = exp(-|x|)."""
    return np.where(x < 0, x, -0.0) - _libm(math.log1p, e)


def _row_sums(ids, weights, vectors, block):
    """(ids, sums of weights[b, j] * vectors[b] over the ids[b, j] equal to each) per `block` ids,
    summed when drawn, in a scipy CSR product's order: each (id, b) in j, onto a zero row in b."""
    key = np.sort(ids.ravel() * ids.size + np.arange(ids.size))  # by id, then b, then j
    w, pair = weights.ravel()[key % ids.size], key // ids.shape[1]  # pair: len(ids) id + b
    last = np.append(pair[1:] != pair[:-1], True)
    at, s = np.flatnonzero(~last) + 1, w.copy()  # a repeated (id, b): running sums in j order
    for _ in range(ids.shape[1] - 1):
        s[at] = s[at - 1] + w[at]
    (ids, b), w = np.divmod(pair[last], len(ids)), s[last]
    rows, start, row = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.arange(len(ids)) - start[row]  # of b within its id
    order = np.lexsort((rank, row // block))  # by block, then rank, then id
    b, w, row, rank = b[order], w[order], row[order], rank[order]
    bounds = np.searchsorted(row // block, np.arange(-(-len(rows) // block) + 1)).tolist()
    work = np.empty((max(np.diff(bounds)), vectors.shape[1]))  # one buffer for every block
    for lo, p0, p1 in zip(range(0, len(rows), block), bounds, bounds[1:]):
        ends = np.searchsorted(rank[p0:p1], np.arange(1, rank[p1 - 1] + 2)).tolist()
        products = np.take(vectors, b[p0:p1], axis=0, out=work[:p1 - p0], mode="wrap")
        products *= w[p0:p1, None]
        sums = products[:ends[0]] + 0.0  # rank 0 holds each id once, in order: a zero row plus it
        for r0, r1 in zip(ends, ends[1:]):
            sums[row[p0 + r0:p0 + r1] - lo] += products[r0:r1]
        yield rows[lo:lo + block], sums


def sgns_batch_gradients(w_in, w_out, centers, contexts, negatives):
    """Total loss and summed gradients of a batch of examples.

    Example b, with v = w_in[centers[b]], u = w_out[contexts[b]] and u_n =
    w_out[negatives[b, n]], has loss -log sigma(u . v) - sum_n log sigma(-u_n . v).
    Returns (loss, (in_rows, g_in), out_blocks): the w_in rows the batch touches, each with its
    summed gradient, and an iterator of (out_rows, g_out) over the w_out rows it touches, in
    ascending blocks of at most ROW_BLOCK. A block is summed when drawn, from this call's
    weights, so the caller may update either matrix between blocks.
    """
    out_ids = np.column_stack([contexts, negatives])  # (B, 1 + negatives)
    v = w_in[centers]
    (scores, e, g_scores), g_v = np.empty((3,) + out_ids.shape), np.empty_like(v)
    work = np.empty((min(EXAMPLE_BLOCK, len(v)),) + out_ids.shape[1:] + v.shape[1:])
    for lo in range(0, len(v), EXAMPLE_BLOCK):
        block = slice(lo, lo + EXAMPLE_BLOCK)
        # mode="wrap" indexes as w_out[ids] does, without the copy that mode="raise" makes
        u = np.take(w_out, out_ids[block], axis=0, out=work[:len(out_ids[block])], mode="wrap")
        np.einsum("bd,bjd->bj", v[block], u, out=scores[block])
        e[block] = _libm(math.exp, -np.abs(scores[block]))  # shared by the loss and sigmoid
        g_scores[block] = _expit(scores[block], e[block])
        g_scores[block, 0] -= 1.0
        np.einsum("bj,bjd->bd", g_scores[block], u, out=g_v[block])
    loss = -_log_expit(scores[:, 0], e[:, 0]).sum() - _log_expit(-scores[:, 1:], e[:, 1:]).sum()
    del u, work  # before the in-row sums allocate theirs
    # the gradient of out row u_bj is g_scores[b, j] * v_b
    in_rows, g_in = next(_row_sums(centers[:, None], np.ones((len(centers), 1)), g_v, len(v)))
    return float(loss), (in_rows, g_in), _row_sums(out_ids, g_scores, v, ROW_BLOCK)


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
        self.w_in = rng.random((v, config.dim))  # (u - 0.5) / dim, formed in place
        self.w_in -= 0.5
        self.w_in /= config.dim
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
        """Train for `config.epochs` epochs. The table holds the trainer's own input matrix, not
        a copy: a further `train` call would go on updating its vectors."""
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
                loss, (in_rows, g_in), out_blocks = sgns_batch_gradients(
                    self.w_in, self.w_out, c, o, negs)
                total_loss += loss
                self.w_in[in_rows] -= lr * g_in
                for out_rows, g_out in out_blocks:
                    self.w_out[out_rows] -= lr * g_out
            self.epoch_losses.append(total_loss / len(centers))
        return EmbeddingTable(self.vocab, self.w_in)
