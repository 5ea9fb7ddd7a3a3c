"""Skip-gram-with-negative-sampling trainer over navigation sequences.

Sequences play the role of sentences and articles the role of tokens.
Deterministic under a fixed seed (single worker).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .diffusion import EmbeddingTable
from .sessions import SequenceCorpus
from .stats import rng_stream

UNIGRAM_POWER = 0.75  # negatives are drawn from the unigram distribution to this power


@dataclass
class SgnsConfig:
    dim: int = 128
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sgns_pair_loss(center_vec: np.ndarray, pos_out: np.ndarray,
                   neg_outs: np.ndarray) -> float:
    """Loss of one (center, positive, negatives) example:
    -log sigma(u_pos . v) - sum_n log sigma(-u_n . v).
    """
    loss = -np.log(_sigmoid(pos_out @ center_vec))
    loss -= np.log(_sigmoid(-neg_outs @ center_vec)).sum()
    return float(loss)


def sgns_pair_gradients(center_vec, pos_out, neg_outs):
    """Analytic gradients of sgns_pair_loss w.r.t. (center, positive, negatives)."""
    g_pos_score = _sigmoid(pos_out @ center_vec) - 1.0
    g_neg_score = _sigmoid(neg_outs @ center_vec)  # shape (negatives,)
    g_center = g_pos_score * pos_out + g_neg_score @ neg_outs
    g_pos = g_pos_score * center_vec
    g_negs = g_neg_score[:, None] * center_vec[None, :]
    return g_center, g_pos, g_negs


class SgnsTrainer:
    def __init__(self, corpus: SequenceCorpus, config: SgnsConfig):
        sequences = [s for s in corpus.sequences if len(s) >= 2]
        if not sequences:
            raise ValueError("no sequences of length >= 2 to train on")
        self.sequences = sequences
        self.config = config
        counts = Counter(a for s in sequences for a in s)
        self.vocab = sorted(counts)
        self.index = {a: i for i, a in enumerate(self.vocab)}
        weights = np.array([counts[a] for a in self.vocab], dtype=float)
        weights **= UNIGRAM_POWER
        self._neg_cum = np.cumsum(weights / weights.sum())
        rng = rng_stream(config.seed, 0)
        v = len(self.vocab)
        self.w_in = (rng.random((v, config.dim)) - 0.5) / config.dim
        self.w_out = np.zeros((v, config.dim))
        self.epoch_losses: list[float] = []

    def _sample_negatives(self, rng, count):
        r = rng.random(count)
        return np.searchsorted(self._neg_cum, r, side="right")

    def train(self) -> EmbeddingTable:
        cfg = self.config
        rng = rng_stream(cfg.seed, 1)
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate * max(1.0 - epoch / cfg.epochs, 1e-4)
            total_loss = 0.0
            pairs = 0
            for seq in self.sequences:
                idx = [self.index[a] for a in seq]
                for pos, center in enumerate(idx):
                    span = int(rng.integers(1, cfg.window + 1))
                    lo = max(0, pos - span)
                    hi = min(len(idx), pos + span + 1)
                    for ctx_pos in range(lo, hi):
                        if ctx_pos == pos:
                            continue
                        context = idx[ctx_pos]
                        negs = self._sample_negatives(rng, cfg.negatives)
                        v = self.w_in[center]
                        u_pos = self.w_out[context]
                        u_negs = self.w_out[negs]
                        total_loss += sgns_pair_loss(v, u_pos, u_negs)
                        pairs += 1
                        g_v, g_pos, g_negs = sgns_pair_gradients(v, u_pos, u_negs)
                        self.w_in[center] = v - lr * g_v
                        self.w_out[context] = u_pos - lr * g_pos
                        # negatives may repeat; apply sequentially
                        for ni, g in zip(negs, g_negs):
                            self.w_out[ni] -= lr * g
            self.epoch_losses.append(total_loss / max(pairs, 1))
        table = EmbeddingTable(cfg.dim)
        for a, i in self.index.items():
            table.add(a, self.w_in[i].copy())
        return table


def train_sequence_embeddings(corpus: SequenceCorpus,
                              config: SgnsConfig | None = None) -> EmbeddingTable:
    """Train article embeddings from a corpus; see SgnsConfig for the defaults."""
    return SgnsTrainer(corpus, config or SgnsConfig()).train()
