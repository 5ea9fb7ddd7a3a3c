import numpy as np
import pytest

from navsynth.diffusion import cosine_distance
from navsynth.embeddings import (SgnsConfig, SgnsTrainer, sgns_batch_gradients,
                                 sgns_pair_gradients, sgns_pair_loss,
                                 train_sequence_embeddings)
from navsynth.sessions import SequenceCorpus
from navsynth.stats import rng_stream


def finite_difference(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += eps
        lo.flat[i] -= eps
        g.flat[i] = (f(hi) - f(lo)) / (2 * eps)
    return g


class TestPairGradients:
    def test_matches_central_differences(self):
        rng = rng_stream(70)
        for _ in range(20):
            v = rng.normal(size=6)
            u_pos = rng.normal(size=6)
            u_negs = rng.normal(size=(4, 6))
            g_v, g_pos, g_negs = sgns_pair_gradients(v, u_pos, u_negs)
            fd_v = finite_difference(lambda x: sgns_pair_loss(x, u_pos, u_negs), v)
            fd_pos = finite_difference(lambda x: sgns_pair_loss(v, x, u_negs), u_pos)
            fd_negs = finite_difference(
                lambda x: sgns_pair_loss(v, u_pos, x.reshape(4, 6)), u_negs.ravel())
            scale = max(1.0, np.abs(fd_v).max())
            assert np.abs(g_v - fd_v).max() / scale < 1e-5
            assert np.abs(g_pos - fd_pos).max() / max(1.0, np.abs(fd_pos).max()) < 1e-5
            assert np.abs(g_negs.ravel() - fd_negs).max() / max(
                1.0, np.abs(fd_negs).max()) < 1e-5

    def test_loss_positive(self):
        rng = rng_stream(71)
        v, u = rng.normal(size=5), rng.normal(size=5)
        negs = rng.normal(size=(3, 5))
        assert sgns_pair_loss(v, u, negs) > 0

    def test_loss_finite_at_saturated_scores(self):
        # -log sigma(s) tends to -s as s -> -inf and to 0 as s -> +inf
        v = np.array([1000.0])
        wrong, right = np.array([-1.0]), np.array([1.0])
        assert sgns_pair_loss(v, wrong, np.array([[1.0], [1.0]])) == 3000.0
        assert sgns_pair_loss(v, right, np.array([[-1.0], [-1.0]])) == 0.0
        for grad in sgns_pair_gradients(v, wrong, np.array([[1.0], [1.0]])):
            assert np.isfinite(grad).all()
        loss, _, _ = sgns_batch_gradients(v[None, :], np.array([[-1.0], [1.0]]),
                                          np.array([0]), np.array([0]),
                                          np.array([[1, 1]]))
        assert loss == 3000.0


class TestBatchGradients:
    def test_equals_sum_of_pair_gradients(self):
        rng = rng_stream(77)
        w_in, w_out = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        # repeated centers, repeated contexts, a negative equal to its own
        # context and a negative drawn twice in one example
        centers = np.array([0, 2, 2, 5, 0, 1, 2])
        contexts = np.array([1, 1, 3, 0, 1, 4, 2])
        negatives = rng.integers(0, 6, size=(7, 3))
        negatives[0] = [1, 3, 3]
        want_loss, want_in, want_out = 0.0, np.zeros_like(w_in), np.zeros_like(w_out)
        for c, o, negs in zip(centers, contexts, negatives):
            want_loss += sgns_pair_loss(w_in[c], w_out[o], w_out[negs])
            g_v, g_pos, g_negs = sgns_pair_gradients(w_in[c], w_out[o], w_out[negs])
            want_in[c] += g_v
            want_out[o] += g_pos
            for n, g in zip(negs, g_negs):
                want_out[n] += g
        loss, (in_rows, g_in), (out_rows, g_out) = sgns_batch_gradients(
            w_in, w_out, centers, contexts, negatives)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert in_rows.tolist() == sorted(set(centers.tolist()))
        touched = set(contexts.tolist()) | set(negatives.ravel().tolist())
        assert out_rows.tolist() == sorted(touched)
        got_in, got_out = np.zeros_like(w_in), np.zeros_like(w_out)
        got_in[in_rows] = g_in
        got_out[out_rows] = g_out
        np.testing.assert_allclose(got_in, want_in, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_out, want_out, rtol=1e-12, atol=1e-12)


def clustered_corpus(seed=72, n=400):
    # two groups of articles that only ever co-occur within their group
    rng = rng_stream(seed)
    seqs = []
    for _ in range(n):
        group = int(rng.integers(2))
        base = 0 if group == 0 else 5
        seqs.append([base + int(x) for x in rng.integers(0, 5, size=6)])
    return SequenceCorpus.from_sequences(seqs, "Logs")


def zipf_corpus(seed=78, articles=1000, n=300, length=6):
    rng = rng_stream(seed)
    popularity = 1.0 / np.arange(1, articles + 1) ** 1.5
    seqs = rng.choice(articles, size=(n, length), p=popularity / popularity.sum())
    return SequenceCorpus.from_sequences(seqs.tolist(), "Logs")


def per_pair_sgd(trainer):
    """Epoch losses of plain SGD from the trainer's initial weights: one
    (center, context) pair at a time, each with its own negatives, its rows
    updated before the next pair is scored."""
    cfg = trainer.config
    rng = rng_stream(cfg.seed, 1)
    index = {a: i for i, a in enumerate(trainer.vocab)}
    w_in, w_out = trainer.w_in.copy(), trainer.w_out.copy()
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * max(1.0 - epoch / cfg.epochs, 1e-4)
        total, pairs = 0.0, 0
        for seq in trainer.sequences:
            idx = [index[a] for a in seq]
            for pos, center in enumerate(idx):
                span = int(rng.integers(1, cfg.window + 1))
                for ctx in idx[max(0, pos - span):pos] + idx[pos + 1:pos + span + 1]:
                    negs = trainer._sample_negatives(rng, cfg.negatives)
                    v, u_pos, u_negs = w_in[center], w_out[ctx], w_out[negs]
                    total += sgns_pair_loss(v, u_pos, u_negs)
                    pairs += 1
                    g_v, g_pos, g_negs = sgns_pair_gradients(v, u_pos, u_negs)
                    w_in[center] = v - lr * g_v
                    w_out[ctx] = u_pos - lr * g_pos
                    for n, g in zip(negs, g_negs):
                        w_out[n] -= lr * g
        losses.append(total / pairs)
    return losses


class LargestUniform:
    """Stands in for a Generator whose every uniform is the largest below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


class TestTraining:
    def test_cooccurrence_dominates_distance(self):
        corpus = clustered_corpus()
        emb = train_sequence_embeddings(
            corpus, SgnsConfig(dim=16, epochs=5, window=3, seed=73))
        within = cosine_distance(emb.vector(0), emb.vector(1))
        across = cosine_distance(emb.vector(0), emb.vector(6))
        assert within < across

    def test_loss_decreases(self):
        trainer = SgnsTrainer(clustered_corpus(),
                              SgnsConfig(dim=16, epochs=4, window=3, seed=74))
        trainer.train()
        losses = trainer.epoch_losses
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        corpus = clustered_corpus(n=60)
        cfg = SgnsConfig(dim=8, epochs=2, window=2, seed=75)
        e1 = train_sequence_embeddings(corpus, cfg)
        e2 = train_sequence_embeddings(corpus, cfg)
        for a in e1.articles:
            assert np.array_equal(e1.vector(a), e2.vector(a))

    def test_requires_pairs(self):
        with pytest.raises(ValueError, match="length >= 2"):
            SgnsTrainer(SequenceCorpus.from_sequences([[0], [1]], "Logs"), SgnsConfig())

    def test_vocab_covers_corpus(self):
        corpus = clustered_corpus(n=40)
        emb = train_sequence_embeddings(
            corpus, SgnsConfig(dim=8, epochs=1, window=2, seed=76))
        seen = {a for s in corpus.sequences for a in s}
        assert set(emb.articles) == seen

    def test_negative_draw_stays_in_vocab(self):
        # normalized before the cumulative sum, this corpus's unigram^0.75
        # weights sum to less than the largest uniform, so searching for that
        # uniform unscaled would return one past the last row
        trainer = SgnsTrainer(zipf_corpus(), SgnsConfig(dim=4))
        negs = trainer._sample_negatives(LargestUniform(), (4, 5))
        assert (negs < len(trainer.vocab)).all()

    def test_batched_loss_matches_per_pair_sgd(self):
        trainer = SgnsTrainer(clustered_corpus(),
                              SgnsConfig(dim=16, epochs=3, window=3, seed=80))
        oracle = per_pair_sgd(trainer)
        trainer.train()
        assert trainer.epoch_losses[-1] == pytest.approx(oracle[-1], rel=0.05)

    def test_hub_article_stays_stable(self):
        corpus = zipf_corpus()
        pages = np.ravel(corpus.sequences)
        assert np.bincount(pages).max() >= 0.2 * len(pages)
        trainer = SgnsTrainer(corpus, SgnsConfig(dim=16, epochs=4, window=3, seed=79))
        trainer.train()
        losses = trainer.epoch_losses
        assert np.isfinite(losses).all()
        assert losses[-1] < losses[0]
