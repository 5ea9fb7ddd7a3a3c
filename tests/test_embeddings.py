import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navsynth.embeddings import (EXP_MAX, ROW_BLOCK, SgnsConfig, SgnsTrainer, _expit, _libm,
                                  _log_expit, _row_sums, sgns_batch_gradients)
from navsynth.sessions import SequenceCorpus
from navsynth.stats import rng_stream
from oracles import (cosine_distance, from_sequences, sgns_pair_gradients, sgns_pair_loss,
                     sgns_whole_batch_gradients, sum_rows, vector)


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


def bits(a):
    """The float64 values of `a` as integers: equal only if equal bit for bit, -0.0 included."""
    return np.asarray(a, dtype=float).view(np.int64)


class TestSigmoid:
    # scipy.special's expit and log_expit take libm's exp and log1p; numpy's own exp and log1p
    # differ from libm's in the last bit for about 5% of values on an AVX-512 host
    @staticmethod
    def expit_and_log_expit(x):
        e = _libm(math.exp, -np.abs(x))
        return _expit(x, e), _log_expit(x, e)

    @pytest.mark.parametrize("scale", [1, 10, 100])
    def test_draws_match_scipy_bit_for_bit(self, scale):
        draws = rng_stream(83, scale).standard_normal(2_000_000) * scale
        for x in np.split(draws, 4):
            expit, log_expit = self.expit_and_log_expit(x)
            assert np.array_equal(bits(expit), bits(scipy.special.expit(x)))
            assert np.array_equal(bits(log_expit), bits(scipy.special.log_expit(x)))

    def test_edges_match_scipy_bit_for_bit(self):
        # math.exp raises past EXP_MAX, where exp is inf: expit 0, log_expit -x
        edges = [0.0, EXP_MAX, np.nextafter(EXP_MAX, np.inf), 745.0, 1e308, np.inf]
        x = np.array(edges + [-edge for edge in edges])
        expit, log_expit = self.expit_and_log_expit(x)
        assert np.array_equal(bits(expit), bits(scipy.special.expit(x)))
        assert np.array_equal(bits(log_expit), bits(scipy.special.log_expit(x)))
        assert np.isnan(self.expit_and_log_expit(np.array([np.nan]))).all()

    def test_strided_views_match_their_copies(self):
        x = rng_stream(84).standard_normal((300, 6)) * 10
        for view in (x[:, 1:], x[::-1, 0], x.T):
            for got, want in zip(self.expit_and_log_expit(view),
                                 self.expit_and_log_expit(view.copy())):
                assert got.shape == view.shape
                assert np.array_equal(bits(got), bits(want))


class TestRowSums:
    @pytest.mark.parametrize("block", [1, 5, ROW_BLOCK, 10**6])
    def test_equals_the_csr_product_bit_for_bit(self, block):
        rng = rng_stream(85)
        ids = rng.integers(3, 400, size=(300, 6))
        ids[:200, 1] = 0  # one row hit by 200 examples, more than one pairwise-sum block of 128
        ids[::30, 2] = 1  # one hit by 10: more than numpy's 8 pairwise-sum accumulators
        ids[5, [0, 2, 3, 5]] = 2  # one repeated 4 times within one example
        weights = rng.normal(size=ids.shape)
        weights[::4, 3] = 0.0
        weights[::5, 4] = -0.0
        ids[7, 4], weights[7, 4] = 1000, -0.0  # a row whose one product is -0.0 or 0.0
        vectors = rng.normal(size=(len(ids), 16))
        vectors[::9, ::2] = 0.0
        want_rows, want = sum_rows(ids.ravel(), np.repeat(np.arange(len(ids)), ids.shape[1]),
                                   weights.ravel(), vectors)
        blocks = list(_row_sums(ids, weights, vectors, block))
        assert all(1 <= len(rows) <= block for rows, _ in blocks)
        rows, got = map(np.concatenate, zip(*blocks))
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(bits(got), bits(want))
        hits = np.bincount(ids.ravel())
        assert hits[0] > 128 and hits[1] > 8 and (ids[5] == 2).sum() >= 3 and hits[1000] == 1

    @settings(max_examples=40, deadline=None)
    @given(examples=st.integers(1, 300), per=st.integers(1, 8), vocab=st.integers(1, 50),
           block=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_any_batch_equals_the_csr_product_bit_for_bit(self, examples, per, vocab, block,
                                                          seed):
        rng = rng_stream(seed)
        ids = rng.integers(0, vocab, size=(examples, per))
        weights = rng.normal(size=ids.shape) * rng.integers(0, 2, size=ids.shape)
        vectors = rng.normal(size=(examples, 3))
        want_rows, want = sum_rows(ids.ravel(), np.repeat(np.arange(examples), per),
                                   weights.ravel(), vectors)
        rows, got = map(np.concatenate, zip(*_row_sums(ids, weights, vectors, block)))
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(bits(got), bits(want))


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
        loss, (in_rows, g_in), out_blocks = sgns_batch_gradients(
            w_in, w_out, centers, contexts, negatives)
        out_rows, g_out = map(np.concatenate, zip(*out_blocks))
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert in_rows.tolist() == sorted(set(centers.tolist()))
        touched = set(contexts.tolist()) | set(negatives.ravel().tolist())
        assert out_rows.tolist() == sorted(touched)
        got_in, got_out = np.zeros_like(w_in), np.zeros_like(w_out)
        got_in[in_rows] = g_in
        got_out[out_rows] = g_out
        np.testing.assert_allclose(got_in, want_in, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_out, want_out, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 700), vocab=st.integers(1, 900), dim=st.integers(1, 40),
           negatives=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @example(batch=512, vocab=3000, dim=128, negatives=5, seed=0)  # as `train` runs on `embed`
    def test_blocks_equal_the_whole_batch_bit_for_bit(self, batch, vocab, dim, negatives, seed):
        rng = rng_stream(seed)
        w_in, w_out = rng.normal(size=(vocab, dim)), rng.normal(size=(vocab, dim))
        centers, contexts = rng.integers(0, vocab, size=(2, batch))
        negs = rng.integers(0, vocab, size=(batch, negatives))
        want = sgns_whole_batch_gradients(w_in, w_out, centers, contexts, negs)
        loss, (in_rows, g_in), out_blocks = sgns_batch_gradients(
            w_in, w_out, centers, contexts, negs)
        w_in[in_rows] += 1.0  # the caller updates the weights between blocks
        blocks = []
        for rows, g in out_blocks:
            assert 1 <= len(rows) <= ROW_BLOCK
            w_out[rows] += 1.0
            blocks.append((rows, g))
        assert loss == want[0]
        got = [(in_rows, g_in), tuple(map(np.concatenate, zip(*blocks)))]
        for (rows, g), (want_rows, want_g) in zip(got, want[1:]):
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(g, want_g)


def clustered_corpus(seed=72, n=400):
    # two groups of articles that only ever co-occur within their group
    rng = rng_stream(seed)
    seqs = []
    for _ in range(n):
        group = int(rng.integers(2))
        base = 0 if group == 0 else 5
        seqs.append([base + int(x) for x in rng.integers(0, 5, size=6)])
    return from_sequences(seqs, "Logs")


def zipf_corpus(seed=78, articles=1000, n=300, length=6):
    rng = rng_stream(seed)
    popularity = 1.0 / np.arange(1, articles + 1) ** 1.5
    seqs = rng.choice(articles, size=(n, length), p=popularity / popularity.sum())
    return from_sequences(seqs.tolist(), "Logs")


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
        emb = SgnsTrainer(corpus, SgnsConfig(dim=16, epochs=5, window=3, seed=73)).train()
        within = cosine_distance(vector(emb, 0), vector(emb, 1))
        across = cosine_distance(vector(emb, 0), vector(emb, 6))
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
        e1 = SgnsTrainer(corpus, cfg).train()
        e2 = SgnsTrainer(corpus, cfg).train()
        for a in e1.articles:
            assert np.array_equal(vector(e1, a), vector(e2, a))

    def test_requires_pairs(self):
        with pytest.raises(ValueError, match="length >= 2"):
            SgnsTrainer(from_sequences([[0], [1]], "Logs"), SgnsConfig())

    def test_vocab_covers_corpus(self):
        corpus = clustered_corpus(n=40)
        emb = SgnsTrainer(corpus, SgnsConfig(dim=8, epochs=1, window=2, seed=76)).train()
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

    def test_training_holds_under_4_mib_beyond_its_weights(self):
        # 3000 articles drawn uniformly: no busy row, so batches of MAX_BATCH examples touch
        # up to 3072 out rows each; summed whole, their gradients alone take 3 MiB
        pages = rng_stream(81).integers(0, 3000, size=400 * 8)
        corpus = SequenceCorpus(pages, np.arange(0, len(pages) + 1, 8), "Logs")
        trainer = SgnsTrainer(corpus, SgnsConfig(dim=128, epochs=1, seed=82))
        assert trainer.batch_size == 512
        tracemalloc.start()  # after the weights are allocated
        try:
            trainer.train()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak / 2**20
