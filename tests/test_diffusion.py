import numpy as np
import pytest

from navsynth.diffusion import (EmbeddingTable, _distances_at_k, cosine_distance,
                                diffusion_curve, diffusion_histogram, load_embeddings,
                                random_pair_baseline, save_embeddings)
from navsynth.graph import Interner, ParseError
from navsynth.sessions import SequenceCorpus
from navsynth.stats import rng_stream


def make_table(vectors):
    return EmbeddingTable(list(vectors), list(vectors.values()))


class TestEmbeddingIO:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nA 1 0 0\nB 0 1 0\n", encoding="utf-8")
        interner = Interner()
        table = load_embeddings(str(path), interner)
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(table.vector(interner.id("A")), [1, 0, 0])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nA 1 0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_embeddings(str(path), Interner())

    def test_round_trip(self, tmp_path):
        rng = rng_stream(50)
        interner = Interner()
        table = EmbeddingTable([interner.intern("a%d" % i) for i in range(5)],
                               rng.normal(size=(5, 4)))
        path = str(tmp_path / "emb.txt")
        save_embeddings(table, path, interner)
        loaded = load_embeddings(path, interner)
        for a in table.articles:
            assert np.allclose(loaded.vector(a), table.vector(a), atol=1e-6)

    def test_save_bytes_match_per_value_format(self, tmp_path):
        rng = rng_stream(51)
        interner = Interner()
        vectors = rng.normal(size=(12, 9))
        vectors[::2, 0] = [4e-7, -4e-7, 1e-12, -1e-12, -0.0, 5e-7]
        table = EmbeddingTable([interner.intern("a%d" % i) for i in range(12)], vectors)
        path = tmp_path / "emb.txt"
        save_embeddings(table, str(path), interner)
        expected = "12 9\n" + "".join(
            "a%d %s\n" % (i, " ".join("%.6f" % x for x in v)) for i, v in enumerate(vectors))
        assert path.read_bytes() == expected.encode()
        assert "-0.000000" in expected and " 0.000000" in expected

    def test_duplicate_article_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate article 0"):
            EmbeddingTable([0, 0], [[1.0, 0.0], [0.0, 1.0]])
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nA 1 0\nA 0 1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3: duplicate article 'A'"):
            load_embeddings(str(path), Interner())

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            EmbeddingTable([0], np.zeros((1, 3)))


class TestTable:
    def test_rows(self):
        emb = make_table({5: [1.0, 0.0], 2: [0.0, 1.0], 9: [1.0, 1.0]})
        assert emb.rows([9, 5, 7, 2, -1, 10]).tolist() == [2, 0, -1, 1, -1, -1]
        assert emb.rows(2) == 1
        empty = EmbeddingTable(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
        assert empty.rows([0, 1]).tolist() == [-1, -1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vectors of shape"):
            EmbeddingTable([0, 1], np.ones((3, 2)))
        with pytest.raises(ValueError, match="vectors of shape"):
            EmbeddingTable([0, 1], np.ones(2))

    def test_cosines_equal_per_pair_formula(self):
        rng = rng_stream(62)
        for dim in range(1, 131):
            vectors = rng.normal(size=(20, dim)) * 10.0 ** rng.uniform(-3, 3, size=(20, 1))
            emb = EmbeddingTable(rng.permutation(20), vectors)
            a, b = rng.integers(0, 20, size=(2, 40))
            expected = [np.dot(vectors[i], vectors[j])
                        / (np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[j]))
                        for i, j in zip(a, b)]
            assert np.array_equal(emb.norms, [np.linalg.norm(v) for v in vectors])
            assert np.array_equal(emb.cosines(a, b), expected), dim


def distances_oracle(corpus, emb, k):
    """The per-sequence loop that `_distances_at_k` replaces."""
    covered = set(emb.articles.tolist())
    vals = []
    for seq in corpus.sequences:
        if len(seq) <= k:
            continue
        first, later = seq[0], seq[k]
        if first in covered and later in covered:
            vals.append(cosine_distance(emb.vector(first), emb.vector(later)))
    return np.array(vals)


def test_distances_at_k_equal_per_sequence_loop():
    rng = rng_stream(63)
    for dim in (1, 2, 7, 32, 128):
        # articles 0..39 appear in sequences; 30 of them have vectors
        emb = EmbeddingTable(rng.permutation(40)[:30], rng.normal(size=(30, dim)))
        seqs = [rng.integers(0, 40, size=int(rng.integers(1, 9))).tolist() for _ in range(300)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        for k in range(1, 10):
            expected = distances_oracle(corpus, emb, k)
            assert np.array_equal(_distances_at_k(corpus, emb, k), expected), (dim, k)
    assert len(_distances_at_k(SequenceCorpus.from_sequences([], "Logs"), emb, 1)) == 0


class TestCosineDistance:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == pytest.approx(1.0)

    def test_matches_reevaluation(self):
        rng = rng_stream(51)
        for _ in range(10):
            a, b = rng.normal(size=5), rng.normal(size=5)
            dot = sum(float(x) * float(y) for x, y in zip(a, b))
            na = sum(float(x) ** 2 for x in a) ** 0.5
            nb = sum(float(y) ** 2 for y in b) ** 0.5
            assert cosine_distance(a, b) == pytest.approx(1 - dot / (na * nb), abs=1e-12)

    def test_zero_vector_error(self):
        with pytest.raises(ValueError):
            cosine_distance(np.zeros(3), np.ones(3))


class TestDiffusionCurve:
    def test_self_repeating_zero(self):
        emb = make_table({0: [1.0, 1.0]})
        corpus = SequenceCorpus.from_sequences([[0, 0, 0]] * 4, "Logs")
        curve = diffusion_curve(corpus, emb, 2, rng=rng_stream(0))
        assert curve.means == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_k1_matches_pairwise_average(self):
        rng = rng_stream(52)
        emb = make_table({i: rng.normal(size=3) for i in range(6)})
        seqs = [[int(x) for x in rng.integers(0, 6, size=4)] for _ in range(30)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        curve = diffusion_curve(corpus, emb, 1, rng=rng_stream(1))
        expected = np.mean([cosine_distance(emb.vector(s[0]), emb.vector(s[1]))
                            for s in seqs])
        assert curve.means[0] == pytest.approx(expected, abs=1e-12)

    def test_eligibility_monotone(self):
        rng = rng_stream(53)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=int(rng.integers(2, 8)))]
                for _ in range(40)]
        curve = diffusion_curve(SequenceCorpus.from_sequences(seqs, "Logs"), emb, 6,
                                rng=rng_stream(2))
        assert all(a >= b for a, b in zip(curve.counts, curve.counts[1:]))

    def test_scale_invariance(self):
        rng = rng_stream(54)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=5)] for _ in range(20)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        c1 = diffusion_curve(corpus, emb, 3, rng=rng_stream(3))
        c2 = diffusion_curve(corpus, EmbeddingTable(emb.articles, emb.vectors * 7.5), 3, rng=rng_stream(3))
        assert np.allclose(c1.means, c2.means, atol=1e-12)

    def test_bootstrap_deterministic(self):
        rng = rng_stream(55)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=4)] for _ in range(25)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        c1 = diffusion_curve(corpus, emb, 3, rng=rng_stream(9))
        c2 = diffusion_curve(corpus, emb, 3, rng=rng_stream(9))
        assert c1.ci_low == c2.ci_low and c1.ci_high == c2.ci_high

    def test_unembedded_sequences_skipped(self):
        emb = make_table({0: [1.0, 0.0], 1: [0.0, 1.0]})
        corpus = SequenceCorpus.from_sequences([[0, 1], [0, 9]], "Logs")  # 9 not embedded
        curve = diffusion_curve(corpus, emb, 1, rng=rng_stream(0))
        assert curve.counts == [1]


class TestHistogram:
    def test_degenerate_mass_in_first_bin(self):
        emb = make_table({0: [1.0, 1.0]})
        corpus = SequenceCorpus.from_sequences([[0, 0]] * 3, "Logs")
        edges, fracs = diffusion_histogram(corpus, emb, 1)
        assert fracs[0] == pytest.approx(1.0)
        assert fracs[1:].sum() == pytest.approx(0.0)

    def test_mass_sums_to_one(self):
        rng = rng_stream(56)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=4)] for _ in range(50)]
        _, fracs = diffusion_histogram(SequenceCorpus.from_sequences(seqs, "Logs"), emb, 2)
        assert fracs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_consistency_with_curve(self):
        rng = rng_stream(57)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=4)] for _ in range(50)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        vals = _distances_at_k(corpus, emb, 2)
        curve = diffusion_curve(corpus, emb, 2, rng=rng_stream(0))
        assert vals.mean() == pytest.approx(curve.means[1], abs=1e-9)


class TestRandomPairBaseline:
    def test_two_articles_exact(self):
        emb = make_table({0: [1.0, 0.0], 1: [0.0, 1.0]})
        res = random_pair_baseline(emb, 50, rng_stream(58))
        assert res.estimate == pytest.approx(1.0)

    def test_exceeds_within_cluster_distance(self):
        rng = rng_stream(59)
        vectors = {}
        for i in range(10):
            vectors[i] = np.array([5.0, 0.0]) + 0.05 * rng.normal(size=2)
        for i in range(10, 20):
            vectors[i] = np.array([-5.0, 0.0]) + 0.05 * rng.normal(size=2)
        emb = make_table(vectors)
        baseline = random_pair_baseline(emb, 400, rng_stream(60)).estimate
        within = np.mean([cosine_distance(emb.vector(i), emb.vector(j))
                          for i in range(10) for j in range(i + 1, 10)])
        assert baseline > within

    def test_stable_across_seeds(self):
        rng = rng_stream(61)
        emb = make_table({i: rng.normal(size=4) for i in range(30)})
        estimates = [random_pair_baseline(emb, 2000, rng_stream(100 + s)).estimate
                     for s in range(5)]
        se = np.std(estimates)
        assert max(estimates) - min(estimates) < 6 * max(se, 1e-6) + 0.05
