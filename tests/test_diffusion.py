import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsynth import diffusion
from navsynth.diffusion import (EmbeddingTable, _distances_at_k, diffusion_curve,
                                diffusion_histogram, load_embeddings, save_embeddings)
from navsynth.graph import Interner, ParseError
from navsynth.sessions import SequenceCorpus
from navsynth.stats import rng_stream
from oracles import cosine_distance, name_ids, vector


def make_table(vectors):
    return EmbeddingTable(list(vectors), list(vectors.values()))


class TestEmbeddingIO:
    def test_names_with_spaces(self, tmp_path):
        # the last `dim` space-separated fields are the vector and the rest is the name
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nNew York 0.5 1\n 1 2  3 -1\nA\x0b\x0c 1 0\n", encoding="utf-8")
        interner = Interner()
        table = load_embeddings(str(path), interner)
        assert interner.names(table.articles) == ["New York", " 1 2 ",
                                                                      "A\x0b\x0c"]
        assert table.vectors.tolist() == [[0.5, 1.0], [3.0, -1.0], [1.0, 0.0]]
        save_embeddings(table, tmp_path / "again.txt", interner)
        assert (tmp_path / "again.txt").read_text(encoding="utf-8").split("\n")[1:] == [
            "New York 0.500000 1.000000", " 1 2  3.000000 -1.000000",
            "A\x0b\x0c 1.000000 0.000000", ""]

    def test_extra_fields_and_double_spaces_belong_to_the_name(self, tmp_path):
        # only a space separates fields: an extra value or a doubled space moves into the name
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nA 1 2 3\nB  0 1\n", encoding="utf-8")
        interner = Interner()
        table = load_embeddings(str(path), interner)
        assert interner.names(table.articles) == ["A 1", "B "]
        assert table.vectors.tolist() == [[2.0, 3.0], [0.0, 1.0]]

    def test_load_basic(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nA 1 0 0\nB 0 1 0\n", encoding="utf-8")
        interner = Interner()
        table = load_embeddings(str(path), interner)
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(vector(table, name_ids(interner)["A"]), [1, 0, 0])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nA 1 0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_embeddings(str(path), Interner())

    def test_round_trip(self, tmp_path):
        rng = rng_stream(50)
        interner = Interner()
        table = EmbeddingTable(interner.intern_all(["a%d" % i for i in range(5)]),
                               rng.normal(size=(5, 4)))
        path = str(tmp_path / "emb.txt")
        save_embeddings(table, path, interner)
        loaded = load_embeddings(path, interner)
        for a in table.articles:
            assert np.allclose(vector(loaded, a), vector(table, a), atol=1e-6)

    def test_save_bytes_match_per_value_format(self, tmp_path):
        rng = rng_stream(51)
        interner = Interner()
        vectors = rng.normal(size=(12, 9))
        vectors[::2, 0] = [4e-7, -4e-7, 1e-12, -1e-12, -0.0, 5e-7]
        table = EmbeddingTable(interner.intern_all(["a%d" % i for i in range(12)]), vectors)
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


def test_curve_holds_under_half_the_table_beyond_it():
    # 50,000 three-page sequences over a 200,000 x 16 table: gathering both endpoints' rows
    # whole would take half the table's bytes per k, and the whole bootstrap index matrix of
    # 1000 x 50,000 resamples another 400 MB
    rng = rng_stream(56)
    emb = EmbeddingTable(np.arange(200_000), rng.normal(size=(200_000, 16)))
    pages = rng.integers(0, 200_000, size=50_000 * 3)
    corpus = SequenceCorpus(pages, np.arange(0, len(pages) + 1, 3), "Logs")
    tracemalloc.start()
    try:
        curve = diffusion_curve(corpus, emb, 10, rng=rng_stream(57))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.ks == [1, 2] and curve.counts == [50_000, 50_000]
    assert peak <= 0.5 * emb.vectors.nbytes, peak / emb.vectors.nbytes


# every article name a corpus row can carry: no tab or line break; spaces, leading and
# trailing ones too, and other whitespace are part of the name
NAMES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(names=st.lists(NAMES, min_size=1, max_size=6, unique=True), dim=st.integers(1, 4),
       data=st.data())
def test_embeddings_save_load_round_trip(tmp_path_factory, names, dim, data):
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(names) * dim,
                                max_size=len(names) * dim))
    vectors = np.array(values).reshape(len(names), dim)
    vectors[np.abs(vectors).max(axis=1) < 1e-6, 0] = 1.0  # no row the format rounds to zero
    interner = Interner()
    table = EmbeddingTable(interner.intern_all(names), vectors)
    base = tmp_path_factory.mktemp("emb")
    save_embeddings(table, base / "a.txt", interner)
    fresh = Interner()
    loaded = load_embeddings(base / "a.txt", fresh)
    assert fresh.names(loaded.articles) == names
    assert np.abs(loaded.vectors - vectors).max() <= 5e-7
    save_embeddings(loaded, base / "b.txt", fresh)
    assert (base / "b.txt").read_bytes() == (base / "a.txt").read_bytes()


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
            vals.append(cosine_distance(vector(emb, first), vector(emb, later)))
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
        expected = np.mean([cosine_distance(vector(emb, s[0]), vector(emb, s[1]))
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

    def test_k_max_past_longest_sequence(self, monkeypatch):
        rng = rng_stream(56)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 9)))]
                for _ in range(30)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        longest = max(map(len, seqs))
        exact = diffusion_curve(corpus, emb, longest, rng=rng_stream(4))
        calls = []

        def bounded(corpus, emb, k):
            calls.append(k)
            assert k < longest, "k=%d: no sequence has a k-th page" % k
            return _distances_at_k(corpus, emb, k)

        monkeypatch.setattr(diffusion, "_distances_at_k", bounded)
        huge = diffusion_curve(corpus, emb, 10**9, rng=rng_stream(4))
        assert huge == exact and huge.ks == list(range(1, longest))
        assert calls == huge.ks


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
