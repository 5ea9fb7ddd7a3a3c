import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from navsynth import diffusion, graph
from navsynth.diffusion import (EmbeddingTable, _distances_at_k, diffusion_curve,
                                diffusion_histogram, load_embeddings, save_embeddings)
from navsynth.graph import Interner, ParseError
from navsynth.sessions import SequenceCorpus
from navsynth.stats import rng_stream
from oracles import cosine_distance, from_sequences, name_ids, vector


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


def outcome(read):
    """`read()`, or the message of the ParseError it raises."""
    try:
        return read()
    except ParseError as e:
        return str(e)


# values whose "%.6f" text is easy to get wrong: every exact tie of the sixth decimal below
# 10 (the odd multiples of 1/128) and the doubles next to them, signed zeros and values that
# round to zero, the largest values below 10 and the smallest that round to 10, and values
# of 10 and above and not finite, which keep the `%` format
TIES = np.arange(-2560, 2561) / 256
ADVERSARIAL = np.concatenate([
    TIES, np.nextafter(TIES, np.inf), np.nextafter(TIES, -np.inf),
    [0.0, -0.0, 1e-9, -1e-9, 4.999999e-7, 5e-7, -5e-7, 1.5e-6, 2.5e-6, -2.5e-6, 9.999999,
     9.9999995, -9.9999995, np.nextafter(9.9999995, 0), np.nextafter(9.9999995, 10), 10.0,
     -10.0, 10.5, 123.4567895, 1e15, -1e15, 1e150, 5e-324, np.inf, -np.inf, np.nan]])


@pytest.mark.parametrize("block", [1, 7, 100, diffusion.FORMAT_BLOCK])
def test_save_bytes_match_per_value_format_on_adversarial_values(tmp_path, monkeypatch, block):
    monkeypatch.setattr(diffusion, "FORMAT_BLOCK", block)
    values = rng_stream(52).permutation(np.append(ADVERSARIAL, np.ones(-len(ADVERSARIAL) % 7)))
    vectors = values.reshape(-1, 7)
    interner = Interner()
    table = EmbeddingTable(interner.intern_all(["a%d" % i for i in range(len(vectors))]),
                           vectors)
    path = tmp_path / "emb.txt"
    save_embeddings(table, str(path), interner)
    expected = "%d 7\n" % len(vectors) + "".join(
        "a%d %s\n" % (i, " ".join("%.6f" % x for x in v)) for i, v in enumerate(vectors.tolist()))
    assert path.read_bytes() == expected.encode()
    assert " -0.000000" in expected and " nan" in expected and " 10.000000" in expected


def test_fixed_point_words_read_exactly_the_written_form():
    # every byte at every position of three tokens, alone and beside a second wrong byte: a
    # word reads as a value where it matches "d.dddddd", and then as float() of its text
    tokens = []
    for base in (b"1.234567", b"0.000000", b"9.999999"):
        for at in range(8):
            for byte in range(256):
                for other in (None, 0x2F, 0x3A, 0x00, 0xFF):
                    token = bytearray(base)
                    token[at] = byte
                    if other is not None:
                        token[(at + 3) % 8] = other
                    tokens.append(bytes(token))
    text = b"".join(tokens) + bytes(8)
    words = np.ndarray((len(text) - 7,), "<u8", text, strides=(1,))
    ok, values = diffusion._fixed_point(words[8 * np.arange(len(tokens))])
    written = [re.fullmatch(rb"[0-9]\.[0-9]{6}", token) is not None for token in tokens]
    assert ok.tolist() == written
    assert values[ok].tolist() == [float(t) for t, w in zip(tokens, written) if w]


# value texts: the writer's own form, and forms that only `float` reads or that no one reads
WRITTEN = st.floats(-9.9999994, 9.9999994).map("%.6f".__mod__)
OTHER = st.sampled_from(["1e-3", "+1", "1_0", ".5", "-0.5e1", "12.500000", "1.00000", "0",
                         "1.0000005", "-0.1234567", "-.000001", "nan", "-inf", "x", "",
                         "1.000000\x0b"])
# names with spaces, tabs, other whitespace and multi-byte characters, often repeated
EMBEDDING_NAMES = (st.text("ab \t\u00e9\u65e5\x0b", max_size=3)
                   | st.sampled_from(["a", "\u65e5 b"]))


@st.composite
def embedding_files(draw):
    """The text of an embeddings file of 1 to 3 dimensions whose rows hold values only in the
    writer's form, only in others, or in both; with blank lines, CR and CRLF line ends,
    perhaps no final line end, rows of another width, perhaps a wrong row count, a negative
    one or a header dimension of 0."""
    dim = draw(st.integers(1, 3))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["written", "mixed", "other", "blank"]),
                              max_size=8)):
        width = draw(st.sampled_from([dim] * 8 + [dim - 1, dim + 1]))
        value = {"written": WRITTEN, "mixed": WRITTEN | OTHER, "other": OTHER}.get(kind)
        rows.append(draw(st.sampled_from(["", " ", "\t"])) if value is None else " ".join(
            [draw(EMBEDDING_NAMES), *draw(st.lists(value, min_size=width, max_size=width))]))
    n = sum(1 for row in rows if row.strip()) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows) + 1,
                         max_size=len(rows) + 1))
    header = "%d %d" % (n, draw(st.sampled_from([dim] * 9 + [0])))
    text = "".join(row + end for row, end in zip([header, *rows], ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(file=embedding_files(), chunk=st.sampled_from([4, 64, graph.CHUNK_BYTES]),
       prefill=st.lists(EMBEDDING_NAMES, max_size=2, unique=True))
# a value one digit too long, of either sign, in a row that is otherwise in the writer's form
@example(file="2 2\na 1.0000005 0.500000\nb -0.1234567 -1.000000\n", chunk=64, prefill=[])
# a row in the writer's form that repeats the name of one before it
@example(file="2 1\n\u65e5 b 0.100000\n\u65e5 b -0.200000\n", chunk=4, prefill=[])
def test_embeddings_reader_matches_the_per_line_oracle(tmp_path_factory, file, chunk, prefill):
    # the ids, the bits of every value (-0.0 included) and the first error of a reader that
    # takes one line at a time, with rows in one chunk, across chunks and within chunks
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    path.write_bytes(file.encode())

    def read():
        interner = Interner()
        interner.intern_all(prefill)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "CHUNK_BYTES", chunk)
            table = load_embeddings(str(path), interner)
        return (table.articles.tolist(), table.vectors.view(np.int64).tolist(),
                interner.names(range(len(interner))))

    def reference():
        ids = dict(zip(prefill, range(len(prefill))))
        articles, vectors = oracles.embeddings(str(path), ids)
        return articles, [np.array(v).view(np.int64).tolist() for v in vectors], [*ids]

    assert outcome(read) == outcome(reference)


def test_save_and_load_hold_under_an_eighth_of_the_table_beyond_it(tmp_path):
    # a 20,000 x 128 table is 20.5 MB; blocks of rows and chunks of text keep what either
    # holds beyond the table, and the interner the load fills, under 2.6 MB
    rng = rng_stream(58)
    interner = Interner()
    table = EmbeddingTable(interner.intern_all(["Article_%d" % i for i in range(20_000)]),
                           rng.normal(scale=0.1, size=(20_000, 128)))
    path, fresh = str(tmp_path / "emb.txt"), Interner()
    for run in (lambda: save_embeddings(table, path, interner),
                lambda: load_embeddings(path, fresh)):
        tracemalloc.start()
        try:
            result = run()
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - size <= table.vectors.nbytes / 8, (peak - size) / table.vectors.nbytes
        del result
    assert np.abs(load_embeddings(path, interner).vectors - table.vectors).max() <= 5e-7


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
        corpus = from_sequences(seqs, "Logs")
        for k in range(1, 10):
            expected = distances_oracle(corpus, emb, k)
            assert np.array_equal(_distances_at_k(corpus, emb, k), expected), (dim, k)
    assert len(_distances_at_k(from_sequences([], "Logs"), emb, 1)) == 0


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
        corpus = from_sequences([[0, 0, 0]] * 4, "Logs")
        curve = diffusion_curve(corpus, emb, 2, rng=rng_stream(0))
        assert curve.means == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_k1_matches_pairwise_average(self):
        rng = rng_stream(52)
        emb = make_table({i: rng.normal(size=3) for i in range(6)})
        seqs = [[int(x) for x in rng.integers(0, 6, size=4)] for _ in range(30)]
        corpus = from_sequences(seqs, "Logs")
        curve = diffusion_curve(corpus, emb, 1, rng=rng_stream(1))
        expected = np.mean([cosine_distance(vector(emb, s[0]), vector(emb, s[1]))
                            for s in seqs])
        assert curve.means[0] == pytest.approx(expected, abs=1e-12)

    def test_eligibility_monotone(self):
        rng = rng_stream(53)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=int(rng.integers(2, 8)))]
                for _ in range(40)]
        curve = diffusion_curve(from_sequences(seqs, "Logs"), emb, 6,
                                rng=rng_stream(2))
        assert all(a >= b for a, b in zip(curve.counts, curve.counts[1:]))

    def test_scale_invariance(self):
        rng = rng_stream(54)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=5)] for _ in range(20)]
        corpus = from_sequences(seqs, "Logs")
        c1 = diffusion_curve(corpus, emb, 3, rng=rng_stream(3))
        c2 = diffusion_curve(corpus, EmbeddingTable(emb.articles, emb.vectors * 7.5), 3, rng=rng_stream(3))
        assert np.allclose(c1.means, c2.means, atol=1e-12)

    def test_bootstrap_deterministic(self):
        rng = rng_stream(55)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=4)] for _ in range(25)]
        corpus = from_sequences(seqs, "Logs")
        c1 = diffusion_curve(corpus, emb, 3, rng=rng_stream(9))
        c2 = diffusion_curve(corpus, emb, 3, rng=rng_stream(9))
        assert c1.ci_low == c2.ci_low and c1.ci_high == c2.ci_high

    def test_unembedded_sequences_skipped(self):
        emb = make_table({0: [1.0, 0.0], 1: [0.0, 1.0]})
        corpus = from_sequences([[0, 1], [0, 9]], "Logs")  # 9 not embedded
        curve = diffusion_curve(corpus, emb, 1, rng=rng_stream(0))
        assert curve.counts == [1]

    def test_k_max_past_longest_sequence(self, monkeypatch):
        rng = rng_stream(56)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 9)))]
                for _ in range(30)]
        corpus = from_sequences(seqs, "Logs")
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
        corpus = from_sequences([[0, 0]] * 3, "Logs")
        edges, fracs = diffusion_histogram(corpus, emb, 1)
        assert fracs[0] == pytest.approx(1.0)
        assert fracs[1:].sum() == pytest.approx(0.0)

    def test_mass_sums_to_one(self):
        rng = rng_stream(56)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=4)] for _ in range(50)]
        _, fracs = diffusion_histogram(from_sequences(seqs, "Logs"), emb, 2)
        assert fracs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_consistency_with_curve(self):
        rng = rng_stream(57)
        emb = make_table({i: rng.normal(size=3) for i in range(5)})
        seqs = [[int(x) for x in rng.integers(0, 5, size=4)] for _ in range(50)]
        corpus = from_sequences(seqs, "Logs")
        vals = _distances_at_k(corpus, emb, 2)
        curve = diffusion_curve(corpus, emb, 2, rng=rng_stream(0))
        assert vals.mean() == pytest.approx(curve.means[1], abs=1e-9)
