import gzip

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsynth.graph import (Interner, ParseError, apply_k_anonymity,
                            build_transition_model, load_clickstream,
                            load_edge_list, pair_keys, unpack_pairs, TransitionModel)
from navsynth.stats import rng_stream


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadEdgeList:
    def test_dedup_and_self_loop(self, tmp_path):
        path = write(tmp_path, "e.tsv", "A\tB\nA\tB\nB\tB\n")
        g = load_edge_list(path)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.self_loops_dropped == 1
        assert g.duplicates_dropped == 1

    def test_three_nodes(self, tmp_path):
        path = write(tmp_path, "e.tsv", "A\tB\nB\tC\nA\tC\n")
        g = load_edge_list(path)
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_matches_set_reader(self, tmp_path):
        rng = rng_stream(3)
        names = ["p%d" % i for i in range(6)]
        lines = []
        for _ in range(10):
            s, t = rng.choice(6, size=2)
            lines.append("%s\t%s" % (names[s], names[t]))
        path = write(tmp_path, "e.tsv", "\n".join(lines) + "\n")
        # brute-force set-based reader
        nodes, edges = set(), set()
        for line in lines:
            a, b = line.split("\t")
            nodes.update([a, b])
            if a != b:
                edges.add((a, b))
        g = load_edge_list(path)
        assert g.num_nodes == len(nodes)
        assert g.num_edges == len(edges)

    def test_malformed_line(self, tmp_path):
        path = write(tmp_path, "e.tsv", "A\tB\nBADLINE\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        g = load_edge_list(write(tmp_path, "e.tsv", ""))
        assert g.num_nodes == 0

    def test_gzip(self, tmp_path):
        path = tmp_path / "e.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("A\tB\n")
        g = load_edge_list(str(path))
        assert g.num_edges == 1

    def test_sorted_successors(self, tmp_path):
        path = write(tmp_path, "e.tsv", "A\tC\nA\tB\nB\tA\n")
        g = load_edge_list(path)
        for v in range(g.num_nodes):
            assert np.all(np.diff(g.successors(v)) > 0)


class TestLoadClickstream:
    def test_basic_row(self, tmp_path, click_counts):
        path = write(tmp_path, "c.tsv", "A\tB\tlink\t25\n")
        t = load_clickstream(path)
        a, b = t.interner.id("A"), t.interner.id("B")
        assert click_counts(t)[(a, b)] == 25

    def test_type_filter(self, tmp_path):
        path = write(tmp_path, "c.tsv", "other-search\tB\texternal\t100\n")
        t = load_clickstream(path)
        assert not len(t.entries)
        assert t.skipped_rows == 1

    def test_kept_rows_match_grep(self, tmp_path):
        rng = rng_stream(4)
        types = ["link", "external", "other"]
        lines = []
        for i in range(20):
            ty = types[int(rng.integers(3))]
            lines.append("s%d\tt%d\t%s\t%d" % (i % 5, i % 7, ty, int(rng.integers(1, 50))))
        path = write(tmp_path, "c.tsv", "\n".join(lines) + "\n")
        expected = sum(1 for line in lines if line.split("\t")[2] == "link")
        t = load_clickstream(path)
        assert len(t.entries) + t.skipped_rows == 20
        assert sum(1 for _ in t.entries) <= expected  # duplicates summed
        # entry multiplicity: re-count with a plain dict
        kept = {}
        for line in lines:
            s, tt, ty, c = line.split("\t")
            if ty == "link":
                kept[(s, tt)] = kept.get((s, tt), 0) + int(c)
        assert t.total_clicks == sum(kept.values())
        assert len(t.entries) == len(kept)

    def test_non_integer_count(self, tmp_path):
        path = write(tmp_path, "c.tsv", "A\tB\tlink\tmany\n")
        with pytest.raises(ParseError, match=":1:"):
            load_clickstream(path)


class TestKAnonymity:
    def test_strict_threshold(self, click_table, click_counts):
        interner = Interner()
        a, b, c = (interner.intern(x) for x in "ABC")
        table = click_table(interner, {(a, b): 10, (a, c): 11})
        out = apply_k_anonymity(table, 10)
        assert click_counts(out) == {(a, c): 11}
        assert click_counts(table) == {(a, b): 10, (a, c): 11}  # input unmodified

    def test_threshold_zero_identity(self, click_table, click_counts):
        interner = Interner()
        a, b = interner.intern("A"), interner.intern("B")
        table = click_table(interner, {(a, b): 1})
        assert click_counts(apply_k_anonymity(table, 0)) == click_counts(table)

    def test_matches_brute_force(self, click_table, click_counts):
        rng = rng_stream(5)
        interner = Interner()
        ids = [interner.intern("n%d" % i) for i in range(30)]
        entries = {}
        while len(entries) < 100:
            s, t = rng.choice(30, size=2, replace=False)
            entries[(ids[s], ids[t])] = int(rng.integers(1, 30))
        table = click_table(interner, entries)
        thr = 12
        out = apply_k_anonymity(table, thr)
        expected = {k: v for k, v in entries.items() if v > thr}
        assert click_counts(out) == expected

    def test_monotone_and_idempotent(self, click_table, click_counts):
        rng = rng_stream(6)
        interner = Interner()
        ids = [interner.intern("n%d" % i) for i in range(10)]
        entries = {(ids[i], ids[(i + 1) % 10]): int(rng.integers(1, 25))
                   for i in range(10)}
        table = click_table(interner, entries)
        t5 = apply_k_anonymity(table, 5)
        t9 = apply_k_anonymity(table, 9)
        assert set(click_counts(t9)) <= set(click_counts(t5))
        assert click_counts(apply_k_anonymity(t5, 5)) == click_counts(t5)


class TestTransitionModel:
    def test_uniform(self, tmp_path):
        g = load_edge_list(write(tmp_path, "e.tsv", "A\tB\nA\tC\n"))
        m = build_transition_model(g)
        a = g.interner.id("A")
        assert m.row_probs(a) == pytest.approx([0.5, 0.5])

    def test_weighted_proportional(self, tmp_path, click_table):
        g = load_edge_list(write(tmp_path, "e.tsv", "A\tB\nA\tC\n"))
        interner = g.interner
        a, b, c = interner.id("A"), interner.id("B"), interner.id("C")
        table = click_table(interner, {(a, b): 30, (a, c): 10})
        m = build_transition_model(g, table)
        row = dict(zip(m.successors(a).tolist(), m.row_probs(a)))
        assert row[b] == pytest.approx(0.75)
        assert row[c] == pytest.approx(0.25)

    def test_random_rows_normalized_and_match_oracle(self, tmp_path, click_table):
        rng = rng_stream(7)
        names = ["n%d" % i for i in range(50)]
        lines, weights = [], {}
        for i in range(50):
            for t in rng.choice(50, size=4, replace=False):
                if t == i:
                    continue
                lines.append("%s\t%s" % (names[i], names[t]))
                weights[(names[i], names[t])] = int(rng.integers(1, 100))
        path = write(tmp_path, "e.tsv", "\n".join(lines) + "\n")
        g = load_edge_list(path)
        interner = g.interner
        table = click_table(
            interner, {(interner.id(s), interner.id(t)): c
                       for (s, t), c in weights.items()})
        m = build_transition_model(g, table)
        totals = {}
        for (s, _), c in weights.items():
            totals[s] = totals.get(s, 0) + c
        for node in range(m.num_nodes):
            if m.is_terminal(node):
                continue
            assert m.row_probs(node).sum() == pytest.approx(1.0, abs=1e-9)
            for t, p in zip(m.successors(node), m.row_probs(node)):
                key = (interner.name(node), interner.name(int(t)))
                assert p == pytest.approx(weights[key] / totals[key[0]])

    def test_uniform_equals_equal_count_weighted(self, tmp_path, click_table):
        path = write(tmp_path, "e.tsv", "A\tB\nA\tC\nB\tC\nC\tA\n")
        g = load_edge_list(path)
        uniform = build_transition_model(g)
        table = click_table(g.interner, {(int(s), int(t)): 7 for s, t in zip(*g.edge_arrays())})
        weighted = build_transition_model(g, table)
        for node in range(g.num_nodes):
            assert np.allclose(uniform.row_probs(node), weighted.row_probs(node), atol=1e-12)
            assert np.array_equal(uniform.successors(node), weighted.successors(node))

    def test_dropped_mass_and_empty_error(self, tmp_path, click_table):
        g = load_edge_list(write(tmp_path, "e.tsv", "A\tB\n"))
        interner = g.interner
        a, b = interner.id("A"), interner.id("B")
        z = interner.intern("Z")
        table = click_table(interner, {(a, b): 5, (a, z): 9})
        m = build_transition_model(g, table)
        assert m.dropped_click_mass == 9
        only_bad = click_table(interner, {(a, z): 9})
        with pytest.raises(ValueError, match="empty transition model"):
            build_transition_model(g, only_bad)

    def test_with_stops_preserves_row_sums(self, tmp_path):
        g = load_edge_list(write(tmp_path, "e.tsv", "A\tB\nA\tC\nB\tA\n"))
        m = build_transition_model(g)
        stops = np.array([0.3, 0.5, 0.0])
        ms = m.with_stops(stops)
        for node in range(ms.num_nodes):
            if ms.is_terminal(node):
                continue
            assert ms.row_probs(node).sum() + ms.stop_probs[node] == pytest.approx(1.0, abs=1e-9)


# a handful of names, so random edge lists repeat names, edges and self-loops
NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f"])
EDGE_LISTS = st.lists(st.tuples(NAMES, NAMES), max_size=40)


def _edge_file(tmp_path_factory, edges):
    path = tmp_path_factory.mktemp("edges") / "e.tsv"
    path.write_text("".join("%s\t%s\n" % e for e in edges), encoding="utf-8")
    return str(path)


class TestCsrProperties:
    @settings(max_examples=80, deadline=None)
    @given(edges=EDGE_LISTS)
    def test_graph_matches_set_oracle(self, tmp_path_factory, edges):
        ids: dict[str, int] = {}
        oracle: set[tuple[int, int]] = set()
        loops = duplicates = 0
        for s, t in edges:
            a, b = ids.setdefault(s, len(ids)), ids.setdefault(t, len(ids))
            if a == b:
                loops += 1
            elif (a, b) in oracle:
                duplicates += 1
            else:
                oracle.add((a, b))
        g = load_edge_list(_edge_file(tmp_path_factory, edges))
        assert g.num_nodes == len(ids)
        assert g.num_edges == len(oracle)
        assert (g.self_loops_dropped, g.duplicates_dropped) == (loops, duplicates)
        for v in range(g.num_nodes):
            assert g.successors(v).tolist() == sorted(t for s, t in oracle if s == v)
        sources, targets = g.edge_arrays()
        assert list(zip(sources.tolist(), targets.tolist())) == sorted(oracle)

        uniform = build_transition_model(g)
        assert uniform.indptr is g.indptr and uniform.indices is g.indices
        for v in range(g.num_nodes):
            degree = len(g.successors(v))
            assert uniform.row_probs(v).tolist() == [1.0 / degree for _ in range(degree)]

    @settings(max_examples=80, deadline=None)
    @given(edges=EDGE_LISTS,
           clicks=st.dictionaries(st.tuples(NAMES | st.just("off-graph"), NAMES),
                                  st.integers(1, 10**9), max_size=30))
    def test_weighted_model_matches_dict_oracle(self, tmp_path_factory, click_table, edges,
                                                clicks):
        g = load_edge_list(_edge_file(tmp_path_factory, edges))
        interner = g.interner
        entries = {(interner.intern(s), interner.intern(t)): c for (s, t), c in clicks.items()}
        edge_set = set(zip(*(a.tolist() for a in g.edge_arrays())))
        rows: dict[int, dict[int, int]] = {}
        dropped = 0
        for (s, t), c in entries.items():
            if (s, t) in edge_set:
                rows.setdefault(s, {})[t] = c
            else:
                dropped += c
        table = click_table(interner, entries)
        if not rows:
            with pytest.raises(ValueError, match="empty transition model"):
                build_transition_model(g, table)
            return
        m = build_transition_model(g, table)
        assert m.num_nodes == g.num_nodes
        assert m.dropped_click_mass == dropped
        for v in range(m.num_nodes):
            row = rows.get(v, {})
            total = sum(row.values())
            assert m.successors(v).tolist() == sorted(row)
            assert m.row_probs(v).tolist() == [row[t] / total for t in sorted(row)]
            assert all((v, t) in edge_set for t in m.successors(v).tolist())


def test_interner_round_trip(tmp_path):
    interner = Interner()
    for name in ["Foo", "Bar", "Baz qux"]:
        interner.intern(name)
    path = tmp_path / "intern.tsv"
    interner.write_tsv(str(path))
    loaded = Interner.read_tsv(str(path))
    assert len(loaded) == 3
    assert loaded.id("Baz qux") == interner.id("Baz qux")


# article names as clickstream rows can carry them: no tab or line break
ARTICLES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                   min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(names=st.lists(ARTICLES, min_size=1, max_size=8, unique=True), data=st.data())
def test_clickstream_write_read_round_trip(tmp_path_factory, click_table, names, data):
    interner = Interner()
    for name in names:
        interner.intern(name)
    ids = st.integers(0, len(names) - 1)
    counts = data.draw(st.dictionaries(st.tuples(ids, ids), st.integers(1, 2**40), max_size=30))
    table = click_table(interner, counts)
    path = str(tmp_path_factory.mktemp("clicks") / "c.tsv")
    table.write_tsv(path)
    reread = Interner()
    for name in names:
        reread.intern(name)
    loaded = load_clickstream(path, reread)
    assert [reread.name(i) for i in range(len(reread))] == names
    assert loaded.entries.tolist() == table.entries.tolist()
    assert loaded.counts.tolist() == table.counts.tolist()
    assert loaded.skipped_rows == 0


@settings(max_examples=80, deadline=None)
@given(names=st.lists(ARTICLES, min_size=1, max_size=8, unique=True), data=st.data())
def test_edge_list_write_read_round_trip(tmp_path_factory, names, data):
    ids = st.integers(0, len(names) - 1)
    edges = data.draw(st.sets(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=30))
    path = tmp_path_factory.mktemp("edges") / "e.tsv"
    path.write_text("".join("%s\t%s\n" % (names[s], names[t]) for s, t in edges),
                    encoding="utf-8")
    graph = load_edge_list(str(path))
    interner = graph.interner
    pairs = [(interner.name(s), interner.name(t)) for s, t in zip(*graph.edge_arrays())]
    assert set(pairs) == {(names[s], names[t]) for s, t in edges}
    # written back as `planted-world` writes its graph, then read again
    path.write_text("".join("%s\t%s\n" % p for p in pairs), encoding="utf-8")
    reread = load_edge_list(str(path), interner)
    assert (graph.self_loops_dropped, graph.duplicates_dropped) == (0, 0)
    assert reread.indptr.tolist() == graph.indptr.tolist()
    assert reread.indices.tolist() == graph.indices.tolist()


@settings(max_examples=80, deadline=None)
@given(names=st.lists(ARTICLES, max_size=12, unique=True), suffix=st.sampled_from([".tsv", ".gz"]))
def test_interner_write_read_round_trip(tmp_path_factory, names, suffix):
    interner = Interner()
    for name in names:
        interner.intern(name)
    path = str(tmp_path_factory.mktemp("interning") / ("interning" + suffix))
    interner.write_tsv(path)
    reread = Interner.read_tsv(path)
    assert [reread.name(i) for i in range(len(reread))] == names
    assert all(reread.id(name) == i for i, name in enumerate(names))


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(NAMES, NAMES, st.sampled_from(["link", "external", "other"]),
                               st.integers(1, 2**40)), max_size=40))
def test_clickstream_sums_match_dict_oracle(tmp_path_factory, click_counts, rows):
    path = tmp_path_factory.mktemp("clicks") / "c.tsv"
    path.write_text("".join("%s\t%s\t%s\t%d\n" % row for row in rows), encoding="utf-8")
    table = load_clickstream(str(path))
    oracle: dict[tuple[str, str], int] = {}
    for s, t, row_type, count in rows:
        if row_type == "link":
            oracle[(s, t)] = oracle.get((s, t), 0) + count
    named = {(table.interner.name(s), table.interner.name(t)): c
             for (s, t), c in click_counts(table).items()}
    assert named == oracle
    assert table.skipped_rows == sum(row[2] != "link" for row in rows)
    assert table.total_clicks == sum(oracle.values())
    assert np.all(np.diff(table.entries) > 0)  # sorted and unique


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
                      max_size=30))
def test_pair_keys_round_trip_and_order(pairs):
    ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    keys = pair_keys(ids[:, 0], ids[:, 1])
    assert list(zip(*(x.tolist() for x in unpack_pairs(keys)))) == pairs
    assert [pairs[i] for i in np.argsort(keys, kind="stable")] == sorted(pairs)
    assert len(set(keys.tolist())) == len(set(pairs))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.floats(0, 1e6, allow_subnormal=False), max_size=12),
                     max_size=20))
def test_row_cumsum_matches_per_row_cumsum(rows):
    # empty rows, and one row longer than every other
    rows = rows + [[], [0.1 * (k + 1) for k in range(13)]]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    probs = np.array([p for r in rows for p in r], dtype=float)
    m = TransitionModel(Interner(), indptr, np.zeros(len(probs), dtype=np.int64), probs)
    expected = np.concatenate([np.cumsum(r, dtype=float) for r in rows])
    assert np.array_equal(m.cum, expected)
