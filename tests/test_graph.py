import gzip
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from navsynth import graph
from navsynth.diffusion import (EmbeddingTable, load_embeddings, load_relatedness_pairs,
                                load_topic_labels)
from navsynth.graph import (Interner, ParseError, apply_k_anonymity,
                            build_transition_model, load_clickstream, load_config,
                            load_edge_list, load_result_values, pair_keys, unpack_pairs,
                            TransitionModel, write_csv, write_rows)
from navsynth.sessions import load_corpus, load_pageview_events
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
        a, b = map(oracles.name_ids(t.interner).__getitem__, "AB")
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
        a, b, c = interner.intern_all([*"ABC"]).tolist()
        table = click_table(interner, {(a, b): 10, (a, c): 11})
        out = apply_k_anonymity(table, 10)
        assert click_counts(out) == {(a, c): 11}
        assert click_counts(table) == {(a, b): 10, (a, c): 11}  # input unmodified

    def test_threshold_zero_identity(self, click_table, click_counts):
        interner = Interner()
        a, b = interner.intern_all(["A", "B"]).tolist()
        table = click_table(interner, {(a, b): 1})
        assert click_counts(apply_k_anonymity(table, 0)) == click_counts(table)

    def test_matches_brute_force(self, click_table, click_counts):
        rng = rng_stream(5)
        interner = Interner()
        ids = interner.intern_all(["n%d" % i for i in range(30)]).tolist()
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
        ids = interner.intern_all(["n%d" % i for i in range(10)]).tolist()
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
        a = oracles.name_ids(g.interner)["A"]
        assert m.row_probs(a) == pytest.approx([0.5, 0.5])

    def test_weighted_proportional(self, tmp_path, click_table):
        g = load_edge_list(write(tmp_path, "e.tsv", "A\tB\nA\tC\n"))
        interner = g.interner
        a, b, c = map(oracles.name_ids(interner).__getitem__, "ABC")
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
        ids = oracles.name_ids(interner)
        table = click_table(interner, {(ids[s], ids[t]): c for (s, t), c in weights.items()})
        m = build_transition_model(g, table)
        totals = {}
        for (s, _), c in weights.items():
            totals[s] = totals.get(s, 0) + c
        for node in range(m.num_nodes):
            if not len(m.successors(node)):
                continue
            assert m.row_probs(node).sum() == pytest.approx(1.0, abs=1e-9)
            for t, p in zip(m.successors(node), m.row_probs(node)):
                key = tuple(interner.names([node, t]))
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
        a, b = map(oracles.name_ids(interner).__getitem__, "AB")
        [z] = interner.intern_all(["Z"]).tolist()
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
            if not len(ms.successors(node)):
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
        entries = {tuple(interner.intern_all([s, t]).tolist()): c for (s, t), c in clicks.items()}
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
    interner.intern_all(["Foo", "Bar", "Baz qux"])
    path = tmp_path / "intern.tsv"
    interner.write_tsv(str(path))
    loaded = oracles.interning(str(path))
    assert len(loaded) == 3
    assert loaded.index("Baz qux") == oracles.name_ids(interner)["Baz qux"]


@pytest.mark.parametrize("dataset", ["Washington,_D.C.", 'The "Hub"', "#x", "a\nb", "plain"])
def test_csv_fields_round_trip(tmp_path, dataset):
    # a field with a comma, a quote or a line break is quoted, and so is one that starts with
    # "#", which a reader would skip as a comment
    path = tmp_path / "r.csv"
    write_csv(path, ["dataset", "metric", "value"], [(dataset, "m,1", "0.5")], "header")
    text = path.read_text(encoding="utf-8")
    if dataset == "plain":
        assert text == "# header\ndataset,metric,value\nplain,\"m,1\",0.5\n"
    if "\n" in dataset:  # written quoted, but a row cannot span two lines of a result file
        with pytest.raises(ParseError, match=r"r.csv:3: expected 3 columns$"):
            load_result_values([path])
    else:
        assert load_result_values([path]) == {(dataset, "m,1"): 0.5}


def test_result_field_over_the_csv_limit_cites_its_line(tmp_path):
    path = write(tmp_path, "r.csv", 'Logs,m,1\n"%s",m,2\n' % ("x" * 200_000))
    with pytest.raises(ParseError, match=r"r.csv:2: field larger than field limit"):
        load_result_values([path])


# article names as clickstream rows can carry them: no tab or line break
ARTICLES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                   min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(names=st.lists(ARTICLES, min_size=1, max_size=8, unique=True), data=st.data())
def test_clickstream_write_read_round_trip(tmp_path_factory, click_table, names, data):
    interner = Interner()
    interner.intern_all(names)
    ids = st.integers(0, len(names) - 1)
    counts = data.draw(st.dictionaries(st.tuples(ids, ids), st.integers(1, 2**40), max_size=30))
    table = click_table(interner, counts)
    path = str(tmp_path_factory.mktemp("clicks") / "c.tsv")
    table.write_tsv(path)
    reread = Interner()
    reread.intern_all(names)
    loaded = load_clickstream(path, reread)
    assert reread.names(range(len(reread))) == names
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
    pairs = [*zip(*map(interner.names, graph.edge_arrays()))]
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
    interner.intern_all(names)
    path = str(tmp_path_factory.mktemp("interning") / ("interning" + suffix))
    interner.write_tsv(path)
    assert oracles.interning(path) == names


def test_gz_output_bytes_depend_only_on_the_rows(tmp_path, monkeypatch):
    rows = [["a", "b\u00e9"], ["c", "1"]]
    write_rows(tmp_path / "one.tsv.gz", rows)
    monkeypatch.setattr(gzip, "time", SimpleNamespace(time=lambda: 2e9))  # a later write
    write_rows(tmp_path / "two.tsv.gz", rows)
    assert (tmp_path / "one.tsv.gz").read_bytes() == (tmp_path / "two.tsv.gz").read_bytes()
    assert chunked_rows(str(tmp_path / "two.tsv.gz"), 2) == [(1, rows[0]), (2, rows[1])]


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
    named = {tuple(table.interner.names(pair)): c for pair, c in click_counts(table).items()}
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


KEYS = st.integers(0, 40) | st.integers(0, 2**62)  # small keys, so that queries hit


@settings(max_examples=200, deadline=None)
@given(keys=st.sets(KEYS), query=st.lists(KEYS | st.just(-1)))
@example(keys=set(), query=[0, 3])
@example(keys={1, 5}, query=[])
def test_lookup_matches_isin(keys, query):
    keys, query = np.array(sorted(keys), dtype=np.int64), np.array(query, dtype=np.int64)
    found = graph._lookup(keys, query)
    assert np.array_equal(found < len(keys), np.isin(query, keys))
    assert found.tolist() == [keys.tolist().index(q) if q in keys else len(keys)
                              for q in query.tolist()]


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


def outcome(read):
    """`read()`, or the message of the ParseError it raises."""
    try:
        return read()
    except ParseError as e:
        return str(e)


def chunked_rows(path, ncols):
    rows = []
    for line_nos, widths, fields in graph._chunks(path, ncols):
        starts = (np.cumsum(widths) - widths).tolist()
        rows += [(n, fields[s:s + w])
                 for n, s, w in zip(line_nos.tolist(), starts, widths.tolist())]
    return rows


def interned(names, read):
    """The result of `read(interner)` over an interner holding `names`, and the interner's
    names after it."""
    interner = Interner()
    interner.intern_all(names)
    result = read(interner)
    return result, interner.names(range(len(interner)))


def dict_interned(names, read):
    """The result of `read(ids)` over a name -> id dict holding `names`, and the dict's names
    after it."""
    ids = dict(zip(names, range(len(names))))
    result = read(ids)
    return result, [*ids]


def edge_summary(pairs):
    """Distinct non-loop edges, self-loops and duplicates of a list of (source, target) ids."""
    kept = [p for p in pairs if p[0] != p[1]]
    return sorted(set(kept)), len(pairs) - len(kept), len(kept) - len(set(kept))


# "\x0b" to "\u2028" end lines for str.splitlines but not in a file; "#" starts a comment
# line in a corpus
FIELD = st.text("ab#\u00e9\u65e5 \x0b\x0c\x1c\x85\u2028", max_size=3) | st.sampled_from(
    ["#kind=k", "0", "1", "-", "link"])
# per format, its width and rows that its reader accepts ("" is a blank line): embeddings,
# config and result rows; edges or corpus rows, interning rows and topic labels; relatedness
# pairs; clickstream and pageview rows
VALID_ROWS = [(1, ["", "a 1", "b 0.5", "ab -1"]), (1, ["", "x=1", "a=", "# c", "b=2"]),
              (1, ["", "a,b,1", "b,a,2", "dataset,metric,v", "# c"]),
              (2, ["", "a\tb", "b\tab", "ab\ta"]), (2, ["", "0\ta", "1\tb", "2\tab"]),
              (2, ["", "a\t0,1", "b\t1", "ab\t0"]), (3, ["", "a\tb\t1", "b\tab\t0.5"]),
              (4, ["", "a\tb\tlink\t1", "b\ta\tother\t2", "ab\tb\tlink\t3"]),
              (4, ["", "00\t1\ta\t-", "ab\t2\tb\ta", "00\t3\tab\tb"])]


@st.composite
def tsv_files(draw):
    """(ncols, text) of a file of mostly `ncols` columns, with blank lines, CR and CRLF line
    ends, and perhaps no final line end; in about half the files, rows of other widths, empty
    fields, fields that no reader accepts and repeated rows are mixed with the rows of one
    format."""
    ncols, valid = draw(st.sampled_from(VALID_ROWS))
    row = st.sampled_from(valid).map(lambda text: text.split("\t"))
    if draw(st.booleans()):
        width = st.just(ncols) | st.integers(0, 4)
        row |= width.flatmap(lambda w: st.lists(FIELD, min_size=w, max_size=w))
        lines = draw(st.lists(row, max_size=12))
    else:  # no row repeats, so a reader that rejects a repeated name can accept the file
        lines = draw(st.lists(row, max_size=12, unique_by=tuple))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join("\t".join(fields) + end for fields, end in zip(lines, ends))
    return ncols, text[:-len(ends[-1])] if lines and draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(file=tsv_files(), chunk=st.integers(1, 64),
       prefill=st.lists(st.text("ab", min_size=1, max_size=2), max_size=3, unique=True))
@example(file=(2, "a\tb\n\ta\nb\n"), chunk=64, prefill=[])  # an empty name, then a wrong width
def test_chunked_readers_match_per_line_oracle(tmp_path_factory, file, chunk, prefill):
    # with chunks shorter than some lines, the readers give the ids, interner order and first
    # error of a reader that takes one line at a time
    ncols, text = file
    base = tmp_path_factory.mktemp("tsv")
    (base / "input.tsv").write_bytes(text.encode("utf-8"))
    # the same lines as embeddings of dimension 1, under a header that counts the non-blank ones
    rows = sum(1 for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
               if line.rstrip())
    (base / "emb.txt").write_bytes(("%d 1\n" % rows + text).encode("utf-8"))
    path, emb = str(base / "input.tsv"), str(base / "emb.txt")

    def same(read, reference):
        assert outcome(lambda: interned(prefill, read)) == outcome(
            lambda: dict_interned(prefill, reference))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "CHUNK_BYTES", chunk)
        assert outcome(lambda: chunked_rows(path, ncols)) == \
            outcome(lambda: list(oracles.rows(path, ncols)))
        if ncols == 2:
            def edges(interner):
                g = load_edge_list(path, interner)
                return (list(zip(*(a.tolist() for a in g.edge_arrays()))),
                        g.self_loops_dropped, g.duplicates_dropped)
            same(edges, lambda ids: edge_summary(oracles.edge_ids(path, ids)))
            labeled = ["a", "b", "ab"]  # the articles with a vector
            same(lambda interner: load_topic_labels(
                path, interner, EmbeddingTable(interner.intern_all(labeled), np.eye(3)), 2),
                lambda ids: oracles.topic_labels(
                    path, ids, [oracles.intern(ids, name) for name in labeled], 2))
        if ncols == 3:
            def pairs(interner):
                ids, scores = load_relatedness_pairs(path, interner)
                return [(a, b, s) for (a, b), s in zip(ids.tolist(), scores.tolist())]
            same(pairs, lambda ids: oracles.relatedness_pairs(path, ids))
        if ncols == 4:
            def clicks(interner):
                table = load_clickstream(path, interner)
                pairs = zip(*(a.tolist() for a in unpack_pairs(table.entries)))
                return list(zip(pairs, table.counts.tolist())), table.skipped_rows
            same(clicks, lambda ids: oracles.clickstream(path, ids))

            def events(interner):
                e = load_pageview_events(path, interner)
                return list(zip(*(a.tolist() for a in (e.readers, e.timestamps, e.articles,
                                                       e.referrers))))
            same(events, lambda ids: oracles.pageview_events(path, ids))

        def corpus(interner):
            c = load_corpus(path, interner)
            return c.kind, c.sequences
        same(corpus, lambda ids: oracles.corpus(path, ids))

        def embeddings(interner):
            table = load_embeddings(emb, interner)
            return table.articles.tolist(), table.vectors.tolist()
        same(embeddings, lambda ids: oracles.embeddings(emb, ids))
        options = {"a": None, "b": int, "x": int}
        assert outcome(lambda: load_config(path, options)) == \
            outcome(lambda: oracles.config(path, options))
        assert outcome(lambda: load_result_values([path])) == \
            outcome(lambda: oracles.result_values([path]))


@settings(max_examples=200, deadline=None)
@given(file=tsv_files(), data=st.data())
def test_fields_decode_what_they_select(tmp_path_factory, file, data):
    # a slice, an ascending index array or a mask selects the texts that decoding each
    # selected field alone gives
    path = tmp_path_factory.mktemp("tsv") / "input.tsv"
    path.write_bytes(file[1].encode("utf-8"))
    for _, _, fields in graph._chunks(str(path)):
        n = len(fields.starts)
        picked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        step = data.draw(st.integers(1, 4))
        for i in (slice(None), slice(data.draw(st.integers(0, 3)), None, step),
                  np.flatnonzero(picked), np.array(picked, dtype=bool)):
            assert fields[i] == [fields.buf[a:a + k].decode() for a, k in
                                 zip(fields.starts[i].tolist(), fields.lengths[i].tolist())]


def test_undecodable_line_cited_past_the_first_chunk(tmp_path, monkeypatch):
    path = tmp_path / "e.tsv"
    path.write_bytes(b"A\tB\r\n" * 5 + b"\n" + "\u00e9\tB\n".encode() + b"A\t\xffB\n" + b"A\tB\n")
    monkeypatch.setattr(graph, "CHUNK_BYTES", 4)
    with pytest.raises(ParseError, match=r"e\.tsv:8: invalid UTF-8$"):
        load_edge_list(str(path))


def test_pair_readers_give_the_same_result_in_any_chunk_size(tmp_path, monkeypatch):
    # a duplicate edge, a self-loop and a repeated click pair fall in different chunks
    edges = write(tmp_path, "e.tsv", "A\tB\nB\tC\nC\tC\nA\tB\nC\tA\nB\tB\n")
    clicks = write(tmp_path, "c.tsv",
                   "A\tB\tlink\t3\nB\tC\tother\t5\nC\tA\tlink\t2\nA\tB\tlink\t4\n")

    def read():
        g, t = load_edge_list(edges), load_clickstream(clicks)
        return ([g.interner.names(range(g.num_nodes)), g.indptr.tolist(), g.indices.tolist(),
                 g.self_loops_dropped, g.duplicates_dropped],
                [t.interner.names(range(len(t.interner))), t.entries.tolist(),
                 t.counts.tolist(), t.skipped_rows])

    whole = read()
    assert whole[0][3:] == [2, 1] and whole[1][2:] == [[7, 2], 1]
    for chars in (1, 5, 12):
        monkeypatch.setattr(graph, "CHUNK_BYTES", chars)
        assert len([*graph._chunks(edges, 2)]) >= 3
        assert read() == whole


@pytest.mark.parametrize("read,text,message", [
    (lambda p: load_embeddings(p, Interner()), "2 1\n\nalpha 1.5\nbeta x\n",
     ":4: could not convert string to float: 'x'"),
    (lambda p: load_embeddings(p, Interner()), "\n2 1\nalpha 1.5\nbeta 2\n",
     ":1: expected 'N dim' header"),
    (lambda p: load_config(p, {"x": int}), "# run settings\n\nx = 12\nx=twelve\n",
     ":4: invalid x 'twelve'"),
    (lambda p: load_result_values([p]), "# navsynth\ndataset,metric,value\n\nA,m,1\nA,m\n",
     ":5: expected 3 columns"),
], ids=["embeddings-value", "embeddings-header", "config", "report"])
def test_text_readers_cite_lines_past_the_first_chunk(tmp_path, monkeypatch, read, text,
                                                      message):
    path = write(tmp_path, "input.txt", text)
    monkeypatch.setattr(graph, "CHUNK_BYTES", 4)
    with pytest.raises(ParseError, match="^%s%s$" % (re.escape(path), re.escape(message))):
        read(path)


@pytest.mark.parametrize("read,text,message", [
    (load_edge_list, b"A\tB\nA\n\xff\tB\n", ":2: expected 2 columns"),
    (lambda p: load_embeddings(p, Interner()), b"2 1\nA x\n\xff 1\n",
     ":2: could not convert string to float: 'x'"),
    (lambda p: load_config(p, {"x": int}), b"x=1\nx=y\nx=\xff\n", ":2: invalid x 'y'"),
], ids=["edges", "embeddings", "config"])
def test_first_fault_in_file_order_before_an_undecodable_line(tmp_path, read, text, message):
    # within one chunk, a malformed row is reported before a later line that is not UTF-8
    path = tmp_path / "input.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError, match="^%s%s$" % (re.escape(str(path)), re.escape(message))):
        read(str(path))


def test_pair_readers_hold_at_most_24_bytes_per_row_beyond_their_result(tmp_path, monkeypatch):
    # the temporaries that grow with the file: packed keys, counts and sort order. The fields
    # of one chunk take about 20 bytes per character of CHUNK_BYTES whatever the file's
    # length, so small chunks keep that fixed part out of the per-row bound
    rows, rng = 50_000, rng_stream(9)
    names = ["Article_%d" % i for i in range(5000)]
    sources, targets, counts = (rng.integers(0, 5000, rows), rng.integers(0, 5000, rows),
                                rng.integers(1, 1000, rows))
    kinds = np.where(rng.random(rows) < 0.9, "link", "other")
    edges = write(tmp_path, "e.tsv", "".join(
        "%s\t%s\n" % (names[s], names[t]) for s, t in zip(sources, targets)))
    clicks = write(tmp_path, "c.tsv", "".join(
        "%s\t%s\t%s\t%d\n" % (names[s], names[t], k, c)
        for s, t, k, c in zip(sources, targets, kinds, counts)))
    monkeypatch.setattr(graph, "CHUNK_BYTES", 1 << 12)
    for read, path in ((load_edge_list, edges), (load_clickstream, clicks)):
        tracemalloc.start()
        try:
            result = read(path)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - size) / rows <= 24, (read.__name__, (peak - size) / rows)
        del result


# hashes under which every name collides with others: a match must be confirmed on bytes
DEGENERATE_HASHES = {"one": lambda steps, lengths: np.zeros(len(lengths), dtype=np.uint64),
                     "length": lambda steps, lengths: lengths.astype(np.uint64)}


@pytest.mark.parametrize("degenerate", DEGENERATE_HASHES.values(), ids=DEGENERATE_HASHES)
@settings(max_examples=100, deadline=None)
@given(file=tsv_files(), chunk=st.integers(1, 64),
       prefill=st.lists(st.text("ab", min_size=1, max_size=2), max_size=3, unique=True))
def test_readers_match_per_line_oracle_when_hashes_collide(tmp_path_factory, degenerate, file,
                                                           chunk, prefill):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_hash", degenerate)
        test_chunked_readers_match_per_line_oracle.hypothesis.inner_test(
            tmp_path_factory, file, chunk, prefill)


# names that share their first 8 bytes, that differ only past them, that hold multi-byte UTF-8
# or NUL bytes, and the empty name
NAMES = st.sampled_from(["", "A", "A\x00", "A\x00\x00", "Article_", "Article_1", "Article_10",
                         "Article_1\x00"]) | st.builds(
    str.__add__, st.sampled_from(["", "Article_", "Article_2_and_more_", "日本"]),
    st.text("abé日\U0001F600\x00", max_size=12))


@pytest.mark.parametrize("hash_", [graph._hash, *DEGENERATE_HASHES.values()],
                         ids=["hash", *DEGENERATE_HASHES])
@settings(max_examples=200, deadline=None)
@given(prefill=st.lists(NAMES, max_size=8, unique=True), names=st.lists(NAMES, max_size=30),
       cut=st.integers(0, 30))
@example(prefill=[], names=["A", "A\x00", "A", "A\x00", ""], cut=2)
@example(prefill=["Article_1"], names=["Article_12", "Article_1", "Article_13", "Article_12"],
         cut=0)
def test_intern_all_matches_a_dict(hash_, prefill, names, cut):
    ids = dict(zip(prefill, range(len(prefill))))  # the oracle: name -> id in first appearance
    expected = [ids.setdefault(name, len(ids)) for name in names]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_hash", hash_)
        interner = Interner()
        interner.intern_all(prefill)
        got = np.concatenate([interner.intern_all(names[:cut]), interner.intern_all(names[cut:])])
    assert got.dtype == np.int64 and got.tolist() == expected
    assert interner.names(range(len(interner))) == [*ids]


@pytest.mark.parametrize("data,chunk", [
    (b"A\tB\r\nC\tD\r\nE\r\n", 4),  # the first read ends between the CR and the LF of a CRLF
    (b"A\tB\r\nC\tD\r", 9),  # the file ends in a CR, which the last read ends on
    ("A\t日本\n\U0001F600\tB\n".encode(), 4),  # reads end inside 3- and 4-byte characters
], ids=["crlf", "cr-at-end", "multi-byte"])
def test_chunks_split_in_a_line_end_or_a_character_read_as_whole(tmp_path, monkeypatch, data,
                                                                  chunk):
    path = tmp_path / "e.tsv"
    path.write_bytes(data)
    path = str(path)
    whole = outcome(lambda: edge_summary(oracles.edge_ids(path, {})))
    monkeypatch.setattr(graph, "CHUNK_BYTES", chunk)
    assert outcome(lambda: chunked_rows(path, 2)) == outcome(lambda: list(oracles.rows(path, 2)))

    def edges():
        g = load_edge_list(path)
        return edge_summary(list(zip(*(a.tolist() for a in g.edge_arrays()))))
    assert outcome(edges) == whole


def test_a_pass_of_chunks_and_interning_holds_two_thirds_of_the_str_fields(tmp_path):
    # at the default chunk size, splitting each chunk into str fields held 1,201 KB at once
    # over this file; its bytes, int64 spans and the interner's arrays hold under two-thirds
    rows, rng = 50_000, rng_stream(9)
    names = ["Article_%d" % i for i in range(5000)]
    sources, targets = rng.integers(0, 5000, rows), rng.integers(0, 5000, rows)
    path = write(tmp_path, "e.tsv", "".join(
        "%s\t%s\n" % (names[s], names[t]) for s, t in zip(sources, targets)))
    interner = Interner()
    tracemalloc.start()
    try:
        for _, _, fields in graph._chunks(path, 2):
            interner.intern_spans(*fields.take())
        size, peak = tracemalloc.get_traced_memory()  # the interner is what the pass keeps
    finally:
        tracemalloc.stop()
    assert len(interner) == 5000
    assert peak - size <= 1_201_000 * 2 / 3, peak - size
