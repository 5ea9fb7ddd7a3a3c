import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chisquare

import oracles
from navsynth import graph, sessions
from navsynth.downstream import fit_markov2
from navsynth.graph import Interner, ParseError, unpack_pairs
from navsynth.mixing import collect_flow_tables
from navsynth.sessions import (PageviewEvents, SequenceCorpus, build_forest, corpus_from_trees,
                               corpus_triples, load_corpus, load_pageview_events, save_corpus)
from navsynth.stats import rng_stream
from navsynth.synth import PlantedWorldSpec, generate_planted_world

KEY = b"\x00" * 16
HOUR_MS = 60 * 60 * 1000


def ranks(keys):
    """The rank of each reader key among the distinct keys in byte order."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys], dtype=np.int64)


def events(rows, readers=None):
    """PageviewEvents of (article, timestamp, referrer or None) rows, by default of one reader."""
    articles, stamps, referrers = zip(*rows) if rows else ((), (), ())
    return PageviewEvents(ranks(readers or [KEY] * len(rows)),
                          np.array(stamps, dtype=np.int64), np.array(articles, dtype=np.int64),
                          np.array([-1 if r is None else r for r in referrers], dtype=np.int64))


def forest(rows, inactivity_ms=HOUR_MS, readers=None):
    """The parent list of `build_forest` on the rows, after checking that its reading order
    is the rows' order."""
    articles, parent = build_forest(events(rows, readers), inactivity_ms)
    assert articles.tolist() == [row[0] for row in rows]
    assert parent.dtype == np.int64
    return parent.tolist()


def sample(rows, seed):
    return corpus_from_trees(*build_forest(events(rows), HOUR_MS), rng_stream(seed)).sequences


class TestBuildTrees:
    def test_tabbed_browsing_single_tree(self):
        parent = forest([(0, 0, None), (1, 10, 0), (2, 20, 0)])
        assert parent == [-1, 0, 0]  # the root's children are articles 1 and 2

    def test_unseen_referrer_starts_new_tree(self):
        assert forest([(0, 0, None), (1, 10, 99)]) == [-1, -1]

    def test_inactivity_cutoff(self):
        assert forest([(0, 0, None), (1, 10_000, 0)], inactivity_ms=5000) == [-1, -1]

    def test_matches_backward_scan_oracle(self):
        rng = rng_stream(13)
        rows = []
        ts = 0
        for _ in range(30):
            ts += int(rng.integers(1, 100))
            article = int(rng.integers(0, 6))
            referrer = int(rng.integers(0, 6)) if rng.random() < 0.7 else None
            rows.append((article, ts, referrer))

        # quadratic reference: scan backwards over prior events for the referrer
        cutoff = 10_000
        parent_of = []
        for i, (_, ts, referrer) in enumerate(rows):
            parent = -1
            if referrer is not None:
                for j in range(i - 1, -1, -1):
                    if rows[j][0] == referrer:
                        if ts - rows[j][1] <= cutoff:
                            parent = j
                        break
            parent_of.append(parent)

        # the timestamps increase strictly, so the reading order is the rows' order
        assert forest(rows, inactivity_ms=cutoff) == parent_of

    def test_conservation(self):
        rng = rng_stream(14)
        rows = []
        ts = 0
        for _ in range(50):
            ts += int(rng.integers(1, 50))
            referrer = int(rng.integers(0, 4)) if rng.random() < 0.5 else None
            rows.append((int(rng.integers(0, 4)), ts, referrer))
        assert len(forest(rows)) == len(rows)

    def test_tree_validity(self):
        rng = rng_stream(15)
        rows = []
        ts = 0
        for _ in range(40):
            ts += int(rng.integers(1, 50))
            referrer = int(rng.integers(0, 5)) if rng.random() < 0.6 else None
            rows.append((int(rng.integers(0, 5)), ts, referrer))
        for i, p in enumerate(forest(rows)):
            # each tree's first event is its only root, and parents come first: acyclic
            assert -1 <= p < i
            if p >= 0:
                assert rows[i][1] >= rows[p][1]

    def test_reading_order(self):
        # reader ranks (b"\0" before b"\0\0"), then timestamps, then file order
        readers = [b"\x00\x00", b"\x00", b"\x00", b"\x00", b"\x00\x00"]
        articles, parent = build_forest(
            events([(0, 5, None), (1, 9, None), (2, 7, None), (3, 7, 2), (4, 1, 2)], readers),
            HOUR_MS)
        assert articles.tolist() == [2, 3, 1, 4, 0]
        assert parent.tolist() == [-1, 0, -1, -1, -1]


class TestSampleRootToLeaf:
    def test_chain(self):
        assert sample([(0, 0, None), (1, 1, 0), (2, 2, 1)], 0) == [[0, 1, 2]]

    def test_single_node_none(self):
        assert sample([(0, 0, None)], 0) == []

    def test_leaf_uniformity(self):
        # 30,000 copies of one three-leaf tree: article 0 linking to articles 1, 2 and 3
        n = 30_000
        articles = np.tile(np.arange(4), n)
        parent = np.where(articles == 0, -1, np.arange(4 * n) // 4 * 4)
        corpus = corpus_from_trees(articles, parent, rng_stream(16))
        assert np.diff(corpus.offsets).tolist() == [2] * n
        counts = np.bincount(corpus.pages[1::2], minlength=4)[1:]
        freqs = counts / n
        assert np.all(np.abs(freqs - 1 / 3) < 0.01)
        _, p = chisquare(counts)
        assert p > 0.01

    def test_depth_bound(self):
        for seed in range(20):
            path, = sample([(0, 0, None), (1, 1, 0), (2, 2, 0), (3, 3, 1)], seed)
            assert len(path) <= 3
            assert path in ([0, 1, 3], [0, 2])


def test_build_forest_groups_readers():
    # the referrer belongs to a different reader
    assert forest([(0, 0, None), (1, 1, 0)], readers=[b"\x01" * 16, b"\x02" * 16]) == [-1, -1]


# reader keys where a fixed-width bytes dtype would merge b"\x00" and b"\x00\x00"
READERS = st.sampled_from([b"", b"\x00", b"\x00\x00", b"\x01", b"\x00\x01"])
EVENT_ROWS = st.lists(st.tuples(READERS, st.integers(0, 12), st.integers(0, 4),
                                st.integers(-1, 5)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=EVENT_ROWS, inactivity_ms=st.sampled_from([0, 1, 3, HOUR_MS]),
       seed=st.integers(0, 2**32 - 1))
@example(rows=[], inactivity_ms=0, seed=0)
def test_forest_and_paths_match_scalar_oracle(rows, inactivity_ms, seed):
    readers, stamps, articles, referrers = map(list, zip(*rows)) if rows else ([],) * 4
    order, parent = oracles.forest(readers, stamps, articles, referrers, inactivity_ms)
    built = PageviewEvents(ranks(readers), np.array(stamps, dtype=np.int64),
                           np.array(articles, dtype=np.int64), np.array(referrers, dtype=np.int64))
    got_articles, got_parent = build_forest(built, inactivity_ms)
    assert got_articles.tolist() == [articles[i] for i in order]
    assert got_parent.tolist() == parent
    corpus = corpus_from_trees(got_articles, got_parent, rng_stream(seed))
    assert corpus.pages.dtype == corpus.offsets.dtype == np.int64
    ordered = [articles[i] for i in order]
    assert corpus.sequences == oracles.root_to_leaf_paths(ordered, parent, rng_stream(seed))


def test_deep_chain_matches_scalar_oracle():
    # one reader's 50,000 events, each referred by the one before: one tree 49,999 levels deep
    n = 50_000
    articles, parent = np.arange(n) * 7 % n, np.arange(-1, n - 1)
    corpus = corpus_from_trees(articles, parent, rng_stream(17))
    assert corpus.offsets.tolist() == [0, n]
    assert corpus.sequences == oracles.root_to_leaf_paths(articles.tolist(), parent.tolist(),
                                                          rng_stream(17))


@settings(max_examples=200, deadline=None)
@given(size=st.integers(0, 400), roots=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_deep_forests_match_scalar_oracle(size, roots, seed):
    # each event after the first is a root with probability `roots`, and otherwise a child of
    # one of the 6 events before it: trees up to about a hundred levels deep that branch at
    # every depth
    rng = rng_stream(seed, 1)
    back = rng.integers(1, 7, size=size)
    parent = np.where((rng.random(size) < roots) | (np.arange(size) < back), -1,
                      np.arange(size) - back)
    articles = rng.integers(0, 11, size=size)
    corpus = corpus_from_trees(articles, parent, rng_stream(seed))
    assert corpus.sequences == oracles.root_to_leaf_paths(articles.tolist(), parent.tolist(),
                                                          rng_stream(seed))


def test_corpus_round_trip(tmp_path):
    interner = Interner()
    ids = interner.intern_all(["A", "B", "C"]).tolist()
    corpus = oracles.from_sequences([[ids[0], ids[1]], [ids[1], ids[2], ids[0]]], "Logs")
    path = str(tmp_path / "corpus.tsv")
    save_corpus(corpus, path, interner)
    text = open(path, encoding="utf-8").read()
    assert text.startswith("#kind=Logs\n")
    loaded = load_corpus(path, interner)
    assert loaded.kind == "Logs"
    assert loaded.sequences == corpus.sequences


def test_save_corpus_refuses_a_sequence_that_reads_as_a_comment(tmp_path):
    interner = Interner()
    a, x = interner.intern_all(["A", "#x"]).tolist()
    path = tmp_path / "corpus.tsv"
    save_corpus(oracles.from_sequences([[a, x]], "Logs"), path, interner)
    assert load_corpus(path, interner).sequences == [[a, x]]  # "#" inside a row is no comment
    path.unlink()
    with pytest.raises(ValueError, match="article '#x' starts a sequence"):
        save_corpus(oracles.from_sequences([[a, x], [x, a]], "Logs"), path, interner)
    assert not path.exists()


@pytest.mark.parametrize("row", ["A\t\tB", "\tA", "A\t", "\t"])
def test_load_corpus_rejects_empty_name(tmp_path, row):
    path = tmp_path / "corpus.tsv"
    path.write_text("#kind=Logs\nA\tB\n%s\n" % row, encoding="utf-8")
    with pytest.raises(ParseError, match=r":3: empty article name$"):
        load_corpus(str(path), Interner())


@settings(max_examples=200, deadline=None)
@given(seqs=st.lists(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6), max_size=12))
def test_from_sequences_round_trip(seqs):
    corpus = oracles.from_sequences(seqs, "Logs")
    assert corpus.sequences == seqs
    assert len(corpus) == len(seqs)
    assert corpus.pages.dtype == corpus.offsets.dtype == np.int64
    assert len(corpus.offsets) == len(seqs) + 1
    assert corpus.offsets[0] == 0 and corpus.offsets[-1] == len(corpus.pages)
    assert np.diff(corpus.offsets).tolist() == [len(s) for s in seqs]


@pytest.mark.parametrize("seqs,index", [([[]], 0), ([[0, 1], []], 1), ([[0], [], [2, 3]], 1)])
def test_from_sequences_rejects_empty_sequence(seqs, index):
    # a sequence's start is pages[offsets[i]], which an empty sequence does not have
    with pytest.raises(ValueError, match="^empty sequence %d$" % index):
        oracles.from_sequences(seqs, "Logs")


def ragged(seqs) -> SequenceCorpus:
    """A corpus of `seqs`, empty ones included, which `from_sequences` refuses."""
    pages = np.array([a for s in seqs for a in s], dtype=np.int64)
    return SequenceCorpus(pages, np.cumsum([0, *map(len, seqs)]), "Logs")


SHORT = [[], [3], [4, 5]]  # sequences too short for a window


@settings(max_examples=200, deadline=None)
@given(seqs=st.lists(st.lists(st.integers(0, 3) | st.integers(0, 2**31 - 1), max_size=6),
                     max_size=12))
@example(seqs=SHORT + [[0, 1, 2, 0, 1, 2]])
@example(seqs=[[0, 1, 2]] + SHORT + [[1, 2, 0, 1]] + SHORT[::-1] + [[0, 1, 2]])
@example(seqs=[[2, 1, 0, 1]] + SHORT)
@example(seqs=SHORT)
def test_triples_match_counter_oracle(seqs):
    corpus = ragged(seqs)
    windows = [(lo + i, tuple(s[i:i + 3]))
               for lo, s in zip(corpus.offsets.tolist(), seqs) for i in range(len(s) - 2)]
    oracle = Counter(w for _, w in windows)
    starts = corpus_triples(corpus)
    assert starts.dtype == np.int64 and starts.tolist() == [pos for pos, _ in windows]
    middles, sources, targets, counts = collect_flow_tables(corpus)
    flows = [*zip(sources.tolist(), middles.tolist(), targets.tolist())]
    assert flows == sorted(oracle, key=lambda w: (w[1], w[0], w[2]))
    assert Counter(dict(zip(flows, counts.tolist()))) == oracle
    model = fit_markov2(corpus.pages, starts)
    assert (np.diff(model.contexts) > 0).all() and (np.diff(model.keys) > 0).all()
    context, nexts = unpack_pairs(model.keys)
    current, prev = unpack_pairs(model.contexts[context])
    transitions = zip(prev.tolist(), current.tolist(), nexts.tolist())
    assert Counter(dict(zip(transitions, model.counts.tolist()))) == oracle
    assert all(a.dtype == np.int64 for a in (middles, sources, targets, counts, model.contexts,
                                             model.keys, model.counts))


def test_triple_counts_hold_under_40_bytes_per_window():
    # 600 articles with second-order memory, as on real hub articles: windows repeat, so the
    # counted result is smaller than the windows (a corpus of distinct windows needs up to
    # 64 B per window, 32 of them for the flow tables' four result arrays)
    corpus = generate_planted_world(PlantedWorldSpec(
        num_nodes=600, out_degree=8, memory_strength=0.7, corpus_size=30_000, seed=4)).corpus
    windows = len(corpus_triples(corpus))
    assert windows >= 50_000
    for count in (lambda: collect_flow_tables(corpus),
                  lambda: fit_markov2(corpus.pages, corpus_triples(corpus))):
        tracemalloc.start()
        try:
            result = count()  # the result is live at the peak or after it
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / windows <= 40, peak / windows
        del result


# article names a corpus row can carry: no tab or line break, and no leading "#",
# which marks a comment line
ARTICLES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                   min_size=1, max_size=8).filter(lambda name: not name.startswith("#"))


@settings(max_examples=80, deadline=None)
@given(names=st.lists(ARTICLES, min_size=4, max_size=4, unique=True),
       seqs=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=6), max_size=12),
       suffix=st.sampled_from([".tsv", ".tsv.gz"]))
@example(names=["a", "b", "c", "d"], seqs=[], suffix=".tsv.gz")
@example(names=["a", "b", "c", "d"], seqs=[[3], [1], [1, 3]], suffix=".tsv")
def test_corpus_save_load_round_trip(tmp_path_factory, names, seqs, suffix):
    interner = Interner()
    interner.intern_all(names)
    corpus = oracles.from_sequences(seqs, "Clickstream-Pub")
    path = str(tmp_path_factory.mktemp("corpus") / ("corpus" + suffix))
    save_corpus(corpus, path, interner)
    loaded = load_corpus(path, interner)
    assert (loaded.kind, loaded.sequences, len(interner)) == ("Clickstream-Pub", seqs, 4)
    assert loaded.pages.dtype == loaded.offsets.dtype == np.int64
    # a fresh interner numbers the names as interning them one token at a time would
    oracle = {}
    expected = [[oracle.setdefault(names[a], len(oracle)) for a in s] for s in seqs]
    fresh = Interner()
    assert load_corpus(path, fresh).sequences == expected
    assert fresh.names(range(len(fresh))) == [*oracle]


def test_load_pageview_events(tmp_path):
    path = tmp_path / "events.tsv"
    path.write_text("00ff\t100\tA\t-\n00ff\t200\tB\tA\n", encoding="utf-8")
    interner = Interner()
    events = load_pageview_events(str(path), interner)
    assert len(events) == 2
    assert events.readers.tolist() == [0, 0]
    assert all(a.dtype == np.int64 for a in vars(events).values())
    assert events.timestamps.tolist() == [100, 200]
    ids = oracles.name_ids(interner)
    assert events.articles.tolist() == [ids["A"], ids["B"]]
    assert events.referrers.tolist() == [-1, ids["A"]]


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(st.sampled_from([b"", b"\x00", b"\x00\x00", b"\x0a",
                                                b"\x00\x0a", b"\xab"]), st.booleans()),
                    max_size=12))
def test_load_pageview_events_ranks_keys_in_byte_order(tmp_path_factory, keys):
    # "0A" and "0a" are one key; b"" ranks first and b"\x00" before b"\x00\x00" and b"\x0a"
    texts = [key.hex().upper() if upper else key.hex() for key, upper in keys]
    path = tmp_path_factory.mktemp("events") / "events.tsv"
    path.write_text("".join("%s\t%d\tA\t-\n" % (text, i) for i, text in enumerate(texts)),
                    encoding="utf-8")
    events = load_pageview_events(str(path), Interner())
    assert events.readers.dtype == np.int64
    assert events.readers.tolist() == ranks([key for key, _ in keys]).tolist()


def test_load_pageview_events_parses_each_key_text_once(tmp_path, monkeypatch):
    parsed = []

    def parse(convert, text, *where):
        parsed.extend([text] if convert == bytes.fromhex else [])
        return graph._parse(convert, text, *where)
    monkeypatch.setattr(sessions, "_parse", parse)
    texts = ["00FF", "0a", "00ff", "00 ff", "00FF", "0a", "00 ff"]
    path = tmp_path / "events.tsv"
    path.write_text("".join("%s\t%d\tA\t-\n" % (t, i) for i, t in enumerate(texts)),
                    encoding="utf-8")
    events = load_pageview_events(str(path), Interner())
    assert parsed == ["00FF", "0a", "00ff", "00 ff"]
    # "00FF", "00ff" and "00 ff" are the one key b"\x00\xff", which sorts before b"\x0a"
    assert events.readers.tolist() == [0, 1, 0, 0, 0, 1, 0]
