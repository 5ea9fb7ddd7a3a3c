import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chisquare

from navsynth.graph import Interner, ParseError
from navsynth.sessions import (PageviewEvent, SequenceCorpus, build_forest,
                               build_trees, load_corpus, load_pageview_events,
                               sample_root_to_leaf, save_corpus)
from navsynth.stats import rng_stream

KEY = b"\x00" * 16


def ev(article, ts, referrer=None):
    return PageviewEvent(KEY, ts, article, referrer)


class TestBuildTrees:
    def test_tabbed_browsing_single_tree(self):
        trees = build_trees([ev(0, 0), ev(1, 10, referrer=0), ev(2, 20, referrer=0)])
        assert len(trees) == 1
        root = trees[0].nodes[0]
        assert [trees[0].nodes[c].article for c in root.children] == [1, 2]

    def test_unseen_referrer_starts_new_tree(self):
        trees = build_trees([ev(0, 0), ev(1, 10, referrer=99)])
        assert len(trees) == 2

    def test_unsorted_error(self):
        with pytest.raises(ValueError, match="unsorted"):
            build_trees([ev(0, 10), ev(1, 5)])

    def test_inactivity_cutoff(self):
        trees = build_trees([ev(0, 0), ev(1, 10_000, referrer=0)], inactivity_ms=5000)
        assert len(trees) == 2

    def test_matches_backward_scan_oracle(self):
        rng = rng_stream(13)
        events = []
        ts = 0
        for _ in range(30):
            ts += int(rng.integers(1, 100))
            article = int(rng.integers(0, 6))
            referrer = int(rng.integers(0, 6)) if rng.random() < 0.7 else None
            events.append(ev(article, ts, referrer))

        # quadratic reference: scan backwards over prior events for the referrer
        cutoff = 10_000
        parent_of = []
        for i, e in enumerate(events):
            parent = None
            if e.referrer is not None:
                for j in range(i - 1, -1, -1):
                    if events[j].article == e.referrer:
                        if e.timestamp_ms - events[j].timestamp_ms <= cutoff:
                            parent = j
                        break
            parent_of.append(parent)

        trees = build_trees(events, inactivity_ms=cutoff)
        # map forest nodes back to event indices via the strictly increasing
        # timestamps, then compare parent pointers
        rebuilt_parent = [None] * len(events)
        positions = {}  # (tree, node) -> event index
        order = []
        for ti, tree in enumerate(trees):
            for ni in range(len(tree.nodes)):
                order.append((ti, ni, tree.nodes[ni].timestamp_ms))
        order.sort(key=lambda x: x[2])
        for (ti, ni, _), i in zip(order, range(len(events))):
            positions[(ti, ni)] = i
        for ti, tree in enumerate(trees):
            for ni, node in enumerate(tree.nodes):
                i = positions[(ti, ni)]
                rebuilt_parent[i] = (positions[(ti, node.parent)]
                                     if node.parent is not None else None)
        assert rebuilt_parent == parent_of

    def test_conservation(self):
        rng = rng_stream(14)
        events = []
        ts = 0
        for _ in range(50):
            ts += int(rng.integers(1, 50))
            referrer = int(rng.integers(0, 4)) if rng.random() < 0.5 else None
            events.append(ev(int(rng.integers(0, 4)), ts, referrer))
        trees = build_trees(events)
        assert sum(len(t.nodes) for t in trees) == len(events)

    def test_tree_validity(self):
        rng = rng_stream(15)
        events = []
        ts = 0
        for _ in range(40):
            ts += int(rng.integers(1, 50))
            referrer = int(rng.integers(0, 5)) if rng.random() < 0.6 else None
            events.append(ev(int(rng.integers(0, 5)), ts, referrer))
        for tree in build_trees(events):
            roots = [i for i, n in enumerate(tree.nodes) if n.parent is None]
            assert roots == [0]
            for i, node in enumerate(tree.nodes):
                if node.parent is not None:
                    assert node.timestamp_ms >= tree.nodes[node.parent].timestamp_ms
                    assert node.parent < i  # acyclic by construction


class TestSampleRootToLeaf:
    def test_chain(self):
        trees = build_trees([ev(0, 0), ev(1, 1, referrer=0), ev(2, 2, referrer=1)])
        assert sample_root_to_leaf(trees[0], rng_stream(0)) == [0, 1, 2]

    def test_single_node_none(self):
        trees = build_trees([ev(0, 0)])
        assert sample_root_to_leaf(trees[0], rng_stream(0)) is None

    def test_leaf_uniformity(self):
        trees = build_trees([ev(0, 0), ev(1, 1, referrer=0),
                             ev(2, 2, referrer=0), ev(3, 3, referrer=0)])
        rng = rng_stream(16)
        counts = {1: 0, 2: 0, 3: 0}
        n = 30_000
        for _ in range(n):
            counts[sample_root_to_leaf(trees[0], rng)[1]] += 1
        freqs = np.array([counts[k] for k in (1, 2, 3)]) / n
        assert np.all(np.abs(freqs - 1 / 3) < 0.01)
        _, p = chisquare([counts[1], counts[2], counts[3]])
        assert p > 0.01

    def test_depth_bound(self):
        trees = build_trees([ev(0, 0), ev(1, 1, referrer=0), ev(2, 2, referrer=0),
                             ev(3, 3, referrer=1)])
        for _ in range(20):
            path = sample_root_to_leaf(trees[0], rng_stream(17))
            assert len(path) <= 3


def test_build_forest_groups_readers():
    e1 = PageviewEvent(b"\x01" * 16, 0, 0)
    e2 = PageviewEvent(b"\x02" * 16, 1, 1, referrer=0)
    trees = build_forest([e1, e2])
    assert len(trees) == 2  # referrer belongs to a different reader


def test_corpus_round_trip(tmp_path):
    interner = Interner()
    ids = [interner.intern(n) for n in ("A", "B", "C")]
    corpus = SequenceCorpus.from_sequences([[ids[0], ids[1]], [ids[1], ids[2], ids[0]]], "Logs")
    path = str(tmp_path / "corpus.tsv")
    save_corpus(corpus, path, interner)
    text = open(path, encoding="utf-8").read()
    assert text.startswith("#kind=Logs\n")
    loaded = load_corpus(path, interner)
    assert loaded.kind == "Logs"
    assert loaded.sequences == corpus.sequences


@pytest.mark.parametrize("row", ["A\t\tB", "\tA", "A\t", "\t"])
def test_load_corpus_rejects_empty_name(tmp_path, row):
    path = tmp_path / "corpus.tsv"
    path.write_text("#kind=Logs\nA\tB\n%s\n" % row, encoding="utf-8")
    with pytest.raises(ParseError, match=r":3: empty article name$"):
        load_corpus(str(path), Interner())


@settings(max_examples=200, deadline=None)
@given(seqs=st.lists(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6), max_size=12))
def test_from_sequences_round_trip(seqs):
    corpus = SequenceCorpus.from_sequences(seqs, "Logs")
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
        SequenceCorpus.from_sequences(seqs, "Logs")


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
    for name in names:
        interner.intern(name)
    corpus = SequenceCorpus.from_sequences(seqs, "Clickstream-Pub")
    path = str(tmp_path_factory.mktemp("corpus") / ("corpus" + suffix))
    save_corpus(corpus, path, interner)
    loaded = load_corpus(path, interner)
    assert (loaded.kind, loaded.sequences, len(interner)) == ("Clickstream-Pub", seqs, 4)
    assert loaded.pages.dtype == loaded.offsets.dtype == np.int64
    # a fresh interner numbers the names as interning them one token at a time would
    oracle = Interner()
    expected = [[oracle.intern(names[a]) for a in s] for s in seqs]
    fresh = Interner()
    assert load_corpus(path, fresh).sequences == expected
    assert [fresh.name(i) for i in range(len(fresh))] == [oracle.name(i)
                                                          for i in range(len(oracle))]


def test_load_pageview_events(tmp_path):
    path = tmp_path / "events.tsv"
    path.write_text("00ff\t100\tA\t-\n00ff\t200\tB\tA\n", encoding="utf-8")
    interner = Interner()
    events = load_pageview_events(str(path), interner)
    assert len(events) == 2
    assert events[0].referrer is None
    assert events[1].referrer == interner.id("A")
