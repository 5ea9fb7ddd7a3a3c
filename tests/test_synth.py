from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsynth import stats, synth
from navsynth.graph import (Interner, apply_k_anonymity, build_transition_model,
                            load_edge_list)
from navsynth.sessions import SequenceCorpus, save_corpus
from navsynth.stats import counter_uniforms, rng_stream
from navsynth.synth import (PlantedWorldSpec, derive_intrinsic_stops, generate_corpus,
                            generate_planted_world, generate_sequence)
from oracles import from_sequences, name_ids, step
from worlds import GeometricWorldSpec, generate_geometric_world


def graph_from(tmp_path, edges):
    path = tmp_path / "g.tsv"
    path.write_text("".join("%s\t%s\n" % e for e in edges), encoding="utf-8")
    return load_edge_list(str(path))


class TestGenerateSequence:
    def test_forced_chain(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "C")])
        m = build_transition_model(g)
        a = name_ids(g.interner)["A"]
        for seed in range(5):
            seq, flagged = generate_sequence(m, a, 3, rng_stream(seed).random)
            assert not flagged
            assert g.interner.names(seq) == ["A", "B", "C"]

    def test_backtrack_around_dead_end(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("A", "C"), ("C", "D")])
        m = build_transition_model(g)
        names = g.interner
        for seed in range(20):
            seq, flagged = generate_sequence(m, name_ids(names)["A"], 3, rng_stream(seed).random)
            assert not flagged
            assert names.names(seq) == ["A", "C", "D"]

    def test_first_step_frequencies(self, tmp_path, click_table):
        g = graph_from(tmp_path, [("A", "B"), ("A", "C")])
        interner = g.interner
        a, b, c = map(name_ids(interner).__getitem__, "ABC")
        table = click_table(interner, {(a, b): 30, (a, c): 10})
        m = build_transition_model(g, table)
        draw = rng_stream(23).random
        hits = Counter(generate_sequence(m, a, 2, draw)[0][1] for _ in range(40_000))
        assert hits[b] / 40_000 == pytest.approx(0.75, abs=0.01)
        assert hits[c] / 40_000 == pytest.approx(0.25, abs=0.01)

    def test_terminal_start_flagged(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B")])
        m = build_transition_model(g)
        seq, flagged = generate_sequence(m, name_ids(g.interner)["B"], 3, rng_stream(0).random)
        assert flagged
        assert seq == [name_ids(g.interner)["B"]]

    def test_steps_follow_model_support(self, tmp_path):
        rng = rng_stream(24)
        edges = set()
        for i in range(20):
            for t in rng.choice(20, size=3, replace=False):
                if t != i:
                    edges.add(("n%d" % i, "n%d" % t))
        g = graph_from(tmp_path, sorted(edges))
        m = build_transition_model(g)
        support = {(s, int(t)) for s in range(m.num_nodes) for t in m.successors(s)}
        for seed in range(10):
            seq, _ = generate_sequence(m, 0, 8, rng_stream(seed).random)
            for pair in zip(seq, seq[1:]):
                assert pair in support


def intrinsic_walks(m, samples, seed):
    """`samples` intrinsic walks from node 0: a reference of one-page sequences at node 0."""
    ref = from_sequences([[0]] * samples, "Logs")
    return generate_corpus(m, ref, True, seed, "Clickstream-Pub").sequences


class TestIntrinsicStopping:
    def test_stop_probability_one(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g).with_stops(np.array([1.0, 1.0]))
        [seq] = intrinsic_walks(m, 1, 0)
        assert seq == [0]

    def test_cap_binds_with_zero_stop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "INTRINSIC_MAX_LENGTH", 5)
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        [seq] = intrinsic_walks(m, 1, 1)
        assert len(seq) == 5

    def test_geometric_length_law(self, tmp_path, monkeypatch):
        # cycle with uniform stop probability q: P(L = l) = (1-q)^(l-1) q,
        # truncated at the cap
        n = 6
        g = graph_from(tmp_path, [("n%d" % i, "n%d" % ((i + 1) % n)) for i in range(n)])
        q = 0.3
        cap = 40
        monkeypatch.setattr(synth, "INTRINSIC_MAX_LENGTH", cap)
        m = build_transition_model(g).with_stops(np.full(n, q))
        samples = 20_000
        lengths = np.array([len(seq) for seq in intrinsic_walks(m, samples, 25)])
        support = np.arange(1, cap + 1)
        pmf = (1 - q) ** (support - 1) * q
        pmf[-1] = (1 - q) ** (cap - 1)
        cdf = np.cumsum(pmf)
        emp_cdf = np.array([(lengths <= l).mean() for l in support])
        # KS against the exact discrete law (conservative for discrete data)
        d = np.abs(emp_cdf - cdf).max()
        critical = 1.63 / np.sqrt(samples)  # alpha = 0.01
        assert d < critical


class TestGenerateCorpus:
    def reference(self):
        return from_sequences([[0, 1], [0, 1, 0], [1, 0, 1, 0]], "Logs")

    def test_matched_starts_and_lengths(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        out = generate_corpus(m, self.reference(), False, 1, "Graph")
        assert len(out) == 3
        ref_keys = Counter((s[0], len(s)) for s in self.reference().sequences)
        out_keys = Counter((s[0], len(s)) for s in out.sequences)
        assert ref_keys == out_keys
        assert out.kind == "Graph"

    def test_empty_reference_error(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B")])
        m = build_transition_model(g)
        with pytest.raises(ValueError, match="empty reference"):
            generate_corpus(m, from_sequences([], "Logs"), False, 1,
                            "Graph")

    def test_missing_start_flagged_length_one(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        ref = from_sequences([[5, 0, 1]], "Logs")  # 5 not in the model
        out = generate_corpus(m, ref, False, 1, "Graph")
        assert out.sequences == [[5]]
        assert out.flagged.dtype == np.int64 and out.flagged.tolist() == [0]

    def test_flagged_matches_scalar_oracle(self, tmp_path):
        # every path from A ends within three pages and D is a dead end, so longer walks from A
        # fail their reruns and walks from D stop at once; id 9 is not in the model
        g = graph_from(tmp_path, [("A", "B"), ("A", "D"), ("B", "C")])
        m = build_transition_model(g)
        a, d = map(name_ids(g.interner).__getitem__, "AD")
        seqs = [[[a, d, 9][i % 3]] * (1 + i % 5) for i in range(60)]
        out = generate_corpus(m, from_sequences(seqs, "Logs"), False, 2,
                              "Graph")
        expected = [i for i, s in enumerate(seqs)
                    if s[0] == 9 or scalar_extrinsic(m, s[0], len(s), 2, i)[1]]
        assert out.flagged.dtype == np.int64 and out.flagged.tolist() == expected
        assert 0 < out.metadata["walks_rerun"] and out.metadata["flagged_count"] == len(expected)

    def test_deterministic_corpus_file(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A"), ("A", "A2"), ("A2", "A")])
        m = build_transition_model(g)
        ref = from_sequences([[0, 1, 0, 1]] * 20, "Logs")
        paths = []
        for run in range(2):
            out = generate_corpus(m, ref, False, 99, "Graph")
            path = tmp_path / ("c%d.tsv" % run)
            save_corpus(out, str(path), g.interner)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestDeriveIntrinsicStops:
    @pytest.fixture
    def table(self, click_table):
        interner = Interner()
        interner.intern_all(["n%d" % i for i in range(3)])
        return lambda entries: click_table(interner, entries)

    def test_balanced_flow_hits_floor(self, table):
        t = table({(0, 1): 100, (1, 2): 100})  # node 1: in=100, out=100
        stops = derive_intrinsic_stops(t, 3)
        assert stops[1] == pytest.approx(0.01)

    def test_pure_sink(self, table):
        t = table({(0, 2): 100})  # node 2: in=100, out=0
        stops = derive_intrinsic_stops(t, 3)
        assert stops[2] == pytest.approx(1.0)

    def test_formula(self, table):
        t = table({(0, 1): 200, (1, 2): 150})  # node 1: in=200, out=150
        stops = derive_intrinsic_stops(t, 3)
        assert stops[1] == pytest.approx(0.25)


class TestSynthesize:
    @pytest.fixture(scope="class")
    def world(self):
        return generate_planted_world(PlantedWorldSpec(num_nodes=40, out_degree=4,
                                                       memory_strength=0.5, corpus_size=300,
                                                       seed=2))

    @staticmethod
    def model_of(kind, world):
        """The transition model that each kind walks, built step by step."""
        if kind == "graph":
            return build_transition_model(world.graph)
        clicks = world.clickstream
        if kind != "clickstream-priv":
            clicks = apply_k_anonymity(clicks)
        model = build_transition_model(world.graph, clicks)
        if kind == "clickstream-pub-intrinsic":
            model = model.with_stops(derive_intrinsic_stops(clicks, model.num_nodes))
        return model

    @pytest.mark.parametrize("kind", sorted(synth.SYNTH_KINDS))
    def test_walks_the_model_of_its_kind(self, world, kind):
        corpus = synth.synthesize(kind, world.graph, world.clickstream, world.corpus, 7)
        expected = generate_corpus(self.model_of(kind, world), world.corpus,
                                   kind == "clickstream-pub-intrinsic", 7, synth.SYNTH_KINDS[kind])
        assert corpus.kind == expected.kind
        assert np.array_equal(corpus.pages, expected.pages)
        assert np.array_equal(corpus.offsets, expected.offsets)
        assert corpus.metadata == expected.metadata

    def test_click_kinds_need_a_clickstream(self, world):
        with pytest.raises(ValueError, match="requires a clickstream"):
            synth.synthesize("clickstream-priv", world.graph, None, world.corpus, 7)


class TestPlantedWorld:
    def test_memoryless_world_is_markov1(self):
        world = generate_planted_world(PlantedWorldSpec(
            num_nodes=30, out_degree=4, memory_strength=0.0,
            corpus_size=30_000, seed=8))
        # fitted Markov-2 conditionals should match the Markov-1 row within
        # sampling error, for a well-observed context
        counts = {}
        for seq in world.corpus.sequences:
            for a, b, c in zip(seq, seq[1:], seq[2:]):
                counts.setdefault((a, b), Counter())[c] += 1
        checked = 0
        for (a, b), row in counts.items():
            total = sum(row.values())
            if total < 500:
                continue
            probs = dict(zip(world.markov1.successors(b).tolist(),
                             world.markov1.row_probs(b)))
            for c, n in row.items():
                se = (probs[c] * (1 - probs[c]) / total) ** 0.5
                assert abs(n / total - probs[c]) < max(5 * se, 0.02)
            checked += 1
        assert checked > 0

    def test_pair_counts_match_bigram_oracle(self, click_counts):
        world = generate_planted_world(PlantedWorldSpec(
            num_nodes=20, out_degree=3, memory_strength=0.5,
            corpus_size=500, seed=9))
        oracle = Counter()
        for seq in world.corpus.sequences:
            for pair in zip(seq, seq[1:]):
                oracle[pair] += 1
        assert dict(oracle) == click_counts(world.clickstream)

    def test_memory_raises_ami(self):
        from navsynth.mixing import ami_survey
        from scipy.stats import mannwhitneyu
        kw = dict(num_nodes=80, out_degree=5, corpus_size=20_000, seed=10)
        w0 = generate_planted_world(PlantedWorldSpec(memory_strength=0.0, **kw))
        w9 = generate_planted_world(PlantedWorldSpec(memory_strength=0.9, **kw))
        a0 = [r.ami for r in ami_survey(w0.corpus, 100).records]
        a9 = [r.ami for r in ami_survey(w9.corpus, 100).records]
        assert np.median(a9) > np.median(a0)
        assert mannwhitneyu(a9, a0, alternative="greater").pvalue < 0.01

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            PlantedWorldSpec(memory_strength=1.5)

    def test_empty_corpus(self):
        world = generate_planted_world(PlantedWorldSpec(num_nodes=10, out_degree=2,
                                                        corpus_size=0))
        assert world.corpus.sequences == [] and not len(world.clickstream.entries)


def scalar_extrinsic(m, start, length, seed, item):
    """Oracle: the backtracking walk fed the successor draws u(seed, item, 2k + 1)."""
    draws = counter_uniforms(seed, item, 2 * np.arange(length + synth.DEFAULT_RETRY_BUDGET) + 1)
    return generate_sequence(m, start, length, iter(draws.tolist()).__next__)


def scalar_intrinsic(m, start, cap, seed, item):
    """Oracle: step t stops on u(seed, item, 2t) and steps on u(seed, item, 2t + 1)."""
    path = [start]
    while len(path) < cap and len(m.successors(path[-1])):
        t = len(path) - 1
        stop, succ = counter_uniforms(seed, item, [2 * t, 2 * t + 1]).tolist()
        if stop < m.stop_probs[path[-1]]:
            break
        path.append(step(m, path[-1], succ))
    return path


def dead_end_graph(tmp_path):
    """A -> B1..B5; each Bi -> Ci (on to Ei and back to A) or Di, a dead end."""
    edges = [("A", "B%d" % i) for i in range(5)]
    for i in range(5):
        edges += [("B%d" % i, "C%d" % i), ("B%d" % i, "D%d" % i), ("C%d" % i, "E%d" % i),
                  ("E%d" % i, "A")]
    return graph_from(tmp_path, edges)


class TestLockstepKernel:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(0, 6).map(float), max_size=9), min_size=1,
                         max_size=12),
           queries=st.lists(st.tuples(st.integers(0, 11), st.floats(-1, 8) | st.integers(0, 6)),
                            min_size=1, max_size=20))
    def test_row_search_matches_searchsorted(self, rows, queries):
        rows = [sorted(r) for r in rows]  # ties and exact hits included
        indptr = np.cumsum([0] + [len(r) for r in rows])
        cum = np.array([x for r in rows for x in r], dtype=float)
        picks = np.array([row % len(rows) for row, _ in queries])
        r = np.array([float(x) for _, x in queries])
        got = synth._row_search(cum, indptr[picks], indptr[picks + 1], r)
        expected = [indptr[p] + np.searchsorted(rows[p], x, side="right")
                    for p, x in zip(picks.tolist(), r.tolist())]
        assert got.tolist() == expected

    def test_unbanned_scalar_step_matches_row_search(self):
        world = generate_planted_world(PlantedWorldSpec(num_nodes=40, out_degree=7,
                                                        corpus_size=0, seed=5))
        stops = counter_uniforms(5, np.arange(40), 0)
        draws = [0.0, np.nextafter(1.0, 0.0), *counter_uniforms(5, 1, np.arange(200)).tolist()]
        for m in (world.markov1, world.markov1.with_stops(stops),
                  build_transition_model(world.graph)):
            for k, u in enumerate(draws):
                node = k % m.num_nodes
                assert synth._step_excluding(m, node, set(), iter([u]).__next__) == step(m, node, u)

    def test_extrinsic_matches_scalar_oracle(self, tmp_path):
        g = dead_end_graph(tmp_path)
        m = build_transition_model(g)
        a = name_ids(g.interner)["A"]
        ref = from_sequences([[a] * (2 + i % 9) for i in range(400)], "Logs")
        out = generate_corpus(m, ref, False, 4, "Graph")
        for i, ref_seq in enumerate(ref.sequences):
            assert (out.sequences[i], i in out.flagged) == scalar_extrinsic(
                m, a, len(ref_seq), 4, i)
        assert out.flagged.dtype == np.int64 and len(out.flagged) == 0
        assert out.offsets[-1] == len(out.pages)
        assert out.metadata["backtrack_retries"] >= out.metadata["walks_rerun"] > 50

    def test_rerun_retraces_lockstep_prefix(self, tmp_path):
        g = dead_end_graph(tmp_path)
        m = build_transition_model(g)
        a = name_ids(g.interner)["A"]
        ref = from_sequences([[a] * 4] * 300, "Logs")
        out = generate_corpus(m, ref, False, 4, "Graph")
        pages, offsets, dead = synth._lockstep(m, 4, np.full(300, a), np.full(300, 4))
        prefixes = SequenceCorpus(pages, offsets, "Graph").sequences
        # a dead end at page 3 costs one backtrack, to Bi's other child
        assert out.metadata["walks_rerun"] == out.metadata["backtrack_retries"] == len(dead) > 50
        for i in dead.tolist():
            assert g.interner.names(prefixes[i][-1:])[0].startswith("D")
            assert out.sequences[i][:2] == prefixes[i][:2]
        assert len({prefixes[i][1] for i in dead.tolist()}) == 5

    def test_intrinsic_matches_scalar_oracle(self, tmp_path, monkeypatch):
        # a cap short enough that walks reach it among random stops and dead ends
        monkeypatch.setattr(synth, "INTRINSIC_MAX_LENGTH", 9)
        g = dead_end_graph(tmp_path)
        stops = np.linspace(0.0, 0.4, g.num_nodes)
        m = build_transition_model(g).with_stops(stops)
        ref = from_sequences([[v] for v in range(g.num_nodes)] * 20, "Logs")
        out = generate_corpus(m, ref, True, 6, "X")
        for i, (start,) in enumerate(ref.sequences):
            assert out.sequences[i] == scalar_intrinsic(m, start, 9, 6, i)
        assert out.metadata["walks_rerun"] == 0

    @pytest.mark.parametrize("intrinsic", [False, True], ids=["rule0", "rule1"])
    def test_sequence_depends_only_on_seed_and_index(self, tmp_path, monkeypatch, intrinsic):
        monkeypatch.setattr(synth, "INTRINSIC_MAX_LENGTH", 6)
        g = dead_end_graph(tmp_path)
        m = build_transition_model(g).with_stops(np.full(g.num_nodes, 0.2))
        ref = from_sequences([[i % g.num_nodes] * (2 + i % 5) for i in range(60)],
                                            "Logs")
        full = generate_corpus(m, ref, intrinsic, 8, "X").sequences
        for i in (0, 1, 17, 59):
            head = from_sequences(ref.sequences[:i + 1], "Logs")
            assert generate_corpus(m, head, intrinsic, 8, "X").sequences[i] == full[i]

    def test_planted_world_matches_scalar_oracle(self):
        spec = PlantedWorldSpec(num_nodes=25, out_degree=4, memory_strength=0.6,
                                corpus_size=400, seed=12)
        world = generate_planted_world(spec)
        for i, seq in enumerate(world.corpus.sequences):
            u0, u1 = counter_uniforms(spec.seed, i, [0, 1]).tolist()
            tail = int(np.floor(np.log1p(-u0) / np.log1p(-synth.WORLD_LENGTH_P)))
            expected = [int(u1 * spec.num_nodes)]
            while len(expected) < min(2 + tail, synth.WORLD_MAX_LENGTH):
                t = len(expected) - 1
                recall, succ = counter_uniforms(spec.seed, i, [2 + 2 * t, 3 + 2 * t]).tolist()
                if t > 0 and recall < spec.memory_strength:
                    edge = world.graph.indptr[expected[-2]] + np.searchsorted(
                        world.graph.successors(expected[-2]), expected[-1])
                    expected.append(int(world.graph.indices[world.preferred_edge[edge]]))
                else:
                    expected.append(step(world.markov1, expected[-1], succ))
            assert seq == expected

    def test_walks_use_no_rng_streams(self, monkeypatch, tmp_path):
        calls = []

        def counting(*args):
            calls.append(args)
            return rng_stream(*args)

        for module in (stats, synth):
            monkeypatch.setattr(module, "rng_stream", counting)
        g = dead_end_graph(tmp_path)
        ref = from_sequences([[0, 0, 0, 0]] * 50, "Logs")
        generate_corpus(build_transition_model(g), ref, False, 1, "Graph")
        assert calls == []
        generate_planted_world(PlantedWorldSpec(num_nodes=20, out_degree=3, corpus_size=50))
        assert len(calls) <= 1
        calls.clear()
        generate_geometric_world(GeometricWorldSpec(num_nodes=30, corpus_size=50))
        assert len(calls) <= 1
