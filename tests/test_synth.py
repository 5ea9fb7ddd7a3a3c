from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsynth import stats, synth
from navsynth.graph import Interner, build_transition_model, load_edge_list
from navsynth.sessions import SequenceCorpus, save_corpus
from navsynth.stats import counter_uniforms, rng_stream
from navsynth.synth import (GeometricWorldSpec, PlantedWorldSpec, StoppingRule, WalkSpec,
                            derive_intrinsic_stops, generate_corpus, generate_geometric_world,
                            generate_planted_world, generate_sequence)


def graph_from(tmp_path, edges):
    path = tmp_path / "g.tsv"
    path.write_text("".join("%s\t%s\n" % e for e in edges), encoding="utf-8")
    return load_edge_list(str(path))


class TestGenerateSequence:
    def test_forced_chain(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "C")])
        m = build_transition_model(g)
        a = g.interner.id("A")
        for seed in range(5):
            seq, flagged = generate_sequence(m, WalkSpec(a, 3), rng_stream(seed))
            assert not flagged
            assert [g.interner.name(x) for x in seq] == ["A", "B", "C"]

    def test_backtrack_around_dead_end(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("A", "C"), ("C", "D")])
        m = build_transition_model(g)
        names = g.interner
        for seed in range(20):
            seq, flagged = generate_sequence(m, WalkSpec(names.id("A"), 3),
                                             rng_stream(seed))
            assert not flagged
            assert [names.name(x) for x in seq] == ["A", "C", "D"]

    def test_first_step_frequencies(self, tmp_path, click_table):
        g = graph_from(tmp_path, [("A", "B"), ("A", "C")])
        interner = g.interner
        a, b, c = interner.id("A"), interner.id("B"), interner.id("C")
        table = click_table(interner, {(a, b): 30, (a, c): 10})
        m = build_transition_model(g, table)
        rng = rng_stream(23)
        hits = Counter(generate_sequence(m, WalkSpec(a, 2), rng)[0][1]
                       for _ in range(40_000))
        assert hits[b] / 40_000 == pytest.approx(0.75, abs=0.01)
        assert hits[c] / 40_000 == pytest.approx(0.25, abs=0.01)

    def test_terminal_start_flagged(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B")])
        m = build_transition_model(g)
        seq, flagged = generate_sequence(m, WalkSpec(g.interner.id("B"), 3),
                                         rng_stream(0))
        assert flagged
        assert seq == [g.interner.id("B")]

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
            seq, _ = generate_sequence(m, WalkSpec(0, 8), rng_stream(seed))
            for pair in zip(seq, seq[1:]):
                assert pair in support


def intrinsic_walks(m, samples, seed, rule):
    """`samples` intrinsic walks from node 0: a reference of one-page sequences at node 0."""
    ref = SequenceCorpus.from_sequences([[0]] * samples, "Logs")
    return generate_corpus(m, ref, rule, seed, "Clickstream-Pub").sequences


class TestIntrinsicStopping:
    def test_stop_probability_one(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g).with_stops(np.array([1.0, 1.0]))
        [seq] = intrinsic_walks(m, 1, 0, StoppingRule("intrinsic"))
        assert seq == [0]

    def test_cap_binds_with_zero_stop(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        rule = StoppingRule("intrinsic", max_length=5)
        [seq] = intrinsic_walks(m, 1, 1, rule)
        assert len(seq) == 5

    def test_geometric_length_law(self, tmp_path):
        # cycle with uniform stop probability q: P(L = l) = (1-q)^(l-1) q,
        # truncated at the cap
        n = 6
        g = graph_from(tmp_path, [("n%d" % i, "n%d" % ((i + 1) % n)) for i in range(n)])
        q = 0.3
        cap = 40
        m = build_transition_model(g).with_stops(np.full(n, q))
        rule = StoppingRule("intrinsic", max_length=cap)
        samples = 20_000
        lengths = np.array([len(seq) for seq in intrinsic_walks(m, samples, 25, rule)])
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
        return SequenceCorpus.from_sequences([[0, 1], [0, 1, 0], [1, 0, 1, 0]], "Logs")

    def test_matched_starts_and_lengths(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        out = generate_corpus(m, self.reference(), StoppingRule(), 1, "Graph")
        assert len(out) == 3
        ref_keys = Counter((s[0], len(s)) for s in self.reference().sequences)
        out_keys = Counter((s[0], len(s)) for s in out.sequences)
        assert ref_keys == out_keys
        assert out.kind == "Graph"

    def test_empty_reference_error(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B")])
        m = build_transition_model(g)
        with pytest.raises(ValueError, match="empty reference"):
            generate_corpus(m, SequenceCorpus.from_sequences([], "Logs"), StoppingRule(), 1,
                            "Graph")

    def test_missing_start_flagged_length_one(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        ref = SequenceCorpus.from_sequences([[5, 0, 1]], "Logs")  # 5 not in the model
        out = generate_corpus(m, ref, StoppingRule(), 1, "Graph")
        assert out.sequences == [[5]]
        assert out.flagged == {0}

    def test_deterministic_corpus_file(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A"), ("A", "A2"), ("A2", "A")])
        m = build_transition_model(g)
        ref = SequenceCorpus.from_sequences([[0, 1, 0, 1]] * 20, "Logs")
        paths = []
        for run in range(2):
            out = generate_corpus(m, ref, StoppingRule(), 99, "Graph")
            path = tmp_path / ("c%d.tsv" % run)
            save_corpus(out, str(path), g.interner)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestDeriveIntrinsicStops:
    @pytest.fixture
    def table(self, click_table):
        interner = Interner()
        for i in range(3):
            interner.intern("n%d" % i)
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


def fixed_draws(*values):
    """A `.random()` source that returns `values` in order."""
    return SimpleNamespace(random=iter(values).__next__)


def scalar_extrinsic(m, start, length, seed, item):
    """Oracle: the backtracking walk fed the successor draws u(seed, item, 2k + 1)."""
    draws = counter_uniforms(seed, item, 2 * np.arange(length + synth.DEFAULT_RETRY_BUDGET) + 1)
    return generate_sequence(m, WalkSpec(start, length), fixed_draws(*draws.tolist()))


def scalar_intrinsic(m, start, cap, seed, item):
    """Oracle: step t stops on u(seed, item, 2t) and steps on u(seed, item, 2t + 1)."""
    path = [start]
    while len(path) < cap and not m.is_terminal(path[-1]):
        t = len(path) - 1
        stop, succ = counter_uniforms(seed, item, [2 * t, 2 * t + 1]).tolist()
        if stop < m.stop_probs[path[-1]]:
            break
        path.append(m.step(path[-1], fixed_draws(succ)))
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

    def test_extrinsic_matches_scalar_oracle(self, tmp_path):
        g = dead_end_graph(tmp_path)
        m = build_transition_model(g)
        a = g.interner.id("A")
        ref = SequenceCorpus.from_sequences([[a] * (2 + i % 9) for i in range(400)], "Logs")
        out = generate_corpus(m, ref, StoppingRule(), 4, "Graph")
        for i, ref_seq in enumerate(ref.sequences):
            assert (out.sequences[i], i in out.flagged) == scalar_extrinsic(
                m, a, len(ref_seq), 4, i)
        assert not out.flagged
        assert out.offsets[-1] == len(out.pages)
        assert out.metadata["backtrack_retries"] >= out.metadata["walks_rerun"] > 50

    def test_rerun_retraces_lockstep_prefix(self, tmp_path):
        g = dead_end_graph(tmp_path)
        m = build_transition_model(g)
        a = g.interner.id("A")
        ref = SequenceCorpus.from_sequences([[a] * 4] * 300, "Logs")
        out = generate_corpus(m, ref, StoppingRule(), 4, "Graph")
        pages, offsets, dead = synth._lockstep(m, 4, np.full(300, a), np.full(300, 4))
        prefixes = SequenceCorpus(pages, offsets, "Graph").sequences
        # a dead end at page 3 costs one backtrack, to Bi's other child
        assert out.metadata["walks_rerun"] == out.metadata["backtrack_retries"] == len(dead) > 50
        for i in dead.tolist():
            assert g.interner.name(prefixes[i][-1]).startswith("D")
            assert out.sequences[i][:2] == prefixes[i][:2]
        assert len({prefixes[i][1] for i in dead.tolist()}) == 5

    def test_intrinsic_matches_scalar_oracle(self, tmp_path):
        g = dead_end_graph(tmp_path)
        stops = np.linspace(0.0, 0.4, g.num_nodes)
        m = build_transition_model(g).with_stops(stops)
        ref = SequenceCorpus.from_sequences([[v] for v in range(g.num_nodes)] * 20, "Logs")
        out = generate_corpus(m, ref, StoppingRule("intrinsic", max_length=9), 6, "X")
        for i, (start,) in enumerate(ref.sequences):
            assert out.sequences[i] == scalar_intrinsic(m, start, 9, 6, i)
        assert out.metadata["walks_rerun"] == 0

    @pytest.mark.parametrize("rule", [StoppingRule(), StoppingRule("intrinsic", max_length=6)])
    def test_sequence_depends_only_on_seed_and_index(self, tmp_path, rule):
        g = dead_end_graph(tmp_path)
        m = build_transition_model(g).with_stops(np.full(g.num_nodes, 0.2))
        ref = SequenceCorpus.from_sequences([[i % g.num_nodes] * (2 + i % 5) for i in range(60)],
                                            "Logs")
        full = generate_corpus(m, ref, rule, 8, "X").sequences
        for i in (0, 1, 17, 59):
            head = SequenceCorpus.from_sequences(ref.sequences[:i + 1], "Logs")
            assert generate_corpus(m, head, rule, 8, "X").sequences[i] == full[i]

    def test_planted_world_matches_scalar_oracle(self):
        spec = PlantedWorldSpec(num_nodes=25, out_degree=4, memory_strength=0.6,
                                corpus_size=400, seed=12)
        world = generate_planted_world(spec)
        for i, seq in enumerate(world.corpus.sequences):
            u0, u1 = counter_uniforms(spec.seed, i, [0, 1]).tolist()
            tail = int(np.floor(np.log1p(-u0) / np.log1p(-spec.length_p)))
            expected = [int(u1 * spec.num_nodes)]
            while len(expected) < min(2 + tail, spec.max_length):
                t = len(expected) - 1
                recall, succ = counter_uniforms(spec.seed, i, [2 + 2 * t, 3 + 2 * t]).tolist()
                if t > 0 and recall < spec.memory_strength:
                    edge = world.graph.indptr[expected[-2]] + np.searchsorted(
                        world.graph.successors(expected[-2]), expected[-1])
                    expected.append(int(world.graph.indices[world.preferred_edge[edge]]))
                else:
                    expected.append(world.markov1.step(expected[-1], fixed_draws(succ)))
            assert seq == expected

    def test_walks_use_no_rng_streams(self, monkeypatch, tmp_path):
        calls = []

        def counting(*args):
            calls.append(args)
            return rng_stream(*args)

        for module in (stats, synth):
            monkeypatch.setattr(module, "rng_stream", counting)
        g = dead_end_graph(tmp_path)
        ref = SequenceCorpus.from_sequences([[0, 0, 0, 0]] * 50, "Logs")
        generate_corpus(build_transition_model(g), ref, StoppingRule(), 1, "Graph")
        assert calls == []
        generate_planted_world(PlantedWorldSpec(num_nodes=20, out_degree=3, corpus_size=50))
        assert len(calls) <= 1
        calls.clear()
        generate_geometric_world(GeometricWorldSpec(num_nodes=30, corpus_size=50))
        assert len(calls) <= 1
