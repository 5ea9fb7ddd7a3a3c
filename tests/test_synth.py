from collections import Counter

import numpy as np
import pytest

from navsynth.graph import ClickstreamTable, Interner, build_transition_model, load_edge_list
from navsynth.sessions import SequenceCorpus, save_corpus
from navsynth.stats import rng_stream
from navsynth.synth import (PlantedWorldSpec, StoppingRule, WalkSpec,
                            derive_intrinsic_stops, generate_corpus,
                            generate_planted_world, generate_sequence,
                            generate_sequence_intrinsic)


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

    def test_first_step_frequencies(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("A", "C")])
        interner = g.interner
        a, b, c = interner.id("A"), interner.id("B"), interner.id("C")
        table = ClickstreamTable(interner, {(a, b): 30, (a, c): 10})
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


class TestIntrinsicStopping:
    def test_stop_probability_one(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g).with_stops(np.array([1.0, 1.0]))
        seq = generate_sequence_intrinsic(m, 0, rng_stream(0), StoppingRule("intrinsic"))
        assert seq == [0]

    def test_cap_binds_with_zero_stop(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        rule = StoppingRule("intrinsic", max_length=5)
        seq = generate_sequence_intrinsic(m, 0, rng_stream(1), rule)
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
        rng = rng_stream(25)
        samples = 20_000
        lengths = np.array([len(generate_sequence_intrinsic(m, 0, rng, rule))
                            for _ in range(samples)])
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
        return SequenceCorpus([[0, 1], [0, 1, 0], [1, 0, 1, 0]], "Logs")

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
            generate_corpus(m, SequenceCorpus([], "Logs"), StoppingRule(), 1, "Graph")

    def test_missing_start_flagged_length_one(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A")])
        m = build_transition_model(g)
        ref = SequenceCorpus([[5, 0, 1]], "Logs")  # 5 not in the model
        out = generate_corpus(m, ref, StoppingRule(), 1, "Graph")
        assert out.sequences == [[5]]
        assert out.flagged == {0}

    def test_deterministic_corpus_file(self, tmp_path):
        g = graph_from(tmp_path, [("A", "B"), ("B", "A"), ("A", "A2"), ("A2", "A")])
        m = build_transition_model(g)
        ref = SequenceCorpus([[0, 1, 0, 1]] * 20, "Logs")
        paths = []
        for run in range(2):
            out = generate_corpus(m, ref, StoppingRule(), 99, "Graph")
            path = tmp_path / ("c%d.tsv" % run)
            save_corpus(out, str(path), g.interner)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestDeriveIntrinsicStops:
    def table(self, entries):
        interner = Interner()
        for i in range(3):
            interner.intern("n%d" % i)
        return ClickstreamTable(interner, entries)

    def test_balanced_flow_hits_floor(self):
        t = self.table({(0, 1): 100, (1, 2): 100})  # node 1: in=100, out=100
        stops = derive_intrinsic_stops(t, 3)
        assert stops[1] == pytest.approx(0.01)

    def test_pure_sink(self):
        t = self.table({(0, 2): 100})  # node 2: in=100, out=0
        stops = derive_intrinsic_stops(t, 3)
        assert stops[2] == pytest.approx(1.0)

    def test_formula(self):
        t = self.table({(0, 1): 200, (1, 2): 150})  # node 1: in=200, out=150
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

    def test_pair_counts_match_bigram_oracle(self):
        world = generate_planted_world(PlantedWorldSpec(
            num_nodes=20, out_degree=3, memory_strength=0.5,
            corpus_size=500, seed=9))
        oracle = Counter()
        for seq in world.corpus.sequences:
            for pair in zip(seq, seq[1:]):
                oracle[pair] += 1
        assert dict(oracle) == world.clickstream.entries

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
