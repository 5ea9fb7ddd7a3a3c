import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsynth.diffusion import EmbeddingTable
from navsynth.downstream import (LabeledLinkSet, PathProportions,
                                 build_added_links, corpus_triples,
                                 evaluate_mrr, fit_markov2, logreg_loss_grad,
                                 make_split, precision_at_k,
                                 rank_links, relatedness_eval,
                                 relative_difference, topic_classification,
                                 train_logreg)
from navsynth.graph import load_edge_list, pair_keys, unpack_pairs
from navsynth.sessions import SequenceCorpus
from navsynth.stats import rng_stream


def graph_from(tmp_path, edges):
    path = tmp_path / "g.tsv"
    path.write_text("".join("%s\t%s\n" % e for e in edges), encoding="utf-8")
    return load_edge_list(str(path))


def int_graph(tmp_path, edges, num_nodes):
    """Graph whose interned ids equal the integer node labels."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "g.tsv"
    lines = ["%d\t%d\n" % e for e in edges]
    # intern 0..num_nodes-1 in order by listing self-descriptive first mentions
    text = "".join("%d\t%d\n" % (i, (i + 1) % num_nodes) for i in range(num_nodes))
    path.write_text(text + "".join(lines), encoding="utf-8")
    g = load_edge_list(str(path))
    assert all(g.interner.id(str(i)) == i for i in range(num_nodes))
    return g


def keys_of(pairs):
    """Packed keys of (s, t) pairs, in the order given."""
    ids = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return pair_keys(ids[:, 0], ids[:, 1])


def pairs_of(keys):
    """The (s, t) pairs of packed keys, in key order."""
    return list(zip(*(ids.tolist() for ids in unpack_pairs(keys))))


def count_dict(model):
    """A Markov-2 model's counts as {(prev, current): {next: count}}."""
    context, nxt = unpack_pairs(model.keys)
    prev, current = unpack_pairs(model.contexts[context])
    out = {}
    for s1, s2, t, c in zip(prev.tolist(), current.tolist(), nxt.tolist(),
                            model.counts.tolist()):
        out.setdefault((s1, s2), {})[t] = c
    return out


def oracle_counts(triples):
    out = {}
    for s1, s2, t in triples:
        row = out.setdefault((s1, s2), {})
        row[t] = row.get(t, 0) + 1
    return out


def oracle_rank_next(counts, graph, s1, s2):
    """Out-neighbors of s2 by count in context (s1, s2) descending, ties by ascending id."""
    row = counts.get((s1, s2), {})
    return sorted((int(t) for t in graph.successors(s2)), key=lambda t: (-row.get(t, 0), t))


def ranking(model, graph, s1, s2):
    """The out-neighbors of s2 in the order evaluate_mrr ranks them in context (s1, s2)."""
    candidates = [int(t) for t in graph.successors(s2)]
    rrs = evaluate_mrr(model, graph, [(s1, s2, t) for t in candidates]).reciprocal_ranks
    return [t for _, t in sorted(zip((-rrs).tolist(), candidates))]


class TestMarkov2:
    def test_counting(self):
        corpus = SequenceCorpus.from_sequences([[0, 1, 2], [0, 1, 2], [0, 1, 3], [0, 1, 2]],
                                               "Logs")
        model = fit_markov2(corpus_triples(corpus))
        assert count_dict(model)[(0, 1)] == {2: 3, 3: 1}
        assert sum(count_dict(model)[(0, 1)].values()) == 4

    def test_empty(self):
        model = fit_markov2(corpus_triples(SequenceCorpus.from_sequences([[0, 1]], "Logs")))
        assert count_dict(model) == {}
        assert (0, 1) not in count_dict(model)

    def test_matches_counting_oracle(self):
        rng = rng_stream(80)
        seqs = [[int(x) for x in rng.integers(0, 6, size=int(rng.integers(1, 8)))]
                for _ in range(50)]
        model = fit_markov2(corpus_triples(SequenceCorpus.from_sequences(seqs, "Logs")))
        oracle = {}
        for s in seqs:
            for i in range(len(s) - 2):
                key = (s[i], s[i + 1])
                oracle.setdefault(key, {}).setdefault(s[i + 2], 0)
                oracle[key][s[i + 2]] += 1
        assert count_dict(model) == oracle

    @settings(max_examples=100, deadline=None)
    @given(triples=st.lists(st.tuples(*[st.integers(0, 2**31 - 1) | st.integers(0, 4)] * 3),
                            max_size=40))
    def test_matches_dict_oracle(self, triples):
        assert count_dict(fit_markov2(triples)) == oracle_counts(triples)


class TestRankNext:
    def test_count_order_then_id(self, tmp_path):
        g = int_graph(tmp_path, [(1, 0), (1, 2), (1, 3)], 4)
        model = fit_markov2([(0, 1, 3), (0, 1, 3), (0, 1, 0)])
        ranked = ranking(model, g, 0, 1)
        assert ranked[0] == 3 and ranked[1] == 0
        # the remaining zero-count candidates come in id order
        assert ranked[2:] == sorted(ranked[2:])

    def test_matches_sort_key_oracle(self, tmp_path):
        rng = rng_stream(81)
        g = int_graph(tmp_path, [(i, j) for i in range(6) for j in range(6) if i != j], 6)
        triples = [(int(a), int(b), int(c)) for a, b, c in rng.integers(0, 6, size=(60, 3))]
        model = fit_markov2(triples)
        for s1 in range(6):
            for s2 in range(6):
                row = count_dict(model).get((s1, s2), {})
                oracle = sorted((int(t) for t in g.successors(s2)),
                                key=lambda t: (-row.get(t, 0), t))
                assert ranking(model, g, s1, s2) == oracle


class TestMrr:
    def test_hand_computed(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2), (1, 3), (1, 4), (1, 5)], 6)
        # context (0,1): 2 ranks first; 5 ranks fourth after {2 counted, 3, 4 by id}
        model = fit_markov2([(0, 1, 2)])
        res = evaluate_mrr(model, g, [(0, 1, 2), (0, 1, 5)])
        assert res.mrr == pytest.approx((1.0 + 0.25) / 2)  # 0.625

    def test_absent_target_scores_zero(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2)], 3)
        model = fit_markov2([])
        res = evaluate_mrr(model, g, [(0, 1, 0)])  # 0 not a successor of 1
        assert res.mrr == 0.0

    def test_filtered_requires_models(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2)], 3)
        with pytest.raises(ValueError, match="compared models"):
            evaluate_mrr(fit_markov2([]), g, [(0, 1, 2)], mode="filtered")

    def test_filtered_keeps_shared_contexts(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2), (1, 3), (4, 2)], 5)
        m_a = fit_markov2([(0, 1, 2), (3, 4, 2)])
        m_b = fit_markov2([(0, 1, 3)])
        res = evaluate_mrr(m_a, g, [(0, 1, 2), (3, 4, 2)], mode="filtered",
                           compared_models=[m_a, m_b])
        assert res.num_queries == 1  # (3,4) unseen by m_b

    def test_empty_after_filter_error(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2)], 3)
        m_a = fit_markov2([(0, 1, 2)])
        m_b = fit_markov2([])
        with pytest.raises(ValueError, match="empty test set"):
            evaluate_mrr(m_a, g, [(0, 1, 2)], mode="filtered",
                         compared_models=[m_a, m_b])


SMALL_TRIPLES = st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=30)


class TestMrrOracle:
    @settings(max_examples=100, deadline=None)
    @given(edges=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
           train=SMALL_TRIPLES, other=SMALL_TRIPLES,
           queries=st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=1, max_size=20))
    def test_reciprocal_ranks_match_rank_next_oracle(self, tmp_path_factory, edges, train,
                                                     other, queries):
        # small ids give ties, unseen contexts and targets outside the
        # candidates; `train` or `other` may be empty
        g = int_graph(tmp_path_factory.mktemp("g"), sorted(edges), 6)
        counts, other_counts = oracle_counts(train), oracle_counts(other)

        def oracle(compared):
            rrs = []
            for s1, s2, t in queries:
                if all((s1, s2) in c for c in compared):
                    ranked = oracle_rank_next(counts, g, s1, s2)
                    rrs.append(1.0 / (ranked.index(t) + 1) if t in ranked else 0.0)
            return rrs

        model, other_model = fit_markov2(train), fit_markov2(other)
        assert evaluate_mrr(model, g, queries).reciprocal_ranks.tolist() == oracle([])
        expected = oracle([counts, other_counts])
        if not expected:
            with pytest.raises(ValueError, match="empty test set"):
                evaluate_mrr(model, g, queries, "filtered", [model, other_model])
            return
        res = evaluate_mrr(model, g, queries, "filtered", [model, other_model])
        assert res.reciprocal_ranks.tolist() == expected
        assert res.num_queries == len(expected)


class TestPathProportions:
    def corpus(self):
        return SequenceCorpus.from_sequences([[0, 1, 2], [0, 2], [0, 3], [5, 0]], "Logs")

    def test_hand_computed(self):
        assert PathProportions(self.corpus()).proportion(0, 2) == pytest.approx(2 / 3)
        assert PathProportions(self.corpus()).proportion(0, 1) == pytest.approx(1 / 3)

    def test_start_itself_excluded(self):
        corpus = SequenceCorpus.from_sequences([[0, 1, 0]], "Logs")
        assert PathProportions(corpus).proportion(0, 0) == 0.0

    def test_undefined_start(self):
        with pytest.raises(ValueError, match="proportion undefined"):
            PathProportions(self.corpus()).proportion(9, 0)

    def test_matches_full_scan_oracle(self):
        rng = rng_stream(82)
        seqs = [[int(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 7)))]
                for _ in range(60)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        props = PathProportions(corpus)
        for s in range(5):
            starting = [q for q in seqs if q[0] == s]
            if not starting:
                continue
            for t in range(5):
                if t == s:
                    continue
                expected = sum(1 for q in starting if t in q[1:]) / len(starting)
                assert props.proportion(s, t) == pytest.approx(expected, abs=1e-12)

    def test_bounded(self):
        rng = rng_stream(83)
        seqs = [[int(x) for x in rng.integers(0, 4, size=5)] for _ in range(30)]
        props = PathProportions(SequenceCorpus.from_sequences(seqs, "Logs"))
        for s in range(4):
            if not props.defined(s):
                continue
            for t in range(4):
                if t != s:
                    assert 0.0 <= props.proportion(s, t) <= 1.0


class TestAddedLinks:
    def worlds(self, tmp_path):
        # old graph: chain 0->1->2->3; new graph adds the shortcut 0->2
        old = int_graph(tmp_path / "old", [], 4)
        new_path = tmp_path / "new.tsv"
        text = "".join("%d\t%d\n" % (i, (i + 1) % 4) for i in range(4))
        new_path.write_text(text + "0\t2\n", encoding="utf-8")
        new = load_edge_list(str(new_path))
        return old, new

    def test_positive_needs_indirect_paths(self, tmp_path):
        old, new = self.worlds(tmp_path)
        corpus = SequenceCorpus.from_sequences([[0, 1, 2]] * 10, "Logs")
        labels = build_added_links(old, new, corpus, min_paths=10)
        assert set(pairs_of(labels.positives)) == {(0, 2)}

    def test_too_few_paths_raises(self, tmp_path):
        old, new = self.worlds(tmp_path)
        corpus = SequenceCorpus.from_sequences([[0, 1, 2]] * 9, "Logs")
        with pytest.raises(ValueError, match="no positive"):
            build_added_links(old, new, corpus, min_paths=10)

    def test_old_edges_never_count_as_paths(self, tmp_path):
        old, new = self.worlds(tmp_path)
        # direct traversal of the old edge 0->1 must not make (0,1) anything;
        # but (0,2) stays a positive via the indirect co-occurrence
        corpus = SequenceCorpus.from_sequences([[0, 1, 2]] * 10, "Logs")
        labels = build_added_links(old, new, corpus, min_paths=10)
        assert (0, 1) not in pairs_of(labels.positives) + pairs_of(labels.negatives)

    def test_matches_rule_by_rule_oracle(self, tmp_path):
        rng = rng_stream(84)
        n = 50
        base_edges = {(i, (i + 1) % n) for i in range(n)}
        extra_old = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(80, 2))
                     if a != b}
        old_edges = base_edges | extra_old
        added = set()
        while len(added) < 15:
            a, b = (int(x) for x in rng.integers(0, n, size=2))
            if a != b and (a, b) not in old_edges:
                added.add((a, b))
        old = int_graph(tmp_path / "old", sorted(old_edges - base_edges), n)
        new = int_graph(tmp_path / "new", sorted((old_edges | added) - base_edges), n)
        seqs = [[int(x) for x in rng.integers(0, n, size=int(rng.integers(2, 10)))]
                for _ in range(3000)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        labels = build_added_links(old, new, corpus, min_paths=10)

        # independent re-derivation straight from the labeling rules
        old_edge_set = {(int(s), int(t)) for s, t in zip(*old.edge_arrays())}

        def path_count(s, t):
            if (s, t) in old_edge_set:
                return 0
            total = 0
            for q in seqs:
                hit = False
                for i in range(len(q)):
                    if q[i] == s and t in q[i + 1:]:
                        hit = True
                        break
                total += hit
            return total

        new_edge_set = {(int(s), int(t)) for s, t in zip(*new.edge_arrays())}
        oracle_added = new_edge_set - old_edge_set
        oracle_pos = {e for e in oracle_added if path_count(*e) >= 10}
        srcs = {s for s, _ in oracle_pos}
        tgts = {t for _, t in oracle_pos}
        oracle_neg = set()
        for s in srcs:
            for t in tgts:
                pair = (s, t)
                if s == t or pair in oracle_pos or pair in old_edge_set:
                    continue
                if path_count(s, t) >= 10:
                    oracle_neg.add(pair)
        assert set(pairs_of(labels.positives)) == oracle_pos
        assert set(pairs_of(labels.negatives)) == oracle_neg
        assert oracle_pos and oracle_neg  # scenario actually exercises both


class TestPrecisionAtK:
    def labels(self):
        return LabeledLinkSet(positives=keys_of([(0, 1), (0, 2)]), negatives=keys_of([(0, 3)]))

    def test_hand_computed(self):
        ranked = keys_of([(0, 1), (0, 3), (0, 2)])
        [res] = precision_at_k(ranked, self.labels(), [3])
        assert res.precision == pytest.approx(2 / 3)
        assert not res.truncated

    def test_all_positive_prefix(self):
        ranked = keys_of([(0, 1), (0, 2), (0, 3)])
        [res] = precision_at_k(ranked, self.labels(), [2])
        assert res.precision == 1.0

    def test_matches_prefix_oracle(self):
        rng = rng_stream(85)
        pairs = [(0, i) for i in range(20)]
        pos = {p for p in pairs if rng.random() < 0.4}
        labels = LabeledLinkSet(keys_of(sorted(pos)), keys_of(sorted(set(pairs) - pos)))
        ranked = [pairs[i] for i in rng.permutation(20)]
        for res in precision_at_k(keys_of(ranked), labels, range(1, 21)):
            expected = sum(p in pos for p in ranked[:res.k]) / res.k
            assert res.precision == pytest.approx(expected, abs=1e-12)

    def test_truncation_flag(self):
        ranked = keys_of([(0, 1)])
        [res] = precision_at_k(ranked, self.labels(), [5])
        assert res.truncated and res.effective_k == 1

    def test_rank_links_order_and_exclusion(self):
        corpus = SequenceCorpus.from_sequences([[0, 1, 2], [0, 2], [0, 3]], "Logs")
        ranked, excluded = rank_links(corpus, keys_of([(0, 2), (0, 3), (9, 1)]))
        assert pairs_of(ranked) == [(0, 2), (0, 3)]  # 2/3 before 1/3
        assert pairs_of(excluded) == [(9, 1)]


class TestRelatedness:
    def emb(self, vectors):
        return EmbeddingTable(list(vectors), list(vectors.values()))

    def test_perfect_agreement(self):
        emb = self.emb({0: [1, 0], 1: [1, 0.2], 2: [1, 1], 3: [0, 1]})
        pairs = [(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0)]
        assert relatedness_eval(emb, pairs).rho == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        emb = self.emb({0: [1, 0], 1: [1, 0.2], 2: [1, 1], 3: [0, 1]})
        pairs = [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)]
        assert relatedness_eval(emb, pairs).rho == pytest.approx(-1.0)

    def test_matches_spearman_oracle(self):
        rng = rng_stream(86)
        table = EmbeddingTable(range(12), rng.normal(size=(12, 4)))
        pairs = []
        for _ in range(20):
            a, b = (int(x) for x in rng.choice(12, size=2, replace=False))
            pairs.append((a, b, float(rng.random())))
        res = relatedness_eval(table, pairs)
        from navsynth.stats import spearman
        sims = []
        for a, b, _ in pairs:
            va, vb = table.vector(a), table.vector(b)
            sims.append(float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))))
        assert res.rho == pytest.approx(spearman(sims, [p[2] for p in pairs]), abs=1e-12)

    def test_drops_uncovered(self):
        emb = self.emb({0: [1, 0], 1: [1, 0.2], 2: [1, 1], 3: [0, 1]})
        pairs = [(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0), (0, 99, 5.0)]
        res = relatedness_eval(emb, pairs)
        assert res.num_pairs == 3 and res.num_dropped == 1

    def test_too_few_pairs(self):
        emb = self.emb({0: [1, 0], 1: [0, 1]})
        with pytest.raises(ValueError, match="fewer than 3"):
            relatedness_eval(emb, [(0, 1, 1.0), (0, 99, 2.0)])


class TestLogisticRegression:
    def test_gradient_matches_central_differences(self):
        rng = rng_stream(87)
        x = rng.normal(size=(25, 4))
        y = (rng.random(25) < 0.5).astype(float)
        w0 = rng.normal(size=4)
        b0 = float(rng.normal())
        l2 = 0.7
        loss, gw, gb = logreg_loss_grad(w0, b0, x, y, l2)
        eps = 1e-6
        for i in range(4):
            hi, lo = w0.copy(), w0.copy()
            hi[i] += eps
            lo[i] -= eps
            fd = (logreg_loss_grad(hi, b0, x, y, l2)[0]
                  - logreg_loss_grad(lo, b0, x, y, l2)[0]) / (2 * eps)
            assert gw[i] == pytest.approx(fd, abs=1e-6)
        fd_b = (logreg_loss_grad(w0, b0 + eps, x, y, l2)[0]
                - logreg_loss_grad(w0, b0 - eps, x, y, l2)[0]) / (2 * eps)
        assert gb == pytest.approx(fd_b, abs=1e-6)

    def test_separable_toy(self):
        rng = rng_stream(88)
        x = np.vstack([rng.normal(size=(20, 2)) + [4, 0],
                       rng.normal(size=(20, 2)) - [4, 0]])
        y = np.concatenate([np.ones(20), np.zeros(20)])
        w, b = train_logreg(x, y, l2=0.01, epochs=300, lr=0.5)
        preds = (x @ w + b) >= 0
        assert np.array_equal(preds, y.astype(bool))

    def test_topic_classification_separable(self):
        rng = rng_stream(89)
        topics = np.arange(40) % 2
        centers = np.where(topics[:, None] == 0, [3.0, 0.0], [-3.0, 0.0])
        table = EmbeddingTable(range(40), centers + 0.1 * rng.normal(size=(40, 2)))
        labels = {a: {int(topic)} for a, topic in enumerate(topics)}
        split = make_split(40, seed=1)
        res = topic_classification(table, labels, split, num_topics=2,
                                   l2=0.01, epochs=300, lr=0.5)
        assert res.micro_f1 == pytest.approx(1.0)
        assert res.macro_f1 == pytest.approx(1.0)

    def test_degenerate_topic_all_negative(self):
        rng = rng_stream(90)
        table = EmbeddingTable(range(20), rng.normal(size=(20, 2)))
        labels = {a: {0} for a in range(20)}
        split = make_split(20, seed=2)
        res = topic_classification(table, labels, split, num_topics=3,
                                   epochs=50)
        assert set(res.degenerate_topics) == {1, 2}

    def test_topic_id_out_of_range(self):
        table = EmbeddingTable([0, 1], [[1.0, 0.0], [0.0, 1.0]])
        for topic in (-1, 3):
            with pytest.raises(ValueError, match="topic id %d out of range" % topic):
                topic_classification(table, {0: {0}, 1: {topic}}, make_split(2), num_topics=3)


class TestSplit:
    def test_disjoint_and_covering(self):
        split = make_split(100, seed=3)
        parts = [set(split.train), set(split.validation), set(split.test)]
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) \
            and not (parts[1] & parts[2])
        assert parts[0] | parts[1] | parts[2] == set(range(100))

    def test_sizes_near_fractions(self):
        split = make_split(103, seed=4)
        assert abs(len(split.train) - 0.8 * 103) <= 1
        assert abs(len(split.validation) - 0.1 * 103) <= 1

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            make_split(10, fractions=(0.5, 0.1, 0.1))


class TestRelativeDifference:
    def test_hand_computed(self):
        assert relative_difference(0.595, 0.541) == pytest.approx(9.0756, abs=1e-3)

    def test_equal_is_zero(self):
        assert relative_difference(0.4, 0.4) == 0.0

    def test_published_style_values(self):
        assert relative_difference(0.369, 0.316) == pytest.approx(14.36, abs=0.01)

    def test_zero_baseline_error(self):
        with pytest.raises(ValueError):
            relative_difference(0.0, 0.1)
