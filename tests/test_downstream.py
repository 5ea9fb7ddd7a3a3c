import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from navsynth.diffusion import EmbeddingTable
from navsynth.downstream import (LabeledLinkSet,
                                 build_added_links, corpus_triples,
                                 evaluate_mrr, fit_markov2, link_prediction_rows,
                                 logreg_loss_grad, make_split, next_article_rows,
                                 precision_at_k, rank_links, relatedness_eval,
                                 relative_difference, relative_difference_rows,
                                 topic_classification, train_logreg)
from navsynth.graph import HyperlinkGraph, Interner, load_edge_list, pair_keys, unpack_pairs
from navsynth.sessions import SequenceCorpus
from navsynth.stats import rng_stream
from navsynth.synth import PlantedWorldSpec, generate_planted_world
from oracles import added_links_by_grid, from_sequences, name_ids, triple_pages, vector


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
    assert all(name_ids(g.interner)[str(i)] == i for i in range(num_nodes))
    return g


def csr_graph(edges, num_nodes):
    """Graph of (s, t) id pairs, s != t, over `num_nodes` ids, built without a file."""
    sources, targets = unpack_pairs(np.unique(keys_of(edges)))
    indptr = np.append(0, np.cumsum(np.bincount(sources, minlength=num_nodes)))
    return HyperlinkGraph(Interner(), indptr, targets)


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
    current, prev = unpack_pairs(model.contexts[context])
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
        corpus = from_sequences([[0, 1, 2], [0, 1, 2], [0, 1, 3], [0, 1, 2]],
                                               "Logs")
        model = fit_markov2(corpus.pages, corpus_triples(corpus))
        assert count_dict(model)[(0, 1)] == {2: 3, 3: 1}
        assert sum(count_dict(model)[(0, 1)].values()) == 4

    def test_empty(self):
        corpus = from_sequences([[0, 1]], "Logs")
        model = fit_markov2(corpus.pages, corpus_triples(corpus))
        assert count_dict(model) == {}
        assert (0, 1) not in count_dict(model)

    def test_matches_counting_oracle(self):
        rng = rng_stream(80)
        seqs = [[int(x) for x in rng.integers(0, 6, size=int(rng.integers(1, 8)))]
                for _ in range(50)]
        corpus = from_sequences(seqs, "Logs")
        model = fit_markov2(corpus.pages, corpus_triples(corpus))
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
        assert count_dict(fit_markov2(*triple_pages(triples))) == oracle_counts(triples)


class TestRankNext:
    def test_count_order_then_id(self, tmp_path):
        g = int_graph(tmp_path, [(1, 0), (1, 2), (1, 3)], 4)
        model = fit_markov2(*triple_pages([(0, 1, 3), (0, 1, 3), (0, 1, 0)]))
        ranked = ranking(model, g, 0, 1)
        assert ranked[0] == 3 and ranked[1] == 0
        # the remaining zero-count candidates come in id order
        assert ranked[2:] == sorted(ranked[2:])

    def test_matches_sort_key_oracle(self, tmp_path):
        rng = rng_stream(81)
        g = int_graph(tmp_path, [(i, j) for i in range(6) for j in range(6) if i != j], 6)
        triples = [(int(a), int(b), int(c)) for a, b, c in rng.integers(0, 6, size=(60, 3))]
        model = fit_markov2(*triple_pages(triples))
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
        model = fit_markov2(*triple_pages([(0, 1, 2)]))
        res = evaluate_mrr(model, g, [(0, 1, 2), (0, 1, 5)])
        assert res.mrr == pytest.approx((1.0 + 0.25) / 2)  # 0.625

    def test_absent_target_scores_zero(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2)], 3)
        model = fit_markov2(*triple_pages([]))
        res = evaluate_mrr(model, g, [(0, 1, 0)])  # 0 not a successor of 1
        assert res.mrr == 0.0

    def test_empty_test_split_error(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2)], 3)
        for compared in (None, [], [fit_markov2(*triple_pages([(0, 1, 2)]))]):
            with pytest.raises(ValueError, match="^empty test split$"):
                evaluate_mrr(fit_markov2(*triple_pages([])), g, np.zeros((0, 3), dtype=np.int64),
                             compared)

    def test_filtered_keeps_shared_contexts(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2), (1, 3), (4, 2)], 5)
        m_a = fit_markov2(*triple_pages([(0, 1, 2), (3, 4, 2)]))
        m_b = fit_markov2(*triple_pages([(0, 1, 3)]))
        res = evaluate_mrr(m_a, g, [(0, 1, 2), (3, 4, 2)], compared_models=[m_a, m_b])
        assert res.num_queries == 1  # (3,4) unseen by m_b

    def test_no_compared_models_keeps_every_query(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2), (1, 3), (4, 2)], 5)
        m = fit_markov2(*triple_pages([(0, 1, 2)]))
        test = [(0, 1, 2), (3, 4, 2)]
        kept, plain = evaluate_mrr(m, g, test, compared_models=[]), evaluate_mrr(m, g, test)
        assert kept.num_queries == plain.num_queries == 2 and kept.mrr == plain.mrr

    def test_empty_after_filter_error(self, tmp_path):
        g = int_graph(tmp_path, [(1, 2)], 3)
        m_a = fit_markov2(*triple_pages([(0, 1, 2)]))
        m_b = fit_markov2(*triple_pages([]))
        with pytest.raises(ValueError, match="empty test set"):
            evaluate_mrr(m_a, g, [(0, 1, 2)], compared_models=[m_a, m_b])


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

        model, other_model = (fit_markov2(*triple_pages(t)) for t in (train, other))
        assert evaluate_mrr(model, g, queries).reciprocal_ranks.tolist() == oracle([])
        expected = oracle([counts, other_counts])
        if not expected:
            with pytest.raises(ValueError, match="empty test set"):
                evaluate_mrr(model, g, queries, [model, other_model])
            return
        res = evaluate_mrr(model, g, queries, [model, other_model])
        assert res.reciprocal_ranks.tolist() == expected
        assert res.num_queries == len(expected)


class TestPathProportions:
    """p(s, t) = N(s, t) / N(s), seen through the order that `rank_links` gives."""

    def corpus(self):
        return from_sequences([[0, 1, 2], [0, 2], [0, 3], [5, 0]], "Logs")

    def rank(self, corpus, pairs):
        return tuple(map(pairs_of, rank_links(corpus, keys_of(pairs))))

    def oracle(self, seqs, s, t):
        """p(s, t) by a full scan, 0 for t = s; None when no sequence starts at s."""
        starting = [q for q in seqs if q[0] == s]
        return sum(t != s and t in q[1:] for q in starting) / len(starting) if starting else None

    def test_hand_computed(self):
        # p(5, 0) = 1, p(0, 2) = 2/3, and p(0, 1) = p(0, 3) = 1/3 tie in (s, t) order
        ranked, excluded = self.rank(self.corpus(), [(0, 3), (5, 0), (0, 1), (0, 2)])
        assert ranked == [(5, 0), (0, 2), (0, 1), (0, 3)] and excluded == []

    def test_start_itself_excluded(self):
        # p(0, 0) = 0 and p(0, 1) = 1; a tie would put (0, 0) first
        corpus = from_sequences([[0, 1, 0]], "Logs")
        assert self.rank(corpus, [(0, 0), (0, 1)]) == ([(0, 1), (0, 0)], [])

    def test_undefined_start(self):
        assert self.rank(self.corpus(), [(0, 2), (9, 0)]) == ([(0, 2)], [(9, 0)])

    def test_matches_full_scan_oracle(self):
        rng = rng_stream(82)
        seqs = [[int(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 7)))]
                for _ in range(60)]
        pairs = [(s, t) for s in range(6) for t in range(5)]
        p = {pair: self.oracle(seqs, *pair) for pair in pairs}
        ranked, excluded = self.rank(from_sequences(seqs, "Logs"), pairs)
        # Python's int / int and numpy's int64 / int64 both round the exact quotient once
        assert ranked == sorted((q for q in pairs if p[q] is not None), key=lambda q: (-p[q], q))
        assert excluded == [q for q in pairs if p[q] is None] != []

    def test_bounded(self):
        rng = rng_stream(83)
        seqs = [[int(x) for x in rng.integers(0, 4, size=5)] for _ in range(30)]
        pairs = [(s, t) for s in range(4) for t in range(4) if t != s]
        ranked, excluded = self.rank(from_sequences(seqs, "Logs"), pairs)
        assert sorted(ranked + excluded) == pairs
        # the links of p = 1 lead and those of p = 0 close
        p = [self.oracle(seqs, *pair) for pair in ranked]
        assert p == sorted(p, reverse=True)
        assert ranked[:p.count(1.0)] == [q for q in pairs if self.oracle(seqs, *q) == 1.0]
        assert ranked[len(p) - p.count(0.0):] == [q for q in pairs if self.oracle(seqs, *q) == 0.0]


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
        corpus = from_sequences([[0, 1, 2]] * 10, "Logs")
        labels = build_added_links(old, new, corpus, min_paths=10)
        assert set(pairs_of(labels.positives)) == {(0, 2)}

    def test_too_few_paths_raises(self, tmp_path):
        old, new = self.worlds(tmp_path)
        corpus = from_sequences([[0, 1, 2]] * 9, "Logs")
        with pytest.raises(ValueError, match="no positive") as raised:
            build_added_links(old, new, corpus, min_paths=10)
        assert str(raised.value) == ("no positive examples: 0 of 1 added links reach "
                                     "--min-paths 10 (most: 9 sequences)")

    def test_old_edges_never_count_as_paths(self, tmp_path):
        old, new = self.worlds(tmp_path)
        # direct traversal of the old edge 0->1 must not make (0,1) anything;
        # but (0,2) stays a positive via the indirect co-occurrence
        corpus = from_sequences([[0, 1, 2]] * 10, "Logs")
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
        corpus = from_sequences(seqs, "Logs")
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

    # ids 0-4 are graph nodes and 5-6 corpus pages interned after both graphs; short sequences
    # over 7 pages repeat pages (s = t steps) and pairs, and some have length 1
    @settings(max_examples=300, deadline=None)
    @given(old=st.sets(st.tuples(*[st.integers(0, 4)] * 2).filter(lambda e: e[0] != e[1]),
                       max_size=8),
           new=st.sets(st.tuples(*[st.integers(0, 4)] * 2).filter(lambda e: e[0] != e[1]),
                       max_size=12),
           sequences=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=8), min_size=1,
                              max_size=16),
           min_paths=st.integers(1, 3))
    @example(old={(0, 1)}, new={(0, 1), (0, 2), (1, 2), (3, 4)},
             sequences=[[0, 0, 2, 0, 2], [5], [1, 6, 2, 4], [3, 1, 4, 4], [3, 2]], min_paths=1)
    @example(old=set(), new={(0, 1)}, sequences=[[1, 1], [0]], min_paths=1)  # raises
    def test_matches_the_endpoint_grid(self, old, new, sequences, min_paths):
        # the old graph is interned first, so it may cover fewer ids than the new one; the new
        # graph also links the ends of each sequence, so that some added links are positives
        new = new | {(q[0], q[-1]) for q in sequences if q[0] != q[-1] and max(q[0], q[-1]) < 5}
        old_graph = csr_graph(old, 1 + max(map(max, old), default=0))
        new_graph = csr_graph(new, max(old_graph.num_nodes, 1 + max(map(max, new), default=0)))
        corpus = from_sequences(sequences, "Logs")
        try:
            expected = added_links_by_grid(old_graph, new_graph, corpus, min_paths)
        except ValueError as error:
            assert str(error) == "no positive examples"
            with pytest.raises(ValueError, match="^no positive examples: 0 of "):
                build_added_links(old_graph, new_graph, corpus, min_paths)
            return
        labels = build_added_links(old_graph, new_graph, corpus, min_paths)
        assert np.array_equal(labels.positives, expected.positives)
        assert np.array_equal(labels.negatives, expected.negatives)

    def test_memory_grows_with_the_corpus_not_the_positives_squared(self):
        # 2,000 added links i -> 2000 + i over distinct endpoints, each walked by one sequence
        # of 4 pages. The endpoint grid of their 4M pairs peaks at 21 KB per corpus position,
        # one counter over the corpus at 97 B.
        n = 2000
        new, old = csr_graph([(s, s + n) for s in range(n)], 2 * n), csr_graph([], 2 * n)
        corpus = from_sequences(
            [[s, (s + 1) % n, s + n, (s + 1) % n + n] for s in range(n)], "Logs")
        tracemalloc.start()
        try:
            labels = build_added_links(old, new, corpus, min_paths=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(labels.positives) == n and len(labels.negatives) == 2 * n
        assert peak / len(corpus.pages) <= 200, peak / len(corpus.pages)


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
        corpus = from_sequences([[0, 1, 2], [0, 2], [0, 3]], "Logs")
        ranked, excluded = rank_links(corpus, keys_of([(0, 2), (0, 3), (9, 1)]))
        assert pairs_of(ranked) == [(0, 2), (0, 3)]  # 2/3 before 1/3
        assert pairs_of(excluded) == [(9, 1)]


def relatedness_pairs(rows):
    """The (ids, scores) arrays of (a, b, score) rows, as the CLI's pairs reader returns them."""
    ids = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    return ids, np.array([row[2] for row in rows], dtype=float)


class TestRelatedness:
    def emb(self, vectors):
        return EmbeddingTable(list(vectors), list(vectors.values()))

    def test_perfect_agreement(self):
        emb = self.emb({0: [1, 0], 1: [1, 0.2], 2: [1, 1], 3: [0, 1]})
        pairs = [(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0)]
        assert relatedness_eval(emb, relatedness_pairs(pairs)).rho == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        emb = self.emb({0: [1, 0], 1: [1, 0.2], 2: [1, 1], 3: [0, 1]})
        pairs = [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)]
        assert relatedness_eval(emb, relatedness_pairs(pairs)).rho == pytest.approx(-1.0)

    def test_matches_spearman_oracle(self):
        rng = rng_stream(86)
        table = EmbeddingTable(range(12), rng.normal(size=(12, 4)))
        pairs = []
        for _ in range(20):
            a, b = (int(x) for x in rng.choice(12, size=2, replace=False))
            pairs.append((a, b, float(rng.random())))
        res = relatedness_eval(table, relatedness_pairs(pairs))
        from navsynth.stats import spearman
        sims = []
        for a, b, _ in pairs:
            va, vb = vector(table, a), vector(table, b)
            sims.append(float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))))
        assert res.rho == pytest.approx(spearman(sims, [p[2] for p in pairs]), abs=1e-12)

    def test_drops_uncovered(self):
        emb = self.emb({0: [1, 0], 1: [1, 0.2], 2: [1, 1], 3: [0, 1]})
        pairs = [(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0), (0, 99, 5.0)]
        res = relatedness_eval(emb, relatedness_pairs(pairs))
        assert res.num_pairs == 3 and res.num_dropped == 1

    def test_too_few_pairs(self):
        emb = self.emb({0: [1, 0], 1: [0, 1]})
        with pytest.raises(ValueError, match="fewer than 3"):
            relatedness_eval(emb, relatedness_pairs([(0, 1, 1.0), (0, 99, 2.0)]))


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
        w, b = train_logreg(x, y)
        preds = (x @ w + b) >= 0
        assert np.array_equal(preds, y.astype(bool))

    def test_topic_classification_separable(self):
        rng = rng_stream(89)
        topics = np.arange(40) % 2
        centers = np.where(topics[:, None] == 0, [3.0, 0.0], [-3.0, 0.0])
        table = EmbeddingTable(range(40), centers + 0.1 * rng.normal(size=(40, 2)))
        labels = {a: {int(topic)} for a, topic in enumerate(topics)}
        split = make_split(40, seed=1)
        res = topic_classification(table, labels, split, num_topics=2)
        assert res.micro_f1 == pytest.approx(1.0)
        assert res.macro_f1 == pytest.approx(1.0)

    def test_degenerate_topic_all_negative(self):
        rng = rng_stream(90)
        table = EmbeddingTable(range(20), rng.normal(size=(20, 2)))
        labels = {a: {0} for a in range(20)}
        split = make_split(20, seed=2)
        res = topic_classification(table, labels, split, num_topics=3)
        assert set(res.degenerate_topics) == {1, 2}

    def test_topic_id_out_of_range(self):
        table = EmbeddingTable([0, 1], [[1.0, 0.0], [0.0, 1.0]])
        for topic in (-1, 3):
            with pytest.raises(ValueError, match="topic id %d out of range" % topic):
                topic_classification(table, {0: {0}, 1: {topic}}, make_split(2), num_topics=3)

    @pytest.mark.parametrize("labeled", [0, 1, 2])
    def test_empty_test_split_error(self, labeled):
        # the 0.8/0.1/0.1 split of fewer than 3 items leaves no test article
        table = EmbeddingTable(range(7), np.eye(7))
        split = make_split(labeled)
        assert len(split.test) == 0
        with pytest.raises(ValueError, match="^empty test split$"):
            topic_classification(table, {a: {0} for a in range(labeled)}, split, num_topics=2)


class TestSplit:
    def test_disjoint_and_covering(self):
        split = make_split(100, seed=3)
        parts = [set(split.train), set(split.validation), set(split.test)]
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) \
            and not (parts[1] & parts[2])
        assert parts[0] | parts[1] | parts[2] == set(range(100))

    def test_every_split_of_3_or_more_items_has_a_test_item(self):
        for n in range(1000):
            split = make_split(n)
            sizes = len(split.train), len(split.validation), len(split.test)
            # the train and validation sizes each rounded on their own, as before the test
            # split was kept non-empty
            rounded = round(0.8 * n), round(0.1 * n), n - round(0.8 * n) - round(0.1 * n)
            assert sizes == ({6: (5, 0, 1), 7: (6, 0, 1)}.get(n, rounded))
            assert (sizes[2] > 0) == (n >= 3)

    def test_sizes_near_fractions(self):
        split = make_split(103, seed=4)
        assert abs(len(split.train) - 0.8 * 103) <= 1
        assert abs(len(split.validation) - 0.1 * 103) <= 1


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


# ---------------------------------------------------------------- command rows, in memory

@pytest.fixture(scope="module")
def world():
    # the planted world of the golden run, whose every other edge gives the old graph
    return generate_planted_world(PlantedWorldSpec(num_nodes=60, out_degree=5,
                                                   memory_strength=0.6, corpus_size=1500, seed=3))


def half_corpus(corpus):
    """The second half of `corpus`'s sequences, as another training corpus."""
    half = len(corpus) // 2
    return SequenceCorpus(corpus.pages[corpus.offsets[half]:],
                          corpus.offsets[half:] - corpus.offsets[half], "Half")


class TestNextArticleRows:
    def test_matches_the_models_it_names(self, world):
        half = half_corpus(world.corpus)
        rows = next_article_rows(world.graph, world.corpus, [("Logs", None), ("Half", half)], 3)
        pages, starts = world.corpus.pages, corpus_triples(world.corpus)
        split = make_split(len(starts), seed=3)
        test = [pages[i:i + 3] for i in starts[split.test]]
        # None fits the reference's own train split
        models = [fit_markov2(pages, starts[split.train]),
                  fit_markov2(half.pages, corpus_triples(half))]
        expected = []
        for name, model in zip(["Logs", "Half"], models):
            expected += [(name, metric, "%.6f" % evaluate_mrr(model, world.graph,
                                                              test, compared).mrr)
                         for metric, compared in (("mrr_all", None), ("mrr_filtered", models))]
        assert rows == expected

    def test_names_keep_their_order(self, world):
        train = {"B": half_corpus(world.corpus), "A": None}
        rows = next_article_rows(world.graph, world.corpus, iter(train.items()), 0)
        assert [row[:2] for row in rows] == [("B", "mrr_all"), ("B", "mrr_filtered"),
                                             ("A", "mrr_all"), ("A", "mrr_filtered")]


class TestLinkPredictionRows:
    def test_matches_the_rankings_it_names(self, world):
        sources, targets = world.graph.edge_arrays()
        kept = np.arange(len(sources)) % 2 == 1
        indptr = np.append(0, np.cumsum(np.bincount(sources[kept],
                                                    minlength=world.graph.num_nodes)))
        old = HyperlinkGraph(world.graph.interner, indptr, targets[kept])
        corpora = {"Logs": world.corpus, "Half": half_corpus(world.corpus)}
        rows = link_prediction_rows(old, world.graph, world.corpus, corpora.items(), 5, [5, 20])
        labels = build_added_links(old, world.graph, world.corpus, min_paths=5)
        candidates = np.union1d(labels.positives, labels.negatives)
        expected = [(name, "precision_at_%d" % r.k, "%.6f" % r.precision)
                    for name, corpus in corpora.items()
                    for r in precision_at_k(rank_links(corpus, candidates)[0], labels, [5, 20])]
        assert rows == expected and len(rows) == 4


class TestRelativeDifferenceRows:
    def test_against_the_baseline_of_each_metric(self):
        values = {("A", "mrr"): 0.4, ("Logs", "mrr"): 0.5, ("A", "p10"): 0.3,
                  ("Logs", "p10"): 0.0, ("B", "other"): 1.0, ("B", "mrr"): 0.6}
        # no row for the baseline itself, a baseline of 0 or a metric the baseline lacks
        assert relative_difference_rows(values, "Logs") == [("A", "mrr", "20.0000"),
                                                             ("B", "mrr", "-20.0000")]
        assert relative_difference_rows(values, "C") == []
