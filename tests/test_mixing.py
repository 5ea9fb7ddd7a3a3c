import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsynth.mixing import (JointFlowTable, adjusted_mi, ami_survey,
                             collect_flow_tables, entropy_bits, expected_mi,
                             mutual_information)
from navsynth.sessions import SequenceCorpus, corpus_triples
from navsynth.stats import rng_stream


def table_from_matrix(m, middle=0):
    rows, cols = np.nonzero(m)
    return JointFlowTable(middle, rows, cols + 100, m[rows, cols])


def flow_dict(table):
    """A flow table's counts as {(source, target): count}."""
    return dict(zip(zip(table.sources.tolist(), table.targets.tolist()), table.counts.tolist()))


# ------------------------------------------------------------------ oracles

def oracle_mi_bits(m):
    # direct double-loop evaluation of the MI formula
    n = m.sum()
    rows = m.sum(axis=1)
    cols = m.sum(axis=0)
    mi = 0.0
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            if m[i, j] == 0:
                continue
            p = m[i, j] / n
            mi += p * math.log2(p * n * n / (rows[i] * cols[j]))
    return mi


def oracle_entropy_bits(counts):
    n = sum(counts)
    return -sum(c / n * math.log2(c / n) for c in counts if c)


def oracle_emi_bits(rows, cols, n):
    # exact expectation under the hypergeometric null, built from integer
    # binomial coefficients rather than log-gamma
    emi = 0.0
    for a in rows:
        for b in cols:
            lo = max(1, a + b - n)
            hi = min(a, b)
            for nij in range(lo, hi + 1):
                pmf = (math.comb(a, nij) * math.comb(n - a, b - nij)
                       / math.comb(n, b))
                emi += (nij / n) * math.log2(n * nij / (a * b)) * pmf
    return emi


def oracle_ami(m):
    n = int(m.sum())
    mi = oracle_mi_bits(m)
    emi = oracle_emi_bits(m.sum(axis=1).tolist(), m.sum(axis=0).tolist(), n)
    h = max(oracle_entropy_bits(m.sum(axis=1).tolist()),
            oracle_entropy_bits(m.sum(axis=0).tolist()))
    denom = h - emi
    return (mi - emi) / denom if abs(denom) > 1e-15 else 0.0


# ------------------------------------------------------------------ tests

class TestExtractTriples:
    def test_sliding_window(self):
        corpus = SequenceCorpus.from_sequences([[0, 1, 2, 3]], "Logs")
        assert corpus_triples(corpus).tolist() == [[0, 1, 2], [1, 2, 3]]

    def test_short_sequence(self):
        corpus = SequenceCorpus.from_sequences([[0, 1]], "Logs")
        assert corpus_triples(corpus).tolist() == []

    def test_count_arithmetic(self):
        rng = rng_stream(31)
        seqs = [[int(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 9)))]
                for _ in range(40)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        expected = sum(max(0, len(s) - 2) for s in seqs)
        assert len(corpus_triples(corpus)) == expected


class TestMutualInformation:
    def test_independence_zero(self):
        m = np.array([[5, 5], [5, 5]])
        mi = mutual_information(table_from_matrix(m).contingency())
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_one_bit(self):
        m = np.array([[10, 0], [0, 10]])
        mi = mutual_information(table_from_matrix(m).contingency())
        assert mi == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = rng_stream(32)
        for _ in range(20):
            m = rng.integers(0, 20, size=(4, 5))
            if m.sum() == 0:
                continue
            assert mutual_information(table_from_matrix(m).contingency()) == pytest.approx(
                oracle_mi_bits(m), abs=1e-12)

    def test_bounds(self):
        rng = rng_stream(33)
        for _ in range(30):
            m = rng.integers(0, 15, size=(3, 4))
            if m.sum() == 0:
                continue
            mi = mutual_information(table_from_matrix(m).contingency())
            hs = entropy_bits(m.sum(axis=1))
            ht = entropy_bits(m.sum(axis=0))
            assert -1e-12 <= mi <= min(hs, ht) + 1e-12


class TestExpectedMi:
    def test_degenerate_table(self):
        assert expected_mi([7], [7], 7) == 0.0

    def test_matches_permutation_monte_carlo(self):
        rows, cols, n = [10, 10], [10, 10], 20
        exact = expected_mi(rows, cols, n)
        rng = rng_stream(34)
        s = np.repeat([0, 1], 10)
        t = np.repeat([0, 1], 10)
        draws = 100_000
        mis = np.empty(draws)
        for b in range(draws):
            perm = rng.permutation(t)
            m = np.zeros((2, 2), dtype=int)
            np.add.at(m, (s, perm), 1)
            mis[b] = oracle_mi_bits(m)
        se = mis.std() / math.sqrt(draws)
        assert abs(exact - mis.mean()) < 3 * se

    def test_bounded_by_min_entropy(self):
        rng = rng_stream(35)
        for _ in range(10):
            rows = rng.integers(1, 12, size=3)
            cols_raw = rng.integers(1, 12, size=4).astype(float)
            n = int(rows.sum())
            cols = np.floor(cols_raw / cols_raw.sum() * n).astype(int)
            cols[0] += n - cols.sum()
            cols = cols[cols > 0]
            emi = expected_mi(rows, cols, n)
            assert emi <= min(oracle_entropy_bits(rows.tolist()),
                              oracle_entropy_bits(cols.tolist())) + 1e-12

    def test_large_total_matches_oracle(self):
        # n > 5000 with hub-like skew: one dominant source and target
        rows, cols = [5400, 300, 200, 100], [5500, 350, 100, 50]
        n = sum(rows)
        assert expected_mi(rows, cols, n) == pytest.approx(
            oracle_emi_bits(rows, cols, n), abs=1e-9)

    def test_repeated_marginals_match_oracle(self):
        rng = rng_stream(36)
        for _ in range(20):
            # marginals drawn from a few small values, so most of them repeat
            rows = [int(x) for x in rng.choice([1, 2, 3, 7], size=int(rng.integers(2, 12)))]
            n = sum(rows)
            cols = []
            while sum(cols) < n:
                cols.append(int(rng.choice([1, 2, 3, 7])))
            cols[-1] -= sum(cols) - n
            assert expected_mi(rows, cols, n) == pytest.approx(
                oracle_emi_bits(rows, cols, n), abs=1e-9)


class TestAdjustedMi:
    def test_independent_near_zero(self):
        rng = rng_stream(37)
        ps = np.array([0.5, 0.5])
        pt = np.array([0.3, 0.7])
        joint = np.outer(ps, pt).ravel()
        m = rng.multinomial(1000, joint).reshape(2, 2)
        rec = adjusted_mi(table_from_matrix(m))
        assert abs(rec.ami) < 0.05

    def test_bijection_is_one(self):
        m = np.diag([25, 25, 25, 25])
        rec = adjusted_mi(table_from_matrix(m))
        assert rec.ami == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_oracle(self):
        rng = rng_stream(38)
        for _ in range(30):
            m = rng.integers(0, 10, size=(int(rng.integers(1, 5)),
                                          int(rng.integers(1, 5))))
            if m.sum() == 0:
                continue
            rec = adjusted_mi(table_from_matrix(m))
            assert rec.ami == pytest.approx(oracle_ami(m), abs=1e-9)

    def test_matches_sklearn_max_normalized(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        rng = rng_stream(39)
        for _ in range(10):
            m = rng.integers(0, 8, size=(3, 3))
            if m.sum() == 0 or m.sum(axis=1).max() == m.sum() or m.sum(axis=0).max() == m.sum():
                continue
            rec = adjusted_mi(table_from_matrix(m))
            s_labels = np.repeat(np.arange(3), m.sum(axis=1))
            t_labels = np.concatenate([np.repeat(np.arange(3), m[i]) for i in range(3)])
            ref = sklearn.adjusted_mutual_info_score(s_labels, t_labels,
                                                     average_method="max")
            assert rec.ami == pytest.approx(ref, abs=1e-9)

    def test_relabeling_invariance(self):
        rng = rng_stream(40)
        m = rng.integers(0, 9, size=(3, 4))
        rec = adjusted_mi(table_from_matrix(m))
        perm_rows = m[rng.permutation(3), :]
        perm_cols = perm_rows[:, rng.permutation(4)]
        rec2 = adjusted_mi(table_from_matrix(perm_cols))
        assert rec2.mi_bits == pytest.approx(rec.mi_bits, abs=1e-12)
        assert rec2.ami == pytest.approx(rec.ami, abs=1e-12)

    def test_record_invariants(self):
        rng = rng_stream(41)
        for _ in range(10):
            m = rng.integers(0, 12, size=(3, 3))
            if m.sum() == 0:
                continue
            rec = adjusted_mi(table_from_matrix(m))
            assert rec.ami <= 1 + 1e-9
            assert rec.mi_bits <= min(rec.entropy_source, rec.entropy_target) + 1e-9


class TestSurvey:
    def test_threshold_filters_everything(self):
        corpus = SequenceCorpus.from_sequences([[0, 1, 2]] * 5, "Logs")
        assert ami_survey(corpus, min_triples=100).records == []

    def test_collect_tables(self):
        corpus = SequenceCorpus.from_sequences([[0, 1, 2], [3, 1, 2], [0, 1, 4]], "Logs")
        tables = collect_flow_tables(corpus)
        assert flow_dict(tables[1]) == {(0, 2): 1, (3, 2): 1, (0, 4): 1}
        assert tables[1].total == 3

    @settings(max_examples=100, deadline=None)
    @given(seqs=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), max_size=30))
    def test_collect_tables_match_dict_oracle(self, seqs):
        oracle = {}
        for seq in seqs:
            for s, m, t in zip(seq, seq[1:], seq[2:]):
                row = oracle.setdefault(m, {})
                row[(s, t)] = row.get((s, t), 0) + 1
        tables = collect_flow_tables(SequenceCorpus.from_sequences(seqs, "Logs"))
        assert list(tables) == sorted(oracle)
        for m, tab in tables.items():
            assert tab.middle == m and flow_dict(tab) == oracle[m]
            assert tab.total == sum(oracle[m].values())
            sources = sorted({s for s, _ in oracle[m]})
            targets = sorted({t for _, t in oracle[m]})
            dense = [[oracle[m].get((s, t), 0) for t in targets] for s in sources]
            assert tab.contingency().tolist() == dense

    def test_deterministic_csv(self, tmp_path):
        from navsynth.graph import Interner
        from navsynth.mixing import write_cdf_csv, write_survey_csv
        rng = rng_stream(42)
        interner = Interner()
        for i in range(6):
            interner.intern("n%d" % i)
        seqs = [[int(x) for x in rng.integers(0, 6, size=5)] for _ in range(300)]
        corpus = SequenceCorpus.from_sequences(seqs, "Logs")
        outputs = []
        for run in range(2):
            res = ami_survey(corpus, min_triples=10)
            p1 = tmp_path / ("survey%d.csv" % run)
            p2 = tmp_path / ("cdf%d.csv" % run)
            write_survey_csv(res, str(p1), interner)
            write_cdf_csv(res.records, str(p2))
            outputs.append((p1.read_bytes(), p2.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_reports_volume_spearman(self):
        rng = rng_stream(43)
        seqs = [[int(x) for x in rng.integers(0, 5, size=6)] for _ in range(400)]
        res = ami_survey(SequenceCorpus.from_sequences(seqs, "Logs"), min_triples=20)
        assert len(res.records) >= 3
        assert res.volume_ami_spearman is None or -1 <= res.volume_ami_spearman <= 1
