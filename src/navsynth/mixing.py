"""Mixing-of-flows analysis: adjusted mutual information between incoming and outgoing traffic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .graph import pair_keys, unpack_pairs, write_csv
from .sessions import SequenceCorpus, corpus_triples
from .stats import spearman

LOG2 = np.log(2.0)
CDF_BIN_WIDTH = 0.01


@dataclass
class JointFlowTable:
    """Counts of (source, target) pairs of triples through one article, as parallel arrays."""

    middle: int
    sources: np.ndarray
    targets: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def contingency(self) -> np.ndarray:
        """Dense count matrix with rows = distinct sources, cols = distinct targets."""
        sources, rows = np.unique(self.sources, return_inverse=True)
        targets, cols = np.unique(self.targets, return_inverse=True)
        m = np.zeros((len(sources), len(targets)), dtype=np.int64)
        m[rows, cols] = self.counts
        return m


@dataclass
class AmiRecord:
    middle: int
    num_triples: int
    mi_bits: float
    ami: float
    entropy_source: float
    entropy_target: float


def collect_flow_tables(corpus: SequenceCorpus) -> dict[int, JointFlowTable]:
    """One table per middle article, keyed by its id in ascending order."""
    triples = corpus_triples(corpus)
    # distinct (middle, source) arrivals, then distinct (arrival index, target) keys
    arrivals, arrival = np.unique(pair_keys(triples[:, 1], triples[:, 0]), return_inverse=True)
    keys, counts = np.unique(pair_keys(arrival, triples[:, 2]), return_counts=True)
    arrival, t = unpack_pairs(keys)
    m, s = unpack_pairs(arrivals[arrival])
    bounds = np.append(np.flatnonzero(np.diff(m, prepend=-1)), len(m))
    return {mid: JointFlowTable(mid, s[lo:hi], t[lo:hi], counts[lo:hi])
            for mid, lo, hi in zip(m[bounds[:-1]].tolist(), bounds[:-1], bounds[1:])}


def entropy_bits(counts: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def mutual_information(m: np.ndarray) -> float:
    """MI in bits between the rows (sources) and columns (targets) of a count matrix."""
    total = m.sum()
    if total <= 0:
        raise ValueError("empty table")
    p = m / total
    ps = p.sum(axis=1, keepdims=True)
    pt = p.sum(axis=0, keepdims=True)
    nz = p > 0
    ratio = np.where(nz, p / (ps * pt), 1.0)
    return float((p[nz] * np.log2(ratio[nz])).sum())


def expected_mi(row_sums, col_sums, total: int) -> float:
    """Expected MI (bits) under the fixed-marginal permutation null, summed exactly."""
    a = np.asarray(row_sums, dtype=np.int64)
    b = np.asarray(col_sums, dtype=np.int64)
    n = int(total)
    if a.sum() != n or b.sum() != n:
        raise ValueError("marginals inconsistent with total")
    if len(a) <= 1 and len(b) <= 1:
        return 0.0
    return _expected_mi_exact(a, b, n)


def _expected_mi_exact(a: np.ndarray, b: np.ndarray, n: int) -> float:
    # E[MI] = sum_{i,j} sum_{nij} (nij/n) log2(n*nij/(ai*bj)) * P_hypergeom(nij)
    # (Vinh, Epps & Bailey, JMLR 2010). A cell depends only on (ai, bj), so the
    # sum runs over distinct marginal values weighted by their multiplicities.
    # Zero marginals have empty support and are dropped.
    lg = gammaln
    log_n = np.log(n)
    a_vals, a_mult = np.unique(a[a > 0], return_counts=True)
    b_vals, b_mult = np.unique(b[b > 0], return_counts=True)
    b_col = b_vals[:, None]
    lg_b = (lg(b_vals + 1) + lg(n - b_vals + 1))[:, None]
    emi = 0.0
    for ai, wa in zip(a_vals, a_mult):
        # one row per distinct bj: the support lo..hi, padded to the widest
        lo = np.maximum(1, ai + b_vals - n)
        hi = np.minimum(ai, b_vals)
        offsets = np.arange(int((hi - lo).max()) + 1)
        nij = lo[:, None] + offsets
        inside = nij <= hi[:, None]
        nij = np.minimum(nij, hi[:, None])
        log_pmf = (lg(ai + 1) + lg(n - ai + 1) - lg(n + 1) + lg_b
                   - lg(nij + 1) - lg(ai - nij + 1)
                   - lg(b_col - nij + 1) - lg(n - ai - b_col + nij + 1))
        term = (nij / n) * (np.log(nij) + log_n - np.log(ai) - np.log(b_col)) / LOG2
        cell = np.where(inside, term * np.exp(log_pmf), 0.0).sum(axis=1)
        emi += float(wa * (cell @ b_mult))
    return emi


def adjusted_mi(table: JointFlowTable) -> AmiRecord:
    """AMI with the max-entropy normalizer.

    AMI = (MI - EMI) / (max(H(S), H(T)) - EMI); defined as 0 when both
    marginals are degenerate. Chance fluctuations below 0 are reported as-is.
    """
    m = table.contingency()
    a = m.sum(axis=1)
    b = m.sum(axis=0)
    n = int(m.sum())
    mi = mutual_information(m)
    hs = entropy_bits(a)
    ht = entropy_bits(b)
    emi = expected_mi(a, b, n)
    denom = max(hs, ht) - emi
    ami = (mi - emi) / denom if abs(denom) > 1e-15 else 0.0
    return AmiRecord(table.middle, n, mi, float(ami), hs, ht)


@dataclass
class SurveyResult:
    records: list[AmiRecord]
    # Spearman correlation between triple counts and AMI; None when degenerate
    volume_ami_spearman: float | None


def ami_survey(corpus: SequenceCorpus, min_triples: int = 100) -> SurveyResult:
    """One AMI record per middle article with at least `min_triples` triples.

    Records are ordered by article id for deterministic output.
    """
    tables = collect_flow_tables(corpus).values()
    records = [adjusted_mi(tab) for tab in tables if tab.total >= min_triples]
    rho = None
    if len(records) >= 3:
        counts = [r.num_triples for r in records]
        amis = [r.ami for r in records]
        try:
            rho = spearman(counts, amis)
        except ValueError:
            rho = None
    return SurveyResult(records, rho)


def ami_cdf(records: list[AmiRecord]) -> list[tuple[float, float]]:
    """Cumulative fraction of records with AMI <= each bin edge in [0, 1]."""
    values = np.array([r.ami for r in records])
    edges = np.round(np.arange(0.0, 1.0 + CDF_BIN_WIDTH / 2, CDF_BIN_WIDTH), 10)
    if len(values) == 0:
        return [(float(e), 0.0) for e in edges]
    return [(float(e), float((values <= e).mean())) for e in edges]


def write_survey_csv(result: SurveyResult, path, interner, header_comment: str = ""):
    write_csv(path, ["article", "num_triples", "mi_bits", "ami"],
              [(interner.name(r.middle), "%d" % r.num_triples, "%.10g" % r.mi_bits,
                "%.10g" % r.ami) for r in result.records], header_comment)


def write_cdf_csv(records: list[AmiRecord], path, header_comment: str = ""):
    write_csv(path, ["ami_bin", "cumulative_fraction"],
              [("%.2f" % edge, "%.10g" % frac) for edge, frac in ami_cdf(records)],
              header_comment)
