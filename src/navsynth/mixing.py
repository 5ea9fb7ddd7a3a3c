"""Mixing-of-flows analysis: adjusted mutual information between incoming and outgoing traffic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graph import unpack_pairs, write_csv
from .sessions import SequenceCorpus, corpus_triples, count_triples
from .stats import spearman

LOG2 = np.log(2.0)
CDF_BIN_WIDTH = 0.01
LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)
LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
          -2.77777777730099687205E-3, 8.33333333333331927722E-2)  # lgam's series, x < 1000
LGAM_B = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_log_factorials = np.zeros(0)  # ln k! for k = 0, 1, ...: grown by `log_factorials`, never shrunk


@dataclass
class JointFlowTable:
    """Counts of (source, target) pairs of triples through one article, as parallel arrays."""

    middle: int
    sources: np.ndarray
    targets: np.ndarray
    counts: np.ndarray

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


def collect_flow_tables(corpus: SequenceCorpus) -> tuple[np.ndarray, ...]:
    """The distinct (middle, source, target) triples of the corpus in ascending order, as
    parallel int64 arrays `middles, sources, targets`, and their `count_triples` counts."""
    pairs, keys, counts = count_triples(corpus.pages, corpus_triples(corpus))
    pair, targets = unpack_pairs(keys)
    return *unpack_pairs(pairs[pair]), targets, counts


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


def _lgam(x: float) -> float:
    """ln Gamma(x) for an integer-valued x >= 1, as cephes `lgam` (`scipy.special.gammaln`)
    computes it, operation for operation, on `math.log`."""
    if x < 13:
        return math.log(math.factorial(int(x) - 1))  # cephes multiplies the same exact product
    q = (x - 0.5) * math.log(x) - x + LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)  # Horner's rule in p, as cephes `polevl`; a - c is a + (-c) exactly
    return q + reduce(lambda acc, c: acc * p + c, LGAM_A if x < 1000 else LGAM_B) / x


def log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n at least, read-only. One table serves every call, so its values
    never depend on which totals came before."""
    global _log_factorials
    if n >= len(_log_factorials):
        _log_factorials = np.append(_log_factorials, [
            _lgam(k + 1.0) for k in range(len(_log_factorials), n + 1)])
        _log_factorials.flags.writeable = False
    return _log_factorials


def expected_mi(row_sums, col_sums, total: int) -> float:
    """Expected MI (bits) under the fixed-marginal permutation null, summed exactly:
    E[MI] = sum_{i,j} sum_{nij} (nij/n) log2(n*nij/(ai*bj)) * P_hypergeom(nij)
    (Vinh, Epps & Bailey, JMLR 2010). A cell depends only on (ai, bj), so the sum
    runs over distinct marginal values weighted by their multiplicities. Zero
    marginals have empty support and are dropped. ln k! comes from `log_factorials`, whose
    cephes `lgam` formula gives the bits of `scipy.special.gammaln(k + 1)`."""
    a = np.asarray(row_sums, dtype=np.int64)
    b = np.asarray(col_sums, dtype=np.int64)
    n = int(total)
    if a.sum() != n or b.sum() != n:
        raise ValueError("marginals inconsistent with total")
    if len(a) <= 1 and len(b) <= 1:
        return 0.0
    log_n = np.log(n)
    a_vals, a_mult = np.unique(a[a > 0], return_counts=True)
    b_vals, b_mult = np.unique(b[b > 0], return_counts=True)
    b_col = b_vals[:, None]
    lf = log_factorials(n)
    lg_b = (lf[b_vals] + lf[n - b_vals])[:, None]
    emi = 0.0
    for ai, wa in zip(a_vals, a_mult):
        # one row per distinct bj: the support lo..hi, padded to the widest
        lo = np.maximum(1, ai + b_vals - n)
        hi = np.minimum(ai, b_vals)
        offsets = np.arange(int((hi - lo).max()) + 1)
        nij = lo[:, None] + offsets
        inside = nij <= hi[:, None]
        nij = np.minimum(nij, hi[:, None])
        log_pmf = (lf[ai] + lf[n - ai] - lf[n] + lg_b
                   - lf[nij] - lf[ai - nij] - lf[b_col - nij] - lf[n - ai - b_col + nij])
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
    middles, sources, targets, counts = collect_flow_tables(corpus)
    bounds = np.append(np.flatnonzero(np.diff(middles, prepend=-1)), len(middles))
    cum = np.cumsum(np.append(0, counts))
    scored = cum[bounds[1:]] - cum[bounds[:-1]] >= min_triples  # the middle's triple count
    records = [adjusted_mi(JointFlowTable(int(middles[lo]), sources[lo:hi], targets[lo:hi],
                                          counts[lo:hi]))
               for lo, hi in zip(bounds[:-1][scored].tolist(), bounds[1:][scored].tolist())]
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
    names = interner.names([r.middle for r in result.records])
    write_csv(path, ["article", "num_triples", "mi_bits", "ami"],
              [(name, "%d" % r.num_triples, "%.10g" % r.mi_bits, "%.10g" % r.ami)
               for name, r in zip(names, result.records)], header_comment)


def write_cdf_csv(records: list[AmiRecord], path, header_comment: str = ""):
    write_csv(path, ["ami_bin", "cumulative_fraction"],
              [("%.2f" % edge, "%.10g" % frac) for edge, frac in ami_cdf(records)],
              header_comment)
