"""End-to-end acceptance checks, one printed PASS line per criterion.

Run with `python3 -m pytest -s tests/test_acceptance.py` to see the lines.
Every expected value is either hand-computable or checked against an
independent oracle implemented in this file.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from navsynth.cli import main as cli_main
from navsynth.diffusion import EmbeddingTable, diffusion_curve
from navsynth.downstream import (build_added_links, corpus_triples,
                                 evaluate_mrr, fit_markov2, logreg_loss_grad,
                                 make_split, precision_at_k, rank_links,
                                 relative_difference)
from navsynth.embeddings import sgns_pair_gradients, sgns_pair_loss
from navsynth.graph import (apply_k_anonymity, build_transition_model,
                            load_edge_list, pair_keys, unpack_pairs)
from navsynth.mixing import JointFlowTable, adjusted_mi, ami_survey
from navsynth.sessions import SequenceCorpus
from navsynth.stats import bootstrap_mean_ci, f1_micro_macro, rng_stream, spearman
from navsynth.synth import (GeometricWorldSpec, PlantedWorldSpec, StoppingRule,
                            generate_corpus, generate_geometric_world,
                            generate_planted_world)


def announce(number, text):
    print("\n[criterion %02d] PASS - %s" % (number, text))


# ------------------------------------------------------------------ oracles

def oracle_ami(m):
    """Adjusted mutual information recomputed from scratch with math.comb."""
    m = np.asarray(m, dtype=int)
    n = int(m.sum())
    rows = m.sum(axis=1).tolist()
    cols = m.sum(axis=0).tolist()

    def entropy(counts):
        return -sum(c / n * math.log2(c / n) for c in counts if c)

    mi = 0.0
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            if m[i, j]:
                p = m[i, j] / n
                mi += p * math.log2(p * n * n / (rows[i] * cols[j]))
    emi = 0.0
    for a in rows:
        for b in cols:
            for nij in range(max(1, a + b - n), min(a, b) + 1):
                pmf = (math.comb(a, nij) * math.comb(n - a, b - nij)
                       / math.comb(n, b))
                emi += (nij / n) * math.log2(n * nij / (a * b)) * pmf
    denom = max(entropy(rows), entropy(cols)) - emi
    return (mi - emi) / denom if abs(denom) > 1e-15 else 0.0


def oracle_spearman(xs, ys):
    """Average-rank Pearson, reimplemented without scipy."""
    def average_ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        ranks = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                ranks[order[k]] = avg
            i = j + 1
        return np.array(ranks)

    rx, ry = average_ranks(list(xs)), average_ranks(list(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def table_from_matrix(m):
    rows, cols = np.nonzero(m)
    return JointFlowTable(0, rows, cols + 1000, m[rows, cols])


def ci_overlap(lo1, hi1, lo2, hi2):
    return lo1 <= hi2 and lo2 <= hi1


# ------------------------------------------------------------------ criteria

def test_criterion_01_ami_matches_comb_oracle():
    rng = rng_stream(101)
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        m = rng.integers(0, 6, size=(r, c))
        if m.sum() == 0 or m.sum() > 200:
            continue
        rec = adjusted_mi(table_from_matrix(m))
        assert rec.ami == pytest.approx(oracle_ami(m), abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(1, "AMI matches the binomial-coefficient oracle on 200 random "
                "tables within 1e-9 (%.1fs)" % elapsed)


def test_criterion_02_ami_null_and_identity():
    rng = rng_stream(102)
    ps = np.array([0.4, 0.35, 0.25])
    pt = np.array([0.5, 0.3, 0.2])
    m = rng.multinomial(1000, np.outer(ps, pt).ravel()).reshape(3, 3)
    null_rec = adjusted_mi(table_from_matrix(m))
    assert abs(null_rec.ami) < 0.05

    for size in (2, 3, 5):
        diag = np.diag(rng.integers(5, 30, size=size))
        rec = adjusted_mi(table_from_matrix(diag))
        assert rec.ami == pytest.approx(1.0, abs=1e-9)
    announce(2, "independent draws give |AMI| = %.4f < 0.05 and exact "
                "bijections give AMI = 1" % abs(null_rec.ami))


def test_criterion_03_memoryless_world_has_no_mixing():
    start = time.perf_counter()
    kw = dict(num_nodes=2000, out_degree=8, corpus_size=100_000, seed=7)
    w0 = generate_planted_world(PlantedWorldSpec(memory_strength=0.0, **kw))
    w9 = generate_planted_world(PlantedWorldSpec(memory_strength=0.9, **kw))
    a0 = [r.ami for r in ami_survey(w0.corpus, min_triples=100).records]
    a9 = [r.ami for r in ami_survey(w9.corpus, min_triples=100).records]
    assert len(a0) >= 100
    low_frac = np.mean(np.array(a0) < 0.1)
    assert low_frac >= 0.90
    assert np.median(a9) > np.median(a0)
    p = mannwhitneyu(a9, a0, alternative="greater").pvalue
    assert p < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    announce(3, "memoryless world: %.0f%% of %d articles have AMI < 0.1; "
                "memory raises the median from %.4f to %.4f (p = %.2g, %.0fs)"
             % (100 * low_frac, len(a0), np.median(a0), np.median(a9), p, elapsed))


def test_criterion_04_diffusion_null_equivalence():
    world = generate_geometric_world(GeometricWorldSpec(seed=3))
    emb = EmbeddingTable(np.arange(len(world.positions)), world.positions)

    priv = generate_corpus(world.weighted, world.corpus, StoppingRule(), 11,
                           "Clickstream-Priv")
    uniform_model = build_transition_model(world.graph)
    uni = generate_corpus(uniform_model, world.corpus, StoppingRule(), 12, "Graph")

    c_ref = diffusion_curve(world.corpus, emb, 4, rng=rng_stream(99))
    c_priv = diffusion_curve(priv, emb, 4, rng=rng_stream(99))
    c_uni = diffusion_curve(uni, emb, 4, rng=rng_stream(99))
    assert c_ref.ks == c_priv.ks == c_uni.ks == [1, 2, 3, 4]

    for i, k in enumerate(c_ref.ks):
        assert ci_overlap(c_ref.ci_low[i], c_ref.ci_high[i],
                          c_priv.ci_low[i], c_priv.ci_high[i]), "k=%d" % k
        if k >= 2:
            assert c_uni.ci_low[i] > max(c_ref.ci_high[i], c_priv.ci_high[i])
    announce(4, "biased synthetic diffusion is indistinguishable from the "
                "reference for k <= 4 while uniform walks diffuse strictly "
                "faster for k >= 2")


def _mrr_with_ci(model, graph, test, seed, mode="all", compared=None):
    res = evaluate_mrr(model, graph, test, mode, compared)
    boot = bootstrap_mean_ci(res.reciprocal_ranks, rng=rng_stream(500, seed))
    return res.mrr, boot.ci_low, boot.ci_high


def test_criterion_05_mrr_ordering_and_filtering():
    # strong-memory world: reference beats Markov-1 synthesis beats uniform
    world = generate_planted_world(PlantedWorldSpec(
        num_nodes=300, out_degree=8, memory_strength=0.9,
        corpus_size=20_000, seed=21))
    triples = corpus_triples(world.corpus)
    split = make_split(len(triples), seed=5)
    test = [triples[i] for i in split.test]
    m_ref = fit_markov2(triples[split.train])

    priv_model = build_transition_model(world.graph, world.clickstream)
    priv = generate_corpus(priv_model, world.corpus, StoppingRule(), 31,
                           "Clickstream-Priv")
    uni = generate_corpus(build_transition_model(world.graph), world.corpus,
                          StoppingRule(), 32, "Graph")
    m_priv = fit_markov2(corpus_triples(priv))
    m_uni = fit_markov2(corpus_triples(uni))

    ref_mrr, ref_lo, ref_hi = _mrr_with_ci(m_ref, world.graph, test, 1)
    priv_mrr, priv_lo, priv_hi = _mrr_with_ci(m_priv, world.graph, test, 2)
    uni_mrr, uni_lo, uni_hi = _mrr_with_ci(m_uni, world.graph, test, 3)
    assert ref_lo > priv_hi > 0  # non-overlapping CIs, in order
    assert priv_lo > uni_hi > 0

    # sparsified memoryless world: publication thresholding costs coverage,
    # and restricting to contexts every model has seen shrinks the gap
    world2 = generate_planted_world(PlantedWorldSpec(
        num_nodes=300, out_degree=16, memory_strength=0.0,
        corpus_size=3000, seed=22))
    triples2 = corpus_triples(world2.corpus)
    split2 = make_split(len(triples2), seed=5)
    test2 = [triples2[i] for i in split2.test]
    m_ref2 = fit_markov2(triples2[split2.train])

    pub_table = apply_k_anonymity(world2.clickstream, 5)
    m_priv2 = fit_markov2(corpus_triples(generate_corpus(
        build_transition_model(world2.graph, world2.clickstream),
        world2.corpus, StoppingRule(), 41, "Clickstream-Priv")))
    m_pub2 = fit_markov2(corpus_triples(generate_corpus(
        build_transition_model(world2.graph, pub_table),
        world2.corpus, StoppingRule(), 42, "Clickstream-Pub")))

    models = [m_ref2, m_priv2, m_pub2]
    all_mrrs = [evaluate_mrr(m, world2.graph, test2).mrr for m in models]
    filt_mrrs = [evaluate_mrr(m, world2.graph, test2, "filtered", models).mrr
                 for m in models]
    assert all(f > a for f, a in zip(filt_mrrs, all_mrrs))
    gap_all = abs(all_mrrs[1] - all_mrrs[2])
    gap_filt = abs(filt_mrrs[1] - filt_mrrs[2])
    assert gap_filt < gap_all
    announce(5, "MRR ordering reference %.3f > biased %.3f > uniform %.3f with "
                "disjoint CIs; filtering raises every MRR and shrinks the "
                "private/public gap from %.3f to %.3f"
             % (ref_mrr, priv_mrr, uni_mrr, gap_all, gap_filt))


def test_criterion_06_relative_difference_reference_value():
    value = relative_difference(0.369, 0.316)
    assert value == pytest.approx(14.4, abs=0.1)
    announce(6, "relative_difference(0.369, 0.316) = %.2f%%" % value)


def link_pairs(keys):
    """The set of (s, t) pairs of packed link keys."""
    return set(zip(*(ids.tolist() for ids in unpack_pairs(keys))))


def test_criterion_07_link_prediction(tmp_path):
    # fabricated world: 5 added links, each supported by 20 start-anchored
    # indirect-path sequences; 20 endpoint-sharing negatives supported by 11
    names = {}
    for i in range(5):
        names["s%d" % i] = None
        names["m%d" % i] = None
        names["t%d" % i] = None
    old_lines = []
    for i in range(5):
        old_lines.append("s%d\tm%d" % (i, i))
        old_lines.append("m%d\tt%d" % (i, i))
    new_lines = old_lines + ["s%d\tt%d" % (i, i) for i in range(5)]
    old_path = tmp_path / "old.tsv"
    new_path = tmp_path / "new.tsv"
    old_path.write_text("\n".join(old_lines) + "\n", encoding="utf-8")
    new_path.write_text("\n".join(new_lines) + "\n", encoding="utf-8")
    old = load_edge_list(str(old_path))
    new = load_edge_list(str(new_path))
    ids = old.interner

    seqs = []
    for i in range(5):
        s, m, t = ids.id("s%d" % i), ids.id("m%d" % i), ids.id("t%d" % i)
        seqs.extend([[s, m, t]] * 20)
        for j in range(5):
            if j != i:
                seqs.extend([[s, m, ids.id("t%d" % j)]] * 11)
    corpus = SequenceCorpus.from_sequences(seqs, "Logs")

    labels = build_added_links(old, new, corpus, min_paths=10)
    expected_pos = {(ids.id("s%d" % i), ids.id("t%d" % i)) for i in range(5)}
    expected_neg = {(ids.id("s%d" % i), ids.id("t%d" % j))
                    for i in range(5) for j in range(5) if i != j}
    assert link_pairs(labels.positives) == expected_pos
    assert link_pairs(labels.negatives) == expected_neg

    candidates = np.array(sorted(expected_pos | expected_neg), dtype=np.int64)
    ranked, excluded = rank_links(corpus, pair_keys(candidates[:, 0], candidates[:, 1]))
    assert not len(excluded)
    for res in precision_at_k(ranked, labels, range(1, 6)):
        assert res.precision == 1.0
    [overall] = precision_at_k(ranked, labels, [25])
    assert overall.precision == pytest.approx(5 / 25)

    # and the labeling matches a rule-by-rule enumeration on a random world
    rng = rng_stream(107)
    n = 50
    ring = {(i, (i + 1) % n) for i in range(n)}
    extra = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(60, 2)) if a != b}
    added = set()
    while len(added) < 12:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b and (a, b) not in ring | extra:
            added.add((a, b))

    def write_graph(path, edges):
        text = "".join("%d\t%d\n" % (i, (i + 1) % n) for i in range(n))
        text += "".join("%d\t%d\n" % e for e in sorted(edges))
        path.write_text(text, encoding="utf-8")
        return load_edge_list(str(path))

    old_g = write_graph(tmp_path / "ro.tsv", extra)
    new_g = write_graph(tmp_path / "rn.tsv", extra | added)
    rseqs = [[int(x) for x in rng.integers(0, n, size=int(rng.integers(2, 10)))]
             for _ in range(3000)]
    rlabels = build_added_links(old_g, new_g, SequenceCorpus.from_sequences(rseqs, "Logs"),
                                min_paths=10)

    old_edges = {(int(s), int(t)) for s, t in zip(*old_g.edge_arrays())}

    def path_count(s, t):
        if (s, t) in old_edges:
            return 0
        total = 0
        for q in rseqs:
            for i, a in enumerate(q):
                if a == s and t in q[i + 1:]:
                    total += 1
                    break
        return total

    o_added = {(int(s), int(t)) for s, t in zip(*new_g.edge_arrays())} - old_edges
    o_pos = {e for e in o_added if path_count(*e) >= 10}
    o_neg = set()
    for s in {s for s, _ in o_pos}:
        for t in {t for _, t in o_pos}:
            if s != t and (s, t) not in o_pos and (s, t) not in old_edges \
                    and path_count(s, t) >= 10:
                o_neg.add((s, t))
    assert link_pairs(rlabels.positives) == o_pos and o_pos
    assert link_pairs(rlabels.negatives) == o_neg and o_neg
    announce(7, "added-link labeling matches the enumeration oracle and the "
                "fabricated world scores precision 1.0 through k = 5")


def test_criterion_08_gradient_checks():
    rng = rng_stream(108)
    eps = 1e-6

    def central(f, x):
        g = np.zeros_like(x)
        for i in range(x.size):
            hi, lo = x.copy(), x.copy()
            hi.flat[i] += eps
            lo.flat[i] -= eps
            g.flat[i] = (f(hi) - f(lo)) / (2 * eps)
        return g

    worst_sgns = 0.0
    for _ in range(100):
        v = rng.normal(size=5)
        u_pos = rng.normal(size=5)
        u_negs = rng.normal(size=(3, 5))
        g_v, g_pos, g_negs = sgns_pair_gradients(v, u_pos, u_negs)
        analytic = np.concatenate([g_v, g_pos, g_negs.ravel()])
        fd = np.concatenate([
            central(lambda x: sgns_pair_loss(x, u_pos, u_negs), v),
            central(lambda x: sgns_pair_loss(v, x, u_negs), u_pos),
            central(lambda x: sgns_pair_loss(v, u_pos, x.reshape(3, 5)),
                    u_negs.ravel())])
        rel = np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max())
        worst_sgns = max(worst_sgns, rel)
    assert worst_sgns < 1e-5

    worst_lr = 0.0
    for _ in range(100):
        x = rng.normal(size=(20, 4))
        y = (rng.random(20) < 0.5).astype(float)
        w = rng.normal(size=4)
        b = float(rng.normal())
        l2 = float(rng.random() * 2)
        _, gw, gb = logreg_loss_grad(w, b, x, y, l2)
        fd_w = central(lambda ww: logreg_loss_grad(ww, b, x, y, l2)[0], w)
        fd_b = (logreg_loss_grad(w, b + eps, x, y, l2)[0]
                - logreg_loss_grad(w, b - eps, x, y, l2)[0]) / (2 * eps)
        analytic = np.append(gw, gb)
        fd = np.append(fd_w, fd_b)
        rel = np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max())
        worst_lr = max(worst_lr, rel)
    assert worst_lr < 1e-6
    announce(8, "analytic gradients match central differences at 100 random "
                "points each (worst sgns %.1e, worst logreg %.1e)"
             % (worst_sgns, worst_lr))


def test_criterion_09_statistical_primitives():
    xs = [1.0, 2.0, 2.0, 3.0, 5.0]
    ys = [2.0, 1.0, 4.0, 4.0, 5.0]
    assert spearman(xs, ys) == pytest.approx(oracle_spearman(xs, ys), abs=1e-12)

    hits = 0
    sims = 500
    for s in range(sims):
        rng = rng_stream(109, s)
        sample = rng.normal(size=50)
        res = bootstrap_mean_ci(sample, rng=rng)
        hits += res.ci_low <= 0.0 <= res.ci_high
    coverage = hits / sims
    assert 0.93 <= coverage <= 0.97

    rng = rng_stream(110)
    for _ in range(100):
        pred = rng.random((12, 4)) < 0.5
        actual = rng.random((12, 4)) < 0.5
        micro, macro = f1_micro_macro(pred, actual)
        tp = (pred & actual).sum()
        fp = (pred & ~actual).sum()
        fn = (~pred & actual).sum()
        o_micro = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        per = []
        for j in range(4):
            tpj = (pred[:, j] & actual[:, j]).sum()
            dj = 2 * tpj + (pred[:, j] & ~actual[:, j]).sum() \
                + (~pred[:, j] & actual[:, j]).sum()
            per.append(2 * tpj / dj if dj else 0.0)
        assert micro == pytest.approx(o_micro, abs=1e-12)
        assert macro == pytest.approx(np.mean(per), abs=1e-12)
    announce(9, "tied-rank correlation exact, bootstrap coverage %.1f%% in "
                "[93%%, 97%%], F1 matches the confusion-matrix oracle"
             % (100 * coverage))


def test_criterion_10_pipeline_determinism(tmp_path):
    def run():
        world = tmp_path / "world"
        results = tmp_path / "results"
        assert cli_main(["planted-world", "--nodes", "100", "--out-degree", "6",
                         "--memory", "0.5", "--corpus-size", "800",
                         "--seed", "11", "--out-dir", str(world)]) == 0
        synth_out = str(tmp_path / "synth.tsv")
        assert cli_main(["synth", "--graph", str(world / "graph.tsv"),
                         "--reference", str(world / "corpus.tsv"),
                         "--kind", "graph", "--out", synth_out,
                         "--seed", "13"]) == 0
        assert cli_main(["mixing", "--corpus", str(world / "corpus.tsv"),
                         "--min-triples", "20", "--out-dir", str(results)]) == 0
        emb_out = str(tmp_path / "emb.txt")
        assert cli_main(["train-emb", "--corpus", str(world / "corpus.tsv"),
                         "--dim", "16", "--epochs", "1", "--window", "2",
                         "--seed", "15", "--out", emb_out]) == 0
        assert cli_main(["diffusion", "--corpus", synth_out,
                         "--embeddings", emb_out, "--k-max", "3",
                         "--seed", "17", "--out-dir", str(results)]) == 0
        assert cli_main(["eval-next", "--graph", str(world / "graph.tsv"),
                         "--reference", str(world / "corpus.tsv"),
                         "--train", "Logs=%s" % (world / "corpus.tsv"),
                         "--train", "Graph=%s" % synth_out,
                         "--seed", "19", "--out-dir", str(results)]) == 0
        assert cli_main(["report", "--inputs", str(results / "next_article.csv"),
                         "--baseline", "Logs", "--out-dir", str(results)]) == 0
        files = ["ami_survey.csv", "ami_cdf.csv", "diffusion_curve.csv",
                 "next_article.csv", "report.csv", "relative_difference.csv"]
        blobs = {name: (results / name).read_bytes() for name in files}
        blobs["corpus.tsv"] = (world / "corpus.tsv").read_bytes()
        blobs["synth.tsv"] = (tmp_path / "synth.tsv").read_bytes()
        blobs["emb.txt"] = (tmp_path / "emb.txt").read_bytes()
        return blobs

    first = run()
    second = run()
    assert first == second
    announce(10, "two identically seeded end-to-end pipeline runs produced "
                 "byte-identical outputs (%d files compared)" % len(first))
