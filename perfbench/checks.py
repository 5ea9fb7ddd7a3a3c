"""Output checks, one per CLI command.

`check(world, argv)` returns a list of problems; an empty list passes. No
check compares exact bytes or exact random draws: a change to the program's
RNG use must still pass. They check what any correct output satisfies.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from gen import K_ANONYMITY, MIN_TRIPLES, World

INTRINSIC_MAX_LENGTH = 50  # StoppingRule.max_length


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _args(argv, flag):
    """Values of a repeated flag (`--train a --train b`)."""
    return [argv[i + 1] for i, a in enumerate(argv) if a == flag]


def _arg_list(argv, flag):
    """Values of a multi-value flag (`--inputs a b`)."""
    i = argv.index(flag) + 1
    out = []
    while i < len(argv) and not argv[i].startswith("--"):
        out.append(argv[i])
        i += 1
    return out


def _rows(path):
    """Non-comment lines of a text output, split on tabs."""
    with open(path, encoding="utf-8") as f:
        return [ln.rstrip("\n").split("\t") for ln in f if ln.strip() and not ln.startswith("#")]


def _corpus(world: World, path) -> list[list[int]]:
    ids = world.ids
    return [[ids[a] for a in row] for row in _rows(path)]


def _csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _metrics(path) -> dict[tuple[str, str], float]:
    return {(d, m): float(v) for d, m, v in _csv(path)}


def _in_range(values, lo, hi, what):
    return ["%s %s=%r outside [%g, %g]" % (what, k, v, lo, hi)
            for k, v in values.items() if not (lo <= v <= hi)]


def check_ingest(world, argv):
    out = _arg(argv, "--out-dir")
    names = [r[1] for r in _rows(os.path.join(out, "interning.tsv"))]
    if len(set(names)) != len(names):
        return ["interning.tsv repeats an article"]
    to_world = np.array([world.ids[n] for n in names])
    g = np.load(os.path.join(out, "graph_cache.npz"))
    got = set(zip(to_world[g["sources"]].tolist(), to_world[g["targets"]].tolist()))
    problems = [] if got == world.edges else ["graph cache: %d edges, expected %d"
                                               % (len(got), len(world.edges))]
    c = np.load(os.path.join(out, "clickstream_cache.npz"))
    clicks = dict(zip(zip(to_world[c["sources"]].tolist(), to_world[c["targets"]].tolist()),
                      c["counts"].tolist()))
    if clicks != world.clicks:
        problems.append("clickstream cache differs from the link rows")
    return problems


def check_build_sessions(world, argv):
    seqs = _corpus(world, _arg(argv, "--out"))
    problems = []
    if len(seqs) != world.num_trees:
        problems.append("%d sequences from %d trees" % (len(seqs), world.num_trees))
    bad = sum(tuple(s) not in world.session_paths for s in seqs)
    if bad:
        problems.append("%d sequences are not root-to-leaf paths of a generated tree" % bad)
    return problems


def _steps(seqs):
    return [(a, b) for s in seqs for a, b in zip(s, s[1:])]


def check_synth(world, argv):
    kind = _arg(argv, "--kind")
    out = _arg(argv, "--out")
    seqs = _corpus(world, out)
    ref = world.reference
    if len(seqs) != len(ref):
        return ["%d sequences for %d reference sequences" % (len(seqs), len(ref))]
    problems = []
    if any(s[0] != r[0] for s, r in zip(seqs, ref)):
        problems.append("a start differs from its reference start")
    if kind == "clickstream-pub-intrinsic":
        if max(map(len, seqs)) > INTRINSIC_MAX_LENGTH:
            problems.append("an intrinsic walk exceeds %d pages" % INTRINSIC_MAX_LENGTH)
    else:
        with open(out + ".report.json", encoding="utf-8") as f:
            flagged = json.load(f)["flagged_count"]
        shorter = sum(len(s) < len(r) for s, r in zip(seqs, ref))
        longer = sum(len(s) > len(r) for s, r in zip(seqs, ref))
        if longer or shorter != flagged:
            problems.append("%d longer and %d shorter than the reference, %d flagged"
                            % (longer, shorter, flagged))
    min_count = {"graph": 0, "clickstream-priv": 1}.get(kind, K_ANONYMITY + 1)
    steps = _steps(seqs)
    off_graph = sum(p not in world.edges for p in steps)
    if off_graph:
        problems.append("%d steps are not graph edges" % off_graph)
    if min_count:
        rare = sum(world.clicks.get(p, 0) < min_count for p in steps)
        if rare:
            problems.append("%d steps lack a clickstream pair with count >= %d" % (rare, min_count))
    return problems


def _triple_counts(seqs):
    counts: dict[int, int] = {}
    for s in seqs:
        for m in s[1:-1]:
            counts[m] = counts.get(m, 0) + 1
    return counts


def _survey(path) -> dict[str, tuple[int, float, float]]:
    return {a: (int(n), float(mi), float(ami)) for a, n, mi, ami in _csv(path)}


def check_mixing(world, argv):
    out = _arg(argv, "--out-dir")
    min_triples = int(_arg(argv, "--min-triples", MIN_TRIPLES))
    seqs = _corpus(world, _arg(argv, "--corpus"))
    expected = {world.names[m]: n for m, n in _triple_counts(seqs).items() if n >= min_triples}
    survey = _survey(os.path.join(out, "ami_survey.csv"))
    problems = []
    if {a: n for a, (n, _, _) in survey.items()} != expected:
        problems.append("survey covers %d articles, expected the %d with >= %d triples"
                        % (len(survey), len(expected), min_triples))
    for a, (_, mi, ami) in survey.items():
        if not (math.isfinite(mi) and math.isfinite(ami) and ami <= 1.0 + 1e-9):
            problems.append("article %s: mi=%r ami=%r" % (a, mi, ami))
            break
    cdf = [float(r[1]) for r in _csv(os.path.join(out, "ami_cdf.csv"))]
    if not cdf or any(b < a for a, b in zip(cdf, cdf[1:])) or not 0 <= cdf[0] <= cdf[-1] <= 1:
        problems.append("ami_cdf.csv is not a cumulative distribution")
    if world.workload == "hubs" and os.path.basename(os.path.normpath(out)) != "mixing_reference":
        ref_survey = _survey(world.path(os.path.join("mixing_reference", "ami_survey.csv")))
        ref = np.median([v[2] for v in ref_survey.values()])
        syn = np.median([v[2] for v in survey.values()])
        if not ref > syn:
            problems.append("reference median AMI %.4f does not exceed synthetic %.4f" % (ref, syn))
    return problems


def check_planted_world(world, argv):
    out = _arg(argv, "--out-dir")
    nodes, degree = int(_arg(argv, "--nodes")), int(_arg(argv, "--out-degree"))
    edges = {(s, t) for s, t in _rows(os.path.join(out, "graph.tsv"))}
    problems = []
    out_deg: dict[str, int] = {}
    for s, t in edges:
        out_deg[s] = out_deg.get(s, 0) + 1
    if len(out_deg) != nodes or set(out_deg.values()) != {degree} or any(s == t for s, t in edges):
        problems.append("planted graph is not %d-out-regular over %d nodes" % (degree, nodes))
    seqs = _rows(os.path.join(out, "corpus.tsv"))
    if len(seqs) != int(_arg(argv, "--corpus-size")):
        problems.append("planted corpus has %d sequences" % len(seqs))
    steps = _steps(seqs)
    if any(p not in edges for p in steps):
        problems.append("a planted-corpus step is not a planted-graph edge")
    bigrams: dict[tuple[str, str], int] = {}
    for p in steps:
        bigrams[p] = bigrams.get(p, 0) + 1
    clicks = {(s, t): int(c) for s, t, _, c in _rows(os.path.join(out, "clickstream.tsv"))}
    if clicks != bigrams:
        problems.append("planted clickstream is not the corpus's bigram counts")
    return problems


def check_eval_next(world, argv):
    values = _metrics(os.path.join(_arg(argv, "--out-dir"), "next_article.csv"))
    names = [t.partition("=")[0] for t in _args(argv, "--train")]
    expected = {(n, m) for n in names for m in ("mrr_all", "mrr_filtered")}
    problems = [] if set(values) == expected else ["next_article.csv rows %s" % sorted(values)]
    problems += _in_range(values, 0.0, 1.0, "MRR")
    if world.workload == "hubs" and not problems:
        logs, priv = values[("Logs", "mrr_filtered")], values[("Clickstream-Priv", "mrr_filtered")]
        if not logs > priv:
            problems.append("Logs mrr_filtered %.4f does not beat Clickstream-Priv %.4f" % (logs, priv))
    return problems


def check_eval_link(world, argv):
    values = _metrics(os.path.join(_arg(argv, "--out-dir"), "link_prediction.csv"))
    ks = _arg(argv, "--ks", "10,50,100").split(",")
    names = [t.partition("=")[0] for t in _args(argv, "--corpus")]
    expected = {(n, "precision_at_%s" % k) for n in names for k in ks}
    problems = [] if set(values) == expected else ["link_prediction.csv rows %s" % sorted(values)]
    return problems + _in_range(values, 0.0, 1.0, "precision")


def check_report(world, argv):
    out = _arg(argv, "--out-dir")
    baseline = _arg(argv, "--baseline", "Logs")
    inputs: dict[tuple[str, str], float] = {}
    for path in _arg_list(argv, "--inputs"):
        inputs.update(_metrics(path))
    report = _metrics(os.path.join(out, "report.csv"))
    problems = []
    if set(report) != set(inputs) or any(abs(report[k] - v) > 1e-6 for k, v in inputs.items()):
        problems.append("report.csv does not reproduce its inputs")
    rel = _metrics(os.path.join(out, "relative_difference.csv"))
    for (d, m), v in rel.items():
        base = inputs.get((baseline, m))
        if d == baseline or not base or abs(100 * (base - inputs[(d, m)]) / base - v) > 1e-3:
            problems.append("relative difference %s/%s=%r is wrong" % (d, m, v))
    return problems


def check_train_emb(world, argv):
    with open(_arg(argv, "--out"), encoding="utf-8") as f:
        n, dim = (int(x) for x in f.readline().split())
        rows = [ln.split() for ln in f if ln.strip()]
    problems = []
    if dim != int(_arg(argv, "--dim")) or n != len(rows) or any(len(r) != dim + 1 for r in rows):
        problems.append("embedding shape: header %d x %d, %d rows" % (n, dim, len(rows)))
        return problems
    if sorted(world.ids[r[0]] for r in rows) != world.vocab:
        problems.append("embedding rows are not one per vocabulary article")
    if not np.isfinite(np.array([r[1:] for r in rows], dtype=float)).all():
        problems.append("non-finite embedding value")
    return problems


def check_diffusion(world, argv):
    rows = _csv(os.path.join(_arg(argv, "--out-dir"), "diffusion_curve.csv"))
    k_max = int(_arg(argv, "--k-max", 9))
    problems = []
    ks = [int(r[0]) for r in rows]
    if not ks or ks != sorted(set(ks)) or ks[0] < 1 or ks[-1] > k_max:
        problems.append("diffusion ks %s" % ks)
    for k, mean, lo, hi, n in rows:
        mean, lo, hi = float(mean), float(lo), float(hi)
        if not (lo <= mean <= hi and 0.0 <= mean <= 2.0 and int(n) > 0):
            problems.append("k=%s: mean %r outside [%r, %r] or n=%s" % (k, mean, lo, hi, n))
    return problems


def check_eval_related(world, argv):
    name = _arg(argv, "--name", "corpus")
    values = _metrics(os.path.join(_arg(argv, "--out-dir"), "relatedness.csv"))
    problems = _in_range({k: v for k, v in values.items() if k[1] == "spearman_rho"},
                         -1.0, 1.0, "rho")
    used, dropped = values.get((name, "pairs_used")), values.get((name, "pairs_dropped"))
    if used is None or dropped is None or used + dropped != world.num_pairs or used < 3:
        problems.append("pairs used %r + dropped %r != %d" % (used, dropped, world.num_pairs))
    return problems


def check_eval_topic(world, argv):
    values = _metrics(os.path.join(_arg(argv, "--out-dir"), "topic_classification.csv"))
    name = _arg(argv, "--name", "corpus")
    problems = [] if set(values) == {(name, "micro_f1"), (name, "macro_f1")} else ["topic rows"]
    return problems + _in_range(values, 0.0, 1.0, "F1")


CHECKS = {
    "ingest": check_ingest,
    "build-sessions": check_build_sessions,
    "synth": check_synth,
    "mixing": check_mixing,
    "planted-world": check_planted_world,
    "eval-next": check_eval_next,
    "eval-link": check_eval_link,
    "report": check_report,
    "train-emb": check_train_emb,
    "diffusion": check_diffusion,
    "eval-related": check_eval_related,
    "eval-topic": check_eval_topic,
}


def check(world: World, argv) -> list[str]:
    """Problems with the outputs of one command; a check that cannot read them fails."""
    try:
        return CHECKS[argv[0]](world, argv)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return ["cannot check %s outputs: %s: %s" % (argv[0], type(e).__name__, e)]
