"""Batch command-line front end wiring the pipelines into reproducible runs."""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from . import __version__
from . import diffusion as diff
from . import downstream as ds
from . import mixing as mix
from . import synth
from .embeddings import SgnsConfig, SgnsTrainer
from .graph import (Interner, ParseError, _chunks, _parse, apply_k_anonymity,
                    build_transition_model, load_clickstream, load_edge_list, unpack_pairs,
                    write_csv)
from .sessions import (build_forest, corpus_from_trees, load_corpus,
                       load_pageview_events, save_corpus)
from .stats import rng_stream

SYNTH_KINDS = {
    "clickstream-priv": "Clickstream-Priv",
    "clickstream-pub": "Clickstream-Pub",
    "clickstream-pub-intrinsic": "Clickstream-Pub(I)",
    "graph": "Graph",
}


def _header(args) -> str:
    items = sorted((k, str(v)) for k, v in vars(args).items() if k != "func")
    digest = hashlib.sha256(repr(items).encode()).hexdigest()[:12]
    seed = " seed=%d" % args.seed if "seed" in vars(args) else ""
    return "navsynth %s%s config=%s" % (__version__, seed, digest)


def _out(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_ingest(args):
    interner = Interner()
    graph = load_edge_list(args.graph, interner)
    print("graph: %d nodes, %d edges (%d self-loops dropped, %d duplicates)"
          % (graph.num_nodes, graph.num_edges,
             graph.self_loops_dropped, graph.duplicates_dropped))
    if args.clickstream:
        table = load_clickstream(args.clickstream, interner=interner)
        print("clickstream: %d entries, %d total clicks, %d rows skipped"
              % (len(table.entries), table.total_clicks, table.skipped_rows))
        sources, targets = unpack_pairs(table.entries)
        np.savez(_out(args, "clickstream_cache.npz"), sources=sources, targets=targets,
                 counts=table.counts)
    interner.write_tsv(_out(args, "interning.tsv"))
    sources, targets = graph.edge_arrays()
    np.savez(_out(args, "graph_cache.npz"), sources=sources, targets=targets,
             num_nodes=np.int64(graph.num_nodes))
    return 0


def cmd_build_sessions(args):
    interner = Interner()
    events = load_pageview_events(args.events, interner)
    articles, parent = build_forest(events, inactivity_ms=args.inactivity_minutes * 60_000)
    corpus = corpus_from_trees(articles, parent, rng_stream(args.seed, 0))
    save_corpus(corpus, args.out, interner)
    print("built %d trees, %d sequences" % (np.count_nonzero(parent < 0), len(corpus)))
    return 0


def _build_model_for_kind(kind, graph, interner, clickstream_path):
    if kind == "graph":
        return build_transition_model(graph)
    if clickstream_path is None:
        raise ValueError("kind %r requires --clickstream" % kind)
    table = load_clickstream(clickstream_path, interner=interner)
    if kind in ("clickstream-pub", "clickstream-pub-intrinsic"):
        table = apply_k_anonymity(table)
    model = build_transition_model(graph, table)
    if kind == "clickstream-pub-intrinsic":
        stops = synth.derive_intrinsic_stops(table, model.num_nodes)
        model = model.with_stops(stops)
    return model


def cmd_synth(args):
    interner = Interner()
    graph = load_edge_list(args.graph, interner)
    reference = load_corpus(args.reference, interner)
    model = _build_model_for_kind(args.kind, graph, interner, args.clickstream)
    corpus = synth.generate_corpus(model, reference, args.kind == "clickstream-pub-intrinsic",
                                   args.seed, SYNTH_KINDS[args.kind])
    save_corpus(corpus, args.out, interner)
    report = dict(corpus.metadata)
    report["kind"] = corpus.kind
    with open(args.out + ".report.json", "w", encoding="utf-8") as f:
        import json
        json.dump(report, f, sort_keys=True)
        f.write("\n")
    print("generated %d sequences (%d flagged)" % (len(corpus), len(corpus.flagged)))
    return 0


def cmd_mixing(args):
    interner = Interner()
    corpus = load_corpus(args.corpus, interner)
    result = mix.ami_survey(corpus, min_triples=args.min_triples)
    mix.write_survey_csv(result, _out(args, "ami_survey.csv"), interner, _header(args))
    mix.write_cdf_csv(result.records, _out(args, "ami_cdf.csv"), _header(args))
    rho = result.volume_ami_spearman
    print("surveyed %d articles; volume/AMI Spearman rho = %s"
          % (len(result.records), "n/a" if rho is None else "%.4f" % rho))
    return 0


def cmd_diffusion(args):
    interner = Interner()
    corpus = load_corpus(args.corpus, interner)
    emb = diff.load_embeddings(args.embeddings, interner)
    curve = diff.diffusion_curve(corpus, emb, args.k_max,
                                 rng=rng_stream(args.seed, 0))
    diff.write_curve_csv(curve, _out(args, "diffusion_curve.csv"), _header(args))
    if args.hist_k:
        edges, fracs = diff.diffusion_histogram(corpus, emb, args.hist_k)
        diff.write_histogram_csv(edges, fracs,
                                 _out(args, "diffusion_hist_k%d.csv" % args.hist_k),
                                 _header(args))
    print("diffusion curve over k=1..%d (%d points emitted)" % (args.k_max, len(curve.ks)))
    return 0


def cmd_eval_next(args):
    interner = Interner()
    graph = load_edge_list(args.graph, interner)
    reference = load_corpus(args.reference, interner)
    if len(interner) > graph.num_nodes:
        raise ValueError("%s: article '%s' is not in the graph"
                         % (args.reference, interner.name(graph.num_nodes)))
    triples = ds.corpus_triples(reference)
    split = ds.make_split(len(triples), seed=args.seed)
    test = triples[split.test]

    names, models = [], []
    for item in args.train:
        name, _, path = item.partition("=")
        if name == "Logs":  # its path is not read
            model = ds.fit_markov2(triples[split.train])
        else:
            model = ds.fit_markov2(ds.corpus_triples(load_corpus(path, interner)))
        names.append(name)
        models.append(model)

    rows = []
    for name, model in zip(names, models):
        all_q = ds.evaluate_mrr(model, graph, test)
        filt = ds.evaluate_mrr(model, graph, test, models)
        rows.append((name, "mrr_all", "%.6f" % all_q.mrr))
        rows.append((name, "mrr_filtered", "%.6f" % filt.mrr))
    write_csv(_out(args, "next_article.csv"), ["dataset", "metric", "value"],
              rows, _header(args))
    return 0


def cmd_eval_link(args):
    interner = Interner()
    old_graph = load_edge_list(args.old_graph, interner)
    new_graph = load_edge_list(args.new_graph, interner)
    reference = load_corpus(args.reference, interner)
    labels = ds.build_added_links(old_graph, new_graph, reference,
                                  min_paths=args.min_paths)
    ks = [int(k) for k in args.ks.split(",")]
    rows = []
    for item in args.corpus:
        name, _, path = item.partition("=")
        corpus = load_corpus(path, interner)
        ranked, _ = ds.rank_links(corpus, np.union1d(labels.positives, labels.negatives))
        for r in ds.precision_at_k(ranked, labels, ks):
            rows.append((name, "precision_at_%d" % r.k, "%.6f" % r.precision))
    write_csv(_out(args, "link_prediction.csv"), ["dataset", "metric", "value"],
              rows, _header(args))
    return 0


def cmd_train_emb(args):
    interner = Interner()
    corpus = load_corpus(args.corpus, interner)
    config = SgnsConfig(dim=args.dim, window=args.window, negatives=args.negatives,
                        epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    table = SgnsTrainer(corpus, config).train()
    diff.save_embeddings(table, args.out, interner)
    print("trained %d vectors of dim %d" % (len(table), table.dim))
    return 0


def _named_path(text):
    """Check a `name=path` value of --train or --corpus; kept as text, which the
    header's config digest hashes."""
    if not text.partition("=")[2]:
        raise argparse.ArgumentTypeError("expected name=path, got %r" % text)
    return text


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _load_pairs(path, interner):
    """The (n, 2) int64 article ids and the n float scores of "a<TAB>b<TAB>score" rows."""
    ids, scores = [], []
    for line_nos, _, fields in _chunks(path, 3):
        for line_no, a, b, score in zip(line_nos.tolist(), *(fields[i::3] for i in range(3))):
            ids += interner.intern(a), interner.intern(b)
            scores.append(_parse(_finite_float, score, path, line_no, "score"))
    return np.array(ids, dtype=np.int64).reshape(-1, 2), np.array(scores, dtype=float)


def cmd_eval_related(args):
    interner = Interner()
    emb = diff.load_embeddings(args.embeddings, interner)
    result = ds.relatedness_eval(emb, _load_pairs(args.pairs, interner))
    write_csv(_out(args, "relatedness.csv"), ["dataset", "metric", "value"],
              [(args.name, "spearman_rho", "%.6f" % result.rho),
               (args.name, "pairs_used", "%d" % result.num_pairs),
               (args.name, "pairs_dropped", "%d" % result.num_dropped)],
              _header(args))
    return 0


def cmd_eval_topic(args):
    interner = Interner()
    emb = diff.load_embeddings(args.embeddings, interner)
    covered = set(emb.articles.tolist())
    labels: dict[int, set[int]] = {}
    for line_nos, _, fields in _chunks(args.labels, 2):
        for line_no, name, ids in zip(line_nos.tolist(), fields[0::2], fields[1::2]):
            topics = {_parse(int, x, args.labels, line_no, "topic") for x in ids.split(",")}
            outside = sorted(t for t in topics if not 0 <= t < args.num_topics)
            if outside:
                raise ParseError(args.labels, line_no, "topic %d outside [0, %d)"
                                 % (outside[0], args.num_topics))
            article = interner.intern(name)
            if article in labels:
                raise ParseError(args.labels, line_no, "duplicate article %r" % name)
            if article not in covered:
                raise ParseError(args.labels, line_no, "article %r has no vector" % name)
            labels[article] = topics
    split = ds.make_split(len(labels), seed=args.seed)
    result = ds.topic_classification(emb, labels, split, num_topics=args.num_topics)
    write_csv(_out(args, "topic_classification.csv"), ["dataset", "metric", "value"],
              [(args.name, "micro_f1", "%.6f" % result.micro_f1),
               (args.name, "macro_f1", "%.6f" % result.macro_f1)],
              _header(args))
    return 0


def cmd_planted_world(args):
    spec = synth.PlantedWorldSpec(num_nodes=args.nodes, out_degree=args.out_degree,
                                  memory_strength=args.memory,
                                  corpus_size=args.corpus_size, seed=args.seed)
    world = synth.generate_planted_world(spec)
    interner = world.graph.interner
    sources, targets = world.graph.edge_arrays()
    with open(_out(args, "graph.tsv"), "w", encoding="utf-8", newline="\n") as f:
        f.writelines("%s\t%s\n" % (interner.name(s), interner.name(t))
                     for s, t in zip(sources.tolist(), targets.tolist()))
    world.clickstream.write_tsv(_out(args, "clickstream.tsv"))
    save_corpus(world.corpus, _out(args, "corpus.tsv"), interner)
    print("planted world: %d nodes, %d sequences, memory=%.2f"
          % (args.nodes, args.corpus_size, args.memory))
    return 0


def cmd_report(args):
    missing = [p for p in args.inputs if not os.path.exists(p)]
    if missing:
        print("missing result files: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    values: dict[tuple[str, str], float] = {}  # in file order
    for path in args.inputs:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#") or line.startswith("dataset,"):
                    continue
                fields = line.split(",")
                if len(fields) != 3:
                    raise ParseError(path, line_no, "expected 3 columns")
                key = (fields[0], fields[1])
                if key in values:
                    raise ParseError(path, line_no, "duplicate row %r" % ",".join(key))
                values[key] = _parse(float, fields[2], path, line_no, "value")
    rows = [(dataset, metric, "%.6f" % value) for (dataset, metric), value in values.items()]
    write_csv(_out(args, "report.csv"), ["dataset", "metric", "value"], rows, _header(args))

    rel_rows = []
    for (dataset, metric), value in values.items():
        if dataset == args.baseline:
            continue
        base = values.get((args.baseline, metric))
        if base is None or base == 0:
            continue
        rel_rows.append((dataset, metric, "%.4f" % ds.relative_difference(base, value)))
    write_csv(_out(args, "relative_difference.csv"),
              ["dataset", "metric", "relative_difference_pct"], rel_rows, _header(args))
    return 0


def _apply_config_file(parser_args, argv):
    """Fill the command's options from a flat key=value config file; explicit flags win."""
    path = parser_args.config
    if not path:
        return parser_args
    explicit = {token.split("=")[0][2:].replace("-", "_")
                for token in argv if token.startswith("--")}
    # besides `command` and `func`, the namespace holds exactly the command's options
    settable = vars(parser_args).keys() - {"command", "func"} - explicit
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in settable:
                continue
            current = getattr(parser_args, key)
            if isinstance(current, (int, float)):
                value = _parse(type(current), value, path, line_no, key)
            setattr(parser_args, key, value)
    return parser_args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="navsynth")
    parser.add_argument("--version", action="version", version=__version__)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, seed=False, out_dir=False):
        # flags spelled in full only, so that `_apply_config_file` sees every flag given
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="flat key=value file; explicit flags win")
        if out_dir:
            p.add_argument("--out-dir", default=".")
        return p

    p = command("ingest", cmd_ingest, out_dir=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--clickstream", default=None)

    p = command("build-sessions", cmd_build_sessions, seed=True)
    p.add_argument("--events", required=True)
    p.add_argument("--inactivity-minutes", type=int, default=60)
    p.add_argument("--out", required=True)

    p = command("synth", cmd_synth, seed=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--clickstream", default=None)
    p.add_argument("--reference", required=True)
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--out", required=True)

    p = command("mixing", cmd_mixing, out_dir=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-triples", type=int, default=100)

    p = command("diffusion", cmd_diffusion, seed=True, out_dir=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k-max", type=int, default=9)
    p.add_argument("--hist-k", type=int, default=0)

    p = command("eval-next", cmd_eval_next, seed=True, out_dir=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--train", action="append", required=True, type=_named_path,
                   help="name=corpus_path; 'Logs' fits the --reference train split, path unread")

    p = command("eval-link", cmd_eval_link, out_dir=True)
    p.add_argument("--old-graph", required=True)
    p.add_argument("--new-graph", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--corpus", action="append", required=True, type=_named_path,
                   help="name=corpus_path")
    p.add_argument("--min-paths", type=int, default=10)
    p.add_argument("--ks", default="10,50,100")

    p = command("train-emb", cmd_train_emb, seed=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--out", required=True)

    p = command("eval-related", cmd_eval_related, out_dir=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--name", default="corpus")

    p = command("eval-topic", cmd_eval_topic, seed=True, out_dir=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--num-topics", type=int, default=64)
    p.add_argument("--name", default="corpus")

    p = command("planted-world", cmd_planted_world, seed=True, out_dir=True)
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--out-degree", type=int, default=8)
    p.add_argument("--memory", type=float, default=0.0)
    p.add_argument("--corpus-size", type=int, default=5000)

    p = command("report", cmd_report, out_dir=True)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--baseline", default="Logs")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
