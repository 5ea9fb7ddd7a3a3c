"""Batch command-line front end wiring the pipelines into reproducible runs."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import diffusion as diff
from . import downstream as ds
from . import mixing as mix
from . import synth
from .embeddings import SgnsConfig, SgnsTrainer
from .graph import (Interner, load_clickstream, load_config, load_edge_list,
                    load_result_values, save_edge_list, unpack_pairs, write_csv, write_rows)
from .sessions import (build_forest, corpus_from_trees, load_corpus,
                       load_pageview_events, save_corpus)
from .stats import rng_stream
from .synth import SYNTH_KINDS


class _Path(str):
    """The value of a flag that names a file, which the header's config digest leaves out."""


def _digested(value):
    """`value` with None for each file path in it, as the header's config digest hashes it."""
    if isinstance(value, (list, tuple)):
        return [*map(_digested, value)]
    return None if isinstance(value, _Path) else value


def _header(args) -> str:
    """Version, seed and a digest of the options: the same options on the same input bytes
    write the same header wherever the files are."""
    items = sorted((k, str(_digested(v))) for k, v in vars(args).items() if k != "func")
    digest = hashlib.sha256(repr(items).encode()).hexdigest()[:12]
    seed = " seed=%d" % args.seed if "seed" in vars(args) else ""
    return "navsynth %s%s config=%s" % (__version__, seed, digest)


def _out(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_results(path, args, rows):
    write_csv(path, ["dataset", "metric", "value"], rows, _header(args))


def _check_out(out, *inputs):
    """Refuse an --out that names one of the command's inputs, before any input is read."""
    if os.path.realpath(out) in {os.path.realpath(path) for path in inputs if path}:
        raise ValueError("--out %s names an input of the command" % out)


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
    _check_out(args.out, args.events)
    interner = Interner()
    events = load_pageview_events(args.events, interner)
    articles, parent = build_forest(events, inactivity_ms=args.inactivity_minutes * 60_000)
    corpus = corpus_from_trees(articles, parent, rng_stream(args.seed, 0))
    save_corpus(corpus, args.out, interner)
    print("built %d trees, %d sequences" % (np.count_nonzero(parent < 0), len(corpus)))
    return 0


def cmd_synth(args):
    _check_out(args.out, args.graph, args.clickstream, args.reference)
    interner = Interner()
    graph = load_edge_list(args.graph, interner)
    reference = load_corpus(args.reference, interner)
    clicks = (load_clickstream(args.clickstream, interner=interner)
              if args.kind != "graph" and args.clickstream else None)  # "graph" reads none
    corpus = synth.synthesize(args.kind, graph, clicks, reference, args.seed)
    save_corpus(corpus, args.out, interner)
    report = dict(corpus.metadata)
    report["kind"] = corpus.kind
    write_rows(args.out + ".report.json", [[json.dumps(report, sort_keys=True)]])
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
                         % (args.reference, *interner.names([graph.num_nodes])))
    # "Logs" trains on the reference's train split, and its path is not read
    train = ((name, None if name == "Logs" else load_corpus(path, interner))
             for name, path in _paths_by_name(args.train).items())
    rows = ds.next_article_rows(graph, reference, train, args.seed)
    _write_results(_out(args, "next_article.csv"), args, rows)
    return 0


def cmd_eval_link(args):
    interner = Interner()
    old_graph = load_edge_list(args.old_graph, interner)
    new_graph = load_edge_list(args.new_graph, interner)
    reference = load_corpus(args.reference, interner)
    corpora = ((name, load_corpus(path, interner))
               for name, path in _paths_by_name(args.corpus).items())
    rows = ds.link_prediction_rows(old_graph, new_graph, reference, corpora, args.min_paths,
                                   [int(k) for k in args.ks.split(",")])
    _write_results(_out(args, "link_prediction.csv"), args, rows)
    return 0


def cmd_train_emb(args):
    _check_out(args.out, args.corpus)
    interner = Interner()
    corpus = load_corpus(args.corpus, interner)
    config = SgnsConfig(dim=args.dim, window=args.window, negatives=args.negatives,
                        epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    table = SgnsTrainer(corpus, config).train()
    diff.save_embeddings(table, args.out, interner)
    print("trained %d vectors of dim %d" % (len(table), table.dim))
    return 0


class _InvalidValue(argparse.ArgumentTypeError, ValueError):
    """A flag value's message for argparse, and a ValueError for a `--config` value."""


def _named_path(text):
    """The (name, path) of a `name=path` value of --train or --corpus."""
    name, _, path = text.partition("=")
    if not path:
        raise _InvalidValue("expected name=path, got %r" % text)
    return name, _Path(path)


def _ks(text):
    """Check a --ks value: distinct integers >= 1, as each k names output rows; kept as text,
    which the header's config digest hashes."""
    try:
        ks = [int(k) for k in text.split(",")]
    except ValueError:
        ks = [0]
    if min(ks) < 1:
        raise _InvalidValue("expected comma-separated integers >= 1, got %r" % text)
    if len(set(ks)) < len(ks):
        raise _InvalidValue("repeated k in %r" % text)
    return text


def _paths_by_name(named_paths):
    """name -> path of (name, path) values, in flag order; a repeated name is an error."""
    paths = dict(named_paths)
    if len(paths) < len(named_paths):
        raise ValueError("a dataset name repeats in %s" % " ".join(map("=".join, named_paths)))
    return paths


def cmd_eval_related(args):
    interner = Interner()
    emb = diff.load_embeddings(args.embeddings, interner)
    result = ds.relatedness_eval(emb, diff.load_relatedness_pairs(args.pairs, interner))
    _write_results(_out(args, "relatedness.csv"), args,
                    [(args.name, "spearman_rho", "%.6f" % result.rho),
                     (args.name, "pairs_used", "%d" % result.num_pairs),
                     (args.name, "pairs_dropped", "%d" % result.num_dropped)])
    return 0


def cmd_eval_topic(args):
    interner = Interner()
    emb = diff.load_embeddings(args.embeddings, interner)
    labels = diff.load_topic_labels(args.labels, interner, emb, args.num_topics)
    result = ds.topic_classification(emb, labels, ds.make_split(len(labels), seed=args.seed),
                                     num_topics=args.num_topics)
    _write_results(_out(args, "topic_classification.csv"), args,
                    [(args.name, "micro_f1", "%.6f" % result.micro_f1),
                     (args.name, "macro_f1", "%.6f" % result.macro_f1)])
    return 0


def cmd_planted_world(args):
    spec = synth.PlantedWorldSpec(num_nodes=args.nodes, out_degree=args.out_degree,
                                  memory_strength=args.memory,
                                  corpus_size=args.corpus_size, seed=args.seed)
    world = synth.generate_planted_world(spec)
    save_edge_list(world.graph, _out(args, "graph.tsv"))
    world.clickstream.write_tsv(_out(args, "clickstream.tsv"))
    save_corpus(world.corpus, _out(args, "corpus.tsv"), world.graph.interner)
    print("planted world: %d nodes, %d sequences, memory=%.2f"
          % (args.nodes, args.corpus_size, args.memory))
    return 0


def cmd_report(args):
    missing = [p for p in args.inputs if not os.path.exists(p)]
    if missing:
        print("missing result files: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    values = load_result_values(args.inputs)
    _write_results(_out(args, "report.csv"), args, [(dataset, metric, "%.6f" % value)
                                                    for (dataset, metric), value in values.items()])
    write_csv(_out(args, "relative_difference.csv"),
              ["dataset", "metric", "relative_difference_pct"],
              ds.relative_difference_rows(values, args.baseline), _header(args))
    return 0


def _apply_config_file(parser, parser_args, argv):
    """Fill the command's options from a flat key=value config file, each value through its
    flag's `type`; explicit flags win."""
    if not parser_args.config:
        return parser_args
    explicit = {token.split("=")[0][2:].replace("-", "_")
                for token in argv if token.startswith("--")}
    [commands] = [action.choices for action in parser._actions if action.dest == "command"]
    # the namespace holds the command's options (all but `help`), `command` and `func`
    options = {action.dest: action.type for action in commands[parser_args.command]._actions
               if action.dest in vars(parser_args)}
    for key, value in load_config(parser_args.config, options).items():
        if key not in explicit:
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
        p.add_argument("--config", default=None, type=_Path,
                       help="flat key=value file; explicit flags win")
        if out_dir:
            p.add_argument("--out-dir", default=".", type=_Path)
        return p

    p = command("ingest", cmd_ingest, out_dir=True)
    p.add_argument("--graph", required=True, type=_Path)
    p.add_argument("--clickstream", default=None, type=_Path)

    p = command("build-sessions", cmd_build_sessions, seed=True)
    p.add_argument("--events", required=True, type=_Path)
    p.add_argument("--inactivity-minutes", type=int, default=60)
    p.add_argument("--out", required=True, type=_Path)

    p = command("synth", cmd_synth, seed=True)
    p.add_argument("--graph", required=True, type=_Path)
    p.add_argument("--clickstream", default=None, type=_Path)
    p.add_argument("--reference", required=True, type=_Path)
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--out", required=True, type=_Path)

    p = command("mixing", cmd_mixing, out_dir=True)
    p.add_argument("--corpus", required=True, type=_Path)
    p.add_argument("--min-triples", type=int, default=100)

    p = command("diffusion", cmd_diffusion, seed=True, out_dir=True)
    p.add_argument("--corpus", required=True, type=_Path)
    p.add_argument("--embeddings", required=True, type=_Path)
    p.add_argument("--k-max", type=int, default=9)
    p.add_argument("--hist-k", type=int, default=0)

    p = command("eval-next", cmd_eval_next, seed=True, out_dir=True)
    p.add_argument("--graph", required=True, type=_Path)
    p.add_argument("--reference", required=True, type=_Path)
    p.add_argument("--train", action="append", required=True, type=_named_path,
                   help="name=corpus_path; 'Logs' fits the --reference train split, path unread")

    p = command("eval-link", cmd_eval_link, out_dir=True)
    p.add_argument("--old-graph", required=True, type=_Path)
    p.add_argument("--new-graph", required=True, type=_Path)
    p.add_argument("--reference", required=True, type=_Path)
    p.add_argument("--corpus", action="append", required=True, type=_named_path,
                   help="name=corpus_path")
    p.add_argument("--min-paths", type=int, default=10)
    p.add_argument("--ks", default="10,50,100", type=_ks)

    p = command("train-emb", cmd_train_emb, seed=True)
    p.add_argument("--corpus", required=True, type=_Path)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--out", required=True, type=_Path)

    p = command("eval-related", cmd_eval_related, out_dir=True)
    p.add_argument("--embeddings", required=True, type=_Path)
    p.add_argument("--pairs", required=True, type=_Path)
    p.add_argument("--name", default="corpus")

    p = command("eval-topic", cmd_eval_topic, seed=True, out_dir=True)
    p.add_argument("--embeddings", required=True, type=_Path)
    p.add_argument("--labels", required=True, type=_Path)
    p.add_argument("--num-topics", type=int, default=64)
    p.add_argument("--name", default="corpus")

    p = command("planted-world", cmd_planted_world, seed=True, out_dir=True)
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--out-degree", type=int, default=8)
    p.add_argument("--memory", type=float, default=0.0)
    p.add_argument("--corpus-size", type=int, default=5000)

    p = command("report", cmd_report, out_dir=True)
    p.add_argument("--inputs", nargs="+", required=True, type=_Path)
    p.add_argument("--baseline", default="Logs")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, args, argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
