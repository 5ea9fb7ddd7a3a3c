"""The command sequence of each workload; each command is an argv for `navsynth.cli.main`.

The first command of every workload is `ingest`, which set-up also times.
"""

from gen import WIDE_MIN_TRIPLES

EMBED_DIM = 128  # the paper's embedding dimension
EMBED_EPOCHS = 2


def _ingest(w):
    return ["ingest", "--graph", w.path("graph.tsv"), "--clickstream", w.path("clicks.tsv"),
            "--out-dir", w.path("cache")]


def _synth(w, kind, out):
    return ["synth", "--graph", w.path("graph.tsv"), "--clickstream", w.path("clicks.tsv"),
            "--reference", w.path("reference.tsv"), "--kind", kind, "--out", w.path(out),
            "--seed", str(w.seed)]


def _mixing(w, corpus, out_dir, *extra):
    return ["mixing", "--corpus", w.path(corpus), "--out-dir", w.path(out_dir), *extra]


def _eval_next(w, trains):
    argv = ["eval-next", "--graph", w.path("graph.tsv"), "--reference", w.path("reference.tsv"),
            "--out-dir", w.path("results"), "--seed", str(w.seed)]
    for name, corpus in trains:
        argv += ["--train", "%s=%s" % (name, w.path(corpus))]
    return argv


def plan_wide(w):
    corpora = [("Logs", "reference.tsv"), ("Clickstream-Pub", "pub.tsv"), ("Graph", "graph_walks.tsv")]
    link = ["eval-link", "--old-graph", w.path("old_graph.tsv"), "--new-graph", w.path("graph.tsv"),
            "--reference", w.path("reference.tsv"), "--out-dir", w.path("results")]
    for name, corpus in corpora:
        link += ["--corpus", "%s=%s" % (name, w.path(corpus))]
    return [
        _ingest(w),
        ["build-sessions", "--events", w.path("events.tsv"), "--out", w.path("built.tsv"),
         "--seed", str(w.seed)],
        _synth(w, "clickstream-pub", "pub.tsv"),
        _synth(w, "graph", "graph_walks.tsv"),
        _mixing(w, "reference.tsv", "mixing_reference", "--min-triples", str(WIDE_MIN_TRIPLES)),
        _eval_next(w, corpora),
        link,
        ["report", "--inputs", w.path("results/next_article.csv"),
         w.path("results/link_prediction.csv"), "--baseline", "Logs", "--out-dir", w.path("results")],
    ]


def plan_hubs(w):
    return [
        _ingest(w),
        ["planted-world", "--nodes", "400", "--out-degree", "8", "--memory", "0.8",
         "--corpus-size", "4000", "--out-dir", w.path("world"), "--seed", str(w.seed)],
        _synth(w, "clickstream-priv", "priv.tsv"),
        _synth(w, "clickstream-pub-intrinsic", "pub_intrinsic.tsv"),
        _mixing(w, "reference.tsv", "mixing_reference"),
        _mixing(w, "priv.tsv", "mixing_priv"),
        _eval_next(w, [("Logs", "reference.tsv"), ("Clickstream-Priv", "priv.tsv"),
                       ("Clickstream-Pub(I)", "pub_intrinsic.tsv")]),
        ["report", "--inputs", w.path("results/next_article.csv"), "--baseline", "Logs",
         "--out-dir", w.path("results")],
    ]


def plan_embed(w):
    emb = w.path("embeddings.txt")
    topics = str(int(w.communities.max()) + 1)
    return [
        _ingest(w),
        _synth(w, "clickstream-pub", "pub.tsv"),
        ["train-emb", "--corpus", w.path("reference.tsv"), "--dim", str(EMBED_DIM),
         "--epochs", str(EMBED_EPOCHS), "--out", emb, "--seed", str(w.seed)],
        ["diffusion", "--corpus", w.path("reference.tsv"), "--embeddings", emb,
         "--out-dir", w.path("diffusion_reference"), "--seed", str(w.seed)],
        ["diffusion", "--corpus", w.path("pub.tsv"), "--embeddings", emb,
         "--out-dir", w.path("diffusion_pub"), "--seed", str(w.seed)],
        ["eval-related", "--embeddings", emb, "--pairs", w.path("pairs.tsv"),
         "--name", "Logs", "--out-dir", w.path("results")],
        ["eval-topic", "--embeddings", emb, "--labels", w.path("labels.tsv"),
         "--num-topics", topics, "--name", "Logs", "--out-dir", w.path("results"),
         "--seed", str(w.seed)],
    ]


PLANS = {"wide": plan_wide, "hubs": plan_hubs, "embed": plan_embed}
