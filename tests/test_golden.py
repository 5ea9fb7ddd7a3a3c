"""Output bytes pinned by sha256 digests.

Each digest covers one output of a small seeded run. A change of internal
representation must leave every digest as it is; a change that alters
outputs or RNG consumption on purpose re-records them and says so.
"""

import hashlib
import random

import numpy as np
import pytest

from navsynth.cli import SYNTH_KINDS, main
from navsynth.graph import unpack_pairs
from worlds import GeometricWorldSpec, generate_geometric_world

# Generator streams may differ between numpy feature releases (NEP 19)
RECORDED_NUMPY = "2.4"

GOLDEN = {
    "embed/diffusion_curve.csv":
        "f71ddb989f97fceda780efab5b30236fc2a1e520c71de8aaccdcbed96edf575c",
    "embed/diffusion_hist_k2.csv":
        "fee8fd26625b4eebbe8dd93e544752f4570cf1321a45f2bf8ffa48a3b84aa10f",
    "embed/emb.txt":
        "53f8b8d75d346c24ce85b230004ea6895a4a3dcc6054f9b31afdfbb6940e6476",
    "embed/relatedness.csv":
        "09bd784e2d03932c6dcce971fd720ac8dfb3f426ce31c2ceb98f362272ac2228",
    "embed/topic_classification.csv":
        "3de7438f8bdc3a63e34a4e8afb0db7a6326cc8779c7f7bb14be86917f324338f",
    "geometric/clickstream":
        "fbd82e9e964863c9f350cfa50475555a63f44c7dec810e6435d6c0975c16e4b8",
    "geometric/corpus":
        "29c5eb9b3acd94291508600bfcbc900cd4e52738a823443de00345ca6b3af189",
    "ingest/clickstream_cache.npz/counts":
        "9b66bd3dc04be13a1e5d70a43267d9f8323ea2e0622f252b106ccce4c0246b17",
    "ingest/clickstream_cache.npz/sources":
        "f54a63a48f16f6d0d5491b462c0e512ecb96605c319adc54d733ccc6e493c910",
    "ingest/clickstream_cache.npz/targets":
        "9a78143256faadf089f311f546d8c99b09e32a764a28f29e812f3153522bddb4",
    "ingest/graph_cache.npz/num_nodes":
        "1bfbec701b6f0cda39f991c572bf7020204d6651ce691314286a5e48c499fd25",
    "ingest/graph_cache.npz/sources":
        "8146d260ee3e153de59897faaeb79177eb92aafc2041429de896a4ebe119792a",
    "ingest/graph_cache.npz/targets":
        "f2045a1b8a78e04351fd27e8a9246de4ff9720ff8ef22dab40c6cbb050fe9a2c",
    "ingest/interning.tsv":
        "a8ebb27d9e5c6baa3e4f72b9c26b272d4c0563dad048bd491720caeda94043e4",
    "results/ami_survey.csv":
        "a253201e6bc3383951f158208ae70988588ad61306a437a9fb8911a9430dd9a4",
    "results/link_prediction.csv":
        "2e60e358294e1d027b016e505d6266dca28c8d56f8348deb810e1d5241f65c51",
    "results/next_article.csv":
        "0bd670619e52e879369726805160778ae008c611ccbf114dd190c15b04e7cd04",
    "sessions/built.tsv":
        "9d5a66cd98630012bece519c887647574e3fa8585d8e9130ff2c3f3bcb98230a",
    "synth/clickstream-priv.tsv":
        "eba7012a07cbdc98646c77a4c7a097f71a166f1fbed41947a644c3b8c2ba62b9",
    "synth/clickstream-priv.tsv.report.json":
        "5ab9af388a53ab992011b777284fe6742014650032f03d018361415a04ded124",
    "synth/clickstream-pub-intrinsic.tsv":
        "e3f58117a5db8b22aca24fc1204b4d977dc2bbb7689f0aafbfd0d7a9d8cd41ca",
    "synth/clickstream-pub-intrinsic.tsv.report.json":
        "d7d7fc2c06b2c25f8bf9e95ef2aac2e2bac8d465467cdc5288ea7aa260da9752",
    "synth/clickstream-pub.tsv":
        "9460fd3d77174bf72568e1940cf9630793a58639f1134b4ec6b2c0c790ddafc0",
    "synth/clickstream-pub.tsv.report.json":
        "60e97e3c90b065272297c3b22decf732cc9c985148d9c4120fe7c543cb5cace5",
    "synth/graph.tsv":
        "0f59c50cb6e6f7df7494cd04417c8cc9c51442be9a2092b9e4b87934524193b0",
    "synth/graph.tsv.report.json":
        "e6c651eab99ba96b665b636a4d6d0a9de76b8dc15749fe122644c3d0e3b50c4f",
    "world/clickstream.tsv":
        "a98828663c73f33abfce13adc3d4f4ed68eb3febc00791aa5cee8167594ccbd2",
    "world/corpus.tsv":
        "fed58e4de9c1521deacd93e4227fb1b9971f9aaeb039c66f7a529138be056234",
    "world/graph.tsv":
        "94dfafc64d5e062e95854bc0bf982bb25c78d7f387a1785357b4d576651edb09",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _body(path):
    """File bytes below the provenance header, whose config hash covers the input paths."""
    return path.read_bytes().split(b"\n", 1)[1]


def _run(*argv):
    assert main([str(a) for a in argv]) == 0


def write(path, rows):
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


def session_events():
    """Pageview rows (reader key, ms, article, referrer) in file order.

    The keys "00" and "0000" differ only in a trailing NUL byte. Reader "00"
    has equal timestamps in both orders of a parent and its child, a referrer
    only reader "0000" visited ("Q"), one nobody visited ("Zed"), a child past
    the one-minute inactivity cutoff ("G") and single-page trees. Seeded
    readers add many trees of several leaves.
    """
    rows = [("00", 1000, "A", "-"), ("0000", 500, "Q", "-"), ("00", 2000, "B", "A"),
            ("00", 2000, "C", "A"), ("0000", 600, "A", "Q"), ("00", 3000, "D", "B"),
            ("00", 3000, "E", "Zed"), ("0000", 600, "B", "Q"), ("00", 4000, "F", "Q"),
            ("00", 5000, "R", "P"), ("00", 5000, "P", "-"), ("00", 5000, "S", "P"),
            ("0000", 700, "C", "A"), ("00", 65000, "G", "D"), ("00", 65500, "H", "G"),
            ("00", 66000, "D", "B"), ("00ff", 10, "A", "-")]
    gen = random.Random(9)
    for _ in range(300):
        rows.append(("%02x%02x" % (gen.randrange(2), gen.randrange(4)),
                     gen.randrange(0, 120_000, 500), "P%d" % gen.randrange(6),
                     "P%d" % gen.randrange(7) if gen.random() < 0.8 else "-"))
    return [(key, str(ts), article, ref) for key, ts, article, ref in rows]


def output_digests(base):
    world, results, cache = base / "world", base / "results", base / "cache"
    graph, clicks, corpus = (world / name for name in ("graph.tsv", "clickstream.tsv",
                                                        "corpus.tsv"))
    _run("planted-world", "--nodes", 60, "--out-degree", 5, "--memory", 0.6,
         "--corpus-size", 1500, "--seed", 3, "--out-dir", world)
    digests = {"world/" + p.name: _sha(p.read_bytes()) for p in (graph, clicks, corpus)}

    # every other edge removed: clicks on those pairs are dropped, and the
    # removed edges are the added links of eval-link
    old = base / "old.tsv"
    old.write_text("".join(line for i, line in enumerate(graph.read_text().splitlines(True))
                           if i % 2), encoding="utf-8")
    for kind in sorted(SYNTH_KINDS):
        out = base / (kind + ".tsv")
        _run("synth", "--graph", old, "--clickstream", clicks, "--reference", corpus,
             "--kind", kind, "--out", out, "--seed", 5)
        digests["synth/" + out.name] = _sha(out.read_bytes())
        digests["synth/" + out.name + ".report.json"] = _sha(
            (base / (out.name + ".report.json")).read_bytes())

    _run("ingest", "--graph", graph, "--clickstream", clicks, "--out-dir", cache)
    for name in ("graph_cache.npz", "clickstream_cache.npz"):
        with np.load(cache / name) as arrays:
            for key in arrays.files:
                a = arrays[key]
                digests["ingest/%s/%s" % (name, key)] = _sha(
                    repr((a.dtype.str, a.shape)).encode() + a.tobytes())
    digests["ingest/interning.tsv"] = _sha((cache / "interning.tsv").read_bytes())

    _run("mixing", "--corpus", corpus, "--min-triples", 20, "--out-dir", results)
    _run("eval-next", "--graph", graph, "--reference", corpus, "--train", "Logs=%s" % corpus,
         "--train", "Graph=%s" % (base / "graph.tsv"),
         "--train", "Clickstream-Priv=%s" % (base / "clickstream-priv.tsv"),
         "--seed", 7, "--out-dir", results)
    _run("eval-link", "--old-graph", old, "--new-graph", graph, "--reference", corpus,
         "--corpus", "Logs=%s" % corpus, "--corpus", "Graph=%s" % (base / "graph.tsv"),
         "--min-paths", 5, "--ks", "5,20,100", "--out-dir", results)
    for name in ("ami_survey.csv", "next_article.csv", "link_prediction.csv"):
        digests["results/" + name] = _sha(_body(results / name))

    emb, embed = base / "emb.txt", base / "embed"
    _run("train-emb", "--corpus", corpus, "--dim", 24, "--window", 3, "--epochs", 3,
         "--seed", 4, "--out", emb)
    digests["embed/emb.txt"] = _sha(emb.read_bytes())
    rows = [line.split(" ") for line in emb.read_text().splitlines()[1:]]
    names = [row[0] for row in rows]
    # "Nowhere" has no vector: its pair is dropped and counted
    pairs = write(base / "pairs.tsv", [(names[i], names[(7 * i + 3) % len(names)],
                                        "%.1f" % (i * 37 % 11 / 10)) for i in range(30)]
                  + [(names[1], "Nowhere", "0.5")])
    # the signs of an article's first two coordinates give its topic
    labels = write(base / "labels.tsv", [(row[0], str(2 * row[1].startswith("-")
                                                      + row[2].startswith("-")))
                                         for row in rows])
    _run("diffusion", "--corpus", corpus, "--embeddings", emb, "--k-max", 4, "--hist-k", 2,
         "--seed", 6, "--out-dir", embed)
    _run("eval-related", "--embeddings", emb, "--pairs", pairs, "--out-dir", embed)
    _run("eval-topic", "--embeddings", emb, "--labels", labels, "--num-topics", 4,
         "--seed", 8, "--out-dir", embed)
    for name in ("diffusion_curve.csv", "diffusion_hist_k2.csv", "relatedness.csv",
                 "topic_classification.csv"):
        digests["embed/" + name] = _sha(_body(embed / name))

    events, built = write(base / "events.tsv", session_events()), base / "built.tsv"
    _run("build-sessions", "--events", events, "--out", built, "--inactivity-minutes", 1,
         "--seed", 9)
    digests["sessions/built.tsv"] = _sha(built.read_bytes())

    geo = generate_geometric_world(GeometricWorldSpec(num_nodes=80, corpus_size=600, seed=2))
    digests["geometric/corpus"] = _sha(repr(geo.corpus.sequences).encode())
    clicks = zip(zip(*(ids.tolist() for ids in unpack_pairs(geo.clickstream.entries))),
                 geo.clickstream.counts.tolist())
    digests["geometric/clickstream"] = _sha(repr(list(clicks)).encode())
    return digests


@pytest.mark.skipif(not np.__version__.startswith(RECORDED_NUMPY + "."),
                    reason="digests recorded with numpy %s.x" % RECORDED_NUMPY)
def test_output_digests_unchanged(tmp_path):
    assert output_digests(tmp_path) == GOLDEN
