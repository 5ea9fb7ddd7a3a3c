"""Output bytes pinned by sha256 digests.

Each digest covers one output of a small seeded run. A change of internal
representation must leave every digest as it is; a change that alters
outputs or RNG consumption on purpose re-records them and says so.
"""

import hashlib

import numpy as np
import pytest

from navsynth.cli import SYNTH_KINDS, main
from navsynth.synth import GeometricWorldSpec, generate_geometric_world

# Generator streams may differ between numpy feature releases (NEP 19)
RECORDED_NUMPY = "2.4"

GOLDEN = {
    "geometric/clickstream":
        "84f5e948869d02bc851b68610228351536c8a2a14bb27a583b3d205063b0aff1",
    "geometric/corpus":
        "393476c5429fd92ded4fe59aeb6c1b491afea93883bb0aa88aa5af3b4aba2f36",
    "ingest/clickstream_cache.npz/counts":
        "aa37980a2e7b8120930ad804775acfde98bd74868e6e39635ffcba18b196b165",
    "ingest/clickstream_cache.npz/sources":
        "67e17681aacbac2589dc7002fa3748b1d6d8aaebdad5c61b3c341123dc306378",
    "ingest/clickstream_cache.npz/targets":
        "3cfb652c720c8a33d7a5aa9538957d177e911b2a9a46076ac0cc8c35f2b672a7",
    "ingest/graph_cache.npz/num_nodes":
        "1bfbec701b6f0cda39f991c572bf7020204d6651ce691314286a5e48c499fd25",
    "ingest/graph_cache.npz/sources":
        "8146d260ee3e153de59897faaeb79177eb92aafc2041429de896a4ebe119792a",
    "ingest/graph_cache.npz/targets":
        "f2045a1b8a78e04351fd27e8a9246de4ff9720ff8ef22dab40c6cbb050fe9a2c",
    "ingest/interning.tsv":
        "a8ebb27d9e5c6baa3e4f72b9c26b272d4c0563dad048bd491720caeda94043e4",
    "results/ami_survey.csv":
        "1ca01198e64ce23fc8b8d217c85b577ba2f39638ae3872fa98b00d1bd42d34a7",
    "results/link_prediction.csv":
        "0dab6dde1ae9b008bac72f4026ce1df7c6c88bd5b3879dd21a0eade6de5ebc73",
    "results/next_article.csv":
        "f9d8cd049c2960319f9ac126c08531dbc02e9154db83392675cde9be6b2b14ab",
    "synth/clickstream-priv.tsv":
        "26c7dc7a4e620f7af81946a31f64b297e32b56545199ec239e15e5d6c9d8e9a8",
    "synth/clickstream-priv.tsv.report.json":
        "66de89ac5d4455e5a8ba033496adf41fd13c932fbf1b4ff383d0803f2ca0403f",
    "synth/clickstream-pub-intrinsic.tsv":
        "ba06ac18e78f1e391b9bdaf9438ec46693633e7f239fb990683165417a08c7d5",
    "synth/clickstream-pub-intrinsic.tsv.report.json":
        "51dc2d541568450272ab98a52aa7535dc2ab47166d24aad7398302eaec2320e1",
    "synth/clickstream-pub.tsv":
        "fa4adc195fe80194129e36e731ce13eac391671a82c97257db4c37d9047e99d8",
    "synth/clickstream-pub.tsv.report.json":
        "8eb3ced2b86b71f8c3a723f02d45725215285265bb4b8683beee760525a266e2",
    "synth/graph.tsv":
        "2d4358577bd7396d0cc49c88d5d9168329df91e9316604328508b0cf91afe0f0",
    "synth/graph.tsv.report.json":
        "0b285d915c57cc19ccc84c9a60495c1775c8a3fbac9839d7bbc57499e86808ca",
    "world/clickstream.tsv":
        "31ef24280f699e52bd0a455ca249fd631116a38823862150a56ab0743864f0d1",
    "world/corpus.tsv":
        "7e555b455fbeb952caecad3f854eecdb28971d7456599614e1d800dff9e8bf6e",
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

    geo = generate_geometric_world(GeometricWorldSpec(num_nodes=80, corpus_size=600, seed=2))
    digests["geometric/corpus"] = _sha(repr(geo.corpus.sequences).encode())
    digests["geometric/clickstream"] = _sha(repr(sorted(geo.clickstream.entries.items())).encode())
    return digests


@pytest.mark.skipif(not np.__version__.startswith(RECORDED_NUMPY + "."),
                    reason="digests recorded with numpy %s.x" % RECORDED_NUMPY)
def test_output_digests_unchanged(tmp_path):
    assert output_digests(tmp_path) == GOLDEN
