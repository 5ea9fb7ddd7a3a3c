import json
import os
import re
import subprocess
import sys

import pytest

import navsynth
from navsynth.cli import _load_pairs, main
from navsynth.diffusion import load_embeddings
from navsynth.graph import (Interner, ParseError, load_clickstream,
                            load_edge_list)
from navsynth.sessions import load_corpus, load_pageview_events
from navsynth.stats import rng_stream


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_graph(tmp_path):
    return write(tmp_path / "graph.tsv", "A\tB\nB\tC\nC\tA\n")


@pytest.fixture
def reference(tmp_path):
    lines = ["#kind=Logs"] + ["A\tB\tC"] * 10 + ["B\tC"] * 5
    return write(tmp_path / "ref.tsv", "\n".join(lines) + "\n")


class TestIngest:
    def test_summary_and_caches(self, tmp_path, chain_graph, capsys):
        cs = write(tmp_path / "cs.tsv", "A\tB\tlink\t20\nA\tB\texternal\t9\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--graph", chain_graph, "--clickstream", cs,
                   "--out-dir", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "3 nodes, 3 edges" in text
        assert "1 entries, 20 total clicks, 1 rows skipped" in text
        assert (out / "graph_cache.npz").exists()
        assert (out / "clickstream_cache.npz").exists()
        assert (out / "interning.tsv").exists()

    def test_rerun_identical_caches(self, tmp_path, chain_graph):
        blobs = []
        for run in range(2):
            out = tmp_path / ("out%d" % run)
            assert main(["ingest", "--graph", chain_graph, "--out-dir", str(out)]) == 0
            blobs.append((out / "graph_cache.npz").read_bytes())
        assert blobs[0] == blobs[1]

    def test_corrupted_row_cites_line(self, tmp_path, capsys):
        bad = write(tmp_path / "graph.tsv", "A\tB\nno-tab-here\n")
        rc = main(["ingest", "--graph", bad, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err


class TestSynth:
    def test_graph_kind_forced_walk(self, tmp_path, reference, capsys):
        # out-degree 1 everywhere: the uniform walk is fully determined
        graph = write(tmp_path / "g.tsv", "A\tB\nB\tC\nC\tA\n")
        out = tmp_path / "synth.tsv"
        rc = main(["synth", "--graph", graph, "--reference", reference,
                   "--kind", "graph", "--out", str(out), "--seed", "3"])
        assert rc == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert set(body) == {"A\tB\tC", "B\tC"}
        report = json.loads((tmp_path / "synth.tsv.report.json").read_text())
        assert report["kind"] == "Graph"
        assert report["flagged_count"] == 0

    def test_same_seed_byte_identical(self, tmp_path, reference):
        graph = write(tmp_path / "g.tsv", "A\tB\nA\tC\nB\tC\nB\tA\nC\tA\nC\tB\n")
        blobs = []
        for run in range(2):
            out = tmp_path / ("s%d.tsv" % run)
            assert main(["synth", "--graph", graph, "--reference", reference,
                         "--kind", "graph", "--out", str(out), "--seed", "7"]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_pub_applies_k_anonymity(self, tmp_path):
        graph = write(tmp_path / "g.tsv", "A\tB\nA\tC\nB\tA\nC\tA\n")
        cs = write(tmp_path / "cs.tsv",
                   "A\tB\tlink\t30\nA\tC\tlink\t5\nB\tA\tlink\t30\nC\tA\tlink\t30\n")
        ref = write(tmp_path / "ref.tsv", "#kind=Logs\n" + "A\tB\tA\n" * 200)
        outputs = {}
        for kind in ("clickstream-priv", "clickstream-pub"):
            out = tmp_path / (kind + ".tsv")
            assert main(["synth", "--graph", graph, "--clickstream", cs,
                         "--reference", ref, "--kind", kind,
                         "--out", str(out), "--seed", "5"]) == 0
            outputs[kind] = out.read_text()
        # the (A, C) row sits at the strict threshold and is pruned for pub
        assert "C" in outputs["clickstream-priv"]
        assert "C" not in outputs["clickstream-pub"].replace("#kind=Clickstream-Pub", "")

    def test_unknown_kind(self, tmp_path, chain_graph, reference, capsys):
        rc = main(["synth", "--graph", chain_graph, "--reference", reference,
                   "--kind", "bogus", "--out", str(tmp_path / "x.tsv")])
        assert rc == 2
        assert "unknown kind" in capsys.readouterr().err


class TestAnalysisCommands:
    def test_mixing_writes_outputs(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.tsv", "#kind=Logs\n" + "A\tB\tC\n" * 150)
        out = tmp_path / "out"
        rc = main(["mixing", "--corpus", corpus, "--min-triples", "100",
                   "--out-dir", str(out)])
        assert rc == 0
        survey = (out / "ami_survey.csv").read_text()
        assert survey.startswith("# navsynth")
        assert "article,num_triples,mi_bits,ami" in survey
        assert (out / "ami_cdf.csv").exists()

    def test_mixing_rows_independent_of_seed(self, tmp_path):
        # one table over 5000 triples: a bijection of sources onto targets
        corpus = write(tmp_path / "c.tsv",
                       "#kind=Logs\n" + "A\tB\tC\n" * 3000 + "D\tB\tE\n" * 2500)
        bodies = []
        for seed in (1, 2):
            out = tmp_path / ("out%d" % seed)
            assert main(["mixing", "--corpus", corpus, "--seed", str(seed),
                         "--out-dir", str(out)]) == 0
            # everything below the provenance header (version, seed, config hash)
            bodies.append([(out / name).read_text().split("\n", 1)[1]
                           for name in ("ami_survey.csv", "ami_cdf.csv")])
        assert bodies[0] == bodies[1]
        assert bodies[0][0].splitlines()[1] == "B,5500,0.9940302115,1"

    def test_diffusion_runs(self, tmp_path):
        corpus = write(tmp_path / "c.tsv", "#kind=Logs\nA\tB\tC\nB\tC\tA\n")
        emb = write(tmp_path / "emb.txt",
                    "3 2\nA 1.0 0.0\nB 0.0 1.0\nC 1.0 1.0\n")
        out = tmp_path / "out"
        rc = main(["diffusion", "--corpus", corpus, "--embeddings", emb,
                   "--k-max", "2", "--hist-k", "1", "--out-dir", str(out)])
        assert rc == 0
        curve = (out / "diffusion_curve.csv").read_text()
        assert "k,mean,ci_low,ci_high,n" in curve
        assert (out / "diffusion_hist_k1.csv").exists()


class TestPipeline:
    def run_pipeline(self, base):
        world = base / "world"
        assert main(["planted-world", "--nodes", "40", "--out-degree", "4",
                     "--memory", "0.5", "--corpus-size", "400",
                     "--seed", "11", "--out-dir", str(world)]) == 0
        synth_out = base / "graph_synth.tsv"
        assert main(["synth", "--graph", str(world / "graph.tsv"),
                     "--reference", str(world / "corpus.tsv"),
                     "--kind", "graph", "--out", str(synth_out),
                     "--seed", "13"]) == 0
        results = base / "results"
        assert main(["eval-next", "--graph", str(world / "graph.tsv"),
                     "--reference", str(world / "corpus.tsv"),
                     "--train", "Logs=%s" % (world / "corpus.tsv"),
                     "--train", "Graph=%s" % synth_out,
                     "--seed", "17", "--out-dir", str(results)]) == 0
        assert main(["report", "--inputs", str(results / "next_article.csv"),
                     "--baseline", "Logs", "--out-dir", str(results)]) == 0
        return results

    def test_end_to_end_and_relative_difference(self, tmp_path):
        results = self.run_pipeline(tmp_path)
        report = (results / "report.csv").read_text().splitlines()
        datasets = {line.split(",")[0] for line in report[2:]}
        assert datasets == {"Logs", "Graph"}
        rel = (results / "relative_difference.csv").read_text().splitlines()
        rel_rows = [line.split(",") for line in rel[2:]]
        assert all(row[0] == "Graph" for row in rel_rows)
        assert {row[1] for row in rel_rows} == {"mrr_all", "mrr_filtered"}

    def test_pipeline_deterministic(self, tmp_path):
        # identical invocations (same paths, same seeds) must be byte-identical
        results = self.run_pipeline(tmp_path)
        first = {name: (results / name).read_bytes()
                 for name in ("next_article.csv", "report.csv")}
        results = self.run_pipeline(tmp_path)
        for name, blob in first.items():
            assert (results / name).read_bytes() == blob


# case -> (file text with a malformed line 2, direct reader or None,
#          CLI argv over the files {input, graph, emb, out} or None)
MALFORMED_ROWS = {
    "edges": ("A\tB\nA\n", load_edge_list,
              lambda f: ["ingest", "--graph", f["input"], "--out-dir", f["out"]]),
    "clickstream": ("A\tB\tlink\t20\nA\tB\tlink\tmany\n", load_clickstream,
                    lambda f: ["ingest", "--graph", f["graph"], "--clickstream", f["input"],
                               "--out-dir", f["out"]]),
    "clickstream-huge-count": ("A\tB\tlink\t20\nB\tA\tlink\t99999999999999999999\n",
                               load_clickstream,
                               lambda f: ["ingest", "--graph", f["graph"], "--clickstream",
                                          f["input"], "--out-dir", f["out"]]),
    "clickstream-total-overflow": ("A\tB\tlink\t%d\nB\tA\tlink\t%d\n" % (2**62, 2**62),
                                   load_clickstream,
                                   lambda f: ["ingest", "--graph", f["graph"], "--clickstream",
                                              f["input"], "--out-dir", f["out"]]),
    "corpus-empty-name": ("A\tB\nA\t\tB\n", lambda p: load_corpus(p, Interner()),
                          lambda f: ["mixing", "--corpus", f["input"], "--out-dir", f["out"]]),
    "events": ("00ff\t100\tA\t-\n00ff\tlater\tB\tA\n",
               lambda p: load_pageview_events(p, Interner()),
               lambda f: ["build-sessions", "--events", f["input"],
                          "--out", f["out"] + "/sessions.tsv"]),
    "interning": ("0\tA\n1\tB\textra\n", Interner.read_tsv, None),
    "pairs-columns": ("A\tB\t0.5\nA\n", lambda p: _load_pairs(p, Interner()),
                      lambda f: ["eval-related", "--embeddings", f["emb"],
                                 "--pairs", f["input"], "--out-dir", f["out"]]),
    "pairs-score": ("A\tB\t0.5\nA\tB\thigh\n", lambda p: _load_pairs(p, Interner()),
                    lambda f: ["eval-related", "--embeddings", f["emb"],
                               "--pairs", f["input"], "--out-dir", f["out"]]),
    "pairs-score-nan": ("A\tB\t0.5\nA\tB\tnan\n", lambda p: _load_pairs(p, Interner()),
                        lambda f: ["eval-related", "--embeddings", f["emb"],
                                   "--pairs", f["input"], "--out-dir", f["out"]]),
    "pairs-score-inf": ("A\tB\t0.5\nA\tB\t-inf\n", lambda p: _load_pairs(p, Interner()),
                        lambda f: ["eval-related", "--embeddings", f["emb"],
                                   "--pairs", f["input"], "--out-dir", f["out"]]),
    "labels-columns": ("A\t1\nB\n", None,
                       lambda f: ["eval-topic", "--embeddings", f["emb"],
                                  "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-topic": ("A\t1\nB\t1,x\n", None,
                     lambda f: ["eval-topic", "--embeddings", f["emb"],
                                "--labels", f["input"], "--out-dir", f["out"]]),
    "embeddings-value": ("2 2\nA 1.0 x\nB 0.0 1.0\n", lambda p: load_embeddings(p, Interner()),
                         lambda f: ["eval-related", "--embeddings", f["input"],
                                    "--pairs", f["graph"], "--out-dir", f["out"]]),
    "embeddings-zero": ("2 2\nA 0.0 0.0\nB 0.0 1.0\n", lambda p: load_embeddings(p, Interner()),
                        lambda f: ["eval-related", "--embeddings", f["input"],
                                   "--pairs", f["graph"], "--out-dir", f["out"]]),
    "embeddings-nan": ("2 2\nA 1.0 nan\nB 0.0 1.0\n", lambda p: load_embeddings(p, Interner()),
                       lambda f: ["diffusion", "--embeddings", f["input"],
                                  "--corpus", f["graph"], "--out-dir", f["out"]]),
    "labels-topic-negative": ("A\t1\nB\t-1\n", None,
                              lambda f: ["eval-topic", "--embeddings", f["emb"],
                                         "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-topic-high": ("A\t1\nB\t0,64\n", None,
                          lambda f: ["eval-topic", "--embeddings", f["emb"],
                                     "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-no-vector": ("A\t1\nC\t1\n", None,
                         lambda f: ["eval-topic", "--embeddings", f["emb"],
                                    "--labels", f["input"], "--out-dir", f["out"]]),
    "report-row": ("Logs,mrr_all,0.5\nLogs,mrr_all\n", None,
                   lambda f: ["report", "--inputs", f["input"], "--out-dir", f["out"]]),
}
# the whole message after "path:2: ", where a case pins it
MALFORMED_MESSAGES = {
    "clickstream-huge-count": "click total reaches 2**63\n",
    "clickstream-total-overflow": "click total reaches 2**63\n",
    "corpus-empty-name": "empty article name\n",
    "embeddings-zero": "all-zero vector for article 'A'\n",
    "embeddings-nan": "non-finite value for article 'A'\n",
    "labels-topic-negative": "topic -1 outside [0, 64)\n",
    "labels-topic-high": "topic 64 outside [0, 64)\n",
    "labels-no-vector": "article 'C' has no vector\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_row_cites_path_and_line(tmp_path, capsys, case):
    text, reader, argv = MALFORMED_ROWS[case]
    path = write(tmp_path / "input.tsv", text)
    if reader is not None:
        with pytest.raises(ParseError, match=":2: "):
            reader(path)
    if argv is not None:
        files = {"input": path, "out": str(tmp_path / "out"),
                 "graph": write(tmp_path / "graph.tsv", "A\tB\n"),
                 "emb": write(tmp_path / "emb.txt", "2 2\nA 1.0 0.0\nB 0.0 1.0\n")}
        assert main(argv(files)) == 1
        assert "error: %s:2: %s" % (path, MALFORMED_MESSAGES.get(case, "")) \
            in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--out-degree", "0", "out_degree must be >= 1 and < num_nodes"),
    ("--corpus-size", "-3", "corpus_size must be >= 0"),
], ids=["out-degree-0", "corpus-size-negative"])
def test_planted_world_rejects_bad_sizes(tmp_path, capsys, flag, value, message):
    rc = main(["planted-world", "--nodes", "10", flag, value, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_eval_next_rejects_reference_article_outside_graph(tmp_path, chain_graph, capsys):
    lines = ["#kind=Logs"] + ["A\tB\tC"] * 39 + ["A\tD\tB"]
    ref = write(tmp_path / "ref.tsv", "\n".join(lines) + "\n")
    rc = main(["eval-next", "--graph", chain_graph, "--reference", ref,
               "--train", "Logs=%s" % ref, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: %s: article 'D' is not in the graph\n" % ref)


def test_eval_next_does_not_read_logs_path(tmp_path, chain_graph, reference):
    # "Logs" trains on the reference's train split, whatever path it names
    bodies = []
    for logs in (reference, str(tmp_path / "nonexistent.tsv")):
        out = tmp_path / ("out%d" % len(bodies))
        assert main(["eval-next", "--graph", chain_graph, "--reference", reference,
                     "--train", "Logs=%s" % logs, "--out-dir", str(out)]) == 0
        bodies.append((out / "next_article.csv").read_text().split("\n", 1)[1])
    assert bodies[0] == bodies[1]


def test_eval_link_corpus_without_path_rejected(tmp_path, chain_graph, reference, capsys):
    new_graph = write(tmp_path / "new.tsv", "A\tB\nB\tC\nC\tA\nA\tC\n")
    rc = main(["eval-link", "--old-graph", chain_graph, "--new-graph", new_graph,
               "--reference", reference, "--corpus", "Logs",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "--corpus expects name=path, got 'Logs'" in capsys.readouterr().err


class TestReport:
    def test_missing_input_errors(self, tmp_path, capsys):
        rc = main(["report", "--inputs", str(tmp_path / "absent.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "missing result files" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_beat_config(self, tmp_path, chain_graph, capsys):
        cfg = write(tmp_path / "run.cfg", "seed=99\nout_dir=%s\n" % (tmp_path / "cfg_out"))
        flag_out = tmp_path / "flag_out"
        rc = main(["ingest", "--graph", chain_graph, "--config", cfg,
                   "--out-dir", str(flag_out)])
        assert rc == 0
        assert flag_out.exists()
        assert not (tmp_path / "cfg_out").exists()

    def test_config_fills_defaults(self, tmp_path, chain_graph):
        out = tmp_path / "from_cfg"
        cfg = write(tmp_path / "run.cfg", "out-dir=%s\n" % out)
        assert main(["ingest", "--graph", chain_graph, "--config", cfg]) == 0
        assert (out / "graph_cache.npz").exists()

    def test_bad_value_cites_line(self, tmp_path, chain_graph, capsys):
        cfg = write(tmp_path / "run.cfg", "# run settings\nseed=abc\n")
        rc = main(["ingest", "--graph", chain_graph, "--config", cfg,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s:2: invalid seed 'abc'\n" % cfg

    def test_missing_file_errors(self, tmp_path, chain_graph, capsys):
        cfg = str(tmp_path / "absent.cfg")
        rc = main(["ingest", "--graph", chain_graph, "--config", cfg,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cfg in err


IMPORT_GUARD = """
import sys
from navsynth import cli
corpus, emb, pairs, out = sys.argv[1:]
assert cli.main(["mixing", "--corpus", corpus, "--min-triples", "1", "--out-dir", out]) == 0
assert cli.main(["eval-related", "--embeddings", emb, "--pairs", pairs,
                 "--out-dir", out]) == 0
print(sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")))
"""


def test_commands_do_not_import_scipy_stats(tmp_path):
    # scipy.stats costs most of a second of CPU per process; spearman must not need it
    rng = rng_stream(3)
    names = "ABCDEF"
    lines = ["\t".join(names[i] for i in rng.integers(0, 6, size=int(rng.integers(3, 7))))
             for _ in range(300)]
    corpus = write(tmp_path / "c.tsv", "#kind=Logs\n" + "\n".join(lines) + "\n")
    emb = write(tmp_path / "emb.txt", "4 2\nA 1.0 0.0\nB 0.0 1.0\nC 1.0 1.0\nD 1.0 -0.5\n")
    pairs = write(tmp_path / "pairs.tsv", "A\tB\t1.0\nA\tC\t3.0\nB\tC\t2.5\nA\tD\t4.0\n")
    src = os.path.dirname(os.path.dirname(navsynth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, corpus, emb, pairs,
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stdout = proc.stdout.splitlines()
    assert re.fullmatch(r"surveyed ([3-9]|\d\d+) articles; volume/AMI Spearman rho = -?\d\.\d{4}",
                        stdout[0])
    assert "spearman_rho," in (tmp_path / "out" / "relatedness.csv").read_text()
    assert stdout[-1] == "[]"
