import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import navsynth
from navsynth.cli import main
from navsynth.diffusion import (EmbeddingTable, load_embeddings, load_relatedness_pairs,
                                load_topic_labels)
from navsynth.graph import (Interner, ParseError, load_clickstream,
                            load_edge_list, load_result_values)
from navsynth.sessions import load_corpus, load_pageview_events
from navsynth.stats import rng_stream


def write(path, text):
    # a surrogate escape "\udcff" writes the undecodable byte 0xff
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
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
        with pytest.raises(SystemExit) as exit_:
            main(["synth", "--graph", chain_graph, "--reference", reference,
                  "--kind", "bogus", "--out", str(tmp_path / "x.tsv")])
        assert exit_.value.code == 2
        assert "argument --kind: invalid choice: 'bogus'" in capsys.readouterr().err


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

    def test_mixing_without_triples(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.tsv", "#kind=Logs\n" + "A\tB\n" * 5 + "C\n")
        out = tmp_path / "out"
        assert main(["mixing", "--corpus", corpus, "--min-triples", "0",
                     "--out-dir", str(out)]) == 0
        assert (out / "ami_survey.csv").read_text().endswith("article,num_triples,mi_bits,ami\n")

    def test_mixing_rows_independent_of_seed(self, tmp_path):
        # one table over 5000 triples: a bijection of sources onto targets
        corpus = write(tmp_path / "c.tsv",
                       "#kind=Logs\n" + "A\tB\tC\n" * 3000 + "D\tB\tE\n" * 2500)
        # mixing takes no --seed: its exact EMI draws nothing
        out = tmp_path / "out"
        assert main(["mixing", "--corpus", corpus, "--out-dir", str(out)]) == 0
        # the row below the provenance header (version, config hash) and the columns
        assert (out / "ami_survey.csv").read_text().splitlines()[2] == "B,5500,0.9940302115,1"

    def test_mixing_quotes_an_article_with_a_comma(self, tmp_path):
        corpus = write(tmp_path / "c.tsv", "#kind=Logs\n" + "A\tWashington,_D.C.\tC\n" * 3)
        out = tmp_path / "out"
        assert main(["mixing", "--corpus", corpus, "--min-triples", "1",
                     "--out-dir", str(out)]) == 0
        with open(out / "ami_survey.csv", encoding="utf-8", newline="") as f:
            rows = [*csv.reader(f)][2:]
        assert [row[:2] for row in rows] == [["Washington,_D.C.", "3"]]

    def test_header_names_a_seed_only_for_a_command_that_takes_one(self, tmp_path):
        corpus = write(tmp_path / "c.tsv", "#kind=Logs\nA\tB\tC\nB\tC\tA\n")
        emb = write(tmp_path / "emb.txt", "3 2\nA 1.0 0.0\nB 0.0 1.0\nC 1.0 1.0\n")
        out = tmp_path / "out"
        assert main(["mixing", "--corpus", corpus, "--out-dir", str(out)]) == 0
        assert main(["diffusion", "--corpus", corpus, "--embeddings", emb, "--k-max", "2",
                     "--seed", "4", "--out-dir", str(out)]) == 0
        header = r"# navsynth \S+ %sconfig=[0-9a-f]{12}"
        assert re.fullmatch(header % "", (out / "ami_survey.csv").read_text().splitlines()[0])
        assert re.fullmatch(header % "seed=4 ",
                            (out / "diffusion_curve.csv").read_text().splitlines()[0])

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

    def test_header_digest_leaves_out_paths(self, tmp_path):
        # the same options on the same input bytes, under other paths and another --out-dir
        first, second = self.run_pipeline(tmp_path / "a"), self.run_pipeline(tmp_path / "b" / "c")
        for name in ("next_article.csv", "report.csv", "relative_difference.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_pipeline_deterministic(self, tmp_path):
        # identical invocations (same paths, same seeds) must be byte-identical
        results = self.run_pipeline(tmp_path)
        first = {name: (results / name).read_bytes()
                 for name in ("next_article.csv", "report.csv")}
        results = self.run_pipeline(tmp_path)
        for name, blob in first.items():
            assert (results / name).read_bytes() == blob


def read_pairs(path):
    return load_relatedness_pairs(path, Interner())


def read_labels(path):
    """The topic labels of `path` against vectors for "A" and "B", as `eval-topic` reads them
    next to the embeddings file of `test_malformed_row_cites_path_and_line`."""
    interner = Interner()
    return load_topic_labels(path, interner, EmbeddingTable(interner.intern_all(["A", "B"]),
                                                            np.eye(2)), 64)


# case -> (file text with a malformed line 2, direct reader or None,
#          CLI argv over the files {input, graph, emb, out} or None)
MALFORMED_ROWS = {
    "edges": ("A\tB\nA\n", load_edge_list,
              lambda f: ["ingest", "--graph", f["input"], "--out-dir", f["out"]]),
    "edges-utf8": ("A\tB\nA\tB\udcff\n", load_edge_list,
                   lambda f: ["ingest", "--graph", f["input"], "--out-dir", f["out"]]),
    "clickstream": ("A\tB\tlink\t20\nA\tB\tlink\tmany\n", load_clickstream,
                    lambda f: ["ingest", "--graph", f["graph"], "--clickstream", f["input"],
                               "--out-dir", f["out"]]),
    "clickstream-huge-count": ("A\tB\tlink\t20\nB\tA\tlink\t99999999999999999999\n",
                               load_clickstream,
                               lambda f: ["ingest", "--graph", f["graph"], "--clickstream",
                                          f["input"], "--out-dir", f["out"]]),
    "clickstream-empty-name": ("A\tB\tlink\t20\nA\t\tother\t5\n", load_clickstream,
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
    "events-key": ("00ff\t100\tA\t-\nzz\t200\tB\tA\nzz\t300\tB\tA\n",
                   lambda p: load_pageview_events(p, Interner()),
                   lambda f: ["build-sessions", "--events", f["input"],
                              "--out", f["out"] + "/sessions.tsv"]),
    "events-empty-article": ("00ff\t100\tA\t-\n00ff\t200\t\tA\n",
                             lambda p: load_pageview_events(p, Interner()),
                             lambda f: ["build-sessions", "--events", f["input"],
                                        "--out", f["out"] + "/sessions.tsv"]),
    "events-empty-referrer": ("00ff\t100\tA\t-\n00ff\t300\tB\t\n",
                              lambda p: load_pageview_events(p, Interner()),
                              lambda f: ["build-sessions", "--events", f["input"],
                                         "--out", f["out"] + "/sessions.tsv"]),
    "events-timestamp-range": ("00ff\t100\tA\t-\n00ff\t%d\tB\tA\n" % 2**62,
                               lambda p: load_pageview_events(p, Interner()),
                               lambda f: ["build-sessions", "--events", f["input"],
                                          "--out", f["out"] + "/sessions.tsv"]),
    "pairs-columns": ("A\tB\t0.5\nA\n", read_pairs,
                      lambda f: ["eval-related", "--embeddings", f["emb"],
                                 "--pairs", f["input"], "--out-dir", f["out"]]),
    "pairs-score": ("A\tB\t0.5\nA\tB\thigh\n", read_pairs,
                    lambda f: ["eval-related", "--embeddings", f["emb"],
                               "--pairs", f["input"], "--out-dir", f["out"]]),
    "pairs-score-nan": ("A\tB\t0.5\nA\tB\tnan\n", read_pairs,
                        lambda f: ["eval-related", "--embeddings", f["emb"],
                                   "--pairs", f["input"], "--out-dir", f["out"]]),
    "pairs-score-inf": ("A\tB\t0.5\nA\tB\t-inf\n", read_pairs,
                        lambda f: ["eval-related", "--embeddings", f["emb"],
                                   "--pairs", f["input"], "--out-dir", f["out"]]),
    "labels-columns": ("A\t1\nB\n", read_labels,
                       lambda f: ["eval-topic", "--embeddings", f["emb"],
                                  "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-utf8": ("A\t1\nB\udcc3\t1\n", read_labels,
                    lambda f: ["eval-topic", "--embeddings", f["emb"],
                               "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-topic": ("A\t1\nB\t1,x\n", read_labels,
                     lambda f: ["eval-topic", "--embeddings", f["emb"],
                                "--labels", f["input"], "--out-dir", f["out"]]),
    "embeddings-value": ("2 2\nA 1.0 x\nB 0.0 1.0\n", lambda p: load_embeddings(p, Interner()),
                         lambda f: ["eval-related", "--embeddings", f["input"],
                                    "--pairs", f["graph"], "--out-dir", f["out"]]),
    "embeddings-zero": ("2 2\nA 0.0 0.0\nB 0.0 1.0\n", lambda p: load_embeddings(p, Interner()),
                        lambda f: ["eval-related", "--embeddings", f["input"],
                                   "--pairs", f["graph"], "--out-dir", f["out"]]),
    "embeddings-empty-name": ("2 1\n 1.0\nB 1.0\n", lambda p: load_embeddings(p, Interner()),
                              lambda f: ["eval-related", "--embeddings", f["input"],
                                         "--pairs", f["graph"], "--out-dir", f["out"]]),
    "embeddings-tab": ("2 2\nA\t1.0\t0.0\nB 0.0 1.0\n", lambda p: load_embeddings(p, Interner()),
                       lambda f: ["eval-related", "--embeddings", f["input"],
                                  "--pairs", f["graph"], "--out-dir", f["out"]]),
    "embeddings-nan": ("2 2\nA 1.0 nan\nB 0.0 1.0\n", lambda p: load_embeddings(p, Interner()),
                       lambda f: ["diffusion", "--embeddings", f["input"],
                                  "--corpus", f["graph"], "--out-dir", f["out"]]),
    "labels-topic-negative": ("A\t1\nB\t-1\n", read_labels,
                              lambda f: ["eval-topic", "--embeddings", f["emb"],
                                         "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-topic-high": ("A\t1\nB\t0,64\n", read_labels,
                          lambda f: ["eval-topic", "--embeddings", f["emb"],
                                     "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-duplicate": ("A\t0\nA\t1\n", read_labels,
                         lambda f: ["eval-topic", "--embeddings", f["emb"],
                                    "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-empty-name": ("A\t1\n\t1\n", read_labels,
                          lambda f: ["eval-topic", "--embeddings", f["emb"],
                                     "--labels", f["input"], "--out-dir", f["out"]]),
    "labels-no-vector": ("A\t1\nC\t1\n", read_labels,
                         lambda f: ["eval-topic", "--embeddings", f["emb"],
                                    "--labels", f["input"], "--out-dir", f["out"]]),
    "report-row": ("Logs,mrr_all,0.5\nLogs,mrr_all\n", lambda p: load_result_values([p]),
                   lambda f: ["report", "--inputs", f["input"], "--out-dir", f["out"]]),
    "report-duplicate": ("Logs,mrr_all,0.5\nLogs,mrr_all,0.7\n",
                         lambda p: load_result_values([p]),
                         lambda f: ["report", "--inputs", f["input"], "--out-dir", f["out"]]),
    "report-utf8": ("Logs,mrr_all,0.5\nLogs,mrr\udcff,0.7\n",
                    lambda p: load_result_values([p]),
                    lambda f: ["report", "--inputs", f["input"], "--out-dir", f["out"]]),
    "pairs-empty-name": ("A\tB\t0.5\n\tB\t4.0\n", read_pairs,
                         lambda f: ["eval-related", "--embeddings", f["emb"],
                                    "--pairs", f["input"], "--out-dir", f["out"]]),
    "report-columns-twice": ("dataset,metric,value\ndataset,metric,value\n",
                             lambda p: load_result_values([p]),
                             lambda f: ["report", "--inputs", f["input"], "--out-dir", f["out"]]),
    "config-ks": ("# settings\nks=10,x\n", None,
                  lambda f: ["eval-link", "--old-graph", f["graph"], "--new-graph", f["graph"],
                             "--reference", f["graph"], "--corpus", "Graph=" + f["graph"],
                             "--config", f["input"], "--out-dir", f["out"]]),
    "embeddings-utf8": ("2 2\nB\udcc3 0.0 1.0\nA 1.0 0.0\n",
                        lambda p: load_embeddings(p, Interner()),
                        lambda f: ["eval-related", "--embeddings", f["input"],
                                   "--pairs", f["graph"], "--out-dir", f["out"]]),
}
# the whole message after "path:2: ", where a case pins it
MALFORMED_MESSAGES = {
    "clickstream-empty-name": "empty article name\n",
    "clickstream-huge-count": "click total reaches 2**63\n",
    "clickstream-total-overflow": "click total reaches 2**63\n",
    "corpus-empty-name": "empty article name\n",
    "edges-utf8": "invalid UTF-8\n",
    "embeddings-utf8": "invalid UTF-8\n",
    "report-utf8": "invalid UTF-8\n",
    "events-key": "invalid reader key 'zz'\n",
    "labels-utf8": "invalid UTF-8\n",
    "events-empty-article": "empty article name\n",
    "events-empty-referrer": "empty article name\n",
    "events-timestamp-range": "timestamp %d outside [-2**62, 2**62)\n" % 2**62,
    "embeddings-empty-name": "empty article name\n",
    "embeddings-zero": "all-zero vector for article 'A'\n",
    "embeddings-tab": "expected 2 values, got 0\n",
    "embeddings-nan": "non-finite value for article 'A'\n",
    "labels-topic-negative": "topic -1 outside [0, 64)\n",
    "labels-topic-high": "topic 64 outside [0, 64)\n",
    "labels-duplicate": "duplicate article 'A'\n",
    "labels-empty-name": "empty article name\n",
    "labels-no-vector": "article 'C' has no vector\n",
    "report-duplicate": "duplicate row 'Logs,mrr_all'\n",
    "pairs-empty-name": "empty article name\n",
    "report-columns-twice": "invalid value 'value'\n",
    "config-ks": "invalid ks '10,x'\n",
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


@pytest.mark.parametrize("text,message", [
    ("-1 2\nA 1 0\n", "expected N >= 0 and dim >= 1, got -1 2"),
    ("2 0\nA\nB\n", "expected N >= 0 and dim >= 1, got 2 0"),
    ("%d 128\nA%s\n" % (10**12, " 1" * 128), "no memory for 1000000000000 rows of 128 values"),
    ("%d 1\nA 1\n" % 2**62, "no memory for %d rows of 1 values" % 2**62),
    ("1 2\nA 1 0\nB 0 1\nC 1 1\n", "header declared 1 rows, found 3"),
    ("3 2\nA 1 0\n", "header declared 3 rows, found 1"),
], ids=["negative-count", "zero-dim", "count-beyond-memory", "count-beyond-addresses",
        "more-rows", "fewer-rows"])
def test_embeddings_header_faults_cite_line_1(tmp_path, capsys, text, message):
    # the loader sizes its array from the header, so a header no file can match must end as
    # a fault of line 1, not as a numpy error
    path = write(tmp_path / "emb.txt", text)
    with pytest.raises(ParseError, match="^%s:1: %s$" % (re.escape(path), message)):
        load_embeddings(path, Interner())
    pairs = write(tmp_path / "pairs.tsv", "A\tB\t1\n")
    assert main(["eval-related", "--embeddings", path, "--pairs", pairs,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: %s:1: %s\n" % (path, message)


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


@pytest.mark.parametrize("lines,windows", [(["A\tB", "C"], 0), (["A\tB\tC", "B\tC"], 1),
                                           (["A\tB\tC\tA"], 2)])
def test_eval_next_rejects_reference_with_too_few_windows(tmp_path, chain_graph, capsys,
                                                          lines, windows):
    # make_split leaves a test window only from 3 windows on
    ref = write(tmp_path / "ref.tsv", "\n".join(["#kind=Logs", *lines]) + "\n")
    out = tmp_path / "out"
    rc = main(["eval-next", "--graph", chain_graph, "--reference", ref,
               "--train", "Logs=%s" % ref, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: the reference has %d windows of 3 pages; 3 are needed\n" % windows)
    assert not (out / "next_article.csv").exists()


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
    with pytest.raises(SystemExit) as exit_:
        main(["eval-link", "--old-graph", chain_graph, "--new-graph", new_graph,
              "--reference", reference, "--corpus", "Logs",
              "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "argument --corpus: expected name=path, got 'Logs'" in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["10,x", "0", "5,-1", "", "10,10", "5,10,05"])
def test_eval_link_bad_ks_rejected_before_reading(tmp_path, capsys, ks):
    # a repeated k would name two rows alike, which `report` refuses to read
    absent = str(tmp_path / "absent.tsv")
    with pytest.raises(SystemExit) as exit_:
        main(["eval-link", "--old-graph", absent, "--new-graph", absent, "--reference", absent,
              "--corpus", "A=%s" % absent, "--ks", ks])
    assert exit_.value.code == 2
    message = ("repeated k in %r" if ks in ("10,10", "5,10,05") else
               "expected comma-separated integers >= 1, got %r") % ks
    assert "argument --ks: " + message in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("synth", "--graph"), ("synth", "--clickstream"), ("synth", "--reference"),
    ("build-sessions", "--events"), ("train-emb", "--corpus")])
def test_out_naming_an_input_rejected_before_reading(tmp_path, capsys, command, flag):
    inputs = {"synth": ["--graph", "--clickstream", "--reference"],
              "build-sessions": ["--events"], "train-emb": ["--corpus"]}[command]
    out = os.path.join(str(tmp_path), ".", "in%d.tsv" % inputs.index(flag))  # another spelling
    argv = [command, "--out", out]
    for i, name in enumerate(inputs):
        argv += [name, write(tmp_path / ("in%d.tsv" % i), "A\tB\n")]
    if command == "synth":
        argv += ["--kind", "clickstream-priv"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --out %s names an input of the command\n" % out
    assert all((tmp_path / ("in%d.tsv" % i)).read_text() == "A\tB\n"
               for i in range(len(inputs)))
    assert not list(tmp_path.glob("*.report.json"))


def test_eval_next_train_without_path_rejected_before_reading(tmp_path, capsys):
    absent = str(tmp_path / "absent.tsv")  # no input is read before the flags are checked
    with pytest.raises(SystemExit) as exit_:
        main(["eval-next", "--graph", absent, "--reference", absent,
              "--train", "Logs=%s" % absent, "--train", "Graph=",
              "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "argument --train: expected name=path, got 'Graph='" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--graph", "g.tsv", "--reference", "r.tsv", "--kind", "graph", "--out", "o.tsv",
     "--out-dir", "x"],
    ["build-sessions", "--events", "e.tsv", "--out", "o.tsv", "--out-dir", "x"],
    ["train-emb", "--corpus", "c.tsv", "--out", "o.txt", "--out-dir", "x"],
    ["ingest", "--graph", "g.tsv", "--seed", "1"],
    ["mixing", "--corpus", "c.tsv", "--seed", "1"],
    ["eval-link", "--old-graph", "g.tsv", "--new-graph", "g.tsv", "--reference", "r.tsv",
     "--corpus", "A=c.tsv", "--seed", "1"],
    ["eval-related", "--embeddings", "e.txt", "--pairs", "p.tsv", "--seed", "1"],
    ["report", "--inputs", "r.csv", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_flag_the_command_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(argv[-2:]) in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--dim", "0", "dim must be >= 1"),
    ("--window", "0", "window must be >= 1"),
    ("--epochs", "0", "epochs must be >= 1"),
    ("--negatives", "-1", "negatives must be >= 0"),
    ("--lr", "nan", "learning_rate must be finite and positive"),
    ("--lr", "inf", "learning_rate must be finite and positive"),
    ("--lr", "-1", "learning_rate must be finite and positive"),
    ("--lr", "0", "learning_rate must be finite and positive"),
], ids=["dim-0", "window-0", "epochs-0", "negatives-negative", "lr-nan", "lr-inf",
        "lr-negative", "lr-0"])
def test_train_emb_rejects_bad_hyperparameters(tmp_path, reference, capsys, flag, value,
                                               message):
    out = tmp_path / "emb.txt"
    rc = main(["train-emb", "--corpus", reference, flag, value, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def test_train_emb_without_negatives(tmp_path, reference):
    out = tmp_path / "emb.txt"
    assert main(["train-emb", "--corpus", reference, "--dim", "4", "--negatives", "0",
                 "--epochs", "1", "--out", str(out)]) == 0
    assert len(load_embeddings(str(out), Interner())) == 3


def test_build_sessions_refuses_a_sequence_that_reads_as_a_comment(tmp_path, capsys):
    # a tree rooted at "#x": its path would start a corpus line with "#"
    events = write(tmp_path / "events.tsv", "00\t1000\t#x\t-\n00\t2000\tB\t#x\n")
    out = tmp_path / "built.tsv"
    assert main(["build-sessions", "--events", events, "--out", str(out)]) == 1
    assert "article '#x' starts a sequence" in capsys.readouterr().err
    assert not out.exists()


def test_eval_topic_rejects_empty_test_split(tmp_path, capsys):
    # the 0.8/0.1/0.1 split of 2 labeled articles leaves no test article
    emb = write(tmp_path / "emb.txt", "2 2\nA 1.0 0.0\nB 0.0 1.0\n")
    labels = write(tmp_path / "labels.tsv", "A\t0\nB\t1\n")
    out = tmp_path / "out"
    rc = main(["eval-topic", "--embeddings", emb, "--labels", labels, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: empty test split\n"
    assert not (out / "topic_classification.csv").exists()


class TestReport:
    def test_missing_input_errors(self, tmp_path, capsys):
        rc = main(["report", "--inputs", str(tmp_path / "absent.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "missing result files" in capsys.readouterr().err

    def test_keeps_rows_of_a_dataset_named_dataset(self, tmp_path):
        # only each file's first row that is no comment can be its column names
        first = write(tmp_path / "a.csv", "# navsynth\ndataset,metric,value\ndataset,mrr,0.5\n")
        second = write(tmp_path / "b.csv", "dataset,metric,value\nLogs,mrr,0.25\n")
        assert main(["report", "--inputs", first, second, "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert rows == ["dataset,mrr,0.500000", "Logs,mrr,0.250000"]


    def test_dataset_names_with_a_comma_or_a_leading_hash_survive(self, tmp_path):
        emb = write(tmp_path / "emb.txt", "3 2\nA 1 0\nB 0 1\nC 1 1\n")
        pairs = write(tmp_path / "pairs.tsv", "A\tB\t0.1\nA\tC\t0.5\nB\tC\t0.9\n")
        inputs = []
        for name in ("Washington,_D.C.", "#x"):
            out = tmp_path / str(len(inputs))
            assert main(["eval-related", "--embeddings", emb, "--pairs", pairs,
                         "--name", name, "--out-dir", str(out)]) == 0
            inputs.append(str(out / "relatedness.csv"))
        assert main(["report", "--inputs", *inputs, "--baseline", "#x",
                     "--out-dir", str(tmp_path)]) == 0
        values = load_result_values([str(tmp_path / "report.csv")])
        assert sorted({dataset for dataset, _ in values}) == ["#x", "Washington,_D.C."]
        assert len(values) == 6
        relative = load_result_values([str(tmp_path / "relative_difference.csv")])
        assert relative[("Washington,_D.C.", "pairs_used")] == 0.0


class TestConfigFile:
    def test_flags_beat_config(self, tmp_path, chain_graph, capsys):
        cfg = write(tmp_path / "run.cfg", "out_dir=%s\n" % (tmp_path / "cfg_out"))
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

    @pytest.mark.parametrize("key", ["func", "command", "min_tripels", "seed"])
    def test_non_option_keys_rejected(self, tmp_path, chain_graph, capsys, key):
        # `func` and `command` are in the namespace but are no options; ingest takes no --seed
        out = tmp_path / "from_cfg"
        cfg = write(tmp_path / "run.cfg", "out_dir=%s\n%s=0\n" % (out, key.replace("_", "-")))
        assert main(["ingest", "--graph", chain_graph, "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: %s:2: unknown option %r\n" % (cfg, key)
        assert not out.exists()

    def test_invalid_utf8_cites_line(self, tmp_path, chain_graph, capsys):
        cfg = write(tmp_path / "run.cfg", "# run settings\nout_dir=caf\udcc3\n")
        assert main(["ingest", "--graph", chain_graph, "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: %s:2: invalid UTF-8\n" % cfg

    def test_bad_value_cites_line(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.tsv", "#kind=Logs\nA\tB\tC\n")
        cfg = write(tmp_path / "run.cfg", "# run settings\nmin_triples=abc\n")
        rc = main(["mixing", "--corpus", corpus, "--config", cfg,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s:2: invalid min_triples 'abc'\n" % cfg

    @pytest.mark.parametrize("spelling", [["--min-triples", "1"], ["--min-triples=1"],
                                          ["--min-t", "1"], ["--min=1"]])
    def test_every_accepted_spelling_beats_config(self, tmp_path, capsys, spelling):
        corpus = write(tmp_path / "c.tsv", "#kind=Logs\nA\tB\tC\n")
        cfg = write(tmp_path / "run.cfg", "min_triples=100\n")
        argv = ["mixing", "--corpus", corpus, *spelling, "--config", cfg,
                "--out-dir", str(tmp_path / "out")]
        try:
            rc = main(argv)
        except SystemExit as e:  # a spelling argparse rejects cannot lose to the config
            assert e.code == 2
            assert "unrecognized arguments: %s" % " ".join(spelling) in capsys.readouterr().err
            return
        assert rc == 0
        assert capsys.readouterr().out.startswith("surveyed 1 articles")

    @pytest.mark.parametrize("ks", ["10,x", "0", "10,50,10"])
    def test_value_goes_through_the_flag_type(self, tmp_path, capsys, ks):
        # checked as `--ks` checks it, before any input is read: none of them exists here
        cfg = write(tmp_path / "run.cfg", "ks=%s\n" % ks)
        absent = str(tmp_path / "absent.tsv")
        rc = main(["eval-link", "--old-graph", absent, "--new-graph", absent, "--reference",
                   absent, "--corpus", "Graph=" + absent, "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s:1: invalid ks %r\n" % (cfg, ks)

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


SCIPY_PROBE = """
import json, sys
from navsynth import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append([argv[0], sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(loaded))
"""


def test_commands_load_no_scipy(tmp_path):
    # EMI takes its log-factorials from its own table, and SGNS its sigmoid from libm's exp and
    # log1p and its row sums from numpy, so no command pays scipy's import: 0.3 s of CPU and
    # about 20 MiB of peak RSS
    world = tmp_path / "world"
    assert main(["planted-world", "--nodes", "60", "--out-degree", "5", "--memory", "0.6",
                 "--corpus-size", "1500", "--seed", "3", "--out-dir", str(world)]) == 0
    graph, clicks, corpus = (str(world / n) for n in ("graph.tsv", "clickstream.tsv",
                                                       "corpus.tsv"))
    lines = (world / "graph.tsv").read_text().splitlines(True)
    old = write(tmp_path / "old.tsv", "".join(lines[1::2]))
    names = sorted({name for line in lines for name in line.split()})
    emb = write(tmp_path / "emb.txt", "%d 2\n" % len(names) + "".join(
        "%s %d.0 %d.5\n" % (name, i % 3 - 1, i % 5) for i, name in enumerate(names)))
    pairs = write(tmp_path / "pairs.tsv", "".join(
        "%s\t%s\t%d\n" % (names[i], names[-1 - i], i) for i in range(20)))
    labels = write(tmp_path / "labels.tsv", "".join(
        "%s\t%d\n" % (name, i % 3 == 1) for i, name in enumerate(names)))
    events = write(tmp_path / "events.tsv", "00\t1\tA\t-\n00\t2\tB\tA\n01\t3\tA\t-\n")
    walks, out = str(tmp_path / "walks.tsv"), str(tmp_path / "out")
    commands = [
        ["ingest", "--graph", graph, "--clickstream", clicks, "--out-dir", out],
        ["build-sessions", "--events", events, "--out", str(tmp_path / "built.tsv")],
        ["synth", "--graph", graph, "--clickstream", clicks, "--reference", corpus,
         "--kind", "clickstream-pub-intrinsic", "--out", str(tmp_path / "pub.tsv")],
        ["synth", "--graph", graph, "--reference", corpus, "--kind", "graph", "--out", walks],
        ["mixing", "--corpus", corpus, "--min-triples", "1000000", "--out-dir", out],
        ["mixing", "--corpus", corpus, "--min-triples", "10", "--out-dir", out],
        ["eval-next", "--graph", graph, "--reference", corpus, "--train", "Logs=" + corpus,
         "--train", "Graph=" + walks, "--out-dir", out],
        ["eval-link", "--old-graph", old, "--new-graph", graph, "--reference", corpus,
         "--corpus", "Graph=" + walks, "--min-paths", "5", "--out-dir", out],
        ["report", "--inputs", out + "/next_article.csv", out + "/link_prediction.csv",
         "--out-dir", out],
        ["diffusion", "--corpus", corpus, "--embeddings", emb, "--k-max", "3", "--hist-k", "2",
         "--out-dir", out],
        ["eval-related", "--embeddings", emb, "--pairs", pairs, "--out-dir", out],
        ["eval-topic", "--embeddings", emb, "--labels", labels, "--num-topics", "2",
         "--out-dir", out],
        ["train-emb", "--corpus", corpus, "--dim", "8", "--epochs", "1", "--out",
         str(tmp_path / "trained.txt")],
    ]
    src = os.path.dirname(os.path.dirname(navsynth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "surveyed 0 articles" in proc.stdout
    assert re.search(r"^surveyed [1-9]\d* articles", proc.stdout, re.MULTILINE)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[argv[0], []] for argv in commands]
