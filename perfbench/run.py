"""Pipeline benchmark for navsynth.

Usage (from the repository root):
    python3 perfbench/run.py --workload {wide,hubs,embed,all} --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed. With `--trace 0` it first
times `ingest` repeatedly in one process (`setup_s`). Then it runs the
workload's commands in fresh pipeline processes, one after another (a closed
loop), until `--seconds` have passed and at least MIN_REPS pipelines have run,
and checks every command's outputs after every pipeline. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` each repetition runs the
pipeline once plain and once traced and it reports the per-layer metrics.
Times are CPU seconds (see README.md). Every metric is the median over
repetitions. Metric lines go to stdout; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen
import plans
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
WORK = ".perfbench_work"
MIN_REPS = 2
SETUP_REPS = 3  # ingest runs at least this often, and until SETUP_MIN_S have passed
SETUP_MIN_S = 2.0
MAX_RUN_S = 40  # start no repetition likely to end later than this after the run began
SUM_TOLERANCE = 0.01  # self times + cli.self_s vs the commands' CPU time, as a share
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}

# the metrics of the JSON result with --trace 0
END_TO_END = ["setup_s", "pipeline_s", "peak_rss_mib"]
# per-stage CPU time, printed for the workloads that run the stage's commands;
# too short on some workloads to hold a bound on a shared host (see README.md)
STAGES = {
    "synth_s": ("planted-world", "synth"),
    "mixing_s": ("mixing",),
    "train_emb_s": ("train-emb",),
    "eval_s": ("build-sessions", "diffusion", "eval-next", "eval-link", "eval-related",
               "eval-topic", "report"),
}


def _rate(n, s):
    return n / s if s > 0 else 0.0


def layer_metrics(traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pipeline. A layer that did not run reports 0."""
    tr = traced["trace"]
    st = spans.self_times(tr["spans"])
    agg = tr["aggregated"]
    c = tr["counts"]

    def t(name):
        return st.get(name, 0.0)

    def n(name):
        return c.get(name, 0)

    rng_calls, rng_s = agg.get("stats.rng_stream", [0, 0.0])
    corpus_io = t("sessions.load_corpus") + t("sessions.save_corpus")
    ami_s = t("mixing.adjusted_mi") + t("mixing.expected_mi")
    return {
        "graph.load_edge_list_s": (t("graph.load_edge_list"), "s"),
        "graph.edges_per_s": (_rate(n("graph.edges"), t("graph.load_edge_list")), "1/s"),
        "graph.load_clickstream_s": (t("graph.load_clickstream"), "s"),
        "graph.click_rows_per_s": (_rate(n("graph.click_rows"), t("graph.load_clickstream")), "1/s"),
        "graph.model_build_s": (t("graph.model_build"), "s"),
        "sessions.load_corpus_s": (t("sessions.load_corpus"), "s"),
        "sessions.save_corpus_s": (t("sessions.save_corpus"), "s"),
        "sessions.corpus_pages_per_s": (_rate(n("sessions.pages"), corpus_io), "1/s"),
        "sessions.load_events_s": (t("sessions.load_events"), "s"),
        "sessions.build_forest_s": (t("sessions.build_forest"), "s"),
        "sessions.events_per_s": (_rate(n("sessions.events"), t("sessions.build_forest")), "1/s"),
        "synth.generate_corpus_s": (t("synth.generate_corpus"), "s"),
        "synth.walk_pages_per_s": (_rate(n("synth.walk_pages"), t("synth.generate_corpus")), "1/s"),
        "synth.flagged_frac": (_rate(n("synth.flagged"), n("synth.sequences")), "ratio"),
        "synth.derive_intrinsic_stops_s": (t("synth.derive_intrinsic_stops"), "s"),
        "synth.generate_planted_world_s": (t("synth.generate_planted_world"), "s"),
        "synth.world_pages_per_s": (_rate(n("synth.world_pages"), t("synth.generate_planted_world")), "1/s"),
        "stats.rng_stream_calls": (rng_calls, "count"),
        "stats.rng_stream_s": (rng_s, "s"),
        "stats.bootstrap_s": (t("stats.bootstrap"), "s"),
        "mixing.flow_tables_s": (t("mixing.flow_tables"), "s"),
        "mixing.triples_per_s": (_rate(n("mixing.triples"), t("mixing.flow_tables")), "1/s"),
        "mixing.adjusted_mi_s": (t("mixing.adjusted_mi"), "s"),
        "mixing.expected_mi_s": (t("mixing.expected_mi"), "s"),
        "mixing.tables_scored": (n("mixing.tables_scored"), "count"),
        "mixing.cells_scored": (n("mixing.cells_scored"), "count"),
        "mixing.tables_over_5000": (n("mixing.tables_over_5000"), "count"),
        "mixing.ami_tables_per_s": (_rate(n("mixing.tables_scored"), ami_s), "1/s"),
        "embeddings.init_s": (t("embeddings.init"), "s"),
        "embeddings.train_s": (t("embeddings.train"), "s"),
        "embeddings.page_epochs_per_s": (_rate(n("embeddings.page_epochs"), t("embeddings.train")), "1/s"),
        "embeddings.final_loss": (n("embeddings.final_loss"), "nats"),
        "diffusion.curve_s": (t("diffusion.curve"), "s"),
        "diffusion.embedding_io_s": (t("diffusion.embedding_io"), "s"),
        "diffusion.distances": (n("diffusion.distances"), "count"),
        "downstream.corpus_triples_s": (t("downstream.corpus_triples"), "s"),
        "downstream.fit_markov2_s": (t("downstream.fit_markov2"), "s"),
        "downstream.evaluate_mrr_s": (t("downstream.evaluate_mrr"), "s"),
        "downstream.mrr_queries_per_s": (_rate(n("downstream.mrr_queries"), t("downstream.evaluate_mrr")), "1/s"),
        "downstream.mrr_zero_frac": (_rate(n("downstream.mrr_zero"), n("downstream.mrr_queries")), "ratio"),
        "downstream.build_added_links_s": (t("downstream.build_added_links"), "s"),
        "downstream.rank_links_s": (t("downstream.rank_links"), "s"),
        "downstream.link_candidates": (n("downstream.link_candidates"), "count"),
        "downstream.topic_s": (t("downstream.topic"), "s"),
        "downstream.relatedness_s": (t("downstream.relatedness"), "s"),
        "cli.import_s": (traced["import_s"], "s"),
        "cli.self_s": (sum(v for k, v in st.items() if k.startswith("cli.")), "s"),
        "cli.cpu_s": (sum(cmd["cpu"] for cmd in traced["commands"]), "s"),
    }


def trace_sum_problem(traced: dict) -> str | None:
    """Self times of all spans plus aggregated calls must add up to the commands' CPU time."""
    tr = traced["trace"]
    covered = sum(spans.self_times(tr["spans"]).values())
    covered += sum(s for _, s in tr["aggregated"].values())
    cpu = sum(cmd["cpu"] for cmd in traced["commands"])
    if abs(covered - cpu) > SUM_TOLERANCE * cpu:
        return "traced self times sum to %.4f s, commands took %.4f s" % (covered, cpu)
    return None


def run_pipeline(world, commands, trace: bool, tag: str, min_seconds: float = 0.0) -> dict:
    """Run one pipeline process; return its result with `pipeline_s` added."""
    plan = {"src": SRC, "commands": commands, "trace": trace, "min_seconds": min_seconds,
            "log": world.path("%s.log" % tag), "result": world.path("%s.json" % tag)}
    plan_path = world.path("%s.plan.json" % tag)
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    if os.path.exists(plan["result"]):
        os.remove(plan["result"])
    env = dict(os.environ, **PINNED_ENV)
    with open(world.path("%s.stderr" % tag), "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "pipeline.py"), plan_path],
                                env=env, stdout=err, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(plan["result"]):
        with open(world.path("%s.stderr" % tag), encoding="utf-8") as f:
            sys.stderr.write("pipeline process failed (exit %d):\n%s" % (proc.returncode, f.read()[-2000:]))
        return {"commands": None}
    with open(plan["result"], encoding="utf-8") as f:
        result = json.load(f)
    result.update(pipeline_s=usage.ru_utime + usage.ru_stime, pipeline_wall_s=wall,
                  peak_rss_mib=result["peak_rss_kib"] / 1024.0)
    return result


def count_failures(world, commands, result) -> int:
    """Failed commands of one pipeline: non-zero exit, exception, or failed output check."""
    if result["commands"] is None:
        return len(commands)
    failed = 0
    for i, cmd in enumerate(result["commands"]):
        argv = commands[i % len(commands)]
        problems = [] if cmd["rc"] == 0 else ["exit code %s" % cmd["rc"]]
        if cmd["error"]:
            problems.append(cmd["error"].strip().splitlines()[-1])
        if not problems:
            problems = checks.check(world, argv)
        if problems:
            failed += 1
            sys.stderr.write("FAILED %s: %s\n" % (" ".join(argv[:1]), "; ".join(problems[:3])))
    return failed


def end_to_end(names, result) -> dict[str, tuple[float, str]]:
    """End-to-end values of one plain pipeline, plus the printed-only stage times."""
    values = {"pipeline_s": (result["pipeline_s"], "s"),
              "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
              "pipeline_wall_s": (result["pipeline_wall_s"], "s")}
    for stage, members in STAGES.items():
        cpu = [c["cpu"] for n, c in zip(names, result["commands"]) if n in members]
        if cpu:
            values[stage] = (sum(cpu), "s")
    return values


def _medians(per_rep: list[dict]) -> dict[str, tuple[float, str]]:
    return {name: (statistics.median(r[name][0] for r in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, run and check one workload; return metrics and failure counts."""
    work = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    started = time.perf_counter()
    try:
        world = gen.generate(workload, seed, work)
        commands = plans.PLANS[workload](world)
        attempted = failed = 0
        setup = {"commands": None}
        if not trace:
            setup = run_pipeline(world, [commands[0]] * SETUP_REPS, False, "setup", SETUP_MIN_S)
            attempted += len(setup["commands"] or commands[:1])
            failed += count_failures(world, commands[:1], setup)
        trace_problems: list[str] = []
        plain, traced = [], []
        t0 = time.perf_counter()
        rep = 0
        while True:
            now = time.perf_counter()
            elapsed = now - t0
            late = now - started + elapsed / max(rep, 1) > MAX_RUN_S
            if rep and (late or (rep >= MIN_REPS and elapsed >= seconds)):
                break
            rep += 1
            for tag in (("plain", "traced") if trace else ("plain",)):
                result = run_pipeline(world, commands, tag == "traced", "%s%d" % (tag, rep))
                attempted += len(commands)
                failed += count_failures(world, commands, result)
                if result["commands"] is None:
                    continue
                if tag == "traced":
                    trace_problems += result["trace_problems"]
                    problem = trace_sum_problem(result)
                    if problem:
                        trace_problems.append(problem)
                    traced.append(result)
                else:
                    plain.append(result)
        metrics: dict[str, tuple[float, str]] = {}
        if setup["commands"]:
            metrics["setup_s"] = (statistics.median(c["cpu"] for c in setup["commands"]), "s")
        if plain:
            names = [argv[0] for argv in commands]
            metrics.update(_medians([end_to_end(names, r) for r in plain]))
        detail = {}
        if traced:
            detail = _medians([layer_metrics(r) for r in traced])
            if plain:
                overhead = (statistics.median(r["pipeline_s"] for r in traced)
                            / statistics.median(r["pipeline_s"] for r in plain) - 1.0)
                detail["bench.trace_overhead_frac"] = (overhead, "ratio")
        for p in trace_problems:
            sys.stderr.write("TRACER %s\n" % p)
        return {"workload": workload, "attempted": attempted, "failed": failed,
                "trace_ok": not trace_problems, "reps": len(plain),
                "end_to_end": metrics, "per_layer": detail}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            **PINNED_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "navsynth", "cli.py")):
        print("no navsynth source under %s/; run from the repository root" % SRC, file=sys.stderr)
        return 2

    print("env: %s" % json.dumps(environment(), sort_keys=True))
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        print("%s: %d pipelines, %d commands, %d failed" % (r["workload"], r["reps"],
                                                            r["attempted"], r["failed"]))
        shown = dict(r["end_to_end"])
        shown["error_rate"] = (r["failed"] / r["attempted"] if r["attempted"] else 1.0, "ratio")
        shown.update(r["per_layer"])
        for name, (value, unit) in shown.items():
            print("  %-34s %14.6g %s" % (name, value, unit))
        reported = r["per_layer"] if args.trace else {
            name: r["end_to_end"][name] for name in END_TO_END if name in r["end_to_end"]}
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name, (value, unit) in reported.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0 and attempted > 0 and all(r["trace_ok"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
