"""Self-checks of the benchmark itself. Run from the repository root:

    python3 perfbench/selfcheck.py

1. The generator is deterministic: the same seed gives byte-identical files.
2. Each workload's reason to exist holds on the generated inputs.
3. Each output check passes on real outputs and fails on a corrupted copy.
4. The tracer leaves no navsynth name bound to an unwrapped target, notices
   one that is, and its self times add up to the traced commands' CPU time.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import statistics
import sys

import numpy as np

import checks
import gen
import plans
import run

SEED = 7
failures = 0


def report(ok: bool, text: str):
    global failures
    failures += not ok
    print("%s %s" % ("PASS" if ok else "FAIL", text), flush=True)


def _same_tree(a, b) -> bool:
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in names)


def check_determinism(work):
    for w in gen.WORKLOADS:
        a, b, c = (os.path.join(work, "%s-%s" % (w, tag)) for tag in "abc")
        gen.generate(w, SEED, a)
        gen.generate(w, SEED, b)
        gen.generate(w, SEED + 1, c)
        report(_same_tree(a, b) and not _same_tree(a, c),
               "%s: same seed gives identical files, another seed other files" % w)


def check_reasons(worlds):
    w = worlds["wide"]
    visited = {a for s in w.reference for a in s[:-1]}
    kept = {s for (s, _), c in w.clicks.items() if c > gen.K_ANONYMITY}
    dead = 1 - len(visited & kept) / len(visited)
    no_links = 1 - len({s for s, _ in w.edges}) / len(w.names)
    biggest = max(checks._triple_counts(w.reference).values())
    report(dead >= 0.3 and no_links >= 0.03 and biggest < gen.WIDE_MIN_TRIPLES and len(w.edges) >= 100_000
           and len(w.edges - w.old_edges) >= 5,
           "wide: %.0f%% of visited articles are dead ends after k-anonymity, %.1f%% have no"
           " out-links, %d edges, %d planted links, largest table %d triples"
           % (100 * dead, 100 * no_links, len(w.edges), len(w.edges - w.old_edges), biggest))

    h = worlds["hubs"]
    sizes = [n for n in checks._triple_counts(h.reference).values() if n >= gen.MIN_TRIPLES]
    over = sum(n > 5000 for n in sizes)
    report(over >= 1 and statistics.median(sizes) >= 200,
           "hubs: %d tables over 5000 triples, median surveyed table %d triples"
           % (over, statistics.median(sizes)))

    e = worlds["embed"]
    per = np.bincount(e.communities[e.vocab], minlength=gen.EMBED_COMMUNITIES)
    report(len(per) == gen.EMBED_COMMUNITIES and per.min() >= 50,
           "embed: %d communities, at least %d vocabulary articles each" % (len(per), per.min()))


def _edit_lines(path, fn):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(fn(lines))


def _set_field(path, col, value_fn):
    """Replace one field of the first data row of a CSV output."""
    def fn(lines):
        i = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")][1]
        parts = lines[i].rstrip("\n").split(",")
        parts[col] = value_fn(parts)
        lines[i] = ",".join(parts) + "\n"
        return lines
    _edit_lines(path, fn)


def _drop_edge(path):
    data = dict(np.load(path))
    data["sources"], data["targets"] = data["sources"][:-1], data["targets"][:-1]
    np.savez(path, **data)


def _append_reversed(path):
    def fn(lines):
        seq = next(ln for ln in lines if not ln.startswith("#") and ln.count("\t") >= 2)
        return lines + ["\t".join(reversed(seq.rstrip("\n").split("\t"))) + "\n"]
    _edit_lines(path, fn)


def _self_loop(path):
    def fn(lines):
        i = next(i for i, ln in enumerate(lines) if not ln.startswith("#") and "\t" in ln)
        parts = lines[i].rstrip("\n").split("\t")
        parts[1] = parts[0]
        lines[i] = "\t".join(parts) + "\n"
        return lines
    _edit_lines(path, fn)


def _nan_vector(path):
    def fn(lines):
        parts = lines[1].split(" ")
        parts[1] = "nan"
        lines[1] = " ".join(parts)
        return lines
    _edit_lines(path, fn)


def _out_dir(argv, name):
    return os.path.join(checks._arg(argv, "--out-dir"), name)


# command -> (file to corrupt, corruption)
CORRUPTIONS = {
    "ingest": (lambda a: _out_dir(a, "graph_cache.npz"), _drop_edge),
    "build-sessions": (lambda a: checks._arg(a, "--out"), _append_reversed),
    "synth": (lambda a: checks._arg(a, "--out"), _self_loop),
    "mixing": (lambda a: _out_dir(a, "ami_survey.csv"),
               lambda p: _edit_lines(p, lambda ls: ls + ["%s,%d,0.5,1.5\n" % ("Article_x", 10**6)])),
    "planted-world": (lambda a: _out_dir(a, "clickstream.tsv"), lambda p: _edit_lines(p, lambda ls: ls[:-1])),
    "eval-next": (lambda a: _out_dir(a, "next_article.csv"), lambda p: _set_field(p, 2, lambda _: "1.5")),
    "eval-link": (lambda a: _out_dir(a, "link_prediction.csv"), lambda p: _set_field(p, 2, lambda _: "-0.1")),
    "report": (lambda a: _out_dir(a, "report.csv"),
               lambda p: _set_field(p, 2, lambda f: "%.6f" % (float(f[2]) + 1))),
    "train-emb": (lambda a: checks._arg(a, "--out"), _nan_vector),
    "diffusion": (lambda a: _out_dir(a, "diffusion_curve.csv"),
                  lambda p: _set_field(p, 1, lambda f: "%.10g" % (float(f[3]) + 0.5))),
    "eval-related": (lambda a: _out_dir(a, "relatedness.csv"), lambda p: _set_field(p, 2, lambda _: "1.5")),
    "eval-topic": (lambda a: _out_dir(a, "topic_classification.csv"),
                   lambda p: _set_field(p, 2, lambda _: "1.5")),
}


def check_validators(world):
    commands = plans.PLANS[world.workload](world)
    result = run.run_pipeline(world, commands, False, "selfcheck")
    report(result["commands"] is not None and run.count_failures(world, commands, result) == 0,
           "%s: every command succeeds and passes its output check" % world.workload)
    for argv in commands:
        target, corrupt = CORRUPTIONS[argv[0]]
        path = target(argv)
        shutil.copyfile(path, path + ".orig")
        corrupt(path)
        problems = checks.check(world, argv)
        os.replace(path + ".orig", path)
        report(bool(problems) and not checks.check(world, argv),
               "%s: %s check rejects a corrupted %s (%s)"
               % (world.workload, argv[0], os.path.basename(path), (problems or ["-"])[0][:70]))


def check_tracer(world):
    commands = plans.PLANS[world.workload](world)
    result = run.run_pipeline(world, commands, True, "selfcheck-traced")
    ok = result["commands"] is not None
    report(ok and not result["trace_problems"],
           "%s: no navsynth name is left bound to an unwrapped target" % world.workload)
    report(ok and run.trace_sum_problem(result) is None,
           "%s: layer self times plus cli.self_s sum to the commands' CPU time within %g%%"
           % (world.workload, 100 * run.SUM_TOLERANCE))


def check_tracer_notices_unwrapped():
    sys.path.insert(0, run.SRC)
    import navsynth.cli
    import spans
    tracer = spans.Tracer()
    clean = tracer.install()
    fn = next(e[0] for e in tracer._wrapped.values() if e[2] == "load_edge_list")
    wrapper = navsynth.cli.load_edge_list
    navsynth.cli.load_edge_list = fn
    found = tracer.self_test()
    navsynth.cli.load_edge_list = wrapper
    report(not clean and found == ["navsynth.cli.load_edge_list is unwrapped"],
           "the tracer self-test notices a binding left unwrapped")


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "navsynth", "cli.py")):
        print("run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(run.WORK, "selfcheck-%d" % os.getpid())
    try:
        check_determinism(work)
        worlds = {w: gen.generate(w, SEED, os.path.join(work, w)) for w in gen.WORKLOADS}
        check_reasons(worlds)
        for world in worlds.values():
            check_validators(world)
            check_tracer(world)
        check_tracer_notices_unwrapped()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(run.WORK) and not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    print("%d failed" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
