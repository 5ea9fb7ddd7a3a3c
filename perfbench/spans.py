"""Outside-in tracer for the traced benchmark run.

`Tracer.install` wraps the public functions of each navsynth module, listed
in `TARGETS`, at every binding site: the defining module, and each
`from .x import f` copy in the other navsynth modules. A wrapped call records a
span (name, start, end, parent). Per-item calls (`AGGREGATED`) record only a
count and a total time, added to the enclosing span. Spans stay in memory
until `dump`. Item counts are taken from arguments and results after the call
returns; that bookkeeping is timed as its own `bench.count` span, so no layer
is charged for it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# CPU time of this process: on a shared VM the wall clock also counts time
# the host gave to other guests
_clock = time.process_time


def _pages(corpus):
    return sum(len(s) for s in corpus.sequences)


def _count_edges(t, args, res):
    t.add("graph.edges", res.num_edges + res.self_loops_dropped + res.duplicates_dropped)


def _count_click_rows(t, args, res):
    t.add("graph.click_rows", len(res.entries) + res.skipped_rows)


def _count_loaded_pages(t, args, res):
    t.add("sessions.pages", _pages(res))


def _count_saved_pages(t, args, res):
    t.add("sessions.pages", _pages(args[0]))


def _count_events(t, args, res):
    t.add("sessions.events", len(args[0]))


def _count_walks(t, args, res):
    t.add("synth.walk_pages", _pages(res))
    t.add("synth.sequences", len(res.sequences))
    t.add("synth.flagged", len(res.flagged))


def _count_world(t, args, res):
    t.add("synth.world_pages", _pages(res.corpus))


def _count_triples(t, args, res):
    t.add("mixing.triples", sum(max(len(s) - 2, 0) for s in args[0].sequences))


def _count_tables(t, args, res):
    t.add("mixing.tables_scored", 1)


def _count_emi(t, args, res):
    t.add("mixing.cells_scored", len(args[0]) * len(args[1]))
    t.add("mixing.tables_over_5000", int(args[2] > 5000))


def _count_sgns(t, args, res):
    trainer = args[0]
    t.add("embeddings.page_epochs", _pages(trainer) * trainer.config.epochs)
    t.set("embeddings.final_loss", trainer.epoch_losses[-1])


def _count_distances(t, args, res):
    t.add("diffusion.distances", sum(res.counts))


def _count_mrr(t, args, res):
    t.add("downstream.mrr_queries", res.num_queries)
    t.add("downstream.mrr_zero", int((res.reciprocal_ranks == 0).sum()))


def _count_links(t, args, res):
    t.add("downstream.link_candidates", len(args[1]))


# (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("navsynth.graph", "load_edge_list", "graph.load_edge_list", _count_edges),
    ("navsynth.graph", "load_clickstream", "graph.load_clickstream", _count_click_rows),
    ("navsynth.graph", "build_transition_model", "graph.model_build", None),
    ("navsynth.graph", "apply_k_anonymity", "graph.model_build", None),
    ("navsynth.graph", "TransitionModel.with_stops", "graph.model_build", None),
    ("navsynth.sessions", "load_corpus", "sessions.load_corpus", _count_loaded_pages),
    ("navsynth.sessions", "save_corpus", "sessions.save_corpus", _count_saved_pages),
    ("navsynth.sessions", "load_pageview_events", "sessions.load_events", None),
    ("navsynth.sessions", "build_forest", "sessions.build_forest", _count_events),
    ("navsynth.synth", "generate_corpus", "synth.generate_corpus", _count_walks),
    ("navsynth.synth", "derive_intrinsic_stops", "synth.derive_intrinsic_stops", None),
    ("navsynth.synth", "generate_planted_world", "synth.generate_planted_world", _count_world),
    ("navsynth.stats", "bootstrap_mean_ci", "stats.bootstrap", None),
    ("navsynth.mixing", "collect_flow_tables", "mixing.flow_tables", _count_triples),
    ("navsynth.mixing", "adjusted_mi", "mixing.adjusted_mi", _count_tables),
    ("navsynth.mixing", "expected_mi", "mixing.expected_mi", _count_emi),
    ("navsynth.embeddings", "SgnsTrainer.__init__", "embeddings.init", None),
    ("navsynth.embeddings", "SgnsTrainer.train", "embeddings.train", _count_sgns),
    ("navsynth.diffusion", "diffusion_curve", "diffusion.curve", _count_distances),
    ("navsynth.diffusion", "save_embeddings", "diffusion.embedding_io", None),
    ("navsynth.diffusion", "load_embeddings", "diffusion.embedding_io", None),
    ("navsynth.downstream", "corpus_triples", "downstream.corpus_triples", None),
    ("navsynth.downstream", "fit_markov2", "downstream.fit_markov2", None),
    ("navsynth.downstream", "evaluate_mrr", "downstream.evaluate_mrr", _count_mrr),
    ("navsynth.downstream", "build_added_links", "downstream.build_added_links", None),
    ("navsynth.downstream", "rank_links", "downstream.rank_links", _count_links),
    ("navsynth.downstream", "topic_classification", "downstream.topic", None),
    ("navsynth.downstream", "relatedness_eval", "downstream.relatedness", None),
]
AGGREGATED = [("navsynth.stats", "rng_stream", "stats.rng_stream")]


class Tracer:
    """Spans are [name, start, end, parent, aggregated child time]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.aggregated: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}  # id(original) -> (original, owner, attr, wrapper)

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def set(self, key, value):
        self.counts[key] = value

    def _open(self, name):
        self.spans.append([name, _clock(), 0.0,
                           self._stack[-1] if self._stack else -1, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = _clock()

    @contextlib.contextmanager
    def root(self, name):
        """A top-level span (one CLI command)."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _span_wrapper(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                self._open("bench.count")
                try:
                    counter(self, args, res)
                finally:
                    self._close()
            return res
        return wrapper

    def _aggregate_wrapper(self, fn, name):
        slot = self.aggregated.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                slot[0] += 1
                slot[1] += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt
        return wrapper

    def install(self) -> list[str]:
        """Wrap every target at every binding site; return the self-test's findings."""
        for module, attr, name, counter in TARGETS + [(m, a, n, "agg") for m, a, n in AGGREGATED]:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr]
            wrapper = (self._aggregate_wrapper(fn, name) if counter == "agg"
                       else self._span_wrapper(fn, name, counter))
            setattr(owner, attr, wrapper)
            self._wrapped[id(fn)] = (fn, owner, attr, wrapper)
        for mod, key, fn in self._unwrapped_bindings():
            setattr(mod, key, self._wrapped[id(fn)][3])
        return self.self_test()

    def _unwrapped_bindings(self):
        """(module, name, original) for each navsynth module attribute still bound to a target."""
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "navsynth" or mod_name.startswith("navsynth.")):
                continue
            for key, value in list(vars(mod).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    yield mod, key, value

    def self_test(self) -> list[str]:
        """Names still bound to an unwrapped target, anywhere in navsynth."""
        problems = ["%s.%s is unwrapped" % (mod.__name__, key)
                    for mod, key, _ in self._unwrapped_bindings()]
        for fn, owner, attr, wrapper in self._wrapped.values():
            if owner.__dict__.get(attr) is not wrapper:
                problems.append("%s.%s is unwrapped" % (owner.__name__, attr))
        return problems

    def dump(self) -> dict:
        return {"spans": self.spans, "aggregated": self.aggregated, "counts": self.counts}


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed self time: duration minus direct children's time."""
    child = [s[4] for s in spans]
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - c
    return out
