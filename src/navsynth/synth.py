"""Synthetic corpus generation: biased walks matched to a reference corpus, and planted benchmark worlds."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graph import (ClickstreamTable, HyperlinkGraph, Interner, TransitionModel, _row_offsets,
                    apply_k_anonymity, build_transition_model, pair_keys, unpack_pairs)
from .sessions import SequenceCorpus
from .stats import counter_uniforms, rng_stream

DEFAULT_RETRY_BUDGET = 100
MIN_STOP_PROB = 0.01  # intrinsic stop probability floor
INTRINSIC_MAX_LENGTH = 50  # pages an intrinsic walk reaches if it never stops
# a world walk has 2 + k pages with probability (1 - WORLD_LENGTH_P)^k WORLD_LENGTH_P, capped
WORLD_LENGTH_P = 0.35
WORLD_MAX_LENGTH = 30


def generate_sequence(model: TransitionModel, start: int, length: int,
                      draw) -> tuple[list[int], bool]:
    """Walk from `start` to exactly `length` pages, backtracking out of dead ends.

    On reaching a terminal node before the target length, the walk steps
    back to the parent, removes the failing child from that parent's local
    candidate set, and resamples. Returns (pages, flagged); flagged marks
    walks that could not reach the target length (terminal start, or retry
    budget exhausted). Each page appended takes one `draw()` in [0, 1).
    """
    path = [start]
    failed: list[set[int]] = [set()]
    retries = 0
    while len(path) < length:
        nxt = _step_excluding(model, path[-1], failed[-1], draw)
        if nxt is None:
            # dead end: back-track, or give up at the root
            if len(path) == 1:
                return path, True
            retries += 1
            if retries > DEFAULT_RETRY_BUDGET:
                return path, True
            failed.pop()
            failed[-1].add(path.pop())
            continue
        path.append(nxt)
        failed.append(set())
    return path, False


def _step_excluding(model, node, banned, draw):
    """Sample a successor of `node` outside `banned` on one `draw()`; None if there is none.
    The running sums add left to right as `np.cumsum` does, so with nothing banned the row
    sums are `model.cum`'s and the pick is the lockstep's."""
    row = zip(model.successors(node).tolist(), model.row_probs(node).tolist())
    kept = [(s, p) for s, p in row if s not in banned]
    if not kept:
        return None
    succ, probs = zip(*kept)
    cum = list(accumulate(probs))
    return succ[bisect_right(cum, draw() * cum[-1])]


def _row_search(cum: np.ndarray, lo: np.ndarray, hi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-row `lo + cum[lo:hi].searchsorted(r, side="right")`: one pass per halving."""
    while (open_ := lo < hi).any():
        mid = (lo + hi) >> 1
        right = open_ & (cum.take(mid, mode="clip") <= r)
        lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
    return lo


def _lockstep(model: TransitionModel, seed: int, starts: np.ndarray, lengths: np.ndarray,
              first_draw: int = 0, stop_probs=None, memory=None):
    """Walk w from `starts[w]` to at most `lengths[w]` pages, all walks one step per pass.
    Step t decides on u(seed, w, first_draw + 2t): stop with `stop_probs`, or (t > 0) follow
    `memory = (strength, preferred)` from edge e to `preferred[e]`; else u(seed, w, first_draw
    + 2t + 1) picks the successor as `_step_excluding` does with nothing banned. Returns
    (pages, offsets, walks ended at a terminal)."""
    walk = np.flatnonzero(lengths > 1)
    node, edge = starts[walk], np.zeros(len(walk), dtype=np.int64)
    chunks, dead = [(np.arange(len(starts)), starts)], [walk[:0]]
    for t in range(int(lengths.max(initial=1)) - 1):
        go = model.indptr[node] < model.indptr[node + 1]
        dead.append(walk[~go])
        if stop_probs is not None:
            go &= counter_uniforms(seed, walk, first_draw + 2 * t) >= stop_probs[node]
        walk, node, edge = walk[go], node[go], edge[go]
        lo, hi = model.indptr[node], model.indptr[node + 1]
        u = counter_uniforms(seed, walk, first_draw + 2 * t + 1)
        nxt = _row_search(model.cum, lo, hi, u * model.cum[hi - 1])
        if memory is not None and t > 0:
            recall = counter_uniforms(seed, walk, first_draw + 2 * t) < memory[0]
            nxt = np.where(recall, memory[1][edge], nxt)
        node, edge = model.indices[nxt], nxt
        chunks.append((walk, node))
        more = lengths[walk] > t + 2
        walk, node, edge = walk[more], node[more], edge[more]
    bounds = _row_offsets(np.concatenate([w for w, _ in chunks]), len(starts))
    flat = np.empty(bounds[-1], dtype=np.int64)
    while chunks:  # chunk t holds page t of each walk it lists; popping frees it
        w, pages = chunks.pop()
        flat[bounds[w] + len(chunks)] = pages
    return flat, bounds, np.concatenate(dead)


def derive_intrinsic_stops(table: ClickstreamTable, num_nodes: int) -> np.ndarray:
    """Default intrinsic-stop rule from click flow imbalance.

    stop(v) = clamp(1 - out_clicks(v) / in_clicks(v), MIN_STOP_PROB, 1) where
    in_clicks(v) > 0, else MIN_STOP_PROB. Pluggable: pass any array of the same
    shape to TransitionModel.with_stops instead.
    """
    sources, targets = unpack_pairs(table.entries)
    outgoing = np.bincount(sources, weights=table.counts, minlength=num_nodes)[:num_nodes]
    incoming = np.bincount(targets, weights=table.counts, minlength=num_nodes)[:num_nodes]
    stops = np.full(num_nodes, MIN_STOP_PROB)
    has_in = incoming > 0
    ratio = np.divide(outgoing, incoming, out=np.zeros(num_nodes), where=has_in)
    stops[has_in] = np.clip(1.0 - ratio[has_in], MIN_STOP_PROB, 1.0)
    return stops


def generate_corpus(model: TransitionModel, reference: SequenceCorpus,
                    intrinsic: bool, seed: int, kind: str) -> SequenceCorpus:
    """Generate one synthetic sequence per reference sequence; sequence i reads only
    u(seed, i, draw). Each starts at its reference's start. An intrinsic walk stops with
    `model.stop_probs`, at a terminal node or at INTRINSIC_MAX_LENGTH pages. An extrinsic
    walk copies its reference's length, and one that meets a dead end is rerun by
    `generate_sequence`, whose k-th draw is the lockstep's successor draw 2k + 1."""
    if not len(reference):
        raise ValueError("empty reference corpus")
    starts = reference.pages[reference.offsets[:-1]]
    lengths = (np.full(len(starts), INTRINSIC_MAX_LENGTH) if intrinsic
               else np.diff(reference.offsets))
    missing = starts >= model.num_nodes
    lengths[missing] = 1
    pages, offsets, dead = _lockstep(model, seed, starts, lengths,
                                     stop_probs=model.stop_probs if intrinsic else None)
    dead = np.sort(dead[:0] if intrinsic else dead)  # a terminal node ends an intrinsic walk
    walked = np.diff(offsets)
    bad = missing.copy()  # missing and terminal starts stay
    bad[dead[walked[dead] == 1]] = True
    rerun, retries = dead[walked[dead] > 1], 0
    pieces, done = [], 0  # the pages before each rerun walk, then the walk
    for i in rerun.tolist():
        draws = counter_uniforms(seed, i, 2 * np.arange(lengths[i] + DEFAULT_RETRY_BUDGET) + 1)
        left = iter(draws.tolist())
        seq, bad[i] = generate_sequence(model, int(starts[i]), int(lengths[i]), left.__next__)
        # each draw appended a page and each backtrack removed one
        retries += len(draws) - len([*left]) - (len(seq) - 1)
        pieces += [pages[done:offsets[i]], seq]
        done, walked[i] = offsets[i + 1], len(seq)
    pages = np.concatenate(pieces + [pages[done:]], dtype=np.int64)
    flagged = np.flatnonzero(bad)
    meta = {"seed": seed, "stopping": "intrinsic" if intrinsic else "extrinsic-length",
            "flagged_count": len(flagged), "dropped_click_mass": model.dropped_click_mass,
            "walks_rerun": len(rerun), "backtrack_retries": retries}
    return SequenceCorpus(pages, np.cumsum(np.append(0, walked)), kind, flagged, meta)


SYNTH_KINDS = {
    "clickstream-priv": "Clickstream-Priv",
    "clickstream-pub": "Clickstream-Pub",
    "clickstream-pub-intrinsic": "Clickstream-Pub(I)",
    "graph": "Graph",
}


def synthesize(kind: str, graph: HyperlinkGraph, clickstream: ClickstreamTable | None,
               reference: SequenceCorpus, seed: int) -> SequenceCorpus:
    """The `generate_corpus` walks of a SYNTH_KINDS `kind` on `graph`, weighted by
    `clickstream` for every kind but "graph"."""
    intrinsic = kind == "clickstream-pub-intrinsic"
    if kind == "graph":
        model = build_transition_model(graph)
    elif clickstream is None:
        raise ValueError("kind %r requires a clickstream" % kind)
    else:
        if kind in ("clickstream-pub", "clickstream-pub-intrinsic"):
            clickstream = apply_k_anonymity(clickstream)
        model = build_transition_model(graph, clickstream)
        if intrinsic:
            model = model.with_stops(derive_intrinsic_stops(clickstream, model.num_nodes))
    return generate_corpus(model, reference, intrinsic, seed, SYNTH_KINDS[kind])


@dataclass
class PlantedWorldSpec:
    """Benchmark world with tunable second-order memory strength."""

    num_nodes: int = 200
    out_degree: int = 8
    memory_strength: float = 0.0  # 0 = pure Markov-1
    corpus_size: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.memory_strength <= 1.0):
            raise ValueError("memory_strength must lie in [0, 1]")
        if not 1 <= self.out_degree < self.num_nodes:
            raise ValueError("out_degree must be >= 1 and < num_nodes")
        if self.corpus_size < 0:
            raise ValueError("corpus_size must be >= 0")


@dataclass
class PlantedWorld:
    graph: HyperlinkGraph
    clickstream: ClickstreamTable
    corpus: SequenceCorpus
    # ground truth for evaluation: edge e = (p, c) prefers c's out-edge preferred_edge[e]
    preferred_edge: np.ndarray
    markov1: TransitionModel


def generate_planted_world(spec: PlantedWorldSpec) -> PlantedWorld:
    """Random out-regular graph plus a reference corpus with planted memory.

    The corpus is emitted by a second-order process: with probability
    `memory_strength` the next step is the preferred successor of the
    (prev, current) pair, otherwise it follows a fixed Markov-1 row. The
    returned clickstream table holds the corpus's bigram counts, so Markov-1
    synthesis from it plays the role of the private-clickstream analogue.
    """
    rng = rng_stream(spec.seed, 0)
    interner = Interner()
    interner.intern_all(["n%05d" % i for i in range(spec.num_nodes)])

    n, d = spec.num_nodes, spec.out_degree
    out = np.empty((n, d), dtype=np.int64)
    for v in range(n):
        choices = rng.choice(n - 1, size=d, replace=False)
        out[v] = np.sort(np.where(choices >= v, choices + 1, choices))  # skip self
    indptr = np.arange(0, n * d + 1, d)
    graph = HyperlinkGraph(interner, indptr, out.ravel())

    # fixed Markov-1 rows with random positive weights
    w = rng.gamma(1.0, 1.0, size=(n, d)) + 1e-3
    markov1 = TransitionModel(interner, indptr, graph.indices,
                              (w / w.sum(axis=1, keepdims=True)).ravel())

    preferred_edge = indptr[graph.indices] + rng.integers(d, size=n * d)

    corpus = SequenceCorpus(*_world_walks(markov1, spec, (spec.memory_strength, preferred_edge)),
                            "Logs")

    return PlantedWorld(graph, _bigram_table(interner, corpus), corpus, preferred_edge, markov1)


def _world_walks(model: TransitionModel, spec, memory=None) -> tuple[np.ndarray, np.ndarray]:
    """A world's (pages, offsets): u(seed, i, 0) draws the length of walk i by inverting the
    capped geometric law of WORLD_LENGTH_P; u(seed, i, 1) picks its start page."""
    items = np.arange(spec.corpus_size)
    tail = np.floor(np.log1p(-counter_uniforms(spec.seed, items, 0)) / np.log1p(-WORLD_LENGTH_P))
    lengths = np.minimum(2 + tail, WORLD_MAX_LENGTH).astype(np.int64)
    starts = (counter_uniforms(spec.seed, items, 1) * spec.num_nodes).astype(np.int64)
    return _lockstep(model, spec.seed, starts, lengths, first_draw=2, memory=memory)[:2]


def _bigram_table(interner: Interner, corpus: SequenceCorpus) -> ClickstreamTable:
    """Clickstream of a corpus: the count of every consecutive page pair."""
    pages, lengths = corpus.pages, np.diff(corpus.offsets)
    first = np.flatnonzero(np.arange(len(pages)) + 1 < np.repeat(corpus.offsets[1:], lengths))
    return ClickstreamTable(interner, *np.unique(pair_keys(pages[first], pages[first + 1]),
                                                 return_counts=True))
