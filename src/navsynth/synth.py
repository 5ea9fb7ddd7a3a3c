"""Synthetic corpus generation: biased walks matched to a reference corpus, and planted benchmark worlds."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .graph import (ClickstreamTable, HyperlinkGraph, Interner, TransitionModel, _row_offsets,
                    pair_keys, unpack_pairs)
from .sessions import SequenceCorpus
from .stats import counter_uniforms, rng_stream

DEFAULT_RETRY_BUDGET = 100
MIN_STOP_PROB = 0.01  # intrinsic stop probability floor


@dataclass
class WalkSpec:
    start: int
    target_length: int  # ignored under intrinsic stopping


@dataclass
class StoppingRule:
    variant: str = "extrinsic-length"  # or "intrinsic"
    max_length: int = 50

    def __post_init__(self):
        if self.variant not in ("extrinsic-length", "intrinsic"):
            raise ValueError("unknown stopping variant %r" % self.variant)
        if self.max_length < 2:
            raise ValueError("max_length must be >= 2")


def generate_sequence(model: TransitionModel, spec: WalkSpec, rng) -> tuple[list[int], bool]:
    """Walk to exactly `target_length` pages, backtracking out of dead ends.

    On reaching a terminal node before the target length, the walk steps
    back to the parent, removes the failing child from that parent's local
    candidate set, and resamples. Returns (pages, flagged); flagged marks
    walks that could not reach the target length (terminal start, or retry
    budget exhausted). Each page appended takes one `rng.random()` draw in [0, 1).
    """
    start = spec.start
    if model.is_terminal(start):
        return [start], spec.target_length > 1
    path = [start]
    failed: list[set[int]] = [set()]
    retries = 0
    while len(path) < spec.target_length:
        node = path[-1]
        banned = failed[-1]
        if not banned and not model.is_terminal(node):
            nxt = model.step(node, rng)
        else:
            nxt = _step_excluding(model, node, banned, rng)
        if nxt is None:
            # dead end: back-track, or give up at the root
            if len(path) == 1:
                return path, True
            retries += 1
            if retries > DEFAULT_RETRY_BUDGET:
                return path, True
            child = path.pop()
            failed.pop()
            failed[-1].add(child)
            continue
        path.append(nxt)
        failed.append(set())
    return path, False


def _step_excluding(model, node, banned, rng):
    """Sample a successor of `node` outside `banned`; None if there is none."""
    succ = model.successors(node)
    keep = np.array([s not in banned for s in succ.tolist()], dtype=bool)
    if not keep.any():
        return None
    cum = np.cumsum(model.row_probs(node)[keep])
    r = rng.random() * cum[-1]
    return int(succ[keep][cum.searchsorted(r, side="right")])


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
    + 2t + 1) steps as `model.step` does. Returns (pages, offsets, walks ended at a terminal)."""
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
                    rule: StoppingRule, seed: int, kind: str) -> SequenceCorpus:
    """Generate one synthetic sequence per reference sequence; sequence i reads only
    u(seed, i, draw). Under extrinsic stopping each copies its reference's start and length,
    and a walk that meets a dead end is rerun by `generate_sequence`, whose k-th draw is
    the lockstep's successor draw 2k + 1."""
    if not len(reference):
        raise ValueError("empty reference corpus")
    intrinsic = rule.variant == "intrinsic"
    starts = reference.pages[reference.offsets[:-1]]
    lengths = np.full(len(starts), rule.max_length) if intrinsic else np.diff(reference.offsets)
    missing = starts >= model.num_nodes
    lengths[missing] = 1
    pages, offsets, dead = _lockstep(model, seed, starts, lengths,
                                     stop_probs=model.stop_probs if intrinsic else None)
    dead = np.sort(dead[:0] if intrinsic else dead)  # a terminal node ends an intrinsic walk
    walked = np.diff(offsets)
    flagged = set(np.flatnonzero(missing).tolist()) | set(dead[walked[dead] == 1].tolist())
    rerun, retries = dead[walked[dead] > 1].tolist(), 0  # terminal starts stay
    pieces, done = [], 0  # the pages before each rerun walk, then the walk
    for i in rerun:
        draws = counter_uniforms(seed, i, 2 * np.arange(lengths[i] + DEFAULT_RETRY_BUDGET) + 1)
        left = iter(draws.tolist())
        seq, bad = generate_sequence(model, WalkSpec(int(starts[i]), int(lengths[i])),
                                     SimpleNamespace(random=left.__next__))
        if bad:
            flagged.add(i)
        # each draw appended a page and each backtrack removed one
        retries += len(draws) - len([*left]) - (len(seq) - 1)
        pieces += [pages[done:offsets[i]], seq]
        done, walked[i] = offsets[i + 1], len(seq)
    pages = np.concatenate(pieces + [pages[done:]], dtype=np.int64)
    meta = {"seed": seed, "stopping": rule.variant, "flagged_count": len(flagged),
            "dropped_click_mass": model.dropped_click_mass,
            "walks_rerun": len(rerun), "backtrack_retries": retries}
    return SequenceCorpus(pages, np.cumsum(np.append(0, walked)), kind, flagged, meta)


@dataclass
class PlantedWorldSpec:
    """Benchmark world with tunable second-order memory strength."""

    num_nodes: int = 200
    out_degree: int = 8
    memory_strength: float = 0.0  # 0 = pure Markov-1
    corpus_size: int = 5000
    length_p: float = 0.35  # geometric tail on lengths beyond 2
    max_length: int = 30
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
    for i in range(spec.num_nodes):
        interner.intern("n%05d" % i)

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
                            "Logs", metadata={"seed": spec.seed,
                                              "memory_strength": spec.memory_strength})

    return PlantedWorld(graph, _bigram_table(interner, corpus), corpus, preferred_edge, markov1)


@dataclass
class GeometricWorldSpec:
    """Memoryless world whose click weights favor semantically nearby targets.

    Node positions double as a synthetic semantic embedding: biased walks
    stay local while uniform walks take the long-range links, which is the
    contrast the diffusion analysis measures.
    """

    num_nodes: int = 300
    dim: int = 8
    near_links: int = 6
    far_links: int = 4
    locality: float = 0.15  # weight ~ exp(-distance / locality)
    corpus_size: int = 4000
    length_p: float = 0.35
    max_length: int = 30
    seed: int = 0


@dataclass
class GeometricWorld:
    graph: HyperlinkGraph
    clickstream: ClickstreamTable
    corpus: SequenceCorpus
    positions: np.ndarray  # unit vectors, one per node
    weighted: TransitionModel


def generate_geometric_world(spec: GeometricWorldSpec) -> GeometricWorld:
    rng = rng_stream(spec.seed, 0)
    interner = Interner()
    for i in range(spec.num_nodes):
        interner.intern("g%05d" % i)

    pos = rng.normal(size=(spec.num_nodes, spec.dim))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    cos_dist = 1.0 - pos @ pos.T

    n, degree = spec.num_nodes, spec.near_links + spec.far_links
    near = np.argsort(cos_dist + np.diag(np.full(n, np.inf)), axis=1)[:, :spec.near_links]
    out = np.empty((n, degree), dtype=np.int64)
    for v in range(n):
        pool = np.setdiff1d(np.arange(n), np.append(near[v], v), assume_unique=True)
        out[v] = np.sort(np.append(near[v], rng.choice(pool, size=spec.far_links, replace=False)))
    w = np.exp(-np.take_along_axis(cos_dist, out, axis=1) / spec.locality)
    probs = w / w.sum(axis=1, keepdims=True)
    indptr = np.arange(0, n * degree + 1, degree)
    graph = HyperlinkGraph(interner, indptr, out.ravel())
    weighted = TransitionModel(interner, indptr, graph.indices, probs.ravel())

    corpus = SequenceCorpus(*_world_walks(weighted, spec), "Logs", metadata={"seed": spec.seed})

    return GeometricWorld(graph, _bigram_table(interner, corpus), corpus, pos, weighted)


def _world_walks(model: TransitionModel, spec, memory=None) -> tuple[np.ndarray, np.ndarray]:
    """A world's (pages, offsets): walk i has 2 + k pages with probability (1 - length_p)^k
    length_p, capped, by inversion of u(seed, i, 0); u(seed, i, 1) picks its start page."""
    items = np.arange(spec.corpus_size)
    tail = np.floor(np.log1p(-counter_uniforms(spec.seed, items, 0)) / np.log1p(-spec.length_p))
    lengths = np.minimum(2 + tail, spec.max_length).astype(np.int64)
    starts = (counter_uniforms(spec.seed, items, 1) * spec.num_nodes).astype(np.int64)
    return _lockstep(model, spec.seed, starts, lengths, first_draw=2, memory=memory)[:2]


def _bigram_table(interner: Interner, corpus: SequenceCorpus) -> ClickstreamTable:
    """Clickstream of a corpus: the count of every consecutive page pair."""
    pages, lengths = corpus.pages, np.diff(corpus.offsets)
    first = np.flatnonzero(np.arange(len(pages)) + 1 < np.repeat(corpus.offsets[1:], lengths))
    return ClickstreamTable(interner, *np.unique(pair_keys(pages[first], pages[first + 1]),
                                                 return_counts=True))
