"""Synthetic corpus generation: biased walks matched to a reference corpus, and planted benchmark worlds."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import ClickstreamTable, HyperlinkGraph, Interner, TransitionModel
from .sessions import SequenceCorpus
from .stats import rng_stream

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


def generate_sequence(model: TransitionModel, spec: WalkSpec,
                      rng: np.random.Generator) -> tuple[list[int], bool]:
    """Walk to exactly `target_length` pages, backtracking out of dead ends.

    On reaching a terminal node before the target length, the walk steps
    back to the parent, removes the failing child from that parent's local
    candidate set, and resamples. Returns (pages, flagged); flagged marks
    walks that could not reach the target length (terminal start, or retry
    budget exhausted).
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


def generate_sequence_intrinsic(model: TransitionModel, start: int,
                                rng: np.random.Generator,
                                rule: StoppingRule) -> list[int]:
    """Walk with a per-node stop decision instead of a length target.

    At each node the walk stops with the model's stop probability (always at
    terminal nodes) and is hard-capped at rule.max_length.
    """
    path = [start]
    while len(path) < rule.max_length:
        node = path[-1]
        if model.is_terminal(node):
            break
        if rng.random() < model.stop_probs[node]:
            break
        path.append(model.step(node, rng))
    return path


def derive_intrinsic_stops(table: ClickstreamTable, num_nodes: int) -> np.ndarray:
    """Default intrinsic-stop rule from click flow imbalance.

    stop(v) = clamp(1 - out_clicks(v) / in_clicks(v), MIN_STOP_PROB, 1) where
    in_clicks(v) > 0, else MIN_STOP_PROB. Pluggable: pass any array of the same
    shape to TransitionModel.with_stops instead.
    """
    sources, targets, counts = table.arrays()
    outgoing = np.bincount(sources, weights=counts, minlength=num_nodes)[:num_nodes]
    incoming = np.bincount(targets, weights=counts, minlength=num_nodes)[:num_nodes]
    stops = np.full(num_nodes, MIN_STOP_PROB)
    has_in = incoming > 0
    ratio = np.divide(outgoing, incoming, out=np.zeros(num_nodes), where=has_in)
    stops[has_in] = np.clip(1.0 - ratio[has_in], MIN_STOP_PROB, 1.0)
    return stops


def generate_corpus(model: TransitionModel, reference: SequenceCorpus,
                    rule: StoppingRule, seed: int, kind: str) -> SequenceCorpus:
    """Generate one synthetic sequence per reference sequence.

    Under extrinsic stopping each synthetic sequence copies its reference's
    start and length. Each sequence draws from an independent RNG substream
    keyed by (seed, index), so the output is independent of worker layout.
    """
    if not reference.sequences:
        raise ValueError("empty reference corpus")
    sequences: list[list[int]] = []
    flagged: set[int] = set()
    for i, ref in enumerate(reference.sequences):
        rng = rng_stream(seed, i)
        start = ref[0]
        if start >= model.num_nodes:
            sequences.append([start])
            flagged.add(i)
            continue
        if rule.variant == "intrinsic":
            seq = generate_sequence_intrinsic(model, start, rng, rule)
        else:
            seq, bad = generate_sequence(model, WalkSpec(start, len(ref)), rng)
            if bad:
                flagged.add(i)
        sequences.append(seq)
    meta = {"seed": seed, "stopping": rule.variant, "flagged_count": len(flagged),
            "dropped_click_mass": model.dropped_click_mass}
    return SequenceCorpus(sequences, kind, flagged, meta)


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
        if self.out_degree >= self.num_nodes:
            raise ValueError("out_degree must be < num_nodes")


@dataclass
class PlantedWorld:
    graph: HyperlinkGraph
    clickstream: ClickstreamTable
    corpus: SequenceCorpus
    # ground truth for evaluation: per-(prev, current) preferred successor
    preferred: dict[tuple[int, int], int]
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
    probs = np.empty((n, d))
    for v in range(n):
        w = rng.gamma(1.0, 1.0, size=d) + 1e-3
        probs[v] = w / w.sum()
    markov1 = TransitionModel(interner, indptr, graph.indices, probs.ravel())

    preferred: dict[tuple[int, int], int] = {}
    sources, targets = graph.edge_arrays()
    for p, c in zip(sources.tolist(), targets.tolist()):
        preferred[(p, c)] = int(out[c, rng.integers(d)])

    lam = spec.memory_strength
    sequences = []
    for i in range(spec.corpus_size):
        seq_rng = rng_stream(spec.seed, i + 1)
        length = min(2 + int(seq_rng.geometric(spec.length_p)) - 1, spec.max_length)
        v = int(seq_rng.integers(spec.num_nodes))
        seq = [v, markov1.step(v, seq_rng)]
        while len(seq) < length:
            prev, cur = seq[-2], seq[-1]
            if lam > 0.0 and seq_rng.random() < lam:
                seq.append(preferred[(prev, cur)])
            else:
                seq.append(markov1.step(cur, seq_rng))
        sequences.append(seq)
    corpus = SequenceCorpus(sequences, "Logs", metadata={"seed": spec.seed,
                                                         "memory_strength": lam})

    return PlantedWorld(graph, _bigram_table(interner, sequences), corpus, preferred, markov1)


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
    out = np.empty((n, degree), dtype=np.int64)
    probs = np.empty((n, degree))
    for v in range(n):
        d = cos_dist[v].copy()
        d[v] = np.inf
        near = np.argsort(d)[: spec.near_links]
        pool = np.setdiff1d(np.arange(n), np.append(near, v))
        far = rng.choice(pool, size=spec.far_links, replace=False)
        out[v] = np.sort(np.concatenate([near, far]))
        w = np.exp(-cos_dist[v][out[v]] / spec.locality)
        probs[v] = w / w.sum()
    indptr = np.arange(0, n * degree + 1, degree)
    graph = HyperlinkGraph(interner, indptr, out.ravel())
    weighted = TransitionModel(interner, indptr, graph.indices, probs.ravel())

    sequences = []
    for i in range(spec.corpus_size):
        seq_rng = rng_stream(spec.seed, i + 1)
        length = min(2 + int(seq_rng.geometric(spec.length_p)) - 1, spec.max_length)
        v = int(seq_rng.integers(spec.num_nodes))
        seq = [v]
        while len(seq) < length:
            seq.append(weighted.step(seq[-1], seq_rng))
        sequences.append(seq)
    corpus = SequenceCorpus(sequences, "Logs", metadata={"seed": spec.seed})

    return GeometricWorld(graph, _bigram_table(interner, sequences), corpus, pos, weighted)


def _bigram_table(interner: Interner, sequences) -> ClickstreamTable:
    """Clickstream of a corpus: the count of every consecutive page pair."""
    return ClickstreamTable(interner, dict(Counter(
        (a, b) for seq in sequences for a, b in zip(seq, seq[1:]))))
