"""A memoryless geometric world for the tests: click weights favor semantically near targets,
and the node positions are the ground-truth embedding. Its walks and bigram table come from
`navsynth.synth`, as the planted world's do. Its one generator is `stats.rng_stream`, looked
up on the module, so that a test that counts the streams opened counts this one too."""

from dataclasses import dataclass

import numpy as np

from navsynth import stats
from navsynth.graph import ClickstreamTable, HyperlinkGraph, Interner, TransitionModel
from navsynth.sessions import SequenceCorpus
from navsynth.synth import _bigram_table, _world_walks


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
    seed: int = 0


@dataclass
class GeometricWorld:
    graph: HyperlinkGraph
    clickstream: ClickstreamTable
    corpus: SequenceCorpus
    positions: np.ndarray  # unit vectors, one per node
    weighted: TransitionModel


def generate_geometric_world(spec: GeometricWorldSpec) -> GeometricWorld:
    """Random unit positions, links to the nearest and to random far nodes, click weights that
    decay with cosine distance, and a memoryless corpus walked on those weights."""
    rng = stats.rng_stream(spec.seed, 0)
    interner = Interner()
    interner.intern_all(["g%05d" % i for i in range(spec.num_nodes)])

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

    corpus = SequenceCorpus(*_world_walks(weighted, spec), "Logs")

    return GeometricWorld(graph, _bigram_table(interner, corpus), corpus, pos, weighted)
