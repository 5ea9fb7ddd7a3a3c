"""Seeded input generator for the pipeline benchmark.

Every input the program sees comes from here, never from `navsynth
planted-world`, so a change to the program's own random draws cannot change
the workload it is judged on. The same (workload, seed) gives byte-identical
files. Besides the files, `generate` returns the ground truth the output
checks need (edges, click counts, session trees, communities).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("wide", "hubs", "embed")
K_ANONYMITY = 10  # the program's clickstream-pub threshold: counts <= 10 are dropped
MIN_TRIPLES = 100  # the program's default `mixing --min-triples`
WIDE_MIN_TRIPLES = 1000  # `wide` surveys no table: flow tables only, no EMI


@dataclass
class World:
    """Generated input files plus the ground truth used by the output checks."""

    workload: str
    seed: int
    dir: str
    names: list[str]
    edges: set[tuple[int, int]]  # the current graph (graph.tsv)
    clicks: dict[tuple[int, int], int]  # link rows of clicks.tsv
    reference: list[list[int]]
    old_edges: set[tuple[int, int]] = field(default_factory=set)
    session_paths: set[tuple[int, ...]] = field(default_factory=set)
    num_trees: int = 0
    communities: np.ndarray | None = None
    vocab: list[int] = field(default_factory=list)
    num_pairs: int = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    @functools.cached_property
    def ids(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}


class Csr:
    """Row-stochastic sparse transition table used to walk the generated graph."""

    def __init__(self, n, src, dst, weight):
        order = np.lexsort((dst, src))
        self.src, self.dst, w = src[order], dst[order], weight[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.indptr, self.src + 1, 1)
        self.indptr = np.cumsum(self.indptr)
        tot = np.add.reduceat(w, self.indptr[:-1][np.diff(self.indptr) > 0])
        row_tot = np.zeros(n)
        row_tot[np.diff(self.indptr) > 0] = tot
        csum = np.cumsum(w)
        base = np.concatenate([[0.0], csum])[self.indptr[self.src]]
        self.cum = (csum - base) / row_tot[self.src]  # per-row cumulative, ending at 1

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    def succ(self, v):
        return self.dst[self.indptr[v]:self.indptr[v + 1]]

    def step(self, v, r):
        lo, hi = self.indptr[v], self.indptr[v + 1]
        j = lo + int(np.searchsorted(self.cum[lo:hi], r, side="right"))
        return int(self.dst[min(j, hi - 1)])


def _names(n, rng):
    # distinct, seed-dependent titles, so interning order differs between seeds
    tags = rng.permutation(n)
    return ["Article_%06d" % t for t in tags]


def _popularity_edges(rng, n, degrees, pop):
    """Targets drawn by popularity; self-loops and repeats removed."""
    src = np.repeat(np.arange(n), degrees)
    dst = np.searchsorted(np.cumsum(pop / pop.sum()), rng.random(len(src)), side="right")
    dst = np.minimum(dst, n - 1)
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep])
    return key // n, key % n


def _lengths(rng, count, p, cap):
    """Geometric lengths (at least 2) as fixed quantiles in random order: every seed
    gets the same multiset, so corpus size and SGNS pair count do not depend on it."""
    u = rng.permutation((np.arange(count) + 0.5) / count)
    return np.minimum(np.ceil(np.log1p(-u) / np.log1p(-p)).astype(np.int64) + 1, cap)


def _walks(rng, csr, starts, lengths):
    """Markov-1 walks; a walk ends early at a node without out-links."""
    out = []
    rs = rng.random(int(lengths.sum()))
    k = 0
    for s, length in zip(starts.tolist(), lengths.tolist()):
        seq = [s]
        while len(seq) < length and csr.degree(seq[-1]):
            seq.append(csr.step(seq[-1], rs[k]))
            k += 1
        k += length - len(seq)
        out.append(seq)
    return out


def _clicks_from(rng, sequences, population):
    """Clickstream of a population `population` times the reference: Poisson bigram counts."""
    pairs: dict[tuple[int, int], int] = {}
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
    keys = sorted(pairs)
    counts = rng.poisson(population * np.array([pairs[k] for k in keys], dtype=float))
    return {k: int(c) for k, c in zip(keys, counts) if c > 0}


def _write_graph(path, names, edges):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s, t in sorted(edges):
            f.write("%s\t%s\n" % (names[s], names[t]))


def _write_clicks(path, names, clicks, rng):
    extra = rng.choice(len(names), size=max(3, len(names) // 100), replace=False)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for (s, t), c in sorted(clicks.items()):
            f.write("%s\t%s\tlink\t%d\n" % (names[s], names[t], c))
        for i, a in enumerate(sorted(extra.tolist())):  # rows the `link` filter skips
            f.write("%s\t%s\t%s\t%d\n" % ("other-search" if i % 2 else "other-empty",
                                          names[a], "external" if i % 2 else "other",
                                          20 + i))


def _write_corpus(path, names, sequences):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("#kind=Logs\n")
        for seq in sequences:
            f.write("\t".join(names[a] for a in seq) + "\n")


def _prepare(workload, seed, out_dir):
    """Create the output directory; return the workload's generator for this seed."""
    os.makedirs(out_dir, exist_ok=True)
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


# ---------------------------------------------------------------- wide

WIDE_NODES = 8_000
WIDE_SESSIONS = 8_000
WIDE_TREES = 4_000
WIDE_ADDED_LINKS = 40
WIDE_POPULATION = 8
WIDE_NO_LINKS = 0.06
WIDE_HEAD = 40  # popularity plateau: no article draws a hub's traffic


def _session_trees(rng, csr, n_trees, pop_start, names, path):
    """Pageview events of one navigation tree per reader; returns root-to-leaf paths."""
    starts = np.searchsorted(pop_start, rng.random(n_trees), side="right")
    rows = []
    paths = set()
    trees = 0
    for root in starts.tolist():
        reader = "%016x%016x" % tuple(rng.integers(0, 2**63, size=2).tolist())
        ts = int(rng.integers(0, 86_400_000))
        arts, parent = [root], [-1]
        size = int(rng.integers(2, 9))
        for _ in range(4 * size):
            if len(arts) == size:
                break
            p = len(arts) - 1 if rng.random() < 0.75 else int(rng.integers(len(arts)))
            if not csr.degree(arts[p]):
                continue
            child = csr.step(arts[p], rng.random())
            if child in arts:
                continue
            arts.append(child)
            parent.append(p)
        if len(arts) < 2:
            continue
        trees += 1
        has_child = set(parent)
        for node, art in enumerate(arts):
            ts += int(rng.integers(1_000, 300_000))
            ref = "-" if parent[node] < 0 else names[arts[parent[node]]]
            rows.append((ts, "%s\t%d\t%s\t%s\n" % (reader, ts, names[art], ref)))
            if node not in has_child:
                chain, cur = [], node
                while cur >= 0:
                    chain.append(arts[cur])
                    cur = parent[cur]
                paths.add(tuple(reversed(chain)))
    rows.sort(key=lambda r: r[0])  # readers interleave in time, as in a real log
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(r for _, r in rows)
    return paths, trees


def _indirect_pairs(sequences, old):
    """Per (s, t) with s before t and no old edge, the number of sequences holding it."""
    counts: dict[tuple[int, int], int] = {}
    for seq in sequences:
        seen = set()
        for i in range(len(seq)):
            for j in range(i + 2, len(seq)):
                pair = (seq[i], seq[j])
                if pair[0] != pair[1] and pair not in old:
                    seen.add(pair)
        for pair in seen:
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def gen_wide(seed, out_dir) -> World:
    rng = _prepare("wide", seed, out_dir)
    n = WIDE_NODES
    names = _names(n, rng)
    # heavy tails drawn as fixed quantiles, so every seed has the same size profile
    u = rng.permutation((np.arange(n) + 0.5) / n)
    pop = (1.0 + np.maximum(rng.permutation(n), WIDE_HEAD)) ** -0.9  # Zipf by rank, flat head
    degrees = np.minimum(5.0 * (1.0 - u) ** (-1 / 1.4), 400).astype(np.int64)
    degrees[rng.permutation(n)[: int(WIDE_NO_LINKS * n)]] = 0  # pages without out-links
    src, dst = _popularity_edges(rng, n, degrees, pop)
    weight = pop[dst] * rng.lognormal(0.0, 1.0, len(src))
    csr = Csr(n, src, dst, weight)
    old = set(zip(src.tolist(), dst.tolist()))

    start_w = np.where(np.diff(csr.indptr) > 0, pop, 0.0)
    start_cum = np.cumsum(start_w / start_w.sum())
    starts = np.searchsorted(start_cum, rng.random(WIDE_SESSIONS), side="right")
    lengths = _lengths(rng, WIDE_SESSIONS, 0.4, 20)
    reference = [s for s in _walks(rng, csr, starts, lengths) if len(s) >= 2]

    # planted added links: the non-edges most often bridged by an indirect path
    counts = _indirect_pairs(reference, old)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    added = {p for p, c in ranked[:WIDE_ADDED_LINKS] if c >= 10}
    edges = old | added

    clicks = _clicks_from(rng, reference, WIDE_POPULATION)
    _write_graph(os.path.join(out_dir, "old_graph.tsv"), names, old)
    _write_graph(os.path.join(out_dir, "graph.tsv"), names, edges)
    _write_clicks(os.path.join(out_dir, "clicks.tsv"), names, clicks, rng)
    _write_corpus(os.path.join(out_dir, "reference.tsv"), names, reference)
    paths, trees = _session_trees(rng, csr, WIDE_TREES, start_cum, names,
                                  os.path.join(out_dir, "events.tsv"))
    return World("wide", seed, out_dir, names, edges, clicks, reference,
                 old_edges=old, session_paths=paths, num_trees=trees)


# ---------------------------------------------------------------- hubs

HUBS_NODES = 600
HUBS_DEGREE = 14
HUBS_LINKED = 10
HUBS_TOP_BOOST = 3.0
HUBS_SESSIONS = 11_000
HUBS_MEMORY = 0.7
HUBS_POPULATION = 10


def gen_hubs(seed, out_dir) -> World:
    rng = _prepare("hubs", seed, out_dir)
    n = HUBS_NODES
    names = _names(n, rng)
    pop = 1.0 / np.arange(1, n + 1) ** 1.1  # Zipf by rank
    pop[0] *= HUBS_TOP_BOOST  # one hub well past the program's 5000-triple exact-EMI limit
    src, dst = _popularity_edges(rng, n, np.full(n, HUBS_DEGREE), pop)
    # every article links to the top hubs, so hub traffic barely depends on the seed
    src = np.concatenate([src, np.repeat(np.arange(n), HUBS_LINKED)])
    dst = np.concatenate([dst, np.tile(np.arange(HUBS_LINKED), n)])
    key = np.unique(src[src != dst] * n + dst[src != dst])
    src, dst = key // n, key % n
    csr = Csr(n, src, dst, pop[dst] * rng.lognormal(0.0, 0.5, len(src)))
    salt = int(rng.integers(1, 2**31))

    start_cum = np.cumsum(pop / pop.sum())
    starts = np.searchsorted(start_cum, rng.random(HUBS_SESSIONS), side="right")
    lengths = _lengths(rng, HUBS_SESSIONS, 0.25, 30)
    rs = rng.random((HUBS_SESSIONS, 2, 30))
    reference = []
    for i, (s, length) in enumerate(zip(starts.tolist(), lengths.tolist())):
        seq = [s, csr.step(s, rs[i, 0, 0])]
        while len(seq) < length:
            prev, cur = seq[-2], seq[-1]
            k = len(seq)
            if rs[i, 1, k] < HUBS_MEMORY:
                # second-order memory: a fixed non-hub successor per (prev, cur); keeping
                # hubs out of it keeps memory cycles from piling traffic onto a hub
                succ = csr.succ(cur)
                succ = succ[succ >= HUBS_LINKED] if (succ >= HUBS_LINKED).any() else succ
                seq.append(int(succ[(prev * 1_000_003 + cur * 7_919 + salt) % len(succ)]))
            else:
                seq.append(csr.step(cur, rs[i, 0, k]))
        reference.append(seq)

    edges = set(zip(src.tolist(), dst.tolist()))
    clicks = _clicks_from(rng, reference, HUBS_POPULATION)
    _write_graph(os.path.join(out_dir, "graph.tsv"), names, edges)
    _write_clicks(os.path.join(out_dir, "clicks.tsv"), names, clicks, rng)
    _write_corpus(os.path.join(out_dir, "reference.tsv"), names, reference)
    return World("hubs", seed, out_dir, names, edges, clicks, reference)


# ---------------------------------------------------------------- embed

EMBED_COMMUNITIES = 16
EMBED_PER_COMMUNITY = 100
EMBED_SESSIONS = 1_400
EMBED_POPULATION = 40
EMBED_PAIRS = 400


def gen_embed(seed, out_dir) -> World:
    rng = _prepare("embed", seed, out_dir)
    c, per = EMBED_COMMUNITIES, EMBED_PER_COMMUNITY
    n = c * per
    names = _names(n, rng)
    community = np.repeat(np.arange(c), per)
    inside = rng.integers(0, per, size=(n, 10)) + (community * per)[:, None]
    outside = rng.integers(0, n, size=(n, 2))
    src = np.repeat(np.arange(n), 12)
    dst = np.concatenate([inside, outside], axis=1).ravel()
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep])
    src, dst = key // n, key % n
    weight = np.where(community[src] == community[dst], 5.0, 0.5) * rng.lognormal(0, 0.5, len(src))
    csr = Csr(n, src, dst, weight)

    starts = rng.integers(0, n, EMBED_SESSIONS)
    lengths = _lengths(rng, EMBED_SESSIONS, 0.25, 30)
    reference = _walks(rng, csr, starts, lengths)
    vocab = sorted({a for s in reference if len(s) >= 2 for a in s})

    edges = set(zip(src.tolist(), dst.tolist()))
    clicks = _clicks_from(rng, reference, EMBED_POPULATION)
    _write_graph(os.path.join(out_dir, "graph.tsv"), names, edges)
    _write_clicks(os.path.join(out_dir, "clicks.tsv"), names, clicks, rng)
    _write_corpus(os.path.join(out_dir, "reference.tsv"), names, reference)

    # relatedness: same-community pairs score high, cross-community pairs low
    v = np.array(vocab)
    with open(os.path.join(out_dir, "pairs.tsv"), "w", encoding="utf-8", newline="\n") as f:
        for i in range(EMBED_PAIRS):
            a = int(rng.choice(v))
            pool = v[community[v] == community[a]] if i % 2 else v[community[v] != community[a]]
            b = int(rng.choice(pool[pool != a]))
            score = rng.uniform(6, 10) if i % 2 else rng.uniform(0, 4)
            f.write("%s\t%s\t%.3f\n" % (names[a], names[b], score))
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8", newline="\n") as f:
        for a in vocab:
            f.write("%s\t%d\n" % (names[a], community[a]))
    return World("embed", seed, out_dir, names, edges, clicks, reference,
                 communities=community, vocab=vocab, num_pairs=EMBED_PAIRS)


GENERATORS = {"wide": gen_wide, "hubs": gen_hubs, "embed": gen_embed}


def generate(workload: str, seed: int, out_dir: str) -> World:
    return GENERATORS[workload](seed, out_dir)
