"""Seeded input generators and the input fingerprint.

Every input of the benchmark is generated here from the run's ``--seed``;
the program under test only ever receives the resulting edge arrays
(through ``build_undirected`` + ``MiningSession.add_graph``).  The
generators are deliberately private to the benchmark: the registry
generators in ``repro.graph.generators`` are due to be recalibrated, and
a baseline must not move when they do.

Each generator returns ``(n, edges)`` where ``edges`` is a canonical
``int64`` array of shape ``(m, 2)``: ``u < v``, no duplicates, rows in
lexicographic order.  Canonical arrays make the fingerprint hash a
function of the graph alone.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

Graph = Tuple[int, np.ndarray]


def canonical(n: int, pairs: np.ndarray) -> Graph:
    """Drop self-loops and duplicates; orient ``u < v``; sort rows."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    keys = np.unique(lo[keep] * n + hi[keep])
    return n, np.stack([keys // n, keys % n], axis=1)


def clustered(rng: np.random.Generator, n: int, community: int = 24,
              p_in: float = 0.3, inter_per_vertex: float = 1.0) -> Graph:
    """Dense communities of ``community`` vertices plus sparse bridges."""
    pieces = []
    for start in range(0, n, community):
        size = min(community, n - start)
        iu, ju = np.triu_indices(size, k=1)
        keep = rng.random(len(iu)) < p_in
        pieces.append(np.stack([iu[keep], ju[keep]], axis=1) + start)
    bridges = rng.integers(0, n, size=(int(n * inter_per_vertex), 2))
    return canonical(n, np.concatenate(pieces + [bridges]))


def clique_rich(rng: np.random.Generator, n: int, avg_degree: float,
                cliques: int, min_size: int, max_size: int) -> Graph:
    """Uniform sparse background with planted cliques of mixed sizes.

    Clique sizes are spread evenly over ``[min_size, max_size]`` and only
    their members are drawn, so the mining work (dominated by the largest
    cliques) barely moves from seed to seed.
    """
    background = rng.integers(0, n, size=(int(n * avg_degree / 2), 2))
    pieces = [background]
    for size in np.linspace(min_size, max_size, cliques).round():
        members = rng.choice(n, size=int(size), replace=False)
        iu, ju = np.triu_indices(int(size), k=1)
        pieces.append(np.stack([members[iu], members[ju]], axis=1))
    return canonical(n, np.concatenate(pieces))


def uniform(rng: np.random.Generator, n: int, avg_degree: float) -> Graph:
    """Erdos-Renyi style ``G(n, m)`` with ``m ~ n * avg_degree / 2``."""
    return canonical(n, rng.integers(0, n, size=(int(n * avg_degree / 2), 2)))


def small_world(rng: np.random.Generator, n: int, k: int = 10,
                rewire: float = 0.1) -> Graph:
    """Watts-Strogatz ring lattice (``k`` neighbours) with rewiring."""
    src = np.repeat(np.arange(n), k // 2)
    dst = (src + np.tile(np.arange(1, k // 2 + 1), n)) % n
    moved = rng.random(len(dst)) < rewire
    dst = np.where(moved, rng.integers(0, n, size=len(dst)), dst)
    return canonical(n, np.stack([src, dst], axis=1))


# ---------------------------------------------------------------------------
# Workload inputs.  Sizes are fixed here; only the seed varies per run.
# ---------------------------------------------------------------------------

#: Graph families of the ingest stream, in stream order (repeated).
INGEST_FAMILIES = ("clustered", "uniform", "small-world")
#: Vertex counts of the ingest stream; fixed so that the seed changes
#: only the edges, not the amount of work.
INGEST_SIZES = (8000, 8400, 8800, 9200, 9600, 10000)


def _rng(seed: int, workload: str) -> np.random.Generator:
    # Stable across Python runs (str hash() is salted per process).
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4],
                         "little")
    return np.random.default_rng([seed, tag])


def workload_graphs(workload: str, seed: int) -> Dict[str, Graph]:
    """The named input graphs of one workload for one seed."""
    rng = _rng(seed, workload)
    if workload == "serve-warm":
        return {
            "clustered-5k": clustered(rng, 5000, community=16, p_in=0.25,
                                     inter_per_vertex=0.5),
            "cliquey-1k": clique_rich(rng, 1000, avg_degree=6, cliques=40,
                                      min_size=4, max_size=12),
        }
    if workload == "suite-deep":
        return {
            "cliquey-2k": clique_rich(rng, 2000, avg_degree=2, cliques=5,
                                      min_size=5, max_size=20),
        }
    if workload == "ingest":
        graphs: Dict[str, Graph] = {}
        for i in range(len(INGEST_SIZES)):
            family = INGEST_FAMILIES[i % len(INGEST_FAMILIES)]
            n = INGEST_SIZES[i]
            if family == "clustered":
                graph = clustered(rng, n, community=20, p_in=0.25,
                                  inter_per_vertex=0.5)
            elif family == "uniform":
                graph = uniform(rng, n, avg_degree=8)
            else:
                graph = small_world(rng, n, k=8, rewire=0.1)
            graphs[f"{family}-{i}"] = graph
        return graphs
    raise KeyError(f"unknown workload {workload!r}")


def edge_hash(graphs: Dict[str, Graph]) -> str:
    """SHA-256 over the names, sizes and canonical edge arrays."""
    digest = hashlib.sha256()
    for name in sorted(graphs):
        n, edges = graphs[name]
        digest.update(f"{name}:{n}:{len(edges)};".encode())
        digest.update(np.ascontiguousarray(edges, dtype="<i8").tobytes())
    return digest.hexdigest()


def summarize(graphs: Dict[str, Graph]) -> List[str]:
    """One ``name n m`` line per graph, for the run report."""
    return [f"{name} n={n} m={len(edges)}"
            for name, (n, edges) in sorted(graphs.items())]
