"""Reference answers and input fingerprints, computed with networkx.

Runs in the runner process, before any program process starts and
outside every timed region.  networkx is an independent implementation:
its triangle and maximal-clique counts check the program's ``tc``,
``tc-merge`` and ``bk`` answers.  The same pass yields the fingerprint
fields (triangles, maximum clique size), so a changed generator or seed
cannot move a baseline unnoticed.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import networkx as nx

from gen import Graph, edge_hash, workload_graphs

FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints.json")
#: The seed whose edge hash is checked on every run, whatever its seed.
ANCHOR_SEED = 0


def graph_reference(graph: Graph) -> Dict[str, int]:
    n, edges = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges.tolist())
    sizes = [len(c) for c in nx.find_cliques(g)]
    return {"n": n, "m": len(edges),
            "triangles": sum(nx.triangles(g).values()) // 3,
            "maximal_cliques": len(sizes), "max_clique": max(sizes)}


def references(graphs: Dict[str, Graph]) -> Dict[str, Dict[str, int]]:
    return {name: graph_reference(graph)
            for name, graph in sorted(graphs.items())}


def fingerprint(graphs: Dict[str, Graph],
                refs: Dict[str, Dict[str, int]]) -> Dict[str, object]:
    return {
        "graphs": {name: {key: refs[name][key]
                          for key in ("n", "m", "triangles", "max_clique")}
                   for name in sorted(refs)},
        "edge_hash": edge_hash(graphs),
    }


def load_stored() -> Dict[str, Dict[str, object]]:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def check_fingerprint(workload: str, seed: int,
                      actual: Dict[str, object]) -> list:
    """Mismatches against the stored fingerprints (empty when all agree).

    The anchor seed's edge hash is checked on every run, so a generator
    change is caught whichever seed a run uses; a run whose own seed is
    stored is also checked field by field.
    """
    stored = load_stored().get(workload, {})
    problems = []
    anchor = stored.get("anchor")
    if anchor is None:
        problems.append(f"{workload}: no stored anchor fingerprint")
    else:
        got = edge_hash(workload_graphs(workload, anchor["seed"]))
        if got != anchor["edge_hash"]:
            problems.append(
                f"{workload}: generator drift: anchor seed "
                f"{anchor['seed']} hashes to {got}, stored "
                f"{anchor['edge_hash']}")
    expected = stored.get("seeds", {}).get(str(seed))
    if expected is not None and expected != actual:
        problems.append(f"{workload}: seed {seed} fingerprint "
                        f"{json.dumps(actual, sort_keys=True)} != stored "
                        f"{json.dumps(expected, sort_keys=True)}")
    return problems


def record(seeds, path: str = FINGERPRINTS) -> None:
    """Regenerate the stored fingerprints (run only on purpose)."""
    table: Dict[str, Dict[str, object]] = {}
    for workload in ("serve-warm", "suite-deep", "ingest"):
        anchor = workload_graphs(workload, ANCHOR_SEED)
        entry = {"anchor": {"seed": ANCHOR_SEED,
                            "edge_hash": edge_hash(anchor)},
                 "seeds": {}}
        for seed in seeds:
            graphs = workload_graphs(workload, seed)
            entry["seeds"][str(seed)] = fingerprint(graphs,
                                                    references(graphs))
        table[workload] = entry
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Re-record perfbench/fingerprints.json. Only do this "
                    "when the generators change on purpose: it moves "
                    "every baseline.")
    parser.add_argument("--seeds", type=int, default=64,
                        help="record seeds 0..N-1")
    record(range(parser.parse_args().seeds))
