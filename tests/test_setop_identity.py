"""Cross-commit identity of kernel values and set-op counters.

``tests/data/setop_identity_sc-ht-mini.json`` pins, for every cell of a
deep sweep over ``sc-ht-mini`` (kernels ``kclique`` at k=5, ``bk``,
``4clique`` and ``kstar``; every exact static backend plus
``adaptive``; orderings DGR and ADG), the kernel's value and every
software counter of one warm pass: ``set_ops``, ``point_ops``,
``elements_read``/``elements_written`` (and their sum,
``memory_traffic``), ``words_scanned`` per organization and BK's
``recursive_calls``.  Set-operation rewrites must be invisible here: a
faster kernel that reads or writes one element more, or attributes one
word to another family, fails this test.

The fixture is written by the implementation it pins; regenerate it
only on the commit *before* a set-layer change, never after::

    PYTHONPATH=src python tests/test_setop_identity.py --regen
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import pytest

from repro.core import counters
from repro.core.registry import get_set_class
from repro.graph import MaterializationCache
from repro.graph.datasets import load_dataset
from repro.platform.suite import SUITE_KERNELS, ExperimentPlan

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "setop_identity_sc-ht-mini.json")
DATASET = "sc-ht-mini"
KERNELS = ("kclique", "bk", "4clique", "kstar")
BACKENDS = ("sorted", "bitset", "hash", "roaring", "adaptive")
ORDERINGS = ("DGR", "ADG")
PLAN = ExperimentPlan(datasets=(DATASET,), kernels=KERNELS,
                      set_classes=BACKENDS, orderings=ORDERINGS, k=5,
                      eps=0.1)


def cell_ids() -> List[str]:
    """``kernel/backend/ordering`` for every cell; kernels that ignore
    the ordering run once, under ``-`` (the suite's convention)."""
    ids = []
    for kernel in KERNELS:
        orderings = ORDERINGS if SUITE_KERNELS[kernel].uses_ordering else ("-",)
        ids += [f"{kernel}/{backend}/{ordering}"
                for backend in BACKENDS for ordering in orderings]
    return ids


def measure(cell_id: str, graph, cache: MaterializationCache) -> Dict:
    """Value and counter delta of one warm pass of *cell_id*."""
    kernel, backend, ordering = cell_id.split("/")
    runner = SUITE_KERNELS[kernel].runner
    set_cls = get_set_class(backend)
    runner(graph, set_cls, ordering, PLAN, cache)  # warm the cache
    before = counters.snapshot()
    raw = runner(graph, set_cls, ordering, PLAN, cache)
    delta = before.delta(counters.snapshot())
    value, extras = raw if isinstance(raw, tuple) else (raw, {})
    return {
        "value": int(value),
        "set_ops": delta.set_ops,
        "point_ops": delta.point_ops,
        "elements_read": delta.elements_read,
        "elements_written": delta.elements_written,
        "memory_traffic": delta.memory_traffic,
        "words_scanned": dict(sorted(delta.words_scanned.items())),
        "recursive_calls": extras.get("recursive_calls"),
    }


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict]:
    with open(FIXTURE) as fh:
        return json.load(fh)["cells"]


@pytest.fixture(scope="module")
def graph_and_cache():
    return load_dataset(DATASET), MaterializationCache()


def test_fixture_covers_the_sweep(pinned):
    assert sorted(pinned) == sorted(cell_ids())


@pytest.mark.parametrize("cell_id", cell_ids())
def test_cell_matches_pinned(cell_id, pinned, graph_and_cache):
    graph, cache = graph_and_cache
    assert measure(cell_id, graph, cache) == pinned[cell_id]


def regenerate() -> None:
    graph, cache = load_dataset(DATASET), MaterializationCache()
    cells = {cell_id: measure(cell_id, graph, cache) for cell_id in cell_ids()}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump({"schema": "gms-setop-identity/v1", "dataset": DATASET,
                   "k": PLAN.k, "eps": PLAN.eps, "cells": cells},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    regenerate()
