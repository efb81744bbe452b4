"""Declarative experiment suite: dataset × ordering × backend × kernel.

This is the driver the set-centric kernel unification exists for.  All
mining kernels speak the :class:`~repro.core.interface.SetBase` algebra
over materialized :class:`~repro.graph.set_graph.SetGraph` neighborhoods,
so one :class:`ExperimentPlan` can sweep *every registered kernel under
every registered set backend* — SISA-style: a small set-centric
instruction set below, a declarative workload description above.

Building blocks
---------------
``SUITE_KERNELS``
    The kernel registry.  Each :class:`SuiteKernel` wraps one mining
    kernel behind the uniform signature ``runner(graph, set_cls,
    ordering, plan, cache) -> int | (int, extras)`` and declares whether
    the kernel consumes the vertex ordering.  User kernels join the sweep
    via :func:`register_suite_kernel` — exactly like set representations
    join via :func:`repro.core.registry.register_set_class`.

``ExperimentPlan``
    The declarative sweep description: datasets, kernels, orderings, set
    backends, clique size, sketch budgets, repeats — plus the execution
    knobs ``workers`` (process-pool size), ``schedule``
    (``static``/``dynamic`` cell chunking) and ``cache_budget_bytes``
    (per-process :class:`~repro.graph.set_graph.MaterializationCache` LRU
    budget).  Budget flags carry the same semantics as the shared CLI
    parser and are resolved per graph through
    :func:`repro.platform.cli.resolve_set_class_for_graph`.

``run_suite``
    Deprecated shim over the session path: a
    :class:`~repro.platform.session.MiningSession` matching the plan's
    execution knobs runs the plan and closes.  ``plan.workers <= 1`` runs
    cells sequentially in-process against the session cache;
    ``plan.workers > 1`` shards them over the session's process pool
    (:mod:`repro.platform.runner`), producing a cell-by-cell identical
    artifact up to timing.  Per cell the suite meters wall time and the
    set-algebra software counters (:mod:`repro.core.counters`).  Exact
    backends are cross-checked against the reference backend — any
    disagreement fails the run.  Hold a session yourself to keep caches
    and the pool warm across plans.

Artifact schema (``results/suite_<dataset>.json``, ``gms-suite/v2``)
--------------------------------------------------------------------
One JSON object per dataset::

    {
      "schema": "gms-suite/v2",
      "dataset": str,          # registry name
      "num_nodes": int, "num_edges": int,
      "plan": {...},           # the ExperimentPlan, as parsed (includes
                               # workers / schedule / cache_budget_bytes)
      "reference_backend": "sorted",
      "materialization": {hits, misses, evictions, orderings, set_graphs,
                          oriented, resident_bytes, budget_bytes},
                               # THIS run's cache deltas (hit/miss/
                               # insertion/eviction counters since the
                               # run started; entry/byte gauges
                               # instantaneous) — a warm re-run on a
                               # long-lived session/pool shows hits
                               # without inheriting earlier runs' counts.
                               # Parallel runs: summed over the pool's
                               # per-process caches, plus "workers"
      "counters": {set_ops, point_ops, sketch_builds, memory_traffic},
                               # merge of the per-cell deltas — shard-
                               # order independent, so sequential and
                               # parallel runs agree exactly
      "execution": {           # measured vs modeled parallel runtime
        "workers": int,        # pool size (1 = sequential)
        "schedule": str,       # "sequential" | "static" | "dynamic"
        "measured_seconds": float,   # wall clock of the cell loop / pool
        "cells_seconds_total": float,# sum of warm per-cell kernel times
        "measured_speedup": float,   # cells_seconds_total / measured
        "modeled": {           # runtime/scheduler.py makespan model at
                               # this worker count, one entry per policy
          "static"|"dynamic"|"stealing": {
            "makespan_seconds": float,
            "speedup": float,  # cells_seconds_total / makespan
          }, ...
        },
      },
      "cells": [
        {
          "kernel": str,       # SUITE_KERNELS name
          "ordering": str,     # ordering name, or "-" if kernel ignores it
          "set_class": str,    # registry name from the plan
          "resolved_class": str,  # budget-resolved class actually run
          "exact": bool,       # cls.IS_EXACT
          "value": int,        # kernel output (count)
          "seconds": float,    # best-of-repeats *warm* kernel wall time
                               # (a first pass that missed the per-process
                               # cache is discarded as the warm-up; one
                               # that hit counts as repeat #1; so
                               # materialization cost shows up in
                               # "materialization" and the execution
                               # block, not here)
          "set_ops": int, "point_ops": int,     # software counters
          "memory_traffic": int, "sketch_builds": int,
          "extras": {...},     # per-kernel work profile:
                               #   bk        -> recursive_calls, task_costs
                               #   kclique/4clique -> task_costs
                               #   others    -> {}
                               # task_costs are timings; everything else
                               # in a cell except "seconds" is
                               # deterministic and shard-independent
          "reference": int,    # reference-backend value, same cell
          "rel_error": float,  # |value - reference| / max(reference, 1)
        }, ...
      ]
    }

``python -m repro aggregate`` consumes these artifacts (together with the
budget-sweep ones), folds the ``extras`` work profiles into per-kernel
work-distribution summaries, and tabulates measured-vs-modeled speedups
from the ``execution`` blocks.

Run ``python -m repro suite --smoke`` for the tiny CI matrix,
``python -m repro suite --smoke --workers 2`` for the same matrix through
the process pool (``python -m repro suite-diff`` checks the two artifacts
agree up to timing), or ``python -m repro suite --datasets sc-ht-mini
citations-mini --set-classes sorted bitset bloom kmv`` for a custom
sweep; see ``examples/suite_run.py`` for the library-level API.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..core import counters as _counters
from ..core.bit_set import BitSet
from ..core.interface import SetBase
from ..core.registry import set_class_names
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from ..mining.bronkerbosch import bron_kerbosch
from ..mining.kclique import kclique_count
from ..mining.kcliquestar import kclique_star_count
from ..mining.triangles import (
    triangle_count_node_iterator,
    triangle_count_rank_merge,
)
from ..preprocess.ordering import ORDERINGS
from ..runtime.scheduler import SCHEDULER_POLICIES, simulate_makespan
from .bench import print_table, write_artifact
from .cli import (
    DISPATCH_MODES,
    RUNNER_SCHEDULES,
    TRANSPORTS,
    add_dispatch_args,
    add_parallel_args,
    add_sketch_budget_args,
    resolve_set_class_for_graph,
)

__all__ = [
    "SCHEMA",
    "SuiteKernel",
    "SUITE_KERNELS",
    "register_suite_kernel",
    "ExperimentPlan",
    "expand_cells",
    "run_cell",
    "finalize_cells",
    "resolve_backend",
    "dataset_payload",
    "run_suite",
    "report_payloads",
    "main",
]

#: Artifact schema identifier, bumped on breaking layout changes.
#: v2 (over v1): per-cell ``extras`` work profiles, payload-level merged
#: ``counters``, and the ``execution`` measured-vs-modeled block.
SCHEMA = "gms-suite/v2"

#: Reference backend for cross-checking and relative error (registry name).
REFERENCE_BACKEND = "sorted"


@dataclass(frozen=True)
class SuiteKernel:
    """One kernel of the suite sweep.

    ``runner(graph, set_cls, ordering, plan, cache)`` returns the kernel's
    count under the given set representation — either a bare ``int`` or an
    ``(int, extras)`` pair, where ``extras`` is a JSON-ready work profile
    (e.g. BK's ``recursive_calls``, kClist's per-task ``task_costs``)
    folded into the cell schema.  ``uses_ordering=False`` kernels are run
    once per backend with the ordering column recorded as ``"-"``
    (re-running them per ordering would duplicate identical cells).
    """

    name: str
    runner: Callable[
        [CSRGraph, Type[SetBase], str, "ExperimentPlan", MaterializationCache],
        object,
    ]
    description: str
    uses_ordering: bool = True


def _run_tc(graph, set_cls, ordering, plan, cache):
    return triangle_count_node_iterator(graph, set_cls=set_cls, cache=cache)


def _run_tc_merge(graph, set_cls, ordering, plan, cache):
    return triangle_count_rank_merge(graph, set_cls=set_cls, cache=cache)


def _run_4clique(graph, set_cls, ordering, plan, cache):
    res = kclique_count(graph, 4, ordering, "edge", eps=plan.eps,
                        set_cls=set_cls, cache=cache)
    return res.count, {"task_costs": list(res.task_costs)}


def _run_kclique(graph, set_cls, ordering, plan, cache):
    res = kclique_count(graph, plan.k, ordering, "node", eps=plan.eps,
                        set_cls=set_cls, cache=cache)
    return res.count, {"task_costs": list(res.task_costs)}


def _run_kstar(graph, set_cls, ordering, plan, cache):
    return kclique_star_count(graph, 3, set_cls=set_cls, cache=cache)


def _run_bk(graph, set_cls, ordering, plan, cache):
    # Approximate backends reach Bron–Kerbosch through the pivot scan
    # (sketch-pivot BK): P/X stay exact, the estimated counts only feed
    # the pivot argmax, and the enumerated clique set is provably
    # identical — so every backend, exact or sketched, lands on the same
    # maximal-clique count here.  recursive_calls *does* depend on the
    # pivot choices, but the sketches are deterministic functions of the
    # set contents, so it is still reproducible run-to-run.
    if set_cls.IS_EXACT:
        res = bron_kerbosch(graph, ordering, set_cls, eps=plan.eps,
                            cache=cache)
    else:
        res = bron_kerbosch(graph, ordering, BitSet, eps=plan.eps,
                            pivot_set_cls=set_cls, cache=cache)
    return res.num_cliques, {
        "recursive_calls": res.recursive_calls,
        "task_costs": list(res.task_costs),
    }


#: The registered suite kernels, in registration order.
SUITE_KERNELS: Dict[str, SuiteKernel] = {}


def register_suite_kernel(
    name: str,
    runner: Callable[..., object],
    description: str,
    uses_ordering: bool = True,
) -> None:
    """Register a kernel for the suite sweep (the kernel-side ``5+`` hook)."""
    SUITE_KERNELS[name] = SuiteKernel(name, runner, description, uses_ordering)


register_suite_kernel(
    "tc", _run_tc,
    "triangle count, node-iterator scheme (Figure 2's tc)",
    uses_ordering=False,
)
register_suite_kernel(
    "tc-merge", _run_tc_merge,
    "triangle count, rank-merge (forward) scheme over the degree order",
    uses_ordering=False,
)
register_suite_kernel(
    "4clique", _run_4clique,
    "4-clique count, edge-parallel kClist over the oriented SetGraph",
)
register_suite_kernel(
    "kclique", _run_kclique,
    "k-clique count (plan.k), node-parallel kClist",
)
register_suite_kernel(
    "kstar", _run_kstar,
    "3-clique-star count via set intersections and differences",
    uses_ordering=False,
)
register_suite_kernel(
    "bk", _run_bk,
    "maximal clique count; approximate backends route to the pivot scan",
)


@dataclass
class ExperimentPlan:
    """Declarative sweep description: what to run, under what budgets.

    Empty ``kernels``/``set_classes``/``orderings`` mean *everything
    registered* at run time, so plans stay valid as kernels and backends
    are added.  ``workers``/``schedule``/``cache_budget_bytes`` select the
    execution mode without changing the sweep (the cell payloads are
    identical up to timing).  See the module docstring for the emitted
    artifact schema.
    """

    datasets: Tuple[str, ...] = ("sc-ht-mini",)
    kernels: Tuple[str, ...] = ()
    set_classes: Tuple[str, ...] = ()
    orderings: Tuple[str, ...] = ("DGR", "ADG")
    k: int = 4
    eps: float = 0.1
    repeats: int = 1
    bloom_bits: int = 0
    kmv_k: int = 0
    bloom_shared_bits: int = 0
    bloom_fpr: float = 0.0
    workers: int = 1
    schedule: str = "dynamic"
    cache_budget_bytes: int = 0
    # Pool pre-warm transport: "pickle" copies graph state into every
    # worker; "shm" ships shared-memory descriptors and workers map the
    # arrays zero-copy (repro.platform.shm).  Cell payloads are identical
    # either way — only the shipping cost changes.
    transport: str = "pickle"
    # Set-op dispatch: "static" keeps each backend's own kernels,
    # "adaptive" swaps exact backends for the density-adaptive dispatcher
    # (the reference backend stays static so the cross-check pins the
    # adaptive results against the untouched path).
    dispatch: str = "static"

    def resolved_kernels(self) -> List[SuiteKernel]:
        names = self.kernels or tuple(SUITE_KERNELS)
        unknown = [n for n in names if n not in SUITE_KERNELS]
        if unknown:
            raise KeyError(
                f"unknown suite kernels {unknown}; known: {list(SUITE_KERNELS)}"
            )
        return [SUITE_KERNELS[n] for n in names]

    def resolved_set_classes(self) -> List[str]:
        names = [n for n in (self.set_classes or set_class_names())
                 if n != REFERENCE_BACKEND]
        # The reference backend always runs, and runs *first* — it anchors
        # every cell's rel_error and the exact-backend cross-check.
        return [REFERENCE_BACKEND] + names

    def resolved_orderings(self) -> List[str]:
        names = self.orderings or tuple(sorted(ORDERINGS))
        unknown = [n for n in names if n not in ORDERINGS]
        if unknown:
            raise KeyError(
                f"unknown orderings {unknown}; known: {sorted(ORDERINGS)}"
            )
        return list(names)

    def budget_key(self) -> Tuple[int, int, int, float, str]:
        """The resolution knobs that backend resolution depends on.

        Memoized backend resolution — in the session and in the pool
        workers — keys on this tuple so a class resolved under one budget
        (or dispatch mode) never serves a request made under another.
        """
        return (self.bloom_bits, self.kmv_k, self.bloom_shared_bits,
                self.bloom_fpr, self.dispatch)

    def validate_execution(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.schedule not in RUNNER_SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"known: {RUNNER_SCHEDULES}"
            )
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"known: {TRANSPORTS}"
            )
        if self.dispatch not in DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch {self.dispatch!r}; "
                f"known: {DISPATCH_MODES}"
            )

    @classmethod
    def smoke(cls) -> "ExperimentPlan":
        """The tiny CI matrix: 2 backends × 2 orderings × 3 kernels."""
        return cls(
            datasets=("sc-ht-mini",),
            kernels=("tc", "4clique", "bk"),
            set_classes=("bitset", "bloom"),
            orderings=("DGR", "ADG"),
            repeats=1,
        )


def _cell_orderings(kernel: SuiteKernel, orderings: Sequence[str]) -> List[str]:
    return list(orderings) if kernel.uses_ordering else ["-"]


# ---------------------------------------------------------------------------
# Cell-level building blocks — shared verbatim by the sequential loop below
# and the process-pool runner (repro.platform.runner), which is what makes
# the parallel artifact cell-by-cell identical up to timing.
# ---------------------------------------------------------------------------


def expand_cells(plan: ExperimentPlan) -> List[Tuple[str, str, str]]:
    """The plan's cell list, in canonical (sequential) execution order.

    Each spec is ``(backend_name, kernel_name, ordering)``.  The parallel
    runner shards *this* list and re-assembles results by index, so the
    artifact's cell order never depends on the schedule.
    """
    kernels = plan.resolved_kernels()
    orderings = plan.resolved_orderings()
    return [
        (backend_name, kernel.name, ordering)
        for backend_name in plan.resolved_set_classes()
        for kernel in kernels
        for ordering in _cell_orderings(kernel, orderings)
    ]


def resolve_backend(
    plan: ExperimentPlan, dataset: str, backend_name: str, graph: CSRGraph
) -> Type[SetBase]:
    """Resolve one backend name under the plan's budgets and dispatch.

    The reference backend is *pinned static* even under ``--dispatch
    adaptive``: its cells anchor every cross-check, so they must keep
    running on the untouched sorted-array path — that is what makes the
    suite's exact-backend gate a genuine adaptive-vs-static identity
    check rather than adaptive-vs-itself.
    """
    dispatch = ("static" if backend_name == REFERENCE_BACKEND
                else plan.dispatch)
    return resolve_set_class_for_graph(
        graph, backend_name,
        bloom_bits=plan.bloom_bits, kmv_k=plan.kmv_k,
        bloom_shared_bits=plan.bloom_shared_bits,
        bloom_fpr=plan.bloom_fpr, dispatch=dispatch,
    )


def _normalize_result(raw: object) -> Tuple[int, Dict[str, object]]:
    """Accept both runner shapes: bare count, or (count, extras)."""
    if isinstance(raw, tuple):
        value, extras = raw
        return value, dict(extras)
    return raw, {}


def run_cell(
    graph: CSRGraph,
    set_cls: Type[SetBase],
    kernel: SuiteKernel,
    backend_name: str,
    ordering: str,
    plan: ExperimentPlan,
    cache: MaterializationCache,
) -> Dict[str, object]:
    """Execute one cell: metered best-of-``plan.repeats`` warm passes.

    The first pass is timed too, and ``cache.misses`` is read around it.
    If it missed the cache it paid the one-time materialization, so it is
    discarded as the warm-up and ``plan.repeats`` timed passes follow —
    without that, the reference backend (which runs first) would absorb
    the ordering cost and every later backend's speedup would be
    inflated.  If it hit, it already measured the warm kernel and counts
    as timed repeat #1.  A cold cell thus costs ``repeats + 1`` kernel
    passes and a warm one ``repeats``; an entry too large for the cache
    budget (served but not retained) misses on every pass and still stops
    after one extra pass.  The cell's value and counters come from its
    last pass.  ``reference``/``rel_error`` are filled in later by
    :func:`finalize_cells`, once the reference cells are known.
    """

    def timed_pass():
        before = _counters.snapshot()
        t0 = time.perf_counter()
        raw = kernel.runner(graph, set_cls, ordering, plan, cache)
        elapsed = time.perf_counter() - t0
        return elapsed, before.delta(_counters.snapshot()), raw

    misses = cache.misses
    passes = [timed_pass()]
    if cache.misses != misses:
        passes.clear()  # it paid the materialization: the warm-up
    while len(passes) < max(1, plan.repeats):
        passes.append(timed_pass())
    best = min(elapsed for elapsed, _, _ in passes)
    _, delta, raw = passes[-1]
    value, extras = _normalize_result(raw)
    return {
        "kernel": kernel.name,
        "ordering": ordering,
        "set_class": backend_name,
        "resolved_class": set_cls.__name__,
        "exact": bool(set_cls.IS_EXACT),
        "value": value,
        "seconds": best,
        "set_ops": delta.set_ops,
        "point_ops": delta.point_ops,
        "memory_traffic": delta.memory_traffic,
        "sketch_builds": delta.sketch_builds,
        "extras": extras,
    }


def finalize_cells(cells: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Fill ``reference``/``rel_error`` from the reference-backend cells.

    Runs in the parent after all shards merge, so the cross-check logic is
    one piece of code regardless of which worker computed which cell.
    """
    reference: Dict[Tuple[str, str], int] = {
        (c["kernel"], c["ordering"]): c["value"]
        for c in cells if c["set_class"] == REFERENCE_BACKEND
    }
    for cell in cells:
        ref = reference.get((cell["kernel"], cell["ordering"]), cell["value"])
        cell["reference"] = ref
        cell["rel_error"] = abs(cell["value"] - ref) / max(ref, 1)
    return cells


def _merged_cell_counters(
    cells: Sequence[Dict[str, object]]
) -> Dict[str, int]:
    """Merge the per-cell deltas — shard-order independent by construction
    (integer addition per field, the same property
    :func:`repro.core.counters.merge_snapshots` relies on)."""
    return {
        field: sum(c[field] for c in cells)
        for field in ("set_ops", "point_ops", "sketch_builds",
                      "memory_traffic")
    }


def dataset_payload(
    plan: ExperimentPlan,
    dataset: str,
    num_nodes: int,
    num_edges: int,
    cells: List[Dict[str, object]],
    materialization: Dict[str, object],
    measured_seconds: float,
    workers: int,
    schedule: str,
) -> Dict[str, object]:
    """Assemble one dataset's artifact payload (shared by both runners).

    Takes the graph *dimensions* rather than the graph: the parallel
    runner never loads the dataset in the parent (the workers already
    did), so these two ints travel back with the shard results instead.
    """
    finalize_cells(cells)
    cell_seconds = [c["seconds"] for c in cells]
    total = sum(cell_seconds)
    modeled = {}
    for policy in SCHEDULER_POLICIES:
        makespan = simulate_makespan(cell_seconds, workers, policy)
        modeled[policy] = {
            "makespan_seconds": makespan,
            "speedup": total / makespan if makespan > 0 else 0.0,
        }
    return {
        "schema": SCHEMA,
        "dataset": dataset,
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "plan": asdict(plan),
        "reference_backend": REFERENCE_BACKEND,
        "materialization": materialization,
        "counters": _merged_cell_counters(cells),
        "execution": {
            "workers": workers,
            "schedule": schedule,
            "measured_seconds": measured_seconds,
            "cells_seconds_total": total,
            "measured_speedup": (
                total / measured_seconds if measured_seconds > 0 else 0.0
            ),
            "modeled": modeled,
        },
        "cells": cells,
    }


def run_suite(
    plan: ExperimentPlan, verbose: bool = False
) -> List[Dict[str, object]]:
    """Deprecated shim: execute *plan* through a throwaway session.

    The canonical path is :meth:`repro.platform.session.MiningSession.
    run_plan`, which keeps the materialization cache and the resident
    worker pool alive *across* plans.  This shim opens a session matching
    the plan's execution knobs, runs the plan, and closes it — the
    artifact payloads are ``suite-diff``-identical to the session path
    (they *are* the session path), it just forfeits all cross-request
    reuse.  Long-lived callers should hold a
    :class:`~repro.platform.session.MiningSession` instead.
    """
    warnings.warn(
        "run_suite is deprecated; use "
        "repro.platform.session.MiningSession.run_plan so caches and the "
        "resident worker pool survive across plans",
        DeprecationWarning,
        stacklevel=2,
    )
    from .session import MiningSession

    with MiningSession.from_plan(plan, verbose=verbose) as session:
        return session.run_plan(plan, verbose=verbose)


def _print_payload(payload: Dict[str, object]) -> None:
    rows = [
        [
            c["kernel"],
            c["ordering"],
            c["set_class"],
            "yes" if c["exact"] else "no",
            f"{c['value']:,}",
            f"{100 * c['rel_error']:.2f}%",
            f"{1000 * c['seconds']:.1f} ms",
            f"{c['set_ops']:,}",
        ]
        for c in payload["cells"]
    ]
    mat = payload["materialization"]
    execution = payload["execution"]
    print_table(
        f"Experiment suite — {payload['dataset']} "
        f"(n={payload['num_nodes']:,}, m={payload['num_edges']:,}; "
        f"materializations {mat['misses']}, cache hits {mat['hits']}; "
        f"{execution['schedule']} × {execution['workers']} worker(s))",
        ["kernel", "order", "backend", "exact", "value", "rel err",
         "time", "set ops"],
        rows,
    )
    if execution["workers"] > 1:
        modeled = execution["modeled"][execution["schedule"]]
        print(
            f"parallel: measured {1000 * execution['measured_seconds']:.1f} ms"
            f" wall ({execution['measured_speedup']:.2f}x over the summed"
            f" cell times); scheduler model predicts "
            f"{1000 * modeled['makespan_seconds']:.1f} ms "
            f"({modeled['speedup']:.2f}x)"
        )


def _exact_mismatches(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """Exact-backend cells disagreeing with the reference — must be empty."""
    return [
        c for c in payload["cells"] if c["exact"] and c["rel_error"] != 0.0
    ]


def build_suite_parser() -> argparse.ArgumentParser:
    """The ``python -m repro suite`` argument surface."""
    parser = argparse.ArgumentParser(
        prog="repro suite",
        description="declarative kernel × backend × ordering experiment suite",
    )
    parser.add_argument("--datasets", nargs="+", default=["sc-ht-mini"],
                        help="registry dataset names")
    parser.add_argument("--kernels", nargs="+", default=[],
                        choices=sorted(SUITE_KERNELS), metavar="KERNEL",
                        help=f"suite kernels (default: all of "
                             f"{sorted(SUITE_KERNELS)})")
    parser.add_argument("--set-classes", nargs="+", default=[],
                        metavar="BACKEND",
                        help="set backends (default: every registered name)")
    parser.add_argument("--orderings", nargs="+", default=["DGR", "ADG"],
                        choices=sorted(ORDERINGS), metavar="ORDER",
                        help="vertex orderings for ordering-aware kernels")
    parser.add_argument("--k", type=int, default=4, help="clique size k")
    parser.add_argument("--eps", type=float, default=0.1,
                        help="ADG approximation parameter")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per cell (best-of)")
    add_sketch_budget_args(parser)
    add_parallel_args(parser)
    add_dispatch_args(parser)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny CI matrix "
                             "(2 backends × 2 orderings × 3 kernels) and "
                             "ignore the sweep-selection flags (the "
                             "execution flags --workers/--schedule/"
                             "--cache-budget-bytes still apply)")
    parser.add_argument("--verbose", action="store_true")
    return parser


def plan_from_argv(argv: Optional[List[str]] = None) -> ExperimentPlan:
    """Parse ``python -m repro suite`` flags into an :class:`ExperimentPlan`."""
    return _plan_from_namespace(build_suite_parser().parse_args(argv))


def _plan_from_namespace(ns: argparse.Namespace) -> ExperimentPlan:
    if ns.smoke:
        # The smoke matrix is fixed; the execution knobs still apply so CI
        # can run the very same matrix through the process pool.
        return replace(
            ExperimentPlan.smoke(),
            workers=ns.workers, schedule=ns.schedule,
            cache_budget_bytes=ns.cache_budget_bytes,
            transport=ns.transport,
            dispatch=ns.dispatch,
        )
    return ExperimentPlan(
        datasets=tuple(ns.datasets),
        kernels=tuple(ns.kernels),
        set_classes=tuple(ns.set_classes),
        orderings=tuple(ns.orderings),
        k=ns.k,
        eps=ns.eps,
        repeats=ns.repeats,
        bloom_bits=ns.bloom_bits,
        kmv_k=ns.kmv_k,
        bloom_shared_bits=ns.bloom_shared_bits,
        bloom_fpr=ns.bloom_fpr,
        workers=ns.workers,
        schedule=ns.schedule,
        cache_budget_bytes=ns.cache_budget_bytes,
        transport=ns.transport,
        dispatch=ns.dispatch,
    )


def report_payloads(payloads: List[Dict[str, object]]) -> int:
    """Print, persist, and cross-check suite payloads; return mismatches.

    Shared by ``python -m repro suite`` and the session REPL
    (``python -m repro serve``) so both emit the identical artifact and
    apply the identical exact-backend gate.
    """
    bad = 0
    for payload in payloads:
        _print_payload(payload)
        path = write_artifact(f"suite_{payload['dataset']}", payload)
        print(f"artifact: {path}")
        mismatches = _exact_mismatches(payload)
        for cell in mismatches:
            print(
                f"EXACT-BACKEND MISMATCH: {cell['kernel']}/{cell['ordering']}"
                f"/{cell['set_class']} = {cell['value']} "
                f"!= reference {cell['reference']}",
                file=sys.stderr,
            )
        bad += len(mismatches)
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro suite`` — a thin session client."""
    from .session import MiningSession

    ns = build_suite_parser().parse_args(argv)
    plan = _plan_from_namespace(ns)
    plan.validate_execution()
    with MiningSession.from_plan(plan, verbose=ns.verbose) as session:
        payloads = session.run_plan(plan, verbose=ns.verbose)
    return 1 if report_payloads(payloads) else 0
