"""Session-centric mining API: one long-lived object owns the state.

The GMS platform's modularity — swappable set representations, vertex
orderings, and kernels behind one set-algebra interface — used to surface
as ad-hoc plumbing: every call threaded its own ``set_cls``/``cache``
arguments, backend resolution lived on the CLI ``Args`` object, and each
``run_suite`` call built (and tore down) its own process pool.  For a
long-lived service answering repeated queries, all of that state belongs
in one place.  :class:`MiningSession` is that place:

* a **named graph store** — registry datasets loaded once per session
  (:meth:`~MiningSession.load`), plus arbitrary in-memory graphs
  (:meth:`~MiningSession.add_graph`);
* one **budget-bounded** :class:`~repro.graph.set_graph.MaterializationCache`
  shared across *all* requests, so the second query touching a
  (graph, backend, ordering) combination hits cached materializations
  instead of rebuilding them;
* **merged counters** — :attr:`~MiningSession.counters` accumulates the
  set-algebra software counters across every query the session served,
  including work done in pool workers (folded back via the associative
  :meth:`~repro.core.counters.Snapshot.merge`);
* a **resident** :class:`~concurrent.futures.ProcessPoolExecutor` —
  started lazily on the first batch/plan that needs it, reused by every
  subsequent request, and **pre-warmed** by shipping the pickled graphs
  and oriented ``SetGraph`` materializations once at pool creation
  instead of re-materializing per task.  It is created at most once per
  session (:attr:`~MiningSession.pool_starts` pins this) and torn down by
  :meth:`~MiningSession.close`.

On top of the session sits the fluent :class:`Query` builder::

    from repro.platform.session import MiningSession

    with MiningSession(workers=2) as session:
        result = (
            session.query("kclique", k=4)
            .on("ca-grqc")
            .backend("bloom", fpr=0.01)
            .ordering("degeneracy")
            .run()
        )
        batch = session.query("tc").on("sc-ht-mini").run_many([
            {"backend": "bitset"}, {"backend": "bloom"},
        ])

A query compiles down to the existing
:class:`~repro.platform.suite.ExperimentPlan` /
:func:`~repro.platform.suite.run_cell` machinery — the suite, the
parallel runner, the budget sweep, and the CLI (including the
``python -m repro serve`` REPL) are all thin clients of the same session
object model.

Migration notes (from the ``Args``-threading API)
-------------------------------------------------
* ``Args.resolve_set_class_for_graph(graph)`` → deprecated.  Use
  :func:`repro.platform.cli.resolve_set_class_for_graph` for one-shot
  resolution, or let the session resolve (and memoize) backends: the
  :meth:`Query.backend` budgets map onto the same knobs
  (``fpr`` → ``--bloom-fpr``, ``bits`` → ``--bloom-bits``,
  ``shared_bits`` → ``--bloom-shared-bits``, ``kmv_k`` → ``--kmv-k``).
* ``run_suite(plan)`` → deprecated shim.  It now opens a throwaway
  session and calls :meth:`MiningSession.run_plan`; long-lived callers
  should hold a session so caches and the pool survive across plans.
* Per-call ``set_cls=...``/``cache=...`` threading through kernels keeps
  working (the kernels are unchanged), but the session is the intended
  owner of both: ``session.query(...)`` passes its shared cache and its
  memoized resolved backend for you.
* ``ProcessPoolExecutor`` per ``run_suite`` call → the session's resident
  pool.  The pool inherits whatever graphs the session had loaded when it
  started; graphs loaded afterwards are materialized worker-side on first
  use (registry datasets only — add custom graphs *before* the first
  parallel request so they ship with the warm payload).
* ``MaterializationCache.export_graph_state`` callers shipping state
  across processes themselves: the export payload is unchanged, but it
  no longer has to cross the boundary by value — pass it through
  :func:`repro.platform.shm.export_graph_payload` /
  :func:`~repro.platform.shm.attach_graph_payload` to ship shared-memory
  descriptors instead (what ``MiningSession(transport="shm")`` does),
  and own the returned :class:`~repro.platform.shm.SegmentExporter`'s
  lifetime the way :meth:`MiningSession.close` does.

Zero-copy pool architecture (``transport="shm"``)
-------------------------------------------------
With the default ``transport="pickle"`` the pre-warm payload copies
every graph and materialization into every worker.  With
``transport="shm"`` the session exports the CSR arrays and each exact
``SetGraph``'s flattened ``(offsets, values)`` member arrays into named
:mod:`multiprocessing.shared_memory` segments **once** (a
:class:`~repro.platform.shm.SegmentExporter` owned by the session), and
the payload carries only array *descriptors*; workers map the segments
and rebuild read-only zero-copy views.  Segments are unlinked by
:meth:`~MiningSession.close` (idempotent), with a GC/atexit finalizer
plus the stdlib resource tracker as crash backstops — a dead session
never leaks ``/dev/shm`` entries.  Cell values, counters, and artifacts
are identical across transports (CI gates this with ``suite-diff``);
only ``payload_bytes_shipped`` changes.

Single queries (``.run()``) execute in-process against the shared
session cache — lowest latency, cache hits visible in
:meth:`MiningSession.stats`.  Batches (:meth:`Query.run_many`) and plans
(:meth:`MiningSession.run_plan`) fan out across the resident pool when
``workers > 1``.  A batch is submitted and collected in two steps
(``_submit_batch``/``_collect_batch``), so a caller such as the HTTP
front door can wait for the pool shards without holding the session.
"""

from __future__ import annotations

import logging
import pickle
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Type

from ..core import counters as _counters
from ..core.counters import Snapshot, merge_snapshots
from ..core.interface import SetBase
from ..graph import DATASETS, load_dataset
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from ..preprocess.ordering import ORDERINGS
from .cli import DISPATCH_MODES, RUNNER_SCHEDULES, TRANSPORTS
from .suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    dataset_payload,
    expand_cells,
    resolve_backend,
    run_cell,
)

__all__ = [
    "ORDERING_ALIASES",
    "MiningSession",
    "Query",
    "QueryResult",
    "resolve_ordering_name",
]

logger = logging.getLogger(__name__)

#: Friendly ordering names accepted by :meth:`Query.ordering` (and the
#: serve REPL) next to the registry mnemonics.
ORDERING_ALIASES: Dict[str, str] = {
    "degeneracy": "DGR",
    "approx-degeneracy": "ADG",
    "degree": "DEG",
    "triangle": "TRI",
    "identity": "ID",
    "random": "RANDOM",
}


def resolve_ordering_name(name: str) -> str:
    """Map an ordering alias or registry mnemonic to the registry name."""
    resolved = ORDERING_ALIASES.get(name.lower(), name)
    if resolved not in ORDERINGS:
        known = sorted(ORDERINGS) + sorted(ORDERING_ALIASES)
        raise KeyError(f"unknown ordering {name!r}; known: {known}")
    return resolved


def _plan_shard_key(plan: ExperimentPlan) -> tuple:
    """The plan fields two ``run_many`` variants must share to co-shard.

    Everything except the sweep selection (datasets/kernels/set_classes/
    orderings, which the shard's explicit cell specs carry instead): the
    kernel parameters, budgets, and execution knobs a worker actually
    reads while serving a shard.  Variants differing only in kernel (or
    cross-checking the same kernel under one backend) therefore share a
    shard — and its single materialization — while a variant with, say,
    a different ``k`` gets its own.
    """
    return astuple(replace(
        plan, datasets=(), kernels=(), set_classes=(), orderings=(),
    ))


@dataclass
class PendingBatch:
    """A batch in flight between ``_submit_batch`` and ``_collect_batch``.

    ``results`` holds the in-process answers already; ``shards`` pairs
    each pool future with its ``(index, query)`` members; ``done_at``
    stamps each shard's completion, by shard position.
    """

    results: List[Optional["QueryResult"]]
    shards: List[Tuple[Future, List[Tuple[int, "Query"]]]] = field(
        default_factory=list
    )
    started: float = 0.0
    done_at: Dict[int, float] = field(default_factory=dict)

    @property
    def futures(self) -> List[Future]:
        return [future for future, _ in self.shards]


@dataclass(frozen=True)
class QueryResult:
    """One answered query.

    ``seconds`` is the warm best-of-repeats kernel time (the suite cell
    metric); ``wall_seconds`` is the end-to-end latency the session
    observed for this request, *including* any materialization and
    warm-up pass — the number the cold-vs-warm comparison is about.
    ``counters`` is the query's set-algebra delta over every kernel pass
    it made: the timed repeats, plus the discarded warm-up pass only if
    the query missed the cache (see
    :func:`~repro.platform.suite.run_cell`).  ``cache_hits``/
    ``cache_misses`` are the session-cache delta (in-process queries
    only; pool-served queries hit worker-local caches instead, visible in
    :meth:`MiningSession.stats`).
    """

    kernel: str
    dataset: str
    backend: str
    resolved_class: str
    ordering: str
    value: object
    exact: bool
    seconds: float
    wall_seconds: float
    counters: Snapshot
    cache_hits: int
    cache_misses: int
    cell: Dict[str, object] = field(repr=False)


class Query:
    """Fluent, immutable query description bound to a session.

    Every builder method returns a *new* ``Query``, so a configured query
    can be reused as a template: ``base = session.query("tc").on("x")``
    then ``base.backend("bloom").run()`` and ``base.run()`` are
    independent.  :meth:`run` answers one query; :meth:`run_many` answers
    a batch of variations of this query (through the resident pool when
    the session has one).
    """

    _OVERRIDE_KEYS = (
        "kernel", "dataset", "backend", "ordering", "k", "eps", "repeats",
        "fpr", "bits", "shared_bits", "kmv_k", "dispatch",
        "cache_budget_bytes",
    )

    def __init__(self, session: "MiningSession", kernel: str, *,
                 k: int = 4, eps: float = 0.1):
        if kernel not in SUITE_KERNELS:
            raise KeyError(
                f"unknown kernel {kernel!r}; known: {sorted(SUITE_KERNELS)}"
            )
        self._session = session
        self._kernel = kernel
        self._dataset: Optional[str] = None
        self._backend = "sorted"
        self._ordering = "DGR"
        self._k = k
        self._eps = eps
        self._repeats = 1
        self._bloom_bits = 0
        self._kmv_k = 0
        self._bloom_shared_bits = 0
        self._bloom_fpr = 0.0
        self._dispatch = "static"
        self._cache_budget: Optional[int] = None

    def _clone(self) -> "Query":
        clone = Query.__new__(Query)
        clone.__dict__.update(self.__dict__)
        return clone

    def on(self, dataset: str) -> "Query":
        """Select the graph to mine (registry name or a session-added one)."""
        clone = self._clone()
        clone._dataset = dataset
        return clone

    def backend(self, name: str, *, fpr: float = 0.0, bits: int = 0,
                shared_bits: int = 0, kmv_k: int = 0) -> "Query":
        """Select the set representation and its sketch budgets.

        The budget keywords carry the shared CLI semantics: ``fpr`` is the
        Bloom false-positive target (auto-sizes a shared budget, wins over
        the bit budgets), ``bits`` the per-element Bloom budget,
        ``shared_bits`` the per-graph shared Bloom total, ``kmv_k`` the
        KMV signature size.  Resolution happens per graph at run time and
        is memoized by the session.
        """
        clone = self._clone()
        clone._backend = name
        clone._bloom_fpr = fpr
        clone._bloom_bits = bits
        clone._bloom_shared_bits = shared_bits
        clone._kmv_k = kmv_k
        return clone

    def ordering(self, name: str) -> "Query":
        """Select the vertex ordering (registry mnemonic or alias)."""
        clone = self._clone()
        clone._ordering = resolve_ordering_name(name)
        return clone

    def dispatch(self, mode: str) -> "Query":
        """Select the set-op dispatch policy (``static`` or ``adaptive``).

        ``adaptive`` swaps the resolved backend for the density-adaptive
        dispatcher when it is exact; sketch backends are left alone.
        Results are bit-identical either way.
        """
        if mode not in DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch mode {mode!r}; known: {DISPATCH_MODES}"
            )
        clone = self._clone()
        clone._dispatch = mode
        return clone

    def params(self, *, k: Optional[int] = None,
               eps: Optional[float] = None) -> "Query":
        """Override kernel parameters (clique size ``k``, ADG ``eps``)."""
        clone = self._clone()
        if k is not None:
            clone._k = k
        if eps is not None:
            clone._eps = eps
        return clone

    def repeats(self, n: int) -> "Query":
        """Meter the kernel as best-of-*n* warm passes (timing only).

        A query that misses the cache runs one extra, discarded warm-up
        pass first; a warm one runs exactly *n* passes.
        """
        clone = self._clone()
        clone._repeats = max(1, n)
        return clone

    def cache_budget(self, nbytes: int) -> "Query":
        """Override the plan's worker-cache byte budget for this query.

        The session's own shared cache keeps the budget it was built
        with; this knob rides the compiled plan into *pool workers*
        (each worker's per-dataset :class:`MaterializationCache` is
        bounded by the plan budget), which is how the HTTP tier threads
        a tenant's cache-bytes quota into pool-served requests.  ``0``
        means unbounded; the default inherits the session budget.
        """
        clone = self._clone()
        clone._cache_budget = max(0, int(nbytes))
        return clone

    def with_overrides(self, overrides: Mapping[str, object]) -> "Query":
        """Apply a :meth:`run_many` variant dict to this query."""
        unknown = set(overrides) - set(self._OVERRIDE_KEYS)
        if unknown:
            raise KeyError(
                f"unknown query override(s) {sorted(unknown)}; "
                f"known: {list(self._OVERRIDE_KEYS)}"
            )
        query = self
        if "kernel" in overrides:
            fresh = Query(self._session, str(overrides["kernel"]))
            fresh.__dict__.update(
                {k: v for k, v in self.__dict__.items() if k != "_kernel"}
            )
            query = fresh
        if "dataset" in overrides:
            query = query.on(str(overrides["dataset"]))
        if "backend" in overrides:
            query = query.backend(
                str(overrides["backend"]),
                fpr=float(overrides.get("fpr", query._bloom_fpr)),
                bits=int(overrides.get("bits", query._bloom_bits)),
                shared_bits=int(
                    overrides.get("shared_bits", query._bloom_shared_bits)
                ),
                kmv_k=int(overrides.get("kmv_k", query._kmv_k)),
            )
        elif {"fpr", "bits", "shared_bits", "kmv_k"} & set(overrides):
            query = query.backend(
                query._backend,
                fpr=float(overrides.get("fpr", query._bloom_fpr)),
                bits=int(overrides.get("bits", query._bloom_bits)),
                shared_bits=int(
                    overrides.get("shared_bits", query._bloom_shared_bits)
                ),
                kmv_k=int(overrides.get("kmv_k", query._kmv_k)),
            )
        if "ordering" in overrides:
            query = query.ordering(str(overrides["ordering"]))
        if "k" in overrides or "eps" in overrides:
            query = query.params(
                k=(int(overrides["k"]) if "k" in overrides else None),
                eps=(float(overrides["eps"]) if "eps" in overrides
                     else None),
            )
        if "repeats" in overrides:
            query = query.repeats(int(overrides["repeats"]))
        if "dispatch" in overrides:
            query = query.dispatch(str(overrides["dispatch"]))
        if "cache_budget_bytes" in overrides:
            query = query.cache_budget(int(overrides["cache_budget_bytes"]))
        return query

    # -- compilation --------------------------------------------------------

    def plan(self) -> ExperimentPlan:
        """Compile this query to a single-cell :class:`ExperimentPlan`."""
        if self._dataset is None:
            raise ValueError("query has no dataset; call .on(<dataset>)")
        session = self._session
        return ExperimentPlan(
            datasets=(self._dataset,),
            kernels=(self._kernel,),
            set_classes=(self._backend,),
            orderings=(self._ordering,),
            k=self._k,
            eps=self._eps,
            repeats=self._repeats,
            bloom_bits=self._bloom_bits,
            kmv_k=self._kmv_k,
            bloom_shared_bits=self._bloom_shared_bits,
            bloom_fpr=self._bloom_fpr,
            workers=session.workers,
            schedule=session.schedule,
            cache_budget_bytes=(
                session.cache_budget_bytes if self._cache_budget is None
                else self._cache_budget
            ),
            dispatch=self._dispatch,
        )

    def cell_spec(self) -> Tuple[str, str, str]:
        """The ``(backend, kernel, ordering)`` cell this query denotes."""
        kernel = SUITE_KERNELS[self._kernel]
        ordering = self._ordering if kernel.uses_ordering else "-"
        return (self._backend, self._kernel, ordering)

    # -- execution ----------------------------------------------------------

    def run(self) -> QueryResult:
        """Answer this query in-process against the session cache."""
        return self._session._run_query(self)

    def run_many(
        self, variants: Optional[Sequence[Mapping[str, object]]] = None
    ) -> List[QueryResult]:
        """Answer a batch: this query under each override dict.

        ``variants=None`` runs the query once (a batch of one).  On a
        ``workers > 1`` session the batch fans out over the resident pool,
        one task per variant; per-variant counter deltas are merged with
        the associative :meth:`Snapshot.merge` so the session totals are
        identical to a sequential run of the same batch.
        """
        queries = (
            [self] if variants is None
            else [self.with_overrides(v) for v in variants]
        )
        return self._session._run_batch(queries)


class MiningSession:
    """The long-lived facade owning graphs, cache, counters, and the pool.

    See the module docstring for the object model and migration notes.
    ``workers=1`` (default) answers everything in-process; ``workers > 1``
    serves batches and plans from a resident process pool that is started
    lazily, pre-warmed once, and reused until :meth:`close`.

    ``transport`` selects how the pre-warm state reaches the workers:
    ``"pickle"`` (default) copies it into each worker; ``"shm"`` exports
    the arrays once into named shared-memory segments that workers map as
    read-only zero-copy views (see the module docstring's zero-copy
    section) — same results, payload bytes reduced to descriptors.
    ``schedule`` picks the pool policy (``static``/``dynamic``/
    ``stealing``); :meth:`close` unlinks any shm segments.
    """

    def __init__(self, *, workers: int = 1, schedule: str = "dynamic",
                 cache_budget_bytes: int = 0, transport: str = "pickle",
                 verbose: bool = False):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if schedule not in RUNNER_SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; known: {RUNNER_SCHEDULES}"
            )
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; known: {TRANSPORTS}"
            )
        self.workers = workers
        self.schedule = schedule
        self.cache_budget_bytes = cache_budget_bytes
        self.transport = transport
        self.verbose = verbose
        self.cache = MaterializationCache(
            budget_bytes=cache_budget_bytes or None
        )
        self.pool_starts = 0
        self.queries_run = 0
        self.plans_run = 0
        self._graphs: Dict[str, CSRGraph] = {}
        self._resolved: Dict[tuple, Tuple[CSRGraph, Type[SetBase]]] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shipped: frozenset = frozenset()
        self._rebound_after_pool: Set[str] = set()
        self._exporter = None  # platform.shm.SegmentExporter, shm transport
        self._worker_cache_stats: Dict[int, Dict[str, object]] = {}
        self._baseline = _counters.snapshot()
        self._closed = False

    @classmethod
    def from_plan(cls, plan: ExperimentPlan,
                  verbose: bool = False) -> "MiningSession":
        """A session matching *plan*'s execution knobs (shim entry path)."""
        plan.validate_execution()
        return cls(
            workers=plan.workers, schedule=plan.schedule,
            cache_budget_bytes=plan.cache_budget_bytes,
            transport=plan.transport, verbose=verbose,
        )

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Tear down the resident pool and refuse further requests.

        Idempotent.  The cache and counters stay readable after close (for
        final stats reporting); only execution is refused.  Under the shm
        transport this is also where the session's shared-memory segments
        are unlinked — after the pool drains, so no worker still needs
        the parent to keep the names alive (the mappings themselves
        survive unlink; the names must only outlive late *attaches*).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._exporter is not None:
            self._exporter.close()
            self._exporter = None
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("MiningSession is closed")

    # -- graph store --------------------------------------------------------

    def load(self, name: str) -> CSRGraph:
        """Load a registry dataset into the session store (memoized)."""
        graph = self._graphs.get(name)
        if graph is None:
            graph = load_dataset(name)
            self._graphs[name] = graph
        return graph

    def add_graph(self, name: str, graph: CSRGraph) -> CSRGraph:
        """Register an in-memory graph under *name* for this session.

        Add custom graphs before the first parallel request: the resident
        pool ships the graph store once, at creation, and workers can only
        self-load *registry* datasets afterwards.  For the same reason, a
        name already shipped to a running pool cannot be re-bound — the
        workers would keep serving the old graph.
        """
        if name in DATASETS:
            raise ValueError(
                f"{name!r} is a registry dataset name; pool workers "
                f"resolve registry names through the registry, so "
                f"shadowing one with a session graph would diverge — "
                f"pick a different name"
            )
        if self._pool is not None and name in self._shipped:
            raise RuntimeError(
                f"graph {name!r} was already shipped to the resident pool "
                f"and cannot be re-bound; use a new name (or a new session)"
            )
        if self._pool is not None and name in self._graphs:
            # A known-but-unshipped name re-bound after pool start: the
            # parent now holds a graph the workers never saw, and a later
            # parallel request for this name would otherwise resolve
            # worker-side to something else entirely.  Record the
            # divergence so _require_pool_dataset fails fast instead of
            # letting it pass silently.
            self._rebound_after_pool.add(name)
        self._graphs[name] = graph
        return graph

    def graphs(self) -> List[str]:
        """Names currently in the session store."""
        return sorted(self._graphs)

    def warm(self, dataset: str, backends: Sequence[str] = ("sorted",),
             orderings: Sequence[str] = ("DGR",), eps: float = 0.1, *,
             fpr: float = 0.0, bits: int = 0, shared_bits: int = 0,
             kmv_k: int = 0) -> None:
        """Pre-materialize (backend × ordering) combinations for *dataset*.

        Populates the session cache so a subsequent pool start ships real
        materializations — and so the first query is already warm.  The
        budget keywords mirror :meth:`Query.backend`: warming is only
        useful if it resolves to the *same* class the queries will use,
        and budgeted resolution depends on these knobs.  (Budget-derived
        sketch classes cannot ship to pool workers — they are not
        picklable by reference — so for those the warmth benefits the
        in-process paths only.)
        """
        self._check_open()
        graph = self.load(dataset)
        plan = ExperimentPlan(
            eps=eps, bloom_bits=bits, kmv_k=kmv_k,
            bloom_shared_bits=shared_bits, bloom_fpr=fpr,
        )
        for backend in backends:
            cls = self._backend_for(plan, dataset, backend, graph)
            self.cache.set_graph(graph, cls)
            for name in orderings:
                name = resolve_ordering_name(name)
                kwargs = {"eps": eps} if name == "ADG" else {}
                self.cache.oriented(graph, cls, name, **kwargs)

    # -- backend resolution -------------------------------------------------

    def _backend_for(self, plan: ExperimentPlan, dataset: str,
                     backend_name: str, graph: CSRGraph) -> Type[SetBase]:
        """Budget-resolved set class, memoized per (graph, budgets).

        Keyed by graph *identity*, not just the dataset name: budget
        resolution depends on the graph's size and average degree, and
        ``add_graph`` may re-bind a name to a different graph.  The memo
        holds the graph itself, both to compare identity and to pin the
        object so a recycled ``id()`` can never alias a stale entry.
        """
        key = (dataset, backend_name) + plan.budget_key()
        memo = self._resolved.get(key)
        if memo is not None and memo[0] is graph:
            return memo[1]
        cls = resolve_backend(plan, dataset, backend_name, graph)
        self._resolved[key] = (graph, cls)
        return cls

    # -- resident pool ------------------------------------------------------

    def _ensure_exporter(self):
        """The session's shm segment owner — created at most once."""
        if self._exporter is None:
            from .shm import SegmentExporter

            self._exporter = SegmentExporter()
        return self._exporter

    def _warm_payload(self) -> Tuple[bytes, frozenset]:
        """Build the pool pre-warm payload, one entry per dataset.

        Returns the payload bytes and the set of dataset names it
        actually carries.  Each dataset is pickled *independently* (the
        outer payload maps names to ready-made blobs), so one graph that
        cannot cross the process boundary drops only its own entry —
        every other dataset keeps its full warm state — and the
        shipped-set stays truthful so :meth:`_require_pool_dataset`
        keeps failing fast for graphs the workers never received.

        Per dataset the candidates degrade gracefully: a shared-memory
        descriptor entry first (``transport="shm"``, plain ``CSRGraph``
        only — a subclass would lose its behavior in the worker-side
        rebuild), then full state by value, then graph-only.  A segment
        exported for an entry whose pickling then fails is released
        *before* the fallback candidate runs (:meth:`_shm_entry`), so a
        dataset that ends up shipping by pickle never parks dead
        segments in ``/dev/shm`` for the session's lifetime.
        """
        budget = self.cache_budget_bytes or None
        entries: Dict[str, bytes] = {}
        for name, graph in self._graphs.items():
            state = self.cache.export_graph_state(graph)
            candidates = []
            if self.transport == "shm" and type(graph) is CSRGraph:
                candidates.append(
                    lambda g=graph, s=state: self._shm_entry(g, s, budget)
                )
            candidates.append(
                lambda g=graph, s=state: pickle.dumps(
                    ("pickle", g, s, budget)
                )
            )
            candidates.append(
                lambda g=graph: pickle.dumps(("pickle", g, None, budget))
            )
            for make in candidates:
                try:
                    entries[name] = make()
                    break
                except Exception:
                    # Degrade to the next transport candidate — but log
                    # which one failed, or a dataset silently shipping
                    # by pickle looks identical to zero-copy shm.
                    logger.debug("warm-payload candidate for dataset %r "
                                 "failed; degrading to the next transport",
                                 name, exc_info=True)
                    continue
        return pickle.dumps(entries), frozenset(entries)

    def _shm_entry(self, graph: CSRGraph, state: Optional[dict],
                   budget: Optional[int]) -> bytes:
        """One dataset's shared-memory warm-payload blob.

        Exports the graph + materialization arrays into the session's
        segments, then pickles the descriptor entry.  If that pickling
        fails (e.g. a runtime-defined set class rode along in *state*),
        the references the export just took are released again before
        the error propagates to the fallback chain — the failed
        candidate must not leave segments pinned until :meth:`close`.
        """
        from .shm import export_graph_payload, release_graph_payload

        exporter = self._ensure_exporter()
        payload = export_graph_payload(exporter, graph, state)
        try:
            return pickle.dumps(("shm", payload, budget))
        except Exception:
            logger.debug("releasing shm payload for unpicklable entry "
                         "before falling back", exc_info=True)
            release_graph_payload(exporter, payload)
            raise

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The resident pool — created (and pre-warmed) at most once."""
        self._check_open()
        if self._pool is None:
            from .runner import _mp_context, _seed_worker

            payload, shipped = self._warm_payload()
            # The seed payload initializes every worker, so it ships
            # workers-many times; metered parent-side as bytes without
            # tasks (it amortizes over the tasks it warms).
            _counters.COUNTERS.record_payload(len(payload) * self.workers)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_mp_context(),
                initializer=_seed_worker,
                initargs=(payload,),
            )
            self.pool_starts += 1
            self._shipped = shipped
        return self._pool

    def _pool_serves(self, dataset: str) -> bool:
        """Whether the running pool's workers hold the parent's *dataset*.

        Workers hold the graphs shipped at pool creation and can
        self-load registry datasets; anything else — a custom graph
        added, or a shipped/known name re-bound, after the pool started —
        would make the workers mine a different graph than the parent
        holds.
        """
        return dataset not in self._rebound_after_pool and (
            dataset in self._shipped or dataset in DATASETS
        )

    def _require_pool_dataset(self, dataset: str) -> None:
        """Fail fast when a pool worker could not obtain *dataset*.

        Raises where :meth:`_pool_serves` says no, instead of letting the
        workers diverge silently from the parent.
        """
        if self._pool_serves(dataset):
            return
        if dataset in self._rebound_after_pool:
            raise RuntimeError(
                f"graph {dataset!r} was re-bound after the resident pool "
                f"started; the workers never received the new graph and "
                f"would serve stale data — use a new name (or a new "
                f"session) for the re-bound graph"
            )
        raise RuntimeError(
            f"dataset {dataset!r} was not shipped to the resident pool "
            f"(added after the pool started, or its graph could not be "
            f"pickled into the warm payload); add picklable custom "
            f"graphs before the first parallel request"
        )

    # -- query execution ----------------------------------------------------

    def query(self, kernel: str, *, k: int = 4, eps: float = 0.1) -> Query:
        """Start a fluent :class:`Query` for one suite kernel."""
        self._check_open()
        return Query(self, kernel, k=k, eps=eps)

    def _result_from_cell(self, query: Query, cell: Dict[str, object],
                          wall: float, delta: Snapshot,
                          hits: int, misses: int) -> QueryResult:
        return QueryResult(
            kernel=cell["kernel"],
            dataset=query._dataset,
            backend=cell["set_class"],
            resolved_class=cell["resolved_class"],
            ordering=cell["ordering"],
            value=cell["value"],
            exact=cell["exact"],
            seconds=cell["seconds"],
            wall_seconds=wall,
            counters=delta,
            cache_hits=hits,
            cache_misses=misses,
            cell=cell,
        )

    def _run_query(self, query: Query) -> QueryResult:
        """Answer one query in-process against the shared session cache."""
        self._check_open()
        plan = query.plan()
        dataset = query._dataset
        graph = self.load(dataset)
        backend_name, kernel_name, ordering = query.cell_spec()
        set_cls = self._backend_for(plan, dataset, backend_name, graph)
        hits0, misses0 = self.cache.hits, self.cache.misses
        before = _counters.snapshot()
        t0 = time.perf_counter()
        cell = run_cell(
            graph, set_cls, SUITE_KERNELS[kernel_name], backend_name,
            ordering, plan, self.cache,
        )
        wall = time.perf_counter() - t0
        delta = before.delta(_counters.snapshot())
        self.queries_run += 1
        return self._result_from_cell(
            query, cell, wall, delta,
            self.cache.hits - hits0, self.cache.misses - misses0,
        )

    def _submit_batch(self, queries: Sequence[Query], *,
                      in_process_fallback: bool = False) -> PendingBatch:
        """Start answering a batch; :meth:`_collect_batch` finishes it.

        On a ``workers > 1`` session this validates the batch, groups it
        into pool shards and submits them, then returns with the shards
        in flight.  Variants sharing a ``(dataset, backend, ordering)``
        materialization (under identical kernel parameters and budgets)
        are batched into **one** pool shard: the worker runs them
        back-to-back against the same warm cache entry, and the batch
        ships one task payload instead of one per variant.

        A query for a dataset the pool cannot serve (see
        :meth:`_pool_serves`) fails the whole batch before anything is
        submitted — or, with *in_process_fallback*, is answered
        in-process once the shards are in flight.  A ``workers <= 1``
        session answers every query in-process, here.
        """
        self._check_open()
        batch = PendingBatch(results=[None] * len(queries))
        local = range(len(queries))
        if self.workers > 1 and queries:
            from .runner import _submit_shard

            pool = self._ensure_pool()
            # Validate the whole batch before the first submission: a bad
            # variant must fail the batch up front, not after earlier
            # variants' shards (and their counter deltas) are already in
            # flight and would be silently abandoned.
            local = []
            groups: "OrderedDict[tuple, list]" = OrderedDict()
            for index, query in enumerate(queries):
                plan = query.plan()
                if in_process_fallback and not self._pool_serves(
                        query._dataset):
                    local.append(index)
                    continue
                self._require_pool_dataset(query._dataset)
                backend, _, ordering = query.cell_spec()
                key = (query._dataset, backend, ordering,
                       _plan_shard_key(plan))
                groups.setdefault(key, []).append((index, query, plan))
            batch.started = time.perf_counter()
            for group_index, members in enumerate(groups.values()):
                _, first, plan = members[0]
                shard = [(i, q.cell_spec()) for i, q, _ in members]
                future = _submit_shard(pool, plan, first._dataset, shard)
                # Stamp completion as it happens — collecting futures in
                # submission order would otherwise charge early
                # finishers with their predecessors' wait time.
                future.add_done_callback(
                    lambda _f, g=group_index: batch.done_at.setdefault(
                        g, time.perf_counter()
                    )
                )
                batch.shards.append(
                    (future, [(i, q) for i, q, _ in members])
                )
        for index in local:
            batch.results[index] = self._run_query(queries[index])
        return batch

    def _collect_batch(self, batch: PendingBatch) -> List[QueryResult]:
        """Finish a :meth:`_submit_batch` batch: merge its pool shards.

        Blocks until every shard is done.  Per-variant counters come from
        the shard's telescoping per-cell deltas, so they still sum
        exactly to what the shard cost; the shard's wall clock is
        attributed to each of its variants (they completed together).
        """
        from .runner import accumulate_cache_stats

        deltas: List[Snapshot] = []
        for group_index, (future, members) in enumerate(batch.shards):
            shard = future.result()
            wall = (batch.done_at.get(group_index, time.perf_counter())
                    - batch.started)
            deltas.append(shard["counters"])
            accumulate_cache_stats(
                self._worker_cache_stats, shard["pid"],
                shard["cache_stats"],
            )
            queries = dict(members)
            for (index, cell), cell_delta in zip(
                shard["cells"], shard["cell_counters"]
            ):
                batch.results[index] = self._result_from_cell(
                    queries[index], cell, wall, cell_delta, 0, 0,
                )
            self.queries_run += len(members)
        # One associative merge, folded into this process's global block —
        # the session totals come out identical to a sequential run of the
        # same batch, whatever the completion order.
        _counters.COUNTERS.absorb(merge_snapshots(deltas))
        return batch.results

    def _run_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        """Answer a batch — through the resident pool when workers > 1."""
        return self._collect_batch(self._submit_batch(queries))

    # -- plan execution (the suite path) ------------------------------------

    def run_plan(self, plan: ExperimentPlan,
                 verbose: Optional[bool] = None, *,
                 max_workers: Optional[int] = None,
                 cache_budget_bytes: Optional[int] = None,
                 ) -> List[Dict[str, object]]:
        """Execute a declarative :class:`ExperimentPlan` through the session.

        The session's execution knobs (``workers``/``schedule``/
        ``cache_budget_bytes``) govern — the plan's own are replaced, so
        one session applies a single execution policy to every plan it
        serves.  Sequential plans run against the shared session cache;
        parallel plans run on the resident pool.  Either way the
        artifact's ``materialization`` block reports only *this run's*
        cache deltas (gauges instantaneous), so a warm re-run shows hits
        without inheriting earlier runs' counts; payloads are
        cell-by-cell identical to the historical ``run_suite`` ones up to
        timing and materialization stats.

        ``max_workers`` clamps *this plan's* logical worker count to at
        most the session's (never below 1) without resizing the resident
        pool — a plan clamped to 1 runs sequentially in-process; a plan
        clamped to ``k < workers`` shards as if the pool had ``k``
        workers.  ``cache_budget_bytes`` likewise overrides the byte
        budget the plan carries into pool workers.  Both exist so a
        multi-tenant front end (``repro serve --http``) can thread
        per-tenant worker-share and cache quotas into individual plans.
        """
        self._check_open()
        verbose = self.verbose if verbose is None else verbose
        plan.validate_execution()
        workers = self.workers
        if max_workers is not None:
            workers = max(1, min(workers, int(max_workers)))
        plan = replace(
            plan, workers=workers, schedule=self.schedule,
            cache_budget_bytes=(
                self.cache_budget_bytes if cache_budget_bytes is None
                else max(0, int(cache_budget_bytes))
            ),
            transport=self.transport,
        )
        if workers > 1:
            from .runner import run_plan_on_pool

            if self._pool is None:
                # Pull the plan's registry datasets into the store before
                # the one-and-only pool start, so the graphs ride the
                # session's transport (shared memory under "shm") instead
                # of every worker re-loading them on first touch.
                for dataset in plan.datasets:
                    if dataset in DATASETS:
                        self.load(dataset)
            pool = self._ensure_pool()
            for dataset in plan.datasets:
                self._require_pool_dataset(dataset)
            payloads = [
                run_plan_on_pool(pool, plan, dataset, verbose=verbose,
                                 worker_stats=self._worker_cache_stats)
                for dataset in plan.datasets
            ]
            self.plans_run += 1
            return payloads

        payloads: List[Dict[str, object]] = []
        for dataset in plan.datasets:
            graph = self.load(dataset)
            stats_baseline = self.cache.stats()
            cells: List[Dict[str, object]] = []
            t0 = time.perf_counter()
            for backend_name, kernel_name, ordering in expand_cells(plan):
                set_cls = self._backend_for(plan, dataset, backend_name,
                                            graph)
                cell = run_cell(
                    graph, set_cls, SUITE_KERNELS[kernel_name],
                    backend_name, ordering, plan, self.cache,
                )
                cells.append(cell)
                if verbose:
                    print(
                        f"  {dataset} {cell['kernel']:<9} "
                        f"{cell['ordering']:<4} {backend_name:<10} "
                        f"value={cell['value']} "
                        f"({1000 * cell['seconds']:.1f} ms)"
                    )
            measured = time.perf_counter() - t0
            payloads.append(dataset_payload(
                plan, dataset, graph.num_nodes, graph.num_edges, cells,
                self.cache.stats_since(stats_baseline), measured,
                workers=1, schedule="sequential",
            ))
        self.plans_run += 1
        return payloads

    # -- observability ------------------------------------------------------

    @property
    def counters(self) -> Snapshot:
        """Merged set-algebra counters across everything this session ran.

        Pool workers' deltas are folded into the parent's global block as
        batches/plans complete, so this covers them too.
        """
        return self._baseline.delta(_counters.snapshot())

    def stats(self) -> Dict[str, object]:
        """Session-level stats: cache, counters, pool, and traffic."""
        counters = self.counters
        worker_stats = {
            field_: sum(s[field_] for s in self._worker_cache_stats.values())
            for field_ in ("hits", "misses", "evictions")
        } if self._worker_cache_stats else None
        return {
            "cache": self.cache.stats(),
            "worker_caches": worker_stats,
            "counters": {
                "set_ops": counters.set_ops,
                "point_ops": counters.point_ops,
                "sketch_builds": counters.sketch_builds,
                "memory_traffic": counters.memory_traffic,
                "payload_bytes_shipped": counters.payload_bytes_shipped,
                "payload_tasks": counters.payload_tasks,
            },
            "pool": {
                "workers": self.workers,
                "schedule": self.schedule,
                "transport": self.transport,
                "starts": self.pool_starts,
                "resident": self._pool is not None,
                "shm_bytes": (
                    self._exporter.total_bytes() if self._exporter else 0
                ),
                "shm_suppressed": _counters.COUNTERS.shm_suppressed,
            },
            "graphs": self.graphs(),
            "queries": self.queries_run,
            "plans": self.plans_run,
            "closed": self._closed,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"MiningSession(workers={self.workers}, "
            f"schedule={self.schedule!r}, graphs={len(self._graphs)}, "
            f"queries={self.queries_run}, {state})"
        )
