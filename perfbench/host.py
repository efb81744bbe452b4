"""Program host: the process in which the program under test runs.

The runner (``run.py``) starts one host per set-up; the host imports the
program, builds its inputs into a session and reports back as JSON lines
on stdout.  Keeping the program in its own process gives ``setup_s`` a
cold start and ``peak_rss_mb`` a footprint free of the runner's
reference computations.

Usage (by ``run.py``; not meant to be run by hand)::

    python3 perfbench/host.py <workload> --seed N --seconds S
        [--trace] [--setup-only]

Input generation happens before the set-up clock starts: it is the
benchmark's work, not the program's.  So do starting the probe helpers
and the first machine-speed probes (for serve-warm, whose timed loop is
the runner's, the runner probes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (OUT, CpuMeter, Prober, Tracer, children,  # noqa: E402
                    blend, descendants, peak_rss_mb)
from gen import workload_graphs  # noqa: E402

#: Backends every serve-warm query mix and the ingest warm-up cover.
SHALLOW_BACKENDS = ("sorted", "bitset", "hash")
#: The suite-deep sweep.
DEEP_KERNELS = ("kclique", "bk", "4clique", "kstar")
DEEP_BACKENDS = ("sorted", "bitset", "hash", "roaring")
ORDERINGS = ("DGR", "ADG")
#: ADG's approximation parameter (the session and plan default).
EPS = 0.1
#: Cache byte budget of the ingest session: below one graph's full warm
#: set, so inserts evict within every graph of the stream.
INGEST_CACHE_BYTES = 16 << 20


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def counter_fields(snap) -> dict:
    return {
        "set_ops": snap.set_ops,
        "elements": snap.memory_traffic,
        "words": dict(snap.words_scanned),
        "payload_bytes": snap.payload_bytes_shipped,
        "payload_tasks": snap.payload_tasks,
    }


def footprint(exclude=()) -> dict:
    """Peak RSS of this process and its descendants (the pool workers),
    leaving out the *exclude* PIDs (the benchmark's probe helpers)."""
    me = os.getpid()
    return {"peak_rss_mb": peak_rss_mb(
        pid for pid in [me] + descendants(me) if pid not in exclude)}


class CacheSpans:
    """Spans around the program's own calls into a materialization cache.

    When tracing, wraps the ``ordering``, ``set_graph`` and ``oriented``
    methods of the *cache* instance, so ``MiningSession.warm`` and the
    query path are timed as they run; ``oriented`` calls ``ordering``
    itself, so that span nests inside.  ``request`` tags the spans.
    ``bytes`` adds up the SetGraphs the cache inserted, sized after the
    call in a ``bench`` span (sizing is the benchmark's work).  A
    disabled tracer leaves the cache untouched.
    """

    def __init__(self, cache, tracer) -> None:
        self.request = None
        self.bytes = 0
        self.cache = cache
        if not tracer.enabled:
            return
        from repro.core.registry import SET_CLASSES

        labels = {cls: name for name, cls in SET_CLASSES.items()}
        ordering, set_graph, oriented = (cache.ordering, cache.set_graph,
                                         cache.oriented)

        def sized(sg, inserted):
            if inserted:
                with tracer.span("bench.size", "bench", self.request):
                    self.bytes += sg.storage_bytes()
            return sg

        def traced_ordering(graph, name, **kwargs):
            with tracer.span(f"ordering.{name}", "ordering", self.request):
                return ordering(graph, name, **kwargs)

        def label(set_cls):
            return labels.get(set_cls, set_cls.__name__)

        def traced_set_graph(graph, set_cls):
            before = cache.insertions
            with tracer.span(f"materialize.{label(set_cls)}.set_graph",
                             "graph", self.request):
                sg = set_graph(graph, set_cls)
            return sized(sg, cache.insertions > before)

        def traced_oriented(graph, set_cls, name, **kwargs):
            before = cache.insertions
            with tracer.span(f"materialize.{label(set_cls)}.oriented",
                             "graph", self.request):
                order_res, dag = oriented(graph, set_cls, name, **kwargs)
            return order_res, sized(dag, cache.insertions > before)

        cache.ordering = traced_ordering
        cache.set_graph = traced_set_graph
        cache.oriented = traced_oriented

    def close(self) -> None:
        """Unwrap the cache: later calls run untraced."""
        for name in ("ordering", "set_graph", "oriented"):
            vars(self.cache).pop(name, None)


def commands():
    """Command lines from the runner, read from fd 0 without ``sys.stdin``.

    The pool forks while this loop waits; a forked child closes
    ``sys.stdin`` at start-up, which would deadlock on the buffer lock a
    blocked ``sys.stdin`` read holds in the parent.
    """
    pending = b""
    while True:
        chunk = os.read(0, 4096)
        if not chunk:
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode().strip()


def cell_record(cell: dict) -> dict:
    """The fields of a suite cell the runner checks and aggregates."""
    return {
        "kernel": cell["kernel"], "ordering": cell["ordering"],
        "backend": cell["set_class"], "value": cell["value"],
        "seconds": cell["seconds"],
        "set_ops": cell["set_ops"], "elements": cell["memory_traffic"],
        "recursive_calls": cell["extras"].get("recursive_calls"),
    }


# ---------------------------------------------------------------------------
# serve-warm: a MiningSession(workers=2) behind MiningHTTPServer
# ---------------------------------------------------------------------------


def host_serve(args, graphs, tracer, t0) -> None:
    from repro.core import counters
    from repro.graph import build_undirected
    from repro.platform.http import running_server
    from repro.platform.session import MiningSession

    session = MiningSession(workers=2)
    spans = CacheSpans(session.cache, tracer)
    for name, (n, edges) in sorted(graphs.items()):
        spans.request = name
        with tracer.span("graph.build", "graph", name):
            graph = build_undirected(n, edges)
        with tracer.span("session.add_graph", "session", name):
            session.add_graph(name, graph)
        # tc/kstar read the plain SetGraph, tc-merge the DEG orientation,
        # 4clique the DGR one; adaptive dispatch resolves every backend
        # to the one adaptive class.
        with tracer.span("session.warm", "session", name):
            session.warm(name, SHALLOW_BACKENDS + ("adaptive",),
                         ("DEG", "DGR"))
    spans.close()
    with running_server(session,
                        job_root=os.path.join(OUT, "jobs")) as server:
        emit("ready", port=server.port, setup_s=time.perf_counter() - t0,
             materialized_bytes=spans.bytes, spans=tracer.spans)
        for command in commands():
            if command == "snapshot":
                emit("snapshot", counters=counter_fields(counters.snapshot()),
                     cache=session.cache.stats(), **footprint())
            elif command == "stop":
                break
    session.close()
    emit("stopped", children=len(children(os.getpid())))


# ---------------------------------------------------------------------------
# suite-deep: MiningSession(workers=2).run_plan over a clique-rich graph
# ---------------------------------------------------------------------------


def host_suite(args, graphs, tracer, t0) -> None:
    from repro.core import counters
    from repro.graph import build_undirected
    from repro.platform.session import MiningSession
    from repro.platform.suite import ExperimentPlan

    session = MiningSession(workers=2)
    spans = CacheSpans(session.cache, tracer)
    spans.request = "setup"
    ((name, (n, edges)),) = graphs.items()
    with tracer.span("graph.build", "graph", "setup"):
        graph = build_undirected(n, edges)
    with tracer.span("session.add_graph", "session", "setup"):
        session.add_graph(name, graph)
    # Warm the parent cache before the pool starts, so the pool's
    # pre-warm payload carries the materializations (the documented use).
    with tracer.span("session.warm", "session", "setup"):
        session.warm(name, DEEP_BACKENDS, ORDERINGS, eps=EPS)
    plan = ExperimentPlan(datasets=(name,), kernels=DEEP_KERNELS,
                          set_classes=DEEP_BACKENDS, orderings=ORDERINGS,
                          k=5, eps=EPS)

    def execute(request):
        spans.request = request
        before = counters.snapshot()
        args.meter.mark()
        with tracer.span("session.run_plan", "session", request) as span:
            start = time.perf_counter()
            payload = session.run_plan(plan)[0]
            wall = time.perf_counter() - start
        busy = args.meter.mark()
        for cell in payload["cells"]:
            # The timed passes ran on the pool's workers in parallel: each
            # one's share of this call's wall time is seconds / workers.
            tracer.derived(span, f"kernel.{cell['kernel']}", "mining",
                           cell["seconds"] / session.workers)
        return {
            "wall": wall, "busy": busy,
            "cells": [cell_record(c) for c in payload["cells"]],
            "measured_speedup": payload["execution"]["measured_speedup"],
            "worker_cache": payload["materialization"],
            "counters": counter_fields(before.delta(counters.snapshot())),
        }

    first = execute("setup")  # untimed: starts and pre-warms the pool
    setup_s = time.perf_counter() - t0
    # probes[i] and probes[i + 1] bracket ops[i]; each probe is weighted
    # by the load of the operation before it; the pool is idle.
    probes = [args.probe(first["busy"])]
    ops = []
    if not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        while not ops or time.perf_counter() < deadline:
            ops.append(execute(f"plan-{len(ops)}"))
            probes.append(args.probe(ops[-1]["busy"]))
    result = {"setup_s": setup_s,
              "setup_probes": [blend(*args.start_probes, first["busy"]),
                               probes[0]],
              "setup_busy": first["busy"],
              "probes": probes, "first": first, "ops": ops,
              "materialized_bytes": spans.bytes,
              "session": session.stats(), **footprint(args.probe.pids)}
    session.close()
    args.probe.close()
    emit("result", children=len(children(os.getpid())), spans=tracer.spans,
         **result)


# ---------------------------------------------------------------------------
# ingest: a stream of distinct graphs into a budget-bounded session
# ---------------------------------------------------------------------------


def host_ingest(args, graphs, tracer, t0) -> None:
    from repro.core import counters
    from repro.graph import build_undirected
    from repro.platform.session import MiningSession

    def ingest(session, spans, name, n, edges, request):
        """build -> add -> warm -> one tc-merge/hash query."""
        spans.request = request
        nbytes = spans.bytes
        before = counters.snapshot()
        stats0 = session.cache.stats()
        args.meter.mark()
        start = time.perf_counter()
        with tracer.span("ingest", "bench", request):
            with tracer.span("graph.build", "graph", request):
                graph = build_undirected(n, edges)
            with tracer.span("session.add_graph", "session", request):
                session.add_graph(name, graph)
            with tracer.span("session.warm", "session", request):
                session.warm(name, SHALLOW_BACKENDS, ORDERINGS, eps=EPS)
            with tracer.span("query.run", "session", request) as span:
                result = (session.query("tc-merge").on(name)
                          .backend("hash").run())
            # The cache calls inside the query ran within run_cell.
            cell = tracer.derived(span, "cell", "cell", result.wall_seconds,
                                  adopt=True)
            tracer.derived(cell, "kernel.tc-merge", "mining", result.seconds)
        wall = time.perf_counter() - start
        busy = args.meter.mark()
        delta = before.delta(counters.snapshot())
        stats = session.cache.stats()
        return {
            "graph": name, "wall": wall, "busy": busy, "value": result.value,
            "query_wall": result.wall_seconds, "seconds": result.seconds,
            "set_ops": result.cell["set_ops"],
            "elements": result.cell["memory_traffic"],
            "materialized_bytes": spans.bytes - nbytes,
            "counters": counter_fields(delta),
            "cache": {k: stats[k] - stats0[k]
                      for k in ("hits", "misses", "insertions", "evictions")},
            "resident_bytes": stats["resident_bytes"],
        }

    def new_session():
        session = MiningSession(workers=1,
                                cache_budget_bytes=INGEST_CACHE_BYTES)
        return session, CacheSpans(session.cache, tracer)

    # Set-up: the session plus one untimed ingest (code paths warm).
    session, spans = new_session()
    name, (n, edges) = min(graphs.items())
    warmup = ingest(session, spans, f"warmup-{name}", n, edges, "setup")
    session.close()
    setup_s = time.perf_counter() - t0
    # probes[i] and probes[i + 1] bracket the i-th graph ingest; each
    # probe is weighted by the load of the ingest before it.
    probes = [args.probe(warmup["busy"])]
    rounds = []
    if not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            # A fresh session per round: every round ingests the same
            # stream into an empty store, so rounds are identical work.
            session, spans = new_session()
            start = time.perf_counter()
            ops = []
            for g, (n, edges) in sorted(graphs.items()):
                tag = f"r{len(rounds)}-{g}"
                ops.append(ingest(session, spans, tag, n, edges, tag))
                probes.append(args.probe(ops[-1]["busy"]))  # session idle
            rounds.append({"wall": time.perf_counter() - start, "ops": ops,
                           "graphs_resident": len(session.graphs())})
            session.close()
    usage = footprint(args.probe.pids)
    args.probe.close()
    emit("result", setup_s=setup_s,
         setup_probes=[blend(*args.start_probes, warmup["busy"]),
                       probes[0]],
         setup_busy=warmup["busy"], probes=probes, warmup=warmup,
         rounds=rounds,
         children=len(children(os.getpid())), spans=tracer.spans, **usage)


HOSTS = {"serve-warm": host_serve, "suite-deep": host_suite,
         "ingest": host_ingest}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(HOSTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    graphs = workload_graphs(args.workload, args.seed)
    tracer = Tracer(args.trace)
    if args.workload != "serve-warm":
        # serve-warm's timed loop, and so its probing, is in the runner.
        args.probe = Prober()
        args.start_probes = args.probe.at_start()
        args.meter = CpuMeter(os.getpid(), exclude=args.probe.pids)
    t0 = time.perf_counter()
    HOSTS[args.workload](args, graphs, tracer, t0)

if __name__ == "__main__":
    main()
