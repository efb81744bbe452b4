"""Per-layer metrics, derived from one traced run of a workload.

Counts are per round (one serve-warm request round, one suite-deep plan
execution, one ingest stream), so a count repeats exactly from run to run
when the program does the same work.  Times are means per operation
unless the name says otherwise.  A layer a workload does not exercise
reports 0 (for example ``http.*`` on suite-deep).

Layer -> the end-to-end metric it should move, on which workload:

* ``http.*``: ``op_p50_s``/``ops_per_s`` on serve-warm.
* ``session.*``: ``op_p50_s`` on serve-warm (cache hit path);
  ``ops_per_s`` and ``peak_rss_mb`` on ingest (insert/evict path).
* ``cell.*``: ``ops_per_s`` and ``op_p50_s`` on serve-warm.
* ``pool.*``: ``ops_per_s`` and ``setup_s`` on suite-deep.
* ``ordering.*``, ``graph.*``/``materialize.*``: ``ops_per_s`` and
  ``peak_rss_mb`` on ingest; only ``setup_s`` elsewhere.
* ``mining.*``, ``setops.*``: ``ops_per_s`` on suite-deep, ``op_p50_s``
  on serve-warm.

Gaps the traced run can only report: the ``hash`` backend records no
``words_scanned``, so it has no ``setops.words.*`` entry; suite-deep
cells run in pool workers, so their untimed warm-up share is not
observable (``cell.untimed_share`` reads 0 there); and
``pool.timed_cells_over_wall`` is the suite's ``measured_speedup``, which
counts timed kernel passes only (about half of each cell's work), so it
is not a utilization.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List

from common import self_times


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mining(cells: List[dict]) -> Dict[str, float]:
    """Per kernel: mean timed seconds, patterns per second, set ops."""
    out: Dict[str, float] = {}
    for kernel in sorted({c["kernel"] for c in cells}):
        group = [c for c in cells if c["kernel"] == kernel]
        seconds = sum(c["seconds"] for c in group)
        out[f"mining.{kernel}_s"] = seconds / len(group)
        out[f"mining.{kernel}.patterns_per_s"] = _ratio(
            sum(c["value"] for c in group), seconds)
        out[f"mining.{kernel}.set_ops"] = (
            sum(c["set_ops"] for c in group) / len(group))
        if kernel == "bk":
            out["mining.bk.recursive_calls"] = statistics.mean(
                c["recursive_calls"] for c in group)
    return out


def setops(counters: Iterable[dict], rounds: int,
           cells: List[dict]) -> Dict[str, float]:
    """Set-op family totals per round, and ns per element per backend.

    *counters* are global counter deltas (warm-up passes included);
    *cells* carry each timed kernel pass's own seconds and elements.
    """
    count = elements = 0
    words: Dict[str, int] = {}
    for delta in counters:
        count += delta["set_ops"]
        elements += delta["elements"]
        for org, n in delta["words"].items():
            words[org] = words.get(org, 0) + n
    out = {"setops.count": count / rounds,
           "setops.elements": elements / rounds}
    for org, n in sorted(words.items()):
        out[f"setops.words.{org.replace('/', '-')}"] = n / rounds
    for label in sorted({c["label"] for c in cells}):
        group = [c for c in cells if c["label"] == label]
        out[f"setops.{label}.ns_per_element"] = 1e9 * _ratio(
            sum(c["seconds"] for c in group),
            sum(c["elements"] for c in group))
    return out


def materialization(spans: List[dict], graphs: int,
                    nbytes: int) -> Dict[str, float]:
    """Ordering, build and SetGraph self times per graph, from traced
    spans: an ``oriented`` call's own ordering lookup is a nested span,
    counted under ``ordering.*`` only."""
    chosen = [s for s in spans if s["name"].startswith(
        ("ordering.", "materialize.", "graph.build"))]
    nested: Dict[int, float] = {}
    for span in chosen:
        if span["parent"] is not None:
            nested[span["parent"]] = (nested.get(span["parent"], 0.0)
                                      + span["end"] - span["start"])
    out: Dict[str, float] = {"materialize.bytes": nbytes / graphs}
    for span in chosen:
        key = f"{span['name']}_s"
        own = span["end"] - span["start"] - nested.get(span["id"], 0.0)
        out[key] = out.get(key, 0.0) + own / graphs
    return out


def layer_self_times(spans: List[dict], keep, rounds: int
                     ) -> Dict[str, float]:
    return {f"self_s.{layer}": seconds / rounds
            for layer, seconds in self_times(spans, keep).items()}


# ---------------------------------------------------------------------------
# Per workload
# ---------------------------------------------------------------------------


def serve(raw: dict) -> Dict[str, float]:
    ok = [r for r in raw["requests"] if r["status"] == 200]
    rounds = raw["rounds"]
    results = [r["payload"]["result"] for r in ok]
    latency = statistics.mean(r["latency"] for r in ok)
    wall = statistics.mean(r["wall_seconds"] for r in results)
    s0, s1 = raw["stats0"], raw["stats1"]
    served = {
        key: sum(t["usage"][key] for t in s1["tenants"].values())
        - sum(t["usage"][key] for t in s0["tenants"].values())
        for key in ("queries", "query_seconds")
    }
    handling = _ratio(served["query_seconds"], served["queries"])
    adm0, adm1 = s0["admission"], s1["admission"]
    c0, c1 = s0["session"]["cache"], s1["session"]["cache"]
    hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
    snap0, snap1 = raw["snap0"]["counters"], raw["snap1"]["counters"]
    cells = [{
        "kernel": res["kernel"], "value": res["value"],
        "seconds": res["seconds"], "set_ops": res["cell"]["set_ops"],
        "elements": res["cell"]["memory_traffic"],
        "label": ("adaptive" if req["body"]["dispatch"] == "adaptive"
                  and req["body"]["backend"] != "sorted"
                  else req["body"]["backend"]),
    } for req, res in zip(ok, results)]
    delta = {
        "set_ops": snap1["set_ops"] - snap0["set_ops"],
        "elements": snap1["elements"] - snap0["elements"],
        "words": {org: n - snap0["words"].get(org, 0)
                  for org, n in snap1["words"].items()},
    }
    out = {
        "http.io_mean_s": latency - handling,
        "http.executor_wait_mean_s": handling - wall,
        "http.admitted": (adm1["admitted"] - adm0["admitted"]) / rounds,
        "http.rejected": (adm1["rejected"] - adm0["rejected"]) / rounds,
        "session.run_mean_s": wall,
        "session.cache_hit_ratio": _ratio(hits, hits + misses),
        "session.cache_evictions": (
            c1["evictions"] - c0["evictions"]) / rounds,
        "session.cache_resident_bytes": c1["resident_bytes"],
        "session.graphs_resident": len(s1["session"]["graphs"]),
        "cell.kernel_s": statistics.mean(r["seconds"] for r in results),
        "cell.untimed_share": 1 - _ratio(
            sum(r["seconds"] for r in results),
            sum(r["wall_seconds"] for r in results)),
        "pool.payload_bytes_shipped": (
            snap1["payload_bytes"] - snap0["payload_bytes"]) / rounds,
        "pool.payload_tasks": (
            snap1["payload_tasks"] - snap0["payload_tasks"]) / rounds,
    }
    out.update(mining(cells))
    out.update(setops([delta], rounds, cells))
    out.update(materialization(raw["setup_spans"], raw["graphs"],
                               raw["materialized_bytes"]))
    out.update(layer_self_times(raw["spans"], lambda r: True, rounds))
    return out


def suite(raw: dict) -> Dict[str, float]:
    ops = raw["ops"]
    rounds = len(ops)
    cells = [dict(c, label=c["backend"]) for op in ops for c in op["cells"]]
    hits = sum(op["worker_cache"]["hits"] for op in ops)
    misses = sum(op["worker_cache"]["misses"] for op in ops)
    session = raw["session"]
    out = {
        "session.run_mean_s": statistics.mean(op["wall"] for op in ops),
        "session.cache_resident_bytes": session["cache"]["resident_bytes"],
        "session.graphs_resident": len(session["graphs"]),
        "cell.kernel_s": statistics.mean(c["seconds"] for c in cells),
        "pool.payload_bytes_shipped": statistics.mean(
            op["counters"]["payload_bytes"] for op in ops),
        "pool.payload_tasks": statistics.mean(
            op["counters"]["payload_tasks"] for op in ops),
        "pool.timed_cells_over_wall": statistics.median(
            op["measured_speedup"] for op in ops),
        "pool.longest_cell_s": statistics.median(
            max(c["seconds"] for c in op["cells"]) for op in ops),
        "pool.worker_cache_hit_ratio": _ratio(hits, hits + misses),
    }
    out.update(mining(cells))
    out.update(setops([op["counters"] for op in ops], rounds, cells))
    out.update(materialization(
        [s for s in raw["spans"] if s["request"] == "setup"], 1,
        raw["materialized_bytes"]))
    out.update(layer_self_times(
        raw["spans"], lambda r: (r or "").startswith("plan-"), rounds))
    return out


def ingest(raw: dict) -> Dict[str, float]:
    rounds = raw["rounds"]
    ops = [op for rnd in rounds for op in rnd["ops"]]
    hits = sum(op["cache"]["hits"] for op in ops)
    misses = sum(op["cache"]["misses"] for op in ops)
    cells = [{"kernel": "tc-merge", "label": "hash", "value": op["value"],
              "seconds": op["seconds"], "set_ops": op["set_ops"],
              "elements": op["elements"]} for op in ops]
    timed = [s for s in raw["spans"] if s["request"] != "setup"]
    out = {
        "session.run_mean_s": statistics.mean(op["query_wall"] for op in ops),
        "session.cache_hit_ratio": _ratio(hits, hits + misses),
        "session.cache_evictions": sum(
            op["cache"]["evictions"] for op in ops) / len(rounds),
        "session.cache_resident_bytes": statistics.mean(
            op["resident_bytes"] for op in ops),
        "session.graphs_resident": statistics.mean(
            rnd["graphs_resident"] for rnd in rounds),
        "cell.kernel_s": statistics.mean(op["seconds"] for op in ops),
        "cell.untimed_share": 1 - _ratio(
            sum(op["seconds"] for op in ops),
            sum(op["query_wall"] for op in ops)),
    }
    out.update(mining(cells))
    out.update(setops([op["counters"] for op in ops], len(rounds), cells))
    out.update(materialization(
        timed, len(ops), sum(op["materialized_bytes"] for op in ops)))
    out.update(layer_self_times(raw["spans"], lambda r: r != "setup",
                                len(rounds)))
    return out


LAYERS = {"serve-warm": serve, "suite-deep": suite, "ingest": ingest}
