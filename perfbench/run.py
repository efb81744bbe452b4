"""The repo benchmark: served queries, deep suite sweeps and graph ingest.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 25 \\
        --trace 0

Workloads (all inputs come from ``perfbench/gen.py`` and the seed):

``serve-warm``
    A ``MiningSession(workers=2)`` behind ``MiningHTTPServer`` in its own
    process, serving a clustered ~5k-vertex graph and a clique-rich
    ~1k-vertex graph.  Two closed-loop clients on keep-alive connections
    send rounds of 48 shallow warm queries: ``tc``, ``tc-merge``,
    ``4clique`` (DGR) and ``kstar`` on ``sorted``, ``bitset`` and ``hash``,
    under static and adaptive dispatch, on both graphs.
``suite-deep``
    ``MiningSession(workers=2).run_plan`` over a clique-rich ~2k-vertex
    graph with planted cliques up to 20 vertices: ``kclique`` (k=5),
    ``bk``, ``4clique``, ``kstar`` on ``sorted``/``bitset``/``hash``/
    ``roaring`` under DGR and ADG (28 cells per plan execution).
``ingest``
    A stream of six distinct ~8-10k-vertex graphs (clustered, uniform,
    small-world) into a ``MiningSession(workers=1)`` whose cache budget
    forces evictions: ``build_undirected``, ``add_graph``,
    ``warm(sorted/bitset/hash x DGR/ADG)``, one ``tc-merge``/``hash``
    query per graph.

Each workload repeats a fixed, seeded round of operations for at least
``--seconds`` seconds, in whole rounds, so every round is the same work.
Set-up runs three times, each in a fresh program process, and
``setup_s`` is their median.  The load is sized for 2 cores: one runner
process with at most 2 client connections, at most 2 pool workers.

End-to-end metrics (``--trace 0``), every workload:

``setup_s``      program start to first timed operation: imports, session,
                 graph builds and adds, materialization, first pool start,
                 untimed warm-up pass (s)
``peak_rss_mb``  peak resident memory of the program's processes, pool
                 workers included (MB)
``ops_per_s``    work per second: served queries (serve-warm), suite
                 cells (suite-deep), ingested graphs (ingest)
``op_p50_s``     median latency of the workload's operation: one query,
                 one plan execution, one graph ingest (s)

Times are in *reference seconds* (see ``common.probe``): each timed
operation is scaled by how fast the machine ran a fixed probe workload
right before and after it, because the cores of a shared host change
speed by tens of percent within seconds.  The probe runs in helper
processes outside the program, on one core and on two at once, weighted
by how many cores the program kept busy (its CPU seconds per wall
second, from ``/proc``) during the operation before.  The report lines also give the
wall-clock value of every metric, each metric under the workload's own
name (``query_qps``, ``suite_cells_per_s``, ``ingest_graphs_per_s``),
the query tail ``query_p90_s``, ``error_rate``, sample counts and
quartiles.  ``error_rate`` is ``failed / attempted`` of the final line.

``--trace 1`` runs the workload untraced, then traced, and prints the
per-layer metrics of ``layers.py`` plus ``trace.overhead.*`` (traced
minus untraced end-to-end values).  Spans are written to
``.perfbench_out/trace-<workload>-<seed>.json``.

Every answer is checked (networkx references for ``tc``/``tc-merge``/
``bk``; cross-backend agreement with ``sorted`` for the others), the
inputs are fingerprinted against ``fingerprints.json``, and leaked
processes or ``/dev/shm`` segments fail the run.  Any failure exits
non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    OUT, ROOT, SRC, CpuMeter, Prober, Tracer, children, descendants,
    blend, environment, percentile, program_env, quartiles, shm_segments,
    speed, two_core_share)

HOST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "host.py")
WORKLOADS = ("serve-warm", "suite-deep", "ingest")
#: Program processes started per run to measure set-up; median reported.
SETUP_REPS = 3
#: Longest wait for one host event before the run is failed; a host that
#: runs the timed window itself gets --seconds on top.
HOST_TIMEOUT_S = 150.0

SERVE_KERNELS = ("tc", "tc-merge", "4clique", "kstar")
SERVE_BACKENDS = ("sorted", "bitset", "hash")
TRIANGLE_KERNELS = ("tc", "tc-merge")


class RunFailure(Exception):
    """A check failed: the run reports it and exits non-zero."""


# ---------------------------------------------------------------------------
# Program processes
# ---------------------------------------------------------------------------


class Host:
    """One program process (``host.py``) and its JSON event stream."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, setup_only: bool) -> None:
        os.makedirs(OUT, exist_ok=True)
        argv = [sys.executable, HOST, workload, "--seed", str(seed),
                "--seconds", str(seconds)]
        argv += ["--trace"] if trace else []
        argv += ["--setup-only"] if setup_only else []
        self.stderr_path = os.path.join(OUT, f"host-{workload}.err")
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr)
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def event(self, name: str, timeout: float = HOST_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RunFailure(f"program host: no {name!r} event within "
                                 f"{timeout:.0f} s")
            if line is None:
                raise RunFailure(
                    f"program host exited before {name!r} "
                    f"(code {self.proc.wait()}); see {self.stderr_path}")
            if line.startswith("{"):
                message = json.loads(line)
                if message.get("event") == name:
                    return message

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Wait for a clean exit; kill on timeout.  Always reaps, and
        fails the run if a process the host started outlives it."""
        spawned = descendants(self.proc.pid)
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
            code = self.proc.wait(timeout=30)
        except (subprocess.TimeoutExpired, BrokenPipeError):
            self.kill()
            raise RunFailure("program host did not exit; killed")
        finally:
            self._reader.join(timeout=10)
            self._stderr.close()
        if reap(spawned):
            raise RunFailure("processes started by the program outlived "
                             "it; killed")
        if code != 0:
            raise RunFailure(f"program host exited with code {code}; "
                             f"see {self.stderr_path}")

    def kill(self) -> None:
        spawned = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        reap(spawned)
        self._reader.join(timeout=10)
        self._stderr.close()


def reap(pids) -> list:
    """Kill whichever of *pids* still run; wait until they are gone.
    Returns the ones that were still running."""
    alive = [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
    for pid in alive:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
            os.path.exists(f"/proc/{pid}") for pid in alive):
        time.sleep(0.05)
    return alive


class Checks:
    """Answer checks: every operation is attempted, failures counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)
        return ok


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------


def serve_round(graphs) -> list:
    """The fixed request sequence of one round.

    Shuffled once, the same way for every seed: with two closed-loop
    clients and one session executor, a request's latency includes the
    other client's request, so the order shapes the latency distribution
    and must not change with the input seed.
    """
    bodies = [{"kernel": k, "dataset": g, "backend": b, "dispatch": d,
               "ordering": "DGR"}
              for g in sorted(graphs) for k in SERVE_KERNELS
              for b in SERVE_BACKENDS for d in ("static", "adaptive")]
    random.Random(0).shuffle(bodies)
    return bodies


def check_serve(checks: Checks, requests: list, refs: dict) -> None:
    """tc/tc-merge against networkx; the rest against the first
    sorted/static answer (which is not checked against itself)."""
    anchor, anchors = {}, set()
    for i, req in enumerate(requests):
        body = req["body"]
        key = (body["dataset"], body["kernel"])
        if (req["status"] == 200 and body["backend"] == "sorted"
                and body.get("dispatch", "static") == "static"
                and key not in anchor):
            anchor[key] = req["payload"]["result"]["value"]
            anchors.add(i)
    for i, req in enumerate(requests):
        body = req["body"]
        key = (body["dataset"], body["kernel"])
        if req["status"] != 200:
            checks.check(False, f"{key}: HTTP {req['status']} "
                         f"{req.get('error') or req['payload']}")
            continue
        value = req["payload"]["result"]["value"]
        if body["kernel"] in TRIANGLE_KERNELS:
            expected = refs[body["dataset"]]["triangles"]
        elif i in anchors:
            continue
        else:
            expected = anchor.get(key)
        checks.check(value == expected,
                     f"{key} {body['backend']}/{body.get('dispatch')}: "
                     f"{value} != {expected}")


def drive_serve(seed, seconds, trace, graphs, refs, checks) -> dict:
    """SETUP_REPS server processes; the last also serves the timed window.

    The probes run in the runner's helpers while the server idles,
    weighted by the server's CPU time over the operation before them.
    """
    setups, out = [], {}
    prober = Prober()
    try:
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            setup, window = serve_once(seed, seconds, trace and last, last,
                                       graphs, refs, checks, prober)
            setups.append(setup)
            out = window or out
    finally:
        prober.close()
    out["setups"] = setups
    return out


def serve_once(seed, seconds, trace, timed, graphs, refs, checks, prober):
    """One server process: set-up, then (if *timed*) the timed window.
    Returns (set-up time, its bracketing probes, busy cores of the
    warm-up pass) and the window."""
    from client import CLIENTS, Connection, run_round

    small = min(graphs, key=lambda g: graphs[g][0])
    warmup = [{"kernel": "tc-merge", "dataset": small,
               "variants": [{"backend": "sorted"}, {"backend": "hash"}]}]
    warmup += [{"kernel": k, "dataset": small, "backend": "bitset",
                "dispatch": d} for k in SERVE_KERNELS
               for d in ("static", "adaptive")]
    out = {}
    start_probes = prober.at_start()
    host = Host("serve-warm", seed, seconds, trace, False)
    meter = CpuMeter(host.proc.pid)
    try:
        ready = host.event("ready")
        conns = [Connection(ready["port"], f"client-{i}")
                 for i in range(CLIENTS)]
        meter.mark()
        start = time.perf_counter()
        for body in warmup:  # untimed warm-up pass; starts the pool
            reply = conns[0].request("POST", "/query", body)
            results = (reply["payload"].get("results")
                       or [reply["payload"].get("result", {})])
            for result in results:
                ok = reply["status"] == 200
                if ok and body["kernel"] in TRIANGLE_KERNELS:
                    ok = result["value"] == refs[small]["triangles"]
                checks.check(ok, f"warm-up {body}: {reply}")
        setup_s = ready["setup_s"] + time.perf_counter() - start
        busy = meter.mark()
        after = prober(busy)
        if timed:
            out = serve_window(host, conns, serve_round(graphs), seconds,
                               run_round, after, prober, meter)
            out["setup_spans"] = ready["spans"]
            out["materialized_bytes"] = ready["materialized_bytes"]
            out["graphs"] = len(graphs)
            check_serve(checks, out["requests"], refs)
        for conn in conns:
            conn.close()
        host.send("stop")
        stopped = host.event("stopped")
        host.close()
    except BaseException:
        host.kill()
        raise
    if stopped["children"]:
        raise RunFailure(f"serve-warm: {stopped['children']} child "
                         f"processes outlived session.close()")
    return (setup_s, [blend(*start_probes, busy), after], busy), out


#: Requests between two machine-speed probes (a quarter of a round).
SERVE_SEGMENT = 12


def serve_window(host, conns, bodies, seconds, run_round, probe0, prober,
                 meter) -> dict:
    """Whole rounds for at least *seconds*; a speed probe every segment."""
    host.send("snapshot")
    snap0 = host.event("snapshot")
    stats0 = conns[0].request("GET", "/stats")["payload"]
    requests, segments, probes, busy = [], [], [probe0], []
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for first in range(0, len(bodies), SERVE_SEGMENT):
            chunk = bodies[first:first + SERVE_SEGMENT]
            meter.mark()
            begin = time.perf_counter()
            replies = run_round(conns, chunk)
            segments.append({"wall": time.perf_counter() - begin,
                             "done": sum(r["status"] == 200
                                         for r in replies)})
            busy.append(meter.mark())
            probes.append(prober(busy[-1]))
            for body, reply in zip(chunk, replies):
                requests.append(dict(reply, body=body,
                                     segment=len(segments) - 1))
        rounds += 1
    stats1 = conns[0].request("GET", "/stats")["payload"]
    host.send("snapshot")
    snap1 = host.event("snapshot")
    return {"requests": requests, "segments": segments, "probes": probes,
            "busy": busy, "rounds": rounds, "stats0": stats0,
            "stats1": stats1, "snap0": snap0, "snap1": snap1,
            "peak_rss_mb": snap1["peak_rss_mb"]}


def round_speeds(probes: list) -> list:
    """Reference seconds per wall second for each round (probes bracket)."""
    return [speed(probes[i:i + 2]) for i in range(len(probes) - 1)]


def common_metrics(raw: dict) -> dict:
    setups = [seconds * speed(probes) for seconds, probes, _ in raw["setups"]]
    raw_setups = [seconds for seconds, _, _ in raw["setups"]]
    return {
        "setup_s": (statistics.median(setups), setups, "set-ups",
                    statistics.median(raw_setups)),
        "peak_rss_mb": (raw["peak_rss_mb"], [raw["peak_rss_mb"]], "run",
                        raw["peak_rss_mb"]),
        "setup_busy": [busy for _, _, busy in raw["setups"]],
    }


def serve_metrics(raw: dict) -> dict:
    speeds = round_speeds(raw["probes"])
    segments = raw["segments"]
    latencies = [r["latency"] * speeds[r["segment"]]
                 for r in raw["requests"]]
    raw_latencies = [r["latency"] for r in raw["requests"]]
    per_segment = [s["done"] / (s["wall"] * f)
                   for s, f in zip(segments, speeds)]
    done = sum(s["done"] for s in segments)
    n = len(latencies)
    return dict(
        common_metrics(raw),
        ops_per_s=(done / sum(s["wall"] * f
                              for s, f in zip(segments, speeds)),
                   per_segment, "segments of 12 requests",
                   done / sum(s["wall"] for s in segments)),
        op_p50_s=(statistics.median(latencies), latencies, "requests",
                  statistics.median(raw_latencies)),
        speeds=speeds,
        busy=raw["busy"],
        aliases={"query_qps": ("ops_per_s", "1/s"),
                 "query_p50_s": ("op_p50_s", "s")},
        extra={"query_p90_s": (percentile(latencies, 90), "s",
                               f"n={n} requests, {n - int(0.9 * n)} beyond "
                               f"p90; wall p90="
                               f"{percentile(raw_latencies, 90):.6g} s")},
    )


# ---------------------------------------------------------------------------
# suite-deep and ingest: the program runs its timed phase in the host
# ---------------------------------------------------------------------------


def check_hosted(workload, result, refs, checks) -> None:
    if workload == "suite-deep":
        # bk against networkx; the other kernels against the sorted cells
        # of the first (untimed) plan execution, whose DGR and ADG counts
        # must agree, as counts do not depend on the ordering.
        ((_, ref),) = refs.items()
        first = result["first"]
        anchor = {(c["kernel"], c["ordering"]): c["value"]
                  for c in first["cells"] if c["backend"] == "sorted"}
        for kernel in sorted({k for k, _ in anchor} - {"bk"}):
            values = {o: v for (k, o), v in anchor.items() if k == kernel}
            if len(values) < 2:
                continue  # kstar takes no ordering
            checks.check(len(set(values.values())) == 1,
                         f"{kernel}/sorted: counts differ across "
                         f"orderings: {values}")
        for op in [first] + result["ops"]:
            for cell in op["cells"]:
                if cell["kernel"] == "bk":
                    expected = ref["maximal_cliques"]
                elif op is first and cell["backend"] == "sorted":
                    continue  # an anchor
                else:
                    expected = anchor.get((cell["kernel"], cell["ordering"]))
                checks.check(cell["value"] == expected,
                             f"{cell['kernel']}/{cell['ordering']}/"
                             f"{cell['backend']}: {cell['value']} != "
                             f"{expected}")
        return
    ops = [result["warmup"]] + [op for rnd in result["rounds"]
                                for op in rnd["ops"]]
    for op in ops:
        expected = refs[op["graph"].split("-", 1)[1]]["triangles"]
        checks.check(op["value"] == expected,
                     f"tc-merge on {op['graph']}: {op['value']} != "
                     f"{expected}")


def drive_hosted(workload, seed, seconds, trace, graphs, refs,
                 checks) -> dict:
    """SETUP_REPS program processes; the last also runs the timed phase."""
    setups = []
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        host = Host(workload, seed, seconds, trace and last, not last)
        try:
            result = host.event("result", seconds + HOST_TIMEOUT_S)
            host.close()
        except BaseException:
            host.kill()
            raise
        if result["children"]:
            raise RunFailure(f"{workload}: {result['children']} child "
                             f"processes outlived session.close()")
        check_hosted(workload, result, refs, checks)
        setups.append((result["setup_s"], result["setup_probes"],
                       result["setup_busy"]))
    return dict(result, setups=setups, graphs=len(graphs))


def suite_metrics(raw: dict) -> dict:
    ops = raw["ops"]
    speeds = round_speeds(raw["probes"])
    walls = [op["wall"] * f for op, f in zip(ops, speeds)]
    rates = [len(op["cells"]) / w for op, w in zip(ops, walls)]
    raw_walls = [op["wall"] for op in ops]
    cells = sum(len(op["cells"]) for op in ops)
    return dict(
        common_metrics(raw),
        ops_per_s=(cells / sum(walls), rates, "plan executions",
                   cells / sum(raw_walls)),
        op_p50_s=(statistics.median(walls), walls, "plan executions",
                  statistics.median(raw_walls)),
        speeds=speeds,
        busy=[op["busy"] for op in ops],
        aliases={"suite_cells_per_s": ("ops_per_s", "1/s")},
        extra={},
    )


def ingest_metrics(raw: dict) -> dict:
    rounds = raw["rounds"]
    speeds = round_speeds(raw["probes"])
    per_graph = iter(speeds)
    walls = [[op["wall"] * next(per_graph) for op in r["ops"]]
             for r in rounds]
    rates = [len(w) / sum(w) for w in walls]
    raw_walls = [op["wall"] for r in rounds for op in r["ops"]]
    flat = [w for ws in walls for w in ws]
    return dict(
        common_metrics(raw),
        ops_per_s=(len(flat) / sum(flat), rates, "streams",
                   len(raw_walls) / sum(raw_walls)),
        op_p50_s=(statistics.median(flat), flat, "graph ingests",
                  statistics.median(raw_walls)),
        speeds=speeds,
        busy=[op["busy"] for r in rounds for op in r["ops"]],
        aliases={"ingest_graphs_per_s": ("ops_per_s", "1/s")},
        extra={},
    )


RUNNERS = {
    "serve-warm": (drive_serve, serve_metrics),
    "suite-deep": (lambda *a: drive_hosted("suite-deep", *a), suite_metrics),
    "ingest": (lambda *a: drive_hosted("ingest", *a), ingest_metrics),
}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report_end_to_end(workload, metrics, units, checks) -> None:
    speeds = quartiles(metrics["speeds"])
    print(f"machine {workload} reference seconds per wall second: "
          f"median={speeds['median']:.4g} q1={speeds['q1']:.4g} "
          f"q3={speeds['q3']:.4g} (n={len(metrics['speeds'])} probe pairs)")
    busy = metrics["busy"]
    share = statistics.median(two_core_share(b) for b in busy)
    print(f"machine {workload} program busy cores per timed operation: "
          f"median={statistics.median(busy):.3g} min={min(busy):.3g} "
          f"max={max(busy):.3g} (median two-core probe weight {share:.3g});"
          f" in the set-ups' last operations: "
          + ", ".join(f"{b:.3g}" for b in metrics["setup_busy"]))
    for name, unit in units.items():
        value, samples, what, wall = metrics[name]
        q = quartiles(samples)
        print(f"metric {workload} {name} = {value:.6g} {unit} "
              f"(n={len(samples)} {what}; q1={q['q1']:.6g} "
              f"median={q['median']:.6g} q3={q['q3']:.6g}; "
              f"wall-clock {wall:.6g})")
    for alias, (name, unit) in metrics["aliases"].items():
        print(f"metric {workload} {alias} = {metrics[name][0]:.6g} {unit} "
              f"(= {name}, n={len(metrics[name][1])} {metrics[name][2]})")
    for name, (value, unit, note) in metrics["extra"].items():
        print(f"metric {workload} {name} = {value:.6g} {unit} ({note})")
    rate = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"metric {workload} error_rate = {rate:.6g} ratio "
          f"(n={checks.attempted} checked operations, "
          f"{checks.failed} failed)")


def trace_span_tree(raw: dict, workload: str) -> list:
    """The run's spans; serve-warm adds the client's HTTP round trips."""
    if workload != "serve-warm":
        return raw["spans"]
    tracer = Tracer(True)
    for i, req in enumerate(raw["requests"]):
        if req["status"] != 200:
            continue
        result = req["payload"]["result"]
        http = tracer.record("http.query", "http", f"q{i}", req["start"],
                             req["start"] + req["latency"])
        cell = tracer.derived(http, "session.query", "cell",
                              result["wall_seconds"])
        tracer.derived(cell, f"kernel.{result['kernel']}", "mining",
                       result["seconds"])
    return tracer.spans


def run_workload(workload, seed, seconds, trace, graphs, refs, checks):
    drive, metrics = RUNNERS[workload]
    raw = drive(seed, seconds, trace, graphs, refs, checks)
    return raw, metrics(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="GraphMineSuite repo benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    definition = load_definition()
    e2e_units = {m["name"]: m["unit"] for m in definition["end_to_end"]}

    from gen import summarize, workload_graphs
    from reference import check_fingerprint, fingerprint, references

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    graphs = workload_graphs(args.workload, args.seed)
    refs = references(graphs)
    fp = fingerprint(graphs, refs)
    for line in summarize(graphs):
        print(f"input {line}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    problems = check_fingerprint(args.workload, args.seed, fp)
    if problems:
        for problem in problems:
            print(f"FAIL fingerprint: {problem}")
        return 3

    shm_before = shm_segments()
    checks = Checks()
    status = 0
    try:
        raw, e2e = run_workload(args.workload, args.seed, args.seconds,
                                False, graphs, refs, checks)
        report_end_to_end(args.workload, e2e, e2e_units, checks)
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in e2e_units.items()}
        if args.trace:
            from layers import LAYERS

            raw_t, e2e_t = run_workload(args.workload, args.seed,
                                        args.seconds, True, graphs, refs,
                                        checks)
            raw_t["spans"] = trace_span_tree(raw_t, args.workload)
            derived = LAYERS[args.workload](raw_t)
            for name in e2e_units:
                derived[f"trace.overhead.{name}"] = (
                    e2e_t[name][0] - e2e[name][0])
            metrics = {}
            for m in definition["per_layer"]:
                metrics[m["name"]] = {"value": derived.get(m["name"], 0.0),
                                      "unit": m["unit"]}
                print(f"layer {args.workload} {m['name']} = "
                      f"{metrics[m['name']]['value']:.6g} {m['unit']}"
                      + ("" if m["name"] in derived
                         else " (not exercised)"))
            path = os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"env": environment(), "workload": args.workload,
                           "seed": args.seed, "layers": derived,
                           "spans": raw_t["spans"],
                           "setup_spans": raw_t.get("setup_spans", [])}, fh)
            print(f"trace written to {os.path.relpath(path, ROOT)}")
    except RunFailure as exc:
        print(f"FAIL {exc}")
        return 4
    leaked = children(os.getpid())
    shm_after = shm_segments()
    print(f"hygiene shm_segments before={shm_before} after={shm_after} "
          f"child_processes_after={len(leaked)}")
    if leaked or shm_after > shm_before:
        print("FAIL leak check: processes or /dev/shm segments outlived "
              "the run")
        status = 5
    for problem in checks.problems:
        print(f"FAIL answer: {problem}")
    if checks.failed:
        status = status or 1
    print(json.dumps({"correct": checks.failed == 0 and status == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
