"""Helpers shared by the benchmark runner and its program hosts.

Nothing here imports the program under test: the runner must be able to
report a missing program (and exit non-zero) without importing it.
"""

from __future__ import annotations

import contextlib
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

#: Root of the checkout: the directory holding ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where the program's sources live inside the checkout.
SRC = os.path.join(ROOT, "src")
#: Scratch output of the benchmark (traces, job store); gitignored.
OUT = os.path.join(ROOT, ".perfbench_out")

#: Thread caps for every program process: the load is sized for 2 cores,
#: and BLAS/OpenMP pools must not oversubscribe them behind our back.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

#: Pool workers of the program (the load is sized for 2 cores).
WORKERS = 2


def program_env() -> Dict[str, str]:
    """Environment for a program process: repo sources first, thread caps."""
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_ARTIFACT_DIR"] = OUT
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# Processes, memory, shared memory
# ---------------------------------------------------------------------------


def children(pid: int) -> List[int]:
    """PIDs whose parent is *pid* (scans ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we scanned
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def descendants(pid: int) -> List[int]:
    out, frontier = [], [pid]
    while frontier:
        kids = children(frontier.pop())
        out.extend(kids)
        frontier.extend(kids)
    return out


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the resident high-water marks (``VmHWM``) of *pids*, in MB.

    Summing per-process peaks counts pages shared between a forked parent
    and its workers once per process, so this is an upper bound on the
    simultaneous footprint; it is the same bound on every run.
    """
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments() -> int:
    """Entries in ``/dev/shm`` (named shared-memory segments)."""
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


# ---------------------------------------------------------------------------
# Machine-speed probe
# ---------------------------------------------------------------------------

#: Probe time, in seconds, that defines "reference seconds": timed results
#: are scaled by PROBE_NOMINAL_S / (the probe time measured next to them).
PROBE_NOMINAL_S = 0.1


def probe() -> float:
    """Seconds taken by a fixed CPU workload shaped like the program's.

    Shared cloud cores change speed by tens of percent over seconds (a
    pure-Python loop's time moved by 40% between 20-second windows on the
    2-vCPU cloud VM this benchmark was sized on).  Timed results are
    therefore reported in *reference seconds*: each timed operation is
    scaled by the probe's nominal time over the probe time measured just
    before and after it, while the program is idle.  The raw wall-clock
    values are printed next to them.  The workload mixes what the
    program's kernels spend time on: interpreter loops, small set
    algebra and small numpy calls.
    """
    import numpy as np

    a = set(range(0, 600, 2))
    b = set(range(0, 600, 3))
    x = np.arange(0, 400, 2)
    y = np.arange(0, 400, 3)
    start = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += len(a & b) + (i * i) % 7
        if i % 4 == 0:
            acc += int(np.intersect1d(x, y, assume_unique=True).size)
    return time.perf_counter() - start


def two_core_share(busy: float) -> float:
    """Share of an operation's time with two busy cores, if the program
    kept *busy* cores busy on average (one at least, two at most)."""
    return min(max(busy - 1.0, 0.0), 1.0)


def blend(one: float, two: float, busy: float) -> float:
    """Probe time weighted by the load: *one* and *two* are the probe
    times on one and on two cores."""
    share = two_core_share(busy)
    return (1.0 - share) * one + share * two


class Prober:
    """Machine-speed probes, run in helper processes outside the program.

    The helpers share no interpreter with the program, so whatever the
    program does while nominally idle (server threads, pool feeders)
    cannot slow the probe through the GIL.  The probe must load the
    machine the way the timed work does: two busy cores can each run at
    half the speed of one (measured on the 2-vCPU cloud VM when its vCPUs
    shared a physical core).  So :meth:`__call__` takes the program's CPU
    seconds per wall second over the operation just measured (see
    :class:`CpuMeter`), probes on one helper and on both at once, and
    blends the two times by the share of the operation that kept two
    cores busy (only the probes with a non-zero weight run).  Close it
    before counting child processes.
    """

    def __init__(self) -> None:
        self.helpers = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--probe-helper"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(WORKERS)]

    @property
    def pids(self) -> List[int]:
        return [helper.pid for helper in self.helpers]

    def on(self, cores: int) -> float:
        """Mean probe time of *cores* helpers probing at the same time."""
        active = self.helpers[:cores]
        for helper in active:
            helper.stdin.write("probe\n")
            helper.stdin.flush()
        return statistics.mean(float(h.stdout.readline()) for h in active)

    def __call__(self, busy: float) -> float:
        share = two_core_share(busy)
        one = self.on(1) if share < 1.0 else 0.0
        two = self.on(2) if share > 0.0 else 0.0
        return blend(one, two, busy)

    def at_start(self) -> List[float]:
        """Probe times on one and on two cores before the program starts:
        the set-up's first bracket, blended once the set-up's load is
        known."""
        return [self.on(1), self.on(2)]

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self.helpers = []


#: Clock ticks per second of the CPU times in ``/proc/<pid>/stat``.
CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds of *pids*, their reaped children included."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields 14-17 (utime, stime, cutime, cstime) counted from 1; the
        # text after the command name starts at field 3.
        fields = stat[stat.rfind(")") + 2:].split()
        ticks += sum(int(f) for f in fields[11:15])
    return ticks / CLK_TCK


class CpuMeter:
    """CPU seconds per wall second of a process tree between two marks.

    The tree is *root* and its descendants, minus the *exclude* PIDs (the
    probe helpers).
    """

    def __init__(self, root: int, exclude: Iterable[int] = ()) -> None:
        self.root = root
        self.exclude = set(exclude)
        self._cpu: Optional[float] = None
        self._wall = 0.0
        self.mark()

    def mark(self) -> float:
        """Busy cores since the previous mark; starts the next interval."""
        pids = [p for p in [self.root] + descendants(self.root)
                if p not in self.exclude]
        cpu, wall = cpu_seconds(pids), time.perf_counter()
        busy = 0.0
        if self._cpu is not None and wall > self._wall:
            busy = (cpu - self._cpu) / (wall - self._wall)
        self._cpu, self._wall = cpu, wall
        return busy


def speed(probes: List[float]) -> float:
    """Reference seconds per wall second, from the probes around a span."""
    return PROBE_NOMINAL_S / statistics.mean(probes)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory, written once at the end
# ---------------------------------------------------------------------------


class Tracer:
    """Spans around the benchmark's own calls into the program's layers.

    A span is ``(name, layer, start, end, parent, request)``; ``parent``
    is the index of the enclosing span.  Spans whose duration the program
    reports (for example the timed kernel inside a cell) are added with
    :meth:`derived` as children of the span that returned them, so a
    layer's self time is its duration minus its children's.  A disabled
    tracer records nothing and costs one ``nullcontext`` per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def record(self, name: str, layer: str, request: Optional[str],
               start: float, end: Optional[float],
               parent: Optional[int] = None, **extra) -> dict:
        """Append one span with known bounds; returns it."""
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "request": request, "parent": parent, "start": start,
                "end": end, **extra}
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def _span(self, name: str, layer: str, request: Optional[str]):
        span = self.record(name, layer, request, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def span(self, name: str, layer: str, request: Optional[str] = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, layer, request)

    def derived(self, parent: Optional[dict], name: str, layer: str,
                seconds: float, adopt: bool = False) -> Optional[dict]:
        """Record a child of *parent* whose duration the program measured.

        Placed at the parent's start: only its duration is known.  With
        *adopt*, the parent's recorded children become the new span's
        (they ran inside the part the program measured).
        """
        if not self.enabled or parent is None:
            return None
        span = self.record(name, layer, parent["request"], parent["start"],
                           parent["start"] + seconds, parent["id"],
                           derived=True)
        if adopt:
            for child in self.spans[parent["id"] + 1:-1]:
                if child["parent"] == parent["id"]:
                    child["parent"] = span["id"]
        return span


def self_times(spans: List[dict], keep) -> Dict[str, float]:
    """Self time per layer over the spans whose request satisfies *keep*:
    each span's duration minus the part its children cover."""
    chosen = [s for s in spans if keep(s["request"])]
    covered: Dict[int, float] = {}
    for span in chosen:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    out: Dict[str, float] = {}
    for span in chosen:
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        out[span["layer"]] = out.get(span["layer"], 0.0) + max(own, 0.0)
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the root."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "thread_caps": dict(THREAD_CAPS),
        "program_workers": WORKERS,
        "platform": sys.platform,
    }


if __name__ == "__main__" and sys.argv[1:] == ["--probe-helper"]:
    for _ in sys.stdin:
        print(probe(), flush=True)
