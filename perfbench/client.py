"""Closed-loop HTTP load for the serve-warm workload.

Two clients, each on its own keep-alive connection, take the next request
of the round as soon as their previous one is answered (a closed loop:
a slow server receives less load).  A round is the fixed, seeded request
sequence; the timed window runs whole rounds, so every round does the
same work.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, List, Optional

#: Concurrent clients (one keep-alive connection each); sized for 2 cores.
CLIENTS = 2
#: Per-request socket timeout, far above any healthy latency.
TIMEOUT_S = 60.0


class Connection:
    """One keep-alive connection that reconnects after a failure."""

    def __init__(self, port: int, tenant: str) -> None:
        self.port = port
        self.tenant = tenant
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Dict[str, object]:
        """Send one request; returns status, payload and latency."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=TIMEOUT_S)
        data = json.dumps(body).encode() if body is not None else None
        headers = {"X-Repro-Tenant": self.tenant,
                   "Content-Type": "application/json"}
        start = time.perf_counter()
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
            latency = time.perf_counter() - start
            status = response.status
            payload = json.loads(raw) if raw else {}
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return {"status": None, "error": f"{type(exc).__name__}: {exc}",
                    "start": start, "latency": time.perf_counter() - start,
                    "payload": {}}
        return {"status": status, "start": start, "latency": latency,
                "payload": payload}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_round(connections: List[Connection],
              bodies: List[dict]) -> List[Dict[str, object]]:
    """Answer *bodies* with the connections as closed-loop clients."""
    results: List[Optional[Dict[str, object]]] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))

    def client(conn: Connection) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            results[index] = conn.request("POST", "/query", bodies[index])

    threads = [threading.Thread(target=client, args=(c,))
               for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
