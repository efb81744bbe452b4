"""The HTTP serving tier (platform/http.py + platform/jobs.py).

One server = one resident MiningSession behind an asyncio front door.
These tests run the real thing — a socket server on a loopback port,
exercised with stdlib ``http.client`` — because the serving tier's whole
contract is wire-level: request parsing, admission pushback headers,
tenant headers, job polling, and artifacts that survive a restart.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

import pytest

import repro.platform.bench as bench
from repro.graph import load_dataset
from repro.mining.triangles import triangle_count_node_iterator
from repro.platform.http import (
    AdmissionControl,
    MiningHTTPServer,
    TenantQuota,
    load_tenants,
    running_server,
)
from repro.platform.jobs import JOB_SCHEMA, JobStore
from repro.platform.runner import diff_payloads
from repro.platform.session import MiningSession
from repro.platform.suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    register_suite_kernel,
)


def _request(port: int, method: str, path: str, body=None, headers=None):
    """One request, parsed: ``(status, payload, response)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}, response
    finally:
        conn.close()


def _wait_for_job(port: int, job_id: str, timeout: float = 120.0):
    deadline = time.time() + timeout
    while True:
        status, record, _ = _request(port, "GET", f"/jobs/{job_id}")
        assert status == 200
        if record["state"] in ("done", "failed", "interrupted"):
            return record
        assert time.time() < deadline, f"job {job_id} never finished"
        time.sleep(0.05)


@pytest.fixture
def artifact_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
    return tmp_path


class TestQueryEndpoint:
    @pytest.fixture(scope="class")
    def server(self):
        with running_server() as server:
            yield server

    def test_golden_query_over_a_real_socket(self, server):
        status, payload, response = _request(
            server.port, "POST", "/query",
            {"kernel": "tc", "dataset": "sc-ht-mini", "backend": "bitset"},
        )
        assert status == 200
        assert response.getheader("Content-Type") == "application/json"
        result = payload["result"]
        assert result["kernel"] == "tc"
        assert result["dataset"] == "sc-ht-mini"
        assert result["resolved_class"] == "BitSet"
        assert result["exact"] is True
        assert result["wall_seconds"] > 0
        assert result["counters"]["set_ops"] > 0
        assert payload["tenant"] == "public"
        # The golden value: the mini dataset's triangle count is pinned
        # by the whole suite; the wire must carry exactly it.
        with MiningSession() as session:
            direct = (session.query("tc").on("sc-ht-mini")
                      .backend("bitset").run())
        assert result["value"] == direct.value

    def test_query_cell_matches_the_cli_path(self, server):
        """The served cell is the suite cell — same fields, same values."""
        status, payload, _ = _request(
            server.port, "POST", "/query",
            {"kernel": "4clique", "dataset": "sc-ht-mini",
             "backend": "bitset", "ordering": "DGR"},
        )
        assert status == 200
        served = payload["result"]["cell"]
        with MiningSession() as session:
            direct = (session.query("4clique").on("sc-ht-mini")
                      .backend("bitset").ordering("DGR").run().cell)
        timing = ("seconds",)
        assert {k: v for k, v in served.items()
                if k not in timing and k != "extras"} == \
               {k: v for k, v in direct.items()
                if k not in timing and k != "extras"}

    def test_variants_run_as_one_batch(self, server):
        status, payload, _ = _request(
            server.port, "POST", "/query",
            {"kernel": "tc", "dataset": "sc-ht-mini",
             "variants": [{"backend": "bitset"}, {"backend": "sorted"}]},
        )
        assert status == 200
        results = payload["results"]
        assert [r["resolved_class"] for r in results] == \
            ["BitSet", "SortedSet"]
        assert results[0]["value"] == results[1]["value"]

    def test_bad_requests_answer_4xx_not_500(self, server):
        cases = [
            ("POST", "/query", {"dataset": "sc-ht-mini"}, 400),     # no kernel
            ("POST", "/query", {"kernel": "tc"}, 400),              # no dataset
            ("POST", "/query",
             {"kernel": "nope", "dataset": "sc-ht-mini"}, 400),
            ("POST", "/query",
             {"kernel": "tc", "dataset": "nope"}, 404),
            ("POST", "/query",
             {"kernel": "tc", "dataset": "sc-ht-mini",
              "unknown_knob": 1}, 400),
            ("GET", "/nope", None, 404),
            ("GET", "/jobs/job-999999", None, 404),
            ("GET", "/query", None, 405),
        ]
        for method, path, body, expected in cases:
            status, payload, _ = _request(server.port, method, path, body)
            assert status == expected, (path, payload)
            assert "error" in payload

    def test_malformed_json_is_a_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request("POST", "/query", body=b"{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_healthz_and_stats(self, server):
        status, health, _ = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        status, stats, _ = _request(server.port, "GET", "/stats")
        assert status == 200
        assert stats["session"]["queries"] > 0
        assert stats["admission"]["admitted"] > 0
        assert stats["admission"]["rejected"] == 0
        assert stats["tenants"]["public"]["usage"]["queries"] > 0


class TestAdmissionControl:
    def test_bounded_queue_unit(self):
        admission = AdmissionControl(max_inflight=1, backlog=1)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()   # 1 in service + 1 queued
        assert admission.rejected == 1
        admission.release(0.5)
        assert admission.try_acquire()
        assert admission.retry_after() >= 1

    def test_full_server_answers_429_with_retry_after(self):
        with running_server(max_inflight=1, backlog=0) as server:
            # Fill the only admission slot from the outside, exactly as a
            # stuck in-flight request would hold it.
            assert server.admission.try_acquire()
            try:
                status, payload, response = _request(
                    server.port, "POST", "/query",
                    {"kernel": "tc", "dataset": "sc-ht-mini",
                     "backend": "bitset"},
                )
                assert status == 429
                assert int(response.getheader("Retry-After")) >= 1
                assert "capacity" in payload["error"]
            finally:
                server.admission.release()
            # Slot freed: the same request is admitted and served.
            status, payload, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bitset"},
            )
            assert status == 200
            _, stats, _ = _request(server.port, "GET", "/stats")
            assert stats["admission"]["rejected"] == 1
            assert stats["tenants"]["public"]["usage"]["rejected"] == 1

    def test_retry_after_divides_by_service_lanes(self):
        one = AdmissionControl(max_inflight=1, backlog=4)
        two = AdmissionControl(max_inflight=1, backlog=4, lanes=2)
        for admission in (one, two):
            for _ in range(5):
                assert admission.try_acquire()
            # EWMA 0.8 * 0.05 + 0.2 * 10 = 2.04 s, 4 requests active.
            admission.release(10.0)
        assert one.retry_after() == 9   # ceil(4 * 2.04)
        assert two.retry_after() == 5   # ceil(4 * 2.04 / 2)

    def test_two_worker_server_retry_after_counts_both_lanes(self):
        with MiningSession(workers=2) as session, running_server(
                session, max_inflight=1, backlog=4) as server:
            assert server.admission.lanes == 2
            for _ in range(5):
                assert server.admission.try_acquire()
            server.admission.release(10.0)   # EWMA 2.04 s
            assert server.admission.try_acquire()   # all 5 slots held
            try:
                status, _, response = _request(
                    server.port, "POST", "/query",
                    {"kernel": "tc", "dataset": "sc-ht-mini"},
                )
                assert status == 429
                # ceil(5 * 2.04 / 2); one lane would say 11.
                assert response.getheader("Retry-After") == "6"
            finally:
                for _ in range(5):
                    server.admission.release()


def _slow_tc(graph, set_cls, ordering, plan, cache):
    """Triangle count that takes long enough to see two run at once; the
    extras record when the pass ran (wall clock, comparable across
    processes)."""
    start = time.time()
    value = triangle_count_node_iterator(graph, set_cls=set_cls,
                                         cache=cache)
    time.sleep(0.5)
    return value, {"start": start, "end": time.time()}


class TestPooledQueries:
    """``/query`` on a ``workers=2`` session runs on the resident pool."""

    @pytest.fixture
    def slow_kernel(self):
        # Registered before the pool forks, so the workers see it.
        register_suite_kernel("slow-tc", _slow_tc, "slow triangle count",
                              uses_ordering=False)
        try:
            yield "slow-tc"
        finally:
            del SUITE_KERNELS["slow-tc"]

    def test_concurrent_queries_overlap_on_the_pool(self, slow_kernel):
        body = {"kernel": slow_kernel, "dataset": "sc-ht-mini",
                "backend": "bitset"}
        fields = ("set_ops", "point_ops", "sketch_builds", "memory_traffic")
        with MiningSession(workers=2) as session, \
                running_server(session) as server:
            # Warm before the pool starts, so both workers receive the
            # materialization and run each query's kernel exactly once.
            session.warm("sc-ht-mini", ("bitset",))
            status, _, _ = _request(server.port, "POST", "/query", body)
            assert status == 200          # warm-up: starts the pool
            before = session.counters
            replies = [None, None]

            def client(i):
                replies[i] = _request(server.port, "POST", "/query", body)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            after = session.counters
            results = [payload["result"] for _, payload, _ in replies]
            assert [status for status, _, _ in replies] == [200, 200]
            assert session.pool_starts == 1
        spans = [r["cell"]["extras"] for r in results]
        assert max(s["start"] for s in spans) < min(s["end"] for s in spans)
        # Pool-served: no session-cache traffic in the parent.
        assert all(r["cache_hits"] == r["cache_misses"] == 0
                   for r in results)
        for name in fields:
            assert (getattr(after, name) - getattr(before, name)
                    == sum(r["counters"][name] for r in results)), name
        with MiningSession() as direct_session:
            direct = (direct_session.query(slow_kernel).on("sc-ht-mini")
                      .backend("bitset").run())
        assert [r["value"] for r in results] == [direct.value] * 2
        assert direct.value == triangle_count_node_iterator(
            load_dataset("sc-ht-mini"))

    def test_many_concurrent_queries_keep_session_totals_whole(self):
        # More workers and clients than cores, and a short switch
        # interval: a lost update to the session's counters or query
        # count would break the sums below.
        clients, per_client = 6, 4
        bodies = [{"kernel": "tc", "dataset": "sc-ht-mini",
                   "backend": backend} for backend in ("bitset", "sorted")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MiningSession(workers=3) as session, \
                    running_server(session, max_inflight=clients) as server:
                _request(server.port, "POST", "/query", bodies[0])
                before, queries0 = session.counters, session.queries_run
                replies = []

                def client(i):
                    for j in range(per_client):
                        replies.append(_request(server.port, "POST",
                                                "/query", bodies[(i + j) % 2]))

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                after = session.counters
                assert session.queries_run - queries0 == clients * per_client
        finally:
            sys.setswitchinterval(interval)
        assert [status for status, _, _ in replies] == \
            [200] * (clients * per_client)
        results = [payload["result"] for _, payload, _ in replies]
        assert len({r["value"] for r in results}) == 1
        assert after.set_ops - before.set_ops == sum(
            r["counters"]["set_ops"] for r in results)
        assert after.memory_traffic - before.memory_traffic == sum(
            r["counters"]["memory_traffic"] for r in results)

    def test_graph_added_after_pool_start_is_answered_in_process(self):
        late = load_dataset("antcolony5-mini")
        rebound = load_dataset("gearbox-mini")
        with MiningSession(workers=2) as session, \
                running_server(session) as server:
            status, first, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bitset"},
            )
            assert status == 200
            assert first["result"]["cache_misses"] == 0   # on the pool
            assert session.pool_starts == 1
            session.add_graph("late", late)
            status, single, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "late", "backend": "bitset"},
            )
            assert status == 200, single
            assert single["result"]["value"] == \
                triangle_count_node_iterator(late)
            assert single["result"]["cache_misses"] > 0   # in-process
            status, batch, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "late",
                 "variants": [{"backend": "sorted"},
                              {"dataset": "sc-ht-mini"}]},
            )
            assert status == 200, batch
            assert [r["value"] for r in batch["results"]] == [
                triangle_count_node_iterator(late),
                first["result"]["value"],
            ]
            # Re-binding the name after the pool started: still answered,
            # and on the new graph.
            session.add_graph("late", rebound)
            status, again, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "late", "backend": "bitset"},
            )
            assert status == 200, again
            assert again["result"]["value"] == \
                triangle_count_node_iterator(rebound)
            assert session.pool_starts == 1


class TestTenantQuotas:
    def test_clamp_overrides_unit(self):
        quota = TenantQuota(max_bloom_bits=64, max_cache_bytes=1 << 20,
                            worker_share=0.5)
        clamped, applied = quota.clamp_overrides(
            {"bits": 1024, "shared_bits": 32, "backend": "bloom"}
        )
        assert clamped["bits"] == 64
        assert clamped["shared_bits"] == 32          # under cap: untouched
        assert clamped["cache_budget_bytes"] == 1 << 20
        assert applied["bits"] == {"requested": 1024, "granted": 64}
        assert quota.max_workers(4) == 2
        assert quota.max_workers(1) == 1             # floor, never 0
        assert TenantQuota().clamp_overrides({"bits": 10 ** 9})[1] == {}
        assert TenantQuota().max_workers(4) is None

    def test_quota_threads_into_the_served_query(self):
        tenants = {"capped": TenantQuota(max_bloom_bits=64,
                                         max_cache_bytes=1 << 20)}
        with running_server(tenants=tenants) as server:
            status, payload, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bloom", "bits": 4096},
                headers={"X-Repro-Tenant": "capped"},
            )
            assert status == 200
            # The response tells the tenant what was degraded...
            assert payload["quota_clamped"]["bits"] == {
                "requested": 4096, "granted": 64,
            }
            # ...and the served result really ran under the granted
            # budget: a 64-bit-per-element Bloom backend, not 4096.
            assert payload["result"]["resolved_class"] != "BitSet"
            # An uncapped tenant with the same request is not clamped.
            status, payload, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bloom", "bits": 4096},
            )
            assert status == 200
            assert "quota_clamped" not in payload
            _, stats, _ = _request(server.port, "GET", "/stats")
            assert stats["tenants"]["capped"]["usage"]["clamped"] == 1
            assert stats["tenants"]["capped"]["quota"]["max_bloom_bits"] == 64

    def test_load_tenants_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "alice": {"max_bloom_bits": 128, "worker_share": 0.5},
        }))
        table = load_tenants(str(path))
        assert table["alice"] == TenantQuota(max_bloom_bits=128,
                                             worker_share=0.5)
        assert load_tenants(None) == {}
        path.write_text(json.dumps({"bob": {"max_gpus": 3}}))
        with pytest.raises(ValueError, match="unknown quota field"):
            load_tenants(str(path))


class TestSuiteJobs:
    def test_job_lifecycle_and_artifact(self, artifact_dir):
        with running_server() as server:
            status, accepted, _ = _request(
                server.port, "POST", "/suite",
                {"smoke": True, "kernels": ["tc"]},
                headers={"X-Repro-Tenant": "team-a"},
            )
            assert status == 202
            assert accepted["poll"] == f"/jobs/{accepted['job']}"
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
            assert record["schema"] == JOB_SCHEMA
            assert record["tenant"] == "team-a"
            assert record["exact_mismatches"] == 0
            progress = record["progress"]
            assert progress["cells_done"] == progress["cells_total"] > 0
            assert progress["datasets_done"] == 1
            assert progress["current_dataset"] is None
            (path,) = record["artifacts"]
            artifact = json.loads(open(path).read())
            assert artifact["schema"] == "gms-suite/v2"
            assert artifact["dataset"] == "sc-ht-mini"
            # Job listing includes it.
            _, listing, _ = _request(server.port, "GET", "/jobs")
            assert [j["id"] for j in listing["jobs"]] == [accepted["job"]]
            _, stats, _ = _request(server.port, "GET", "/stats")
            assert stats["jobs"]["counts"] == {"done": 1}
            assert stats["tenants"]["team-a"]["usage"]["jobs"] == 1
            assert stats["tenants"]["team-a"]["usage"]["cells"] > 0

    def test_served_suite_is_suite_diff_identical_to_cli(self, artifact_dir):
        """The acceptance gate: HTTP job artifact == direct session run."""
        with MiningSession() as session:
            reference = session.run_plan(ExperimentPlan.smoke())[0]
        with running_server() as server:
            _, accepted, _ = _request(server.port, "POST", "/suite",
                                      {"smoke": True})
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
            (path,) = record["artifacts"]
            served = json.loads(open(path).read())
        assert diff_payloads(reference, served, semantic=True) == []

    def test_invalid_plans_rejected_at_submission(self, artifact_dir):
        with running_server() as server:
            cases = [
                {"kernels": ["nope"]},
                {"datasets": ["nope"]},
                {"orderings": ["NOPE"]},
                {"datasets": "not-a-list"},
                {"frobnicate": 1},
            ]
            for body in cases:
                status, payload, _ = _request(
                    server.port, "POST", "/suite", body
                )
                assert status == 400, (body, payload)
            # Nothing was accepted, so the store stays empty.
            _, listing, _ = _request(server.port, "GET", "/jobs")
            assert listing["jobs"] == []

    def test_full_job_backlog_answers_429(self, artifact_dir):
        import asyncio
        import threading

        release = threading.Event()
        with running_server(max_pending_jobs=1) as server:
            async def stuck(job, plan):
                # Park the job worker off-loop until the test says so —
                # the submissions below then fill the queue
                # deterministically instead of racing the drain.
                await asyncio.get_event_loop().run_in_executor(
                    None, release.wait
                )

            server._execute_job = stuck
            try:
                _, first, _ = _request(server.port, "POST", "/suite",
                                       {"smoke": True})
                deadline = time.time() + 30
                while server._job_queue.qsize() > 0:   # worker picked it up
                    assert time.time() < deadline
                    time.sleep(0.01)
                status, _, _ = _request(server.port, "POST", "/suite",
                                        {"smoke": True})
                assert status == 202                   # fills the backlog
                status, payload, response = _request(
                    server.port, "POST", "/suite", {"smoke": True}
                )
                assert status == 429
                assert response.getheader("Retry-After") is not None
                assert "backlog" in payload["error"]
            finally:
                release.set()

    def test_jobs_survive_a_server_restart(self, artifact_dir):
        root = str(artifact_dir / "jobs")
        with running_server(job_root=root) as server:
            _, accepted, _ = _request(server.port, "POST", "/suite",
                                      {"smoke": True, "kernels": ["tc"]})
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
        # New process, same store root: the answer is still there.
        with running_server(job_root=root) as server:
            status, record, _ = _request(
                server.port, "GET", f"/jobs/{accepted['job']}"
            )
            assert status == 200
            assert record["state"] == "done"
            (path,) = record["artifacts"]
            assert json.loads(open(path).read())["dataset"] == "sc-ht-mini"
            # And new ids continue above the hydrated ones.
            _, accepted2, _ = _request(server.port, "POST", "/suite",
                                       {"smoke": True, "kernels": ["tc"]})
            assert accepted2["job"] > accepted["job"]
            _wait_for_job(server.port, accepted2["job"])

    def test_interrupted_jobs_are_marked_on_hydration(self, artifact_dir):
        store = JobStore(str(artifact_dir / "jobs"))
        job = store.create(plan={}, tenant="public",
                           cells_total=4, datasets_total=1)
        job.state = "running"
        store.persist(job)
        # A fresh store over the same root = a restarted server: the
        # abandoned run must read as interrupted, durably.
        reloaded = JobStore(str(artifact_dir / "jobs")).get(job.id)
        assert reloaded.state == "interrupted"
        assert "restarted" in reloaded.error
        on_disk = json.loads(
            (artifact_dir / "jobs" / job.id / "job.json").read_text()
        )
        assert on_disk["state"] == "interrupted"


class TestServeHttpWiring:
    def test_serve_parser_accepts_http_flags(self):
        from repro.platform.serve import build_serve_parser

        ns = build_serve_parser().parse_args([
            "--http", "0", "--host", "0.0.0.0", "--max-inflight", "2",
            "--admission-backlog", "3", "--max-pending-jobs", "1",
            "--job-root", "/tmp/jobs",
        ])
        assert ns.http == 0
        assert ns.host == "0.0.0.0"
        assert ns.max_inflight == 2
        assert ns.admission_backlog == 3
        assert ns.max_pending_jobs == 1
        assert ns.job_root == "/tmp/jobs"

    def test_serve_main_dispatches_to_http(self, monkeypatch):
        calls = {}
        import repro.platform.serve as serve

        def fake_serve_http(ns):
            calls["port"] = ns.http
            return 0

        # serve_main imports serve_http from .http lazily; intercept there.
        import repro.platform.http as http_mod

        monkeypatch.setattr(http_mod, "serve_http", fake_serve_http)
        assert serve.serve_main(["--http", "8123"]) == 0
        assert calls["port"] == 8123

    def test_default_job_root_tracks_artifact_dir(self, artifact_dir):
        with MiningSession() as session:
            server = MiningHTTPServer(session)
            assert server.store.root == str(artifact_dir / "jobs")
