"""End-to-end service tests over a real ephemeral-port HTTP server.

Each test class boots a :class:`ServerThread` (its own engine + event
loop + TCP port) and talks to it through :class:`ServiceClient` — the
full submit → poll → fetch path over actual sockets.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.schema import validate_report
from repro.service import http
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import EngineConfig
from repro.service.http import ServerThread
from repro.service.schemas import SCHEMA_VERSION

SOURCE = {"kind": "impact", "n_steps": 2, "refine": 0.5}


@pytest.fixture(scope="module")
def server():
    with ServerThread(EngineConfig(workers=2)) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.address)


class TestLifecycle:
    def test_health(self, client):
        body = client.health()
        assert body["status"] == "ok"
        assert set(body["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled", "expired"
        }

    def test_submit_poll_fetch(self, server, client):
        record = client.submit("partition", 4, SOURCE)
        assert record["state"] in ("queued", "running")
        # long-poll until terminal, then fetch the result
        record = client.status(record["id"], wait_s=120)
        assert record["state"] == "done"
        result = client.result(record["id"])
        assert result["kind"] == "partition"
        assert result["method"] == "mcml-dt"
        assert result["k"] == 4
        assert len(result["labels"]) > 0
        assert len(result["content_key"]) == 64

    def test_cached_repeat_is_bit_identical_without_refitting(
        self, server, client
    ):
        cold = client.partition(8, SOURCE, wait_s=120)
        fits_after_cold = server.engine.fits_total
        warm = client.partition(8, SOURCE, wait_s=120)
        assert server.engine.fits_total == fits_after_cold
        assert warm["cache"] == "hit"
        assert warm["labels"] == cold["labels"]
        assert warm["content_key"] == cold["content_key"]
        assert warm["diagnostics"] == cold["diagnostics"]

    def test_result_before_done_conflicts(self, client):
        record = client.submit(
            "partition", 3, {"kind": "impact", "n_steps": 2, "refine": 0.7}
        )
        try:
            client.result(record["id"])  # no wait: likely still running
        except ServiceError as exc:
            assert exc.status == 409
            assert exc.body["job"]["id"] == record["id"]
        else:  # tiny scene may already be done — the 200 path is fine
            pass
        # drain so the module-scoped server ends quiet
        client.status(record["id"], wait_s=120)

    def test_cancel(self, client):
        record = client.submit(
            "partition", 5, {"kind": "impact", "n_steps": 2, "refine": 0.8}
        )
        client.cancel(record["id"])  # may lose the race with the worker
        final = client.status(record["id"], wait_s=120)
        assert final["state"] in ("cancelled", "done")

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.status("job-424242")
        assert info.value.status == 404

    def test_schema_error_400_with_path(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit_document(
                {"schema": SCHEMA_VERSION, "kind": "partition"}
            )
        assert info.value.status == 400
        assert info.value.body["path"] == "$.k"

    def test_version_1_request_is_refused_naming_both_ids(self, client):
        """Version 2 added the record's ``result`` member; ``/healthz``
        names the version the server speaks."""
        assert client.health()["schema"] == SCHEMA_VERSION
        with pytest.raises(ServiceError) as info:
            client.submit_document(
                {"schema": "repro.service-job/1", "kind": "partition",
                 "k": 4}
            )
        assert info.value.status == 400
        assert info.value.body["path"] == "$.schema"
        assert "repro.service-job/1" in info.value.body["error"]
        assert SCHEMA_VERSION in info.value.body["error"]

    def test_version_2_request_is_refused_naming_both_ids(self, client):
        """Version 3 dropped the record's ``retries`` member: a job
        runs once."""
        assert client.health()["schema"] == "repro.service-job/3"
        with pytest.raises(ServiceError) as info:
            client.submit_document(
                {"schema": "repro.service-job/2", "kind": "partition",
                 "k": 4}
            )
        assert info.value.status == 400
        assert info.value.body["path"] == "$.schema"
        assert "repro.service-job/2" in info.value.body["error"]
        assert "repro.service-job/3" in info.value.body["error"]

    def test_malformed_body_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("POST", "/v1/jobs", body=None)
        assert info.value.status == 400

    def test_unroutable_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("GET", "/v2/everything")
        assert info.value.status == 404


class TestObservability:
    def test_metrics_exposition(self, server, client):
        client.partition(4, SOURCE, wait_s=120)
        metrics = client.metrics()
        assert metrics["repro_service_fits_total"] >= 1
        assert metrics["repro_service_cache_puts"] >= 1
        assert 'repro_service_jobs{state="done"}' in metrics
        # raw text is Prometheus-shaped: TYPE comments precede samples
        text = client.request("GET", "/metrics")
        assert "# TYPE repro_service_fits_total counter" in text

    def test_report_is_schema_valid(self, server, client):
        client.partition(4, SOURCE, wait_s=120)
        document = client.report()
        validate_report(document)  # raises on violation
        assert document["meta"]["fits_total"] >= 1
        assert document["meta"]["service_schema"] == SCHEMA_VERSION
        assert not [name for name in document["meta"] if "retr" in name]


class TestClientTimeouts:
    def test_long_poll_widens_the_socket_timeout(self, monkeypatch):
        """Regression: ``wait_s`` beyond the connection default must
        not trip ``socket.timeout`` mid-poll — the per-request timeout
        is derived from the wait budget."""
        client = ServiceClient("127.0.0.1:1", timeout_s=60.0)
        seen = {}

        def capture(method, path, body=None, timeout_s=None):
            seen[path] = timeout_s
            raise ServiceError(404, {"error": "capture only"})

        monkeypatch.setattr(client, "request", capture)
        for call in (client.status, client.result):
            seen.clear()
            with pytest.raises(ServiceError):
                call("job-000000", wait_s=300.0)
            (timeout,) = seen.values()
            assert timeout >= 300.0  # outlives the server-side hold
            seen.clear()
            with pytest.raises(ServiceError):
                call("job-000000")  # no wait: the connection default
            (timeout,) = seen.values()
            assert timeout is None
        # short waits never shrink below the connection default
        assert client._poll_timeout(1.0) == 60.0
        assert client._poll_timeout(None) is None
        assert client._poll_timeout(300.0) == 310.0


def totals(client):
    """``(connections, requests)`` the server has counted so far."""
    metrics = client.metrics()
    return (
        metrics["repro_service_connections_total"],
        metrics["repro_service_requests_total"],
    )


class TestPersistentConnections:
    def test_300_sequential_calls_use_one_connection(self, server):
        with ServiceClient(server.address) as client:
            connections, requests = totals(client)
            for _ in range(300):
                client.health()
            assert totals(client) == (connections, requests + 301)

    def test_each_call_sets_its_timeout_on_the_reused_socket(self, server):
        with ServiceClient(server.address, timeout_s=7.0) as client:
            client.health()
            conn = client._connections[threading.current_thread()]
            sock = conn.sock
            assert sock.gettimeout() == 7.0
            client.request("GET", "/healthz", timeout_s=33.0)
            assert conn.sock is sock and sock.gettimeout() == 33.0
            client.health()
            assert conn.sock is sock and sock.gettimeout() == 7.0

    def test_one_client_shared_by_two_threads(self, server):
        """The bench spine's burst: two threads share one client; each
        gets its own connection and only its own records."""
        barrier = threading.Barrier(2)

        def jobs(k):
            barrier.wait(30)
            pairs = []
            for _ in range(3):
                record = client.submit("partition", k, SOURCE)
                pairs.append((record, client.result(record["id"], 120)))
            return pairs

        with ServiceClient(server.address) as client:
            connections, _ = totals(client)
            with ThreadPoolExecutor(2) as pool:
                by_k = dict(zip((2, 3), pool.map(jobs, (2, 3))))
            for k, pairs in by_k.items():
                for record, result in pairs:
                    assert result["id"] == record["id"]
                    assert (result["k"], max(result["labels"])) == (k, k - 1)
                assert len({str(r["labels"]) for _, r in pairs}) == 1
            assert totals(client)[0] == connections + 2
            # a new thread's first call closes the dead threads' ones
            worker = threading.Thread(target=client.health)
            worker.start()
            worker.join()
            assert set(client._connections) == {
                threading.current_thread(), worker
            }

    def test_reconnects_after_the_server_closes_an_idle_connection(
        self, monkeypatch
    ):
        monkeypatch.setattr(http, "READ_DEADLINE_S", 0.3)
        with ServerThread(EngineConfig(workers=1)) as srv, ServiceClient(
            srv.address
        ) as client:
            connections, _ = totals(client)
            time.sleep(1.0)  # past the idle deadline: the server closed
            submitted = srv.engine.queue.submitted
            record = client.submit("partition", 2, SOURCE)
            assert srv.engine.queue.submitted == submitted + 1
            assert client.status(record["id"], wait_s=120)["state"] == "done"
            assert totals(client)[0] == connections + 1


class TestRateLimiting:
    def test_429_with_retry_after(self):
        config = EngineConfig(
            workers=1, rate_per_s=0.001, rate_burst=1
        )
        with ServerThread(config) as srv:
            client = ServiceClient(srv.address)
            client.submit("partition", 2, SOURCE, client="alice")
            with pytest.raises(ServiceError) as info:
                client.submit("partition", 3, SOURCE, client="alice")
            assert info.value.status == 429
            assert info.value.body["retry_after_s"] > 0
            # an unrelated client key is not throttled
            client.submit("partition", 3, SOURCE, client="bob")
            assert srv.engine.rate_limited_total == 1


class TestDeadlines:
    def test_expired_job_record_over_http(self):
        """A job with an impossible deadline surfaces as 'expired' in
        the polled record."""
        config = EngineConfig(workers=1)
        with ServerThread(config) as srv:
            client = ServiceClient(srv.address)
            # occupy the single worker with a slower job so the
            # deadlined one sits in the queue past its budget
            blocker = client.submit(
                "partition", 4, {"kind": "impact", "n_steps": 3, "refine": 0.9}
            )
            record = client.submit(
                "partition", 2, SOURCE, deadline_s=0.001
            )
            final = client.status(record["id"], wait_s=120)
            assert final["state"] == "expired"
            assert "deadline" in final["error"]
            with pytest.raises(ServiceError) as info:
                client.result(record["id"])
            assert info.value.status == 409
            client.status(blocker["id"], wait_s=120)  # drain


class TestCoalescingOverHttp:
    def test_concurrent_identical_submissions_fit_once(self):
        """Submissions racing over real sockets coalesce: one fit, the
        rest marked 'coalesced'."""
        import concurrent.futures

        with ServerThread(EngineConfig(workers=4)) as srv:
            client = ServiceClient(srv.address)
            source = {"kind": "impact", "n_steps": 2, "refine": 0.6}

            def submit_and_wait(_):
                record = client.submit("partition", 6, source)
                return client.result(record["id"], wait_s=120)

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(pool.map(submit_and_wait, range(8)))

            # the acceptance property: exactly one fit for 8 requests
            assert srv.engine.fits_total == 1
            states = [r["cache"] for r in results]
            assert states.count("miss") == 1
            # the rest coalesced (or, if they lost the race and arrived
            # after the leader finished, hit the cache — never refit)
            assert all(s in ("coalesced", "hit") for s in states if s != "miss")
            assert srv.engine.coalesced_total >= 1
            baseline = results[0]["labels"]
            assert all(r["labels"] == baseline for r in results)
