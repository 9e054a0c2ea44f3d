"""Programmatic client for the partitioning service.

:class:`ServiceClient` wraps the HTTP API in typed helpers over
:mod:`http.client` (stdlib only, one kept-alive connection per calling
thread):

    with ServerThread() as srv:
        client = ServiceClient(srv.address)
        record = client.submit(kind="partition", k=8,
                               source={"kind": "impact", "n_steps": 4})
        result = client.result(record["id"], wait_s=30.0)
        labels = result["labels"]

A job the service answered at submission (a memory cache hit) comes
back with its result inside the ``POST`` response; :meth:`submit` keeps
that document and the next :meth:`result` for the job returns it
without a second request.  Any other job's :meth:`result` asks (and
long-polls) over ``GET``.

Non-2xx responses raise :class:`ServiceError` carrying the HTTP status
and the server's JSON error body, so callers can branch on
``exc.status == 429`` (rate limited) or ``503`` (queue full).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional

from repro.service.schemas import (
    SCHEMA_VERSION,
    validate_job_record,
    validate_result,
)

__all__ = ["ServiceClient", "ServiceError"]

#: result documents kept from ``POST`` responses until read; beyond it
#: the oldest unread one is dropped (its ``result()`` then asks the
#: server)
STORED_RESULTS = 64


class ServiceError(RuntimeError):
    """A non-2xx service response.

    ``status`` is the HTTP status code; ``body`` the decoded JSON
    error document (``{}`` when the body was not JSON).
    """

    def __init__(self, status: int, body: Dict[str, Any]) -> None:
        self.status = status
        self.body = body
        message = body.get("error") if isinstance(body, dict) else None
        super().__init__(f"HTTP {status}: {message or 'service error'}")


def _stale(sock: socket.socket) -> bool:
    """Whether an idle connection is unusable: the server closed it (a
    read would see EOF or a reset) or sent bytes nobody asked for."""
    sock.settimeout(0.0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False  # nothing to read: still open
    except OSError:
        return True
    return True


class ServiceClient:
    """Synchronous client bound to one ``host:port``.

    Thread-safe: each calling thread gets its own persistent
    connection.  :meth:`close` (or leaving a ``with`` block) closes
    them all and drops the stored results.
    """

    def __init__(self, address: str, timeout_s: float = 60.0) -> None:
        host, _, port = address.partition(":")
        if not host or not port:
            raise ValueError(
                f"address must be 'host:port', got {address!r}"
            )
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        #: one persistent connection per calling thread
        self._connections: Dict[
            threading.Thread, http.client.HTTPConnection
        ] = {}
        #: result documents that came with their job's POST, by job id
        self._results: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection (a later call reconnects)
        and drop the stored results."""
        with self._lock:
            connections, self._connections = self._connections, {}
            self._results.clear()
        for conn in connections.values():
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _connection(self, timeout_s: float) -> http.client.HTTPConnection:
        """This thread's connection, ready to send with ``timeout_s``."""
        thread = threading.current_thread()
        conn = self._connections.get(thread)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s
            )
            with self._lock:
                dead = [t for t in self._connections if not t.is_alive()]
                for other in dead:
                    self._connections.pop(other).close()
                self._connections[thread] = conn
            return conn
        # a new socket (first use, or after close()) connects with it
        conn.timeout = timeout_s
        if conn.sock is not None:
            if _stale(conn.sock):
                conn.close()
            else:
                conn.sock.settimeout(timeout_s)
        return conn

    # ------------------------------------------------------------------
    # raw transport
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Any:
        """One HTTP exchange; raises :class:`ServiceError` on non-2xx.

        ``timeout_s`` overrides the connection default for this call
        (long-polling endpoints must outlive their ``wait`` budget).
        A transport error closes this thread's connection and is
        raised: the request is not resent.
        """
        conn = self._connection(
            self.timeout_s if timeout_s is None else timeout_s
        )
        payload = None
        headers = {"Connection": "keep-alive"}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            decoded: Any = json.loads(raw.decode("utf-8"))
        else:
            decoded = raw.decode("utf-8")
        if response.status >= 300:
            raise ServiceError(
                response.status,
                decoded if isinstance(decoded, dict) else {},
            )
        return decoded

    # ------------------------------------------------------------------
    # typed endpoints
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        k: int,
        source: Mapping[str, Any],
        partitioner: str = "mcml-dt",
        config: Optional[Mapping[str, Any]] = None,
        steps: int = 1,
        client: str = "anonymous",
        deadline_s: Optional[float] = None,
        cache: bool = True,
    ) -> Dict[str, Any]:
        """Submit a job; returns the (schema-checked) job record.  A
        result that came with it is kept for :meth:`result`."""
        document: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "k": k,
            "partitioner": partitioner,
            "config": dict(config or {}),
            "source": dict(source),
            "steps": steps,
            "client": client,
            "deadline_s": deadline_s,
            "cache": cache,
        }
        return self.submit_document(document)

    def submit_document(self, document: Mapping[str, Any]) -> Dict[str, Any]:
        """Submit a pre-built request document verbatim (see
        :meth:`submit`)."""
        record = validate_job_record(
            self.request("POST", "/v1/jobs", dict(document))
        )
        result = record.pop("result", None)
        if result is not None:
            with self._lock:
                self._results[record["id"]] = result
                while len(self._results) > STORED_RESULTS:
                    self._results.popitem(last=False)
        return record

    def status(
        self, job_id: str, wait_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """The job record; ``wait_s`` long-polls until terminal.

        The socket timeout is widened to cover ``wait_s`` so a slow
        job long-polls to completion instead of tripping the shorter
        connection default.
        """
        path = f"/v1/jobs/{job_id}"
        if wait_s is not None:
            path += f"?wait={wait_s:g}"
        return validate_job_record(
            self.request("GET", path, timeout_s=self._poll_timeout(wait_s))
        )

    def result(
        self, job_id: str, wait_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """The result document once the job is done (409 before);
        ``wait_s`` long-polls with a widened socket timeout (see
        :meth:`status`).  A result that came with the job's POST is
        returned, once, without a request."""
        with self._lock:
            stored = self._results.pop(job_id, None)
        if stored is not None:
            return stored
        path = f"/v1/jobs/{job_id}/result"
        if wait_s is not None:
            path += f"?wait={wait_s:g}"
        return validate_result(
            self.request("GET", path, timeout_s=self._poll_timeout(wait_s))
        )

    def _poll_timeout(self, wait_s: Optional[float]) -> Optional[float]:
        """Socket timeout for a long-poll: the server holds the
        response up to ``wait_s``, so allow that plus a margin (never
        less than the connection default)."""
        if wait_s is None:
            return None
        return max(self.timeout_s, wait_s + 10.0)

    def cancel(self, job_id: str) -> bool:
        """Cancel the job; ``True`` when the cancel landed."""
        response = self.request("DELETE", f"/v1/jobs/{job_id}")
        return bool(response.get("cancelled"))

    def report(self) -> Dict[str, Any]:
        """The engine's ``repro.run-report/1`` document."""
        document = self.request("GET", "/v1/report")
        if not isinstance(document, dict):
            raise ServiceError(500, {"error": "malformed report"})
        return document

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body."""
        document = self.request("GET", "/healthz")
        if not isinstance(document, dict):
            raise ServiceError(500, {"error": "malformed health body"})
        return document

    def metrics(self) -> Dict[str, float]:
        """Parsed ``/metrics``: ``{metric_name or name{labels}: value}``."""
        text = self.request("GET", "/metrics")
        if not isinstance(text, str):
            raise ServiceError(500, {"error": "malformed metrics body"})
        values: Dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
        return values

    # ------------------------------------------------------------------
    def partition(
        self,
        k: int,
        source: Mapping[str, Any],
        partitioner: str = "mcml-dt",
        config: Optional[Mapping[str, Any]] = None,
        wait_s: float = 300.0,
        **submit_kwargs: Any,
    ) -> Dict[str, Any]:
        """Submit a partition job and block for its result."""
        record = self.submit(
            "partition",
            k,
            source,
            partitioner=partitioner,
            config=config,
            **submit_kwargs,
        )
        return self.result(record["id"], wait_s=wait_s)

    def labels(self, result_document: Mapping[str, Any]) -> List[int]:
        """The label vector out of a partition result document."""
        labels = result_document.get("labels")
        if not isinstance(labels, list):
            raise ValueError("not a partition result document")
        return [int(x) for x in labels]
