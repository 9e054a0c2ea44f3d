"""Stdlib-only HTTP/1.1 front end for the service engine.

No web framework: :class:`ServiceServer` speaks just enough HTTP/1.1
over ``asyncio.start_server`` for a JSON API — request line, headers,
``Content-Length`` body, ``Connection: close`` responses.  Endpoints:

=======  ==========================  =====================================
method   path                        behaviour
=======  ==========================  =====================================
POST     ``/v1/jobs``                submit a job request → 202 + record
GET      ``/v1/jobs/<id>``           poll the job record (``?wait=SECS``
                                     long-polls until terminal)
GET      ``/v1/jobs/<id>/result``    the result document (409 + record
                                     until the job is ``done``)
DELETE   ``/v1/jobs/<id>``           cancel → 200 ``{"cancelled": ...}``
GET      ``/v1/report``              the engine's ``RunReport`` JSON
GET      ``/healthz``                liveness + job-state counts
GET      ``/metrics``                Prometheus text exposition
=======  ==========================  =====================================

Every JSON body is one compact line.  Error mapping: schema violations
→ 400 (with the JSON path in the body), a ``Content-Length`` that is
not a decimal byte count → 400, one over :data:`MAX_BODY_BYTES` → 413,
rate limiting → 429 (+ ``Retry-After``), a full queue → 503, unknown
ids → 404.  A request cut short (EOF or reset before its body is
whole), or not whole within :data:`READ_DEADLINE_S`, is closed without
a reply.

:class:`ServerThread` hosts an engine + server on a dedicated event
loop in a background thread — the bridge for synchronous callers
(tests, :class:`~repro.service.client.ServiceClient` examples) since
all asyncio primitives must be created on the loop that runs them.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, List, Optional, Set, Tuple, cast
from urllib.parse import parse_qs, urlsplit

from repro.service.engine import (
    EngineConfig,
    RateLimitedError,
    ServiceEngine,
    UnknownJobError,
)
from repro.service.queue import QueueFullError
from repro.service.schemas import JOB_STATES, ServiceSchemaError

__all__ = [
    "ServerThread",
    "ServiceServer",
    "render_metrics",
]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: a ``Content-Length`` above this is answered 413 before any body is read
MAX_BODY_BYTES = 4 * 1024 * 1024

#: seconds a client has to send one whole request (line, headers and
#: body); a client that stalls mid-request is closed without a reply,
#: so it cannot hold its connection task, or ``stop()``, forever
READ_DEADLINE_S = 10.0


def render_metrics(engine: ServiceEngine) -> str:
    """The engine counters in Prometheus text exposition format."""
    lines: List[str] = []
    for name, value in sorted(engine.counters().items()):
        metric = f"repro_service_{name}"
        kind = "gauge" if name == "queue_depth" else "counter"
        lines.append(f"# TYPE {metric} {kind}")
        lines.append(f"{metric} {value}")
    lines.append("# TYPE repro_service_jobs gauge")
    states = engine.queue.states()
    for state in JOB_STATES:
        lines.append(
            f'repro_service_jobs{{state="{state}"}} {states[state]}'
        )
    return "\n".join(lines) + "\n"


class _HttpError(Exception):
    """Internal routing error carrying the response to send."""

    def __init__(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.payload = payload
        self.headers = headers or {}
        super().__init__(payload.get("error", ""))


def _content_length(text: str) -> int:
    """A ``Content-Length`` value as a byte count; raises the 400 for
    anything but ASCII decimal digits and the 413 over the cap."""
    if not (text.isascii() and text.isdigit()):
        raise _HttpError(
            400, {"error": "Content-Length must be a decimal byte count"}
        )
    # compare digit counts first: ``int`` refuses over 4300 digits
    digits = text.lstrip("0") or "0"
    too_long = len(digits) > len(str(MAX_BODY_BYTES))
    if too_long or int(digits) > MAX_BODY_BYTES:
        raise _HttpError(
            413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        )
    return int(digits)


async def _read_raw_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[List[str], bytes]]:
    """The request line's words and the body; ``None`` for a request
    line of fewer than two words (see :meth:`ServiceServer._read_request`)."""
    parts = (await reader.readline()).decode("latin-1").split()
    if len(parts) < 2:
        return None
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            content_length = _content_length(value.strip())
    body = b""
    if content_length:
        body = await reader.readexactly(content_length)
    return parts, body


class ServiceServer:
    """One engine behind an ``asyncio.start_server`` JSON API.

    Construct and :meth:`start` inside a running event loop.  With
    ``port=0`` the OS picks an ephemeral port, published as
    :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        engine: ServiceEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: handler tasks of the connections still sending their request
        self._reading: Set["asyncio.Task[Any]"] = set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the engine workers and begin listening."""
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and shut the engine down."""
        if self._server is not None:
            self._server.close()
            if self._reading:
                # a stalled reader ends by READ_DEADLINE_S; cancelling it
                # instead makes Python 3.11's stream callback log an ERROR
                await asyncio.wait(set(self._reading), timeout=READ_DEADLINE_S)
            await self._server.wait_closed()
            self._server = None
        await self.engine.stop()

    async def serve_forever(self) -> None:
        """Block until cancelled, then close the listener (the CLI's
        main loop, run after :meth:`start` has bound the port)."""
        if self._server is None:
            raise RuntimeError("serve_forever() before start()")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
                if parsed is None:
                    return
                status, payload, headers = await self._route(*parsed)
            except _HttpError as exc:
                status, payload, headers = exc.status, exc.payload, exc.headers
            except (BrokenPipeError, ConnectionResetError):
                raise
            except Exception as exc:  # noqa: BLE001 - boundary
                status = 500
                payload = {"error": f"internal error: {exc}"}
                headers = {}
            if isinstance(payload, str):
                data = payload.encode("utf-8")
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            else:
                # compact separators keep CPython on its C encoder
                # (``indent`` forces the pure-Python one)
                data = json.dumps(payload, separators=(",", ":")).encode(
                    "utf-8"
                )
                ctype = "application/json"
            head = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(data)}",
                "Connection: close",
            ]
            for name, value in headers.items():
                head.append(f"{name}: {value}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("utf-8") + data
            )
            await writer.drain()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request into ``(method, path, query, body)``.

        ``None`` when the peer sends garbage, goes away or stalls before
        the request is whole — EOF, a reset, a body cut short, a line
        over the stream limit (``readline`` raises ``ValueError``),
        :data:`READ_DEADLINE_S` passing: the connection is closed
        without a reply.  A ``Content-Length`` that is not a decimal
        count raises a 400, one over :data:`MAX_BODY_BYTES` a 413,
        before any body is read.
        """
        # the connection's handler task (there always is one here)
        task = cast("asyncio.Task[Any]", asyncio.current_task())
        self._reading.add(task)
        try:
            read = await asyncio.wait_for(
                _read_raw_request(reader), READ_DEADLINE_S
            )
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ValueError,
        ):
            return None
        finally:
            self._reading.discard(task)
        if read is None:
            return None
        parts, body = read
        try:
            split = urlsplit(parts[1])
        except ValueError:
            raise _HttpError(
                400, {"error": "malformed request target"}
            ) from None
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        return parts[0].upper(), split.path, query, body

    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Any, Dict[str, str]]:
        engine = self.engine
        if path == "/v1/jobs" and method == "POST":
            return 202, self._submit(body), {}
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            if tail == "" and method == "GET":
                return 200, (await self._poll(job_id, query)), {}
            if tail == "" and method == "DELETE":
                cancelled = self._cancel(job_id)
                return 200, {"id": job_id, "cancelled": cancelled}, {}
            if tail == "result" and method == "GET":
                return await self._result(job_id, query)
            raise _HttpError(405, {"error": "method not allowed"})
        if path == "/v1/report" and method == "GET":
            # run_report holds the engine's execution lock while it
            # merges span trees — an executor worker may hold that lock
            # for a whole fit, so the wait must not stall the loop
            report = await asyncio.get_event_loop().run_in_executor(
                None, engine.run_report
            )
            return 200, report.to_dict(), {}
        if path == "/healthz" and method == "GET":
            return (
                200,
                {
                    "status": "ok",
                    "schema": "repro.service-job/1",
                    "jobs": engine.queue.states(),
                },
                {},
            )
        if path == "/metrics" and method == "GET":
            return 200, render_metrics(engine), {}
        raise _HttpError(404, {"error": f"no route {method} {path}"})

    def _submit(self, body: bytes) -> Dict[str, Any]:
        try:
            document = json.loads(body.decode("utf-8") or "null")
        except (ValueError, RecursionError) as exc:
            # decode and JSON errors are ValueErrors, as is an integer
            # literal over 4300 digits; deep nesting overflows the stack
            raise _HttpError(
                400, {"error": f"request body is not JSON: {exc}"}
            ) from None
        try:
            job = self.engine.submit(document)
        except ServiceSchemaError as exc:
            raise _HttpError(
                400, {"error": str(exc), "path": exc.path}
            ) from None
        except RateLimitedError as exc:
            raise _HttpError(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                {"Retry-After": f"{exc.retry_after_s:.3f}"},
            ) from None
        except QueueFullError as exc:
            raise _HttpError(503, {"error": str(exc)}) from None
        return job.record()

    async def _poll(
        self, job_id: str, query: Dict[str, str]
    ) -> Dict[str, Any]:
        job = self._job(job_id)
        wait_s = self._wait_param(query)
        if wait_s and not job.terminal:
            try:
                await asyncio.wait_for(job.done_event.wait(), wait_s)
            except asyncio.TimeoutError:
                pass
        return job.record()

    async def _result(
        self, job_id: str, query: Dict[str, str]
    ) -> Tuple[int, Any, Dict[str, str]]:
        job = self._job(job_id)
        wait_s = self._wait_param(query)
        if wait_s and not job.terminal:
            try:
                await asyncio.wait_for(job.done_event.wait(), wait_s)
            except asyncio.TimeoutError:
                pass
        if job.state == "done" and job.result is not None:
            return 200, job.result, {}
        return 409, {"error": "job is not done", "job": job.record()}, {}

    def _cancel(self, job_id: str) -> bool:
        try:
            return self.engine.cancel(job_id)
        except UnknownJobError:
            raise _HttpError(
                404, {"error": f"unknown job {job_id!r}"}
            ) from None

    def _job(self, job_id: str) -> Any:
        try:
            return self.engine.job(job_id)
        except UnknownJobError:
            raise _HttpError(
                404, {"error": f"unknown job {job_id!r}"}
            ) from None

    @staticmethod
    def _wait_param(query: Dict[str, str]) -> Optional[float]:
        raw = query.get("wait")
        if raw is None:
            return None
        try:
            wait_s = float(raw)
        except ValueError:
            raise _HttpError(
                400, {"error": "wait must be a number of seconds"}
            ) from None
        return max(0.0, min(wait_s, 300.0))


class ServerThread:
    """A server on its own event loop in a daemon thread.

    For synchronous callers: ``with ServerThread() as address:`` gives
    a live ``host:port`` backed by a private engine; everything shuts
    down on exit.  The engine is built *inside* the loop thread so all
    asyncio primitives bind correctly (Python 3.9 semantics).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._config = config
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServiceServer] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        """Launch and block until the port is bound."""
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            )
        if self._server is None:
            raise RuntimeError("service failed to start within 30s")
        return self

    def stop(self) -> None:
        """Shut the server and its loop down; joins the thread."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        server = self._server

        async def _shutdown() -> None:
            if server is not None:
                await server.stop()
            loop.stop()

        asyncio.run_coroutine_threadsafe(_shutdown(), loop)
        self._thread.join(timeout=30.0)

    @property
    def engine(self) -> ServiceEngine:
        """The engine behind the server (inspect counters in tests)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.engine

    @property
    def address(self) -> str:
        """``host:port`` once started."""
        if self._server is None:
            raise RuntimeError("server not started")
        return f"{self._host}:{self._server.port}"

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            engine = ServiceEngine(self._config)
            server = ServiceServer(engine, self._host, self._port)
            loop.run_until_complete(server.start())
            self._server = server
            self._ready.set()
            loop.run_forever()
        except BaseException as exc:  # pragma: no cover - startup failure
            self._startup_error = exc
            self._ready.set()
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()
