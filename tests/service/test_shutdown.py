"""Shutdown: ``repro-serve``'s main loop, ``ServiceServer.stop`` and
``ServerThread.stop`` each close the listener and stop the engine —
no worker task left, the pooled backend detached and closed.

Every engine here runs on a ``thread:2`` backend and one contact-step
job, so the pool exists (a ``ThreadBackend`` holds a thread pool once a
session has opened) and "closed" is observable.
"""

import asyncio
import re
import socket

import pytest

from repro.service import cli as service_cli
from repro.service.client import ServiceClient
from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.http import ServerThread, ServiceServer

SOURCE = {"kind": "impact", "n_steps": 2, "refine": 0.5}


def run_contact_step(address):
    """One contact-step job over HTTP (materialises the pooled backend)."""
    client = ServiceClient(address)
    assert client.health()["status"] == "ok"
    record = client.submit("contact-step", 4, SOURCE, steps=1)
    assert client.status(record["id"], wait_s=120)["state"] == "done"


def live_backend(engine):
    backend = engine._backend
    assert backend is not None and backend._pool is not None
    return backend


def assert_stopped(engine, backend, port):
    assert engine._workers == []
    assert engine._backend is None
    assert backend._pool is None  # ThreadBackend.close() ran
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


class TestServeCli:
    def test_serves_on_the_printed_port_until_cancelled(
        self, monkeypatch, capsys
    ):
        servers = []

        class Recording(ServiceServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                servers.append(self)

        monkeypatch.setattr(service_cli, "ServiceServer", Recording)
        args = service_cli.build_parser().parse_args(
            ["--port", "0", "--workers", "1", "--backend", "thread:2"]
        )

        async def banner(task):
            out = ""
            while "listening on" not in out:
                assert not task.done()
                await asyncio.sleep(0.01)
                out += capsys.readouterr().out
            return out

        async def scenario():
            task = asyncio.ensure_future(service_cli._serve(args))
            out = await asyncio.wait_for(banner(task), 30)
            port = int(re.search(r"listening on 127\.0\.0\.1:(\d+) ", out)[1])
            await asyncio.get_event_loop().run_in_executor(
                None, run_contact_step, f"127.0.0.1:{port}"
            )
            await asyncio.sleep(0.05)
            assert not task.done()  # serves until cancelled
            backend = live_backend(servers[0].engine)
            task.cancel()
            assert await task == 0
            return port, backend

        port, backend = asyncio.run(scenario())
        assert port != 0
        assert_stopped(servers[0].engine, backend, port)

    def test_serve_forever_needs_start(self):
        async def scenario():
            server = ServiceServer(ServiceEngine(EngineConfig(workers=1)))
            with pytest.raises(RuntimeError, match="before start"):
                await server.serve_forever()

        asyncio.run(scenario())


class TestStop:
    def test_service_server_stop(self):
        async def scenario():
            engine = ServiceEngine(
                EngineConfig(workers=1, backend="thread:2")
            )
            server = ServiceServer(engine)
            await server.start()
            await asyncio.get_event_loop().run_in_executor(
                None, run_contact_step, f"127.0.0.1:{server.port}"
            )
            backend = live_backend(engine)
            await server.stop()
            return engine, backend, server.port

        assert_stopped(*asyncio.run(scenario()))

    def test_server_thread_stop(self):
        with ServerThread(
            EngineConfig(workers=1, backend="thread:2")
        ) as srv:
            run_contact_step(srv.address)
            engine = srv.engine
            backend = live_backend(engine)
            port = int(srv.address.rsplit(":", 1)[1])
        assert_stopped(engine, backend, port)
