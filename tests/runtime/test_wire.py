"""Tests for the ``repro.wire/1`` framed message protocol.

The wire layer carries every byte the tcp and process backends move
to their peers, so the codec must round-trip arbitrary Python payloads
exactly, hoist NumPy arrays out-of-band, and reject mismatched or
malformed peers *before* trusting a payload byte.
"""

import io
import socket
import struct
import threading
import time
from multiprocessing import get_context

import numpy as np
import pytest

from repro.runtime.backends import wire
from repro.runtime.backends.supervised import Channel, PeerTimeout
from repro.runtime.backends.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    WireError,
    WireVersionError,
    from_frames,
    read_stream,
    to_frames,
    write_stream,
)


def _roundtrip_stream(obj):
    buf = io.BytesIO()
    sent = write_stream(buf.write, obj)
    buf.seek(0)
    got, received = read_stream(buf.read)
    assert sent == received == len(buf.getvalue())
    return got


PAYLOADS = [
    None,
    42,
    "text",
    {"k": [1, 2, 3], "t": ("a", 0.5)},
    np.arange(12, dtype=np.float64),
    np.arange(12, dtype=np.int32).reshape(3, 4),
    np.zeros((0, 3), dtype=np.float64),  # zero-size array
    {"a": np.ones(5, dtype=np.float32), "b": [np.arange(3)]},
]


class TestFrameCodec:
    @pytest.mark.parametrize("obj", PAYLOADS, ids=type)
    def test_roundtrip(self, obj):
        got = from_frames(to_frames(obj))
        if isinstance(obj, np.ndarray):
            np.testing.assert_array_equal(got, obj)
            assert got.dtype == obj.dtype
        else:
            cmp = repr(got) == repr(obj)
            assert cmp

    def test_arrays_travel_out_of_band(self):
        arr = np.arange(1000, dtype=np.float64)
        frames = to_frames({"a": arr})
        # header pickle + one raw frame holding the array bytes
        assert len(frames) == 2
        assert len(frames[1]) == arr.nbytes
        assert len(frames[0]) < arr.nbytes  # bytes not in the pickle

    def test_fortran_order_preserved(self):
        arr = np.asfortranarray(
            np.arange(12, dtype=np.float64).reshape(3, 4)
        )
        got = from_frames(to_frames(arr))
        np.testing.assert_array_equal(got, arr)

    def test_empty_message_rejected(self):
        with pytest.raises(WireError, match="empty wire message"):
            from_frames([])


class TestStreamTransport:
    def test_roundtrip_and_byte_count(self):
        payload = {"x": np.arange(7, dtype=np.int64), "y": "ok"}
        got = _roundtrip_stream(payload)
        np.testing.assert_array_equal(got["x"], payload["x"])
        assert got["y"] == "ok"

    def test_bad_magic_rejected_before_payload(self):
        head = struct.pack("<4sHI", b"XXXX", WIRE_VERSION, 1)
        buf = io.BytesIO(head + b"\x00" * 64)
        with pytest.raises(WireError, match="bad wire magic"):
            read_stream(buf.read)

    def test_version_mismatch_rejected_before_payload(self):
        head = struct.pack("<4sHI", WIRE_MAGIC, WIRE_VERSION + 7, 1)
        buf = io.BytesIO(head + b"\x00" * 64)
        with pytest.raises(WireVersionError) as err:
            read_stream(buf.read)
        assert err.value.theirs == WIRE_VERSION + 7
        assert err.value.ours == WIRE_VERSION

    def test_unreasonable_frame_count_rejected(self):
        head = struct.pack(
            "<4sHI", WIRE_MAGIC, WIRE_VERSION, wire.MAX_FRAMES + 1
        )
        with pytest.raises(WireError, match="frame count"):
            read_stream(io.BytesIO(head).read)



@pytest.fixture
def channels():
    """Both ends of a ``socketpair()`` as :class:`Channel`s — what a
    process-pool worker and its handle hold, and (over TCP) an agent
    and its coordinator."""
    a, b = socket.socketpair()
    pair = Channel(a), Channel(b)
    yield pair
    for chan in pair:
        chan.close()


class TestPipeTransport:
    """The one stream channel under both peer pools (the class keeps
    the name of the pipe framing it replaced)."""

    def test_roundtrip(self, channels):
        a, b = channels
        payload = {"arr": np.arange(9, dtype=np.float64), "n": 3}
        sent = a.send(payload)
        got, received = b.recv(timeout=5.0)
        assert sent == received
        np.testing.assert_array_equal(got["arr"], payload["arr"])
        assert got["n"] == 3

    def test_chunking_bounds_writes(self, channels):
        # a frame far larger than the kernel's socket buffer arrives
        # whole: the writer blocks until the reader drains it
        a, b = channels
        a._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        arr = np.arange(1 << 20, dtype=np.float64)  # 8 MB
        got = []
        reader = threading.Thread(
            target=lambda: got.append(b.recv(timeout=30.0))
        )
        reader.start()
        sent = a.send(arr)
        reader.join(timeout=30.0)
        assert not reader.is_alive()
        (value, received), = got
        assert sent == received > arr.nbytes
        np.testing.assert_array_equal(value, arr)

    def test_zero_size_array_keeps_stream_in_sync(self, channels):
        a, b = channels
        a.send(np.zeros(0, dtype=np.float64))
        a.send("next message")
        first, _ = b.recv(timeout=5.0)
        second, _ = b.recv(timeout=5.0)
        assert first.size == 0
        assert second == "next message"

    def test_version_mismatch_on_pipe(self, channels):
        a, b = channels
        blob = io.BytesIO()
        write_stream(blob.write, "hello")
        raw = bytearray(blob.getvalue())
        raw[4:6] = struct.pack("<H", WIRE_VERSION + 1)
        a._sock.sendall(raw)
        with pytest.raises(WireVersionError):
            b.recv(timeout=5.0)

    def test_real_multiprocessing_pipe(self, channels):
        # the far end lives in a forked process, as a pool worker's does
        a, b = channels
        child = get_context("fork").Process(
            target=_echo_doubled, args=(b._sock, a._sock)
        )
        child.start()
        try:
            payload = [np.arange(5, dtype=np.int16), {"ok": True}]
            a.send(payload)
            got, _n = a.recv(timeout=10.0)
            np.testing.assert_array_equal(got[0], payload[0] * 2)
            assert got[1] == {"ok": True}
        finally:
            child.join(timeout=10.0)
        assert child.exitcode == 0

    def test_send_after_timed_recv_is_blocking(self, channels):
        """Regression: ``send`` used to run under whatever timeout the
        previous bounded ``recv`` left on the socket, so a large frame
        to a briefly busy peer died mid-frame with ``TimeoutError``."""
        a, b = channels
        with pytest.raises(PeerTimeout):
            a.recv(timeout=0.01)
        arr = np.zeros(4 << 20, dtype=np.float64)  # 32 MB
        got = []

        def busy_then_read():
            time.sleep(0.3)
            got.append(b.recv(timeout=30.0))

        reader = threading.Thread(target=busy_then_read)
        reader.start()
        try:
            sent = a.send(arr)
        finally:
            reader.join(timeout=30.0)
        assert not reader.is_alive()
        (value, received), = got
        assert received == sent
        assert value.shape == arr.shape


def _echo_doubled(sock, parent_end):
    parent_end.close()
    chan = Channel(sock)
    (arr, flags), _n = chan.recv(timeout=10.0)
    chan.send([arr * 2, flags])
    chan.close()
