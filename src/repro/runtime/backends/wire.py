"""``repro.wire/1`` — the framed message protocol of the runtime.

One message = one header frame + N raw buffer frames.  The header
frame is a pickle (protocol 5) of the Python object with every
contiguous NumPy array (and anything else exposing the
:class:`pickle.PickleBuffer` protocol) hoisted *out-of-band*: the
pickle stream holds only a placeholder, and the array's bytes travel
as their own raw frame, never copied through the pickler.  Decoding
hands the frames back to :func:`pickle.loads` via ``buffers=``, so
arrays are rebuilt directly from the received frames.

On the wire (:func:`write_stream` / :func:`read_stream`) the frames are
prefixed with a fixed header — magic, protocol version, frame count,
per-frame lengths — so the peer can pre-check the version before
trusting a byte of payload (the coordinator/agent handshake rejects a
mismatched peer with :class:`WireVersionError`).  This is the only
framing: every peer of every pool speaks it over a connected stream
socket (:class:`repro.runtime.backends.supervised.Channel`).

Both helpers return the byte count moved, so pools can account
``bytes_sent`` / ``bytes_recv`` in tracers and reports.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Callable, List, Sequence, Tuple, Union

#: 4-byte magic opening every stream message
WIRE_MAGIC = b"RPW\x01"
#: protocol version (bump on any incompatible framing change)
WIRE_VERSION = 1
#: schema identifier (documentation / handshake payloads)
WIRE_SCHEMA = "repro.wire/1"

#: pickle protocol carrying the header frame (5 = out-of-band buffers)
PICKLE_PROTOCOL = 5

#: ``<magic><u16 version><u32 nframes>``
_HEAD = struct.Struct("<4sHI")
#: one ``u64`` length per frame
_LEN = struct.Struct("<Q")

#: hard cap on frames per message (a malformed peer cannot make the
#: reader allocate an unbounded length table)
MAX_FRAMES = 1 << 20

Frame = Union[bytes, memoryview]


class WireError(RuntimeError):
    """Malformed ``repro.wire/1`` traffic (bad magic, bad framing)."""


class WireVersionError(WireError):
    """The peer speaks a different wire protocol version."""

    def __init__(self, theirs: int, ours: int = WIRE_VERSION) -> None:
        self.theirs = theirs
        self.ours = ours
        super().__init__(
            f"wire protocol version mismatch: peer speaks {theirs}, "
            f"this end speaks {ours} ({WIRE_SCHEMA})"
        )


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------


def to_frames(obj: Any) -> List[Frame]:
    """Encode ``obj`` as ``[header frame, *raw buffer frames]``.

    Contiguous NumPy arrays inside ``obj`` become raw frames
    (zero-copy ``memoryview``s of the array data); non-contiguous
    arrays and ordinary objects stay in the header pickle.
    """
    buffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(
        obj, protocol=PICKLE_PROTOCOL, buffer_callback=buffers.append
    )
    frames: List[Frame] = [head]
    for buf in buffers:
        try:
            frames.append(buf.raw())
        except BufferError:  # pragma: no cover - non-C-contiguous buffer
            frames.append(memoryview(buf).tobytes())
    return frames


def from_frames(frames: Sequence[Frame]) -> Any:
    """Decode a message produced by :func:`to_frames`."""
    if not frames:
        raise WireError("empty wire message (no header frame)")
    return pickle.loads(frames[0], buffers=frames[1:])


def frames_nbytes(frames: Sequence[Frame]) -> int:
    """Total payload bytes across ``frames``."""
    return sum(len(frame) for frame in frames)


# ----------------------------------------------------------------------
# stream framing
# ----------------------------------------------------------------------


def encode_stream(obj: Any) -> Tuple[List[Frame], int]:
    """Frames plus the full on-the-wire byte count (header included)."""
    frames = to_frames(obj)
    total = (
        _HEAD.size
        + _LEN.size * len(frames)
        + frames_nbytes(frames)
    )
    return frames, total


def write_stream(write: Callable[[Frame], None], obj: Any) -> int:
    """Write one message through ``write`` (e.g. ``socket.sendall``).

    Returns the number of bytes written.
    """
    frames, total = encode_stream(obj)
    head = bytearray(_HEAD.pack(WIRE_MAGIC, WIRE_VERSION, len(frames)))
    for frame in frames:
        head += _LEN.pack(len(frame))
    write(bytes(head))
    for frame in frames:
        write(frame)
    return total


def read_stream(read_exact: Callable[[int], bytes]) -> Tuple[Any, int]:
    """Read one message via ``read_exact(n) -> n bytes``.

    Returns ``(object, bytes_read)``.  Raises :class:`WireError` on a
    bad magic and :class:`WireVersionError` on a version mismatch —
    both *before* any payload byte is consumed, so a handshake can
    reject a peer cheaply.
    """
    head = read_exact(_HEAD.size)
    magic, version, n_frames = _HEAD.unpack(head)
    if magic != WIRE_MAGIC:
        raise WireError(
            f"bad wire magic {magic!r} (not a {WIRE_SCHEMA} peer)"
        )
    if version != WIRE_VERSION:
        raise WireVersionError(version)
    if n_frames < 1 or n_frames > MAX_FRAMES:
        raise WireError(f"unreasonable wire frame count {n_frames}")
    lengths = [
        _LEN.unpack(read_exact(_LEN.size))[0] for _ in range(n_frames)
    ]
    frames: List[Frame] = [read_exact(length) for length in lengths]
    total = _HEAD.size + _LEN.size * n_frames + frames_nbytes(frames)
    return from_frames(frames), total
