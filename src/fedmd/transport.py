"""Message codec and the one channel: length-prefixed frames over a stream socket.

Frame layout (golden-byte tested):

    u32 BE   payload length (bytes after this prefix), max 2**31 - 1
    u8       message tag
    u32 BE   protocol version (currently 1; mismatch is a hard error)
    u32 BE   round number
    ...      tag-specific body

Bodies, by tag:

    0x01 ScoreReport        u32 BE party | u32 BE rows | u32 BE cols | rows*cols f32 LE row-major
    0x02 ConsensusBroadcast u32 BE rows  | u32 BE cols | rows*cols f32 LE row-major
    0x03 SubsetAnnouncement u32 BE count | count * u32 BE indices
    0x04 RoundComplete      (empty)

Integers travel big-endian (network order); float payloads travel little-endian.
This text is the spec. The code's one copy of it is ``_HEAD`` for the header
and ``LAYOUT`` for the bodies, one row per kind; ``encode_message`` and
``decode_message`` both read them. perfbench's output checks parse frames from
this text on their own.
``TcpChannel`` is the only channel. The in-process bus (``bus_pair``) is one
``socket.socketpair()``, and a networked run (``serve``, ``connect``) is a TCP
connection; both move the same frames through the same send, recv and close.
"""

import math
import socket
import struct
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ChannelError, CodecError

PROTOCOL_VERSION = 1
MAX_PAYLOAD = 2**31 - 1
DEFAULT_TIMEOUT = 300.0
RECV_CHUNK = 64 * 1024  # the most one ``recv`` asks for: a read allocates what arrives, not what is declared


class _Message:
    """Equal to a message of its kind with equal fields; arrays need equal shapes and values, NaN equal to NaN."""

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(vars(self).values(), vars(other).values())
        )


@dataclass(frozen=True, eq=False)
class ScoreReport(_Message):
    round: int
    party: int
    scores: np.ndarray  # [rows, cols] float32


@dataclass(frozen=True, eq=False)
class ConsensusBroadcast(_Message):
    round: int
    targets: np.ndarray  # [rows, cols] float32


@dataclass(frozen=True, eq=False)
class SubsetAnnouncement(_Message):
    round: int
    indices: np.ndarray  # [count] non-negative ints


@dataclass(frozen=True, eq=False)
class RoundComplete(_Message):
    round: int


class Layout(NamedTuple):
    """One kind's frame after the round: its ``header`` u32s, then its ``array`` as ``dims`` u32s and the values.

    A message is ``kind(round, *header, array)``. Its array is ``dtype`` in
    memory and ``wire`` on the wire.
    """

    tag: int
    header: tuple[str, ...]
    array: "str | None"
    dims: int
    wire: "np.dtype | None"
    dtype: "type | None"


LAYOUT = {
    ScoreReport: Layout(0x01, ("party",), "scores", 2, np.dtype("<f4"), np.float32),
    ConsensusBroadcast: Layout(0x02, (), "targets", 2, np.dtype("<f4"), np.float32),
    SubsetAnnouncement: Layout(0x03, (), "indices", 1, np.dtype(">u4"), np.int64),
    RoundComplete: Layout(0x04, (), None, 0, None, None),
}
_KINDS = {layout.tag: kind for kind, layout in LAYOUT.items()}
_HEAD = struct.Struct(">IBII")  # length prefix, tag, version, round


def encode_message(msg) -> bytes:
    """Serialize one message into a complete frame, length prefix included.

    A payload over ``MAX_PAYLOAD`` is refused from its computed length, before its bytes are built.
    """
    layout = LAYOUT.get(type(msg))
    if layout is None:
        raise CodecError(f"cannot encode {type(msg).__name__}")
    ints = [getattr(msg, name) for name in layout.header]
    arr = None
    if layout.array is not None:
        arr = np.asarray(getattr(msg, layout.array))  # as given: a conversion could allocate the whole array
        if arr.ndim != layout.dims:
            raise CodecError(f"{layout.array} must be {layout.dims}-d, got shape {arr.shape}")
        ints += arr.shape
    length = _HEAD.size - 4 + 4 * len(ints) + (0 if arr is None else arr.size * layout.wire.itemsize)
    if length > MAX_PAYLOAD:
        raise CodecError(f"payload of {length} bytes exceeds {MAX_PAYLOAD}")
    if arr is not None and layout.wire.kind == "u" and arr.size and (arr.min() < 0 or arr.max() >= 2**32):
        raise CodecError(f"{layout.array} must fit in u32")
    try:
        head = _HEAD.pack(length, layout.tag, PROTOCOL_VERSION, msg.round) + struct.pack(f">{len(ints)}I", *ints)
    except struct.error:
        raise CodecError(f"round {msg.round} or {type(msg).__name__} fields {ints} do not fit in u32") from None
    return head if arr is None else head + arr.astype(layout.wire, copy=False).tobytes()


def decode_message(data: bytes):
    """Inverse of encode_message for exactly one complete frame."""
    if len(data) < 4:
        raise CodecError("truncated length prefix", len(data))
    declared = struct.unpack_from(">I", data, 0)[0]
    if declared > MAX_PAYLOAD:
        raise CodecError(f"declared payload of {declared} bytes exceeds {MAX_PAYLOAD}", 0)
    if len(data) - 4 < declared:
        raise CodecError(
            f"frame declares {declared} payload bytes but {len(data) - 4} are present", len(data)
        )
    if len(data) - 4 > declared:
        raise CodecError("trailing bytes after frame", 4 + declared)
    if len(data) < _HEAD.size:
        raise CodecError("truncated header", len(data))
    _, tag, version, rnd = _HEAD.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise CodecError(f"protocol version {version}, expected {PROTOCOL_VERSION}", 5)
    if tag not in _KINDS:
        raise CodecError(f"unknown tag 0x{tag:02x}", 4)
    kind = _KINDS[tag]
    layout = LAYOUT[kind]
    n = len(layout.header) + layout.dims
    pos = _HEAD.size + 4 * n
    if len(data) < pos:
        raise CodecError(f"truncated {kind.__name__} header", len(data))
    ints = struct.unpack_from(f">{n}I", data, _HEAD.size)
    header, shape = ints[: len(layout.header)], ints[len(layout.header) :]
    count = math.prod(shape)
    body = count * layout.wire.itemsize if layout.array else 0
    if len(data) - pos != body:
        raise CodecError(f"{kind.__name__} of shape {shape} needs {body} bytes, got {len(data) - pos}", pos)
    if layout.array is None:
        return kind(rnd, *header)
    arr = np.frombuffer(data, layout.wire, count, pos).reshape(shape).astype(layout.dtype)
    return kind(rnd, *header, arr)


# --- channels -----------------------------------------------------------------


class TcpChannel:
    """One end of a stream socket, a TCP connection or a socketpair, moving length-prefixed frames.

    An end is sent on from one thread at a time (sends are not locked); one
    other thread may receive on it meanwhile.
    """

    def __init__(self, sock: socket.socket, timeout: float):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._timeout = timeout
        self._closed = False

    def send(self, msg) -> None:
        if self._closed:
            raise ChannelError("channel is closed")
        frame = encode_message(msg)
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ChannelError(f"send failed: {exc}") from exc

    def _read_exact(self, count: int, between_frames: bool = False) -> bytes:
        """``count`` bytes; a close, or a reset, before the first of them ``between_frames`` reads as a closed peer."""
        chunks = []
        remaining = count
        while remaining:
            at_start = between_frames and remaining == count
            try:
                chunk = self._sock.recv(min(remaining, RECV_CHUNK))
            except socket.timeout:
                raise ChannelError(f"recv timed out after {self._timeout}s") from None
            except ConnectionResetError as exc:
                raise ChannelError("peer closed the channel" if at_start else f"recv failed: {exc}") from exc
            except OSError as exc:
                raise ChannelError(f"recv failed: {exc}") from exc
            if not chunk:
                raise ChannelError("peer closed the channel" if at_start else "connection closed mid-message")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self):
        if self._closed:
            raise ChannelError("channel is closed")
        prefix = self._read_exact(4, between_frames=True)
        declared = struct.unpack(">I", prefix)[0]
        if declared > MAX_PAYLOAD:
            raise CodecError(f"declared payload of {declared} bytes exceeds {MAX_PAYLOAD}", 0)
        payload = self._read_exact(declared)
        return decode_message(prefix + payload)

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# Only for perfbench's tracer, which wraps ``send`` and ``recv`` under this name and under
# ``TcpChannel``. It holds the same two functions, so each is wrapped once; a class alias
# would have the tracer wrap its own wrapper and count every frame twice.
BusChannel = SimpleNamespace(send=TcpChannel.send, recv=TcpChannel.recv)


def bus_pair(timeout: float = DEFAULT_TIMEOUT) -> tuple[TcpChannel, TcpChannel]:
    """The two connected ends of one in-process ``socket.socketpair()``.

    They are the ``TcpChannel`` of a networked run, so the in-process bus moves
    the same frames through the same code. A socketpair buffers little, so a
    send may block until the peer reads.
    """
    a, b = socket.socketpair()
    return TcpChannel(a, timeout), TcpChannel(b, timeout)


class TcpListener:
    def __init__(self, sock: socket.socket, timeout: float):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._timeout = timeout

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def accept(self) -> TcpChannel:
        try:
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise ChannelError("accept timed out") from None
        except OSError as exc:
            raise ChannelError(f"accept failed: {exc}") from exc
        return TcpChannel(conn, self._timeout)

    def close(self) -> None:
        self._sock.close()


def serve(addr: tuple[str, int], backlog: int = 16, timeout: float = DEFAULT_TIMEOUT) -> TcpListener:
    """Bind and listen; ``backlog`` must hold every connect() made before the first accept()."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(addr)
        sock.listen(backlog)
    except OSError as exc:
        sock.close()
        raise OSError(f"cannot listen on {addr[0]}:{addr[1]}: {exc}") from exc
    return TcpListener(sock, timeout)


def connect(addr: tuple[str, int], timeout: float = DEFAULT_TIMEOUT) -> TcpChannel:
    """Connect to a server, retrying a refused connection until ``timeout`` has passed.

    A party process may start before its server listens, so a refusal only
    means the server is not up yet.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection(addr, timeout=timeout)
            break
        except ConnectionRefusedError as exc:
            if time.monotonic() >= deadline:
                raise ChannelError(f"connect to {addr} failed: {exc}") from exc
            time.sleep(0.05)
        except OSError as exc:
            raise ChannelError(f"connect to {addr} failed: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(sock, timeout)
