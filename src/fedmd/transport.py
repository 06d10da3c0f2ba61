"""Message codec and the one channel: length-prefixed frames over a stream socket.

Frame layout (golden-byte tested):

    u32 BE   payload length (bytes after this prefix), max 2**31 - 1
    u8       message tag
    u32 BE   protocol version (currently 1; mismatch is a hard error)
    u32 BE   round number
    ...      tag-specific body

Bodies:

    ScoreReport        u32 BE party | u32 BE rows | u32 BE cols | rows*cols f32 LE row-major
    ConsensusBroadcast u32 BE rows  | u32 BE cols | rows*cols f32 LE row-major
    SubsetAnnouncement u32 BE count | count * u32 BE indices
    RoundComplete      (empty)

Integers travel big-endian (network order); float payloads travel little-endian.
``TcpChannel`` is the only channel. The in-process bus (``bus_pair``) is one
``socket.socketpair()``, and a networked run (``serve``, ``connect``) is a TCP
connection; both move the same frames through the same send, recv and close.
"""

import socket
import struct
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ChannelError, CodecError

PROTOCOL_VERSION = 1
MAX_PAYLOAD = 2**31 - 1
DEFAULT_TIMEOUT = 300.0

TAG_SCORE_REPORT = 0x01
TAG_CONSENSUS = 0x02
TAG_SUBSET = 0x03
TAG_ROUND_COMPLETE = 0x04


@dataclass(frozen=True, eq=False)
class ScoreReport:
    round: int
    party: int
    scores: np.ndarray  # [rows, cols] float32

    def __eq__(self, other):
        return (
            isinstance(other, ScoreReport)
            and self.round == other.round
            and self.party == other.party
            and self.scores.shape == other.scores.shape
            and np.array_equal(self.scores, other.scores, equal_nan=True)
        )


@dataclass(frozen=True, eq=False)
class ConsensusBroadcast:
    round: int
    targets: np.ndarray  # [rows, cols] float32

    def __eq__(self, other):
        return (
            isinstance(other, ConsensusBroadcast)
            and self.round == other.round
            and self.targets.shape == other.targets.shape
            and np.array_equal(self.targets, other.targets, equal_nan=True)
        )


@dataclass(frozen=True, eq=False)
class SubsetAnnouncement:
    round: int
    indices: np.ndarray  # [count] non-negative ints

    def __eq__(self, other):
        return (
            isinstance(other, SubsetAnnouncement)
            and self.round == other.round
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class RoundComplete:
    round: int


def _u32(value: int, what: str) -> bytes:
    if not 0 <= value < 2**32:
        raise CodecError(f"{what} {value} does not fit in u32")
    return struct.pack(">I", value)


def _matrix_bytes(arr: np.ndarray) -> bytes:
    if arr.ndim != 2:
        raise CodecError(f"matrix payload must be 2-d, got shape {arr.shape}")
    rows, cols = arr.shape
    return _u32(rows, "rows") + _u32(cols, "cols") + np.ascontiguousarray(arr, "<f4").tobytes()


def encode_message(msg) -> bytes:
    """Serialize one message into a complete frame, length prefix included."""
    if isinstance(msg, ScoreReport):
        body = _u32(msg.party, "party") + _matrix_bytes(msg.scores)
        tag = TAG_SCORE_REPORT
    elif isinstance(msg, ConsensusBroadcast):
        body = _matrix_bytes(msg.targets)
        tag = TAG_CONSENSUS
    elif isinstance(msg, SubsetAnnouncement):
        idx = np.asarray(msg.indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= 2**32):
            raise CodecError("subset indices must fit in u32")
        body = _u32(len(idx), "count") + idx.astype(">u4").tobytes()
        tag = TAG_SUBSET
    elif isinstance(msg, RoundComplete):
        body = b""
        tag = TAG_ROUND_COMPLETE
    else:
        raise CodecError(f"cannot encode {type(msg).__name__}")
    payload = struct.pack(">BI", tag, PROTOCOL_VERSION) + _u32(msg.round, "round") + body
    if len(payload) > MAX_PAYLOAD:
        raise CodecError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return struct.pack(">I", len(payload)) + payload


class _Reader:
    """Bounds-checked cursor over one frame; never reads past the declared length."""

    def __init__(self, data: bytes, start: int, end: int):
        self.data = data
        self.pos = start
        self.end = end

    def u8(self, what: str) -> int:
        if self.pos + 1 > self.end:
            raise CodecError(f"truncated {what}", self.pos)
        v = self.data[self.pos]
        self.pos += 1
        return v

    def u32(self, what: str) -> int:
        if self.pos + 4 > self.end:
            raise CodecError(f"truncated {what}", self.pos)
        v = struct.unpack_from(">I", self.data, self.pos)[0]
        self.pos += 4
        return v

    def raw(self, count: int, what: str) -> bytes:
        if self.pos + count > self.end:
            raise CodecError(f"truncated {what}: need {count} bytes", self.pos)
        v = self.data[self.pos : self.pos + count]
        self.pos += count
        return v

    def done(self) -> None:
        if self.pos != self.end:
            raise CodecError(f"{self.end - self.pos} unconsumed payload bytes", self.pos)


def _decode_payload(data: bytes, start: int, end: int):
    r = _Reader(data, start, end)
    tag = r.u8("tag")
    version = r.u32("version")
    if version != PROTOCOL_VERSION:
        raise CodecError(f"protocol version {version}, expected {PROTOCOL_VERSION}", start + 1)
    rnd = r.u32("round")
    if tag == TAG_SCORE_REPORT:
        party = r.u32("party")
        rows, cols = r.u32("rows"), r.u32("cols")
        raw = r.raw(rows * cols * 4, "score matrix")
        r.done()
        scores = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float32)
        return ScoreReport(rnd, party, scores)
    if tag == TAG_CONSENSUS:
        rows, cols = r.u32("rows"), r.u32("cols")
        raw = r.raw(rows * cols * 4, "consensus matrix")
        r.done()
        targets = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float32)
        return ConsensusBroadcast(rnd, targets)
    if tag == TAG_SUBSET:
        count = r.u32("count")
        raw = r.raw(count * 4, "indices")
        r.done()
        indices = np.frombuffer(raw, dtype=">u4").astype(np.int64)
        return SubsetAnnouncement(rnd, indices)
    if tag == TAG_ROUND_COMPLETE:
        r.done()
        return RoundComplete(rnd)
    raise CodecError(f"unknown tag 0x{tag:02x}", start)


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
    return _decode_payload(data, 4, 4 + declared)


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
                chunk = self._sock.recv(remaining)
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
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(addr)
    sock.listen(backlog)
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
