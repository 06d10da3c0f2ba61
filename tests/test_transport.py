"""Wire-format and channel tests: golden bytes, round-trips, fuzz, ordering."""

import re
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmd import transport
from fedmd.errors import ChannelError, CodecError
from fedmd.transport import (
    ConsensusBroadcast,
    RoundComplete,
    ScoreReport,
    SubsetAnnouncement,
    bus_pair,
    connect,
    decode_message,
    encode_message,
    serve,
)

from channel_util import loopback_pair


def matrix(rows, cols, seed=0):
    return np.random.default_rng(seed).normal(size=(rows, cols)).astype(np.float32)


# --- golden bytes -------------------------------------------------------------------


def test_round_complete_golden_bytes():
    frame = encode_message(RoundComplete(0))
    # 9 payload bytes beyond the length prefix: tag, version, round
    assert frame == bytes.fromhex("00000009" "04" "00000001" "00000000")
    assert len(frame) - 4 == 9


def test_score_report_golden_bytes():
    scores = np.array([[1.5, 2.5]], dtype=np.float32)
    frame = encode_message(ScoreReport(round=3, party=7, scores=scores))
    expected = bytes.fromhex(
        "0000001d"  # 29 payload bytes
        "01"  # tag
        "00000001"  # version
        "00000003"  # round (big-endian)
        "00000007"  # party
        "00000001"  # rows
        "00000002"  # cols
        "0000c03f"  # 1.5 little-endian float32
        "00002040"  # 2.5 little-endian float32
    )
    assert frame == expected


def test_consensus_broadcast_golden_bytes():
    frame = encode_message(ConsensusBroadcast(2, np.array([[1.5], [-2.0]], dtype=np.float32)))
    expected = bytes.fromhex(
        "00000019"  # 25 payload bytes
        "02"  # tag
        "00000001"  # version
        "00000002"  # round
        "00000002"  # rows
        "00000001"  # cols
        "0000c03f"  # 1.5 little-endian float32
        "000000c0"  # -2.0 little-endian float32
    )
    assert frame == expected


def test_subset_announcement_golden_bytes():
    frame = encode_message(SubsetAnnouncement(round=1, indices=np.array([0, 65536])))
    expected = bytes.fromhex(
        "00000015" "03" "00000001" "00000001" "00000002" "00000000" "00010000"
    )
    assert frame == expected


# --- round trips --------------------------------------------------------------------


message_strategy = st.one_of(
    st.builds(RoundComplete, round=st.integers(0, 2**32 - 1)),
    st.builds(
        SubsetAnnouncement,
        round=st.integers(0, 2**32 - 1),
        indices=st.lists(st.integers(0, 2**32 - 1), max_size=32).map(
            lambda v: np.array(v, dtype=np.int64)
        ),
    ),
    st.builds(
        ScoreReport,
        round=st.integers(0, 2**32 - 1),
        party=st.integers(0, 2**32 - 1),
        scores=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 10**6)).map(
            lambda t: matrix(t[0], t[1], t[2])
        ),
    ),
    st.builds(
        ConsensusBroadcast,
        round=st.integers(0, 2**32 - 1),
        targets=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 10**6)).map(
            lambda t: matrix(t[0], t[1], t[2])
        ),
    ),
)


@given(message_strategy)
@settings(max_examples=200, deadline=None)
def test_encode_decode_round_trip(msg):
    assert decode_message(encode_message(msg)) == msg


def test_arrays_of_another_dtype_encode_as_their_memory_dtype_twins():
    indices, scores = np.array([0, 7, 65536]), matrix(3, 4)
    int32_subset = SubsetAnnouncement(2, indices.astype(np.int32))
    assert encode_message(int32_subset) == encode_message(SubsetAnnouncement(2, indices.astype(np.int64)))
    float64_scores = ScoreReport(2, 1, scores.astype(np.float64))
    assert encode_message(float64_scores) == encode_message(ScoreReport(2, 1, scores))


def test_empty_score_matrix_round_trips():
    msg = ScoreReport(0, 4, np.zeros((0, 6), dtype=np.float32))
    back = decode_message(encode_message(msg))
    assert back == msg
    assert back.scores.shape == (0, 6)


# --- equality ---------------------------------------------------------------------


def test_a_score_report_holding_nan_equals_its_round_trip():
    scores = matrix(2, 3)
    scores[1, 2] = np.nan
    msg = ScoreReport(1, 0, scores)
    assert decode_message(encode_message(msg)) == msg


@pytest.mark.parametrize(
    "a, b",
    [
        (ScoreReport(0, 4, np.zeros((0, 6), np.float32)), ScoreReport(0, 4, np.zeros((0, 5), np.float32))),
        (SubsetAnnouncement(1, np.array([3, 4])), SubsetAnnouncement(2, np.array([3, 4]))),
        (ScoreReport(1, 0, matrix(2, 3)), ConsensusBroadcast(1, matrix(2, 3))),
        (RoundComplete(1), SubsetAnnouncement(1, np.array([], np.int64))),
    ],
    ids=["empty-scores-of-other-widths", "subset-of-another-round", "other-kind", "other-kind-same-round"],
)
def test_messages_that_differ_are_unequal(a, b):
    assert a != b and b != a
    assert a == a and b == b


# --- decoder robustness ---------------------------------------------------------------


@pytest.mark.parametrize(
    "msg",
    [
        ScoreReport(3, 1, matrix(2, 3)),
        ConsensusBroadcast(4, matrix(2, 3, seed=1)),
        SubsetAnnouncement(5, np.array([0, 7, 2**32 - 1])),
        RoundComplete(5),
    ],
    ids=["score-report", "consensus", "subset", "round-complete"],
)
def test_decode_truncated_frame_errors(msg):
    frame = encode_message(msg)
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_message(frame[:cut])
        if cut >= 4:  # the same cut, declared by its prefix, reaches the header and body checks
            with pytest.raises(CodecError):
                decode_message(struct.pack(">I", cut - 4) + frame[4:cut])


def test_decode_overdeclared_length():
    with pytest.raises(CodecError, match="declares"):
        decode_message(bytes.fromhex("000000ff" "04" "00000001"))


def test_decode_oversize_declaration():
    with pytest.raises(CodecError, match="exceeds"):
        decode_message(bytes.fromhex("80000000"))


def test_decode_unknown_tag():
    frame = bytearray(encode_message(RoundComplete(1)))
    frame[4] = 0xFF
    with pytest.raises(CodecError, match="unknown tag"):
        decode_message(bytes(frame))


def test_decode_version_mismatch():
    frame = bytearray(encode_message(RoundComplete(1)))
    frame[8] = 9  # last byte of the version u32
    with pytest.raises(CodecError, match="version"):
        decode_message(bytes(frame))


def test_decode_shape_inconsistency():
    frame = bytearray(encode_message(ScoreReport(0, 0, matrix(2, 2))))
    frame[20] = 3  # claim 3 rows, payload holds 2x2 floats
    with pytest.raises(CodecError):
        decode_message(bytes(frame))


def test_decode_body_longer_than_its_shape():
    frame = bytearray(encode_message(ScoreReport(0, 0, matrix(2, 2))))
    frame[20] = 1  # claim 1 row, payload holds 2x2 floats
    with pytest.raises(CodecError):
        decode_message(bytes(frame))


def test_decode_trailing_bytes():
    with pytest.raises(CodecError, match="trailing"):
        decode_message(encode_message(RoundComplete(1)) + b"x")


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decoder_is_total(data):
    try:
        decode_message(data)
    except CodecError:
        pass  # structured rejection is the only acceptable failure


# each check of decode_message after the length prefix, as its message starts
DECODE_CHECKS = {
    "truncated header": r"^truncated header",
    "version": r"^protocol version",
    "unknown tag": r"^unknown tag",
    "truncated kind header": r"^truncated [A-Z]\w+ header",
    "body length": r"^\w+ of shape .* needs \d+ bytes",
}


def mutated_frame(frame: bytes, rng) -> bytes:
    """``frame`` with bytes flipped, truncated or appended after its prefix, which is rewritten to match."""
    payload = bytearray(frame[4:])
    op = int(rng.integers(3))
    if op == 0:
        for _ in range(int(rng.integers(1, 4))):
            payload[int(rng.integers(len(payload)))] = int(rng.integers(256))
    elif op == 1:
        del payload[int(rng.integers(len(payload))) :]
    else:
        payload += rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    return struct.pack(">I", len(payload)) + bytes(payload)


def test_fuzz_decoder_never_crashes():
    rng = np.random.default_rng(99)
    survived = 0
    for _ in range(20_000):
        n = int(rng.integers(0, 64))
        blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        try:
            decode_message(blob)
        except CodecError:
            pass
        survived += 1
    assert survived == 20_000

    # random bytes almost never pass the length prefix; mutations of real frames reach every later check
    frames = [
        encode_message(msg)
        for msg in (
            ScoreReport(3, 1, matrix(2, 3)),
            ConsensusBroadcast(4, matrix(2, 3, seed=1)),
            SubsetAnnouncement(5, np.array([0, 7, 2**32 - 1])),
            RoundComplete(5),
        )
    ]
    rejected, decoded = dict.fromkeys(DECODE_CHECKS, 0), 0
    for i in range(20_000):
        try:
            decode_message(mutated_frame(frames[i % 4], rng))
            decoded += 1
        except CodecError as exc:
            for check, pattern in DECODE_CHECKS.items():
                rejected[check] += bool(re.match(pattern, str(exc)))
    assert all(rejected.values()), rejected
    assert decoded > 0


# --- channels ---------------------------------------------------------------------


PAIRS = pytest.mark.parametrize("make_pair", [bus_pair, loopback_pair], ids=["bus", "tcp"])


@PAIRS
def test_channel_send_recv_equality(make_pair):
    a, b = make_pair(10)
    try:
        msg = ScoreReport(2, 1, matrix(3, 4, seed=5))
        a.send(msg)
        assert b.recv() == msg
        reply = ConsensusBroadcast(4, matrix(5, 3, seed=8))
        b.send(reply)
        assert a.recv() == reply
    finally:
        a.close()
        b.close()


@PAIRS
def test_channel_preserves_order_of_1000_messages(make_pair):
    # a stream buffers far fewer frames than this, so a thread reads while the sender writes
    a, b = make_pair(10)
    received = []

    def reader():
        for _ in range(1000):
            received.append(b.recv().round)

    t = threading.Thread(target=reader)
    t.start()
    try:
        for i in range(1000):
            a.send(SubsetAnnouncement(i, np.array([i])))
    finally:
        t.join()
        a.close()
        b.close()
    assert received == list(range(1000))


@PAIRS
def test_channel_close_surfaces_channel_error(make_pair):
    a, b = make_pair(10)
    a.close()
    try:
        with pytest.raises(ChannelError, match="^peer closed the channel$"):
            b.recv()
        # an end its own side closed says so, and closing it again is a no-op
        with pytest.raises(ChannelError, match="^channel is closed$"):
            a.send(RoundComplete(0))
        with pytest.raises(ChannelError, match="^channel is closed$"):
            a.recv()
        a.close()
    finally:
        b.close()


@PAIRS
def test_recv_rejects_an_oversize_declaration_without_waiting_for_its_payload(make_pair):
    a, b = make_pair(10)
    try:
        a._sock.sendall(bytes.fromhex("80000000"))
        t0 = time.monotonic()
        with pytest.raises(CodecError, match="exceeds"):
            b.recv()
        assert time.monotonic() - t0 < 1.0
    finally:
        a.close()
        b.close()


def test_recv_of_a_large_declaration_allocates_only_what_arrives():
    a, b = bus_pair(timeout=0.2)
    try:
        a._sock.sendall(struct.pack(">I", 2**30) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ChannelError, match=r"^recv timed out after 0\.2s$"):
                b.recv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    finally:
        a.close()
        b.close()


def test_send_to_a_closed_peer_fails_as_a_channel_error():
    a, b = bus_pair(timeout=0.2)
    b.close()
    try:
        with pytest.raises(ChannelError, match=r"^send failed: \[Errno 32\] Broken pipe$"):
            for _ in range(100):
                a.send(ScoreReport(1, 0, matrix(100, 10)))
    finally:
        a.close()


def test_recv_on_an_end_whose_socket_is_closed_fails_as_a_channel_error():
    a, b = bus_pair(timeout=0.2)
    b._sock.close()
    try:
        with pytest.raises(ChannelError, match=r"^recv failed: \[Errno 9\] Bad file descriptor$"):
            b.recv()
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize(
    "cut, message",
    [
        (0, "^peer closed the channel$"),
        (2, "^connection closed mid-message$"),
        (8, "^connection closed mid-message$"),
    ],
    ids=["between-frames", "inside-the-prefix", "inside-the-payload"],
)
def test_peer_close_at_a_frame_boundary_differs_from_a_cut_frame(cut, message):
    raw, sock = socket.socketpair()
    chan = transport.TcpChannel(sock, 5.0)
    try:
        frame = encode_message(RoundComplete(3))
        assert len(frame) == 13  # so the cut of 8 bytes is inside the payload
        raw.sendall(frame + frame[:cut])
        raw.close()
        assert chan.recv() == RoundComplete(3)
        with pytest.raises(ChannelError, match=message):
            chan.recv()
    finally:
        raw.close()
        chan.close()


def unused_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_tcp_connect_waits_for_a_server_that_starts_late():
    port = unused_port()
    result = {}

    def late_server():
        time.sleep(0.3)
        listener = serve(("127.0.0.1", port), timeout=10)
        chan = listener.accept()
        result["msg"] = chan.recv()
        chan.close()
        listener.close()

    t = threading.Thread(target=late_server)
    t.start()
    client = connect(("127.0.0.1", port), timeout=10)
    client.send(RoundComplete(5))
    t.join()
    client.close()
    assert result["msg"] == RoundComplete(5)


def test_tcp_connect_gives_up_at_its_timeout():
    t0 = time.monotonic()
    with pytest.raises(ChannelError, match="refused"):
        connect(("127.0.0.1", unused_port()), timeout=0.3)
    assert time.monotonic() - t0 < 5.0


def test_accept_with_no_client_times_out():
    listener = serve(("127.0.0.1", 0), timeout=0.1)
    try:
        with pytest.raises(ChannelError, match="^accept timed out$"):
            listener.accept()
    finally:
        listener.close()


def test_accept_on_a_closed_listener_fails_as_a_channel_error():
    listener = serve(("127.0.0.1", 0), timeout=0.1)
    listener.close()
    with pytest.raises(ChannelError, match=r"^accept failed: \[Errno 9\] Bad file descriptor$"):
        listener.accept()


def test_connect_fails_without_retrying_on_an_error_other_than_a_refusal():
    # the kernel refuses a link-local address without a scope id before sending anything
    with pytest.raises(ChannelError, match=r"^connect to \('fe80::1', 1\) failed: \[Errno 22\] Invalid argument$"):
        connect(("fe80::1", 1), timeout=0.2)


def test_encode_refuses_an_oversized_payload_before_building_it():
    # zero-stride arrays: gigabytes on the wire, one value in memory, in the memory dtype or in another
    shape = (1 << 16, 1 << 14)
    cases = [
        (ScoreReport(1, 0, np.broadcast_to(np.float32(0), shape)), 9 + 4 * 3 + (1 << 30) * 4),
        (ScoreReport(1, 0, np.broadcast_to(np.float64(0), shape)), 9 + 4 * 3 + (1 << 30) * 4),
        (SubsetAnnouncement(1, np.broadcast_to(np.int32(0), (1 << 30,))), 9 + 4 + (1 << 30) * 4),
    ]  # tag, version and round, then the header and shape fields, then the values
    for msg, length in cases:
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match=rf"^payload of {length} bytes exceeds {transport.MAX_PAYLOAD} "):
                encode_message(msg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_encode_rejects_oversized_declarations():
    with pytest.raises(CodecError):
        encode_message(RoundComplete(2**32))
    with pytest.raises(CodecError):
        encode_message(SubsetAnnouncement(0, np.array([-1])))


@pytest.mark.parametrize(
    "msg",
    [
        ScoreReport(0, 0, np.zeros(3, np.float32)),
        ScoreReport(0, 0, np.zeros((2, 3, 1), np.float32)),
        ScoreReport(2**32, 0, matrix(1, 2)),
        ScoreReport(0, 2**32, matrix(1, 2)),
        SubsetAnnouncement(0, np.array([2**32])),
        RoundComplete(1.5),
    ],
    ids=["1-d-scores", "3-d-scores", "round", "party", "index-2-to-the-32", "fractional-round"],
)
def test_encode_rejects_what_the_wire_cannot_carry(msg):
    with pytest.raises(CodecError):
        encode_message(msg)


def test_encode_rejects_an_object_that_is_no_message():
    with pytest.raises(CodecError, match="cannot encode"):
        encode_message((1, 2))
