"""Wire-format and channel tests: golden bytes, round-trips, fuzz, ordering."""

import socket
import threading
import time

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
        scores=st.tuples(st.integers(0, 8), st.integers(1, 8), st.integers(0, 10**6)).map(
            lambda t: matrix(t[0], t[1], t[2])
        ),
    ),
    st.builds(
        ConsensusBroadcast,
        round=st.integers(0, 2**32 - 1),
        targets=st.tuples(st.integers(0, 8), st.integers(1, 8), st.integers(0, 10**6)).map(
            lambda t: matrix(t[0], t[1], t[2])
        ),
    ),
)


@given(message_strategy)
@settings(max_examples=200, deadline=None)
def test_encode_decode_round_trip(msg):
    assert decode_message(encode_message(msg)) == msg


def test_empty_score_matrix_round_trips():
    msg = ScoreReport(0, 4, np.zeros((0, 6), dtype=np.float32))
    back = decode_message(encode_message(msg))
    assert back == msg
    assert back.scores.shape == (0, 6)


# --- decoder robustness ---------------------------------------------------------------


def test_decode_truncated_frame_errors():
    frame = encode_message(RoundComplete(5))
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_message(frame[:cut])


def test_decode_overdeclared_length():
    with pytest.raises(CodecError, match="declares"):
        decode_message(bytes.fromhex("000000ff" "04" "00000001"))


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


# --- channels ---------------------------------------------------------------------


def test_bus_send_recv_equality():
    a, b = bus_pair()
    msg = ScoreReport(2, 1, matrix(3, 4, seed=5))
    a.send(msg)
    assert b.recv() == msg
    b.send(RoundComplete(2))
    assert a.recv() == RoundComplete(2)


def test_bus_preserves_order_of_1000_messages():
    a, b = bus_pair()
    for i in range(1000):
        a.send(RoundComplete(i))
    received = [b.recv().round for _ in range(1000)]
    assert received == list(range(1000))


def test_bus_close_surfaces_channel_error():
    a, b = bus_pair()
    a.close()
    with pytest.raises(ChannelError):
        b.recv()


def test_tcp_send_recv_equality():
    listener = serve(("127.0.0.1", 0), timeout=10)
    result = {}

    def server_side():
        chan = listener.accept()
        result["msg"] = chan.recv()
        chan.send(RoundComplete(9))
        chan.close()

    t = threading.Thread(target=server_side)
    t.start()
    client = connect(listener.address, timeout=10)
    msg = ConsensusBroadcast(4, matrix(5, 3, seed=8))
    client.send(msg)
    assert client.recv() == RoundComplete(9)
    t.join()
    client.close()
    listener.close()
    assert result["msg"] == msg


def test_tcp_preserves_order_of_1000_messages():
    listener = serve(("127.0.0.1", 0), timeout=10)
    received = []

    def server_side():
        chan = listener.accept()
        for _ in range(1000):
            received.append(chan.recv().round)
        chan.close()

    t = threading.Thread(target=server_side)
    t.start()
    client = connect(listener.address, timeout=10)
    for i in range(1000):
        client.send(SubsetAnnouncement(i, np.array([i])))
    t.join()
    client.close()
    listener.close()
    assert received == list(range(1000))


def test_tcp_connection_loss_surfaces_channel_error():
    listener = serve(("127.0.0.1", 0), timeout=10)

    def server_side():
        chan = listener.accept()
        chan.close()

    t = threading.Thread(target=server_side)
    t.start()
    client = connect(listener.address, timeout=10)
    t.join()
    with pytest.raises(ChannelError):
        client.recv()
    client.close()
    listener.close()


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


def test_encode_rejects_oversized_declarations():
    with pytest.raises(CodecError):
        encode_message(RoundComplete(2**32))
    with pytest.raises(CodecError):
        encode_message(SubsetAnnouncement(0, np.array([-1])))
