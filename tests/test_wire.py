"""Array messages and the frame reader against hostile and odd input.

* :func:`encode_message` / :func:`decode_message` round-trip the closed
  type set exactly as ``pickle`` does (property test), and hand anything
  outside it back to the pickled control frame;
* decoding garbage — truncated, oversized, negative shapes, dtypes that do
  not match their bytes, random mutations of a valid message — ends in
  :class:`ValueError` (``FrameCorruption`` at the channel) or a correct
  message, never in a view that reaches past its segment;
* :func:`read_frame` and the HELLO path refuse oversized and malformed
  frames without allocating what the header claims;
* a channel's receive buffers are reused exactly when nothing references
  them.

Hypothesis runs derandomised with a fixed example budget: the same inputs
on every run, in CI and locally.
"""

import json
import pickle
import socket
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.federated.engine import transport as transport_module
from repro.federated.engine.transport import (
    F_DATA,
    F_HELLO,
    FRAME_OVERHEAD,
    MAX_FRAME_BYTES,
    MAX_HELLO_BYTES,
    FrameCorruption,
    StreamDesync,
    TcpTransport,
    _ReceiveBuffers,
    _send_pieces,
    pack_frame,
    read_frame,
)
from repro.federated.engine.wire import ALIGN, decode_message, encode_message

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

DTYPES = st.sampled_from(["?", "u1", "i2", "<i4", ">i4", "i8", "u8", "f4",
                          "<f8", ">f8", "c16"])


@st.composite
def arrays(draw):
    array = draw(hnp.arrays(
        dtype=draw(DTYPES),
        shape=draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                    max_side=5))))
    if array.ndim and draw(st.booleans()):     # a non-contiguous view
        array = array[..., ::2] if draw(st.booleans()) else array.T
    return array


SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8),
    st.integers(min_value=-2 ** 130, max_value=2 ** 130),   # RNG state words
    st.floats(allow_nan=True, allow_infinity=True))
KEYS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=6),
                 st.booleans(), st.none(),
                 st.tuples(st.integers(0, 9), st.text(max_size=3)))
MESSAGES = st.recursive(
    st.one_of(SCALARS, arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=12)


def _same(a, b) -> bool:
    """Structural equality that tells tuples from lists, ``1`` from
    ``True`` and ``1.0``, and compares arrays by dtype, shape and bytes
    (in native byte order: numpy's unpickling swaps to it, an array
    message keeps the sender's)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        native = a.dtype.newbyteorder("=")
        return (native == b.dtype.newbyteorder("=") and a.shape == b.shape
                and a.astype(native).tobytes() == b.astype(native).tobytes())
    if isinstance(a, dict):
        return (len(a) == len(b)
                and all(_same(ka, kb) and _same(a[ka], b[kb])
                        for ka, kb in zip(a, b)))      # same key order
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and a != a:
        return b != b              # a NaN is a NaN; its payload is not kept
    return a == b


def _joined(message) -> bytearray:
    pieces, nbytes, crc = encode_message(message)
    payload = bytearray().join(bytes(piece) for piece in pieces)
    assert len(payload) == nbytes and zlib.crc32(payload) == crc
    return payload


class TestArrayMessages:
    @FUZZ
    @given(MESSAGES)
    def test_round_trip_equals_the_pickle_round_trip(self, message):
        decoded = decode_message(_joined(message))
        assert _same(decoded, pickle.loads(pickle.dumps(message)))
        assert _same(decoded, message)

    def test_arrays_are_aligned_views_into_the_payload(self):
        message = {"a": np.arange(5, dtype=np.uint8),
                   "b": np.arange(6.0).reshape(2, 3), "c": np.array(1.5)}
        payload = np.frombuffer(_joined(message), dtype=np.uint8)
        decoded = decode_message(payload)
        origin = payload.__array_interface__["data"][0]
        for array in decoded.values():
            assert np.shares_memory(array, payload)
            offset = array.__array_interface__["data"][0] - origin
            assert offset % ALIGN == 0
        decoded["b"][0, 0] = 42.0            # writable, and in place
        assert decode_message(payload)["b"][0, 0] == 42.0

    def test_pieces_are_the_arrays_own_memory(self):
        stack = np.arange(1000, dtype=np.uint64)
        pieces, _nbytes, _crc = encode_message(("ok", {"delta": stack}))
        assert any(isinstance(piece, np.ndarray)
                   and np.shares_memory(piece, stack) for piece in pieces)

    @pytest.mark.parametrize("outsider", [
        b"bytes", {1, 2}, np.float64(1.0), np.int64(3), object(),
        np.array(["text"]), np.array([None], dtype=object), len,
        {"nested": [("deep", bytearray(b"x"))]}],
        ids=lambda value: type(value).__name__)
    def test_anything_else_is_left_to_the_control_frame(self, outsider):
        assert encode_message(("ok", outsider)) is None


def _valid_payload() -> bytearray:
    return _joined(("ok", {"w": np.arange(12.0).reshape(3, 4),
                           "ids": [1, 2, 3], "m": np.ones(3, dtype="?")}))


def _with_head(head, segments: bytes = b"\0" * 256) -> bytes:
    head = json.dumps(head).encode()
    prefix = struct.pack("!I", len(head)) + head
    return prefix + bytes(-len(prefix) % ALIGN) + segments


class TestDecodeHostileInput:
    @FUZZ
    @given(st.binary(max_size=300))
    def test_garbage_is_refused(self, garbage):
        try:
            decode_message(garbage)
        except ValueError:
            pass

    @FUZZ
    @given(st.data())
    def test_mutations_of_a_valid_message(self, data):
        payload = _valid_payload()
        for _ in range(data.draw(st.integers(1, 4))):
            index = data.draw(st.integers(0, len(payload) - 1))
            payload[index] = data.draw(st.integers(0, 255))
        payload = payload[:data.draw(st.integers(0, len(payload)))]
        buffer = np.frombuffer(bytes(payload), dtype=np.uint8)
        try:
            decoded = decode_message(buffer)
        except ValueError:
            return
        self._assert_arrays_inside(decoded, buffer)

    def _assert_arrays_inside(self, node, buffer):
        if isinstance(node, np.ndarray):
            if node.size:
                start = node.__array_interface__["data"][0] \
                    - buffer.__array_interface__["data"][0]
                assert 0 <= start and start + node.nbytes <= buffer.size
        elif isinstance(node, dict):
            for key, value in node.items():
                self._assert_arrays_inside(key, buffer)
                self._assert_arrays_inside(value, buffer)
        elif isinstance(node, (list, tuple)):
            for item in node:
                self._assert_arrays_inside(item, buffer)

    @pytest.mark.parametrize("table_entry, why", [
        (["<f8", [-1, 4], 0], "negative shape"),
        (["<f8", [2 ** 62, 2 ** 62], 0], "shape whose product overflows"),
        (["<f8", [33], 0], "more bytes than the segments hold"),
        (["<f8", [4], 250], "runs past the end"),
        (["<f8", [4], -8], "negative offset"),
        (["O", [1], 0], "object dtype"),
        (["V16", [1], 0], "void dtype"),
        (["U4", [1], 0], "string dtype"),
        (["<f8", "44", 0], "shape that is not a list of ints"),
        (["<f8", [1.5], 0], "fractional dimension"),
        ([["<f8", "<i4"], [1], 0], "dtype that is not a string"),
        (["<f8" * 9, [1], 0], "overlong dtype string"),
        (["<f8", [True], 0], "bool dimension"),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_bad_table_entries_are_refused(self, table_entry, why):
        with pytest.raises(ValueError, match="malformed array message"):
            decode_message(_with_head([["a", 0], [table_entry]]))

    def test_overlapping_arrays_are_refused(self):
        table = [["<f8", [4], 0], ["<f8", [4], 16]]
        with pytest.raises(ValueError, match="outside its segment"):
            decode_message(_with_head([["l", ["a", 0], ["a", 1]], table]))

    @pytest.mark.parametrize("tree", [
        ["a", 7], ["a", -1], ["a", "0"], ["a"], ["x", 1], [], {"k": 1},
        ["d", 1], ["d", ["l"], 1], ["t", ["a", 0, 0]]],
        ids=lambda tree: json.dumps(tree))
    def test_bad_trees_are_refused(self, tree):
        with pytest.raises(ValueError, match="malformed array message"):
            decode_message(_with_head([tree, [["<f8", [4], 0]]]))

    def test_truncated_and_oversized_heads(self):
        for payload in (b"", b"\0\0", struct.pack("!I", 2 ** 31) + b"[]",
                        struct.pack("!I", 10) + b"[1,"):
            with pytest.raises(ValueError, match="malformed array message"):
                decode_message(payload)
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ValueError, match="malformed array message"):
            decode_message(struct.pack("!I", len(deep)) + deep.encode())


class TestFrameReader:
    @staticmethod
    def _feed(data: bytes):
        """``read_frame`` over a socket that delivers ``data`` then EOF."""
        left, right = socket.socketpair()
        feeder = threading.Thread(
            target=lambda: (left.sendall(data), left.close()))
        feeder.start()
        try:
            right.settimeout(10.0)
            return read_frame(right)
        finally:
            right.close()
            feeder.join(timeout=10.0)
            assert not feeder.is_alive()

    @FUZZ
    @given(st.binary(max_size=200))
    def test_garbage_streams_end_in_a_named_failure(self, garbage):
        try:
            self._feed(garbage)
        except (FrameCorruption, StreamDesync, EOFError):
            pass

    @FUZZ
    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_damaged_frames_are_caught_or_correct(self, body, data):
        frame = bytearray(pack_frame(F_DATA, 5, 2, body))
        index = data.draw(st.integers(0, len(frame) - 1))
        frame[index] ^= data.draw(st.integers(1, 255))
        frame = frame[:data.draw(st.integers(0, len(frame)))]
        try:
            ftype, seq, ack, payload = self._feed(bytes(frame))
        except (FrameCorruption, StreamDesync, EOFError):
            return
        # Only the unprotected header fields can differ.
        assert payload == body

    def test_a_length_over_the_limit_is_a_desync_and_allocates_nothing(self):
        header = transport_module._HEADER.pack(
            b"RFT1", F_DATA, 1, 0, 0xFFFFFFFF, 0)
        with pytest.raises(StreamDesync, match=str(MAX_FRAME_BYTES)):
            self._feed(header)

    def test_pack_frame_names_the_limit(self):
        class Huge(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1
        with pytest.raises(OverflowError, match="MAX_FRAME_BYTES"):
            pack_frame(F_DATA, 1, 0, Huge())

    def test_send_pieces_resumes_partial_writes(self):
        """Pieces larger than the socket buffer, empty pieces, and more
        pieces than one ``sendmsg`` takes arrive as their concatenation."""
        rng = np.random.default_rng(0)
        pieces = [b"", rng.integers(0, 256, 3_000_000, dtype=np.uint8),
                  b"tail", b""] + [bytes([i % 256]) for i in range(1500)]
        expected = b"".join(bytes(piece) for piece in pieces)
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        received = bytearray()

        def drain():
            while len(received) < len(expected):
                received.extend(right.recv(1 << 16))
        reader = threading.Thread(target=drain)
        reader.start()
        try:
            left.settimeout(10.0)
            _send_pieces(left, pieces)
            reader.join(timeout=10.0)
            assert not reader.is_alive()
            assert bytes(received) == expected
        finally:
            left.close()
            right.close()


class TestHelloPath:
    @pytest.fixture(scope="class")
    def transport(self):
        transport = TcpTransport(mode="external", token="s3cret")
        transport.spawn(0)
        yield transport
        transport.close()

    @staticmethod
    def _offer(transport, data: bytes):
        """Send raw bytes to the acceptor; what it answers, or ``None``
        when it hangs up."""
        with socket.create_connection(transport.address, timeout=5.0) as sock:
            sock.sendall(data)
            try:
                return read_frame(sock)
            except (EOFError, OSError):
                return None

    def test_an_oversized_hello_is_refused_before_it_is_read(self, transport):
        hello = json.dumps({"worker": 0, "token": "s3cret", "ack": 0,
                            "pad": "x" * MAX_HELLO_BYTES}).encode()
        assert self._offer(transport, pack_frame(F_HELLO, 0, 0, hello)) \
            is None
        # a header alone, claiming 1 GiB: refused without waiting for it
        header = transport_module._HEADER.pack(
            b"RFT1", F_HELLO, 0, 0, MAX_FRAME_BYTES, 0)
        assert self._offer(transport, header) is None

    @FUZZ
    @given(st.one_of(
        st.binary(max_size=120),
        st.recursive(st.one_of(st.none(), st.integers(), st.text(max_size=5)),
                     lambda inner: st.one_of(
                         st.lists(inner, max_size=3),
                         st.dictionaries(st.sampled_from(
                             ["worker", "token", "ack", "session"]),
                             inner, max_size=4)),
                     max_leaves=6).map(lambda v: json.dumps(v).encode())))
    def test_malformed_hellos_are_refused_and_the_acceptor_lives(
            self, transport, body):
        answer = self._offer(transport, pack_frame(F_HELLO, 0, 0, body))
        assert answer is None
        assert transport._acceptor.is_alive()

    def test_the_acceptor_still_serves_after_the_fuzz(self, transport):
        hello = {"worker": 0, "token": "s3cret", "session": None, "ack": 0}
        ftype, _seq, _ack, payload = self._offer(
            transport, pack_frame(F_HELLO, 0, 0, json.dumps(hello).encode()))
        assert ftype == F_HELLO and json.loads(payload) == {"ack": 0}

    @pytest.mark.parametrize("host", ["0.0.0.0", "192.0.2.7", "example.org"])
    def test_empty_token_off_loopback_is_refused(self, host):
        with pytest.raises(ValueError, match="non-empty token"):
            TcpTransport(host=host)

    @pytest.mark.parametrize("host", ["127.0.0.1", "localhost", "127.8.8.8"])
    def test_empty_token_on_loopback_is_fine(self, host):
        TcpTransport(host=host, mode="external").close()


class TestReceiveBuffers:
    BIG = 1 << 17

    def test_a_buffer_is_reused_only_when_nothing_references_it(self):
        stats = {"buffers_allocated": 0}
        pool = _ReceiveBuffers(stats)
        first = pool.take(self.BIG)
        assert stats["buffers_allocated"] == 1
        view = first[64:128].view(np.float64)      # what decode hands out
        del first
        second = pool.take(self.BIG)               # the view keeps it busy
        assert stats["buffers_allocated"] == 2
        assert not np.shares_memory(second, view)
        del view, second
        again = pool.take(self.BIG - 5000)         # any idle one that fits
        assert stats["buffers_allocated"] == 2
        assert again.size == self.BIG - 5000

    def test_small_payloads_are_not_pooled(self):
        stats = {"buffers_allocated": 0}
        pool = _ReceiveBuffers(stats)
        assert pool.take(100).size == 100 and pool.take(0).size == 0
        assert stats["buffers_allocated"] == 0

    def test_busy_buffers_are_left_to_their_holders(self):
        stats = {"buffers_allocated": 0}
        pool = _ReceiveBuffers(stats)
        held = [pool.take(self.BIG) for _ in range(pool.SLOTS + 3)]
        for index, buffer in enumerate(held):
            buffer[:] = index                      # nobody shares a buffer
        assert [int(buffer[0]) for buffer in held] == list(range(len(held)))
        assert stats["buffers_allocated"] == len(held)
        assert len(pool._buffers) == pool.SLOTS
        grown = pool.take(2 * self.BIG)            # too small ones give way
        assert grown.size == 2 * self.BIG and len(pool._buffers) == pool.SLOTS

    def test_frame_overhead_is_the_header(self):
        assert len(pack_frame(F_DATA, 1, 0, b"abc")) == FRAME_OVERHEAD + 3


class TestWirePickleGuard:
    """``tools/check_wire_pickle.py`` on the module as it is, and on it
    with an unpickle moved to where a socket's bytes arrive unchecked."""

    @staticmethod
    def _guard():
        import importlib.util
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "check_wire_pickle", repo / "tools" / "check_wire_pickle.py")
        guard = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(guard)
        return guard, guard.TRANSPORT.read_text()

    def test_the_transport_unpickles_only_behind_the_token(self):
        guard, source = self._guard()
        assert guard.check(source) == []

    def test_guard_catches_an_unpickle_on_the_accept_path(self):
        guard, source = self._guard()
        for before, after, finding in (
                ("hello = json.loads(payload)",
                 "hello = pickle.loads(payload)",
                 "the accept path mentions pickle"),
                ("return _decode_control(payload)",
                 "return pickle.loads(payload)", "outside _decode_control"),
                ("if not hmac.compare_digest(", "if not hmac.equal(",
                 "never compares the token")):
            assert before in source
            findings = guard.check(source.replace(before, after))
            assert any(finding in line for line in findings), findings
