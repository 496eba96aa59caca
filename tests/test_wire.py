"""Transport framing tests: header codec, chunking, reassembly traces."""

import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhsplit.wire import (
    DEFAULT_TIMEOUT_NS,
    Chunk,
    Complete,
    HEADER_LEN,
    HeaderError,
    Jumbled,
    MAX_DATAGRAM,
    Malformed,
    ReassemblyBuffer,
    SplitHeader,
    Timeout,
    chunk_from_datagram,
    chunk_subframe,
    decode_header,
    encode_header,
)

VECTORS = Path(__file__).parent / "data" / "header_vectors.txt"


def load_vectors():
    rows = []
    for line in VECTORS.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        hexstr, *fields = line.split("|")
        rows.append((hexstr, *(int(f) for f in fields)))
    return rows


class TestHeaderCodec:
    @pytest.mark.parametrize("hexstr,ts,nb,ct,size,sc", load_vectors())
    def test_encode_known_vectors(self, hexstr, ts, nb, ct, size, sc):
        header = SplitHeader(ts, nb, ct, size, sc)
        assert encode_header(header).hex() == hexstr

    @pytest.mark.parametrize("hexstr,ts,nb,ct,size,sc", load_vectors())
    def test_decode_known_vectors(self, hexstr, ts, nb, ct, size, sc):
        header = decode_header(bytes.fromhex(hexstr))
        assert header == SplitHeader(ts, nb, ct, size, sc)

    def test_header_is_22_bytes(self):
        assert HEADER_LEN == 22
        assert len(encode_header(SplitHeader(0, 1, 0, 22))) == 22

    def test_round_trip_random(self):
        rng = random.Random(1234)
        for _ in range(2000):
            header = SplitHeader(
                timestamp=rng.getrandbits(64),
                num_blocks=rng.randint(1, 65535),
                content_type=rng.getrandbits(16),
                size=rng.randint(HEADER_LEN, MAX_DATAGRAM),
                sender_clock=rng.getrandbits(64),
            )
            assert decode_header(encode_header(header)) == header

    def test_decode_short_input(self):
        with pytest.raises(HeaderError):
            decode_header(b"\x00" * 21)
        with pytest.raises(HeaderError):
            decode_header(b"")

    def test_decode_zero_blocks(self):
        raw = struct.pack(">QHHHQ", 0, 0, 0, 22, 0)
        with pytest.raises(HeaderError, match="num_blocks"):
            decode_header(raw)

    @pytest.mark.parametrize("size", [0, 21, MAX_DATAGRAM + 1, 65535])
    def test_decode_bad_size_field(self, size):
        raw = struct.pack(">QHHHQ", 0, 1, 0, size, 0)
        with pytest.raises(HeaderError, match="size"):
            decode_header(raw)

    def test_decode_never_raises_anything_else(self):
        rng = random.Random(99)
        for _ in range(5000):
            blob = rng.randbytes(rng.randint(0, 40))
            try:
                decode_header(blob)
            except HeaderError:
                pass

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timestamp=-1, num_blocks=1, content_type=0, size=22),
            dict(timestamp=0, num_blocks=0, content_type=0, size=22),
            dict(timestamp=0, num_blocks=1 << 16, content_type=0, size=22),
            dict(timestamp=0, num_blocks=1, content_type=-1, size=22),
            dict(timestamp=0, num_blocks=1, content_type=0, size=21),
            dict(timestamp=0, num_blocks=1, content_type=0, size=MAX_DATAGRAM + 1),
            dict(timestamp=0, num_blocks=1, content_type=0, size=22, sender_clock=-2),
        ],
    )
    def test_header_field_validation(self, kwargs):
        with pytest.raises(ValueError):
            SplitHeader(**kwargs)

    def test_namedtuple_helpers_validate(self):
        header = SplitHeader(0, 1, 0, 22)
        assert header._replace(sender_clock=5) == SplitHeader(0, 1, 0, 22, 5)
        with pytest.raises(ValueError):
            header._replace(size=21)
        with pytest.raises(ValueError):
            SplitHeader._make((0, 0, 0, 22, 0))
        chunk = Chunk(header, b"")
        with pytest.raises(ValueError):
            chunk._replace(payload=b"x")
        with pytest.raises(ValueError):
            Chunk._make((header, b"x"))


class TestChunking:
    def test_sizes_and_order(self):
        payload = bytes(range(256)) * 40  # 10240 bytes
        chunks = chunk_subframe(5, 1, payload, max_datagram=1472)
        budget = 1472 - HEADER_LEN
        assert len(chunks) == -(-len(payload) // budget) == 8
        assert [len(c.payload) for c in chunks] == [1450] * 7 + [90]
        assert all(c.header.num_blocks == 8 for c in chunks)
        assert all(c.header.timestamp == 5 for c in chunks)
        assert all(c.header.content_type == 1 for c in chunks)
        assert [c.header.sender_clock for c in chunks] == list(range(8))
        assert b"".join(c.payload for c in chunks) == payload

    def test_exact_multiple_of_budget(self):
        chunks = chunk_subframe(0, 0, b"x" * 2900, max_datagram=1472)
        assert [len(c.payload) for c in chunks] == [1450, 1450]

    def test_single_chunk(self):
        chunks = chunk_subframe(0, 0, b"ab", max_datagram=1472)
        assert len(chunks) == 1
        assert chunks[0].header.num_blocks == 1
        assert chunks[0].header.size == HEADER_LEN + 2

    def test_datagram_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            payload = rng.randbytes(rng.randint(1, 5000))
            for chunk in chunk_subframe(3, 2, payload, max_datagram=200):
                again = chunk_from_datagram(chunk.to_datagram())
                assert again == chunk

    def test_sender_clock_offset(self):
        chunks = chunk_subframe(0, 0, b"x" * 3000, max_datagram=1472, sender_clock=70)
        assert [c.header.sender_clock for c in chunks] == [70, 71, 72]

    def test_rejects_empty_payload(self):
        with pytest.raises(ValueError):
            chunk_subframe(0, 0, b"")

    @pytest.mark.parametrize("max_datagram", [0, HEADER_LEN, MAX_DATAGRAM + 1])
    def test_rejects_bad_max_datagram(self, max_datagram):
        with pytest.raises(ValueError):
            chunk_subframe(0, 0, b"x", max_datagram=max_datagram)

    def test_rejects_payload_needing_too_many_chunks(self):
        # minimum datagram -> 1 payload byte per chunk -> 2^16 chunks needed
        with pytest.raises(ValueError, match="16-bit"):
            chunk_subframe(0, 0, b"x" * 65536, max_datagram=HEADER_LEN + 1)

    def test_chunk_size_consistency_enforced(self):
        header = SplitHeader(0, 1, 0, size=30)
        with pytest.raises(ValueError):
            Chunk(header, b"x")  # 22 + 1 != 30

    def test_datagram_length_mismatch_rejected(self):
        chunk = chunk_subframe(0, 0, b"abcdef")[0]
        raw = chunk.to_datagram()
        with pytest.raises(HeaderError):
            chunk_from_datagram(raw + b"!")
        with pytest.raises(HeaderError):
            chunk_from_datagram(raw[:-1])


class TestChunkingBoundary:
    """chunk_subframe rejects every header field the constructors reject."""

    @pytest.mark.parametrize("timestamp", [-1, 1 << 64, (1 << 64) + 5])
    def test_rejects_timestamp_out_of_range(self, timestamp):
        with pytest.raises(ValueError, match="timestamp"):
            chunk_subframe(timestamp, 0, b"x" * 3000)

    @pytest.mark.parametrize("content_type", [-1, 1 << 16])
    def test_rejects_content_type_out_of_range(self, content_type):
        with pytest.raises(ValueError, match="content_type"):
            chunk_subframe(0, content_type, b"x" * 3000)

    def test_rejects_negative_sender_clock(self):
        # the last chunk's clock (-1 + 2) is in range; the first is not
        with pytest.raises(ValueError, match="sender_clock"):
            chunk_subframe(0, 0, b"x" * 3000, sender_clock=-1)

    def test_rejects_last_sender_clock_reaching_2_64(self):
        # three chunks stamped 2^64 - 2, 2^64 - 1, 2^64: only the last overflows
        with pytest.raises(ValueError, match="sender_clock"):
            chunk_subframe(0, 0, b"x" * 3000, sender_clock=(1 << 64) - 2)

    def test_last_sender_clock_may_be_2_64_minus_1(self):
        chunks = chunk_subframe(0, 0, b"x" * 3000, sender_clock=(1 << 64) - 3)
        assert chunks[-1].header.sender_clock == (1 << 64) - 1
        assert chunks[-1].to_datagram()[14:22] == b"\xff" * 8

    @pytest.mark.parametrize("timestamp", [0, (1 << 64) - 1])
    def test_timestamp_range_ends_accepted(self, timestamp):
        chunks = chunk_subframe(timestamp, (1 << 16) - 1, b"x" * 3000)
        assert all(c.header.timestamp == timestamp for c in chunks)
        assert all(c.header.content_type == (1 << 16) - 1 for c in chunks)

    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=4000),
        max_datagram=st.one_of(
            st.integers(HEADER_LEN + 1, HEADER_LEN + 64),
            st.integers(HEADER_LEN + 1, MAX_DATAGRAM),
        ),
        timestamp=st.integers(0, (1 << 64) - 1),
        content_type=st.integers(0, (1 << 16) - 1),
        sender_clock=st.integers(0, (1 << 64) - 4001),
    )
    def test_every_chunk_matches_the_validated_constructors(
        self, payload, max_datagram, timestamp, content_type, sender_clock
    ):
        chunks = chunk_subframe(timestamp, content_type, payload, max_datagram,
                                sender_clock=sender_clock)
        assert b"".join(c.payload for c in chunks) == payload
        for i, chunk in enumerate(chunks):
            h = chunk.header
            strict = SplitHeader(h.timestamp, h.num_blocks, h.content_type,
                                 h.size, h.sender_clock)
            assert h == strict
            assert (h.timestamp, h.content_type, h.num_blocks) == (
                timestamp, content_type, len(chunks))
            assert h.sender_clock == sender_clock + i
            assert h.size == HEADER_LEN + len(chunk.payload) <= max_datagram
            assert encode_header(h) == encode_header(strict)
            assert chunk == Chunk(strict, chunk.payload)
            datagram = chunk.to_datagram()
            assert datagram == encode_header(strict) + chunk.payload
            again = chunk_from_datagram(datagram)
            assert again == chunk
            assert again.header == strict
            assert decode_header(datagram) == strict

    @settings(max_examples=300, deadline=None)
    @given(
        fields=st.tuples(
            st.integers(0, (1 << 64) - 1),
            st.one_of(st.integers(0, 2), st.integers(0, (1 << 16) - 1)),
            st.integers(0, (1 << 16) - 1),
            st.one_of(st.integers(HEADER_LEN - 2, HEADER_LEN + 40),
                      st.integers(0, (1 << 16) - 1)),
            st.integers(0, (1 << 64) - 1),
        ),
        payload=st.binary(min_size=0, max_size=40),
    )
    def test_decode_rejects_exactly_what_the_constructors_reject(
        self, fields, payload
    ):
        datagram = struct.pack(">QHHHQ", *fields) + payload
        try:
            strict = Chunk(SplitHeader(*fields), payload)
        except ValueError:
            with pytest.raises(HeaderError):
                chunk_from_datagram(datagram)
        else:
            assert chunk_from_datagram(datagram) == strict


def feed_all(buf, chunks, now_ns=0):
    return [buf.accept(c, now_ns) for c in chunks]


class TestReassemblyTraces:
    """Deterministic event traces through the receive state machine."""

    def test_in_order_complete(self):
        payload = b"a" * 3000
        buf = ReassemblyBuffer()
        events = feed_all(buf, chunk_subframe(9, 1, payload, max_datagram=1472))
        assert events[0] is None
        assert events[1] is None
        assert events[2] == Complete(9, payload)
        assert not buf.in_progress

    def test_single_chunk_instant_complete(self):
        buf = ReassemblyBuffer()
        [chunk] = chunk_subframe(4, 0, b"tiny")
        assert buf.accept(chunk, 0) == Complete(4, b"tiny")

    def test_timeout_trace(self):
        buf = ReassemblyBuffer()
        chunks = chunk_subframe(2, 0, b"b" * 3000, max_datagram=1472)
        buf.accept(chunks[0], 500)
        assert buf.poll_timeout(500 + DEFAULT_TIMEOUT_NS - 1) is None
        event = buf.poll_timeout(500 + DEFAULT_TIMEOUT_NS)
        assert event == Timeout(2, 1, 3)
        assert buf.poll_timeout(10 * DEFAULT_TIMEOUT_NS) is None  # nothing left to expire

    def test_jumbled_trace(self):
        buf = ReassemblyBuffer()
        old = chunk_subframe(0, 0, b"c" * 3000, max_datagram=1472)
        new = chunk_subframe(1, 0, b"d" * 3000, max_datagram=1472)
        buf.accept(old[0], 0)
        event = buf.accept(new[0], 100)
        assert event == Jumbled(0, 1)
        assert buf.drain_displaced() == [(0, 1)]
        # the new assembly proceeds normally
        assert buf.accept(new[1], 200) is None
        assert buf.accept(new[2], 300) == Complete(1, b"d" * 3000)

    def test_jumble_with_instant_complete_still_recorded(self):
        buf = ReassemblyBuffer()
        old = chunk_subframe(0, 0, b"e" * 3000, max_datagram=1472)
        [new] = chunk_subframe(1, 0, b"f")
        buf.accept(old[0], 0)
        event = buf.accept(new, 100)
        assert event == Complete(1, b"f")
        assert buf.drain_displaced() == [(0, 1)]
        assert buf.drain_displaced() == []

    def test_stale_after_complete(self):
        buf = ReassemblyBuffer()
        [chunk] = chunk_subframe(5, 0, b"g")
        assert buf.accept(chunk, 0) == Complete(5, b"g")
        assert buf.accept(chunk, 10) == Malformed("stale", timestamp=5)
        [older] = chunk_subframe(4, 0, b"h")
        assert buf.accept(older, 20) == Malformed("stale", timestamp=4)
        [newer] = chunk_subframe(6, 0, b"i")
        assert buf.accept(newer, 30) == Complete(6, b"i")

    def test_stale_after_timeout(self):
        buf = ReassemblyBuffer()
        chunks = chunk_subframe(3, 0, b"j" * 3000, max_datagram=1472)
        buf.accept(chunks[0], 0)
        assert buf.poll_timeout(DEFAULT_TIMEOUT_NS) == Timeout(3, 1, 3)
        assert buf.accept(chunks[1], DEFAULT_TIMEOUT_NS + 50) == Malformed(
            "stale", timestamp=3
        )

    def test_stale_while_assembling_older_timestamp(self):
        buf = ReassemblyBuffer()
        now = chunk_subframe(7, 0, b"k" * 3000, max_datagram=1472)
        [late] = chunk_subframe(6, 0, b"l")
        buf.accept(now[0], 0)
        assert buf.accept(late, 10) == Malformed("stale", timestamp=6)
        # the assembly of subframe 7 is untouched and still completes
        assert buf.accept(now[1], 20) is None
        assert buf.accept(now[2], 30) == Complete(7, b"k" * 3000)

    def test_inconsistent_metadata_rejected_without_reset(self):
        buf = ReassemblyBuffer()
        chunks = chunk_subframe(8, 1, b"m" * 2900, max_datagram=1472)
        buf.accept(chunks[0], 0)
        bad_blocks = Chunk(
            SplitHeader(8, 9, 1, HEADER_LEN + 1, 0), b"x"
        )
        assert buf.accept(bad_blocks, 1) == Malformed(
            "inconsistent_blocks", timestamp=8
        )
        bad_type = Chunk(
            SplitHeader(8, 2, 2, HEADER_LEN + 1, 0), b"x"
        )
        assert buf.accept(bad_type, 2) == Malformed("inconsistent_type", timestamp=8)
        # assembly unharmed
        assert buf.accept(chunks[1], 3) == Complete(8, b"m" * 2900)

    def test_out_of_order_chunks_give_emission_order_payload(self):
        chunks = chunk_subframe(0, 0, b"A" * 1450 + b"B" * 1450, max_datagram=1472)
        buf = ReassemblyBuffer()
        buf.accept(chunks[1], 0)
        event = buf.accept(chunks[0], 1)
        assert event == Complete(0, b"A" * 1450 + b"B" * 1450)

    def test_strict_order_restores_emission_order(self):
        payload = bytes(1000) + bytes(range(256)) * 8  # 3048 bytes, 3 chunks
        chunks = chunk_subframe(0, 0, payload, max_datagram=1472)
        buf = ReassemblyBuffer()
        buf.accept(chunks[2], 0)
        buf.accept(chunks[0], 1)
        event = buf.accept(chunks[1], 2)
        assert event == Complete(0, payload)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=6000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_permutation_reassembles_in_strict_mode(self, data, seed):
        chunks = chunk_subframe(1, 0, data, max_datagram=300)
        order = list(chunks)
        random.Random(seed).shuffle(order)
        buf = ReassemblyBuffer()
        events = feed_all(buf, order)
        assert events[-1] == Complete(1, data)
        assert all(e is None for e in events[:-1])

    def test_buffer_reusable_after_every_outcome(self):
        buf = ReassemblyBuffer()
        # complete
        [c1] = chunk_subframe(1, 0, b"x")
        assert isinstance(buf.accept(c1, 0), Complete)
        # timeout
        c2 = chunk_subframe(2, 0, b"y" * 3000, max_datagram=1472)
        buf.accept(c2[0], 10)
        assert isinstance(buf.poll_timeout(10 + DEFAULT_TIMEOUT_NS), Timeout)
        # jumble, then complete the successor
        c3 = chunk_subframe(3, 0, b"z" * 3000, max_datagram=1472)
        c4 = chunk_subframe(4, 0, b"w" * 2)
        t3 = 20 + DEFAULT_TIMEOUT_NS
        buf.accept(c3[0], t3)
        assert isinstance(buf.accept(c4[0], t3 + 20), Complete)
        assert buf.drain_displaced() == [(3, 4)]

    def test_poll_with_nothing_in_progress(self):
        buf = ReassemblyBuffer()
        assert buf.poll_timeout(10**12) is None
