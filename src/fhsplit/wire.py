"""Split fronthaul transport framing: header codec, chunking, reassembly.

Datagram layout: a fixed 22-byte header followed by payload. All header
integers are big-endian (network order):

    offset  size  field
    0       8     timestamp      subframe identifier
    8       2     num_blocks     chunks composing the subframe
    10      2     content_type   payload format discriminator
    12      2     size           datagram bytes including this header
    14      8     sender_clock   sender clock at emission, nanoseconds

A datagram must fit a UDP payload, so size < 65508 (2^16 minus UDP and IP
headers). The header carries no block index: the sender stamps the
chunks of a message with increasing sender_clock values, and the receiver
joins them in sender_clock order, so reordering within a subframe cannot
change a reassembled payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cell import check_int

HEADER_LEN = 22
#: Largest legal value of the size field (65508 is already too big).
MAX_DATAGRAM = 65_507
#: Datagram size used unless a caller picks one: a 1500-byte Ethernet MTU
#: less the 20-byte IPv4 and 8-byte UDP headers.
DEFAULT_MAX_DATAGRAM = 1472
_HEADER = struct.Struct(">QHHHQ")
_U16_MAX = (1 << 16) - 1
_U64_MAX = (1 << 64) - 1

#: Reassembly timeout: two subframe periods, so that under continuous
#: traffic an incomplete subframe is evicted by its successor's first
#: chunk (Jumbled) rather than racing the deadline; pure timeouts then
#: mark subframes whose traffic never arrived at all.
DEFAULT_TIMEOUT_NS = 2_000_000


class HeaderError(ValueError):
    """Bytes that cannot be decoded into a valid SplitHeader."""


class _HeaderFields(NamedTuple):
    timestamp: int
    num_blocks: int
    content_type: int
    size: int
    sender_clock: int = 0


def _check_stamps(timestamp: int, content_type: int, sender_clock: int,
                  clocks: int = 1) -> None:
    """Raise ValueError unless the fields a sender picks fit their wire ranges.

    clocks is the number of headers stamped sender_clock, sender_clock + 1,
    ...; the last of them must still fit 64 bits.
    """
    check_int(timestamp, "timestamp", 0, _U64_MAX)
    check_int(content_type, "content_type", 0, _U16_MAX)
    check_int(sender_clock, "sender_clock", 0, _U64_MAX + 1 - clocks)


class SplitHeader(_HeaderFields):
    """One datagram's header fields, each checked against its wire range.

    Headers are tuples, so they compare equal to a plain tuple of the same
    fields. The constructor (and _make/_replace) validate every field.
    Inside this module, decode_header and chunk_subframe check the fields
    once at the wire boundary and then build headers with tuple.__new__.
    """

    __slots__ = ()

    def __new__(cls, timestamp: int, num_blocks: int, content_type: int,
                size: int, sender_clock: int = 0) -> "SplitHeader":
        _check_stamps(timestamp, content_type, sender_clock)
        check_int(num_blocks, "num_blocks", 1, _U16_MAX)
        check_int(size, "size", HEADER_LEN, MAX_DATAGRAM)
        return tuple.__new__(
            cls, (timestamp, num_blocks, content_type, size, sender_clock)
        )

    @classmethod
    def _make(cls, fields) -> "SplitHeader":
        return cls(*fields)


def encode_header(header: SplitHeader) -> bytes:
    """Serialize a header to its fixed 22-byte big-endian form."""
    return _HEADER.pack(*header)


def decode_header(data: bytes) -> SplitHeader:
    """Parse the first 22 bytes of data; raises HeaderError, never crashes.

    struct bounds timestamp, content_type and sender_clock; only the two
    fields with a narrower legal range are checked here.
    """
    if len(data) < HEADER_LEN:
        raise HeaderError(f"short header: {len(data)} bytes, need {HEADER_LEN}")
    fields = _HEADER.unpack_from(data)
    _, num_blocks, _, size, _ = fields
    if num_blocks == 0:
        raise HeaderError("num_blocks is zero")
    if size < HEADER_LEN or size > MAX_DATAGRAM:
        raise HeaderError(f"size field {size} outside [{HEADER_LEN}, {MAX_DATAGRAM}]")
    return tuple.__new__(SplitHeader, fields)


class Chunk(NamedTuple):
    """One datagram's worth of a subframe: header plus payload slice.

    A plain tuple: chunk_subframe and chunk_from_datagram, the only places
    that make chunks from bytes, check the size field against the payload
    length where the bytes are made or read. chunk_subframe cuts every
    chunk but the last as a read-only memoryview of its message, so the
    message is copied only into its datagrams; every other payload is bytes.
    """

    header: SplitHeader
    payload: Union[bytes, memoryview]

    def to_datagram(self) -> bytes:
        header, payload = self
        return _HEADER.pack(*header) + payload


def chunk_from_datagram(data: bytes) -> Chunk:
    """Decode one received datagram; raises HeaderError on any mismatch."""
    header = decode_header(data)
    if len(data) != header.size:
        raise HeaderError(
            f"size field {header.size} does not match datagram length {len(data)}"
        )
    return tuple.__new__(Chunk, (header, bytes(data[HEADER_LEN:])))


def chunk_count(payload_len: int, max_datagram: int = DEFAULT_MAX_DATAGRAM) -> int:
    """Number of chunks chunk_subframe splits a payload_len-byte payload into.

    Raises ValueError if max_datagram is out of range or the count does
    not fit the 16-bit num_blocks field.
    """
    check_int(max_datagram, "max_datagram", HEADER_LEN + 1, MAX_DATAGRAM)
    # int(): even a numpy max_datagram gives a plain-int count, as 64-bit clock sums need
    num_blocks = -(-payload_len // (int(max_datagram) - HEADER_LEN))
    if num_blocks > _U16_MAX:
        raise ValueError(
            f"payload of {payload_len} bytes needs {num_blocks} chunks of at most "
            f"{max_datagram} bytes; num_blocks is a 16-bit field"
        )
    return num_blocks


def chunk_subframe(
    timestamp: int,
    content_type: int,
    payload: bytes,
    max_datagram: int = DEFAULT_MAX_DATAGRAM,
    sender_clock: int = 0,
) -> List[Chunk]:
    """Split a subframe payload into datagram-sized chunks, in order.

    Each chunk carries at most max_datagram - 22 payload bytes; all chunks
    share timestamp, content_type and num_blocks. Chunk i is stamped with
    sender_clock + i, which is how reassembly restores payload order. The
    full chunks' payloads are views of payload and the last is bytes, so a
    one-chunk message carries payload itself.
    """
    num_blocks = chunk_count(len(payload), max_datagram)
    if not payload:
        raise ValueError("payload must not be empty")
    # One check covers every chunk: they share timestamp and content_type,
    # and their clocks run from sender_clock for num_blocks. chunk_count
    # bounds num_blocks and max_datagram, so every size is in range too.
    _check_stamps(timestamp, content_type, sender_clock, num_blocks)
    budget = max_datagram - HEADER_LEN
    cut = (num_blocks - 1) * budget
    tail = payload[cut:]
    new = tuple.__new__
    chunks: List[Chunk] = []
    append = chunks.append
    clock = sender_clock
    if cut:
        view = memoryview(payload)
        for start in range(0, cut, budget):
            append(new(Chunk, (
                new(SplitHeader, (timestamp, num_blocks, content_type, max_datagram, clock)),
                view[start : start + budget],
            )))
            clock += 1
    append(new(Chunk, (
        new(SplitHeader, (timestamp, num_blocks, content_type, HEADER_LEN + len(tail), clock)),
        tail,
    )))
    return chunks


# Reassembly outcomes. accept() returns one of these, or None for a chunk
# that only advances its assembly; poll_timeout() returns a Timeout or None.


@dataclass(frozen=True)
class Complete:
    timestamp: int
    payload: bytes


@dataclass(frozen=True)
class Timeout:
    timestamp: int
    chunks_received: int
    num_blocks: int


@dataclass(frozen=True)
class Jumbled:
    old_timestamp: int
    new_timestamp: int


@dataclass(frozen=True)
class Malformed:
    reason: str
    timestamp: Optional[int] = None


ReassemblyEvent = Union[Complete, Timeout, Jumbled, Malformed]


class ReassemblyBuffer:
    """Per-stream receive state machine: collect the chunks of one subframe.

    At most one subframe is under assembly. A chunk of the current subframe
    advances assembly (None) or finishes it (Complete, the chunks joined in
    sender_clock order); a chunk of a newer subframe evicts the partial
    one and returns Jumbled without taking the chunk, which the caller
    offers again to start its own assembly; a chunk at or below the newest
    finished timestamp is rejected as stale. A one-block chunk that finds
    no assembly open completes at once, without opening one. poll_timeout()
    expires an assembly DEFAULT_TIMEOUT_NS after its first chunk.

    All buffered chunks must share timestamp, content_type and the
    announced num_blocks, and carry distinct sender_clock values;
    disagreement or a repeated sender_clock rejects the chunk (Malformed)
    without touching the assembly. Instances are single-consumer, never
    shared.
    """

    def __init__(self) -> None:
        self._payloads: Dict[int, bytes] = {}  # sender_clock -> chunk payload
        self._timestamp: Optional[int] = None
        self._num_blocks = 0
        self._content_type = 0
        self._deadline = 0
        self._watermark: Optional[int] = None

    @property
    def in_progress(self) -> bool:
        return self._timestamp is not None

    def accept(self, chunk: Chunk, now_ns: int) -> Optional[ReassemblyEvent]:
        """Feed one decoded chunk; returns its outcome, or None while assembling."""
        ts = chunk.header.timestamp
        if self._timestamp is None:
            if self._watermark is not None and ts <= self._watermark:
                return Malformed("stale", timestamp=ts)
            if chunk.header.num_blocks == 1:
                self._watermark = ts
                return Complete(ts, chunk.payload)
            self._start(chunk, now_ns)
            return None
        if ts == self._timestamp:
            if chunk.header.num_blocks != self._num_blocks:
                return Malformed("inconsistent_blocks", timestamp=ts)
            if chunk.header.content_type != self._content_type:
                return Malformed("inconsistent_type", timestamp=ts)
            clock = chunk.header.sender_clock
            if clock in self._payloads:
                return Malformed("duplicate", timestamp=ts)
            self._payloads[clock] = chunk.payload
            if len(self._payloads) == self._num_blocks:
                return self._finish()
            return None
        if ts > self._timestamp:
            old = self._timestamp
            self._watermark = old
            self._clear()
            return Jumbled(old, ts)
        return Malformed("stale", timestamp=ts)

    def advance(self, arrivals: Sequence[Tuple[int, bytes]], i: int) -> int:
        """Hold arrivals[i], arrivals[i + 1], ... while each only advances the open assembly.

        arrivals are (recv_ns, datagram) pairs. Returns the index of the
        first arrival not held (len(arrivals) if every one was). A
        datagram is held exactly when feeding it through
        chunk_from_datagram, poll_timeout and accept would time nothing
        out and return None from accept: at least one more block is still
        missing after this one, the header continues the open assembly
        (same timestamp, num_blocks and content_type), size ==
        len(datagram) <= MAX_DATAGRAM, its recv_ns is before the deadline
        and the sender_clock is new. Nothing else changes. The first
        condition is checked before the header is unpacked, so a
        message's last chunk is left unread for accept.
        """
        if self._num_blocks - len(self._payloads) < 2:
            return i
        ts, blocks, ctype = self._timestamp, self._num_blocks, self._content_type
        payloads, deadline = self._payloads, self._deadline
        unpack = _HEADER.unpack_from
        end = len(arrivals)
        while i < end and len(payloads) < blocks - 1:
            recv_ns, datagram = arrivals[i]
            if len(datagram) < HEADER_LEN:
                break
            head_ts, head_blocks, head_ctype, size, clock = unpack(datagram)
            if not (head_ts == ts and head_blocks == blocks and head_ctype == ctype
                    and size == len(datagram) <= MAX_DATAGRAM and recv_ns < deadline
                    and clock not in payloads):
                break
            payloads[clock] = datagram[HEADER_LEN:]
            i += 1
        return i

    def poll_timeout(self, now_ns: int) -> Optional[Timeout]:
        """Expire the assembly in progress once its deadline is reached."""
        if self._timestamp is None or now_ns < self._deadline:
            return None
        event = Timeout(self._timestamp, len(self._payloads), self._num_blocks)
        self._watermark = self._timestamp
        self._clear()
        return event

    def _start(self, chunk: Chunk, now_ns: int) -> None:
        self._timestamp = chunk.header.timestamp
        self._num_blocks = chunk.header.num_blocks
        self._content_type = chunk.header.content_type
        self._payloads = {chunk.header.sender_clock: chunk.payload}
        self._deadline = now_ns + DEFAULT_TIMEOUT_NS

    def _finish(self) -> Complete:
        ts = self._timestamp
        payloads = self._payloads
        payload = b"".join(map(payloads.__getitem__, sorted(payloads)))
        self._watermark = ts
        self._clear()
        return Complete(ts, payload)

    def _clear(self) -> None:
        self._timestamp = None
        self._num_blocks = 0
        self._content_type = 0
        self._payloads = {}
        self._deadline = 0
