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
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

HEADER_LEN = 22
#: Largest legal value of the size field (65508 is already too big).
MAX_DATAGRAM = 65_507
#: Datagram size used unless a caller picks one: a 1500-byte Ethernet MTU
#: less the 20-byte IPv4 and 8-byte UDP headers.
DEFAULT_MAX_DATAGRAM = 1472
_HEADER = struct.Struct(">QHHHQ")
_U16 = 1 << 16
_U64 = 1 << 64

#: Reassembly timeout: two subframe periods, so that under continuous
#: traffic an incomplete subframe is displaced by its successor (Jumbled)
#: rather than racing the deadline; pure timeouts then mark subframes
#: whose traffic never arrived at all.
DEFAULT_TIMEOUT_NS = 2_000_000


class HeaderError(ValueError):
    """Bytes that cannot be decoded into a valid SplitHeader."""


class _HeaderFields(NamedTuple):
    timestamp: int
    num_blocks: int
    content_type: int
    size: int
    sender_clock: int = 0


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
        if not 0 <= timestamp < _U64:
            raise ValueError("timestamp out of unsigned 64-bit range")
        if not 1 <= num_blocks < _U16:
            raise ValueError(f"num_blocks must be in [1, 65535], got {num_blocks}")
        if not 0 <= content_type < _U16:
            raise ValueError("content_type out of unsigned 16-bit range")
        if not HEADER_LEN <= size <= MAX_DATAGRAM:
            raise ValueError(
                f"size must be in [{HEADER_LEN}, {MAX_DATAGRAM}], got {size}"
            )
        if not 0 <= sender_clock < _U64:
            raise ValueError("sender_clock out of unsigned 64-bit range")
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


class _ChunkFields(NamedTuple):
    header: SplitHeader
    payload: bytes


class Chunk(_ChunkFields):
    """One datagram's worth of a subframe: header plus payload slice.

    The constructor (and _make/_replace) check the size field against the
    payload length; chunk_from_datagram and chunk_subframe build chunks
    whose sizes they have already checked.
    """

    __slots__ = ()

    def __new__(cls, header: SplitHeader, payload: bytes) -> "Chunk":
        if len(payload) + HEADER_LEN != header.size:
            raise ValueError(
                f"payload length {len(payload)} does not match "
                f"size field {header.size}"
            )
        return tuple.__new__(cls, (header, payload))

    @classmethod
    def _make(cls, fields) -> "Chunk":
        return cls(*fields)

    def to_datagram(self) -> bytes:
        return _HEADER.pack(*self.header) + self.payload


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
    if not HEADER_LEN + 1 <= max_datagram <= MAX_DATAGRAM:
        raise ValueError(
            f"max_datagram must be in [{HEADER_LEN + 1}, {MAX_DATAGRAM}], "
            f"got {max_datagram}"
        )
    num_blocks = -(-payload_len // (max_datagram - HEADER_LEN))
    if num_blocks >= _U16:
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
    sender_clock + i, which is how reassembly restores payload order.
    """
    num_blocks = chunk_count(len(payload), max_datagram)
    if not payload:
        raise ValueError("payload must not be empty")
    budget = max_datagram - HEADER_LEN
    # The validating constructors build the last chunk: it carries every
    # shared field and the largest sender_clock. Every other chunk is
    # exactly max_datagram bytes, checked above.
    tail = payload[(num_blocks - 1) * budget :]
    last = Chunk(
        SplitHeader(timestamp, num_blocks, content_type, HEADER_LEN + len(tail),
                    sender_clock + num_blocks - 1),
        tail,
    )
    if sender_clock < 0:
        raise ValueError("sender_clock out of unsigned 64-bit range")
    new = tuple.__new__
    chunks = [
        new(Chunk, (
            new(SplitHeader, (timestamp, num_blocks, content_type, max_datagram,
                              sender_clock + i)),
            payload[i * budget : (i + 1) * budget],
        ))
        for i in range(num_blocks - 1)
    ]
    chunks.append(last)
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
    sender_clock order); a chunk of a newer subframe discards the partial
    one (Jumbled) and starts the new assembly; a chunk at or below the
    newest finished timestamp is rejected as stale. poll_timeout() expires
    an assembly DEFAULT_TIMEOUT_NS after its first chunk.

    All buffered chunks must share timestamp, content_type and the
    announced num_blocks, and carry distinct sender_clock values;
    disagreement or a repeated sender_clock rejects the chunk (Malformed)
    without touching the assembly.

    Corner case: a newer-subframe chunk that single-handedly completes its
    subframe (num_blocks == 1) returns that Complete; the displaced partial
    subframe is still recorded in `displaced`, which collects every
    jumble-discard (drain with drain_displaced()). Instances are
    single-consumer, never shared.
    """

    def __init__(self) -> None:
        self.displaced: List[Tuple[int, int]] = []
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
            return self._start(chunk, now_ns)
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
            self.displaced.append((old, ts))
            self._watermark = old
            self._clear()
            return self._start(chunk, now_ns) or Jumbled(old, ts)
        return Malformed("stale", timestamp=ts)

    def advance(self, fields: Tuple[int, int, int, int, int], datagram: bytes,
                now_ns: int) -> bool:
        """Hold a datagram that only advances the open assembly; False if it does more.

        fields are the datagram's raw header fields, as _HEADER.unpack_from
        gives them. The payload is held, and True returned, exactly when
        feeding the datagram through chunk_from_datagram, poll_timeout and
        accept would time nothing out and return None from accept: the
        header continues the open assembly (same timestamp, num_blocks and
        content_type), size == len(datagram) <= MAX_DATAGRAM, now_ns is
        before the deadline, the sender_clock is new, and at least one more
        block is still missing after this one. Otherwise nothing changes.
        """
        timestamp, num_blocks, content_type, size, clock = fields
        payloads = self._payloads
        if (timestamp == self._timestamp and num_blocks == self._num_blocks
                and content_type == self._content_type
                and size == len(datagram) <= MAX_DATAGRAM
                and now_ns < self._deadline and clock not in payloads
                and len(payloads) < num_blocks - 1):
            payloads[clock] = datagram[HEADER_LEN:]
            return True
        return False

    def poll_timeout(self, now_ns: int) -> Optional[Timeout]:
        """Expire the assembly in progress once its deadline is reached."""
        if self._timestamp is None or now_ns < self._deadline:
            return None
        event = Timeout(self._timestamp, len(self._payloads), self._num_blocks)
        self._watermark = self._timestamp
        self._clear()
        return event

    def drain_displaced(self) -> List[Tuple[int, int]]:
        """Return and clear the accumulated jumble-discard records."""
        records, self.displaced = self.displaced, []
        return records

    def _start(self, chunk: Chunk, now_ns: int) -> Optional[Complete]:
        self._timestamp = chunk.header.timestamp
        self._num_blocks = chunk.header.num_blocks
        self._content_type = chunk.header.content_type
        self._payloads = {chunk.header.sender_clock: chunk.payload}
        if self._num_blocks == 1:
            return self._finish()
        self._deadline = now_ns + DEFAULT_TIMEOUT_NS
        return None

    def _finish(self) -> Complete:
        ts = self._timestamp
        payloads = self._payloads
        payload = b"".join(payloads[clock] for clock in sorted(payloads))
        self._watermark = ts
        self._clear()
        return Complete(ts, payload)

    def _clear(self) -> None:
        self._timestamp = None
        self._num_blocks = 0
        self._content_type = 0
        self._payloads = {}
        self._deadline = 0
