"""Split fronthaul transport framing: header codec, chunking, reassembly.

Datagram layout: a fixed 22-byte header followed by payload. All header
integers are big-endian (network order):

    offset  size  field
    0       8     timestamp      subframe identifier
    8       2     num_blocks     chunks composing the subframe
    10      2     content_type   payload format discriminator
    12      2     size           datagram bytes including this header
    14      8     sender_clock   chunk sequence: message base + chunk index

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
from .channel import SUBFRAME_NS

HEADER_LEN = 22
#: Largest legal value of the size field (65508 is already too big).
MAX_DATAGRAM = 65_507
#: Datagram size used unless a caller picks one: a 1500-byte Ethernet MTU
#: less the 20-byte IPv4 and 8-byte UDP headers.
DEFAULT_MAX_DATAGRAM = 1472
_HEADER = struct.Struct(">QHHHQ")
_U16_MAX = (1 << 16) - 1
_U64_MAX = (1 << 64) - 1

#: Reassembly timeout: two subframe periods after an assembly's first
#: chunk, so that a chunk held back by one subframe still lands in time.
DEFAULT_TIMEOUT_NS = 2 * SUBFRAME_NS
#: Timestamps one content type may have under assembly at once. With one
#: message per subframe, an assembly lives at most DEFAULT_TIMEOUT_NS,
#: while DEFAULT_TIMEOUT_NS // SUBFRAME_NS newer subframes can start; a
#: timestamp WINDOW or more below the newest seen is therefore late.
WINDOW = DEFAULT_TIMEOUT_NS // SUBFRAME_NS + 1
#: advance holds the payload of a longer datagram as a memoryview of it,
#: and copies a shorter one, whose small allocation pymalloc makes cheap.
_COPY_MAX = 512


class HeaderError(ValueError):
    """Bytes that cannot be decoded into a valid SplitHeader."""


class _HeaderFields(NamedTuple):
    timestamp: int
    num_blocks: int
    content_type: int
    size: int
    sender_clock: int = 0


def _check_stamps(timestamp: int, content_type: int, sender_clock: int,
                  clocks: int = 1) -> Tuple[int, int, int]:
    """The fields a sender picks, as ints; ValueError unless they fit their wire ranges.

    clocks is the number of headers stamped sender_clock, sender_clock + 1,
    ...; the last of them must still fit 64 bits.
    """
    # plain ints in range, the common case, pass without a check_int call each
    if (type(timestamp) is int and type(content_type) is int and type(sender_clock) is int
            and 0 <= timestamp <= _U64_MAX and 0 <= content_type <= _U16_MAX
            and 0 <= sender_clock <= _U64_MAX + 1 - clocks):
        return timestamp, content_type, sender_clock
    return (check_int(timestamp, "timestamp", 0, _U64_MAX),
            check_int(content_type, "content_type", 0, _U16_MAX),
            check_int(sender_clock, "sender_clock", 0, _U64_MAX + 1 - clocks))


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
        timestamp, content_type, sender_clock = _check_stamps(
            timestamp, content_type, sender_clock)
        num_blocks = check_int(num_blocks, "num_blocks", 1, _U16_MAX)
        size = check_int(size, "size", HEADER_LEN, MAX_DATAGRAM)
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
    """Decode one received datagram; raises HeaderError on any mismatch.

    A datagram is well formed when decode_header accepts it and its size
    field equals its length; that test is made here in one step, and
    decode_header names the fault of any other datagram.
    """
    if len(data) >= HEADER_LEN:
        fields = _HEADER.unpack_from(data)
        if fields[1] and fields[3] == len(data) <= MAX_DATAGRAM:
            return tuple.__new__(Chunk, (tuple.__new__(SplitHeader, fields),
                                         bytes(data[HEADER_LEN:])))
    header = decode_header(data)
    raise HeaderError(f"size field {header.size} does not match datagram length {len(data)}")


def chunk_count(payload_len: int, max_datagram: int = DEFAULT_MAX_DATAGRAM) -> int:
    """Number of chunks chunk_subframe splits a payload_len-byte payload into.

    Raises ValueError if max_datagram is out of range or the count does
    not fit the 16-bit num_blocks field.
    """
    if not (type(max_datagram) is int and HEADER_LEN < max_datagram <= MAX_DATAGRAM):
        max_datagram = check_int(max_datagram, "max_datagram", HEADER_LEN + 1, MAX_DATAGRAM)
    num_blocks = -(-payload_len // (max_datagram - HEADER_LEN))
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
    timestamp, content_type, sender_clock = _check_stamps(
        timestamp, content_type, sender_clock, num_blocks)
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
    """Per-stream receive state machine: assemble up to WINDOW subframes at once.

    Each open timestamp has one assembly with its own deadline; the one
    the last taken chunk went to is current, and advance extends it. A
    chunk of an open timestamp advances its assembly (None) or finishes it
    (Complete, the chunks joined in sender_clock order). A chunk is stale
    (Malformed) if its timestamp is WINDOW or more below the newest seen,
    or has already finished, expired or been evicted. Otherwise a chunk of
    a new timestamp opens an assembly, or completes at once, opening none,
    if its message has one block. A chunk that finds an assembly WINDOW or
    more below the newest timestamp evicts it, the oldest first: accept
    returns Jumbled without taking the chunk, which the caller offers
    again. poll_timeout() expires an assembly DEFAULT_TIMEOUT_NS after its
    first chunk, the earliest deadline first.

    All chunks of an assembly must share content_type and the announced
    num_blocks, and carry distinct sender_clock values; disagreement or a
    repeated sender_clock rejects the chunk (Malformed) without touching
    the assembly. Instances are single-consumer, never shared.
    """

    def __init__(self) -> None:
        # the current assembly
        self._payloads: Dict[int, Union[bytes, memoryview]] = {}  # sender_clock -> payload
        self._timestamp: Optional[int] = None
        self._num_blocks = 0
        self._content_type = 0
        self._deadline = 0
        # timestamp -> (num_blocks, content_type, payloads, deadline) of every
        # other open assembly
        self._parked: Dict[int, Tuple[int, int, Dict[int, Union[bytes, memoryview]], int]] = {}
        # the earliest deadline of all open assemblies; None while none is open
        self._first_deadline: Optional[int] = None
        self._newest = -1  # the newest timestamp seen; -1 before the first
        # Slot ts % WINDOW holds the latest timestamp that finished, expired
        # or was evicted with that remainder; only ts itself is in the window.
        self._closed = [-1] * WINDOW

    @property
    def in_progress(self) -> bool:
        return self._first_deadline is not None

    def accept(self, chunk: Chunk, now_ns: int) -> Optional[ReassemblyEvent]:
        """Feed one decoded chunk; returns its outcome, or None while assembling."""
        header = chunk.header
        ts = header.timestamp
        if ts != self._timestamp:
            if ts > self._newest:
                self._newest = ts
            elif ts <= self._newest - WINDOW or self._closed[ts % WINDOW] == ts:
                return Malformed("stale", timestamp=ts)
            if self._first_deadline is not None:
                evicted = self._evict()
                if evicted is not None:
                    return Jumbled(evicted, ts)
                if ts in self._parked:
                    self._resume(ts)
            if ts != self._timestamp:
                if header.num_blocks == 1:
                    self._closed[ts % WINDOW] = ts
                    return Complete(ts, chunk.payload)
                self._start(chunk, now_ns)
                return None
        if header.num_blocks != self._num_blocks:
            return Malformed("inconsistent_blocks", timestamp=ts)
        if header.content_type != self._content_type:
            return Malformed("inconsistent_type", timestamp=ts)
        clock = header.sender_clock
        if clock in self._payloads:
            return Malformed("duplicate", timestamp=ts)
        self._payloads[clock] = chunk.payload
        if len(self._payloads) == self._num_blocks:
            return self._finish()
        return None

    def advance(self, arrivals: Sequence[Tuple[int, bytes]], i: int) -> int:
        """Hold arrivals[i], arrivals[i + 1], ... while each only advances the current assembly.

        arrivals are (recv_ns, datagram) pairs. Returns the index of the
        first arrival not held (len(arrivals) if every one was). A
        datagram is held exactly when feeding it through
        chunk_from_datagram, poll_timeout and accept would time nothing
        out and return None from accept: at least one more block is still
        missing after this one, the header continues the current assembly
        (same timestamp, num_blocks and content_type), size ==
        len(datagram) <= MAX_DATAGRAM, its recv_ns is before every open
        assembly's deadline and the sender_clock is new. Nothing else
        changes. The first condition is checked before the header is
        unpacked, so a message's last chunk is left unread for accept. A
        held payload over _COPY_MAX bytes is a memoryview of its datagram.
        """
        if self._num_blocks - len(self._payloads) < 2:
            return i
        ts, blocks, ctype = self._timestamp, self._num_blocks, self._content_type
        payloads, deadline = self._payloads, self._first_deadline
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
            payloads[clock] = (memoryview(datagram)[HEADER_LEN:] if size > _COPY_MAX
                               else datagram[HEADER_LEN:])
            i += 1
        return i

    def poll_timeout(self, now_ns: int) -> Optional[Timeout]:
        """Expire the open assembly with the earliest deadline, once that is reached.

        Returns None while no open assembly's deadline has been reached;
        call it until then to expire every one that has.
        """
        first = self._first_deadline
        if first is None or now_ns < first:
            return None
        if self._timestamp is not None and self._deadline == first:
            ts = self._timestamp
            event = Timeout(ts, len(self._payloads), self._num_blocks)
            self._clear()
        else:
            ts = min(self._parked, key=lambda t: self._parked[t][3])
            blocks, _, payloads, _ = self._parked.pop(ts)
            event = Timeout(ts, len(payloads), blocks)
            self._first_deadline = self._earliest_deadline()
        self._close(ts)
        return event

    def _evict(self) -> Optional[int]:
        """Drop the oldest open assembly if it is WINDOW or more below the newest
        timestamp; returns its timestamp, or None if none is."""
        oldest = self._timestamp
        if self._parked:
            parked = min(self._parked)
            if oldest is None or parked < oldest:
                oldest = parked
        if oldest > self._newest - WINDOW:
            return None
        if oldest == self._timestamp:
            self._clear()
        else:
            del self._parked[oldest]
            self._first_deadline = self._earliest_deadline()
        return oldest

    def _park(self) -> None:
        """Set the current assembly, if any, aside among the other open ones."""
        if self._timestamp is not None:
            self._parked[self._timestamp] = (
                self._num_blocks, self._content_type, self._payloads, self._deadline)

    def _resume(self, ts: int) -> None:
        """Make the parked assembly of ts current, parking the current one."""
        self._park()
        self._num_blocks, self._content_type, self._payloads, self._deadline = (
            self._parked.pop(ts))
        self._timestamp = ts

    def _start(self, chunk: Chunk, now_ns: int) -> None:
        """Open an assembly for chunk and make it current, parking the current one."""
        self._park()
        header = chunk.header
        self._timestamp = header.timestamp
        self._num_blocks = header.num_blocks
        self._content_type = header.content_type
        self._payloads = {header.sender_clock: chunk.payload}
        self._deadline = deadline = now_ns + DEFAULT_TIMEOUT_NS
        first = self._first_deadline
        if first is None or deadline < first:
            self._first_deadline = deadline

    def _finish(self) -> Complete:
        ts = self._timestamp
        payloads = self._payloads
        payload = b"".join(map(payloads.__getitem__, sorted(payloads)))
        self._close(ts)
        self._clear()
        return Complete(ts, payload)

    def _close(self, ts: int) -> None:
        """Mark ts finished; below the window it is stale anyway."""
        if ts > self._newest - WINDOW:
            self._closed[ts % WINDOW] = ts

    def _clear(self) -> None:
        """Forget the current assembly."""
        self._timestamp = None
        self._num_blocks = 0
        self._content_type = 0
        self._payloads = {}
        self._deadline = 0
        self._first_deadline = self._earliest_deadline() if self._parked else None

    def _earliest_deadline(self) -> Optional[int]:
        deadlines = [entry[3] for entry in self._parked.values()]
        if self._timestamp is not None:
            deadlines.append(self._deadline)
        return min(deadlines, default=None)
