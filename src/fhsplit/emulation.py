"""DU-RU fronthaul emulation: load-dependent bandwidth measurement.

The emulator transports bit-accounting payloads rather than real PHY data:
downlink subframes carry pseudorandom hard-bit bytes of the scheduled
size, uplink subframes carry quantized codes of pseudorandom LLRs (one
code per downlink-equivalent bit, so the uplink volume is the scheduled
size times the soft-bit width). Per subframe the DU additionally emits a
64-byte control message and the RU a periodic 8-byte CQI report.

A downlink data message of n bytes is the first n bytes of the next
ceil(n/8) raw 64-bit words of the run's payload stream, each word
little-endian; the rest of the last word is dropped, so nothing carries
over from one message to the next.

Uplink codes are drawn without a float LLR. Once per run quantize_llr
maps the midpoint quantiles of the N(0, LLR_SCALE^2) Gaussian to a
2^16-entry inverse-CDF code table; each code's share of the table is
within 2^-16 of its quantized-Gaussian probability. The run's LLR stream
shuffles the table once and pack_codes packs it into a pool of 2^16
codes (8192 groups of 8, w bytes each). A message of n codes takes one
raw 64-bit word of that stream, whose top 13 bits pick a group g, and is
the ceil(n*w/8) bytes of the pool read cyclically from byte g*w, with the
unused low bits of its last byte zeroed. So codes repeat with period
2^16 within and across messages, and each code's marginal distribution
over seeds is exactly the table's.

The meter counts bytes on the wire per direction (payload plus the
22-byte header of every chunk) and classifies every emitted subframe
message as completed, jumbled or timed out; messages that never reach the
receiver at all are charged as timeouts. Simulated runs are a pure
function of their parameters and the seed.

Three logical actors - DU endpoint, RU endpoint, channel - communicate
only by datagrams; the meter aggregates records from both endpoints. Both
run modes drive them from one single-threaded loop that sends one traffic
schedule, computed before the run starts: the in-process mode on a
deterministic virtual clock over simulated channels, socket mode on the
wall clock over two UDP sockets.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import io
import json
import selectors
import time
from dataclasses import asdict, astuple, dataclass, fields
from numbers import Integral
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .cell import CellConfig, check_int, check_real, require_ints, require_reals
from .channel import SUBFRAME_NS, ChannelSpec, SimulatedChannel, UdpEndpoint, UdpLink
from .llr import LlrQuantizer, pack_codes, quantize_llr
from .messages import (
    CONTENT_DL_CONTROL,
    CONTENT_DL_DATA,
    CONTENT_UL_CQI,
    CONTENT_UL_SOFT,
    ControlDl,
    CqiReport,
    encode_control,
    encode_cqi,
    subframe_payload_sizes,
)
from .rates import rate_73_dl
from .wire import (
    DEFAULT_MAX_DATAGRAM,
    DEFAULT_TIMEOUT_NS,
    HEADER_LEN,
    Chunk,
    Complete,
    HeaderError,
    Jumbled,
    Malformed,
    ReassemblyBuffer,
    ReassemblyEvent,
    chunk_count,
    chunk_from_datagram,
    chunk_subframe,
)

CQI_PERIOD = 5
# A busy subframe's control message carries 1 + t % DCI_PERIOD DCIs.
DCI_PERIOD = 3
# The backlog of offered bits holds at most this many subframes of capacity.
MAX_BACKLOG_SUBFRAMES = 10
LLR_SCALE = 4.0
LLR_TABLE_BITS = 16

_MCS_FOR_MOD = {2: 6, 4: 14, 6: 23, 8: 27}


@dataclass(frozen=True)
class TrafficProfile:
    """Offered user traffic: a constant-bit-rate UDP packet stream."""

    goodput_bps: float
    packet_size_bytes: int = 1400
    duration_subframes: int = 1000

    def __post_init__(self) -> None:
        require_ints(self, "packet_size_bytes", "duration_subframes", minimum=1)
        require_reals(self, "goodput_bps")
        g = self.goodput_bps
        object.__setattr__(self, "goodput_bps", int(g) if isinstance(g, Integral) else float(g))


def subframe_capacity_bits(cfg: CellConfig) -> int:
    """Downlink payload bits one 1 ms subframe can carry.

    Exact whenever the symbol rate is a multiple of 1000 (it is for every
    LTE/NR numerology); otherwise the sub-millisecond remainder is floored.
    """
    return rate_73_dl(cfg) // 1000


def _traffic_schedule(
    cfg: CellConfig, profile: TrafficProfile
) -> Tuple[List[int], List[int], int]:
    """Offered and scheduled downlink bits of every subframe, and the bits dropped.

    Arrivals are the profile's constant bit rate quantized to whole
    packets by an exact integer accumulator. Bits that do not fit a
    subframe wait in a backlog capped at MAX_BACKLOG_SUBFRAMES subframes
    of capacity; anything beyond the cap is offered but dropped. Both run
    modes read this one schedule; the uplink answers each scheduled
    downlink bit with one soft-bit code. Raises ValueError for a cell that
    carries less than one bit per subframe.
    """
    capacity = subframe_capacity_bits(cfg)
    if capacity < 1:
        raise ValueError(f"the cell carries {capacity} bits per subframe; at least 1 is needed")
    max_backlog = MAX_BACKLOG_SUBFRAMES * capacity
    packet_bits = profile.packet_size_bytes * 8
    # bits/s accumulated once per 1 ms subframe are millibits
    millibits = int(round(profile.goodput_bps))
    quantum = packet_bits * 1000
    acc = backlog = dropped = 0
    offered, scheduled = [], []
    for _ in range(profile.duration_subframes):
        acc += millibits
        bits = acc // quantum * packet_bits
        acc %= quantum
        backlog += bits
        sent = min(backlog, capacity)
        backlog -= sent
        if backlog > max_backlog:
            dropped += backlog - max_backlog
            backlog = max_backlog
        offered.append(bits)
        scheduled.append(sent)
    return offered, scheduled, dropped


def expected_completions(
    cfg: CellConfig, profile: TrafficProfile, loss_rate: float,
    max_datagram: int = DEFAULT_MAX_DATAGRAM,
) -> Dict[str, Tuple[float, float]]:
    """Mean and variance of each direction's completed messages under loss alone.

    With each datagram lost independently at loss_rate and none reordered,
    a message of n chunks completes with probability q = (1 - loss_rate)^n,
    so over the messages _dl_messages and _ul_messages emit for the traffic
    schedule a direction completes sum(q) on average, with variance
    sum(q * (1 - q)). Raises ValueError unless loss_rate is in [0, 1].
    """
    check_real(loss_rate, "loss_rate", at_most_one=True)
    _, scheduled, _ = _traffic_schedule(cfg, profile)
    sizes: Dict[str, List[int]] = {"dl": [], "ul": []}
    for t, bits in enumerate(scheduled):
        dl, ul = subframe_payload_sizes(bits, cfg.soft_bit_width, t % CQI_PERIOD == 0)
        sizes["dl"].extend(dl.values())
        sizes["ul"].extend(ul.values())
    moments = {}
    for direction, lengths in sizes.items():
        q = [(1 - loss_rate) ** chunk_count(n, max_datagram) for n in lengths]
        moments[direction] = (sum(q), sum(x * (1 - x) for x in q))
    return moments


class SubframeReceiver:
    """Receive-side demultiplexer: one reassembly buffer per content type."""

    def __init__(self) -> None:
        self.malformed_headers = 0
        self._buffers: Dict[int, ReassemblyBuffer] = {}
        # the buffer that the last decoded datagram went to
        self._fed: Optional[ReassemblyBuffer] = None

    def feed(self, datagram: bytes, now_ns: int) -> List[Tuple[int, ReassemblyEvent]]:
        """Decode and accept one datagram; returns its (content_type, event) outcomes.

        Outcomes are Complete, Jumbled, Timeout and Malformed; a chunk that
        only advances its assembly returns []. Every assembly whose
        deadline passed before this datagram arrived times out first. A
        chunk that evicts an assembly (Jumbled) is offered again, until it
        is taken or rejected.
        """
        try:
            chunk = chunk_from_datagram(datagram)
        except HeaderError:
            self.malformed_headers += 1
            return []
        ctype = chunk.header.content_type
        buf = self._buffers.get(ctype)
        if buf is None:
            buf = self._buffers[ctype] = ReassemblyBuffer()
        self._fed = buf
        events: List[Tuple[int, ReassemblyEvent]] = []
        if buf.in_progress:
            while (expired := buf.poll_timeout(now_ns)) is not None:
                events.append((ctype, expired))
        event = buf.accept(chunk, now_ns)
        while isinstance(event, Jumbled):
            events.append((ctype, event))
            event = buf.accept(chunk, now_ns)
        if event is not None:
            events.append((ctype, event))
        return events

    def feed_many(
        self, arrivals: Sequence[Tuple[int, bytes]]
    ) -> List[Tuple[int, ReassemblyEvent]]:
        """Feed (recv_ns, datagram) arrivals in order; returns feed's outcomes, joined.

        The events, and the receiver's state after them, are exactly those
        of calling feed once per arrival. After each fed datagram,
        ReassemblyBuffer.advance lets the buffer of the last decoded one
        hold the run of arrivals that only advance its open assembly,
        without decoding a Chunk; the first arrival it does not hold is
        fed. So ReassemblyBuffer.accept still produces every Complete, and
        of the well-formed datagrams only one that breaks a run is
        unpacked twice. Both run modes feed each direction's arrivals
        of a subframe this way; advance reads arrivals by index.
        """
        events: List[Tuple[int, ReassemblyEvent]] = []
        feed = self.feed
        i, end = 0, len(arrivals)
        while i < end:
            recv_ns, datagram = arrivals[i]
            events += feed(datagram, recv_ns)
            i += 1
            if i < end and self._fed is not None:
                i = self._fed.advance(arrivals, i)
        return events

    def poll(self, now_ns: int) -> List[Tuple[int, ReassemblyEvent]]:
        events = []
        for ctype, buf in self._buffers.items():
            while (expired := buf.poll_timeout(now_ns)) is not None:
                events.append((ctype, expired))
        return events


class _DirMeter:
    """Sender- and receiver-side accounting for one link direction."""

    def __init__(self, duration: int):
        self.wire_bits = [0] * duration
        self.emitted: Dict[Tuple[int, int], int] = {}  # (ctype, ts) -> payload bytes
        self.completed: Dict[Tuple[int, int], int] = {}  # -> assembled bytes
        self.jumbled: Set[Tuple[int, int]] = set()
        self.stale_drops = 0
        self.malformed_events = 0
        self.min_chunk_payload: Optional[int] = None

    def record_emission(self, ctype: int, ts: int, payload_len: int,
                        chunks: List[Chunk]) -> None:
        """Record one message: chunks is chunk_subframe's split of its payload.

        Only the last chunk can be shorter than the others, so it holds the
        message's smallest chunk payload.
        """
        self.emitted[(ctype, ts)] = payload_len
        self.wire_bits[ts] += (payload_len + HEADER_LEN * len(chunks)) * 8
        p = len(chunks[-1].payload)
        if self.min_chunk_payload is None or p < self.min_chunk_payload:
            self.min_chunk_payload = p

    def record_event(self, ctype: int, event: ReassemblyEvent) -> None:
        if isinstance(event, Complete):
            self.completed[(ctype, event.timestamp)] = len(event.payload)
        elif isinstance(event, Jumbled):
            self.jumbled.add((ctype, event.old_timestamp))
        elif isinstance(event, Malformed):
            if event.reason == "stale":
                self.stale_drops += 1
            else:
                self.malformed_events += 1
        # Timeout outcomes are derived at finalization from the absence of
        # a complete/jumbled record.

    def record_events(self, events: List[Tuple[int, ReassemblyEvent]]) -> None:
        """Record a receiver's (content_type, event) outcomes.

        Looping here rather than in the run loop frees the last event, which
        may hold a whole message's payload, before the next subframe is made.
        """
        for ctype, event in events:
            self.record_event(ctype, event)


@dataclass(frozen=True)
class SubframeRow:
    subframe: int
    offered_bits: int
    dl_bits: int
    ul_bits: int
    completes: int
    timeouts: int
    jumbled: int


@dataclass(frozen=True)
class DirectionStats:
    emitted_messages: int
    completed_messages: int
    timeout_messages: int
    jumbled_messages: int
    emitted_payload_bits: int
    completed_payload_bits: int
    discarded_payload_bits: int
    wire_bits: int
    min_chunk_payload: Optional[int]
    stale_drops: int
    malformed: int


@dataclass
class EmulationReport:
    """Per-subframe fronthaul consumption series plus run accounting."""

    rows: List[SubframeRow]
    dl: DirectionStats
    ul: DirectionStats
    offered_dropped_bits: int
    seed: int
    goodput_bps: float
    duration_subframes: int
    incomplete: bool = False

    @property
    def mean_offered_bps(self) -> float:
        return sum(r.offered_bits for r in self.rows) * 1000 / self.duration_subframes

    @property
    def mean_dl_bps(self) -> float:
        return sum(r.dl_bits for r in self.rows) * 1000 / self.duration_subframes

    @property
    def mean_ul_bps(self) -> float:
        return sum(r.ul_bits for r in self.rows) * 1000 / self.duration_subframes

    def totals(self) -> Dict[str, int]:
        return {
            "completes": sum(r.completes for r in self.rows),
            "timeouts": sum(r.timeouts for r in self.rows),
            "jumbled": sum(r.jumbled for r in self.rows),
        }

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(SubframeRow))
        writer.writerows(astuple(r) for r in self.rows)
        return buf.getvalue()

    def summary(self) -> Dict:
        totals = self.totals()
        messages = sum(totals.values())
        return {
            "seed": self.seed,
            "goodput_bps": self.goodput_bps,
            "duration_subframes": self.duration_subframes,
            "incomplete": self.incomplete,
            "mean_offered_bps": self.mean_offered_bps,
            "mean_dl_bps": self.mean_dl_bps,
            "mean_ul_bps": self.mean_ul_bps,
            "offered_dropped_bits": self.offered_dropped_bits,
            "events": {
                **totals,
                "timeout_fraction": totals["timeouts"] / messages if messages else 0.0,
            },
            "dl": asdict(self.dl),
            "ul": asdict(self.ul),
        }

    def save(self, out_dir: Union[str, Path]) -> Tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "report.csv"
        json_path = out / "summary.json"
        csv_path.write_text(self.csv_text())
        json_path.write_text(json.dumps(self.summary(), indent=2) + "\n")
        return csv_path, json_path


def make_control(t: int, scheduled_bits: int, cfg: CellConfig) -> ControlDl:
    """Synthetic but deterministic control content for subframe t."""
    if scheduled_bits > 0:
        dci_count = 1 + t % DCI_PERIOD
        return ControlDl(
            dci_count=dci_count,
            dci_positions=tuple(range(dci_count)),
            mcs=_MCS_FOR_MOD[cfg.mod_order],
            rb_position=0,
            power_db=20,
        )
    return ControlDl(0, (), 0, 0, 0)


def _cqi_value(t: int) -> int:
    return 7 + (t // CQI_PERIOD) % 8


def _emit(
    meter: _DirMeter,
    send,
    msgs: List[Tuple[int, bytes]],
    t: int,
    base_ns: int,
    max_datagram: int,
    link: ChannelSpec = ChannelSpec(),
    free_ns: int = 0,
) -> int:
    """Chunk subframe t's messages and send them back to back on link; returns when it is free.

    The link starts at base_ns, the subframe's start, or at free_ns if it
    is still busy then. n bytes take 8e9 * n / link.line_rate_bps ns,
    rounded up exactly, so each datagram starts on a whole nanosecond, and
    send gets it at the end of its transmission. Chunk i of each message is
    stamped sender_clock base_ns + i: a sequence, not an emission time.
    """
    ns = free_ns if free_ns > base_ns else base_ns
    rate = link.line_rate_bps
    full_ns = -(-8_000_000_000 * max_datagram // rate)
    for ctype, payload in msgs:
        chunks = chunk_subframe(t, ctype, payload, max_datagram, base_ns)
        meter.record_emission(ctype, t, len(payload), chunks)
        last = chunks[-1]
        if len(chunks) > 1:
            # every chunk but the last is max_datagram bytes long
            for chunk in chunks[:-1]:
                ns += full_ns
                send(chunk.to_datagram(), ns)
        ns += -(-8_000_000_000 * last.header.size // rate)
        send(last.to_datagram(), ns)
    return ns


def _dl_messages(t, scheduled_bits, cfg, payload_rng,
                 controls: Dict[Tuple[int, bool], bytes]) -> List[Tuple[int, bytes]]:
    """Subframe t's downlink messages: its control payload, then its data if any.

    The data is a read-only view of the raw words drawn for it, not a copy.

    make_control reads t only as t % DCI_PERIOD and scheduled_bits only as
    > 0, so controls, one dict per run, holds each encoded control payload
    under that key and at most six are made.
    """
    key = (t % DCI_PERIOD, scheduled_bits > 0)
    control = controls.get(key)
    if control is None:
        control = controls[key] = encode_control(make_control(t, scheduled_bits, cfg))
    msgs = [(CONTENT_DL_CONTROL, control)]
    dl, _ = subframe_payload_sizes(scheduled_bits, cfg.soft_bit_width, False)
    size = dl.get(CONTENT_DL_DATA)
    if size:
        # raw words cost a fraction of a Generator's byte draw on short payloads
        words = payload_rng.random_raw(-(-size // 8)).astype("<u8", copy=False)
        msgs.append((CONTENT_DL_DATA, memoryview(words.view(np.uint8)[:size]).toreadonly()))
    return msgs


@functools.lru_cache(maxsize=None)
def _llr_quantiles() -> np.ndarray:
    """Read-only midpoint quantiles of N(0, LLR_SCALE^2): entry u is at (u + 1/2) / 2^16."""
    # imported on first use, so that importing fhsplit does not load statistics
    from statistics import NormalDist

    n = 1 << LLR_TABLE_BITS
    inv_cdf = NormalDist(0.0, LLR_SCALE).inv_cdf
    quantiles = np.fromiter((inv_cdf((u + 0.5) / n) for u in range(n)),
                            dtype=np.float64, count=n)
    quantiles.flags.writeable = False
    return quantiles


def _llr_code_table(quantizer: LlrQuantizer) -> np.ndarray:
    """Code of every LLR quantile: indexing it with uniform u draws quantized-Gaussian codes."""
    return quantize_llr(_llr_quantiles(), quantizer).astype(np.int16)


def _ul_messages(t, scheduled_bits, cfg, code_pool, llr_rng) -> List[Tuple[int, bytes]]:
    msgs = []
    w = cfg.soft_bit_width
    _, ul = subframe_payload_sizes(scheduled_bits, w, t % CQI_PERIOD == 0)
    size = ul.get(CONTENT_UL_SOFT)
    if size:
        # the top 13 bits of one raw word pick the group of 8 codes to start at
        start = (int(llr_rng.random_raw()) >> 51) * w
        pool = memoryview(code_pool)
        # The pool read cyclically: the last byte is at `last` after `wraps`
        # wraps. One join copies views of the pool, without a growing buffer.
        wraps, last = divmod(start + size - 1, len(pool))
        views = ([pool[start:], *[pool] * (wraps - 1), pool[:last]] if wraps
                 else [pool[start:last]])
        # the last byte's unused low bits zeroed, as pack_codes leaves them
        pad = -scheduled_bits * w % 8
        views.append(bytes((pool[last] >> pad << pad,)))
        msgs.append((CONTENT_UL_SOFT, b"".join(views)))
    if CONTENT_UL_CQI in ul:
        msgs.append((CONTENT_UL_CQI, encode_cqi(CqiReport(t, _cqi_value(t)))))
    return msgs


def _finalize(
    offered: List[int],
    dl: _DirMeter,
    ul: _DirMeter,
    dropped_bits: int,
    seed: int,
    goodput_bps: float,
    incomplete: bool,
) -> EmulationReport:
    duration = len(offered)
    completes = [0] * duration
    timeouts = [0] * duration
    jumbled = [0] * duration
    stats = []
    for meter in (dl, ul):
        n_complete = n_timeout = n_jumbled = 0
        completed_bits = 0
        discarded_bits = 0
        for (ctype, ts), size in meter.emitted.items():
            if (ctype, ts) in meter.completed:
                completes[ts] += 1
                n_complete += 1
                completed_bits += meter.completed[(ctype, ts)] * 8
            elif (ctype, ts) in meter.jumbled:
                jumbled[ts] += 1
                n_jumbled += 1
                discarded_bits += size * 8
            else:
                timeouts[ts] += 1
                n_timeout += 1
                discarded_bits += size * 8
        stats.append(
            DirectionStats(
                emitted_messages=len(meter.emitted),
                completed_messages=n_complete,
                timeout_messages=n_timeout,
                jumbled_messages=n_jumbled,
                emitted_payload_bits=sum(meter.emitted.values()) * 8,
                completed_payload_bits=completed_bits,
                discarded_payload_bits=discarded_bits,
                wire_bits=sum(meter.wire_bits),
                min_chunk_payload=meter.min_chunk_payload,
                stale_drops=meter.stale_drops,
                malformed=meter.malformed_events,
            )
        )
    rows = [
        SubframeRow(
            subframe=t,
            offered_bits=offered[t],
            dl_bits=dl.wire_bits[t],
            ul_bits=ul.wire_bits[t],
            completes=completes[t],
            timeouts=timeouts[t],
            jumbled=jumbled[t],
        )
        for t in range(duration)
    ]
    return EmulationReport(
        rows=rows,
        dl=stats[0],
        ul=stats[1],
        offered_dropped_bits=dropped_bits,
        seed=seed,
        goodput_bps=goodput_bps,
        duration_subframes=duration,
        incomplete=incomplete,
    )


def _prepare(
    cfg: CellConfig, profile: TrafficProfile, seed: int, max_datagram: int
) -> Tuple[List[int], int, Tuple[Iterator, Iterator], List[np.random.SeedSequence], int, int]:
    """The set-up both run modes share, done before any socket or datagram.

    Returns the offered bits of every subframe, the offered bits dropped,
    each subframe's downlink and uplink message lists (synthesized one
    subframe per step), two seeds for the simulated channels, the byte
    length of the run's largest message and seed as a plain int. Raises
    ValueError when seed is not a non-negative integer, the cell carries
    no bit per subframe, the soft-bit width cannot be packed or a message
    cannot be chunked.
    """
    seed = check_int(seed, "seed", 0)
    offered, scheduled, dropped_bits = _traffic_schedule(cfg, profile)
    # Every scheduled bit is answered by soft_bit_width >= 2 uplink bits, so
    # the largest soft-bit message is the largest message of the run.
    largest = -(-max(scheduled) * cfg.soft_bit_width // 8)
    chunk_count(largest, max_datagram)
    s_payload, s_llr, *channel_seeds = np.random.SeedSequence(seed).spawn(4)
    payload_rng = np.random.PCG64(s_payload)
    llr_rng = np.random.PCG64(s_llr)
    code_table = _llr_code_table(LlrQuantizer(cfg.soft_bit_width))
    # shuffling an index and gathering is cheaper than shuffling the table
    order = np.random.Generator(llr_rng).permutation(len(code_table))
    code_pool = pack_codes(code_table[order], cfg.soft_bit_width)
    controls: Dict[Tuple[int, bool], bytes] = {}
    dl_messages = (_dl_messages(t, bits, cfg, payload_rng, controls)
                   for t, bits in enumerate(scheduled))
    ul_messages = (_ul_messages(t, bits, cfg, code_pool, llr_rng)
                   for t, bits in enumerate(scheduled))
    return offered, dropped_bits, (dl_messages, ul_messages), channel_seeds, largest, seed


def _run_loop(
    offered: List[int], dropped_bits: int, messages: Tuple[Iterator, Iterator], links,
    start_ns: int, settle_ns: int, seed: int, goodput_bps: float, max_datagram: int,
    link_spec: ChannelSpec = ChannelSpec(),
) -> EmulationReport:
    """The one DU-RU loop of both run modes, on the calling thread.

    messages and links hold the downlink, then the uplink. A link is an
    object: send(datagram, send_ns) puts one datagram on it, and
    deliver_until(ns) returns the (recv_ns, datagram) arrivals due by
    ns. Subframe t starts at start_ns + t * SUBFRAME_NS: the DU and the RU
    emit its messages through _emit, each direction's datagrams back to
    back at link_spec's line rate from the subframe's start or from the
    end of that direction's previous subframe, whichever is later, so an
    over-subscribed link falls behind instead of interleaving subframes.
    Then each direction in turn has its arrivals up to the subframe's end
    delivered, fed through feed_many and metered; they are released once
    its next message is made, before that message's datagrams, so two
    subframes' datagrams are never alive at once. After the last subframe
    the loop waits settle_ns once for stragglers; a datagram the link
    sends later never arrives. No poll is needed to expire assemblies:
    feed expires every open one whose deadline has passed before the next
    datagram of its content type, advance refuses a datagram past any open
    deadline, the meter ignores Timeout events and _finalize counts every
    open assembly as a timeout. An OSError, which only socket I/O raises,
    ends the run early and marks the report incomplete; what was read
    before it is still fed.
    """
    # A run makes no reference cycles (tests/test_emulation.py checks), so
    # reference counting frees all it drops and the cyclic collector would
    # only sweep the thousands of live chunk and queue tuples for nothing.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        duration = len(offered)
        dl_meter, ul_meter = _DirMeter(duration), _DirMeter(duration)
        dl_rx, ul_rx = SubframeReceiver(), SubframeReceiver()
        dl_msgs, ul_msgs = messages
        (dl_send, dl_deliver), (ul_send, ul_deliver) = [(k.send, k.deliver_until) for k in links]
        dl_free_ns = ul_free_ns = start_ns  # when each direction's link is next idle
        incomplete = False
        try:
            # the directions written out, not looped over: a loop that
            # carries each link's clock costs more than the clock itself
            for t in range(duration):
                base_ns = start_ns + t * SUBFRAME_NS
                # A direction's arrivals of the previous subframe, fed
                # already, are dropped after its next message is made, so
                # the heap is not handed back to the OS in between, and
                # before its datagrams are made, which reuse their memory.
                msgs = next(dl_msgs)
                dl_arrivals = None
                dl_free_ns = _emit(dl_meter, dl_send, msgs, t, base_ns, max_datagram,
                                   link_spec, dl_free_ns)
                del msgs
                msgs = next(ul_msgs)
                ul_arrivals = None
                ul_free_ns = _emit(ul_meter, ul_send, msgs, t, base_ns, max_datagram,
                                   link_spec, ul_free_ns)
                del msgs
                last_ns = base_ns + SUBFRAME_NS - 1
                dl_arrivals = dl_deliver(last_ns)
                dl_meter.record_events(dl_rx.feed_many(dl_arrivals))
                ul_arrivals = ul_deliver(last_ns)
                ul_meter.record_events(ul_rx.feed_many(ul_arrivals))
            end_ns = start_ns + duration * SUBFRAME_NS + settle_ns
            for deliver_until, rx, meter in ((dl_deliver, dl_rx, dl_meter),
                                             (ul_deliver, ul_rx, ul_meter)):
                # The one poll changes no report; perfbench/spans.py times
                # SubframeReceiver.poll, and TestBenchmarkHooks needs it to run.
                meter.record_events(rx.feed_many(deliver_until(end_ns)) + rx.poll(end_ns))
        except OSError:
            # each delivery is fed before the next link is read, so what
            # was read before the failure already counts
            incomplete = True
        return _finalize(offered, dl_meter, ul_meter, dropped_bits,
                         seed, goodput_bps, incomplete)
    finally:
        if was_enabled:
            gc.enable()


def run_emulation(
    cfg: CellConfig,
    profile: TrafficProfile,
    channel: ChannelSpec = ChannelSpec(),
    seed: int = 0,
    *,
    max_datagram: int = DEFAULT_MAX_DATAGRAM,
) -> EmulationReport:
    """Deterministic in-process DU-RU run over a simulated channel.

    Each direction has its own channel, receiver, meter and random stream,
    so the two are pumped one after the other without changing a result.
    Raises ValueError before the first datagram for any input _prepare
    rejects.
    """
    offered, dropped_bits, messages, (s_dl, s_ul), _, seed = _prepare(
        cfg, profile, seed, max_datagram)
    dl = SimulatedChannel(channel, s_dl)
    ul = SimulatedChannel(channel, s_ul)
    # Let in-flight datagrams land and pending assemblies expire.
    settle_ns = DEFAULT_TIMEOUT_NS + dl.delay_ns + 2 * SUBFRAME_NS
    return _run_loop(offered, dropped_bits, messages, (dl, ul), 0, settle_ns,
                     seed, profile.goodput_bps, max_datagram, channel)


def run_socket_emulation(
    cfg: CellConfig,
    profile: TrafficProfile,
    du_addr: str,
    ru_addr: str,
    seed: int = 0,
    *,
    max_datagram: int = DEFAULT_MAX_DATAGRAM,
) -> EmulationReport:
    """Real-time DU-RU run over UDP sockets (loopback friendly).

    The shared loop runs on the monotonic wall clock: it sends a whole
    subframe from both endpoints, then reads both sockets through one
    selector until the subframe ends, stamping each datagram as it is
    read, and waits 50 ms for stragglers after the last subframe. Each
    socket's receive buffer is sized to hold the run's largest subframe
    (Linux caps it at net.core.rmem_max). Wall-clock timing makes the
    event outcomes non-deterministic, unlike the simulated mode. Raises
    ValueError before binding for any input _prepare rejects, ValueError
    for a malformed address and OSError when an address cannot be bound;
    an OSError mid-run marks the report incomplete instead.
    """
    offered, dropped_bits, messages, _, largest, seed = _prepare(
        cfg, profile, seed, max_datagram)
    with contextlib.ExitStack() as stack:
        du, ru = (stack.enter_context(contextlib.closing(UdpEndpoint(addr)))
                  for addr in (du_addr, ru_addr))
        selector = stack.enter_context(selectors.DefaultSelector())
        # One direction's largest subframe is the largest message plus one
        # short one (control or CQI), each datagram at most max_datagram
        # bytes; Linux charges under 1 KiB more per datagram up to a page,
        # and the doubling reserve_rcvbuf allows for covers the larger
        # charge above one.
        rcvbuf = (chunk_count(largest, max_datagram) + 1) * (max_datagram + 1024)
        for endpoint in (ru, du):
            endpoint.reserve_rcvbuf(rcvbuf)
        # The RU receives the downlink and the DU the uplink.
        links = UdpLink(du, ru, selector), UdpLink(ru, du, selector)
        # 50 ms of stragglers is 25 reassembly timeouts.
        return _run_loop(offered, dropped_bits, messages, links,
                         time.monotonic_ns(), 50 * SUBFRAME_NS,
                         seed, profile.goodput_bps, max_datagram)
