"""DU-RU fronthaul emulation: load-dependent bandwidth measurement.

The emulator transports bit-accounting payloads rather than real PHY data:
downlink subframes carry pseudorandom hard-bit bytes of the scheduled
size, uplink subframes carry quantized codes of pseudorandom LLRs (one
code per downlink-equivalent bit, so the uplink volume is the scheduled
size times the soft-bit width). Per subframe the DU additionally emits a
64-byte control message and the RU a periodic 8-byte CQI report.

Uplink codes are drawn without a float LLR: each code indexes a
2^16-entry inverse-CDF table, which quantize_llr builds once per run from
the quantiles of the N(0, LLR_SCALE^2) Gaussian. Each code's probability
is within 2^-16 of the quantized Gaussian's; at w = 16 that is the
sampler's resolution. A message's codes are drawn, indexed and packed in
slabs of SOFT_SLAB_CODES, so no array as long as the message is built;
the joined slabs are byte-identical to one full-length draw and pack.
The indices are the little-endian 16-bit halves of raw 64-bit PCG64
words. The 32-bit half that Generator.integers keeps in the bit
generator's has_uint32/uinteger is read once per message and written
back at its end, so the indices, and every later draw, equal what
integers(0, 2**16, k, dtype=np.uint16) gives slab by slab. pack_codes
merges the codes pairwise into 2w-bit pairs and 4w-bit quads and lays
each group of 8 out as w big-endian bytes.

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
import io
import json
import math
import selectors
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from .cell import CellConfig, require_ints
from .channel import (
    SUBFRAME_NS,
    ChannelSpec,
    SimulatedChannel,
    UdpEndpoint,
    parse_addr,
)
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
)
from .rates import rate_73_dl
from .wire import (
    _HEADER,
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

CHUNK_SPACING_NS = 1_000
CQI_PERIOD = 5
# The backlog of offered bits holds at most this many subframes of capacity.
MAX_BACKLOG_SUBFRAMES = 10
LLR_SCALE = 4.0
LLR_TABLE_BITS = 16
# Uplink codes are drawn and packed this many at a time. A multiple of 8
# packs to whole bytes at every width; an even count of uint16 draws uses
# whole 32-bit generator words. Both keep the joined slabs' bytes equal to
# one full-length draw and pack.
SOFT_SLAB_CODES = 1 << 16

_MCS_FOR_MOD = {2: 6, 4: 14, 6: 23, 8: 27}


@dataclass(frozen=True)
class TrafficProfile:
    """Offered user traffic: a constant-bit-rate UDP packet stream."""

    goodput_bps: float
    packet_size_bytes: int = 1400
    duration_subframes: int = 1000

    def __post_init__(self) -> None:
        require_ints(self, "packet_size_bytes", "duration_subframes")
        if not (math.isfinite(self.goodput_bps) and self.goodput_bps >= 0):
            raise ValueError(f"goodput_bps must be finite and >= 0, got {self.goodput_bps}")
        if self.packet_size_bytes < 1:
            raise ValueError("packet_size_bytes must be >= 1")
        if self.duration_subframes < 1:
            raise ValueError("duration_subframes must be >= 1")


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


class SubframeReceiver:
    """Receive-side demultiplexer: one reassembly buffer per content type."""

    def __init__(self) -> None:
        self.malformed_headers = 0
        self._buffers: Dict[int, ReassemblyBuffer] = {}

    def feed(self, datagram: bytes, now_ns: int) -> List[Tuple[int, ReassemblyEvent]]:
        """Decode and accept one datagram; returns its (content_type, event) outcomes.

        Outcomes are Complete, Jumbled, Timeout and Malformed; a chunk that
        only advances its assembly returns []. An assembly whose deadline
        passed before this datagram arrived times out first. Jumble
        discards are reported from the buffer's displaced records so that
        a discard paired with an instant Complete still surfaces.
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
        events: List[Tuple[int, ReassemblyEvent]] = []
        if buf.in_progress:
            expired = buf.poll_timeout(now_ns)
            if expired is not None:
                events.append((ctype, expired))
        event = buf.accept(chunk, now_ns)
        if buf.displaced:
            for old, new in buf.drain_displaced():
                events.append((ctype, Jumbled(old, new)))
        if event is not None and not isinstance(event, Jumbled):
            events.append((ctype, event))
        return events

    def feed_many(
        self, arrivals: Iterable[Tuple[int, bytes]]
    ) -> List[Tuple[int, ReassemblyEvent]]:
        """Feed (recv_ns, datagram) arrivals in order; returns feed's outcomes, joined.

        The events, and the receiver's state after them, are exactly those
        of calling feed once per arrival. A datagram that only advances the
        assembly open for its content type is held by
        ReassemblyBuffer.advance without decoding a Chunk; every other one,
        including each that completes a message, goes through feed, so
        ReassemblyBuffer.accept still produces every Complete. Both run
        modes feed each direction's arrivals of a subframe this way.
        """
        events: List[Tuple[int, ReassemblyEvent]] = []
        buffers = self._buffers
        unpack = _HEADER.unpack_from
        for recv_ns, datagram in arrivals:
            if len(datagram) >= HEADER_LEN:
                header = unpack(datagram)
                buf = buffers.get(header[2])
                if buf is not None and buf.advance(header, datagram, recv_ns):
                    continue
            events += self.feed(datagram, recv_ns)
        return events

    def poll(self, now_ns: int) -> List[Tuple[int, ReassemblyEvent]]:
        events = []
        for ctype, buf in self._buffers.items():
            expired = buf.poll_timeout(now_ns)
            if expired is not None:
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
        dci_count = 1 + t % 3
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
) -> None:
    k = 0
    for ctype, payload in msgs:
        chunks = chunk_subframe(t, ctype, payload, max_datagram, sender_clock=base_ns)
        meter.record_emission(ctype, t, len(payload), chunks)
        for chunk in chunks:
            k += 1
            send(chunk.to_datagram(), base_ns + k * CHUNK_SPACING_NS)


def _dl_messages(t, scheduled_bits, cfg, payload_rng) -> List[Tuple[int, bytes]]:
    msgs = [(CONTENT_DL_CONTROL, encode_control(make_control(t, scheduled_bits, cfg)))]
    if scheduled_bits:
        msgs.append((CONTENT_DL_DATA, payload_rng.bytes((scheduled_bits + 7) // 8)))
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


def _ul_messages(t, scheduled_bits, cfg, code_table, llr_rng) -> List[Tuple[int, bytes]]:
    msgs = []
    if scheduled_bits:
        # Generator.integers(0, 1 << 16, k, dtype=np.uint16) takes each
        # uint16 from a 32-bit draw, low half first, and drops the high
        # half of an odd count's last one. A 32-bit draw is the low half of
        # a raw 64-bit word; the high half waits in has_uint32/uinteger for
        # the next 32-bit draw. Reproduce both from raw words, so that the
        # codes and every later draw equal integers' slab by slab.
        bit_gen = llr_rng.bit_generator
        state = bit_gen.state
        has, carry = state["has_uint32"], state["uinteger"]
        slabs = []
        for start in range(0, scheduled_bits, SOFT_SLAB_CODES):
            k = min(SOFT_SLAB_CODES, scheduled_bits - start)
            n32 = (k + 1) // 2  # the 32-bit draws the slab takes
            # the pending half first, then whole raw words for the rest
            words = bit_gen.random_raw((n32 - has + 1) // 2)
            words = words.astype("<u8", copy=False).view("<u4")
            if has:
                words = np.concatenate((np.array([carry], dtype="<u4"), words))
            has = int(words.size > n32)
            if has:
                carry = int(words[n32])
            u = words[:n32].view("<u2")[:k]
            # take(u) gathers a slab faster than code_table[u] does: about
            # 9 against 12 ms per 3 M codes (numpy 2.4, 2-vCPU x86 host)
            slabs.append(pack_codes(code_table.take(u), cfg.soft_bit_width))
            # Free the slab's arrays before the next slab draws, so the
            # allocator can hand the same blocks back: kept alive, they
            # made lte20's 3-slab message 1.3-1.7 times as slow.
            del words, u
        if (has, carry) != (state["has_uint32"], state["uinteger"]):
            state = bit_gen.state
            state["has_uint32"], state["uinteger"] = has, carry
            bit_gen.state = state
        msgs.append((CONTENT_UL_SOFT, b"".join(slabs)))
    if t % CQI_PERIOD == 0:
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
) -> Tuple[List[int], int, Tuple[Iterator, Iterator], List[np.random.SeedSequence], int]:
    """The set-up both run modes share, done before any socket or datagram.

    Returns the offered bits of every subframe, the offered bits dropped,
    each subframe's downlink and uplink message lists (synthesized one
    subframe per step), two seeds for the simulated channels and the byte
    length of the run's largest message. Raises ValueError when the cell
    carries no bit per subframe, the soft-bit width cannot be packed or a
    message cannot be chunked.
    """
    offered, scheduled, dropped_bits = _traffic_schedule(cfg, profile)
    # Every scheduled bit is answered by soft_bit_width >= 2 uplink bits, so
    # the largest soft-bit message is the largest message of the run.
    largest = -(-max(scheduled) * cfg.soft_bit_width // 8)
    chunk_count(largest, max_datagram)
    s_payload, s_llr, *channel_seeds = np.random.SeedSequence(seed).spawn(4)
    payload_rng = np.random.Generator(np.random.PCG64(s_payload))
    llr_rng = np.random.Generator(np.random.PCG64(s_llr))
    code_table = _llr_code_table(LlrQuantizer(cfg.soft_bit_width))
    dl_messages = (_dl_messages(t, bits, cfg, payload_rng)
                   for t, bits in enumerate(scheduled))
    ul_messages = (_ul_messages(t, bits, cfg, code_table, llr_rng)
                   for t, bits in enumerate(scheduled))
    return offered, dropped_bits, (dl_messages, ul_messages), channel_seeds, largest


def _run_loop(
    offered: List[int], dropped_bits: int, messages: Tuple[Iterator, Iterator], links,
    start_ns: int, settle_ns: int, seed: int, goodput_bps: float, max_datagram: int,
) -> EmulationReport:
    """The one DU-RU loop of both run modes, on the calling thread.

    messages and links hold the downlink, then the uplink. A link is a
    pair of functions: send(datagram, send_ns) puts one datagram on it,
    and deliver_until(ns) returns the (recv_ns, datagram) arrivals due by
    ns. Subframe t starts at start_ns + t * SUBFRAME_NS: the DU and the RU
    emit its messages, then each direction in turn feeds its arrivals up
    to the subframe's end through feed_many and meters the events. After
    the last subframe the loop waits settle_ns once for stragglers. No
    poll is needed to expire assemblies: feed expires an open one before
    the next datagram of its content type, advance refuses a datagram past
    the deadline, the meter ignores Timeout events and _finalize counts
    every open assembly as a timeout. An OSError, which only socket I/O
    raises, ends the run early and marks the report incomplete.
    """
    duration = len(offered)
    dl_meter, ul_meter = _DirMeter(duration), _DirMeter(duration)
    dirs = [(stream, send, deliver_until, SubframeReceiver(), meter)
            for stream, (send, deliver_until), meter
            in zip(messages, links, (dl_meter, ul_meter))]
    incomplete = False
    try:
        for t in range(duration):
            base_ns = start_ns + t * SUBFRAME_NS
            for stream, send, _, _, meter in dirs:
                _emit(meter, send, next(stream), t, base_ns, max_datagram)
            end_ns = base_ns + SUBFRAME_NS
            for _, _, deliver_until, rx, meter in dirs:
                meter.record_events(rx.feed_many(deliver_until(end_ns - 1)))
        end_ns = start_ns + duration * SUBFRAME_NS + settle_ns
        for _, _, deliver_until, rx, meter in dirs:
            # The one poll changes no report; perfbench/spans.py times
            # SubframeReceiver.poll, and TestBenchmarkHooks needs it to run.
            meter.record_events(rx.feed_many(deliver_until(end_ns)) + rx.poll(end_ns))
    except OSError:
        incomplete = True
    return _finalize(offered, dl_meter, ul_meter, dropped_bits,
                     seed, goodput_bps, incomplete)


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
    offered, dropped_bits, messages, (s_dl, s_ul), _ = _prepare(
        cfg, profile, seed, max_datagram)
    dl = SimulatedChannel(channel, s_dl)
    ul = SimulatedChannel(channel, s_ul)
    # Let in-flight datagrams land and pending assemblies expire.
    settle_ns = DEFAULT_TIMEOUT_NS + dl.delay_ns + 2 * SUBFRAME_NS
    return _run_loop(offered, dropped_bits, messages,
                     ((dl.send, dl.deliver_until), (ul.send, ul.deliver_until)),
                     0, settle_ns, seed, profile.goodput_bps, max_datagram)


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
    offered, dropped_bits, messages, _, largest = _prepare(
        cfg, profile, seed, max_datagram)
    with contextlib.ExitStack() as stack:
        du, ru = (stack.enter_context(contextlib.closing(UdpEndpoint(addr)))
                  for addr in (du_addr, ru_addr))
        selector = stack.enter_context(selectors.DefaultSelector())
        # One direction's largest subframe is the largest message plus one
        # short one (control or CQI), each datagram at most max_datagram
        # bytes; Linux charges under 1 KiB more per datagram on loopback.
        rcvbuf = (chunk_count(largest, max_datagram) + 1) * (max_datagram + 1024)
        # The RU receives the downlink and the DU the uplink.
        dl_inbox: List[Tuple[int, bytes]] = []
        ul_inbox: List[Tuple[int, bytes]] = []
        for endpoint, inbox in ((ru, dl_inbox), (du, ul_inbox)):
            endpoint.reserve_rcvbuf(rcvbuf)
            selector.register(endpoint.sock, selectors.EVENT_READ, (endpoint, inbox))

        def deliver_until(inbox: List, until_ns: int) -> List[Tuple[int, bytes]]:
            # Read both sockets, one datagram per ready socket per select,
            # until until_ns has passed and neither has more.
            while True:
                wait_ns = until_ns - time.monotonic_ns()
                ready = selector.select(max(wait_ns, 0) / 1e9)
                if not ready and wait_ns <= 0:
                    break
                for key, _ in ready:
                    endpoint, box = key.data
                    datagram = endpoint.recv()
                    if datagram is not None:
                        box.append((time.monotonic_ns(), datagram))
            arrivals = inbox[:]
            inbox.clear()
            return arrivals

        ru_peer, du_peer = parse_addr(ru.address), parse_addr(du.address)
        links = ((lambda d, _ns: du.send_to(d, ru_peer),
                  functools.partial(deliver_until, dl_inbox)),
                 (lambda d, _ns: ru.send_to(d, du_peer),
                  functools.partial(deliver_until, ul_inbox)))
        # 50 ms of stragglers is 25 reassembly timeouts.
        return _run_loop(offered, dropped_bits, messages, links,
                         time.monotonic_ns(), 50 * SUBFRAME_NS,
                         seed, profile.goodput_bps, max_datagram)
