"""DU-RU fronthaul emulation: load-dependent bandwidth measurement.

The emulator transports bit-accounting payloads rather than real PHY data:
downlink subframes carry pseudorandom hard-bit bytes of the scheduled
size, uplink subframes carry quantized codes of pseudorandom LLRs (one
code per downlink-equivalent bit, so the uplink volume is the scheduled
size times the soft-bit width). Per subframe the DU additionally emits a
64-byte control message and the RU a periodic 8-byte CQI report.

The meter counts bytes on the wire per direction (payload plus the
22-byte header of every chunk) and classifies every emitted subframe
message as completed, jumbled or timed out; messages that never reach the
receiver at all are charged as timeouts. Simulated runs are a pure
function of their parameters and the seed.

Three logical actors - DU endpoint, RU endpoint, channel - communicate
only by datagrams; the meter aggregates records from both endpoints. The
in-process mode drives all three from one deterministic virtual-time
loop; socket mode runs each endpoint's send and receive paths as threads.
Both modes send one traffic schedule, computed before the run starts.
"""

from __future__ import annotations

import csv
import io
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from .cell import CellConfig, Direction
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
from .rates import rate_73_dl, rate_73_ul
from .wire import (
    DEFAULT_TIMEOUT_NS,
    HEADER_LEN,
    Chunk,
    Complete,
    HeaderError,
    Jumbled,
    Malformed,
    ReassemblyBuffer,
    ReassemblyEvent,
    chunk_from_datagram,
    chunk_subframe,
)

CHUNK_SPACING_NS = 1_000
CQI_PERIOD = 5
LLR_SCALE = 4.0

_MCS_FOR_MOD = {2: 6, 4: 14, 6: 23, 8: 27}


@dataclass(frozen=True)
class TrafficProfile:
    """Offered user traffic: a constant-bit-rate UDP packet stream."""

    goodput_bps: float
    packet_size_bytes: int = 1400
    duration_subframes: int = 1000

    def __post_init__(self) -> None:
        if self.goodput_bps < 0:
            raise ValueError("goodput_bps must be >= 0")
        if self.packet_size_bytes < 1:
            raise ValueError("packet_size_bytes must be >= 1")
        if self.duration_subframes < 1:
            raise ValueError("duration_subframes must be >= 1")


def subframe_capacity_bits(cfg: CellConfig, direction: Direction = Direction.DL) -> int:
    """Payload bits one 1 ms subframe can carry for a direction.

    Exact whenever the symbol rate is a multiple of 1000 (it is for every
    LTE/NR numerology); otherwise the sub-millisecond remainder is floored.
    """
    if direction is Direction.DL:
        return rate_73_dl(cfg) // 1000
    return rate_73_ul(cfg) // 1000


class TrafficScheduler:
    """Per-subframe scheduler with a bounded carry-over backlog.

    Bits that do not fit a subframe wait in a backlog capped at
    max_backlog_subframes worth of capacity; anything beyond the cap is
    counted as offered-but-dropped.
    """

    def __init__(self, capacity_bits: int, max_backlog_subframes: int = 10):
        if capacity_bits < 1:
            raise ValueError("capacity_bits must be >= 1")
        self.capacity_bits = capacity_bits
        self.max_backlog_bits = max_backlog_subframes * capacity_bits
        self.backlog_bits = 0
        self.dropped_bits = 0

    @classmethod
    def for_cell(
        cls, cfg: CellConfig, direction: Direction = Direction.DL
    ) -> "TrafficScheduler":
        return cls(subframe_capacity_bits(cfg, direction))

    def schedule_subframe(self, offered_bits: int) -> int:
        if offered_bits < 0:
            raise ValueError("offered_bits must be >= 0")
        self.backlog_bits += offered_bits
        scheduled = min(self.backlog_bits, self.capacity_bits)
        self.backlog_bits -= scheduled
        if self.backlog_bits > self.max_backlog_bits:
            self.dropped_bits += self.backlog_bits - self.max_backlog_bits
            self.backlog_bits = self.max_backlog_bits
        return scheduled


class _PacketArrivals:
    """CBR arrivals quantized to whole packets, exact integer accumulator."""

    def __init__(self, profile: TrafficProfile):
        self._packet_bits = profile.packet_size_bytes * 8
        # bits/s accumulated once per 1 ms subframe = millibits
        self._millibits_per_subframe = int(round(profile.goodput_bps))
        self._acc = 0

    def next_subframe(self) -> int:
        self._acc += self._millibits_per_subframe
        quantum = self._packet_bits * 1000
        packets = self._acc // quantum
        self._acc -= packets * quantum
        return packets * self._packet_bits


def _traffic_schedule(
    cfg: CellConfig, profile: TrafficProfile
) -> Tuple[List[int], List[int], int]:
    """Offered and scheduled downlink bits of every subframe, and the bits dropped.

    Both run modes read this one schedule; the uplink answers each
    scheduled downlink bit with one soft-bit code.
    """
    arrivals = _PacketArrivals(profile)
    scheduler = TrafficScheduler.for_cell(cfg, Direction.DL)
    offered = [arrivals.next_subframe() for _ in range(profile.duration_subframes)]
    scheduled = [scheduler.schedule_subframe(bits) for bits in offered]
    return offered, scheduled, scheduler.dropped_bits


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

    def poll(self, now_ns: int) -> List[Tuple[int, ReassemblyEvent]]:
        events = []
        for ctype, buf in self._buffers.items():
            expired = buf.poll_timeout(now_ns)
            if expired is not None:
                events.append((ctype, expired))
        return events


class _DirMeter:
    """Sender- and receiver-side accounting for one link direction.

    record_emission and record_event write disjoint fields, so one sender
    thread and one receiver thread may record into the same meter at once.
    """

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
        writer.writerow(
            ["subframe", "offered_bits", "dl_bits", "ul_bits",
             "completes", "timeouts", "jumbled"]
        )
        for r in self.rows:
            writer.writerow(
                [r.subframe, r.offered_bits, r.dl_bits, r.ul_bits,
                 r.completes, r.timeouts, r.jumbled]
            )
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


def _ul_messages(t, scheduled_bits, cfg, quantizer, llr_rng) -> List[Tuple[int, bytes]]:
    msgs = []
    if scheduled_bits:
        llrs = llr_rng.standard_normal(scheduled_bits)
        llrs *= LLR_SCALE
        codes = quantize_llr(llrs, quantizer)
        msgs.append((CONTENT_UL_SOFT, pack_codes(codes, cfg.soft_bit_width)))
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


def _pump(
    channel: SimulatedChannel,
    rx: SubframeReceiver,
    meter: _DirMeter,
    deliver_ns: int,
    poll_ns: int,
) -> None:
    """Feed one direction's datagrams due by deliver_ns, then expire by poll_ns."""
    for recv_ns, datagram in channel.deliver_until(deliver_ns):
        for ctype, event in rx.feed(datagram, recv_ns):
            meter.record_event(ctype, event)
    for ctype, event in rx.poll(poll_ns):
        meter.record_event(ctype, event)


def run_emulation(
    cfg: CellConfig,
    profile: TrafficProfile,
    channel: ChannelSpec = ChannelSpec(),
    seed: int = 0,
    *,
    max_datagram: int = 1472,
) -> EmulationReport:
    """Deterministic in-process DU-RU run over a simulated channel.

    Each direction has its own channel, receiver, meter and random stream,
    so the two are pumped one after the other without changing a result.
    """
    offered, scheduled, dropped_bits = _traffic_schedule(cfg, profile)
    duration = len(offered)
    s_payload, s_llr, s_dl, s_ul = np.random.SeedSequence(seed).spawn(4)
    payload_rng = np.random.Generator(np.random.PCG64(s_payload))
    llr_rng = np.random.Generator(np.random.PCG64(s_llr))
    quantizer = LlrQuantizer(cfg.soft_bit_width)
    dl_channel = SimulatedChannel(channel, s_dl)
    ul_channel = SimulatedChannel(channel, s_ul)
    dl_meter = _DirMeter(duration)
    ul_meter = _DirMeter(duration)
    links = (
        (dl_channel, SubframeReceiver(), dl_meter),
        (ul_channel, SubframeReceiver(), ul_meter),
    )

    for t in range(duration):
        base_ns = t * SUBFRAME_NS
        _emit(dl_meter, dl_channel.send,
              _dl_messages(t, scheduled[t], cfg, payload_rng), t, base_ns, max_datagram)
        _emit(ul_meter, ul_channel.send,
              _ul_messages(t, scheduled[t], cfg, quantizer, llr_rng), t, base_ns,
              max_datagram)
        for link in links:
            _pump(*link, base_ns + SUBFRAME_NS - 1, base_ns + SUBFRAME_NS)

    # Let in-flight datagrams land and pending assemblies expire.
    settle_ns = (
        duration * SUBFRAME_NS
        + DEFAULT_TIMEOUT_NS
        + int(channel.delay_us * 1000)
        + 2 * SUBFRAME_NS
    )
    for link in links:
        _pump(*link, settle_ns, settle_ns)

    return _finalize(
        offered, dl_meter, ul_meter, dropped_bits,
        seed, profile.goodput_bps, incomplete=False,
    )


def run_socket_emulation(
    cfg: CellConfig,
    profile: TrafficProfile,
    du_addr: str,
    ru_addr: str,
    seed: int = 0,
    *,
    max_datagram: int = 1472,
) -> EmulationReport:
    """Real-time DU-RU run over UDP sockets (loopback friendly).

    Both endpoints send the shared traffic schedule on their own 1 ms
    wall clocks, so no coordination channel is needed. Wall-clock timing
    makes the event outcomes non-deterministic, unlike the simulated mode.
    Raises OSError when an address cannot be bound; mid-run endpoint
    failures mark the report incomplete instead of aborting.
    """
    offered, scheduled, dropped_bits = _traffic_schedule(cfg, profile)
    duration = len(offered)
    s_payload, s_llr = np.random.SeedSequence(seed).spawn(2)
    payload_rng = np.random.Generator(np.random.PCG64(s_payload))
    llr_rng = np.random.Generator(np.random.PCG64(s_llr))
    quantizer = LlrQuantizer(cfg.soft_bit_width)

    du = UdpEndpoint(du_addr)
    try:
        ru = UdpEndpoint(ru_addr)
    except OSError:
        du.close()
        raise

    dl_meter = _DirMeter(duration)
    ul_meter = _DirMeter(duration)
    stop = threading.Event()
    errors: List[BaseException] = []

    def send_loop(endpoint: UdpEndpoint, peer: Tuple[str, int], meter: _DirMeter,
                  messages) -> None:
        """Emit the t-th message list t subframe periods after the start."""
        start_ns = time.monotonic_ns()
        for t, msgs in enumerate(messages):
            delay_ns = start_ns + t * SUBFRAME_NS - time.monotonic_ns()
            if delay_ns > 0:
                time.sleep(delay_ns / 1e9)
            _emit(meter, lambda d, _ns: endpoint.send_to(d, peer), msgs, t,
                  time.monotonic_ns(), max_datagram)

    def recv_loop(endpoint: UdpEndpoint, meter: _DirMeter) -> None:
        rx = SubframeReceiver()
        while not stop.is_set():
            datagram = endpoint.recv()
            now = time.monotonic_ns()
            events = rx.feed(datagram, now) if datagram is not None else []
            for ctype, event in events + rx.poll(now):
                meter.record_event(ctype, event)

    def guarded(fn, *args):
        def wrapper():
            try:
                fn(*args)
            except BaseException as exc:  # noqa: BLE001 - reported via flag
                errors.append(exc)
                stop.set()

        return wrapper

    dl_messages = (_dl_messages(t, scheduled[t], cfg, payload_rng)
                   for t in range(duration))
    ul_messages = (_ul_messages(t, scheduled[t], cfg, quantizer, llr_rng)
                   for t in range(duration))
    senders = [
        threading.Thread(target=guarded(send_loop, du, parse_addr(ru.address),
                                        dl_meter, dl_messages), name="du-send"),
        threading.Thread(target=guarded(send_loop, ru, parse_addr(du.address),
                                        ul_meter, ul_messages), name="ru-send"),
    ]
    receivers = [
        threading.Thread(target=guarded(recv_loop, ru, dl_meter), name="ru-recv"),
        threading.Thread(target=guarded(recv_loop, du, ul_meter), name="du-recv"),
    ]
    try:
        for th in senders + receivers:
            th.start()
        for th in senders:
            th.join()
        # Let stragglers land: 50 ms is 25 reassembly timeouts.
        time.sleep(0.05)
        stop.set()
        for th in receivers:
            th.join()
    finally:
        stop.set()
        du.close()
        ru.close()

    # Assemblies still open count as timeouts: _finalize finds no record.
    return _finalize(
        offered, dl_meter, ul_meter, dropped_bits,
        seed, profile.goodput_bps, incomplete=bool(errors),
    )
