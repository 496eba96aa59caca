"""Run-time spans and counters around the layers that run_emulation calls.

Nothing under src/ is edited: while a traced call runs, the module and
class attributes that run_emulation resolves are replaced by wrappers,
and restored afterwards. Each wrapper records one span (name, start, end,
parent) in flat in-memory arrays; a few of them also count outcomes at
the same boundary. Spans are written out once, when the run ends.

A hook whose target no longer exists is skipped and reported in
`Tracer.missing`, so a refactor of the emulator degrades the per-layer
figures instead of breaking the benchmark.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

# (metric, owner path, attribute). The owner path is resolved against the
# fhsplit package; "emulation" entries are module globals that
# run_emulation looks up on every call.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("emulation.loop_ms", "emulation", "_emit"),
    ("emulation.synth_ms", "emulation", "_dl_messages"),
    ("emulation.synth_ms", "emulation", "_ul_messages"),
    ("llr.quantize_ms", "emulation", "quantize_llr"),
    ("llr.pack_ms", "emulation", "pack_codes"),
    ("messages.encode_ms", "emulation", "make_control"),
    ("messages.encode_ms", "emulation", "encode_control"),
    ("messages.encode_ms", "emulation", "encode_cqi"),
    ("wire.chunk_ms", "emulation", "chunk_subframe"),
    ("wire.encode_ms", "wire.Chunk", "to_datagram"),
    ("channel.send_ms", "emulation.SimulatedChannel", "send"),
    ("channel.deliver_ms", "emulation.SimulatedChannel", "deliver_until"),
    ("emulation.rx_ms", "emulation.SubframeReceiver", "feed"),
    ("emulation.rx_ms", "emulation.SubframeReceiver", "poll"),
    ("wire.decode_ms", "emulation", "chunk_from_datagram"),
    ("wire.reassembly_ms", "emulation.ReassemblyBuffer", "accept"),
    ("wire.reassembly_ms", "emulation.ReassemblyBuffer", "poll_timeout"),
    ("emulation.meter_ms", "emulation._DirMeter", "record_emission"),
    ("emulation.meter_ms", "emulation._DirMeter", "record_event"),
    ("emulation.report_ms", "emulation", "_finalize"),
)
ROOT_METRIC = "emulation.loop_ms"
ROOT_SPAN = "emulation.run_emulation"
SPAN_METRIC = {f"{owner}.{attr}": metric for metric, owner, attr in SPAN_TARGETS}
SPAN_METRIC[ROOT_SPAN] = ROOT_METRIC
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))


@dataclass
class Counters:
    """Outcome counts gathered at the wrapped boundaries."""

    datagrams: int = 0
    sent: int = 0
    dropped: int = 0
    reordered: int = 0
    max_in_flight: int = 0
    header_rejects: int = 0
    accepted: int = 0
    useful_chunks: int = 0
    corrupt_completes: int = 0
    codes: int = 0
    latencies_ns: List[int] = field(default_factory=list)


class Tracer:
    """Flat span store plus the patching that feeds it."""

    def __init__(self, fhsplit_pkg) -> None:
        self._pkg = fhsplit_pkg
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counters = Counters()
        self.missing: List[str] = []
        # (content_type, timestamp) -> chunks the sender produced, for
        # the content check; reset for every call.
        self._sent: Dict[Tuple[int, int], list] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that every call records one span named `name`."""
        nid = self._name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def self_time_ns(self) -> Dict[str, int]:
        """Span duration minus the part covered by its child spans, per name."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per_name = np.bincount(
            np.frombuffer(self.name, dtype=np.uint16), weights=dur - child,
            minlength=len(self.names),
        )
        return {name: int(per_name[i]) for i, name in enumerate(self.names)}

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time summed per layer metric; the values add up to the root spans."""
        out = dict.fromkeys(TIME_METRICS, 0)
        for name, ns in self.self_time_ns().items():
            out[SPAN_METRIC[name]] += ns
        return out

    def root_ns(self) -> int:
        """Total duration of the root spans, one per traced call."""
        if ROOT_SPAN not in self._name_ids:
            return 0
        name = np.frombuffer(self.name, dtype=np.uint16)
        root = name == self._name_ids[ROOT_SPAN]
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return int((end[root] - start[root]).sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    # -- patching ---------------------------------------------------------

    def _resolve(self, owner_path: str):
        obj = self._pkg
        for part in owner_path.split("."):
            obj = getattr(obj, part)
        return obj

    def install(self) -> None:
        """Replace every hooked attribute; restore() undoes it."""
        for _, owner_path, attr in SPAN_TARGETS:
            try:
                owner = self._resolve(owner_path)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                label = f"{owner_path}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            observed = self._observer(owner_path, attr, original) or original
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.span(f"{owner_path}.{attr}", observed))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_call(self) -> None:
        self._sent = {}

    # -- counting observers -----------------------------------------------

    def _observer(self, owner_path: str, attr: str, fn: Callable):
        """Return a counting wrapper for the boundaries that count outcomes."""
        c = self.counters
        key = f"{owner_path}.{attr}"
        if key == "emulation.quantize_llr":
            def quantize(values, q):
                codes = fn(values, q)
                c.codes += codes.size
                return codes
            return quantize
        if key == "emulation.chunk_subframe":
            sent = self

            def chunk(*args, **kwargs):
                chunks = fn(*args, **kwargs)
                h = chunks[0].header
                sent._sent[(h.content_type, h.timestamp)] = chunks
                return chunks
            return chunk
        if key == "wire.Chunk.to_datagram":
            def to_datagram(chunk):
                c.datagrams += 1
                return fn(chunk)
            return to_datagram
        if key == "emulation.SimulatedChannel.send":
            def send(channel, datagram, now_ns):
                dropped, reordered = channel.dropped, channel.reordered
                fn(channel, datagram, now_ns)
                c.sent += 1
                c.dropped += channel.dropped - dropped
                c.reordered += channel.reordered - reordered
                if channel.in_flight > c.max_in_flight:
                    c.max_in_flight = channel.in_flight
            return send
        if key == "emulation.chunk_from_datagram":
            header_error = self._pkg.wire.HeaderError

            def decode(data):
                try:
                    return fn(data)
                except header_error:
                    c.header_rejects += 1
                    raise
            return decode
        if key == "emulation.ReassemblyBuffer.accept":
            complete = self._pkg.wire.Complete
            sent = self

            def accept(buf, chunk, now_ns):
                event = fn(buf, chunk, now_ns)
                c.accepted += 1
                if type(event) is complete:
                    c.useful_chunks += chunk.header.num_blocks
                    chunks = sent._sent.get((chunk.header.content_type, event.timestamp))
                    if chunks is None or event.payload != b"".join(x.payload for x in chunks):
                        c.corrupt_completes += 1
                    if chunks is not None:
                        c.latencies_ns.append(now_ns - chunks[0].header.sender_clock)
                return event
            return accept
        return None
