"""Datagram channels: a deterministic impairment simulator and UDP sockets.

The simulated channel runs on a virtual nanosecond clock. Senders stamp
each datagram with its emission instant; the channel applies loss, a fixed
propagation delay and optional cross-subframe reordering (a held-back
datagram is delayed by one extra subframe period), then releases datagrams
in delivery-time order. Behaviour is a pure function of the parameters and
the seed.
"""

from __future__ import annotations

import heapq
import socket
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

SUBFRAME_NS = 1_000_000


@dataclass(frozen=True)
class ChannelSpec:
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_us: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if not 0.0 <= self.reorder_rate <= 1.0:
            raise ValueError("reorder_rate must be in [0, 1]")
        if self.delay_us < 0:
            raise ValueError("delay_us must be >= 0")


class SimulatedChannel:
    """One-directional datagram pipe with seeded impairments."""

    def __init__(self, spec: ChannelSpec, seed) -> None:
        self.spec = spec
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._pending: List[Tuple[int, int, bytes]] = []
        self._seq = 0
        self.sent = 0
        self.dropped = 0
        self.reordered = 0

    def send(self, datagram: bytes, now_ns: int) -> None:
        self.sent += 1
        if self.spec.loss_rate > 0 and self._rng.random() < self.spec.loss_rate:
            self.dropped += 1
            return
        delay_ns = int(self.spec.delay_us * 1000)
        if self.spec.reorder_rate > 0 and self._rng.random() < self.spec.reorder_rate:
            self.reordered += 1
            delay_ns += SUBFRAME_NS
        heapq.heappush(self._pending, (now_ns + delay_ns, self._seq, datagram))
        self._seq += 1

    def deliver_until(self, now_ns: int) -> List[Tuple[int, bytes]]:
        """Pop every datagram due at or before now_ns, in delivery order."""
        out = []
        while self._pending and self._pending[0][0] <= now_ns:
            delivery_ns, _, datagram = heapq.heappop(self._pending)
            out.append((delivery_ns, datagram))
        return out

    @property
    def in_flight(self) -> int:
        return len(self._pending)


def parse_addr(addr: str) -> Tuple[str, int]:
    """Parse 'host:port' into a socket address tuple."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {addr!r} must look like host:port")
    return host, int(port)


class UdpEndpoint:
    """Thin UDP socket wrapper used by the socket-mode emulation."""

    def __init__(self, bind_addr: str) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.bind(parse_addr(bind_addr))
        except BaseException:
            self.sock.close()
            raise
        self.sock.settimeout(0.01)

    @property
    def address(self) -> str:
        host, port = self.sock.getsockname()
        return f"{host}:{port}"

    def send_to(self, datagram: bytes, peer: Tuple[str, int]) -> None:
        self.sock.sendto(datagram, peer)

    def recv(self) -> Optional[bytes]:
        try:
            data, _ = self.sock.recvfrom(65_535)
            return data
        except socket.timeout:
            return None

    def close(self) -> None:
        self.sock.close()
