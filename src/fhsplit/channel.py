"""Datagram links: a deterministic impairment simulator and UDP sockets.

A link is one direction of a run: send(datagram, send_ns) puts a datagram
on it, and deliver_until(ns) returns the (recv_ns, datagram) arrivals due
by ns. SimulatedChannel and UdpLink are the two kinds.

The simulated channel runs on a virtual nanosecond clock. A sender hands
it each datagram at the end of the datagram's transmission on a link of
ChannelSpec.line_rate_bps (emulation._emit keeps that clock); the channel
applies loss, a fixed propagation delay and optional cross-subframe
reordering (a held-back datagram is delayed by one extra subframe
period), then releases datagrams in delivery-time order, ties in send
order. Send times need not rise, and a held-back datagram falls behind
later sends, so the queue is a list kept stably sorted by delivery time:
send appends, and deliver_until sorts, which keeps ties in send order and
takes linear time on the already-sorted runs, then cuts off the
datagrams that are due (the whole list when all are).
Each loss and each reorder decision takes one uniform of the channel's
seeded stream, loss first, and only when its rate is above zero, so a
clean channel draws nothing. A uniform is one raw 64-bit word w of a bare
PCG64(seed), as (w >> 11) * 2**-53: the value Generator.random makes of
the same word. Words are read UNIFORM_BLOCK at a time and used in order.
Behaviour is a pure function of the parameters and the seed.
"""

from __future__ import annotations

import math
import selectors
import socket
import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, List, Tuple

import numpy as np

from .cell import require_reals

SUBFRAME_NS = 1_000_000
#: The link's line rate unless a ChannelSpec states one: 25 GbE, the
#: smallest standard rate that carries saturated worst100 uplink (22.35
#: Gbit/s on the wire, rates.wire_bits_73).
DEFAULT_LINE_RATE_BPS = 25_000_000_000
# Raw words read per call of the channel's bit generator; one numpy call
# costs several scalar draws, so a block makes each decision's draw cheap.
UNIFORM_BLOCK = 1024
_DELIVERY_NS = itemgetter(0)


def _uniforms(random_raw: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The uniform of every word of random_raw(UNIFORM_BLOCK), block after block.

    A word's top 53 bits times 2**-53 is exact in a float64. A module-level
    generator over the bound method, so that it holds no reference back to
    the channel that reads it: a reference cycle would keep each run's
    channels alive until the cyclic collector ran.
    """
    while True:
        yield from ((random_raw(UNIFORM_BLOCK) >> 11) * 2.0 ** -53).tolist()


@dataclass(frozen=True)
class ChannelSpec:
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_us: float = 0.0
    line_rate_bps: int = DEFAULT_LINE_RATE_BPS

    def __post_init__(self) -> None:
        require_reals(self, "loss_rate", "reorder_rate", at_most_one=True)
        require_reals(self, "delay_us")
        if not math.isfinite(float(self.delay_us) * 1000):
            raise ValueError(f"delay_us must be finite in nanoseconds, got {self.delay_us}")
        require_reals(self, "line_rate_bps", positive=True)
        if self.line_rate_bps != int(self.line_rate_bps):
            raise ValueError(
                f"line_rate_bps must be a whole number of bit/s, got {self.line_rate_bps}")
        # a plain int, so that transmission times are exact integer arithmetic
        object.__setattr__(self, "line_rate_bps", int(self.line_rate_bps))


class SimulatedChannel:
    """One-directional datagram pipe with seeded impairments."""

    def __init__(self, spec: ChannelSpec, seed) -> None:
        self.spec = spec
        self.delay_ns = int(spec.delay_us * 1000)
        self._impaired = spec.loss_rate > 0 or spec.reorder_rate > 0
        self._uniform = _uniforms(np.random.PCG64(seed).random_raw).__next__
        self._pending: List[Tuple[int, bytes]] = []  # (delivery_ns, datagram)
        self.sent = 0
        self.dropped = 0
        self.reordered = 0

    def send(self, datagram: bytes, now_ns: int) -> None:
        self.sent += 1
        if not self._impaired:
            self._pending.append((now_ns + self.delay_ns, datagram))
            return
        spec = self.spec
        if spec.loss_rate > 0 and self._uniform() < spec.loss_rate:
            self.dropped += 1
            return
        delay_ns = self.delay_ns
        if spec.reorder_rate > 0 and self._uniform() < spec.reorder_rate:
            self.reordered += 1
            delay_ns += SUBFRAME_NS
        self._pending.append((now_ns + delay_ns, datagram))

    def deliver_until(self, now_ns: int) -> List[Tuple[int, bytes]]:
        """Remove every datagram due at or before now_ns; returns them in delivery order."""
        pending = self._pending
        pending.sort(key=_DELIVERY_NS)
        if not pending or pending[-1][0] <= now_ns:  # all of them, the common case
            self._pending = []
            return pending
        due = bisect_right(pending, now_ns, key=_DELIVERY_NS)
        out = pending[:due]
        del pending[:due]
        return out

    @property
    def in_flight(self) -> int:
        return len(self._pending)


def parse_addr(addr: str) -> Tuple[str, int]:
    """Parse 'host:port' into a socket address tuple; the port must be in 0-65535."""
    if not isinstance(addr, str):
        raise ValueError(f"address {addr!r} must be a host:port string")
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {addr!r} must look like host:port")
    if not (port.isdecimal() and int(port) <= 65535):
        raise ValueError(f"address {addr!r} needs a port number in 0-65535")
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

    @property
    def address(self) -> str:
        host, port = self.sock.getsockname()
        return f"{host}:{port}"

    def reserve_rcvbuf(self, nbytes: int) -> None:
        """Grow the receive buffer to nbytes; Linux caps it at net.core.rmem_max.

        Linux reports twice the size it keeps, the half on top for its own
        bookkeeping (socket(7)), so the request is compared in that form.
        """
        if self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) < 2 * nbytes:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, nbytes)

    def send_to(self, datagram: bytes, peer: Tuple[str, int]) -> None:
        self.sock.sendto(datagram, peer)

    def close(self) -> None:
        self.sock.close()


class UdpLink:
    """One direction of a socket run, on the wall clock: sender's datagrams to receiver's socket.

    send puts a datagram on the socket at once: its send time does not pace
    a socket. Links built on one selector read all of its sockets whenever
    one of them delivers, so both directions of a run are read together,
    each datagram stamped with time.monotonic_ns() as it is read.
    """

    def __init__(self, sender: UdpEndpoint, receiver: UdpEndpoint,
                 selector: selectors.BaseSelector) -> None:
        self._send_to = sender.send_to
        self._peer = receiver.sock.getsockname()
        self._selector = selector
        self._inbox: List[Tuple[int, bytes]] = []
        selector.register(receiver.sock, selectors.EVENT_READ,
                          (receiver.sock.recv, self._inbox))

    def send(self, datagram: bytes, send_ns: int) -> None:
        self._send_to(datagram, self._peer)

    def deliver_until(self, now_ns: int) -> List[Tuple[int, bytes]]:
        """Read until now_ns has passed and no socket has more; returns this link's arrivals.

        Each ready socket is read until it has nothing queued. Only reads
        are non-blocking (MSG_DONTWAIT): a send may still wait for room in
        its socket's send buffer, as a real link's burst needs.
        """
        while True:
            wait_ns = now_ns - time.monotonic_ns()
            ready = self._selector.select(max(wait_ns, 0) / 1e9)
            if not ready and wait_ns <= 0:
                break
            for key, _ in ready:
                recv, inbox = key.data
                try:
                    while True:
                        datagram = recv(65_535, socket.MSG_DONTWAIT)
                        inbox.append((time.monotonic_ns(), datagram))
                except BlockingIOError:
                    pass
        arrivals = self._inbox[:]
        self._inbox.clear()
        return arrivals
