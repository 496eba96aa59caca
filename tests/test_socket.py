"""Socket-mode emulation over loopback UDP.

Real sockets and wall-clock pacing make these runs nondeterministic, so
the assertions are structural and tolerant: the run must finish, account
for every emitted message, and deliver the vast majority on loopback.
"""

import selectors
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from fhsplit import emulation
from fhsplit.cell import CellConfig, preset
from fhsplit.channel import UdpEndpoint, UdpLink, parse_addr
from fhsplit.emulation import TrafficProfile, run_emulation, run_socket_emulation

LTE10 = preset("lte10")
LTE20 = preset("lte20")


class TestParseAddr:
    def test_host_port(self):
        assert parse_addr("127.0.0.1:9000") == ("127.0.0.1", 9000)

    # a non-string used to raise AttributeError from str.rpartition
    @pytest.mark.parametrize("bad", ["localhost", ":90", "h:", "h:x", "h:70000", "h:-1",
                                     5000, True, None])
    def test_bad_addresses(self, bad):
        with pytest.raises(ValueError, match=f"address {bad!r} "):
            parse_addr(bad)


class TestUdpEndpoint:
    def test_ephemeral_bind_and_echo(self):
        a = UdpEndpoint("127.0.0.1:0")
        b = UdpEndpoint("127.0.0.1:0")
        try:
            a.send_to(b"ping", parse_addr(b.address))
            b.sock.settimeout(0.5)
            assert b.sock.recv(65_535) == b"ping"
        finally:
            a.close()
            b.close()

    def test_failed_bind_closes_its_socket(self, monkeypatch):
        opened = []

        class RecordingSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        holder = UdpEndpoint("127.0.0.1:0")
        try:
            monkeypatch.setattr(socket, "socket", RecordingSocket)
            with pytest.raises(OSError):
                UdpEndpoint(holder.address)
        finally:
            holder.close()
        [sock] = opened
        assert sock.fileno() == -1

    def test_reserve_rcvbuf_grows_but_never_shrinks(self):
        a = UdpEndpoint("127.0.0.1:0")
        try:
            def rcvbuf():
                return a.sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)

            before = rcvbuf()
            a.reserve_rcvbuf(1024)
            assert rcvbuf() == before
            a.reserve_rcvbuf(before + 4096)
            assert rcvbuf() >= before + 4096
        finally:
            a.close()


class TestUdpLink:
    def test_links_on_one_selector_read_both_sockets(self):
        du, ru = UdpEndpoint("127.0.0.1:0"), UdpEndpoint("127.0.0.1:0")
        try:
            with selectors.DefaultSelector() as selector:
                dl, ul = UdpLink(du, ru, selector), UdpLink(ru, du, selector)
                dl.send(b"down", 0)
                ul.send(b"up", 0)
                start = time.monotonic_ns()
                assert [d for _, d in dl.deliver_until(start + 5_000_000)] == [b"down"]
                returned = time.monotonic_ns()
                # read by the downlink's call, so it needs no wait
                [(stamp, datagram)] = ul.deliver_until(time.monotonic_ns())
                assert datagram == b"up" and start <= stamp <= returned
                assert dl.deliver_until(time.monotonic_ns()) == []
                assert ul.deliver_until(time.monotonic_ns()) == []
        finally:
            du.close()
            ru.close()


class TestSocketRun:
    def test_loopback_run_accounts_for_all_messages(self):
        profile = TrafficProfile(goodput_bps=6e6, duration_subframes=120)
        report = run_socket_emulation(
            LTE10, profile, "127.0.0.1:0", "127.0.0.1:0", seed=3
        )
        assert not report.incomplete
        assert len(report.rows) == 120
        totals = report.totals()
        emitted = report.dl.emitted_messages + report.ul.emitted_messages
        assert sum(totals.values()) == emitted
        # loopback should deliver nearly everything
        assert totals["completes"] >= 0.9 * emitted
        assert report.mean_dl_bps > 0 and report.mean_ul_bps > 0

    @pytest.mark.parametrize("max_datagram", [1472, 256, 9000])
    def test_meters_the_same_emissions_as_sim_mode(self, max_datagram):
        # both modes share one set-up and loop, so the sender side of the
        # meter is the same; only arrivals depend on the wall clock
        profile = TrafficProfile(goodput_bps=20e6, duration_subframes=40)
        sim = run_emulation(LTE10, profile, seed=5, max_datagram=max_datagram)
        sock = run_socket_emulation(LTE10, profile, "127.0.0.1:0", "127.0.0.1:0",
                                    seed=5, max_datagram=max_datagram)
        assert not sock.incomplete

        def emissions(report):
            return ([(r.offered_bits, r.dl_bits, r.ul_bits) for r in report.rows],
                    report.offered_dropped_bits,
                    [(d.emitted_messages, d.emitted_payload_bits, d.wire_bits,
                      d.min_chunk_payload) for d in (report.dl, report.ul)])

        assert emissions(sock) == emissions(sim)
        assert sim.offered_dropped_bits == 0 and sim.dl.emitted_messages == 80

    @pytest.mark.parametrize("max_datagram", [4000, 9000])
    def test_large_datagrams_are_not_dropped(self, monkeypatch, max_datagram):
        # Linux reports twice the receive buffer it keeps. Compared with the
        # request as it was, the buffer never grew at these sizes, and the
        # kernel's drops were metered as jumbles (at 9000 B, 60 of 360
        # uplink messages completed over 300 subframes).
        try:
            rmem_max = int(Path("/proc/sys/net/core/rmem_max").read_text())
        except OSError:
            pytest.skip("net.core.rmem_max cannot be read")
        requests = []

        class RecordingEndpoint(UdpEndpoint):
            def reserve_rcvbuf(self, nbytes):
                requests.append(nbytes)
                super().reserve_rcvbuf(nbytes)

        monkeypatch.setattr(emulation, "UdpEndpoint", RecordingEndpoint)
        report = run_socket_emulation(LTE20, TrafficProfile(134e6, 1400, 100),
                                      "127.0.0.1:0", "127.0.0.1:0", seed=1,
                                      max_datagram=max_datagram)
        if rmem_max < max(requests):
            pytest.skip(f"net.core.rmem_max is {rmem_max} bytes, below the "
                        f"{max(requests)} bytes a subframe needs")
        assert not report.incomplete
        assert report.dl.jumbled_messages == report.ul.jumbled_messages == 0
        assert report.ul.completed_messages > 0

    def test_runs_on_the_calling_thread(self, monkeypatch):
        def no_thread(thread):
            raise AssertionError(f"socket mode started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        profile = TrafficProfile(goodput_bps=6e6, duration_subframes=20)
        report = run_socket_emulation(
            LTE10, profile, "127.0.0.1:0", "127.0.0.1:0", seed=3
        )
        assert not report.incomplete
        assert report.dl.completed_messages > 0
        assert report.ul.completed_messages > 0

    def test_send_error_ends_the_run_incomplete(self, monkeypatch):
        opened = []

        class FailingEndpoint(UdpEndpoint):
            """Raises OSError from the 41st send on, as a downed link does."""

            sent = 0

            def __init__(self, addr):
                super().__init__(addr)
                opened.append(self)

            def send_to(self, datagram, peer):
                FailingEndpoint.sent += 1
                if FailingEndpoint.sent > 40:
                    raise OSError("network is unreachable")
                super().send_to(datagram, peer)

        monkeypatch.setattr(emulation, "UdpEndpoint", FailingEndpoint)
        emulation._llr_quantiles()  # build the cached table outside the timing
        # a full run would take 1 s of subframes plus 50 ms of settling
        profile = TrafficProfile(goodput_bps=6e6, duration_subframes=1000)
        start = time.monotonic()
        report = run_socket_emulation(
            LTE10, profile, "127.0.0.1:0", "127.0.0.1:0", seed=3
        )
        assert time.monotonic() - start < 0.5
        assert report.incomplete
        assert len(report.rows) == 1000
        for d in (report.dl, report.ul):
            assert d.emitted_messages > 0
            assert d.emitted_messages == (
                d.completed_messages + d.jumbled_messages + d.timeout_messages)
        assert sum(report.totals().values()) == (
            report.dl.emitted_messages + report.ul.emitted_messages)
        assert len(opened) == 2
        assert all(ep.sock.fileno() == -1 for ep in opened)

    def test_busy_port_raises(self):
        holder = UdpEndpoint("127.0.0.1:0")
        try:
            profile = TrafficProfile(goodput_bps=1e6, duration_subframes=10)
            with pytest.raises(OSError):
                run_socket_emulation(
                    LTE10, profile, holder.address, holder.address, seed=0
                )
        finally:
            holder.close()

    def test_unchunkable_message_raises_before_binding(self, monkeypatch):
        def no_bind(addr):
            raise AssertionError(f"bound {addr} before checking the message sizes")

        monkeypatch.setattr(emulation, "UdpEndpoint", no_bind)
        profile = TrafficProfile(goodput_bps=100e6, duration_subframes=3)
        with pytest.raises(ValueError, match="16-bit"):
            run_socket_emulation(LTE10, profile, "127.0.0.1:0", "127.0.0.1:0",
                                 seed=0, max_datagram=23)

    def test_zero_capacity_cell_raises_before_binding(self, monkeypatch):
        def no_bind(addr):
            raise AssertionError(f"bound {addr} before checking the capacity")

        monkeypatch.setattr(emulation, "UdpEndpoint", no_bind)
        # 400 QPSK symbols a second on one subcarrier: 0 bits per subframe
        cell = CellConfig(n_sc=1, n_layers=1, n_ant=1, mod_order=2,
                          symbols_per_second=400)
        profile = TrafficProfile(goodput_bps=0.0, duration_subframes=3)
        with pytest.raises(ValueError, match="bits per subframe"):
            run_socket_emulation(cell, profile, "127.0.0.1:0", "127.0.0.1:0", seed=0)

    @pytest.mark.parametrize("seed", [True, 1.5])
    def test_non_integer_seed_raises_before_binding(self, seed, monkeypatch):
        def no_bind(addr):
            raise AssertionError(f"bound {addr} before checking the seed")

        monkeypatch.setattr(emulation, "UdpEndpoint", no_bind)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_socket_emulation(LTE10, TrafficProfile(2e6, 200, 3),
                                 "127.0.0.1:0", "127.0.0.1:0", seed=seed)

    def test_unpackable_soft_bit_width_raises_before_binding(self, monkeypatch):
        def no_bind(addr):
            raise AssertionError(f"bound {addr} before checking the cell")

        monkeypatch.setattr(emulation, "UdpEndpoint", no_bind)
        profile = TrafficProfile(goodput_bps=4e6, duration_subframes=3)
        with pytest.raises(ValueError, match="bit_width"):
            run_socket_emulation(replace(LTE10, soft_bit_width=17), profile,
                                 "127.0.0.1:0", "127.0.0.1:0", seed=0)
