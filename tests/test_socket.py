"""Socket-mode emulation over loopback UDP.

Real sockets and wall-clock pacing make these runs nondeterministic, so
the assertions are structural and tolerant: the run must finish, account
for every emitted message, and deliver the vast majority on loopback.
"""

import socket
from dataclasses import replace

import pytest

from fhsplit import emulation
from fhsplit.cell import CellConfig, preset
from fhsplit.channel import UdpEndpoint, parse_addr
from fhsplit.emulation import TrafficProfile, run_socket_emulation

LTE10 = preset("lte10")


class TestParseAddr:
    def test_host_port(self):
        assert parse_addr("127.0.0.1:9000") == ("127.0.0.1", 9000)

    @pytest.mark.parametrize("bad", ["localhost", ":90", "h:", "h:x"])
    def test_bad_addresses(self, bad):
        with pytest.raises(ValueError):
            parse_addr(bad)


class TestUdpEndpoint:
    def test_ephemeral_bind_and_echo(self):
        a = UdpEndpoint("127.0.0.1:0")
        b = UdpEndpoint("127.0.0.1:0")
        try:
            b_addr = parse_addr(b.address)
            a.send_to(b"ping", b_addr)
            received = None
            for _ in range(50):
                received = b.recv()
                if received is not None:
                    break
            assert received == b"ping"
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

    def test_recv_times_out_to_none(self):
        a = UdpEndpoint("127.0.0.1:0")
        try:
            assert a.recv() is None
        finally:
            a.close()


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

    def test_unpackable_soft_bit_width_raises_before_binding(self, monkeypatch):
        def no_bind(addr):
            raise AssertionError(f"bound {addr} before checking the cell")

        monkeypatch.setattr(emulation, "UdpEndpoint", no_bind)
        profile = TrafficProfile(goodput_bps=4e6, duration_subframes=3)
        with pytest.raises(ValueError, match="bit_width"):
            run_socket_emulation(replace(LTE10, soft_bit_width=17), profile,
                                 "127.0.0.1:0", "127.0.0.1:0", seed=0)
