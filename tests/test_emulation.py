"""Emulation tests: scheduling, conservation, channel effects, determinism."""

import hashlib
import importlib.util
import json
import random
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhsplit
from fhsplit.cell import CellConfig, Direction, preset
from fhsplit.channel import SUBFRAME_NS, ChannelSpec, SimulatedChannel
from fhsplit.llr import LlrQuantizer
from fhsplit.wire import (
    DEFAULT_TIMEOUT_NS,
    HEADER_LEN,
    Complete,
    Jumbled,
    Malformed,
    Timeout,
    chunk_subframe,
)
from fhsplit.emulation import (
    CONTENT_DL_DATA,
    CONTENT_UL_SOFT,
    CQI_PERIOD,
    EmulationReport,
    SubframeReceiver,
    TrafficProfile,
    TrafficScheduler,
    _DirMeter,
    _PacketArrivals,
    _emit,
    _ul_messages,
    make_control,
    run_emulation,
    subframe_capacity_bits,
)

LTE10 = preset("lte10")

# One saturated lte10 subframe on the wire, derived by hand:
#   downlink: 67200 payload bits = 8400 bytes -> 6 chunks of <=1450 bytes
#             -> 8400 + 6*22 header bytes, plus the 64+22 byte control
#             datagram: (8532 + 86) * 8 = 68944 bits
#   uplink:   67200 8-bit codes = 67200 bytes -> 47 chunks
#             -> (67200 + 47*22) * 8 = 545872 bits, plus a 30-byte CQI
#             datagram every 5th subframe: mean 545872 + 48 = 545920 bit/s
SATURATED_DL_BITS = 68_944
SATURATED_UL_BITS = 545_872
SATURATED_UL_MEAN_BPS = 545_920_000.0


class TestCapacityAndScheduling:
    def test_subframe_capacity(self):
        assert subframe_capacity_bits(LTE10, Direction.DL) == 67_200
        assert subframe_capacity_bits(LTE10, Direction.UL) == 537_600

    def test_scheduler_passthrough_below_capacity(self):
        sched = TrafficScheduler.for_cell(LTE10)
        assert sched.schedule_subframe(10_000) == 10_000
        assert sched.backlog_bits == 0

    def test_scheduler_backlog_carries_over(self):
        sched = TrafficScheduler(capacity_bits=100)
        assert sched.schedule_subframe(250) == 100
        assert sched.backlog_bits == 150
        assert sched.schedule_subframe(0) == 100
        assert sched.schedule_subframe(0) == 50
        assert sched.schedule_subframe(0) == 0
        assert sched.dropped_bits == 0

    def test_scheduler_rejects_negative_offer(self):
        sched = TrafficScheduler.for_cell(LTE10)
        with pytest.raises(ValueError):
            sched.schedule_subframe(-1)
        assert sched.backlog_bits == 0

    def test_scheduler_drops_beyond_backlog_cap(self):
        sched = TrafficScheduler(capacity_bits=100, max_backlog_subframes=2)
        assert sched.schedule_subframe(1000) == 100
        # 900 left, cap is 200 -> 700 dropped
        assert sched.backlog_bits == 200
        assert sched.dropped_bits == 700

    @given(
        offered=st.lists(st.integers(0, 500_000), min_size=1, max_size=300),
        capacity=st.integers(1, 100_000),
        cap_subframes=st.integers(1, 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_scheduler_conserves_bits(self, offered, capacity, cap_subframes):
        sched = TrafficScheduler(capacity, max_backlog_subframes=cap_subframes)
        total_sched = 0
        for bits in offered:
            got = sched.schedule_subframe(bits)
            assert 0 <= got <= capacity
            assert sched.backlog_bits <= sched.max_backlog_bits
            total_sched += got
        assert total_sched + sched.backlog_bits + sched.dropped_bits == sum(offered)


class TestPacketArrivals:
    def test_exact_multiple_rate(self):
        # 67.2 Mbit/s with 1400-byte packets: exactly 6 packets per subframe
        arrivals = _PacketArrivals(TrafficProfile(goodput_bps=67.2e6))
        assert [arrivals.next_subframe() for _ in range(10)] == [67_200] * 10

    def test_quantized_to_whole_packets(self):
        arrivals = _PacketArrivals(TrafficProfile(goodput_bps=10e6))
        packet_bits = 1400 * 8
        for _ in range(100):
            assert arrivals.next_subframe() % packet_bits == 0

    def test_long_run_mean_matches_goodput(self):
        profile = TrafficProfile(goodput_bps=9.7e6, packet_size_bytes=900)
        arrivals = _PacketArrivals(profile)
        n = 10_000
        total = sum(arrivals.next_subframe() for _ in range(n))
        # cumulative arrivals only ever lag the fluid rate by under a packet
        expected = profile.goodput_bps * n / 1000
        assert expected - 900 * 8 < total <= expected

    def test_zero_rate(self):
        arrivals = _PacketArrivals(TrafficProfile(goodput_bps=0.0))
        assert arrivals.next_subframe() == 0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TrafficProfile(goodput_bps=-1)
        with pytest.raises(ValueError):
            TrafficProfile(goodput_bps=1, packet_size_bytes=0)
        with pytest.raises(ValueError):
            TrafficProfile(goodput_bps=1, duration_subframes=0)


class TestControlSynthesis:
    def test_scheduled_subframes_carry_dci(self):
        counts = [make_control(t, 1, LTE10).dci_count for t in range(6)]
        assert counts == [1, 2, 3, 1, 2, 3]

    def test_idle_subframes_are_empty(self):
        ctrl = make_control(4, 0, LTE10)
        assert ctrl.dci_count == 0 and ctrl.dci_positions == ()


class TestCleanChannelRuns:
    def test_saturated_downlink_is_exact(self):
        profile = TrafficProfile(goodput_bps=100e6, duration_subframes=100)
        report = run_emulation(LTE10, profile, seed=0)
        assert all(r.dl_bits == SATURATED_DL_BITS for r in report.rows)
        assert report.mean_dl_bps == SATURATED_DL_BITS * 1000

    def test_saturated_uplink_is_exact(self):
        profile = TrafficProfile(goodput_bps=100e6, duration_subframes=100)
        report = run_emulation(LTE10, profile, seed=0)
        for r in report.rows:
            expected = SATURATED_UL_BITS + (240 if r.subframe % CQI_PERIOD == 0 else 0)
            assert r.ul_bits == expected
        assert report.mean_ul_bps == SATURATED_UL_MEAN_BPS

    def test_everything_completes(self):
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=200)
        report = run_emulation(LTE10, profile, seed=1)
        totals = report.totals()
        assert totals["timeouts"] == 0 and totals["jumbled"] == 0
        assert totals["completes"] == report.dl.emitted_messages + \
            report.ul.emitted_messages
        assert report.dl.completed_payload_bits == report.dl.emitted_payload_bits
        assert report.ul.stale_drops == 0 and report.ul.malformed == 0

    def test_message_census_light_load(self):
        # every subframe: 1 control; each scheduled one: 1 data + 1 soft;
        # every 5th: 1 CQI
        profile = TrafficProfile(goodput_bps=11.2e6, duration_subframes=100)
        # 11.2 Mbit/s = exactly one 1400-byte packet per subframe
        report = run_emulation(LTE10, profile, seed=2)
        assert report.dl.emitted_messages == 100 + 100
        assert report.ul.emitted_messages == 100 + 100 // CQI_PERIOD

    def test_control_only_baseline(self):
        profile = TrafficProfile(goodput_bps=0.0, duration_subframes=50)
        report = run_emulation(LTE10, profile, seed=0)
        # only the 86-byte control datagram flows downlink
        assert report.mean_dl_bps == 86 * 8 * 1000 == 688_000
        assert report.ul.emitted_messages == 50 // CQI_PERIOD
        assert report.totals()["completes"] == 50 + 10

    def test_offered_conservation_and_padding_free_payloads(self):
        profile = TrafficProfile(goodput_bps=80e6, duration_subframes=120)
        report = run_emulation(LTE10, profile, seed=3)
        offered_total = sum(r.offered_bits for r in report.rows)
        control_bits = 120 * 64 * 8
        scheduled_total = report.dl.emitted_payload_bits - control_bits
        # offered = scheduled + dropped (+ nothing else once drained);
        # the run leaves at most a full backlog pending
        leftover = offered_total - scheduled_total - report.offered_dropped_bits
        assert 0 <= leftover <= 10 * 67_200

    def test_wire_overhead_is_headers_only(self):
        profile = TrafficProfile(goodput_bps=40e6, duration_subframes=80)
        report = run_emulation(LTE10, profile, seed=4)
        for stats in (report.dl, report.ul):
            overhead = stats.wire_bits - stats.emitted_payload_bits
            assert overhead > 0
            assert overhead % (22 * 8) == 0  # a whole number of headers
            assert stats.min_chunk_payload >= 1

    def test_uplink_scales_with_soft_bit_width(self):
        import dataclasses

        profile = TrafficProfile(goodput_bps=100e6, duration_subframes=60)
        wide = run_emulation(LTE10, profile, seed=0)
        cfg4 = dataclasses.replace(LTE10, soft_bit_width=4)
        narrow = run_emulation(cfg4, profile, seed=0)
        assert narrow.dl.wire_bits == wide.dl.wire_bits
        # soft payload halves exactly; headers shrink with the chunk count
        assert narrow.ul.emitted_payload_bits < wide.ul.emitted_payload_bits
        ratio = wide.ul.emitted_payload_bits / narrow.ul.emitted_payload_bits
        assert ratio == pytest.approx(2.0, rel=1e-3)


    @pytest.mark.parametrize("goodput", [0.0, 4e6])
    def test_unpackable_soft_bit_width_raises_before_sending(self, goodput,
                                                             monkeypatch):
        def no_emit(*args):
            raise AssertionError("emitted before checking the cell")

        monkeypatch.setattr(fhsplit.emulation, "_emit", no_emit)
        with pytest.raises(ValueError, match="bit_width"):
            run_emulation(replace(LTE10, soft_bit_width=17),
                          TrafficProfile(goodput, 1400, 3))


class TestImpairedChannelRuns:
    def test_total_loss_is_all_timeouts(self):
        profile = TrafficProfile(goodput_bps=20e6, duration_subframes=150)
        report = run_emulation(LTE10, profile, ChannelSpec(loss_rate=1.0), seed=5)
        totals = report.totals()
        assert totals["completes"] == 0 and totals["jumbled"] == 0
        assert totals["timeouts"] == (
            report.dl.emitted_messages + report.ul.emitted_messages
        )
        assert report.dl.completed_payload_bits == 0
        assert report.dl.discarded_payload_bits == report.dl.emitted_payload_bits

    def test_loss_outcomes_partition_emissions(self):
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=200)
        spec = ChannelSpec(loss_rate=0.05, reorder_rate=0.1)
        report = run_emulation(LTE10, profile, spec, seed=6)
        for stats in (report.dl, report.ul):
            assert (
                stats.completed_messages
                + stats.timeout_messages
                + stats.jumbled_messages
                == stats.emitted_messages
            )
            assert (
                stats.completed_payload_bits + stats.discarded_payload_bits
                == stats.emitted_payload_bits
            )

    def test_reordering_produces_jumbles_not_timeouts(self):
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=200)
        report = run_emulation(
            LTE10, profile, ChannelSpec(reorder_rate=0.2), seed=7
        )
        totals = report.totals()
        assert totals["jumbled"] > 0
        assert totals["timeouts"] == 0  # delayed chunks displace, never expire

    def test_jumbles_grow_with_reorder_rate(self):
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=100)
        jumbled = []
        for rate in (0.0, 0.1, 0.3):
            count = 0
            for seed in range(20):
                spec = ChannelSpec(reorder_rate=rate)
                count += run_emulation(LTE10, profile, spec, seed=seed).totals()[
                    "jumbled"
                ]
            jumbled.append(count)
        assert jumbled[0] == 0
        assert jumbled[0] < jumbled[1] < jumbled[2]

    def test_timeouts_grow_with_loss_rate(self):
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=100)
        timeouts = []
        for rate in (0.0, 0.05, 0.3):
            count = 0
            for seed in range(20):
                spec = ChannelSpec(loss_rate=rate)
                count += run_emulation(LTE10, profile, spec, seed=seed).totals()[
                    "timeouts"
                ]
            timeouts.append(count)
        assert timeouts[0] == 0
        assert timeouts[0] < timeouts[1] < timeouts[2]

    def test_fixed_delay_alone_changes_nothing(self):
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=100)
        clean = run_emulation(LTE10, profile, ChannelSpec(), seed=8)
        delayed = run_emulation(
            LTE10, profile, ChannelSpec(delay_us=200.0), seed=8
        )
        assert delayed.totals() == clean.totals()
        assert delayed.mean_dl_bps == clean.mean_dl_bps

    def test_delay_beyond_timeout_still_completes(self):
        # chunks of one subframe keep their relative spacing, so a large
        # common delay shifts arrival without starving the reassembler
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=60)
        report = run_emulation(
            LTE10, profile, ChannelSpec(delay_us=2_500.0), seed=9
        )
        assert report.totals()["timeouts"] == 0


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        profile = TrafficProfile(goodput_bps=45e6, duration_subframes=150)
        spec = ChannelSpec(loss_rate=0.02, reorder_rate=0.05, delay_us=30.0)
        a = run_emulation(LTE10, profile, spec, seed=11)
        b = run_emulation(LTE10, profile, spec, seed=11)
        assert a.csv_text() == b.csv_text()
        assert json.dumps(a.summary(), sort_keys=True) == json.dumps(
            b.summary(), sort_keys=True
        )

    def test_different_seed_differs(self):
        profile = TrafficProfile(goodput_bps=45e6, duration_subframes=150)
        spec = ChannelSpec(loss_rate=0.02, reorder_rate=0.05)
        a = run_emulation(LTE10, profile, spec, seed=11)
        b = run_emulation(LTE10, profile, spec, seed=12)
        assert a.csv_text() != b.csv_text()

    def test_report_files(self, tmp_path):
        profile = TrafficProfile(goodput_bps=5e6, duration_subframes=30)
        report = run_emulation(LTE10, profile, seed=0)
        csv_path, json_path = report.save(tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "subframe,offered_bits,dl_bits,ul_bits,completes,timeouts,jumbled"
        assert len(lines) == 31
        summary = json.loads(json_path.read_text())
        assert summary["duration_subframes"] == 30
        assert summary["events"]["timeout_fraction"] == 0.0
        assert not summary["incomplete"]


class TestSimulatedChannel:
    def test_identity_preserves_order_and_content(self):
        chan = SimulatedChannel(ChannelSpec(), seed=0)
        for i in range(10):
            chan.send(bytes([i]), now_ns=i * 100)
        out = chan.deliver_until(10_000)
        assert [d for _, d in out] == [bytes([i]) for i in range(10)]
        assert chan.in_flight == 0

    def test_loss_drops_everything_at_rate_one(self):
        chan = SimulatedChannel(ChannelSpec(loss_rate=1.0), seed=0)
        for i in range(100):
            chan.send(b"x", now_ns=i)
        assert chan.deliver_until(10**9) == []
        assert chan.dropped == 100

    def test_delay_shifts_delivery_time(self):
        chan = SimulatedChannel(ChannelSpec(delay_us=100.0), seed=0)
        chan.send(b"x", now_ns=0)
        assert chan.deliver_until(99_999) == []
        assert chan.deliver_until(100_000) == [(100_000, b"x")]

    def test_reordered_datagram_arrives_one_subframe_late(self):
        chan = SimulatedChannel(ChannelSpec(reorder_rate=1.0), seed=0)
        chan.send(b"x", now_ns=0)
        assert chan.deliver_until(999_999) == []
        assert chan.deliver_until(1_000_000) == [(1_000_000, b"x")]
        assert chan.reordered == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(loss_rate=1.5)
        with pytest.raises(ValueError):
            ChannelSpec(reorder_rate=-0.1)
        with pytest.raises(ValueError):
            ChannelSpec(delay_us=-5.0)


class TestReceiver:
    """SubframeReceiver.feed returns outcome events only."""

    CT = CONTENT_DL_DATA

    @staticmethod
    def datagrams(ts, payload):
        return [c.to_datagram() for c in chunk_subframe(ts, TestReceiver.CT, payload)]

    def test_progress_is_not_reported(self):
        rx = SubframeReceiver()
        payload = bytes(range(256)) * 12  # 3072 bytes: 3 chunks
        out = [rx.feed(d, i) for i, d in enumerate(self.datagrams(4, payload))]
        assert out == [[], [], [(self.CT, Complete(4, payload))]]

    def test_header_reject_is_counted_not_reported(self):
        rx = SubframeReceiver()
        assert rx.feed(b"\x00" * 21, 0) == []
        assert rx.malformed_headers == 1

    def test_expired_assembly_times_out_before_the_next_datagram(self):
        rx = SubframeReceiver()
        old = self.datagrams(1, b"a" * 3000)
        new = self.datagrams(2, b"b" * 3000)
        assert rx.feed(old[0], 0) == []
        # the deadline passed before this datagram came: Timeout first, then
        # the datagram starts its own assembly
        assert rx.feed(new[0], DEFAULT_TIMEOUT_NS) == [(self.CT, Timeout(1, 1, 3))]
        assert rx.feed(new[1], DEFAULT_TIMEOUT_NS + 1) == []
        assert rx.feed(new[2], DEFAULT_TIMEOUT_NS + 2) == [
            (self.CT, Complete(2, b"b" * 3000))]

    def test_late_chunk_of_an_expired_assembly_is_stale(self):
        rx = SubframeReceiver()
        old = self.datagrams(1, b"a" * 3000)
        assert rx.feed(old[0], 0) == []
        assert rx.feed(old[1], DEFAULT_TIMEOUT_NS - 1) == []
        assert rx.feed(old[2], DEFAULT_TIMEOUT_NS) == [
            (self.CT, Timeout(1, 2, 3)), (self.CT, Malformed("stale", timestamp=1))]
        assert rx.poll(10 * DEFAULT_TIMEOUT_NS) == []

    def test_jumble_is_reported_once(self):
        rx = SubframeReceiver()
        rx.feed(self.datagrams(1, b"a" * 3000)[0], 0)
        new = self.datagrams(2, b"b" * 3000)
        assert rx.feed(new[0], 10) == [(self.CT, Jumbled(1, 2))]
        assert rx.feed(new[1], 20) == []

    def test_jumble_with_instant_complete_still_reported(self):
        rx = SubframeReceiver()
        rx.feed(self.datagrams(1, b"a" * 3000)[0], 0)
        [single] = self.datagrams(2, b"f")
        assert rx.feed(single, 10) == [
            (self.CT, Jumbled(1, 2)), (self.CT, Complete(2, b"f"))]

    def test_content_types_assemble_independently(self):
        rx = SubframeReceiver()
        a = chunk_subframe(1, 0, b"a" * 3000)
        b = chunk_subframe(1, 1, b"b" * 3000)
        out = []
        for x, y in zip(a, b):
            out += rx.feed(x.to_datagram(), 0) + rx.feed(y.to_datagram(), 0)
        assert out == [(0, Complete(1, b"a" * 3000)), (1, Complete(1, b"b" * 3000))]


class TestReorderedChunks:
    """A chunk held back within its subframe must not corrupt a Complete."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_complete_carries_the_sent_payload(self, seed):
        rng = random.Random(seed)
        channel = SimulatedChannel(ChannelSpec(loss_rate=0.01, reorder_rate=0.3), seed)
        rx = SubframeReceiver()
        sent = {}
        completes = []

        def pump(until_ns):
            for recv_ns, datagram in channel.deliver_until(until_ns):
                completes.extend((ctype, event) for ctype, event in rx.feed(datagram, recv_ns)
                                 if isinstance(event, Complete))

        meter = _DirMeter(60)
        for t in range(60):
            base_ns = t * SUBFRAME_NS
            # Each content type sends every third subframe, so a chunk held
            # back one subframe still lands in its own open assembly.
            msgs = [(ctype, rng.randbytes(rng.randint(300, 3000)))
                    for i, ctype in enumerate((CONTENT_DL_DATA, CONTENT_UL_SOFT, 9))
                    if (t + i) % 3 == 0]
            sent.update(((ctype, t), payload) for ctype, payload in msgs)
            _emit(meter, channel.send, msgs, t, base_ns, 256)
            pump(base_ns + SUBFRAME_NS - 1)
            rx.poll(base_ns + SUBFRAME_NS)
        pump(62 * SUBFRAME_NS)

        assert channel.reordered > 0
        assert len(completes) >= len(sent) // 2
        for ctype, event in completes:
            assert event.payload == sent[(ctype, event.timestamp)]


class TestMeter:
    def test_emission_matches_per_chunk_sum(self):
        rng = random.Random(5)
        for max_datagram in range(HEADER_LEN + 1, 1473):
            budget = max_datagram - HEADER_LEN
            meter = _DirMeter(2)
            bits = [0, 0]
            smallest = None
            for ts in (0, 1, 1):
                n = rng.choice([1, budget, budget + 1, rng.randint(1, 4 * budget)])
                n = min(n, 3000)
                chunks = chunk_subframe(ts, ts, bytes(n), max_datagram)
                meter.record_emission(ts, ts, n, chunks)
                bits[ts] += sum((len(c.payload) + HEADER_LEN) * 8 for c in chunks)
                least = min(len(c.payload) for c in chunks)
                smallest = least if smallest is None else min(smallest, least)
            assert meter.wire_bits == bits, max_datagram
            assert meter.min_chunk_payload == smallest, max_datagram


class TestSharedMeter:
    def test_sender_and_receiver_threads_record_concurrently(self):
        # Socket mode's shape: per direction one sender thread records
        # emissions while one receiver thread records events. Few
        # subframes, so both threads keep touching the same ones.
        n, subframes = 5000, 4
        meters = [_DirMeter(subframes), _DirMeter(subframes)]
        chunks = chunk_subframe(0, 0, bytes(3000), 1472)

        def send(meter):
            for i in range(n):
                meter.record_emission(0, i % subframes, 3000, chunks)

        def receive(meter):
            for i in range(n):
                meter.record_event(0, Complete(i % subframes, bytes(3000)))
                meter.record_event(0, Malformed("stale", timestamp=i))

        threads = [threading.Thread(target=fn, args=(meter,))
                   for meter in meters for fn in (send, receive)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        datagram_bits = (3000 + len(chunks) * 22) * 8
        for meter in meters:
            assert sum(meter.wire_bits) == n * datagram_bits
            assert len(meter.emitted) == len(meter.completed) == subframes
            assert meter.stale_drops == n


class TestGoldenReports:
    """Fixed-seed report bytes: any refactor of the emulator must keep them.

    The digest covers exactly what EmulationReport.save writes, report.csv
    followed by summary.json. A legitimate change of the modelled output
    updates these digests in the same commit and says why.
    """

    CASES = [
        # preset, goodput_bps, packet_size, subframes, channel, max_datagram, seed
        ("lte10", 30e6, 1400, 200, ChannelSpec(0.02, 0.05, 30.0), 1472, 11,
         "dacd7dfe8cc885ddf3eec11534787304dcc0ecc18424770efdaea08b2d6c81b9"),
        ("lte10", 2e6, 200, 300, ChannelSpec(0.01, 0.05, 50.0), 1472, 1,
         "1c4e6f075c987d33136f2d20081c41b3bcd0400cf66ef52d6b32bbe7d526d862"),
        ("lte20", 200e6, 1400, 10, ChannelSpec(), 256, 1,
         "231ff8493f45f7c2470eb680a96470bca5ed125f0aec2eefc3c25845128a6562"),
        ("worst100", 3e9, 1400, 2, ChannelSpec(), 1472, 1,
         "2845b646d2c6bbb660d2c76cd3fb7fabd64924cd5f65c25c2a2b3023b394c505"),
        ("lte10", 0.0, 1400, 50, ChannelSpec(1.0, 0, 0), 1472, 5,
         "f950e7d0ea31e264220785ca00cb227c9d623742451611ef1f79296f9e7812ce"),
    ]

    @pytest.mark.parametrize(
        "name,goodput,packet,subframes,spec,max_datagram,seed,digest",
        CASES,
        ids=[f"{c[0]}-{c[1]:g}-seed{c[6]}" for c in CASES],
    )
    def test_report_bytes(self, name, goodput, packet, subframes, spec,
                          max_datagram, seed, digest):
        report = run_emulation(
            preset(name), TrafficProfile(goodput, packet, subframes), spec, seed,
            max_datagram=max_datagram,
        )
        saved = report.csv_text() + json.dumps(report.summary(), indent=2) + "\n"
        assert hashlib.sha256(saved.encode()).hexdigest() == digest


class TestGoldenPayloads:
    """Fixed-seed uplink soft-bit payload bytes from `_ul_messages`.

    The report digests above see only payload sizes and outcomes, so a
    wrong LLR quantize or pack would still pass them; these pin the bytes.
    The code counts include ones that are not a multiple of 8, which end
    in a zero-padded byte at w=5.
    """

    COUNTS = (1, 7, 8, 13, 64, 1001, 30_000)
    CASES = [
        # preset (soft_bit_width), seed of the LLR stream, sha256 of the payloads
        ("worst100", 1, "a7120b150fe45b83eac9b415924093ea29cec59d051bf3050d6d543c2e30454a"),
        ("worst100", 7, "22f026acd90c4913c78201e697c1765a92fd4b9dc9e3464bfb91714392167375"),
        ("lte10", 1, "699d03002377c2dd2801e660a9230a5cab5304c2eda14b5d21116c70b721878d"),
        ("lte10", 7, "98ab34345c0404c3de8e12dfd8679350a5873da6d083f43c4d480be94e82cb51"),
    ]

    @pytest.mark.parametrize("name,seed,digest", CASES,
                             ids=[f"{c[0]}-seed{c[1]}" for c in CASES])
    def test_soft_bit_bytes(self, name, seed, digest):
        cfg = preset(name)
        quantizer = LlrQuantizer(cfg.soft_bit_width)
        llr_rng = np.random.Generator(np.random.PCG64(seed))
        h = hashlib.sha256()
        for n in self.COUNTS:
            # t=1 is not a CQI subframe, so the soft bits are the only message
            [(ctype, payload)] = _ul_messages(1, n, cfg, quantizer, llr_rng)
            assert ctype == CONTENT_UL_SOFT
            assert len(payload) == -(-n * cfg.soft_bit_width // 8)
            h.update(payload)
        assert h.hexdigest() == digest


class TestBenchmarkHooks:
    """perfbench/spans.py wraps emulator names at run time; keep them resolvable.

    A hook whose target is gone is skipped there and its layer reads 0, so
    a rename must fail here instead.
    """

    @pytest.fixture(scope="class")
    def spans(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look the defining module up while the class body runs
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
        finally:
            del sys.modules[spec.name]
        return module

    @staticmethod
    def resolve(owner_path):
        owner = fhsplit
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        return owner

    def test_every_hook_target_fires(self, spans):
        # An impaired run, so the jumble, stale and timeout paths run too
        targets = [(self.resolve(owner), attr) for _, owner, attr in spans.SPAN_TARGETS]
        originals = [vars(owner)[attr] for owner, attr in targets]
        tracer = spans.Tracer(fhsplit)
        tracer.install()
        try:
            tracer.begin_call()
            run_emulation(LTE10, TrafficProfile(2e6, 200, 20),
                          ChannelSpec(0.01, 0.05, 50.0), seed=1)
        finally:
            tracer.restore()
        assert tracer.missing == []
        fired = {tracer.names[i] for i in set(tracer.name)}
        silent = [f"{owner}.{attr}" for _, owner, attr in spans.SPAN_TARGETS
                  if f"{owner}.{attr}" not in fired]
        assert silent == []
        assert tracer.counters.datagrams == tracer.counters.sent > 0
        assert tracer.counters.accepted > 0
        assert [vars(owner)[attr] for owner, attr in targets] == originals

    def test_every_hook_target_resolves(self, spans):
        targets = [(owner, attr) for _, owner, attr in spans.SPAN_TARGETS]
        targets.append(tuple(spans.ROOT_SPAN.rsplit(".", 1)))
        missing = [f"{owner}.{attr}" for owner, attr in targets
                   if attr not in vars(self.resolve(owner))]
        assert missing == []
