"""Emulation tests: scheduling, conservation, channel effects, determinism."""

import collections
import contextlib
import gc
import hashlib
import importlib.util
import json
import math
import random
import struct
import sys
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhsplit
from fhsplit.cell import PRESETS, CellConfig, preset
from fhsplit.channel import SUBFRAME_NS, UNIFORM_BLOCK, ChannelSpec, SimulatedChannel
from fhsplit.llr import LlrQuantizer, pack_codes, unpack_codes
from fhsplit.wire import (
    DEFAULT_MAX_DATAGRAM,
    DEFAULT_TIMEOUT_NS,
    HEADER_LEN,
    MAX_DATAGRAM,
    Complete,
    Jumbled,
    Malformed,
    Timeout,
    WINDOW,
    chunk_subframe,
)
from fhsplit.emulation import (
    CONTENT_DL_CONTROL,
    CONTENT_DL_DATA,
    CONTENT_UL_SOFT,
    CQI_PERIOD,
    LLR_SCALE,
    MAX_BACKLOG_SUBFRAMES,
    EmulationReport,
    SubframeReceiver,
    TrafficProfile,
    _DirMeter,
    _dl_messages,
    _emit,
    _llr_code_table,
    _llr_quantiles,
    _prepare,
    _run_loop,
    _traffic_schedule,
    _ul_messages,
    encode_control,
    expected_completions,
    make_control,
    run_emulation,
    run_socket_emulation,
    subframe_capacity_bits,
)
from test_quantizer import reference_pack

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


def tiny_cell(symbols_per_second=50_000):
    """A QPSK single-subcarrier cell: 100 bits per subframe at the default rate."""
    return CellConfig(n_sc=1, n_layers=1, n_ant=1, mod_order=2,
                      symbols_per_second=symbols_per_second)


TINY = tiny_cell()
POOL_CODES = 1 << 16


def code_pool(width, llr_rng):
    """The shuffled code table and its packed pool, built from llr_rng as _prepare builds them."""
    codes = np.random.Generator(llr_rng).permutation(_llr_code_table(LlrQuantizer(width)))
    return codes, pack_codes(codes, width)


def pool_read(codes, ref_rng, n):
    """A message's n codes: the pool's from the group of 8 that the top 13
    bits of ref_rng's next raw word pick, read across the wrap."""
    g = int(ref_rng.random_raw()) >> 51
    return codes[(8 * g + np.arange(n)) % POOL_CODES]


class TestCapacityAndScheduling:
    def test_subframe_capacity(self):
        assert subframe_capacity_bits(LTE10) == 67_200
        assert subframe_capacity_bits(TINY) == 100

    def test_scheduler_passthrough_below_capacity(self):
        # 10 080 bits per subframe, well below lte10's 67 200
        offered, scheduled, dropped = _traffic_schedule(LTE10, TrafficProfile(10.08e6, 1260, 50))
        assert offered == scheduled == [10_080] * 50
        assert dropped == 0

    def test_scheduler_backlog_carries_over(self):
        # one 200-bit packet every 4th subframe into 100 bits of capacity
        offered, scheduled, dropped = _traffic_schedule(TINY, TrafficProfile(50_000, 25, 8))
        assert offered == [0, 0, 0, 200, 0, 0, 0, 200]
        assert scheduled == [0, 0, 0, 100, 100, 0, 0, 100]
        assert dropped == 0

    def test_scheduler_drops_beyond_backlog_cap(self):
        # 200 bits offered, 100 carried: the backlog grows by 100 a subframe
        # until it holds 10 subframes of capacity, then 100 a subframe drop
        assert MAX_BACKLOG_SUBFRAMES == 10
        offered, scheduled, dropped = _traffic_schedule(TINY, TrafficProfile(200_000, 25, 15))
        assert offered == [200] * 15
        assert scheduled == [100] * 15
        assert dropped == 5 * 100

    @given(
        n_sc=st.integers(1, 40),
        symbols_per_second=st.integers(500, 100_000),
        goodput_bps=st.floats(0, 20e6),
        packet_size_bytes=st.integers(1, 2000),
        duration=st.integers(1, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_scheduler_conserves_bits(self, n_sc, symbols_per_second, goodput_bps,
                                      packet_size_bytes, duration):
        # at least 500 symbols a second: a QPSK cell carries >= 1 bit per subframe
        cfg = replace(tiny_cell(symbols_per_second), n_sc=n_sc)
        capacity = subframe_capacity_bits(cfg)
        offered, scheduled, dropped = _traffic_schedule(
            cfg, TrafficProfile(goodput_bps, packet_size_bytes, duration))
        assert len(offered) == len(scheduled) == duration
        assert all(0 <= bits <= capacity for bits in scheduled)
        backlog = sum(offered) - sum(scheduled) - dropped
        assert 0 <= backlog <= MAX_BACKLOG_SUBFRAMES * capacity
        assert dropped >= 0

    def test_zero_capacity_cell_rejected_before_sending(self, monkeypatch):
        # 400 QPSK symbols a second carry 800 bit/s: 0 bits per subframe
        def no_emit(*args):
            raise AssertionError("emitted before checking the capacity")

        monkeypatch.setattr(fhsplit.emulation, "_emit", no_emit)
        cell = tiny_cell(400)
        assert subframe_capacity_bits(cell) == 0
        for goodput in (0.0, 1e6):
            with pytest.raises(ValueError, match="bits per subframe"):
                run_emulation(cell, TrafficProfile(goodput, 1400, 3))


def offered_bits(profile):
    return _traffic_schedule(LTE10, profile)[0]


class TestPacketArrivals:
    def test_exact_multiple_rate(self):
        # 67.2 Mbit/s with 1400-byte packets: exactly 6 packets per subframe
        assert offered_bits(TrafficProfile(67.2e6, 1400, 10)) == [67_200] * 10

    def test_quantized_to_whole_packets(self):
        packet_bits = 1400 * 8
        offered = offered_bits(TrafficProfile(10e6, 1400, 100))
        assert all(bits % packet_bits == 0 for bits in offered)
        assert len(set(offered)) > 1

    def test_long_run_mean_matches_goodput(self):
        n = 10_000
        profile = TrafficProfile(9.7e6, 900, n)
        total = sum(offered_bits(profile))
        # cumulative arrivals only ever lag the fluid rate by under a packet
        expected = profile.goodput_bps * n / 1000
        assert expected - 900 * 8 < total <= expected

    def test_zero_rate(self):
        offered, scheduled, dropped = _traffic_schedule(LTE10, TrafficProfile(0.0, 1400, 20))
        assert offered == scheduled == [0] * 20
        assert dropped == 0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TrafficProfile(goodput_bps=-1)
        with pytest.raises(ValueError):
            TrafficProfile(goodput_bps=1, packet_size_bytes=0)
        with pytest.raises(ValueError):
            TrafficProfile(goodput_bps=1, duration_subframes=0)

    @pytest.mark.parametrize("field,value", [
        ("packet_size_bytes", 100.5),
        ("packet_size_bytes", 1400.0),
        ("duration_subframes", 5.5),
        ("duration_subframes", "10"),
        ("duration_subframes", True),
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrafficProfile(goodput_bps=1e6, **{field: value})

    def test_integer_fields_take_numpy_integers(self):
        profile = TrafficProfile(1e6, np.int64(100), np.int32(5))
        assert len(offered_bits(profile)) == 5


class TestControlSynthesis:
    def test_scheduled_subframes_carry_dci(self):
        counts = [make_control(t, 1, LTE10).dci_count for t in range(6)]
        assert counts == [1, 2, 3, 1, 2, 3]

    def test_idle_subframes_are_empty(self):
        ctrl = make_control(4, 0, LTE10)
        assert ctrl.dci_count == 0 and ctrl.dci_positions == ()

    def test_a_run_makes_each_distinct_control_payload_once(self, monkeypatch):
        # 20 kbit/s of 5-byte packets on TINY alternates idle and busy
        # subframes, so 40 subframes meet every (t % 3, busy) pair
        cfg, profile = TINY, TrafficProfile(20e3, 5, 40)
        _, scheduled, _ = _traffic_schedule(cfg, profile)
        keys = {(t % 3, bits > 0) for t, bits in enumerate(scheduled)}
        assert len(keys) == 6
        made = []

        def counting_make_control(t, scheduled_bits, cell):
            made.append(t)
            return make_control(t, scheduled_bits, cell)

        monkeypatch.setattr(fhsplit.emulation, "make_control", counting_make_control)
        _, _, (dl_messages, _), *_ = _prepare(cfg, profile, 5, 1472)
        for t, bits in enumerate(scheduled):
            [(ctype, control), *_] = next(dl_messages)
            assert ctype == CONTENT_DL_CONTROL
            assert control == encode_control(make_control(t, bits, cfg)), f"subframe {t}"
        assert len(made) == len(keys)


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

    def test_widest_soft_bit_width_runs(self):
        # w=16 is the widest packable width: every code mask is 16 bits wide
        profile = TrafficProfile(goodput_bps=100e6, duration_subframes=20)
        report = run_emulation(replace(LTE10, soft_bit_width=16), profile, seed=0)
        base = run_emulation(LTE10, profile, seed=0)
        assert report.ul.emitted_payload_bits > base.ul.emitted_payload_bits
        assert report.ul.completed_messages == report.ul.emitted_messages


    @pytest.mark.parametrize("goodput", [0.0, 4e6])
    def test_unpackable_soft_bit_width_raises_before_sending(self, goodput,
                                                             monkeypatch):
        def no_emit(*args):
            raise AssertionError("emitted before checking the cell")

        monkeypatch.setattr(fhsplit.emulation, "_emit", no_emit)
        with pytest.raises(ValueError, match="bit_width"):
            run_emulation(replace(LTE10, soft_bit_width=17),
                          TrafficProfile(goodput, 1400, 3))


    @pytest.mark.parametrize("soft_bit_width,max_datagram", [
        (8, 23),   # 67 200 one-byte chunks
        (16, 24),  # 134 400 bytes in 67 200 two-byte chunks
    ])
    def test_unchunkable_message_raises_before_sending(
            self, soft_bit_width, max_datagram, monkeypatch):
        # a saturated lte10 subframe schedules 67 200 bits
        def no_emit(*args):
            raise AssertionError("emitted before checking the message sizes")

        monkeypatch.setattr(fhsplit.emulation, "_emit", no_emit)
        with pytest.raises(ValueError, match="num_blocks is a 16-bit field"):
            run_emulation(replace(LTE10, soft_bit_width=soft_bit_width),
                          TrafficProfile(100e6, 1400, 3), max_datagram=max_datagram)

    @pytest.mark.parametrize("seed", [True, 1.5, -1])
    def test_non_integer_seed_raises_before_sending(self, seed, monkeypatch):
        def no_emit(*args):
            raise AssertionError("emitted before checking the seed")

        monkeypatch.setattr(fhsplit.emulation, "_emit", no_emit)
        with pytest.raises(ValueError, match="seed must be"):
            run_emulation(LTE10, TrafficProfile(2e6, 200, 5), seed=seed)


class TestLinkClock:
    """Each direction's datagrams leave back to back at ChannelSpec.line_rate_bps."""

    # (preset, subframes, uplink messages): 3 Gbit/s saturates every preset
    SATURATED = [("lte10", 200, 240), ("lte20", 200, 240), ("worst100", 20, 24)]

    @pytest.mark.parametrize("name,subframes,ul_messages", SATURATED)
    def test_a_clean_25gbe_link_completes_every_preset_at_saturation(
            self, name, subframes, ul_messages):
        report = run_emulation(preset(name), TrafficProfile(3e9, 1400, subframes),
                               ChannelSpec(line_rate_bps=25e9), seed=1)
        assert report.totals()["jumbled"] == report.totals()["timeouts"] == 0
        assert report.ul.completed_messages == report.ul.emitted_messages == ul_messages
        assert report.dl.stale_drops == report.ul.stale_drops == 0

    def test_the_default_link_is_25gbe(self):
        assert ChannelSpec().line_rate_bps == 25_000_000_000

    def test_an_oversubscribed_link_times_out_without_jumbles(self):
        # saturated worst100 uplink needs 22.35 Gbit/s: on 10 GbE each
        # subframe's message leaves after the last one, later and later
        report = run_emulation(preset("worst100"), TrafficProfile(3e9, 1400, 20),
                               ChannelSpec(line_rate_bps=10e9), seed=1)
        ul = report.ul
        assert (ul.completed_messages, ul.jumbled_messages, ul.timeout_messages) == (18, 0, 6)
        assert report.dl.completed_messages == report.dl.emitted_messages

    # at 10**14 bit/s every datagram takes 1 ns, the lower edge of the round-up
    @pytest.mark.parametrize("rate", [10**9, 25 * 10**9, 3 * 10**9 + 7, 10**14])
    def test_consecutive_datagrams_take_their_transmission_time(self, rate):
        spec = ChannelSpec(delay_us=40.0, line_rate_bps=rate)
        channel = SimulatedChannel(spec, seed=0)
        msgs = [(CONTENT_DL_CONTROL, bytes(64)), (CONTENT_DL_DATA, bytes(5000))]
        free_ns = _emit(_DirMeter(1), channel.send, msgs, 0, 3 * SUBFRAME_NS, 1472, spec)
        arrivals = channel.deliver_until(10 * SUBFRAME_NS)
        assert [len(d) for _, d in arrivals] == [86, 1472, 1472, 1472, 672]
        # the link starts at the subframe's start; each datagram arrives
        # when its transmission ends, rounded up to a whole nanosecond
        ends = [3 * SUBFRAME_NS]
        for _, datagram in arrivals:
            ends.append(ends[-1] + -(-8_000_000_000 * len(datagram) // rate))
        assert [ns for ns, _ in arrivals] == [end + 40_000 for end in ends[1:]]
        assert free_ns == ends[-1]

    def test_a_busy_link_starts_when_it_is_free(self):
        spec = ChannelSpec(line_rate_bps=10**9)
        sent = []
        meter = _DirMeter(3)
        # 4 datagrams of 1 472 B, 11 776 ns each at 1 Gbit/s
        msgs = [(CONTENT_DL_DATA, bytes(4 * 1450))]
        free_ns = _emit(meter, lambda d, ns: sent.append(ns), msgs, 0, 0, 1472, spec)
        assert free_ns == sent[-1] == 4 * 11_776
        # free before subframe 1 starts: it starts on time
        _emit(meter, lambda d, ns: sent.append(ns), msgs, 1, SUBFRAME_NS, 1472, spec, free_ns)
        assert sent[4] == SUBFRAME_NS + 11_776
        # still busy 5 ns into subframe 2: it starts then
        _emit(meter, lambda d, ns: sent.append(ns), msgs, 2, 2 * SUBFRAME_NS, 1472, spec,
              2 * SUBFRAME_NS + 5)
        assert sent[8] == 2 * SUBFRAME_NS + 5 + 11_776

    def test_sender_clocks_stay_a_sequence_from_the_subframe_start(self):
        spec = ChannelSpec(line_rate_bps=10**9)
        sent = []
        _emit(_DirMeter(1), lambda d, ns: sent.append(d),
              [(CONTENT_DL_DATA, bytes(3000))], 0, 7 * SUBFRAME_NS, 1472, spec,
              9 * SUBFRAME_NS)
        clocks = [struct.unpack_from(">Q", d, 14)[0] for d in sent]
        assert clocks == [7 * SUBFRAME_NS + i for i in range(3)]


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

    def test_reordering_alone_loses_no_message(self):
        # a datagram held back by one subframe lands in its own assembly,
        # inside the window and before the deadline
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=200)
        report = run_emulation(
            LTE10, profile, ChannelSpec(reorder_rate=0.2), seed=7
        )
        totals = report.totals()
        assert totals["jumbled"] == totals["timeouts"] == 0
        for stats in (report.dl, report.ul):
            assert stats.completed_messages == stats.emitted_messages
            assert stats.stale_drops == 0

    def test_no_reorder_rate_loses_a_message(self):
        profile = TrafficProfile(goodput_bps=30e6, duration_subframes=100)
        for rate in (0.1, 0.3, 1.0):
            for seed in range(20):
                spec = ChannelSpec(reorder_rate=rate)
                report = run_emulation(LTE10, profile, spec, seed=seed)
                totals = report.totals()
                assert totals["jumbled"] == totals["timeouts"] == 0, (rate, seed)
                assert report.dl.stale_drops == report.ul.stale_drops == 0

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


# Over seeds 0-9 of TestCompletionsUnderLoss's four runs the largest
# deviation from the closed form was 2.37 sd (lte10, 1 % loss, uplink) and
# 74 of the 80 were within 1.5 sd.
COMPLETIONS_BOUND_SD = 4.0


class TestCompletionsUnderLoss:
    """Completed counts under independent loss follow sum((1 - p)^n_i)."""

    @pytest.mark.parametrize("loss", [0.001, 0.01])
    @pytest.mark.parametrize("name,goodput_mbps,subframes",
                             [("lte10", 80, 200), ("lte20", 200, 100)])
    def test_completed_counts_near_the_closed_form(self, name, goodput_mbps, subframes, loss):
        cfg = preset(name)
        profile = TrafficProfile(goodput_mbps * 1e6, duration_subframes=subframes)
        expected = expected_completions(cfg, profile, loss)
        every_message = expected_completions(cfg, profile, 0.0)
        for seed in range(10):
            report = run_emulation(cfg, profile, ChannelSpec(loss_rate=loss), seed=seed)
            for direction, stats in (("dl", report.dl), ("ul", report.ul)):
                assert every_message[direction] == (stats.emitted_messages, 0)
                mean, variance = expected[direction]
                z = (stats.completed_messages - mean) / math.sqrt(variance)
                assert abs(z) <= COMPLETIONS_BOUND_SD, (seed, direction, z)


class TestReassemblyWindow:
    """A chunk that arrives before its deadline counts, however late its subframe."""

    @pytest.mark.parametrize("seed", range(5))
    def test_completions_with_reordering_follow_the_loss_closed_form(self, seed):
        # held-back datagrams cost nothing, so completions follow loss alone
        profile = TrafficProfile(80e6, duration_subframes=200)
        expected = expected_completions(LTE10, profile, 0.01)
        report = run_emulation(LTE10, profile, ChannelSpec(0.01, 0.05), seed=seed)
        for direction, stats in (("dl", report.dl), ("ul", report.ul)):
            mean, variance = expected[direction]
            z = (stats.completed_messages - mean) / math.sqrt(variance)
            assert abs(z) <= COMPLETIONS_BOUND_SD, (direction, z)

    @pytest.mark.parametrize("seed", range(3))
    def test_under_loss_alone_every_failed_message_lost_a_chunk(self, seed, monkeypatch):
        channels = []

        class Recording(SimulatedChannel):
            """Records the (content_type, timestamp) of each message that lost a chunk."""

            def __init__(self, *args):
                super().__init__(*args)
                self.lost = set()
                channels.append(self)

            def send(self, datagram, now_ns):
                dropped = self.dropped
                super().send(datagram, now_ns)
                if self.dropped > dropped:
                    ts, _, ctype, _, _ = struct.unpack_from(_HEADER_FMT, datagram)
                    self.lost.add((ctype, ts))

        monkeypatch.setattr(fhsplit.emulation, "SimulatedChannel", Recording)
        report = run_emulation(LTE10, TrafficProfile(80e6, duration_subframes=200),
                               ChannelSpec(loss_rate=0.01), seed=seed)
        dl, ul = channels
        for stats, channel in ((report.dl, dl), (report.ul, ul)):
            assert stats.jumbled_messages == 0
            assert stats.timeout_messages == len(channel.lost) > 0

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    def test_a_chunk_held_back_one_subframe_completes(self, name, which, monkeypatch):
        held = 2

        class HoldBack(SimulatedChannel):
            """Holds one chunk of each of subframe 2's messages back by a subframe."""

            def send(self, datagram, now_ns):
                ts, blocks, _, _, clock = struct.unpack_from(_HEADER_FMT, datagram)
                index = clock - ts * SUBFRAME_NS  # chunk i is stamped base_ns + i
                pick = {"first": 0, "middle": blocks // 2, "last": blocks - 1}[which]
                if ts == held and index == pick:
                    now_ns += SUBFRAME_NS
                super().send(datagram, now_ns)

        monkeypatch.setattr(fhsplit.emulation, "SimulatedChannel", HoldBack)
        report = run_emulation(preset(name), TrafficProfile(3e9, 1400, 5), seed=1)
        assert report.totals()["jumbled"] == report.totals()["timeouts"] == 0
        for stats in (report.dl, report.ul):
            assert stats.completed_messages == stats.emitted_messages
            assert stats.stale_drops == 0


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

    # (seed, goodput) and the plain (seed, goodput) whose files it must write;
    # a numpy or Fraction goodput used to make summary.json unwritable
    PLAIN_INPUTS = [
        ((np.int64(3), 2e6), (3, 2e6)),
        ((3, np.int64(2_000_000)), (3, 2_000_000)),
        ((3, np.float32(2e6)), (3, 2e6)),
        ((3, np.float64(2e6)), (3, 2e6)),
        ((3, Fraction(2_000_000)), (3, 2e6)),
    ]

    def test_numpy_seed_writes_the_plain_int_files(self, tmp_path):
        for i, pair in enumerate(self.PLAIN_INPUTS):
            files = [run_emulation(LTE10, TrafficProfile(goodput, 200, 5), seed=seed)
                     .save(tmp_path / f"{i}-{side}")
                     for side, (seed, goodput) in enumerate(pair)]
            assert [p.read_bytes() for p in files[0]] == \
                [p.read_bytes() for p in files[1]], pair

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


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cyclic collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """_run_loop pauses the cyclic collector, which is safe only while a run
    leaves no reference cycle behind for it to free."""

    # One short run in the shape of each perfbench workload, the impaired
    # lte10 one included.
    SHAPES = {
        "worst100-3g": (preset("worst100"), TrafficProfile(3e9, 1400, 2),
                        ChannelSpec(), DEFAULT_MAX_DATAGRAM),
        "lte20-dg256": (preset("lte20"), TrafficProfile(200e6, 1400, 3), ChannelSpec(), 256),
        "lte10-light-impaired": (LTE10, TrafficProfile(2e6, 200, 200),
                                 ChannelSpec(0.01, 0.05, 50.0), DEFAULT_MAX_DATAGRAM),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_run_leaves_no_cycles(self, shape):
        cfg, profile, channel, max_datagram = self.SHAPES[shape]
        with collector(False):
            gc.collect()
            report = run_emulation(cfg, profile, channel, seed=1, max_datagram=max_datagram)
            assert gc.collect() == 0
        assert report.ul.completed_messages > 0

    def test_a_socket_run_leaves_no_cycles(self):
        with collector(False):
            gc.collect()
            report = run_socket_emulation(LTE10, TrafficProfile(6e6, 1400, 20),
                                          "127.0.0.1:0", "127.0.0.1:0", seed=3)
            assert gc.collect() == 0
        assert report.ul.completed_messages > 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_collector_state_is_restored(self, enabled):
        with collector(enabled):
            run_emulation(LTE10, TrafficProfile(2e6, 200, 20), seed=1)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_state_is_restored_when_the_loop_raises(self, enabled):
        offered, dropped_bits, messages, *_ = _prepare(
            LTE10, TrafficProfile(2e6, 200, 20), 1, DEFAULT_MAX_DATAGRAM)
        during = []

        def send(datagram, send_ns):
            during.append(gc.isenabled())
            raise RuntimeError("link down")

        link = SimpleNamespace(send=send, deliver_until=lambda until_ns: [])
        with collector(enabled):
            with pytest.raises(RuntimeError, match="link down"):
                _run_loop(offered, dropped_bits, messages, (link, link),
                          0, 0, 1, 2e6, DEFAULT_MAX_DATAGRAM)
            assert gc.isenabled() is enabled
        assert during == [False]

    def test_no_collection_runs_during_the_loop(self, monkeypatch):
        # Counted around _run_loop alone: once the collector is back on, a
        # young pass may run as the caller frees the run's message streams.
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        def counted(*args):
            gc.callbacks.append(count)
            try:
                return _run_loop(*args)
            finally:
                gc.callbacks.remove(count)

        monkeypatch.setattr(fhsplit.emulation, "_run_loop", counted)
        cfg, profile, channel, max_datagram = self.SHAPES["worst100-3g"]
        threshold = gc.get_threshold()
        # Any tracked allocation would start a pass, whatever the free lists hold.
        gc.set_threshold(1)
        try:
            with collector(True):
                run_emulation(cfg, profile, channel, seed=1, max_datagram=max_datagram)
        finally:
            gc.set_threshold(*threshold)
        assert passes == []


class TestSimulatedChannel:
    def test_identity_preserves_order_and_content(self):
        chan = SimulatedChannel(ChannelSpec(), seed=0)
        for i in range(10):
            chan.send(bytes([i]), now_ns=i * 100)
        out = chan.deliver_until(10_000)
        assert [d for _, d in out] == [bytes([i]) for i in range(10)]
        assert chan.in_flight == 0

    def test_delivery_follows_time_then_send_order(self):
        # _emit's line-rate clock makes each direction's send times rise,
        # so only reordering delivers out of send order; the channel
        # still takes any send order, and ties keep send order.
        chan = SimulatedChannel(ChannelSpec(), seed=0)
        for now_ns, datagram in [(1000, b"a"), (3000, b"b"), (2000, b"c"),
                                 (2000, b"d"), (1000, b"e")]:
            chan.send(datagram, now_ns)
        assert chan.deliver_until(10_000) == [
            (1000, b"a"), (1000, b"e"), (2000, b"c"), (2000, b"d"), (3000, b"b"),
        ]

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


class TestChannelReferenceModel:
    """SimulatedChannel against a queue sorted by (delivery time, send index)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        st.sampled_from([0.0, 0.5, 50.0]),
        # (deliver?, time) steps; times jump back and forth across subframes
        st.lists(st.tuples(st.booleans(), st.integers(0, 4 * SUBFRAME_NS)),
                 max_size=60),
    )
    def test_matches_reference_model(self, seed, loss, reorder, delay_us, steps):
        chan = SimulatedChannel(ChannelSpec(loss, reorder, delay_us), seed)
        # one draw per decision, loss first, as the channel takes them
        rng = np.random.Generator(np.random.PCG64(seed))
        model, sent, dropped, reordered = [], 0, 0, 0
        for deliver, now_ns in steps:
            if deliver:
                due = sorted(x for x in model if x[0] <= now_ns)
                model = [x for x in model if x[0] > now_ns]
                assert chan.deliver_until(now_ns) == [(t, d) for t, _, d in due]
            else:
                datagram = sent.to_bytes(2, "big")
                chan.send(datagram, now_ns)
                sent += 1
                if loss > 0 and rng.random() < loss:
                    dropped += 1
                    continue
                delay_ns = int(delay_us * 1000)
                if reorder > 0 and rng.random() < reorder:
                    reordered += 1
                    delay_ns += SUBFRAME_NS
                model.append((now_ns + delay_ns, sent, datagram))
            assert (chan.sent, chan.dropped, chan.reordered, chan.in_flight) == (
                sent, dropped, reordered, len(model))


class TestChannelUniformBlocks:
    """The channel's uniforms come in blocks of UNIFORM_BLOCK draws.

    Thousands of sends cross several block boundaries; every decision must
    still read the value that one scalar draw per decision gives, loss
    first, and a zero rate must take no draw.
    """

    @pytest.mark.parametrize("loss,reorder", [(0.3, 0.0), (0.0, 0.3), (0.2, 0.3)])
    def test_decisions_match_one_scalar_draw_each(self, loss, reorder):
        seed, n, delay_ns = 41, 3_500, 5_000
        chan = SimulatedChannel(ChannelSpec(loss, reorder, delay_ns / 1000), seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        model, dropped, reordered, draws = [], 0, 0, 0
        for i in range(n):
            datagram, now_ns = i.to_bytes(2, "big"), i * 1_000
            chan.send(datagram, now_ns)
            if loss > 0:
                draws += 1
                if rng.random() < loss:
                    dropped += 1
                    continue
            delay = delay_ns
            if reorder > 0:
                draws += 1
                if rng.random() < reorder:
                    reordered += 1
                    delay += SUBFRAME_NS
            model.append((now_ns + delay, i, datagram))
        assert draws > 3 * UNIFORM_BLOCK
        assert chan.deliver_until(n * 1_000 + 2 * SUBFRAME_NS) == [
            (t, d) for t, _, d in sorted(model)]
        assert (chan.sent, chan.dropped, chan.reordered) == (n, dropped, reordered)

    @pytest.mark.parametrize("seed", [0, 41, 2**63 + 5])
    def test_decisions_follow_the_raw_words_in_plain_python(self, seed):
        # The seed contract without numpy's Generator: decision k reads raw
        # word k of a bare PCG64(seed) as (word >> 11) * 2**-53, loss first.
        loss, reorder, n = 0.2, 0.3, 3_000
        chan = SimulatedChannel(ChannelSpec(loss, reorder), seed)
        words = iter(np.random.PCG64(seed).random_raw(2 * n).tolist())

        def uniform():
            return (next(words) >> 11) * 2**-53

        expected = []
        for i in range(n):
            datagram = i.to_bytes(2, "big")
            chan.send(datagram, i)
            if uniform() < loss:
                continue
            expected.append((i + (SUBFRAME_NS if uniform() < reorder else 0), i, datagram))
        assert chan.deliver_until(n + SUBFRAME_NS) == [(t, d) for t, _, d in sorted(expected)]
        assert chan.dropped == n - len(expected) > 0
        assert chan.reordered == sum(t > i for t, i, _ in expected) > 0

    def test_channel_is_freed_without_the_cycle_collector(self):
        # A block source that held the channel would leave every run's two
        # channels in a reference cycle, alive until the collector ran.
        chan = SimulatedChannel(ChannelSpec(0.5, 0.5), seed=3)
        for i in range(10):
            chan.send(b"x", i)  # draws the first block
        ref = weakref.ref(chan)
        with collector(False):
            del chan
            assert ref() is None


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
        new = self.datagrams(1 + WINDOW, b"b" * 3000)
        assert rx.feed(new[0], 10) == [(self.CT, Jumbled(1, 1 + WINDOW))]
        assert rx.feed(new[1], 20) == []

    def test_jumble_with_instant_complete_still_reported(self):
        rx = SubframeReceiver()
        rx.feed(self.datagrams(1, b"a" * 3000)[0], 0)
        [single] = self.datagrams(1 + WINDOW, b"f")
        assert rx.feed(single, 10) == [
            (self.CT, Jumbled(1, 1 + WINDOW)), (self.CT, Complete(1 + WINDOW, b"f"))]

    def test_one_chunk_evicts_every_assembly_below_the_window(self):
        rx = SubframeReceiver()
        rx.feed(self.datagrams(1, b"a" * 3000)[0], 0)
        rx.feed(self.datagrams(2, b"b" * 3000)[0], 1)
        [single] = self.datagrams(2 + WINDOW, b"f")
        assert rx.feed(single, 10) == [
            (self.CT, Jumbled(1, 2 + WINDOW)), (self.CT, Jumbled(2, 2 + WINDOW)),
            (self.CT, Complete(2 + WINDOW, b"f"))]

    def test_every_expired_assembly_times_out_before_the_next_datagram(self):
        rx = SubframeReceiver()
        a, b = self.datagrams(1, b"a" * 3000), self.datagrams(2, b"b" * 3000)
        rx.feed(b[0], 0)
        rx.feed(a[0], 5)
        assert rx.feed(b[1], DEFAULT_TIMEOUT_NS + 5) == [
            (self.CT, Timeout(2, 1, 3)), (self.CT, Timeout(1, 1, 3)),
            (self.CT, Malformed("stale", timestamp=2))]

    def test_duplicate_is_metered_as_malformed(self):
        rx = SubframeReceiver()
        meter = _DirMeter(1)
        d0, d1, d2 = self.datagrams(0, b"a" * 3000)
        for i, datagram in enumerate([d0, d0, d1, d2]):
            for ctype, event in rx.feed(datagram, i):
                meter.record_event(ctype, event)
        assert meter.malformed_events == 1
        assert meter.completed == {(self.CT, 0): 3000}

    def test_content_types_assemble_independently(self):
        rx = SubframeReceiver()
        a = chunk_subframe(1, 0, b"a" * 3000)
        b = chunk_subframe(1, 1, b"b" * 3000)
        out = []
        for x, y in zip(a, b):
            out += rx.feed(x.to_datagram(), 0) + rx.feed(y.to_datagram(), 0)
        assert out == [(0, Complete(1, b"a" * 3000)), (1, Complete(1, b"b" * 3000))]


T_OUT = DEFAULT_TIMEOUT_NS
_HEADER_FMT = ">QHHHQ"


def _with_header(datagram, **fields):
    """datagram with some header fields replaced; the rest of it unchanged."""
    names = ("timestamp", "num_blocks", "content_type", "size", "sender_clock")
    values = dict(zip(names, struct.unpack_from(_HEADER_FMT, datagram)), **fields)
    return struct.pack(_HEADER_FMT, *(values[n] for n in names)) + datagram[HEADER_LEN:]


def _mangle(datagram, kind, k):
    if kind == "short":  # too short for a header
        return datagram[: k % HEADER_LEN]
    if kind == "truncated":  # a whole header, payload cut: size disagrees
        return datagram[: HEADER_LEN + k % (len(datagram) - HEADER_LEN)]
    if kind == "size":
        size = struct.unpack_from(">H", datagram, 12)[0]
        return _with_header(datagram, size=(size + 1 + k % 0xFFFF) % 0x10000)
    if kind == "zero_blocks":
        return _with_header(datagram, num_blocks=0)
    if kind == "oversized":  # size matches the length, but above MAX_DATAGRAM
        big = datagram.ljust(MAX_DATAGRAM + 1, b"o")
        return _with_header(big, size=len(big))
    return datagram


@st.composite
def arrival_lists(draw):
    """(recv_ns, datagram) lists over a few short messages, with every kind of fault."""
    messages = draw(st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 7]),
                  st.binary(min_size=1, max_size=20)),
        min_size=1, max_size=5))
    pool = []
    for ts, ctype, payload in messages:
        # 4 payload bytes per chunk: up to 5 chunks per message
        pool += [c.to_datagram() for c in chunk_subframe(
            ts, ctype, payload, HEADER_LEN + 4, sender_clock=100 * ts)]
    kinds = st.sampled_from(["keep"] * 6 + ["short", "truncated", "size",
                                            "zero_blocks", "oversized"])
    # at, just before and past the 2 ms deadlines; unsorted, so times go backwards
    times = st.sampled_from([0, 1, 2, T_OUT - 1, T_OUT, T_OUT + 1, 2 * T_OUT, 3 * T_OUT])
    arrivals = draw(st.lists(
        st.tuples(times, st.sampled_from(pool), kinds, st.integers(0, 1 << 16)),
        max_size=40))
    return [(t, _mangle(d, kind, k)) for t, d, kind, k in arrivals]


@st.composite
def long_runs(draw):
    """(recv_ns, datagram) lists of messages of 20-60 chunks, each sent as one run.

    Each message's arrival times rise by a fixed step that can pass its
    2 ms deadline part way through the run. Up to four faults sit inside
    the run: a lost chunk, or after a chunk its duplicate, a truncated
    copy, a copy of another content type or a datagram too short for a
    header. Two messages may also be interleaved datagram by datagram.
    """
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        ts, ctype = draw(st.integers(0, 2)), draw(st.sampled_from([0, 1]))
        blocks = draw(st.integers(20, 60))
        # 4 payload bytes per chunk: exactly `blocks` chunks
        payload = draw(st.binary(min_size=4 * blocks - 3, max_size=4 * blocks))
        chunks = [c.to_datagram() for c in chunk_subframe(
            ts, ctype, payload, HEADER_LEN + 4, sender_clock=100 * ts)]
        faults = dict(draw(st.lists(st.tuples(
            st.integers(0, blocks - 1),
            st.sampled_from(["lost", "duplicate", "truncated", "other_type", "short"]),
        ), max_size=4)))
        run = []
        for k, d in enumerate(chunks):
            kind = faults.get(k)
            if kind != "lost":
                run.append(d)
            if kind == "duplicate":
                run.append(_with_header(d))
            elif kind == "truncated":
                run.append(d[:-1])
            elif kind == "other_type":
                run.append(_with_header(d, content_type=ctype ^ 7))
            elif kind == "short":
                run.append(d[:HEADER_LEN - 1])
        start = draw(st.sampled_from([0, T_OUT // 2, T_OUT]))
        # a step of T_OUT // 16 passes the deadline at the 17th datagram
        step = draw(st.sampled_from([0, 1, T_OUT // 40, T_OUT // 16]))
        runs.append([(start + k * step, d) for k, d in enumerate(run)])
    if len(runs) > 1 and draw(st.booleans()):
        a, b = runs[:2]
        mixed = [x for pair in zip(a, b) for x in pair]
        n = min(len(a), len(b))
        runs[:2] = [mixed + a[n:] + b[n:]]
    return [arrival for run in runs for arrival in run]


class TestFeedMany:
    """feed_many is feed applied to each arrival in turn, only faster."""

    @settings(max_examples=400, deadline=None)
    @given(arrival_lists(), st.data())
    def test_same_events_and_state_as_feed(self, arrivals, data):
        ref = SubframeReceiver()
        expected = [event for recv_ns, d in arrivals for event in ref.feed(d, recv_ns)]
        cut = data.draw(st.integers(0, len(arrivals)))
        rx = SubframeReceiver()
        got = rx.feed_many(arrivals[:cut]) + rx.feed_many(arrivals[cut:])
        assert got == expected
        assert rx.malformed_headers == ref.malformed_headers
        assert rx.poll(10 * T_OUT) == ref.poll(10 * T_OUT)
        for _, event in got:
            if isinstance(event, Complete):
                assert type(event.payload) is bytes

    def test_only_the_first_and_last_chunk_are_decoded(self, monkeypatch):
        fed = []
        feed = SubframeReceiver.feed
        monkeypatch.setattr(SubframeReceiver, "feed",
                            lambda rx, d, now_ns: fed.append(d) or feed(rx, d, now_ns))
        payload = bytes(range(256)) * 12
        datagrams = [c.to_datagram() for c in chunk_subframe(4, 1, payload, 256)]
        out = SubframeReceiver().feed_many(list(enumerate(datagrams)))
        assert out == [(1, Complete(4, payload))]
        assert fed == [datagrams[0], datagrams[-1]]

    @settings(max_examples=300, deadline=None)
    @given(long_runs(), st.data())
    def test_long_runs_give_the_same_events_and_state_as_feed(self, arrivals, data):
        ref = SubframeReceiver()
        expected = [event for recv_ns, d in arrivals for event in ref.feed(d, recv_ns)]
        # cuts between feed_many calls, most of them inside a run
        cuts = sorted(data.draw(st.lists(st.integers(0, len(arrivals)), max_size=3)))
        rx = SubframeReceiver()
        got = []
        for a, b in zip([0, *cuts], [*cuts, len(arrivals)]):
            got += rx.feed_many(arrivals[a:b])
        assert got == expected
        assert rx.malformed_headers == ref.malformed_headers
        state = {ctype: vars(buf) for ctype, buf in rx._buffers.items()}
        assert state == {ctype: vars(buf) for ctype, buf in ref._buffers.items()}

    def test_each_header_is_unpacked_once_before_feed(self, monkeypatch):
        run = [c.to_datagram() for c in chunk_subframe(4, 1, bytes(range(256)) * 12, 256)]
        other = chunk_subframe(4, 0, b"x" * 300, 256)[0].to_datagram()
        short = run[7][:HEADER_LEN - 1]
        # a run broken by another content type, a duplicate and a datagram
        # too short for a header
        datagrams = run[:5] + [other, _with_header(run[4])] + run[5:8] + [short] + run[8:]
        unpacks = collections.Counter()  # id(datagram) -> header unpacks

        class CountingHeader:
            def __init__(self, inner):
                self.inner = inner

            def unpack_from(self, data, offset=0):
                unpacks[id(data)] += 1
                return self.inner.unpack_from(data, offset)

        monkeypatch.setattr(fhsplit.wire, "_HEADER", CountingHeader(fhsplit.wire._HEADER))
        fed = []
        feed = SubframeReceiver.feed
        monkeypatch.setattr(SubframeReceiver, "feed",
                            lambda rx, d, now_ns: fed.append(d) or feed(rx, d, now_ns))
        out = SubframeReceiver().feed_many(list(enumerate(datagrams)))
        assert out[-1] == (1, Complete(4, bytes(range(256)) * 12))
        # the datagram after the short one continues the held run
        assert list(map(id, fed)) == list(map(id, [run[0], other, datagrams[6], short,
                                                   run[-1]]))
        # only the datagram that breaks the run with a whole header is
        # unpacked twice: by advance, then by feed's decode
        assert [unpacks[id(d)] for d in datagrams] == [
            2 if d is other else 0 if d is short else 1 for d in datagrams]


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

    def test_events_are_counted_by_outcome(self):
        meter = _DirMeter(4)
        for ts in range(4):
            meter.record_events([(0, Complete(ts, bytes(3000))),
                                 (0, Malformed("stale", timestamp=ts)),
                                 (0, Malformed("stale", timestamp=ts))])
        meter.record_event(1, Jumbled(2, 3))
        meter.record_event(1, Malformed("duplicate", timestamp=2))
        assert meter.completed == {(0, ts): 3000 for ts in range(4)}
        assert meter.jumbled == {(1, 2)}
        assert meter.stale_drops == 8
        assert meter.malformed_events == 1


class TestEmissionMemory:
    def test_a_message_is_copied_once_into_its_datagrams(self):
        # One worst100 uplink message at 1 472 B: the datagrams are the only
        # copy of the payload that emission makes. With full chunks cut as
        # bytes slices it peaked at 2.22 times the datagram bytes.
        payload = bytes(1_875_000)
        channel = SimulatedChannel(ChannelSpec(), seed=0)
        meter = _DirMeter(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _emit(meter, channel.send, [(CONTENT_UL_SOFT, payload)], 0, 0, 1472)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        wire = sum(len(d) for _, d in channel.deliver_until(2 * SUBFRAME_NS))
        assert wire == 1_875_000 + 1294 * HEADER_LEN
        assert peak <= 1.5 * wire

    def test_a_run_frees_each_subframes_datagrams_before_making_the_next(self):
        # worst100 at 3 Gbit/s: a subframe's uplink message and its datagrams
        # are about two of its uplink wire bytes; the previous subframe's
        # datagrams, if still alive while the next ones are made, a third.
        args = (preset("worst100"), TrafficProfile(3e9, 1400, 4), ChannelSpec(), 1)
        run_emulation(*args)  # the run's cached tables are built outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run_emulation(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.ul.completed_messages == report.ul.emitted_messages
        assert peak <= 3 * (report.rows[0].ul_bits // 8)


class TestLinkFailure:
    def test_arrivals_read_before_an_oserror_are_metered(self):
        # The uplink link fails as it is read at the end of subframe 5, just
        # after the downlink one has delivered that subframe's datagrams.
        offered, dropped_bits, messages, (s_dl, s_ul), *_ = _prepare(
            LTE10, TrafficProfile(2e6, 200, 20), 1, DEFAULT_MAX_DATAGRAM)
        dl, ul = SimulatedChannel(ChannelSpec(), s_dl), SimulatedChannel(ChannelSpec(), s_ul)
        fail_ns = 6 * SUBFRAME_NS - 1
        delivered = []

        def dl_deliver(until_ns):
            arrivals = dl.deliver_until(until_ns)
            delivered.append((until_ns, len(arrivals)))
            return arrivals

        def ul_deliver(until_ns):
            if until_ns >= fail_ns:
                raise OSError("network is unreachable")
            return ul.deliver_until(until_ns)

        report = _run_loop(offered, dropped_bits, messages,
                           (SimpleNamespace(send=dl.send, deliver_until=dl_deliver),
                            SimpleNamespace(send=ul.send, deliver_until=ul_deliver)),
                           0, 0, 1, 2e6, DEFAULT_MAX_DATAGRAM)
        assert report.incomplete
        until_ns, count = delivered[-1]
        assert until_ns == fail_ns and count > 0
        # every downlink message sent so far completed, subframe 5's included;
        # subframe 5's uplink never arrived
        assert report.dl.completed_messages == report.dl.emitted_messages
        assert report.rows[5].completes > 0
        assert report.ul.completed_messages < report.ul.emitted_messages


class TestGoldenReports:
    """Fixed-seed report bytes: any refactor of the emulator must keep them.

    The digest covers exactly what EmulationReport.save writes, report.csv
    followed by summary.json. A legitimate change of the modelled output
    updates these digests in the same commit and says why.
    """

    CASES = [
        # preset, goodput_bps, packet_size, subframes, channel, max_datagram, seed
        ("lte10", 30e6, 1400, 200, ChannelSpec(0.02, 0.05, 30.0), 1472, 11,
         "9441fdea545234bd9383f6357f709c27faa5ab968f49f36391e6cf65a68903dd"),
        ("lte10", 2e6, 200, 300, ChannelSpec(0.01, 0.05, 50.0), 1472, 1,
         "a9ac77ebbfddf2368622dd5741e48059e35f4feee2636ce4f2e82fc7d993ffb9"),
        ("lte20", 200e6, 1400, 10, ChannelSpec(), 256, 1,
         "231ff8493f45f7c2470eb680a96470bca5ed125f0aec2eefc3c25845128a6562"),
        ("worst100", 3e9, 1400, 2, ChannelSpec(), 1472, 1,
         "31f9dcf0d3cf82cfca5d67e0c65174e613eb03b71cec354810a4d6711934d25f"),
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
        assert self.digest(report) == digest

    @staticmethod
    def digest(report):
        saved = report.csv_text() + json.dumps(report.summary(), indent=2) + "\n"
        return hashlib.sha256(saved.encode()).hexdigest()

    @pytest.mark.parametrize("case", [CASES[1], CASES[2]], ids=["impaired", "saturated"])
    def test_payload_content_never_enters_a_report(self, case, monkeypatch):
        # The uplink pool repeats its codes on the premise that only payload
        # sizes and outcomes reach a report: all-zero payloads keep every byte.
        name, goodput, packet, subframes, spec, max_datagram, seed, digest = case
        for synth in ("_dl_messages", "_ul_messages"):
            def zeroed(*args, _synth=getattr(fhsplit.emulation, synth)):
                return [(ctype, bytes(len(payload))) for ctype, payload in _synth(*args)]
            monkeypatch.setattr(fhsplit.emulation, synth, zeroed)
        report = run_emulation(
            preset(name), TrafficProfile(goodput, packet, subframes), spec, seed,
            max_datagram=max_datagram,
        )
        assert report.ul.emitted_payload_bits > 0
        assert self.digest(report) == digest


class TestGoldenPayloads:
    """Fixed-seed uplink soft-bit payload bytes from `_ul_messages`.

    The report digests above see only payload sizes and outcomes, so a
    wrong code table, shuffle, pool read or pack would still pass them;
    these pin the bytes of chained messages read from one seeded pool.
    The code counts include ones that are not a multiple of 8, which end
    in a zero-padded byte at w=5. The long counts sit on and around the
    pool's 2^16 codes, so they straddle its wrap and pin the bytes
    wherever a message starts in the pool.
    The digests were re-pinned when each message stopped drawing its own
    codes and became one read of a per-run pool (TestCodePool), so the
    bytes changed while the report digests did not.
    """

    COUNTS = (1, 7, 8, 13, 64, 1001, 30_000)
    CASES = [
        # preset (soft_bit_width), seed of the LLR stream, sha256 of the payloads
        ("worst100", 1, "408cf062532104f530adeacf8c87c25fd378f78bfbb69cb09086f5bda8a93304"),
        ("worst100", 7, "f9707a1a4098024990391109dc32734c51a67d963da16e874cd8fe4aa7b311c4"),
        ("lte10", 1, "cb6e502367c39edd218993c64a434c4f10a9f84072d108702d6109239da0a1e6"),
        ("lte10", 7, "44aa2ca1248319eebcd9cfa73519cd14cd8d30a7c3d082112c15726d8e325352"),
    ]
    LONG_COUNTS = (65_535, 65_536, 65_537, 200_003)
    LONG_CASES = [
        ("worst100", 1, "4c980970f1e418a750d9d4767b2a7af6dd4380510e032b4d418507ae07f966a1"),
        ("worst100", 7, "41b8aa52f93c2bc2d764c9052ced9192effb81b558e8bba052e14b75b542dc11"),
        ("lte10", 1, "f3fb86e92e38b734ee24c6514c24698c983f1eefccd4d46a709adc6e185fa9b2"),
    ]

    @staticmethod
    def digest(name, seed, counts):
        cfg = preset(name)
        llr_rng = np.random.PCG64(seed)
        _, pool = code_pool(cfg.soft_bit_width, llr_rng)
        h = hashlib.sha256()
        for n in counts:
            # t=1 is not a CQI subframe, so the soft bits are the only message
            [(ctype, payload)] = _ul_messages(1, n, cfg, pool, llr_rng)
            assert ctype == CONTENT_UL_SOFT
            assert len(payload) == -(-n * cfg.soft_bit_width // 8)
            h.update(payload)
        return h.hexdigest()

    @pytest.mark.parametrize("name,seed,digest", CASES,
                             ids=[f"{c[0]}-seed{c[1]}" for c in CASES])
    def test_soft_bit_bytes(self, name, seed, digest):
        assert self.digest(name, seed, self.COUNTS) == digest

    @pytest.mark.parametrize("name,seed,digest", LONG_CASES,
                             ids=[f"{c[0]}-seed{c[1]}" for c in LONG_CASES])
    def test_long_soft_bit_bytes(self, name, seed, digest):
        assert self.digest(name, seed, self.LONG_COUNTS) == digest


class TestDownlinkPayloads:
    """Downlink data bytes are raw words of the run's payload stream.

    A message of n bytes is the first n bytes of the next ceil(n/8) raw
    64-bit words, each little-endian; the rest of the last word is
    dropped, so nothing carries over to the next message. The sizes end on
    and off a word and reach worst100's 373 800-byte subframe. The report
    digests see only payload sizes, so this digest pins the bytes.
    """

    SIZES = (1, 7, 8, 9, 250, 25_000, 373_800)
    DIGEST = "6c388ed76fa3ef3b45a529d7c45912252140720ad83fa8962e9c78ace03b3ce3"

    @staticmethod
    def reference(ref_rng, n):
        words = (int(ref_rng.random_raw()) for _ in range(-(-n // 8)))
        return b"".join(w.to_bytes(8, "little") for w in words)[:n]

    def test_chained_messages_are_raw_words(self):
        rng, ref_rng = np.random.PCG64(29), np.random.PCG64(29)
        h = hashlib.sha256()
        for n in self.SIZES:
            # a bit count off a byte boundary still fills its last byte
            [_, (ctype, payload)] = _dl_messages(1, 8 * n - n % 8, LTE10, rng, {})
            assert ctype == CONTENT_DL_DATA
            assert payload == self.reference(ref_rng, n), f"{n} bytes"
            assert rng.state == ref_rng.state
            h.update(payload)
        assert h.hexdigest() == self.DIGEST

    def test_a_run_draws_from_the_first_spawned_seed(self):
        # The payload stream is the first of the four seeds _prepare
        # spawns; an idle subframe takes no word from it.
        cfg, profile, seed = TINY, TrafficProfile(20e3, 5, 8), 23
        _, scheduled, _ = _traffic_schedule(cfg, profile)
        assert 0 in scheduled and len(set(scheduled)) > 1
        _, _, (dl_messages, _), *_ = _prepare(cfg, profile, seed, 1472)
        ref_rng = np.random.PCG64(np.random.SeedSequence(seed).spawn(4)[0])
        for t, bits in enumerate(scheduled):
            data = [p for ctype, p in next(dl_messages) if ctype == CONTENT_DL_DATA]
            expected = [self.reference(ref_rng, (bits + 7) // 8)] if bits else []
            assert data == expected, f"subframe {t}"


def code_probabilities(q):
    """Probability of every code, -max_code..max_code, for an N(0, LLR_SCALE^2) LLR.

    Code c takes the LLRs in ((c - 1/2) step, (c + 1/2) step); the extreme
    codes are open to +-inf, because the quantizer clips.
    """
    cdf = [0.0]
    for c in range(-q.max_code, q.max_code):
        z = (c + 0.5) * q.step / LLR_SCALE
        cdf.append(0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
    cdf.append(1.0)
    return np.diff(cdf)


class TestCodeTable:
    """The 2^16-entry inverse-CDF table that uplink codes are drawn from."""

    N = 1 << 16

    @staticmethod
    def counts(q):
        table = _llr_code_table(q)
        return np.bincount(table.astype(np.int64) + q.max_code,
                           minlength=2 * q.max_code + 1)

    @pytest.mark.parametrize("width", [2, 5, 8, 16])
    def test_code_shares_match_the_quantized_gaussian(self, width):
        q = LlrQuantizer(width)
        share = self.counts(q) / self.N
        assert np.abs(share - code_probabilities(q)).max() <= 2.0**-16

    @pytest.mark.parametrize("width", [2, 5, 8, 16])
    def test_entries_below_each_edge_round_the_gaussian_cdf(self, width):
        # Midpoint quantiles put round(N * cdf(edge)) entries below every
        # code edge; an off-by-one in the midpoint breaks this at some edge.
        q = LlrQuantizer(width)
        below = np.cumsum(self.counts(q))
        expected = np.cumsum(code_probabilities(q)) * self.N
        assert np.abs(below - expected).max() <= 0.5 + 1e-6

    @pytest.mark.parametrize("width", [2, 5, 16])
    def test_table_is_sorted_and_in_range(self, width):
        q = LlrQuantizer(width)
        table = _llr_code_table(q)
        assert table.dtype == np.int16 and table.shape == (self.N,)
        assert np.all(np.diff(table) >= 0)
        assert np.abs(table).max() <= q.max_code

    def test_quantiles_are_built_once_and_read_only(self):
        quantiles = _llr_quantiles()
        assert _llr_quantiles() is quantiles
        assert not quantiles.flags.writeable

    @pytest.mark.parametrize("width", [2, 5, 8, 9, 16])
    def test_drawn_codes_round_trip_at_every_width(self, width):
        cfg = replace(LTE10, soft_bit_width=width)
        # 200_003 codes wrap around the 2^16-code pool three times; the
        # reference indexes the shuffled table itself
        for n in (1001, 200_003):
            llr_rng, ref_rng = np.random.PCG64(5), np.random.PCG64(5)
            _, pool = code_pool(width, llr_rng)
            codes, _ = code_pool(width, ref_rng)
            [(_, payload)] = _ul_messages(1, n, cfg, pool, llr_rng)
            assert np.array_equal(unpack_codes(payload, width, n),
                                  pool_read(codes, ref_rng, n))

    def test_drawn_codes_follow_the_quantized_gaussian(self):
        # 2^20 codes are 16 whole pool periods, so their shares are the table's
        cfg = preset("worst100")
        assert cfg.soft_bit_width == 5
        q = LlrQuantizer(5)
        n = 1 << 20
        llr_rng = np.random.PCG64(3)
        _, pool = code_pool(5, llr_rng)
        [(_, payload)] = _ul_messages(1, n, cfg, pool, llr_rng)
        codes = unpack_codes(payload, 5, n)
        freq = np.bincount(codes + q.max_code, minlength=2 * q.max_code + 1) / n
        p = code_probabilities(q)
        assert np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / n))


class TestCodePool:
    """A run's soft bits are read from one shuffled, packed code table.

    _prepare shuffles the 2^16-entry code table with the run's LLR stream
    and packs it. A message of n codes then takes exactly one raw word of
    that stream; its top 13 bits pick a group g of 8 codes, and the
    message is the pool's codes (8g + i) mod 2^16, read across the wrap,
    with the unused low bits of its last byte zero. The counts end on
    and off a byte and wrap the pool up to twice.
    """

    COUNTS = (1, 2, 3, 5, 7, 65_535, 65_537, 131_074)

    @pytest.mark.parametrize("width", [2, 5, 8, 16])
    def test_pool_is_a_packed_permutation_of_the_table(self, width):
        codes, pool = code_pool(width, np.random.PCG64(17))
        table = _llr_code_table(LlrQuantizer(width))
        assert len(pool) == POOL_CODES * width // 8
        assert np.array_equal(unpack_codes(pool, width, POOL_CODES), codes)
        assert np.array_equal(np.sort(codes), table)
        assert not np.array_equal(codes, table)

    @pytest.mark.parametrize("width", [5, 16])
    def test_chained_messages_read_the_pool(self, width):
        cfg = replace(LTE10, soft_bit_width=width)
        rng, ref_rng = np.random.PCG64(17), np.random.PCG64(17)
        _, pool = code_pool(width, rng)
        codes, _ = code_pool(width, ref_rng)
        for n in self.COUNTS:
            [(_, payload)] = _ul_messages(1, n, cfg, pool, rng)
            assert payload == reference_pack(pool_read(codes, ref_rng, n), width), f"{n} codes"
            pad = -n * width % 8
            assert payload[-1] & ((1 << pad) - 1) == 0
            # one raw word per message, whatever its length
            assert rng.state == ref_rng.state

    def test_a_run_reads_the_pool_its_llr_stream_shuffles(self):
        # The LLR stream is the second of the four seeds _prepare spawns; an
        # idle subframe takes no word from it.
        cfg, profile, seed = replace(TINY, soft_bit_width=5), TrafficProfile(20e3, 5, 8), 23
        _, scheduled, _ = _traffic_schedule(cfg, profile)
        assert 0 in scheduled and len(set(scheduled)) > 1
        _, _, (_, ul_messages), *_ = _prepare(cfg, profile, seed, 1472)
        ref_rng = np.random.PCG64(np.random.SeedSequence(seed).spawn(4)[1])
        codes, _ = code_pool(5, ref_rng)
        for t, n in enumerate(scheduled):
            soft = [p for ctype, p in next(ul_messages) if ctype == CONTENT_UL_SOFT]
            expected = [reference_pack(pool_read(codes, ref_rng, n), 5)] if n else []
            assert soft == expected, f"subframe {t}"


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

    def test_content_check_sees_every_message(self, spans):
        # The benchmark checks each Complete's content at the accept hook;
        # batched receive must still route every Complete through it once,
        # also when a jumbling chunk is offered to accept a second time.
        def traced(*args, **kwargs):
            tracer = spans.Tracer(fhsplit)
            tracer.install()
            try:
                tracer.begin_call()
                report = run_emulation(*args, **kwargs)
            finally:
                tracer.restore()
            completed = report.dl.completed_messages + report.ul.completed_messages
            # a latency sample is taken for every checked Complete
            assert len(tracer.counters.latencies_ns) == completed
            assert tracer.counters.corrupt_completes == 0
            return report, tracer.counters, completed

        report, c, completed = traced(preset("lte20"), TrafficProfile(200e6, 1400, 4),
                                      ChannelSpec(), seed=1, max_datagram=256)
        assert completed == report.dl.emitted_messages + report.ul.emitted_messages
        assert c.useful_chunks == c.datagrams > completed
        report, c, completed = traced(LTE10, TrafficProfile(80e6, 1400, 200),
                                      ChannelSpec(0.01, 0.05, 50.0), seed=1)
        # The window leaves such a run no jumble, so a crafted trace evicts
        # an open assembly: the chunk of a subframe WINDOW newer jumbles it
        # and is offered to accept again, where it starts its own.
        tracer = spans.Tracer(fhsplit)
        tracer.install()
        try:
            tracer.begin_call()
            chunk = fhsplit.emulation.chunk_subframe  # the traced one
            old = chunk(0, CONTENT_UL_SOFT, b"o" * 3000)
            new = chunk(WINDOW, CONTENT_UL_SOFT, b"n" * 3000)
            arrivals = [(ns, c.to_datagram())
                        for ns, c in enumerate([old[0], *new, old[1]])]
            events = SubframeReceiver().feed_many(arrivals)
        finally:
            tracer.restore()
        assert events == [(CONTENT_UL_SOFT, Jumbled(0, WINDOW)),
                          (CONTENT_UL_SOFT, Complete(WINDOW, b"n" * 3000)),
                          (CONTENT_UL_SOFT, Malformed("stale", timestamp=0))]
        # old[0], new[0] twice, new[2] and old[1]; advance holds new[1]
        assert tracer.counters.accepted == 5
        assert len(tracer.counters.latencies_ns) == 1
        assert tracer.counters.corrupt_completes == 0

    def test_pool_is_built_once_per_call(self, spans):
        # llr.quantize_ms and llr.pack_ms time the per-run table and pool; a
        # pool cached per process would leave both reading 0 after one call.
        tracer = spans.Tracer(fhsplit)
        tracer.install()
        try:
            for goodput in (2e6, 0.0, 2e6):
                tracer.begin_call()
                run_emulation(LTE10, TrafficProfile(goodput, 200, 5), seed=1)
        finally:
            tracer.restore()
        fired = [tracer.names[i] for i in tracer.name]
        assert fired.count("emulation.quantize_llr") == 3
        assert fired.count("emulation.pack_codes") == 3

    def test_every_hook_target_resolves(self, spans):
        targets = [(owner, attr) for _, owner, attr in spans.SPAN_TARGETS]
        targets.append(tuple(spans.ROOT_SPAN.rsplit(".", 1)))
        missing = [f"{owner}.{attr}" for owner, attr in targets
                   if attr not in vars(self.resolve(owner))]
        assert missing == []
