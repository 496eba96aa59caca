"""Acceptance criteria, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one PASSED/FAILED line per
criterion; with `-s` each test also prints an explicit summary line.
Every tolerance is pinned as a constant next to the check it guards.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from fhsplit.cell import Direction, LinkBudget, preset
from fhsplit.channel import ChannelSpec
from fhsplit.emulation import TrafficProfile, run_emulation
from fhsplit.llr import LlrQuantizer, dequantize_llr, pack_codes, quantize_llr, unpack_codes
from fhsplit.rates import (
    OPTION8_NOTE,
    efficiency_ratio,
    max_fronthaul_distance_km,
    rate_71,
    rate_72,
    rate_73_dl,
    rate_73_ul,
    rate_option8,
)
from fhsplit.wire import (
    DEFAULT_TIMEOUT_NS,
    Complete,
    HEADER_LEN,
    HeaderError,
    Jumbled,
    MAX_DATAGRAM,
    ReassemblyBuffer,
    SplitHeader,
    WINDOW,
    Timeout,
    chunk_subframe,
    decode_header,
    encode_header,
)

RATE_TOLERANCE_MBPS = 0.1          # criterion 1: published one-decimal figures
HEADER_ROUND_TRIPS = 10_000        # criterion 5
FUZZ_DECODES = 100_000             # criterion 5
QUANTIZER_SAMPLES = 10_000         # criterion 6, per soft-bit width
SATURATED_DL_WINDOW = (67.2, 70.6)  # criterion 7, Mbit/s on the wire
UL_DL_RATIO_TOLERANCE = 0.02       # criterion 7: S_bw within +-2 %
SWEEP_BUDGET_SECONDS = 60.0        # criterion 7: 10 x 1000 subframes


def test_criterion_1_capacity_figures():
    """Per-split rates reproduce the published table to +-0.1 Mbit/s."""
    published = {
        "lte10": {"8": 3677.2, "7.1": 2150.4, "7.2": 537.6, "7.3dl": 67.2},
        "lte20": {"8": 7354.4, "7.1": 4300.8, "7.2": 1075.2, "7.3dl": 134.4},
    }
    for name, figures in published.items():
        cfg = preset(name)
        got = {
            "8": float(rate_option8(cfg)) / 1e6,
            "7.1": rate_71(cfg) / 1e6,
            "7.2": rate_72(cfg) / 1e6,
            "7.3dl": rate_73_dl(cfg) / 1e6,
        }
        for split, expected in figures.items():
            assert abs(got[split] - expected) <= RATE_TOLERANCE_MBPS, (
                f"{name} split {split}: {got[split]} vs {expected}"
            )
    # The 20 MHz option 8 entry sometimes circulates as 7357.4; the model
    # yields 7354.4 and the shipped table note documents the discrepancy.
    assert abs(float(rate_option8(preset("lte20"))) / 1e6 - 7354.4) <= 0.1
    assert "7354.4" in OPTION8_NOTE and "7357.4" in OPTION8_NOTE
    print("\nACCEPTANCE PASS 1: capacity figures within 0.1 Mbit/s, "
          "option-8 note present")


def test_criterion_2_efficiency_ratio_grid():
    """All 12 published one-decimal ratios match, and key exact rationals."""
    grid = {
        ("dl", 2, None): "16.0", ("dl", 4, None): "8.0",
        ("dl", 6, None): "5.3", ("dl", 8, None): "4.0",
        ("ul", 2, 8): "2.0", ("ul", 4, 8): "1.0",
        ("ul", 6, 8): "0.7", ("ul", 8, 8): "0.5",
        ("ul", 2, 4): "4.0", ("ul", 4, 4): "2.0",
        ("ul", 6, 4): "1.3", ("ul", 8, 4): "1.0",
    }
    for (direction, mod_order, width), expected in grid.items():
        d = Direction.DL if direction == "dl" else Direction.UL
        ratio = efficiency_ratio(d, mod_order, width)
        assert f"{float(ratio):.1f}" == expected, (direction, mod_order, width)
        # the exact rational behind each rounded entry
        if d is Direction.DL:
            assert ratio == Fraction(32, mod_order)
        else:
            assert ratio == Fraction(32, mod_order * width)
    print("ACCEPTANCE PASS 2: all 12 ratio-grid entries exact at one decimal, "
          "closed forms 32/O_m and 32/(O_m*S_bw) verified")


def test_criterion_3_worst_case_uplink_identity():
    """The circulating worst-case uplink pair sits in the exact predicted ratio.

    21.6 Gbit/s of frequency-domain I/Q against 20.25 Gbit/s of 5-bit soft
    bits at 64-QAM must equal 2*16/(6*5) = 16/15 exactly. Only the uplink
    pair admits this check: the corresponding downlink figures in
    circulation do not reduce to one closed-form ratio of the same cell
    (they assume different parameter sets), so no downlink identity is
    asserted here.
    """
    lhs = Fraction("21.6") / Fraction("20.25")
    rhs = efficiency_ratio(Direction.UL, mod_order=6, soft_bit_width=5)
    assert lhs == rhs == Fraction(16, 15)
    print("ACCEPTANCE PASS 3: 21.6/20.25 == 32/(6*5) == 16/15 exactly")


def test_criterion_4_latency_budget():
    """Distance and propagation figures from the 3 ms HARQ budget."""
    budget = LinkBudget()  # 3 ms round trip, 1 ms DL / 2 ms UL, 5 us/km
    assert max_fronthaul_distance_km(budget, Direction.UL, 1.5) == 100.0
    assert max_fronthaul_distance_km(budget, Direction.DL, 1.0) == 0.0
    assert budget.propagation_delay_us(10.0) == 50.0
    print("ACCEPTANCE PASS 4: 1.5 ms uplink processing -> 100 km; "
          "1.0 ms downlink -> 0 km; 10 km -> 50 us")


def test_criterion_5_wire_protocol():
    """Header codec, fuzz robustness, chunk round-trip, outcome traces."""
    rng = random.Random(0xC0FFEE)

    # (a) encode/decode round trip over >= 10^4 random headers
    for _ in range(HEADER_ROUND_TRIPS):
        header = SplitHeader(
            timestamp=rng.getrandbits(64),
            num_blocks=rng.randint(1, 65535),
            content_type=rng.getrandbits(16),
            size=rng.randint(HEADER_LEN, MAX_DATAGRAM),
            sender_clock=rng.getrandbits(64),
        )
        assert decode_header(encode_header(header)) == header

    # (b) >= 10^5 arbitrary byte strings never abort the decoder
    rejected = 0
    for _ in range(FUZZ_DECODES):
        blob = rng.randbytes(rng.randint(0, 30))
        try:
            decode_header(blob)
        except HeaderError:
            rejected += 1
    assert rejected > 0  # the fuzz corpus does exercise the error paths

    # (c) chunking round trip across payload sizes and datagram limits
    for _ in range(200):
        payload = rng.randbytes(rng.randint(1, 20_000))
        max_datagram = rng.randint(HEADER_LEN + 1, 2000)
        chunks = chunk_subframe(7, 1, payload, max_datagram)
        assert all(len(c.to_datagram()) <= max_datagram for c in chunks)
        assert b"".join(c.payload for c in chunks) == payload

    # (d) three deterministic outcome traces
    buf = ReassemblyBuffer()
    done = chunk_subframe(1, 0, b"ok" * 2000, max_datagram=1472)
    events = [buf.accept(c, 0) for c in done]
    assert events[-1] == Complete(1, b"ok" * 2000)

    partial = chunk_subframe(2, 0, b"x" * 4000, max_datagram=1472)
    buf.accept(partial[0], 0)
    assert buf.poll_timeout(DEFAULT_TIMEOUT_NS - 1) is None
    assert buf.poll_timeout(DEFAULT_TIMEOUT_NS) == Timeout(2, 1, 3)

    stalled = chunk_subframe(3, 0, b"y" * 4000, max_datagram=1472)
    buf.accept(stalled[0], 2_000_000)
    # a subframe WINDOW newer evicts the stalled one
    follow = chunk_subframe(3 + WINDOW, 0, b"z" * 4000, max_datagram=1472)
    assert buf.accept(follow[0], 2_100_000) == Jumbled(3, 3 + WINDOW)

    print(f"ACCEPTANCE PASS 5: {HEADER_ROUND_TRIPS} header round trips, "
          f"{FUZZ_DECODES} fuzz decodes, chunk round trips, "
          "complete/timeout/jumbled traces")


def test_criterion_6_soft_bit_quantizer():
    """Round-trip error <= step/2 at widths 4, 5, 8; range respected; 0 -> 0."""
    rng = np.random.default_rng(2024)
    for width in (4, 5, 8):
        q = LlrQuantizer(width, clip=8.0)
        llrs = rng.uniform(-q.clip, q.clip, size=QUANTIZER_SAMPLES)
        codes = quantize_llr(llrs, q)
        assert np.all(np.abs(codes) <= q.max_code)
        restored = dequantize_llr(codes, q)
        assert np.max(np.abs(restored - llrs)) <= q.step / 2 + 1e-12
        # packing the codes is lossless
        unpacked = unpack_codes(pack_codes(codes, width), width, codes.size)
        assert np.array_equal(unpacked, codes)
        assert quantize_llr([0.0], q)[0] == 0
        # saturating inputs clamp to the extreme codes, never overflow
        extremes = quantize_llr([1e9, -1e9], q)
        assert extremes.tolist() == [q.max_code, -q.max_code]
    print(f"ACCEPTANCE PASS 6: {QUANTIZER_SAMPLES} LLRs per width in (4, 5, 8), "
          "error <= step/2, codes in range, zero fixed point")


def test_criterion_7_emulation_sweep():
    """Load sweep: monotone, correct at saturation, reproducible, fast."""
    cfg = preset("lte10")
    capacity_mbps = 67.2
    # ten points from idle to past saturation ("peak"), 10^4 subframes total
    points = [capacity_mbps * 1.3 * i / 9 for i in range(10)]

    t0 = time.perf_counter()
    reports = [
        run_emulation(
            cfg,
            TrafficProfile(goodput_bps=mbps * 1e6, duration_subframes=1000),
            ChannelSpec(),
            seed=1,
        )
        for mbps in points
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < SWEEP_BUDGET_SECONDS, f"sweep took {elapsed:.1f} s"

    dl_means = [r.mean_dl_bps for r in reports]
    ul_means = [r.mean_ul_bps for r in reports]
    # monotone non-decreasing consumption, strictly rising below saturation
    assert all(b >= a for a, b in zip(dl_means, dl_means[1:]))
    assert all(b >= a for a, b in zip(ul_means, ul_means[1:]))
    assert dl_means[1] > dl_means[0]

    # saturation: measured downlink inside the stated window, and the
    # uplink/downlink rate ratio equal to the soft-bit width within 2 %
    saturated = reports[-1]
    dl_mbps = saturated.mean_dl_bps / 1e6
    assert SATURATED_DL_WINDOW[0] <= dl_mbps <= SATURATED_DL_WINDOW[1], dl_mbps
    wire_ratio = saturated.mean_ul_bps / saturated.mean_dl_bps
    assert abs(wire_ratio - cfg.soft_bit_width) <= (
        cfg.soft_bit_width * UL_DL_RATIO_TOLERANCE
    ), wire_ratio
    # and net of headers and control, the payload ratio is S_bw exactly
    ratio = saturated.ul.emitted_payload_bits / (
        saturated.dl.emitted_payload_bits - 1000 * 64 * 8  # control bytes
    )
    assert abs(ratio - cfg.soft_bit_width) <= cfg.soft_bit_width * UL_DL_RATIO_TOLERANCE

    # reproducibility: a rerun of one mid-sweep point is byte-identical
    mid_profile = TrafficProfile(goodput_bps=points[4] * 1e6,
                                 duration_subframes=1000)
    again = run_emulation(cfg, mid_profile, ChannelSpec(), seed=1)
    assert again.csv_text() == reports[4].csv_text()
    assert json.dumps(again.summary(), sort_keys=True) == json.dumps(
        reports[4].summary(), sort_keys=True
    )

    print(f"ACCEPTANCE PASS 7: sweep monotone, saturation at {dl_mbps:.3f} "
          f"Mbit/s, ul/dl ratio {wire_ratio:.3f}, byte-identical rerun, "
          f"{elapsed:.1f} s for 10x1000 subframes")
