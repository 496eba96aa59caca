"""Rate-model tests: published capacity figures, ratios, properties."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhsplit.cell import CellConfig, Direction, LinkBudget, preset
from fhsplit.cli import _tenths, main
from fhsplit.emulation import CQI_PERIOD, TrafficProfile, run_emulation
from fhsplit.rates import (
    OPTION8_NOTE,
    capacity_table,
    efficiency_ratio,
    max_fronthaul_distance_km,
    rate_71,
    rate_72,
    rate_73_dl,
    rate_73_ul,
    rate_option8,
    wire_bits_73,
)

LTE10 = preset("lte10")
LTE20 = preset("lte20")


def mbps(rate_bps, fmt="csv"):
    """A rate as the cli prints it: Mbit/s, half-up to one decimal."""
    return _tenths(Fraction(rate_bps, 10**6), fmt, "too large")


class TestCapacityGoldens:
    """One-decimal Mbit/s figures for the two reference LTE cells."""

    @pytest.mark.parametrize(
        "cfg,tenths",
        [
            (LTE10, {"8": 36772, "7.1": 21504, "7.2": 5376,
                     "7.3dl": 672, "7.3ul": 5376}),
            (LTE20, {"8": 73544, "7.1": 43008, "7.2": 10752,
                     "7.3dl": 1344, "7.3ul": 10752}),
        ],
        ids=["10MHz", "20MHz"],
    )
    def test_reference_cells(self, cfg, tenths):
        assert Fraction(mbps(rate_option8(cfg))) * 10 == tenths["8"]
        assert Fraction(mbps(rate_71(cfg))) * 10 == tenths["7.1"]
        assert Fraction(mbps(rate_72(cfg))) * 10 == tenths["7.2"]
        assert Fraction(mbps(rate_73_dl(cfg))) * 10 == tenths["7.3dl"]
        assert Fraction(mbps(rate_73_ul(cfg))) * 10 == tenths["7.3ul"]

    def test_exact_bit_rates_10mhz(self):
        # 2 * 16 * 600 * 4 * 2 * 14000 and friends, written out
        assert rate_71(LTE10) == 2_150_400_000
        assert rate_72(LTE10) == 537_600_000
        assert rate_73_dl(LTE10) == 67_200_000
        assert rate_73_ul(LTE10) == 537_600_000
        assert rate_option8(LTE10) == Fraction(2_150_400_000) * Fraction(171, 100)
        assert rate_option8(LTE10) == 3_677_184_000  # exact integer product

    def test_exact_bit_rates_20mhz(self):
        assert rate_71(LTE20) == 4_300_800_000
        assert rate_73_dl(LTE20) == 134_400_000
        assert rate_option8(LTE20) == 7_354_368_000

    def test_option8_displays_7354_4_not_7357_4(self):
        assert mbps(rate_option8(LTE20)) == "7354.4"
        assert "7354.4" in OPTION8_NOTE and "7357.4" in OPTION8_NOTE

    def test_capacity_table_layout(self):
        rows = capacity_table(LTE10)
        assert [(r.split, r.direction) for r in rows] == [
            ("8", "both"), ("7.1", "both"), ("7.2", "both"),
            ("7.3", "dl"), ("7.3", "ul"),
        ]
        assert rows[0].rate_bps == 3_677_184_000

    def test_table_csv(self):
        # the rows as plan prints them in plain and csv
        assert [mbps(r.rate_bps) for r in capacity_table(LTE10)] == [
            "3677.2", "2150.4", "537.6", "67.2", "537.6"]

    def test_table_json_carries_note(self, capsys):
        # plan --format json writes the rows and the note that quotes option 8's figure
        assert main(["plan", "--preset", "lte20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["rate_mbps"] for r in payload["rows"]] == [
            7354.4, 4300.8, 1075.2, 134.4, 1075.2]
        assert payload["notes"] == [OPTION8_NOTE]
        assert f"{mbps(rate_option8(LTE20))} Mbit/s" in OPTION8_NOTE


class TestWireBits:
    """Split 7.3 on the wire: payload, headers, control and CQI, in closed form."""

    @pytest.mark.parametrize("name,max_datagram,dl,ul", [
        ("lte10", 1472, 68_944, 545_872),
        ("lte20", 256, 147_760, 1_176_400),
        ("worst100", 1472, 4_470_512, 22_348_768),
        ("lte10", 256, 74_224, 588_288),
        ("worst100", 9000, 4_414_544, 22_068_752),
    ])
    def test_saturated_report_rows(self, name, max_datagram, dl, ul):
        cfg = preset(name)
        assert wire_bits_73(cfg, Direction.DL, max_datagram) == dl
        assert wire_bits_73(cfg, Direction.UL, max_datagram) == ul
        # the CQI report is one 8-byte chunk
        assert wire_bits_73(cfg, Direction.UL, max_datagram, cqi=True) == ul + (8 + 22) * 8
        # offered at 1.5 x capacity, every subframe after the first few is full
        profile = TrafficProfile(1.5 * rate_73_dl(cfg), duration_subframes=30)
        report = run_emulation(cfg, profile, seed=1, max_datagram=max_datagram)
        for row in report.rows[15:]:
            assert row.dl_bits == dl
            assert row.ul_bits == wire_bits_73(cfg, Direction.UL, max_datagram,
                                               cqi=row.subframe % CQI_PERIOD == 0)


class TestEfficiencyRatios:
    """The published one-decimal ratio grid plus the exact rationals."""

    @pytest.mark.parametrize(
        "mod_order,expected",
        [(2, "16.0"), (4, "8.0"), (6, "5.3"), (8, "4.0")],
    )
    def test_downlink_grid(self, mod_order, expected):
        ratio = efficiency_ratio(Direction.DL, mod_order)
        assert f"{float(ratio):.1f}" == expected

    @pytest.mark.parametrize(
        "mod_order,width,expected",
        [
            (2, 8, "2.0"), (4, 8, "1.0"), (6, 8, "0.7"), (8, 8, "0.5"),
            (2, 4, "4.0"), (4, 4, "2.0"), (6, 4, "1.3"), (8, 4, "1.0"),
        ],
    )
    def test_uplink_grid(self, mod_order, width, expected):
        ratio = efficiency_ratio(Direction.UL, mod_order, width)
        assert f"{float(ratio):.1f}" == expected

    def test_exact_rationals(self):
        assert efficiency_ratio(Direction.DL, 2) == 16
        assert efficiency_ratio(Direction.DL, 6) == Fraction(32, 6) == Fraction(16, 3)
        assert efficiency_ratio(Direction.UL, 4, 8) == 1
        assert efficiency_ratio(Direction.UL, 8, 4) == 1
        assert efficiency_ratio(Direction.UL, 6, 5) == Fraction(16, 15)

    def test_worst_case_uplink_pair_identity(self):
        # The circulating worst-case uplink numbers, 21.6 Gbit/s of I/Q
        # against 20.25 Gbit/s of 5-bit soft bits at 64-QAM, are in the
        # exact ratio the closed form predicts.
        assert Fraction("21.6") / Fraction("20.25") == efficiency_ratio(
            Direction.UL, 6, 5
        )

    def test_uplink_needs_soft_bit_width(self):
        with pytest.raises(ValueError):
            efficiency_ratio(Direction.UL, 4)

    @pytest.mark.parametrize("width", [8, 0, "x"])
    def test_downlink_takes_no_soft_bit_width(self, width):
        with pytest.raises(ValueError, match=f"downlink ratio takes no soft_bit_width, "
                                             f"got {width!r}"):
            efficiency_ratio(Direction.DL, 4, width)

    def test_bad_mod_order(self):
        with pytest.raises(ValueError):
            efficiency_ratio(Direction.DL, 5)

    @pytest.mark.parametrize("kwargs,field", [
        ({"direction": Direction.UL, "soft_bit_width": True}, "soft_bit_width"),
        ({"direction": Direction.DL, "iq_component_bits": True}, "iq_component_bits"),
        ({"direction": Direction.UL, "soft_bit_width": 8, "iq_component_bits": False},
         "iq_component_bits"),
        ({"direction": Direction.DL, "iq_component_bits": 16.0}, "iq_component_bits"),
    ])
    def test_non_integer_width_named(self, kwargs, field):
        # a bool used to count as 1 and a float to raise TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            efficiency_ratio(mod_order=4, **kwargs)


cell_configs = st.builds(
    CellConfig,
    n_sc=st.integers(1, 4000),
    n_layers=st.integers(1, 8),
    n_ant=st.integers(1, 64),
    mod_order=st.sampled_from([2, 4, 6, 8]),
    iq_component_bits=st.integers(1, 32),
    soft_bit_width=st.integers(1, 16),
    symbols_per_second=st.integers(1000, 30000),
)


class TestRateProperties:
    @given(cfg=cell_configs)
    @settings(max_examples=200, deadline=None)
    def test_antenna_ports_relate_71_and_72(self, cfg):
        assert rate_71(cfg) == rate_72(cfg) * cfg.n_ant

    @given(cfg=cell_configs)
    @settings(max_examples=200, deadline=None)
    def test_soft_bits_relate_73_directions(self, cfg):
        assert rate_73_ul(cfg) == rate_73_dl(cfg) * cfg.soft_bit_width

    @given(cfg=cell_configs)
    @settings(max_examples=200, deadline=None)
    def test_option8_dominates(self, cfg):
        assert rate_option8(cfg) >= rate_71(cfg) >= rate_72(cfg)

    @given(cfg=cell_configs, k=st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_rates_linear_in_subcarriers(self, cfg, k):
        import dataclasses

        scaled = dataclasses.replace(cfg, n_sc=cfg.n_sc * k)
        assert rate_71(scaled) == k * rate_71(cfg)
        assert rate_73_dl(scaled) == k * rate_73_dl(cfg)
        assert rate_73_ul(scaled) == k * rate_73_ul(cfg)
        assert rate_option8(scaled) == k * rate_option8(cfg)

    @given(cfg=cell_configs)
    @settings(max_examples=100, deadline=None)
    def test_doubling_layers_doubles_everything(self, cfg):
        import dataclasses

        doubled = dataclasses.replace(cfg, n_layers=cfg.n_layers * 2)
        assert rate_72(doubled) == 2 * rate_72(cfg)
        assert rate_73_dl(doubled) == 2 * rate_73_dl(cfg)

    @given(cfg=cell_configs)
    @settings(max_examples=200, deadline=None)
    def test_efficiency_matches_rate_quotients(self, cfg):
        dl = efficiency_ratio(Direction.DL, cfg.mod_order,
                              iq_component_bits=cfg.iq_component_bits)
        assert dl == Fraction(rate_72(cfg), rate_73_dl(cfg))
        ul = efficiency_ratio(Direction.UL, cfg.mod_order, cfg.soft_bit_width,
                              iq_component_bits=cfg.iq_component_bits)
        assert ul == Fraction(rate_72(cfg), rate_73_ul(cfg))

    @given(bps=st.integers(0, 10**13))
    @settings(max_examples=300, deadline=None)
    def test_mbps_tenths_half_up(self, bps):
        tenths = Fraction(mbps(bps)) * 10
        assert tenths.denominator == 1
        # never more than half a tenth away, and exact .x5 rounds up
        assert abs(tenths - Fraction(bps, 100_000)) <= Fraction(1, 2)
        if bps % 100_000 == 50_000:
            assert tenths == bps // 100_000 + 1
        assert mbps(bps, "json") == int(tenths) / 10

    def test_format_examples(self):
        assert mbps(67_200_000) == "67.2"
        assert mbps(50_000) == "0.1"  # exactly half a tenth: rounds up
        assert mbps(49_999) == "0.0"
        assert mbps(150_000) == "0.2"
        assert mbps(0) == "0.0"
        assert mbps(10**400) == f"{10**394}.0"  # digits are exact at any size


class TestDistanceBudget:
    def test_uplink_margin_goldens(self):
        budget = LinkBudget()
        assert max_fronthaul_distance_km(budget, Direction.UL, 1.5) == 100.0
        assert max_fronthaul_distance_km(budget, Direction.UL, 2.0) == 0.0
        assert max_fronthaul_distance_km(budget, Direction.DL, 1.0) == 0.0
        assert max_fronthaul_distance_km(budget, Direction.DL, 0.9) == pytest.approx(20.0)

    def test_propagation_delay_goldens(self):
        budget = LinkBudget()
        assert budget.propagation_delay_us(10.0) == 50.0
        assert budget.propagation_delay_us(40.0) == 200.0
        assert budget.propagation_delay_us(0.0) == 0.0

    def test_budget_splits_harq_round_trip(self):
        budget = LinkBudget()
        assert budget.dl_deadline_ms + budget.ul_deadline_ms == budget.harq_rtt_ms
        assert budget.deadline_ms(Direction.DL) == 1.0
        assert budget.deadline_ms(Direction.UL) == 2.0

    @given(
        processing=st.floats(0.0, 2.0),
        slower=st.floats(0.001, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_distance_monotone_in_processing_time(self, processing, slower):
        budget = LinkBudget()
        here = max_fronthaul_distance_km(budget, Direction.UL, processing)
        if processing + slower <= budget.ul_deadline_ms:
            there = max_fronthaul_distance_km(budget, Direction.UL,
                                              processing + slower)
            assert there <= here

    def test_over_budget_processing_rejected(self):
        with pytest.raises(ValueError):
            max_fronthaul_distance_km(LinkBudget(), Direction.DL, 1.2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inputs_rejected(self, value):
        for field in ("harq_rtt_ms", "dl_deadline_ms", "ul_deadline_ms",
                      "propagation_us_per_km"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                LinkBudget(**{field: value})
        with pytest.raises(ValueError, match="distance_km must be finite"):
            LinkBudget().propagation_delay_us(value)
        for direction in Direction:
            with pytest.raises(ValueError, match="processing_ms must be finite"):
                max_fronthaul_distance_km(LinkBudget(), direction, value)

    @pytest.mark.parametrize("value", [True, "5"])
    def test_non_number_fields_rejected(self, value):
        # True would count as 1 ms; a string used to fail with a TypeError
        for field in ("harq_rtt_ms", "dl_deadline_ms", "ul_deadline_ms",
                      "propagation_us_per_km"):
            with pytest.raises(ValueError, match=f"{field} must be a number, got {value!r}"):
                LinkBudget(**{field: value})

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            max_fronthaul_distance_km(LinkBudget(), Direction.UL, -0.1)
        with pytest.raises(ValueError):
            LinkBudget().propagation_delay_us(-1.0)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(harq_rtt_ms=0.0)
        with pytest.raises(ValueError):
            LinkBudget(ul_deadline_ms=5.0)
