"""The number rules of every value object: one table per class.

Each case sets one numeric field to a value its rule rejects (below the
minimum, above the maximum, NaN, +-inf, a bool, a float for an integer)
and expects a ValueError whose message names the field and the value.
The wire header, chunking, control and CQI messages and the soft-bit
width also accept each end of every integer range, numpy's integers
included, and whatever their constructors accept encodes and decodes back.
"""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhsplit.cell import MODULATION_NAMES, CellConfig, Direction, LinkBudget, preset
from fhsplit.channel import ChannelSpec
from fhsplit.configio import Scenario, scenario_from_dict
from fhsplit.emulation import TrafficProfile, expected_completions, subframe_capacity_bits
from fhsplit.llr import LlrQuantizer, pack_codes, unpack_codes
from fhsplit.messages import (
    CONTROL_SIZE,
    ControlDl,
    CqiReport,
    decode_control,
    decode_cqi,
    encode_control,
    encode_cqi,
)
from fhsplit.rates import (
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
from fhsplit.wire import (
    SplitHeader,
    chunk_count,
    chunk_from_datagram,
    chunk_subframe,
    decode_header,
    encode_header,
)

NAN, INF = float("nan"), float("inf")
NON_FINITE = (NAN, INF, -INF)
# a JSON integer this long is a Python int no float can hold
HUGE = 10 ** 400


def cases(fields, values):
    return [pytest.param(f, v, id=f"{f}={str(v)[:12]}") for f in fields for v in values]


def assert_rejected(build, field, value):
    with pytest.raises(ValueError) as info:
        build(**{field: value})
    message = str(info.value)
    assert re.fullmatch(rf"{re.escape(field)} must be .*, got {re.escape(str(value))}",
                        message), message


CELL = {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4}
CELL_INTS = ("n_sc", "n_layers", "n_ant", "iq_component_bits", "soft_bit_width",
             "symbols_per_second")


@pytest.mark.parametrize("field,value", [
    *cases(CELL_INTS, (0, -1, 1.0, *NON_FINITE, True)),
    *cases(("mod_order",), (0, 10, 4.0, NAN, True)),
    *cases(("bw_mhz",), (-1, -0.5, *NON_FINITE, True, HUGE)),
    *cases(("oversampling_factor",), (0, "1/2", *NON_FINITE, True)),
])
def test_cell_config(field, value):
    assert_rejected(lambda **kw: CellConfig(**{**CELL, **kw}), field, value)


@pytest.mark.parametrize("field,value", cases(
    ("harq_rtt_ms", "dl_deadline_ms", "ul_deadline_ms", "propagation_us_per_km"),
    (0, 0.0, -1.0, *NON_FINITE, True)))
def test_link_budget(field, value):
    assert_rejected(LinkBudget, field, value)


@pytest.mark.parametrize("value", (-1.0, *NON_FINITE, True, HUGE))
def test_link_budget_arguments(value):
    assert_rejected(LinkBudget().propagation_delay_us, "distance_km", value)
    for direction in Direction:
        assert_rejected(lambda processing_ms: max_fronthaul_distance_km(
            LinkBudget(), direction, processing_ms), "processing_ms", value)


@pytest.mark.parametrize("field,value", [
    *cases(("goodput_bps",), (-1, -0.5, *NON_FINITE, True, HUGE)),
    *cases(("packet_size_bytes", "duration_subframes"), (0, -1, 1.0, *NON_FINITE, True)),
])
def test_traffic_profile(field, value):
    assert_rejected(lambda **kw: TrafficProfile(**{"goodput_bps": 1e6, **kw}), field, value)


@pytest.mark.parametrize("field,value", [
    *cases(("loss_rate", "reorder_rate"), (-0.1, 1.5, 2, *NON_FINITE, True)),
    *cases(("delay_us",), (-1, -0.5, *NON_FINITE, True)),
    *cases(("line_rate_bps",), (0, -1, 1.5, 25e9 + 0.5, *NON_FINITE, True)),
])
def test_channel_spec(field, value):
    assert_rejected(ChannelSpec, field, value)


@pytest.mark.parametrize("value", (25e9, 10**9, np.int64(10**10), Fraction(5, 2) * 10**9))
def test_line_rate_is_kept_as_a_plain_int(value):
    rate = ChannelSpec(line_rate_bps=value).line_rate_bps
    assert type(rate) is int and rate == value


@pytest.mark.parametrize("field,value", [
    *cases(("seed",), (-1, 1.0, *NON_FINITE, True)),
    *cases(("max_datagram",), (22, 65_508, 1472.0, *NON_FINITE, True)),
])
def test_scenario(field, value):
    assert_rejected(lambda **kw: scenario_from_dict(
        {"cell": CELL, "profile": {"goodput_bps": 1e6}, **kw}), field, value)


@pytest.mark.parametrize("field,value", [
    *cases(("bit_width",), (1, 17, 4.0, *NON_FINITE, True)),
    *cases(("clip",), (0, 0.0, -1.0, *NON_FINITE, True)),
])
def test_llr_quantizer(field, value):
    assert_rejected(lambda **kw: LlrQuantizer(**{"bit_width": 4, **kw}), field, value)


def test_accepted_edges():
    # the boundary value of each rule passes, numpy's scalars included
    assert ChannelSpec(loss_rate=1, reorder_rate=np.float64(0.0), delay_us=0).loss_rate == 1
    assert TrafficProfile(goodput_bps=0, packet_size_bytes=np.int64(1)).goodput_bps == 0
    assert CellConfig(**{**CELL, "n_sc": 1, "bw_mhz": 0}).n_sc == 1
    assert LlrQuantizer(np.int32(2), clip=np.float32(1e-3)).max_code == 1
    assert LinkBudget().propagation_delay_us(0) == 0


@pytest.mark.parametrize("value", (-0.5, 1.5, *NON_FINITE, True))
def test_expected_completions_loss_rate(value):
    profile = TrafficProfile(30e6, duration_subframes=5)
    assert_rejected(lambda loss_rate: expected_completions(preset("lte10"), profile, loss_rate),
                    "loss_rate", value)


# Integer fields with a range: the inclusive [lo, hi] of each.
U16, U32, U64 = (1 << 16) - 1, (1 << 32) - 1, (1 << 64) - 1
HEADER_RANGES = {"timestamp": (0, U64), "num_blocks": (1, U16), "content_type": (0, U16),
                 "size": (22, 65_507), "sender_clock": (0, U64)}
# chunks() sends three bytes: one chunk by default, so its sender_clock may be 2^64 - 1
CHUNK_RANGES = {"timestamp": (0, U64), "content_type": (0, U16), "sender_clock": (0, U64),
                "max_datagram": (23, 65_507)}
CONTROL_RANGES = {"dci_count": (0, 29), "mcs": (0, 255), "rb_position": (0, U16),
                  "power_db": (-128, 127), "dci_positions[0]": (0, U16)}
CQI_RANGES = {"subframe": (0, U32), "cqi": (0, 255)}
WIDTH_RANGES = {"bit_width": (2, 16)}


def int_cases(ranges):
    """A float inside the range, a bool, and one past each end of every range."""
    return [case for f, (lo, hi) in ranges.items()
            for case in cases((f,), (lo + 0.5, True, lo - 1, hi + 1))]


def range_ends(ranges):
    """Each end of every range, as a Python int and as a numpy integer."""
    return [pytest.param(f, v, id=f"{f}={type(v).__name__}({v})")
            for f, (lo, hi) in ranges.items()
            for v in (lo, hi, np.int64(lo), np.int64(hi) if hi < 1 << 63 else np.uint64(hi))]


def split_header(**kw):
    return SplitHeader(**{"timestamp": 0, "num_blocks": 1, "content_type": 0, "size": 22, **kw})


def chunks(**kw):
    return chunk_subframe(**{"timestamp": 0, "content_type": 0, "payload": b"abc", **kw})


def control(**kw):
    position = kw.pop("dci_positions[0]", 0)
    return ControlDl(**{"dci_count": 1, "dci_positions": (position,), "mcs": 0,
                        "rb_position": 0, "power_db": 0, **kw})


def cqi_report(**kw):
    return CqiReport(**{"subframe": 0, "cqi": 0, **kw})


CODECS = {"pack_codes": lambda bit_width: pack_codes([1, -1], bit_width),
          "unpack_codes": lambda bit_width: unpack_codes(bytes(4), bit_width, 2)}


@pytest.mark.parametrize("field,value", int_cases(HEADER_RANGES))
def test_split_header(field, value):
    assert_rejected(split_header, field, value)


@pytest.mark.parametrize("field,value", int_cases(CHUNK_RANGES))
def test_chunk_subframe(field, value):
    assert_rejected(chunks, field, value)


@pytest.mark.parametrize("field,value", int_cases({"max_datagram": CHUNK_RANGES["max_datagram"]}))
def test_chunk_count(field, value):
    assert_rejected(lambda max_datagram: chunk_count(3, max_datagram), field, value)


@pytest.mark.parametrize("field,value", int_cases(CONTROL_RANGES))
def test_control_dl(field, value):
    assert_rejected(control, field, value)


@pytest.mark.parametrize("field,value", int_cases(CQI_RANGES))
def test_cqi_report(field, value):
    assert_rejected(cqi_report, field, value)


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("field,value", int_cases(WIDTH_RANGES))
def test_code_width(codec, field, value):
    assert_rejected(CODECS[codec], field, value)


def test_decode_control_leaves_an_impossible_count_to_control_dl():
    for count in (30, U16):
        payload = count.to_bytes(2, "big") + bytes(CONTROL_SIZE - 2)
        with pytest.raises(ValueError, match=rf"^dci_count must be in \[0, 29\], got {count}$"):
            decode_control(payload)


@pytest.mark.parametrize("field,value", range_ends(HEADER_RANGES))
def test_split_header_accepts_range_ends(field, value):
    header = split_header(**{field: value})
    assert decode_header(encode_header(header)) == header


@pytest.mark.parametrize("field,value", range_ends(CHUNK_RANGES))
def test_chunk_subframe_accepts_range_ends(field, value):
    sent = chunks(**{field: value})
    assert [chunk_from_datagram(c.to_datagram()) for c in sent] == sent
    assert chunk_count(3, **{field: value} if field == "max_datagram" else {}) == len(sent)


@pytest.mark.parametrize("field,value", range_ends(CONTROL_RANGES))
def test_control_dl_accepts_range_ends(field, value):
    positions = {"dci_positions": (7,) * int(value)} if field == "dci_count" else {}
    ctrl = control(**{field: value}, **positions)
    assert decode_control(encode_control(ctrl)) == ctrl


@pytest.mark.parametrize("field,value", range_ends(CQI_RANGES))
def test_cqi_report_accepts_range_ends(field, value):
    report = cqi_report(**{field: value})
    assert decode_cqi(encode_cqi(report)) == report


@pytest.mark.parametrize("field,value", range_ends(WIDTH_RANGES))
def test_code_width_accepts_range_ends(field, value):
    codes = [1, -1, 0, 1]
    assert unpack_codes(pack_codes(codes, value), value, len(codes)).tolist() == codes


@pytest.mark.parametrize("width,count", [
    pytest.param(np.uint64(5), 3, id="uint64-width"),
    pytest.param(5, np.uint64(3), id="uint64-count"),
    pytest.param(np.uint64(8), np.uint64(8), id="uint64-both"),
    pytest.param(np.uint8(5), np.uint8(200), id="uint8-both"),
    pytest.param(np.int8(16), np.int16(3000), id="int8-width-int16-count"),
])
def test_codecs_take_numpy_widths_and_counts(width, count):
    codes = ([1, -1, 0] * 1000)[:int(count)]
    packed = pack_codes(codes, width)
    assert len(packed) == -(-int(count) * int(width) // 8)
    assert unpack_codes(packed, width, count).tolist() == codes
    assert unpack_codes(bytes(len(packed)), width, count).tolist() == [0] * int(count)


# Values no integer rule accepts, drawn beside integers around each range.
NOT_INTS = (0.0, 1.0, 2.5, True, False, "1", None)


def around(lo, hi):
    return st.integers(lo - 1, hi + 1) | st.sampled_from(NOT_INTS)


def accepted(build, **fields):
    """build(**fields), or None where its constructor rejects a field."""
    try:
        return build(**fields)
    except ValueError:
        return None


class TestAcceptedValuesRoundTrip:
    """Whatever a message constructor accepts encodes, and decodes back equal."""

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({f: around(lo, hi) for f, (lo, hi) in HEADER_RANGES.items()}))
    def test_split_header(self, fields):
        header = accepted(SplitHeader, **fields)
        if header is not None:
            assert decode_header(encode_header(header)) == header

    @settings(max_examples=200, deadline=None)
    @given(positions=st.lists(around(0, U16), max_size=30), data=st.data(),
           fields=st.fixed_dictionaries({f: around(*CONTROL_RANGES[f])
                                         for f in ("mcs", "rb_position", "power_db")}))
    def test_control_dl(self, positions, data, fields):
        count = data.draw(st.just(len(positions)) | around(0, 29), label="dci_count")
        ctrl = accepted(ControlDl, dci_count=count, dci_positions=tuple(positions), **fields)
        if ctrl is not None:
            assert decode_control(encode_control(ctrl)) == ctrl

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({f: around(lo, hi) for f, (lo, hi) in CQI_RANGES.items()}))
    def test_cqi_report(self, fields):
        report = accepted(CqiReport, **fields)
        if report is not None:
            assert decode_cqi(encode_cqi(report)) == report


# Every numpy integer type; a field drawn as one of them must come out of
# its constructor, and every exact result computed from it, as a plain int.
NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def any_int(lo, hi):
    """An integer in [lo, hi], as a Python int or as a numpy integer type that holds it."""
    def typed(dtype):
        info = np.iinfo(dtype)
        return st.integers(max(lo, int(info.min)), min(hi, int(info.max))).map(dtype)
    dtypes = [d for d in NUMPY_INTS
              if max(lo, int(np.iinfo(d).min)) <= min(hi, int(np.iinfo(d).max))]
    return st.integers(lo, hi) | st.sampled_from(dtypes).flatmap(typed)


def plain(fields):
    return {name: int(value) for name, value in fields.items()}


# Cells far past any real one, so that a product in a fixed-width type wraps.
CELL_FIELDS = {"n_sc": any_int(1, 10 ** 15), "n_layers": any_int(1, 8),
               "n_ant": any_int(1, 64), "iq_component_bits": any_int(1, 32),
               "soft_bit_width": any_int(1, 16), "symbols_per_second": any_int(1, 10 ** 8),
               "mod_order": st.sampled_from(sorted(MODULATION_NAMES)).flatmap(
                   lambda m: any_int(m, m))}
INT_FIELDS = {
    "CellConfig": (CellConfig, CELL_FIELDS),
    "TrafficProfile": (lambda **kw: TrafficProfile(2e6, **kw),
                       {"packet_size_bytes": any_int(1, 10 ** 6),
                        "duration_subframes": any_int(1, 10 ** 6)}),
    "Scenario": (lambda **kw: Scenario(preset("lte10"), TrafficProfile(2e6), **kw),
                 {"seed": any_int(0, U64), "max_datagram": any_int(*CHUNK_RANGES["max_datagram"])}),
    "LlrQuantizer": (LlrQuantizer, {"bit_width": any_int(*WIDTH_RANGES["bit_width"])}),
    "SplitHeader": (SplitHeader, {f: any_int(lo, hi) for f, (lo, hi) in HEADER_RANGES.items()}),
    "CqiReport": (CqiReport, {f: any_int(lo, hi) for f, (lo, hi) in CQI_RANGES.items()}),
}


class TestNumpyIntegersBecomeInts:
    """A numpy integer that a rule accepts is kept as the int it holds."""

    @pytest.mark.parametrize("name", INT_FIELDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_value_objects(self, name, data):
        build, strategies = INT_FIELDS[name]
        fields = data.draw(st.fixed_dictionaries(strategies))
        made = build(**fields)
        assert made == build(**plain(fields))
        for field in fields:
            assert type(getattr(made, field)) is int, field

    @settings(max_examples=60, deadline=None)
    @given(positions=st.lists(any_int(0, U16), max_size=29),
           fields=st.fixed_dictionaries({f: any_int(*CONTROL_RANGES[f])
                                         for f in ("mcs", "rb_position", "power_db")}),
           count_type=st.sampled_from((int, *NUMPY_INTS)))
    def test_control_dl(self, positions, fields, count_type):
        ctrl = ControlDl(count_type(len(positions)), positions, **fields)
        assert ctrl == ControlDl(len(positions), tuple(map(int, positions)), **plain(fields))
        assert all(type(v) is int for v in (ctrl.dci_count, *ctrl.dci_positions,
                                             *(getattr(ctrl, f) for f in fields)))

    @pytest.mark.parametrize("field,value", [
        pytest.param("n_sc", np.int64(10 ** 15), id="int64-wraps"),
        pytest.param("soft_bit_width", np.uint8(8), id="uint8-overflows"),
        pytest.param("n_layers", np.int64(2), id="int64-result"),
    ])
    def test_rates_of_one_numpy_field(self, field, value):
        cfg = replace(preset("worst100"), **{field: value})
        ref = replace(preset("worst100"), **{field: int(value)})
        for rate in (rate_72, rate_73_ul):
            assert type(rate(cfg)) is int and rate(cfg) == rate(ref), rate.__name__

    @settings(max_examples=100, deadline=None)
    @given(fields=st.fixed_dictionaries(CELL_FIELDS),
           max_datagram=any_int(*CHUNK_RANGES["max_datagram"]))
    def test_rates(self, fields, max_datagram):
        cfg, ref = CellConfig(**fields), CellConfig(**plain(fields))
        for rate in (rate_71, rate_72, rate_73_dl, rate_73_ul, subframe_capacity_bits):
            value = rate(cfg)
            assert type(value) is int and value == rate(ref), rate.__name__
        assert rate_option8(cfg) == rate_option8(ref)
        assert capacity_table(cfg) == capacity_table(ref)
        ratio_args = ("mod_order", "soft_bit_width", "iq_component_bits")
        assert efficiency_ratio(Direction.UL, *(fields[f] for f in ratio_args)) == \
            efficiency_ratio(Direction.UL, *(int(fields[f]) for f in ratio_args))
        for direction in Direction:
            assert outcome(wire_bits_73, cfg, direction, max_datagram) == outcome(
                wire_bits_73, ref, direction, int(max_datagram))


def outcome(fn, *args):
    """fn(*args) with its type, or the message of the ValueError it raises."""
    try:
        value = fn(*args)
    except ValueError as error:
        return str(error)
    return type(value), value
