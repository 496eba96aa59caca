"""The number rules of every value object: one table per class.

Each case sets one numeric field to a value its rule rejects (below the
minimum, above the maximum, NaN, +-inf, a bool, a float for an integer)
and expects a ValueError whose message names the field and the value.
"""

import re

import numpy as np
import pytest

from fhsplit.cell import CellConfig, Direction, LinkBudget
from fhsplit.channel import ChannelSpec
from fhsplit.configio import scenario_from_dict
from fhsplit.emulation import TrafficProfile
from fhsplit.llr import LlrQuantizer
from fhsplit.rates import max_fronthaul_distance_km

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
    assert re.fullmatch(rf"{field} must be .*, got {re.escape(str(value))}", message), message


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
])
def test_channel_spec(field, value):
    assert_rejected(ChannelSpec, field, value)


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
