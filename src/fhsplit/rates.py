"""Closed-form fronthaul bandwidth models for splits 8 / 7.1 / 7.2 / 7.3.

All rates are bit/s. Inputs are integral, so 7.1/7.2/7.3 rates are exact
integers; option 8 multiplies by the rational oversampling factor and is
returned as an exact Fraction. Nothing here rounds: the cli prints every
rate and ratio by one rule, half-up to one decimal.

Per cell, with N_sc subcarriers, N_layers layers, N_ant antenna ports,
O_m bits/symbol, IQ bits per I/Q component, S_bw bits per soft bit and
R_sym symbols per second:

    option 7.1:    2 * IQ * N_sc * N_ant * N_layers * R_sym
    option 7.2:    2 * IQ * N_sc * N_layers * R_sym        (= 7.1 / N_ant)
    option 7.3 DL: N_sc * N_layers * O_m * R_sym
    option 7.3 UL: N_sc * N_layers * O_m * S_bw * R_sym    (= 7.3 DL * S_bw)
    option 8:      7.1 * oversampling_factor
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .cell import CellConfig, Direction, LinkBudget, check_real
from .messages import subframe_payload_sizes
from .wire import DEFAULT_MAX_DATAGRAM, HEADER_LEN, chunk_count

RateBps = Union[int, Fraction]


def rate_71(cfg: CellConfig) -> int:
    """Frequency-domain I/Q rate; scales with antenna ports."""
    return (
        2
        * cfg.iq_component_bits
        * cfg.n_sc
        * cfg.n_ant
        * cfg.n_layers
        * cfg.symbols_per_second
    )


def rate_72(cfg: CellConfig) -> int:
    """Port-combined I/Q rate: option 7.1 divided by the port count."""
    return 2 * cfg.iq_component_bits * cfg.n_sc * cfg.n_layers * cfg.symbols_per_second


def rate_73_dl(cfg: CellConfig) -> int:
    """Downlink hard-bit rate: bits instead of I/Q symbols."""
    return cfg.n_sc * cfg.n_layers * cfg.mod_order * cfg.symbols_per_second


def rate_73_ul(cfg: CellConfig) -> int:
    """Uplink soft-bit rate: one S_bw-bit code per demodulated bit."""
    return rate_73_dl(cfg) * cfg.soft_bit_width


def rate_option8(cfg: CellConfig) -> Fraction:
    """Time-domain I/Q rate: option 7.1 times the oversampling factor."""
    return Fraction(rate_71(cfg)) * cfg.oversampling_factor


def wire_bits_73(cfg: CellConfig, direction: Direction,
                 max_datagram: int = DEFAULT_MAX_DATAGRAM, cqi: bool = False) -> int:
    """Bits one saturated split-7.3 subframe puts on the wire, headers included.

    The subframe carries C = rate_73_dl // 1000 bits, sent as the messages
    subframe_payload_sizes gives for C (uplink's CQI report when cqi is
    true). Each message is cut into chunk_count chunks at max_datagram, and
    each chunk carries a HEADER_LEN-byte header.
    """
    dl, ul = subframe_payload_sizes(rate_73_dl(cfg) // 1000, cfg.soft_bit_width, cqi)
    sizes = (dl if direction is Direction.DL else ul).values()
    return sum((n + HEADER_LEN * chunk_count(n, max_datagram)) * 8 for n in sizes)


def efficiency_ratio(
    direction: Direction,
    mod_order: int,
    soft_bit_width: Optional[int] = None,
    iq_component_bits: int = 16,
) -> Fraction:
    """7.2-over-7.3 bandwidth ratio for one direction.

    The quotient of the rate models for a one-subcarrier cell, so
    CellConfig checks every argument. Downlink: 2*IQ / O_m, and
    soft_bit_width must be left out. Uplink: 2*IQ / (O_m * S_bw), and
    soft_bit_width is required. Values above 1 mean the bit-carrying split
    needs less fronthaul than the I/Q-carrying one.
    """
    dl = direction is Direction.DL
    if dl and soft_bit_width is not None:
        raise ValueError(f"the downlink ratio takes no soft_bit_width, got {soft_bit_width!r}")
    cell = CellConfig(n_sc=1, n_layers=1, n_ant=1, mod_order=mod_order,
                      iq_component_bits=iq_component_bits,
                      **({} if dl else {"soft_bit_width": soft_bit_width}))
    return Fraction(rate_72(cell), rate_73_dl(cell) if dl else rate_73_ul(cell))


def max_fronthaul_distance_km(
    budget: LinkBudget, direction: Direction, processing_ms: float
) -> float:
    """Longest DU-RU fiber run that still meets the HARQ deadline.

    The direction's frame deadline minus the actual processing time is
    what remains for one-way propagation, charged once per direction.
    """
    check_real(processing_ms, "processing_ms")
    deadline = budget.deadline_ms(direction)
    margin_ms = deadline - processing_ms
    if margin_ms < 0:
        raise ValueError(
            f"processing time {processing_ms} ms exceeds the "
            f"{deadline} ms {direction.value} deadline"
        )
    distance_km = margin_ms * 1000.0 / budget.propagation_us_per_km
    check_real(distance_km, f"the max distance at {budget.propagation_us_per_km:g} us/km")
    return distance_km


class CapacityRow(NamedTuple):
    split: str
    direction: str
    rate_bps: RateBps


#: Shown next to planning tables: the option 8 model is 7.1 times the
#: oversampling factor, so the 20 MHz figure is 1.71 x 4300.8 = 7354.4
#: Mbit/s; the 7357.4 quoted in some published capacity tables does not
#: follow from that product and looks like a misprint.
OPTION8_NOTE = (
    "option 8 = option 7.1 x oversampling factor; at 20 MHz this gives "
    "7354.4 Mbit/s (the occasionally quoted 7357.4 appears to be a misprint)"
)


def capacity_table(cfg: CellConfig) -> list[CapacityRow]:
    """Per-split required fronthaul capacity, fixed row order."""
    return [
        CapacityRow("8", "both", rate_option8(cfg)),
        CapacityRow("7.1", "both", rate_71(cfg)),
        CapacityRow("7.2", "both", rate_72(cfg)),
        CapacityRow("7.3", "dl", rate_73_dl(cfg)),
        CapacityRow("7.3", "ul", rate_73_ul(cfg)),
    ]
