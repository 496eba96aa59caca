"""Radio-cell parameter sets and fronthaul latency budgets.

Everything in this module is an immutable value object: instances can be
shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational, Real
from typing import Optional, Union

MODULATION_NAMES = {2: "QPSK", 4: "16QAM", 6: "64QAM", 8: "256QAM"}

#: LTE normal cyclic prefix: 7 symbols per 0.5 ms slot.
LTE_SYMBOLS_PER_SECOND = 14_000


class Direction(Enum):
    DL = "dl"
    UL = "ul"


def check_int(value: object, name: str, minimum: Optional[int] = None,
              maximum: Optional[int] = None) -> int:
    """Return value as a plain int; ValueError unless it is an integer in bounds.

    Each bound applies when given; a maximum needs a minimum. An integer
    is a value operator.index accepts, numpy's included, other than a
    bool: operator.index(True) is 1. A numpy integer is returned as the
    int it holds, so that exact arithmetic on it neither wraps nor
    overflows its dtype.
    """
    # the type test first: a plain int, the common case, skips the rest
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if maximum is not None:
        if not minimum <= value <= maximum:
            raise ValueError(f"{name} must be in [{minimum}, {maximum}], got {value}")
    elif minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_real(value: object, name: str, positive: bool = False,
               at_most_one: bool = False) -> None:
    """Raise ValueError unless value is a finite real number >= 0 (> 0 if positive).

    at_most_one adds <= 1. Any numbers.Real but a bool; an int past the float range is not finite.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        ok = math.isfinite(value) and (value > 0 if positive else value >= 0)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok or (at_most_one and value > 1):
        rule = "in [0, 1]" if at_most_one else "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {rule}, got {value}")


def require_ints(obj: object, *names: str, minimum: Optional[int] = None,
                 maximum: Optional[int] = None) -> None:
    """check_int, with the same bounds, for every named field of obj, which it sets to the int."""
    for name in names:
        object.__setattr__(obj, name, check_int(getattr(obj, name), name, minimum, maximum))


def require_reals(obj: object, *names: str, **bounds: bool) -> None:
    """check_real, with the same bounds, for every named field of obj."""
    for name in names:
        check_real(getattr(obj, name), name, **bounds)


def _as_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """The oversampling factor as an exact rational, from a number or an 'a/b' literal."""
    try:
        if not isinstance(value, bool):
            # Fraction(str(x)) keeps decimal literals exact: 1.71 -> 171/100,
            # not the nearest binary float.
            return Fraction(value if isinstance(value, (str, Rational)) else str(value))
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"oversampling_factor must be a number or an a/b literal, got {value!r}")


@dataclass(frozen=True)
class CellConfig:
    """One radio cell, parameterized for the split rate models.

    Attributes:
        n_sc: subcarrier count (600 for 10 MHz LTE, 1200 for 20 MHz).
        n_layers: MIMO layer count.
        n_ant: antenna-port count.
        mod_order: bits per constellation symbol (2/4/6/8).
        bw_mhz: informational bandwidth label, not used in any formula.
        iq_component_bits: bits per I or Q component (a 32-bit I/Q pair
            is 2 x 16).
        soft_bit_width: bits used to code one uplink soft bit (LLR).
        symbols_per_second: exact integer symbol rate; stored instead of
            a rounded symbol period so rates come out in exact bit/s.
        oversampling_factor: time-domain/frequency-domain rate ratio used
            by the option 8 model (FFT size / n_sc), kept as an exact
            rational; a float, an int, a Fraction or an 'a/b' string.
    """

    n_sc: int
    n_layers: int
    n_ant: int
    mod_order: int
    bw_mhz: float = 0.0
    iq_component_bits: int = 16
    soft_bit_width: int = 8
    symbols_per_second: int = LTE_SYMBOLS_PER_SECOND
    oversampling_factor: Fraction = Fraction(171, 100)

    def __post_init__(self) -> None:
        require_ints(self, "n_sc", "n_layers", "n_ant", "iq_component_bits",
                     "soft_bit_width", "symbols_per_second", minimum=1)
        require_ints(self, "mod_order")
        if self.mod_order not in MODULATION_NAMES:
            raise ValueError(
                f"mod_order must be one of {sorted(MODULATION_NAMES)}, "
                f"got {self.mod_order}"
            )
        require_reals(self, "bw_mhz")
        object.__setattr__(
            self, "oversampling_factor", _as_fraction(self.oversampling_factor)
        )
        if self.oversampling_factor < 1:
            raise ValueError(f"oversampling_factor must be >= 1, got {self.oversampling_factor}")

    @property
    def modulation_name(self) -> str:
        return MODULATION_NAMES[self.mod_order]


@dataclass(frozen=True)
class LinkBudget:
    """HARQ-loop latency budget constraining the DU-RU distance.

    The LTE HARQ loop fixes the round trip at 3 ms, which sets deadlines of
    1 ms for downlink and 2 ms for uplink frame processing; whatever of its
    deadline a direction does not spend on processing is available for
    one-way propagation at propagation_us_per_km.
    """

    harq_rtt_ms: float = 3.0
    dl_deadline_ms: float = 1.0
    ul_deadline_ms: float = 2.0
    propagation_us_per_km: float = 5.0

    def __post_init__(self) -> None:
        require_reals(self, "harq_rtt_ms", "dl_deadline_ms", "ul_deadline_ms",
                      "propagation_us_per_km", positive=True)
        if self.dl_deadline_ms > self.harq_rtt_ms:
            raise ValueError("dl_deadline_ms exceeds harq_rtt_ms")
        if self.ul_deadline_ms > self.harq_rtt_ms:
            raise ValueError("ul_deadline_ms exceeds harq_rtt_ms")

    def deadline_ms(self, direction: Direction) -> float:
        """Frame processing deadline for one direction."""
        if direction is Direction.DL:
            return self.dl_deadline_ms
        return self.ul_deadline_ms

    def propagation_delay_us(self, distance_km: float) -> float:
        """One-way fiber propagation delay over distance_km; a float, so finite."""
        check_real(distance_km, "distance_km")
        delay_us = distance_km * self.propagation_us_per_km
        check_real(delay_us, f"the propagation delay over distance_km {distance_km:g}")
        return delay_us


def preset(name: str) -> CellConfig:
    """Return a named cell profile shipped with the planner."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


PRESETS = {
    # 10 and 20 MHz LTE cells, 2x2 MIMO, 4 antenna ports, 16-QAM.
    "lte10": CellConfig(bw_mhz=10.0, n_sc=600, n_layers=2, n_ant=4, mod_order=4),
    "lte20": CellConfig(bw_mhz=20.0, n_sc=1200, n_layers=2, n_ant=4, mod_order=4),
    # Worst-case 100 MHz NR-like cell: 273 PRB at 30 kHz spacing, 8 layers,
    # 32 ports, 64-QAM uplink with 5-bit soft bits, 4096-point FFT.
    "worst100": CellConfig(
        bw_mhz=100.0,
        n_sc=3276,
        n_layers=8,
        n_ant=32,
        mod_order=6,
        soft_bit_width=5,
        symbols_per_second=28_000,
        oversampling_factor=Fraction(4096, 3276),
    ),
}
