"""Fronthaul payload codecs and the content_type registry.

Registered content types:

    0  downlink hard-bit data (raw bytes)
    1  uplink soft-bit data (packed LLR codes)
    2  downlink control semantics (DCI count/positions, MCS, RB, power)
    3  uplink CQI report

Reassembly is blind to content_type: any value, registered or not,
reassembles the same way.

Control payload, fixed 64 bytes big-endian: dci_count u16 | rb_position
u16 | mcs u8 | power_db i8 | dci_count x position u16 | zero pad.
CQI payload, fixed 8 bytes: report subframe u32 | cqi u8 | 3 pad bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

CONTENT_DL_DATA = 0
CONTENT_UL_SOFT = 1
CONTENT_DL_CONTROL = 2
CONTENT_UL_CQI = 3

CONTROL_SIZE = 64
CQI_SIZE = 8

_CONTROL_FIXED = struct.Struct(">HHBb")
_CQI = struct.Struct(">IB3x")
_MAX_DCI = (CONTROL_SIZE - _CONTROL_FIXED.size) // 2


@dataclass(frozen=True)
class ControlDl:
    """Per-subframe downlink control semantics for the low-PHY side."""

    dci_count: int
    dci_positions: Tuple[int, ...]
    mcs: int
    rb_position: int
    power_db: int

    def __post_init__(self) -> None:
        if self.dci_count != len(self.dci_positions):
            raise ValueError("dci_count must match the number of positions")
        if self.dci_count > _MAX_DCI:
            raise ValueError(f"at most {_MAX_DCI} DCI positions fit the payload")
        if not 0 <= self.mcs <= 255:
            raise ValueError("mcs out of range")
        if not 0 <= self.rb_position < 1 << 16:
            raise ValueError("rb_position out of range")
        if not -128 <= self.power_db <= 127:
            raise ValueError("power_db out of range")
        for p in self.dci_positions:
            if not 0 <= p < 1 << 16:
                raise ValueError("dci position out of range")


@dataclass(frozen=True)
class CqiReport:
    subframe: int
    cqi: int

    def __post_init__(self) -> None:
        if not 0 <= self.subframe < 1 << 32:
            raise ValueError("subframe out of range")
        if not 0 <= self.cqi <= 255:
            raise ValueError("cqi out of range")


def encode_control(ctrl: ControlDl) -> bytes:
    body = _CONTROL_FIXED.pack(ctrl.dci_count, ctrl.rb_position, ctrl.mcs, ctrl.power_db)
    body += b"".join(struct.pack(">H", p) for p in ctrl.dci_positions)
    return body.ljust(CONTROL_SIZE, b"\x00")


def decode_control(payload: bytes) -> ControlDl:
    if len(payload) != CONTROL_SIZE:
        raise ValueError(f"control payload must be {CONTROL_SIZE} bytes")
    dci_count, rb_position, mcs, power_db = _CONTROL_FIXED.unpack_from(payload)
    if dci_count > _MAX_DCI:
        raise ValueError(f"dci_count {dci_count} exceeds payload capacity")
    offset = _CONTROL_FIXED.size
    positions = struct.unpack_from(f">{dci_count}H", payload, offset) if dci_count else ()
    return ControlDl(dci_count, tuple(positions), mcs, rb_position, power_db)


def encode_cqi(report: CqiReport) -> bytes:
    return _CQI.pack(report.subframe, report.cqi)


def decode_cqi(payload: bytes) -> CqiReport:
    if len(payload) != CQI_SIZE:
        raise ValueError(f"cqi payload must be {CQI_SIZE} bytes")
    subframe, cqi = _CQI.unpack(payload)
    return CqiReport(subframe, cqi)
