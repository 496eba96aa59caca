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
from typing import Dict, Tuple

from .cell import check_int, require_ints

CONTENT_DL_DATA = 0
CONTENT_UL_SOFT = 1
CONTENT_DL_CONTROL = 2
CONTENT_UL_CQI = 3

CONTROL_SIZE = 64
CQI_SIZE = 8

_CONTROL_FIXED = struct.Struct(">HHBb")
_CQI = struct.Struct(">IB3x")
_MAX_DCI = (CONTROL_SIZE - _CONTROL_FIXED.size) // 2
_U16_MAX = (1 << 16) - 1


def subframe_payload_sizes(
    bits: int, soft_bit_width: int, cqi: bool,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Payload bytes of one subframe's messages by content type: (downlink, uplink).

    Downlink sends its control message, then ceil(bits/8) hard-bit bytes;
    uplink answers with ceil(bits*soft_bit_width/8) soft-bit bytes, then a
    CQI report when cqi is true. A subframe with no bits has no data message.
    Each dict is in send order.
    """
    dl = {CONTENT_DL_CONTROL: CONTROL_SIZE}
    ul = {}
    if bits:
        dl[CONTENT_DL_DATA] = -(-bits // 8)
        ul[CONTENT_UL_SOFT] = -(-bits * soft_bit_width // 8)
    if cqi:
        ul[CONTENT_UL_CQI] = CQI_SIZE
    return dl, ul


@dataclass(frozen=True)
class ControlDl:
    """Per-subframe downlink control semantics for the low-PHY side."""

    dci_count: int
    dci_positions: Tuple[int, ...]
    mcs: int
    rb_position: int
    power_db: int

    def __post_init__(self) -> None:
        require_ints(self, "dci_count", minimum=0, maximum=_MAX_DCI)
        require_ints(self, "mcs", minimum=0, maximum=255)
        require_ints(self, "rb_position", minimum=0, maximum=_U16_MAX)
        require_ints(self, "power_db", minimum=-128, maximum=127)
        object.__setattr__(self, "dci_positions", tuple(
            check_int(p, f"dci_positions[{i}]", 0, _U16_MAX)
            for i, p in enumerate(self.dci_positions)))
        if self.dci_count != len(self.dci_positions):
            raise ValueError("dci_count must match the number of positions")


@dataclass(frozen=True)
class CqiReport:
    subframe: int
    cqi: int

    def __post_init__(self) -> None:
        require_ints(self, "subframe", minimum=0, maximum=(1 << 32) - 1)
        require_ints(self, "cqi", minimum=0, maximum=255)


def encode_control(ctrl: ControlDl) -> bytes:
    body = _CONTROL_FIXED.pack(ctrl.dci_count, ctrl.rb_position, ctrl.mcs, ctrl.power_db)
    body += b"".join(struct.pack(">H", p) for p in ctrl.dci_positions)
    return body.ljust(CONTROL_SIZE, b"\x00")


def decode_control(payload: bytes) -> ControlDl:
    if len(payload) != CONTROL_SIZE:
        raise ValueError(f"control payload must be {CONTROL_SIZE} bytes")
    dci_count, rb_position, mcs, power_db = _CONTROL_FIXED.unpack_from(payload)
    # a count past the payload reads what is there, and ControlDl rejects it
    body = payload[_CONTROL_FIXED.size:][:2 * dci_count]
    positions = struct.unpack(f">{len(body) // 2}H", body)
    return ControlDl(dci_count, positions, mcs, rb_position, power_db)


def encode_cqi(report: CqiReport) -> bytes:
    return _CQI.pack(report.subframe, report.cqi)


def decode_cqi(payload: bytes) -> CqiReport:
    if len(payload) != CQI_SIZE:
        raise ValueError(f"cqi payload must be {CQI_SIZE} bytes")
    subframe, cqi = _CQI.unpack(payload)
    return CqiReport(subframe, cqi)
