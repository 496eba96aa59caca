"""Uplink soft-bit handling: LLR quantization and fixed-width bit packing.

A soft bit is a log-likelihood ratio coded on the fronthaul with a fixed
bitwidth. The quantizer is uniform and symmetric: values are clamped to
[-clip, +clip] and mapped to signed integer codes in
[-(2^(w-1)-1), +(2^(w-1)-1)], so zero always codes to zero and the
round-trip error is at most half a step. Codes are packed
two's-complement, MSB first, with no gap between codes, so every 8 codes
fill exactly w bytes; pack_codes goes through the plain bit matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import check_int, require_reals


def check_bit_width(width: int, name: str = "bit_width") -> int:
    """width as an int; ValueError unless it is a code width pack_codes can pack."""
    # a signed code needs 2 bits; pack_codes packs at most 16
    return check_int(width, name, 2, 16)


@dataclass(frozen=True)
class LlrQuantizer:
    bit_width: int
    clip: float = 8.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "bit_width", check_bit_width(self.bit_width))
        require_reals(self, "clip", positive=True)

    @property
    def max_code(self) -> int:
        return (1 << (self.bit_width - 1)) - 1

    @property
    def step(self) -> float:
        return self.clip / self.max_code


def quantize_llr(values, q: LlrQuantizer) -> np.ndarray:
    """Map real LLRs to signed integer codes (uniform, symmetric)."""
    arr = np.asarray(values, dtype=np.float64)
    # out= keeps a scalar input an array, so the in-place steps below work
    clamped = np.clip(arr, -q.clip, q.clip, out=np.empty_like(arr))
    # clip keeps NaN and maps +-inf to +-clip, so only a NaN makes the sum NaN
    if np.isnan(clamped.sum()):
        raise ValueError("LLR input contains NaN")
    np.divide(clamped, q.step, out=clamped)
    np.rint(clamped, out=clamped)
    return clamped.astype(np.int32)


def dequantize_llr(codes, q: LlrQuantizer) -> np.ndarray:
    """Map codes back to LLR values (code * step)."""
    arr = np.asarray(codes)
    if arr.size and np.abs(arr).max() > q.max_code:
        raise ValueError(f"code outside representable range +-{q.max_code}")
    return arr.astype(np.float64) * q.step


def pack_codes(codes, bit_width: int) -> bytes:
    """Pack signed codes two's-complement, bit_width bits each, MSB first.

    Every 8 codes fill exactly bit_width bytes. The last byte is
    zero-padded; the caller must remember the code count to unpack.

    w = 8 is a plain int8 cast. Otherwise each code's 16 bits are unpacked
    from its big-endian uint16, the low w columns are kept and packed.
    """
    bit_width = check_bit_width(bit_width)
    arr = np.asarray(codes).ravel()
    if arr.dtype.kind not in "iu":  # e.g. an empty list converts to float64
        arr = arr.astype(np.int64)
    if bit_width == 8:
        return arr.astype(np.uint8).tobytes()
    # the cast keeps the low 16 bits of any integer dtype
    bits = np.unpackbits(arr.astype(">u2").view(np.uint8)).reshape(-1, 16)
    return np.packbits(bits[:, 16 - bit_width:]).tobytes()


def unpack_codes(data: bytes, bit_width: int, count: int) -> np.ndarray:
    """Inverse of pack_codes for the first `count` codes."""
    bit_width, count = check_bit_width(bit_width), check_int(count, "count", minimum=0)
    needed = -(-count * bit_width // 8)
    if len(data) < needed:
        raise ValueError(f"need {needed} bytes for {count} codes, got {len(data)}")
    raw = np.frombuffer(data, dtype=np.uint8, count=needed)
    # each code's w bits as the low columns of a 16-bit row
    bits = np.zeros((count, 16), dtype=np.uint8)
    bits[:, 16 - bit_width:] = np.unpackbits(raw, count=count * bit_width).reshape(
        count, bit_width)
    unsigned = np.packbits(bits).view(">u2").astype(np.int32)
    sign_bit = 1 << (bit_width - 1)
    return unsigned - ((unsigned & sign_bit) << 1)
