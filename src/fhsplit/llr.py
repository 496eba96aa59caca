"""Uplink soft-bit handling: LLR quantization and fixed-width bit packing.

A soft bit is a log-likelihood ratio coded on the fronthaul with a fixed
bitwidth. The quantizer is uniform and symmetric: values are clamped to
[-clip, +clip] and mapped to signed integer codes in
[-(2^(w-1)-1), +(2^(w-1)-1)], so zero always codes to zero and the
round-trip error is at most half a step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class LlrQuantizer:
    bit_width: int
    clip: float = 8.0

    def __post_init__(self) -> None:
        # a signed code needs 2 bits; pack_codes packs at most 16
        if not 2 <= self.bit_width <= 16:
            raise ValueError(f"bit_width must be in [2, 16], got {self.bit_width}")
        if not self.clip > 0:
            raise ValueError("clip must be positive")

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


@functools.lru_cache(maxsize=None)
def _column_shifts(bit_width: int) -> Tuple[Tuple[int, int, int], ...]:
    """(byte, code, shift) for every code bit range that overlaps a byte.

    Eight codes pack MSB first into exactly bit_width bytes: code j holds
    bits [j*w, (j+1)*w) of the group and byte k bits [8k, 8k+8). Shifting
    code j left by 8(k+1) - (j+1)w (right when negative) lines its bits up
    with byte k.
    """
    return tuple(
        (k, j, 8 * (k + 1) - (j + 1) * bit_width)
        for k in range(bit_width)
        for j in range(8)
        if j * bit_width < 8 * (k + 1) and (j + 1) * bit_width > 8 * k
    )


def _shift(column: np.ndarray, shift: int) -> np.ndarray:
    return column << shift if shift >= 0 else column >> -shift


def pack_codes(codes, bit_width: int) -> bytes:
    """Pack signed codes two's-complement, bit_width bits each, MSB first.

    Every 8 codes fill exactly bit_width bytes. The last byte is
    zero-padded; the caller must remember the code count to unpack.
    """
    if not 2 <= bit_width <= 16:
        raise ValueError("bit_width must be in [2, 16]")
    arr = np.asarray(codes).ravel()
    if arr.dtype.kind not in "iu":  # e.g. an empty list converts to float64
        arr = arr.astype(np.int64)
    if bit_width == 8:
        return arr.astype(np.uint8).tobytes()
    n = arr.size
    # one row per group of 8 codes, masked to bit_width bits, zero-padded
    groups = np.zeros((-(-n // 8), 8), dtype=np.uint16)
    # the cast keeps the low 16 bits of any integer dtype; masking in uint16
    # then works whatever the input dtype (a 16-bit mask overflows int16)
    flat = groups.reshape(-1)[:n]
    np.copyto(flat, arr, casting="unsafe")
    np.bitwise_and(flat, (1 << bit_width) - 1, out=flat)
    acc = [0] * bit_width
    for k, j, shift in _column_shifts(bit_width):
        acc[k] |= _shift(groups[:, j], shift)
    # the cast keeps the low 8 bits of each byte column
    out = np.stack(acc, axis=1, dtype=np.uint8, casting="unsafe")
    return out.reshape(-1)[: -(-n * bit_width // 8)].tobytes()


def unpack_codes(data: bytes, bit_width: int, count: int) -> np.ndarray:
    """Inverse of pack_codes for the first `count` codes."""
    if not 2 <= bit_width <= 16:
        raise ValueError("bit_width must be in [2, 16]")
    if count < 0:
        raise ValueError("count must be >= 0")
    needed = -(-count * bit_width // 8)
    if len(data) < needed:
        raise ValueError(f"need {needed} bytes for {count} codes, got {len(data)}")
    raw = np.frombuffer(data, dtype=np.uint8, count=needed)
    if bit_width == 8:
        unsigned = raw.astype(np.int32)
    else:
        # one row per group of bit_width bytes, zero-padded
        groups = np.zeros((-(-count // 8), bit_width), dtype=np.uint16)
        groups.reshape(-1)[:needed] = raw
        acc = [0] * 8
        for k, j, shift in _column_shifts(bit_width):
            acc[j] |= _shift(groups[:, k], -shift)
        unsigned = np.stack(acc, axis=1, dtype=np.int32).reshape(-1)[:count]
        # drop the bits of neighbouring codes that the shifts kept
        unsigned &= (1 << bit_width) - 1
    sign_bit = 1 << (bit_width - 1)
    return unsigned - ((unsigned & sign_bit) << 1)
