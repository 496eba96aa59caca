"""Uplink soft-bit handling: LLR quantization and fixed-width bit packing.

A soft bit is a log-likelihood ratio coded on the fronthaul with a fixed
bitwidth. The quantizer is uniform and symmetric: values are clamped to
[-clip, +clip] and mapped to signed integer codes in
[-(2^(w-1)-1), +(2^(w-1)-1)], so zero always codes to zero and the
round-trip error is at most half a step.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _merge(words: np.ndarray, shift: int) -> np.ndarray:
    """Join the halves of every little-endian word in place: low << shift | high.

    The low half of each word holds the earlier of two fields, so the
    merged word carries them in order, MSB first, in its low 2 * shift
    bits.
    """
    half = words.dtype.itemsize * 4
    high = words >> half
    words &= (1 << half) - 1
    words <<= shift
    words |= high
    return words


def _split(merged: np.ndarray, shift: int) -> np.ndarray:
    """Inverse of _merge, in place: the earlier field back into the low half."""
    later = merged & ((1 << shift) - 1)
    merged >>= shift
    later <<= merged.dtype.itemsize * 4
    merged |= later
    return merged


def pack_codes(codes, bit_width: int) -> bytes:
    """Pack signed codes two's-complement, bit_width bits each, MSB first.

    Every 8 codes fill exactly bit_width bytes. The last byte is
    zero-padded; the caller must remember the code count to unpack.

    w = 8 is a plain int8 cast. Otherwise the codes are masked into
    little-endian uint16 and merged pairwise on contiguous views, two
    codes into the low 2w bits of a uint32. For w < 8 the pairs are
    narrowed back to uint16, pairs of pairs merge into the low 4w bits of
    a uint32 and pairs of those into the low 8w bits of a uint64, which
    is shifted to the top of the word. For w > 8 pairs of pairs merge into
    the low 4w bits of a uint64, and each group of 8 becomes two words:
    its top 64 bits, and its remaining 8w - 64 bits at the top of the
    second. A group's bytes are the first w bytes of its big-endian words.
    """
    if not 2 <= bit_width <= 16:
        raise ValueError("bit_width must be in [2, 16]")
    arr = np.asarray(codes).ravel()
    if arr.dtype.kind not in "iu":  # e.g. an empty list converts to float64
        arr = arr.astype(np.int64)
    if bit_width == 8:
        return arr.astype(np.uint8).tobytes()
    w = bit_width
    n = arr.size
    # groups of 8 codes, zero-padded; the cast keeps the low 16 bits of any
    # integer dtype, so masking in uint16 then works whatever the input
    # dtype (a 16-bit mask overflows int16)
    codes16 = np.zeros(-(-n // 8) * 8, dtype="<u2")
    np.copyto(codes16[:n], arr, casting="unsafe")
    codes16 &= (1 << w) - 1
    pairs = _merge(codes16.view("<u4"), w)
    if w < 8:
        quads = _merge(pairs.astype("<u2").view("<u4"), 2 * w)
        words = _merge(quads.view("<u8"), 4 * w)
        words <<= 64 - 8 * w
    else:
        words = _merge(pairs.view("<u8"), 2 * w)
        first, second = words[0::2], words[1::2]
        # numpy defines the shift by 64 at w = 16 as 0
        rest = second >> (8 * w - 64)
        second <<= 128 - 8 * w
        first <<= 64 - 4 * w
        first |= rest
    rows = words.astype(">u8", copy=False)
    # the first w bytes of every group's 8 or 16 as one item: copies
    # faster than the bytes sliced out of a 2-D view
    groups = np.ndarray(len(codes16) // 8, f"V{w}", rows, strides=(8 if w < 8 else 16,))
    return groups.tobytes()[: -(-n * w // 8)]


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
        w = bit_width
        groups = -(-count // 8)
        padded = np.zeros(groups * w, dtype=np.uint8)
        padded[:needed] = raw
        # each group's w bytes at the top of zero-padded big-endian words
        rows = np.zeros((groups, 8 if w < 8 else 16), dtype=np.uint8)
        rows[:, :w] = padded.reshape(groups, w)
        words = rows.view(">u8").astype("<u8")
        if w < 8:
            words >>= 64 - 8 * w
            quads = _split(words.reshape(-1), 4 * w).view("<u4")
            pairs = _split(quads, 2 * w).view("<u2").astype("<u4")
        else:
            first, second = words[:, 0], words[:, 1]
            second >>= 128 - 8 * w
            second |= (first & ((1 << 64 - 4 * w) - 1)) << (8 * w - 64)
            first >>= 64 - 4 * w
            pairs = _split(words.reshape(-1), 2 * w).view("<u4")
        unsigned = _split(pairs, w).view("<u2")[:count].astype(np.int32)
    sign_bit = 1 << (bit_width - 1)
    return unsigned - ((unsigned & sign_bit) << 1)
