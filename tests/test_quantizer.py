"""Soft-bit quantizer and bit-packing tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fhsplit.llr import (
    LlrQuantizer,
    dequantize_llr,
    pack_codes,
    quantize_llr,
    unpack_codes,
)


def reference_pack(codes, bit_width):
    """Bit-matrix packer: one row of bit_width bits per code, then packbits.

    Slow and memory hungry, but plainly correct; pack_codes must match it
    byte for byte.
    """
    arr = np.asarray(codes, dtype=np.int64)
    unsigned = (arr & ((1 << bit_width) - 1)).astype(np.uint16)
    shifts = np.arange(bit_width - 1, -1, -1, dtype=np.uint16)
    bits = ((unsigned[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def reference_unpack(data, bit_width, count):
    """Inverse of reference_pack: weigh each row of bits, then sign-extend."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits = bits[: count * bit_width].reshape(count, bit_width).astype(np.int64)
    weights = 1 << np.arange(bit_width - 1, -1, -1, dtype=np.int64)
    unsigned = bits @ weights
    sign_bit = 1 << (bit_width - 1)
    return unsigned - ((unsigned & sign_bit) << 1)


def reference_quantize(values, q):
    return np.rint(np.clip(values, -q.clip, q.clip) / q.step).astype(np.int32)


@st.composite
def width_and_codes(draw):
    """A width in 2..16 and 0..80 codes over its full two's-complement range."""
    width = draw(st.integers(2, 16))
    n = draw(st.integers(0, 80))
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return width, draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))


class TestQuantizer:
    def test_zero_maps_to_zero(self):
        for width in (2, 4, 5, 8, 12):
            q = LlrQuantizer(width)
            assert quantize_llr([0.0], q)[0] == 0
            assert dequantize_llr([0], q)[0] == 0.0

    def test_endpoints_hit_max_code(self):
        q = LlrQuantizer(8, clip=8.0)
        assert q.max_code == 127
        assert quantize_llr([8.0], q)[0] == 127
        assert quantize_llr([-8.0], q)[0] == -127

    def test_out_of_range_clamps(self):
        q = LlrQuantizer(4, clip=8.0)
        assert q.max_code == 7
        assert quantize_llr([-9.3], q)[0] == -7
        assert quantize_llr([1000.0], q)[0] == 7

    def test_step_definition(self):
        q = LlrQuantizer(5, clip=8.0)
        assert q.step == 8.0 / 15

    def test_known_codes_width4(self):
        q = LlrQuantizer(4, clip=8.0)  # step = 8/7
        values = [0.0, 0.5, 0.58, -0.57, 8.0 / 7, 3.0]
        # rint: 0.5/step=0.4375 -> 0; 0.58/step=0.5075 -> 1; 3/step=2.625 -> 3
        assert quantize_llr(values, q).tolist() == [0, 0, 1, 0, 1, 3]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            quantize_llr([0.0, float("nan")], LlrQuantizer(8))

    def test_infinities_clamp(self):
        q = LlrQuantizer(6)
        assert quantize_llr([float("inf"), float("-inf")], q).tolist() == [31, -31]
        for width in (2, 5, 8, 16):
            q = LlrQuantizer(width)
            codes = quantize_llr([np.inf, -np.inf], q)
            assert codes.tolist() == [q.max_code, -q.max_code]

    @pytest.mark.parametrize("values", [[np.nan, np.inf], [-np.inf, np.nan],
                                        [np.inf, -np.inf, np.nan, 0.0]])
    def test_nan_beside_infinity_rejected(self, values):
        with pytest.raises(ValueError, match="NaN"):
            quantize_llr(np.array(values), LlrQuantizer(5))

    def test_caller_array_untouched(self):
        values = np.array([-20.0, -3.3, 0.0, 0.7, 9.9, np.inf])
        before = values.copy()
        quantize_llr(values, LlrQuantizer(5))
        assert np.array_equal(values, before)

    def test_scalar_input(self):
        q = LlrQuantizer(5)
        assert quantize_llr(3.0, q) == quantize_llr([3.0], q)[0] == 6

    def test_half_step_ties_round_to_even(self):
        q = LlrQuantizer(5, clip=3.75)  # step = 0.25, so k/8 is an exact tie
        values = np.arange(-31, 32) / 8.0
        codes = quantize_llr(values, q)
        assert np.array_equal(codes, reference_quantize(values, q))
        assert codes[values == 0.125][0] == 0 and codes[values == 0.375][0] == 2

    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(0, 200),
            elements=st.floats(allow_nan=False),
        ),
        width=st.integers(2, 16),
        clip=st.sampled_from([0.5, 1.0, 3.75, 8.0, 20.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_formula(self, values, width, clip):
        q = LlrQuantizer(width, clip)
        codes = quantize_llr(values, q)
        assert codes.dtype == np.int32
        assert np.array_equal(codes, reference_quantize(values, q))

    @given(
        ticks=st.lists(st.integers(-200, 200), max_size=50),
        width=st.integers(2, 16),
        clip=st.sampled_from([1.0, 8.0, 20.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_half_step_ties(self, ticks, width, clip):
        q = LlrQuantizer(width, clip)
        values = (np.array(ticks, dtype=np.float64) + 0.5) * q.step
        assert np.array_equal(quantize_llr(values, q), reference_quantize(values, q))

    def test_dequantize_range_check(self):
        q = LlrQuantizer(4)
        with pytest.raises(ValueError):
            dequantize_llr([8], q)
        with pytest.raises(ValueError):
            dequantize_llr([-8], q)

    def test_quantizer_validation(self):
        with pytest.raises(ValueError):
            LlrQuantizer(1)
        with pytest.raises(ValueError, match="bit_width"):
            LlrQuantizer(17)
        assert LlrQuantizer(16).max_code == (1 << 15) - 1
        with pytest.raises(ValueError):
            LlrQuantizer(8, clip=0.0)
        with pytest.raises(ValueError):
            LlrQuantizer(8, clip=-1.0)

    @pytest.mark.parametrize("width", [2, 4, 5, 8, 12, 16])
    @pytest.mark.parametrize("clip", [1.0, 8.0, 20.0])
    def test_round_trip_error_bounded_by_half_step(self, width, clip):
        q = LlrQuantizer(width, clip)
        rng = np.random.default_rng(width * 1000 + int(clip))
        values = rng.uniform(-clip, clip, size=2000)
        restored = dequantize_llr(quantize_llr(values, q), q)
        assert np.max(np.abs(restored - values)) <= q.step / 2 + 1e-12

    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(1, 200),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        width=st.integers(2, 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_error_vs_clamped_input(self, values, width):
        q = LlrQuantizer(width, clip=8.0)
        codes = quantize_llr(values, q)
        assert np.all(np.abs(codes) <= q.max_code)
        restored = dequantize_llr(codes, q)
        clamped = np.clip(values, -q.clip, q.clip)
        assert np.max(np.abs(restored - clamped)) <= q.step / 2 + 1e-12


class TestPacking:
    @pytest.mark.parametrize("width", list(range(2, 17)))
    def test_round_trip_random_codes(self, width):
        rng = np.random.default_rng(width)
        max_code = (1 << (width - 1)) - 1
        codes = rng.integers(-max_code, max_code + 1, size=999)
        packed = pack_codes(codes, width)
        assert len(packed) == -(-999 * width // 8)
        assert np.array_equal(unpack_codes(packed, width, 999), codes)

    def test_full_negative_range_round_trips(self):
        # two's complement admits -(max_code + 1) as well
        for width in (2, 4, 8, 11):
            lo = -(1 << (width - 1))
            hi = (1 << (width - 1)) - 1
            codes = np.arange(lo, hi + 1)
            assert np.array_equal(
                unpack_codes(pack_codes(codes, width), width, len(codes)), codes
            )

    def test_width8_is_plain_int8(self):
        codes = np.array([0, 1, -1, 127, -128], dtype=np.int64)
        assert pack_codes(codes, 8) == np.array(codes, dtype=np.int8).tobytes()

    def test_known_width4_bytes(self):
        # 0b0001 0b1111(-1) -> 0x1f ; 0b0111 0b1000(-8) -> 0x78
        assert pack_codes([1, -1], 4) == b"\x1f"
        assert pack_codes([7, -8], 4) == b"\x78"

    def test_known_width2_padding(self):
        # three 2-bit codes pack into one byte, padded with zero bits
        assert pack_codes([1, -1, 0], 2) == bytes([0b01110000])

    def test_empty_input(self):
        assert pack_codes([], 5) == b""
        assert unpack_codes(b"", 5, 0).size == 0

    def test_unpack_needs_enough_bytes(self):
        with pytest.raises(ValueError):
            unpack_codes(b"\x00", 8, 2)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            pack_codes([0], 1)
        with pytest.raises(ValueError):
            pack_codes([0], 17)
        with pytest.raises(ValueError):
            unpack_codes(b"\x00", 1, 1)
        with pytest.raises(ValueError):
            unpack_codes(b"\x00", 8, -1)

    @given(
        width=st.integers(2, 16),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip_property(self, width, n, seed):
        rng = np.random.default_rng(seed)
        max_code = (1 << (width - 1)) - 1
        codes = rng.integers(-max_code, max_code + 1, size=n)
        assert np.array_equal(
            unpack_codes(pack_codes(codes, width), width, n), codes
        )

    @pytest.mark.parametrize("width", list(range(2, 17)))
    def test_every_count_mod_8_matches_reference(self, width):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        rng = np.random.default_rng(width)
        for n in range(81):
            codes = rng.integers(lo, hi + 1, size=n)
            codes[::5], codes[2::5] = lo, hi
            expected = reference_pack(codes, width)
            assert pack_codes(codes.tolist(), width) == expected
            assert pack_codes(codes.astype(np.int32), width) == expected
            assert pack_codes(codes.astype(np.int64), width) == expected
            # narrow dtypes, as the emulator's int16 code table yields
            assert pack_codes(codes.astype(np.int16), width) == expected
            if width <= 8:
                assert pack_codes(codes.astype(np.int8), width) == expected
            assert np.array_equal(unpack_codes(expected + b"\xa5", width, n), codes)

    @pytest.mark.parametrize("width", list(range(2, 17)))
    def test_counts_around_a_slab_match_reference(self, width):
        # the emulator packs its 2^16-code pool, and a message ends anywhere in it
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        codes = np.random.default_rng(width).integers(lo, hi + 1, size=(1 << 16) + 8)
        codes[::7] = lo
        for n in range((1 << 16) - 8, (1 << 16) + 9):
            assert pack_codes(codes[:n], width) == reference_pack(codes[:n], width)

    @given(case=width_and_codes())
    @settings(max_examples=300, deadline=None)
    def test_pack_matches_reference(self, case):
        width, codes = case
        expected = reference_pack(codes, width)
        assert pack_codes(codes, width) == expected
        assert pack_codes(np.array(codes, dtype=np.int32), width) == expected
        assert pack_codes(np.array(codes, dtype=np.int64), width) == expected

    @given(case=width_and_codes(), extra=st.binary(max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_unpack_matches_reference(self, case, extra):
        width, codes = case
        data = reference_pack(codes, width) + extra
        got = unpack_codes(data, width, len(codes))
        assert got.dtype == np.int32
        assert np.array_equal(got, reference_unpack(data, width, len(codes)))
        assert np.array_equal(got, codes)

    def test_quantize_pack_pipeline(self):
        """End to end: LLRs -> codes -> bytes -> codes -> LLR estimates."""
        q = LlrQuantizer(5, clip=8.0)
        rng = np.random.default_rng(77)
        llrs = rng.standard_normal(4096) * 4.0
        codes = quantize_llr(llrs, q)
        packed = pack_codes(codes, q.bit_width)
        assert len(packed) == -(-4096 * 5 // 8)
        restored = dequantize_llr(unpack_codes(packed, q.bit_width, 4096), q)
        clamped = np.clip(llrs, -8.0, 8.0)
        assert np.max(np.abs(restored - clamped)) <= q.step / 2 + 1e-12
