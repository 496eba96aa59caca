"""Content-type payload codecs: control and CQI."""

import pytest

from fhsplit.messages import (
    CONTROL_SIZE,
    CQI_SIZE,
    ControlDl,
    CqiReport,
    decode_control,
    decode_cqi,
    encode_control,
    encode_cqi,
)


class TestControl:
    def test_fixed_size(self):
        ctrl = ControlDl(2, (3, 90), mcs=23, rb_position=14, power_db=-6)
        assert len(encode_control(ctrl)) == CONTROL_SIZE

    def test_round_trip(self):
        ctrl = ControlDl(3, (0, 17, 65535), mcs=27, rb_position=99, power_db=20)
        assert decode_control(encode_control(ctrl)) == ctrl

    def test_empty_control_round_trip(self):
        ctrl = ControlDl(0, (), 0, 0, 0)
        encoded = encode_control(ctrl)
        assert encoded == b"\x00" * CONTROL_SIZE
        assert decode_control(encoded) == ctrl

    def test_negative_power_round_trips(self):
        ctrl = ControlDl(1, (5,), mcs=1, rb_position=0, power_db=-128)
        assert decode_control(encode_control(ctrl)).power_db == -128

    def test_max_dci_positions(self):
        # 64 bytes minus the 6 fixed -> 29 u16 positions
        positions = tuple(range(29))
        ctrl = ControlDl(29, positions, 0, 0, 0)
        assert decode_control(encode_control(ctrl)).dci_positions == positions
        with pytest.raises(ValueError):
            ControlDl(30, tuple(range(30)), 0, 0, 0)

    def test_count_must_match_positions(self):
        with pytest.raises(ValueError):
            ControlDl(2, (1,), 0, 0, 0)

    def test_field_ranges(self):
        with pytest.raises(ValueError):
            ControlDl(1, (70000,), 0, 0, 0)
        with pytest.raises(ValueError):
            ControlDl(0, (), mcs=300, rb_position=0, power_db=0)
        with pytest.raises(ValueError):
            ControlDl(0, (), mcs=0, rb_position=0, power_db=200)

    def test_decode_wrong_length(self):
        with pytest.raises(ValueError):
            decode_control(b"\x00" * 63)
        with pytest.raises(ValueError):
            decode_control(b"\x00" * 65)

    def test_decode_impossible_count(self):
        bad = b"\x00\xff" + b"\x00" * (CONTROL_SIZE - 2)
        with pytest.raises(ValueError):
            decode_control(bad)


class TestCqi:
    def test_size_and_round_trip(self):
        report = CqiReport(subframe=123456, cqi=11)
        encoded = encode_cqi(report)
        assert len(encoded) == CQI_SIZE
        assert decode_cqi(encoded) == report

    def test_validation(self):
        with pytest.raises(ValueError):
            CqiReport(-1, 0)
        with pytest.raises(ValueError):
            CqiReport(1 << 32, 0)
        with pytest.raises(ValueError):
            CqiReport(0, 256)

    def test_decode_wrong_length(self):
        with pytest.raises(ValueError):
            decode_cqi(b"\x00" * 7)
