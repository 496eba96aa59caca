"""Config parsing: key=value files, JSON files, cell and scenario schemas."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fhsplit.cell import CellConfig, preset
from fhsplit.channel import ChannelSpec
from fhsplit.configio import (
    Scenario,
    cell_config_from_dict,
    load_cell_config,
    load_config_file,
    load_scenario,
    parse_kv_text,
    scenario_from_dict,
)

PROFILES = Path(__file__).resolve().parents[1] / "profiles"


class TestKvParser:
    def test_flat_and_nested_keys(self):
        text = """
        a = 1
        b.c = two
        b.d = 3.5
        b.e.f = true
        """
        assert parse_kv_text(text) == {
            "a": 1,
            "b": {"c": "two", "d": 3.5, "e": {"f": True}},
        }

    def test_comments_and_blank_lines(self):
        text = "# header\n\nx = 1  # trailing\n   \n"
        assert parse_kv_text(text) == {"x": 1}

    def test_coercion(self):
        parsed = parse_kv_text(
            "i = -3\nz = 0\nf = 6e7\ng = 0.25\nt = true\nn = false\ns = hello"
        )
        assert parsed["i"] == -3 and isinstance(parsed["i"], int)
        assert parsed["f"] == 6e7 and isinstance(parsed["f"], float)
        assert parsed["g"] == 0.25
        assert parsed["t"] is True and parsed["n"] is False
        assert parsed["s"] == "hello"

    def test_error_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_kv_text("a = 1\nnot a pair\n")

    def test_conflicting_nesting_rejected(self):
        with pytest.raises(ValueError):
            parse_kv_text("a = 1\na.b = 2\n")

    @pytest.mark.parametrize("text", ["cell.n_sc = 600\ncell = 5\n",
                                      "cell = 5\ncell.n_sc = 600\n"])
    def test_value_and_section_conflict_rejected_in_either_order(self, text):
        # a later plain value must not silently replace a whole section
        with pytest.raises(ValueError, match="line 2: 'cell' is both value and section"):
            parse_kv_text(text)

    @pytest.mark.parametrize("text,message", [
        ("n_sc = 600\nn_sc = 1200\n", "line 2: 'n_sc' is already set on line 1"),
        ("cell.n_sc = 600\n# note\ncell.n_ant = 4\ncell.n_sc = 600\n",
         "line 4: 'cell.n_sc' is already set on line 1"),
    ])
    def test_key_set_twice_rejected(self, text, message):
        # the later line used to replace the earlier one silently
        with pytest.raises(ValueError, match=message):
            parse_kv_text(text)


class TestCellLoading:
    def test_minimal_dict(self):
        cfg = cell_config_from_dict(
            {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4}
        )
        assert cfg == CellConfig(n_sc=600, n_layers=2, n_ant=4, mod_order=4)

    def test_cell_section_descent(self):
        cfg = cell_config_from_dict(
            {"cell": {"n_sc": 100, "n_layers": 1, "n_ant": 1, "mod_order": 2}}
        )
        assert cfg.n_sc == 100

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            cell_config_from_dict(
                {"n_sc": 1, "n_layers": 1, "n_ant": 1, "mod_order": 2, "bogus": 9}
            )

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            cell_config_from_dict({"n_sc": 600})

    def test_kv_and_json_files_agree(self, tmp_path):
        kv = tmp_path / "cell.cfg"
        kv.write_text("n_sc = 600\nn_layers = 2\nn_ant = 4\nmod_order = 4\n")
        js = tmp_path / "cell.json"
        js.write_text(json.dumps({"n_sc": 600, "n_layers": 2, "n_ant": 4,
                                  "mod_order": 4}))
        assert load_cell_config(kv) == load_cell_config(js)

    @pytest.mark.parametrize("name", ["lte10", "lte20", "worst100"])
    def test_shipped_profiles_match_presets(self, name):
        assert load_cell_config(PROFILES / f"{name}.cfg") == preset(name)

    @pytest.mark.parametrize("path", sorted(PROFILES.iterdir()), ids=lambda p: p.name)
    def test_every_shipped_file_loads(self, path):
        data = load_config_file(path)
        if "profile" in data:
            assert isinstance(scenario_from_dict(data), Scenario)
        else:
            assert isinstance(cell_config_from_dict(data), CellConfig)

    @pytest.mark.parametrize("field", ["n_sc", "n_layers", "n_ant", "mod_order",
                                       "iq_component_bits", "soft_bit_width",
                                       "symbols_per_second"])
    @pytest.mark.parametrize("value", [600.5, 4.0, "4", True])
    def test_integer_fields_reject_non_integers(self, field, value):
        data = {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            cell_config_from_dict(data)

    @pytest.mark.parametrize("literal,json_value,factor", [
        ("1.71", 1.71, Fraction(171, 100)),
        ("4096/3276", "4096/3276", Fraction(4096, 3276)),
    ])
    def test_oversampling_factor_is_exact(self, tmp_path, literal, json_value, factor):
        cell = {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4}
        kv = tmp_path / "cell.cfg"
        kv.write_text("".join(f"{k} = {v}\n" for k, v in cell.items())
                      + f"oversampling_factor = {literal}\n")
        js = tmp_path / "cell.json"
        js.write_text(json.dumps({**cell, "oversampling_factor": json_value}))
        for path in (kv, js):
            assert load_cell_config(path).oversampling_factor == factor

    def test_worst100_factor_is_fft_size_over_subcarriers(self):
        assert preset("worst100").oversampling_factor == Fraction(4096, 3276)

    @pytest.mark.parametrize("text", [
        '{"n_sc": 600, "n_sc": 1200}',
        '{"cell": {"n_sc": 600, "n_ant": 4, "n_sc": 1200}}',
    ])
    def test_json_key_set_twice_rejected(self, tmp_path, text):
        path = tmp_path / "cell.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="'n_sc' is set twice"):
            load_config_file(path)

    def test_cell_field_outside_the_cell_section_rejected(self):
        # the top-level mod_order used to be ignored for the section's
        data = {"cell": {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 6},
                "mod_order": 2, "seed": 7}
        with pytest.raises(ValueError,
                           match="keys set outside the cell section: mod_order$"):
            cell_config_from_dict(data)

    def test_json_suffix_dispatch(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": 1}')
        assert load_config_file(path) == {"a": 1}


class TestScenario:
    def make(self, **over):
        base = {
            "cell": {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4},
            "profile": {"goodput_bps": 1e7, "duration_subframes": 100},
        }
        base.update(over)
        return scenario_from_dict(base)

    def test_defaults(self):
        s = self.make()
        assert s.du_addr is s.ru_addr is None
        assert s.seed == 0 and s.max_datagram == 1472
        assert s.channel == ChannelSpec()
        assert s.profile.goodput_bps == 1e7

    def test_channel_section(self):
        s = self.make(channel={"loss_rate": 0.1, "reorder_rate": 0.2})
        assert s.channel.loss_rate == 0.1
        assert s.channel.reorder_rate == 0.2

    def test_unknown_scenario_key(self):
        with pytest.raises(ValueError, match="unknown"):
            self.make(extra=1)

    def test_missing_sections(self):
        with pytest.raises(ValueError, match="cell"):
            scenario_from_dict({"profile": {"goodput_bps": 1}})
        with pytest.raises(ValueError, match="profile"):
            scenario_from_dict({"cell": {"n_sc": 1, "n_layers": 1, "n_ant": 1,
                                         "mod_order": 2}})

    @pytest.mark.parametrize("section", ["cell", "profile", "channel"])
    def test_section_must_be_a_mapping(self, section):
        with pytest.raises(ValueError, match=f"section '{section}' must be a mapping"):
            self.make(**{section: [1]})

    def test_socket_mode_needs_addresses(self):
        # the addresses select socket mode, so one alone cannot be ignored
        for one in ({"du_addr": "127.0.0.1:1"}, {"ru_addr": "127.0.0.1:2"}):
            with pytest.raises(ValueError, match="needs both du_addr and ru_addr"):
                self.make(**one)
        s = self.make(du_addr="127.0.0.1:1", ru_addr="127.0.0.1:2")
        assert (s.du_addr, s.ru_addr) == ("127.0.0.1:1", "127.0.0.1:2")

    def test_soft_bit_width_must_be_packable(self):
        cell = {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4}
        # the rate models take any width >= 1; only the emulator packs codes
        assert cell_config_from_dict({**cell, "soft_bit_width": 1}).soft_bit_width == 1
        for width in (1, 17):
            with pytest.raises(ValueError, match="soft_bit_width"):
                self.make(cell={**cell, "soft_bit_width": width})
        for width in (2, 16):
            s = self.make(cell={**cell, "soft_bit_width": width})
            assert s.cell.soft_bit_width == width

    def test_max_datagram_range(self):
        for size in (0, 22, 65_508, 70_000):
            with pytest.raises(ValueError, match="max_datagram"):
                self.make(max_datagram=size)
        for size in (23, 65_507):
            assert self.make(max_datagram=size).max_datagram == size

    @pytest.mark.parametrize("field", ["seed", "max_datagram"])
    @pytest.mark.parametrize("value", [1472.9, 1472.0, "1472", True])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            self.make(**{field: value})

    @pytest.mark.parametrize("section,key", [("profile", "goodput_bps"),
                                             ("channel", "loss_rate"),
                                             ("channel", "reorder_rate"),
                                             ("channel", "delay_us"),
                                             ("cell", "bw_mhz"),
                                             ("cell", "oversampling_factor")])
    def test_float_fields_reject_bools(self, section, key):
        # True would run as 1: a loss_rate of True drops every datagram; a
        # string used to fail inside a comparison without naming the field
        for value in (True, "abc"):
            data = {"cell": {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4},
                    "profile": {"goodput_bps": 1e7}, "channel": {}}
            data[section][key] = value
            with pytest.raises(ValueError, match=f"{key} must be a number.*got {value!r}"):
                self.make(**data)

    @pytest.mark.parametrize("section,entries,message", [
        ("profile", {"goodput_bps": 1e7, "rate": 3}, "unknown profile keys: rate"),
        ("profile", {"packet_size_bytes": 100}, "missing profile keys: goodput_bps"),
        ("channel", {"loss": 0.1}, "unknown channel keys: loss"),
    ])
    def test_section_key_errors_name_the_keys(self, section, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.make(**{section: entries})

    def test_seed_must_not_be_negative(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            self.make(seed=-1)
        assert self.make(seed=0).seed == 0

    def test_integer_fields_take_numpy_integers(self):
        s = self.make(seed=np.int64(7), max_datagram=np.uint16(1000))
        assert s.seed == 7 and s.max_datagram == 1000

    @pytest.mark.parametrize("section,key", [("profile", "goodput_bps"),
                                             ("channel", "delay_us"),
                                             ("cell", "bw_mhz")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_values_rejected(self, section, key, value):
        data = {"cell": {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4},
                "profile": {"goodput_bps": 1e7}, "channel": {}}
        data[section][key] = value
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            self.make(**data)

    def test_socket_mode_rejects_impairments(self):
        addrs = {"du_addr": "127.0.0.1:1", "ru_addr": "127.0.0.1:2"}
        for channel in ({"loss_rate": 0.1}, {"reorder_rate": 0.1},
                        {"delay_us": 5.0}):
            with pytest.raises(ValueError, match="impairments"):
                self.make(channel=channel, **addrs)
        s = self.make(channel={"loss_rate": 0.0}, **addrs)
        assert s.channel == ChannelSpec()

    def test_bad_mode(self):
        # the addresses select the mode; a mode key is unknown
        for mode in ("sim", "socket"):
            with pytest.raises(ValueError, match="^unknown scenario keys: mode$"):
                self.make(mode=mode)

    def test_demo_scenario_file_loads(self):
        s = load_scenario(PROFILES / "demo_scenario.cfg")
        assert s.cell.n_sc == 600
        assert s.profile.goodput_bps == 60e6
        assert s.channel.loss_rate == 0.01
        assert s.seed == 7

    def test_scenario_kv_file_round_trip(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text(
            "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\n"
            "cell.mod_order = 4\nprofile.goodput_bps = 5e6\n"
            "profile.duration_subframes = 50\nchannel.loss_rate = 0.5\nseed = 3\n"
        )
        s = load_scenario(path)
        assert isinstance(s, Scenario)
        assert s.profile.duration_subframes == 50
        assert s.channel.loss_rate == 0.5
        assert s.seed == 3
