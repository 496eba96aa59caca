"""End-to-end CLI tests through main(argv)."""

import functools
import inspect
import json
from importlib import metadata
from pathlib import Path

import pytest

import fhsplit.cli
import fhsplit.emulation
from fhsplit.cell import preset
from fhsplit.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PROFILES = Path(__file__).resolve().parents[1] / "profiles"


def declared_script(name):
    """The `[project.scripts]` value for `name` in the repo's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def is_installed(dist_name):
    try:
        metadata.distribution(dist_name)
    except metadata.PackageNotFoundError:
        return False
    return True


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_plain_includes_rates_and_note(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--preset", "lte10")
        assert code == 0
        for token in ("3677.2", "2150.4", "537.6", "67.2"):
            assert token in out
        assert "misprint" in out

    def test_plain_20mhz(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--preset", "lte20")
        assert code == 0
        for token in ("7354.4", "4300.8", "1075.2", "134.4"):
            assert token in out
        assert "7357.4" in out  # the note calls out the misprinted figure

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--preset", "lte10", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "split,direction,rate_mbps",
            "8,both,3677.2",
            "7.1,both,2150.4",
            "7.2,both,537.6",
            "7.3,dl,67.2",
            "7.3,ul,537.6",
        ]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--preset", "lte20",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rates = {(r["split"], r["direction"]): r["rate_mbps"]
                 for r in payload["rows"]}
        assert rates[("8", "both")] == 7354.4
        assert rates[("7.3", "dl")] == 134.4
        assert payload["notes"]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("n_sc = 1200\nn_layers = 2\nn_ant = 4\nmod_order = 4\n")
        code, out, _ = run_cli(capsys, "plan", "--config", str(cfg),
                               "--format", "csv")
        assert code == 0
        assert "7354.4" in out

    def test_unknown_preset_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--preset", "nope")
        assert code == 2
        assert "unknown preset" in err

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--config", "/does/not/exist.cfg")
        assert code == 2
        assert "not found" in err

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_sc = 600\n")  # missing required keys
        code, _, err = run_cli(capsys, "plan", "--config", str(cfg))
        assert code == 2
        assert "bad cell config" in err

    def test_non_integer_cell_field_exits_2(self, capsys, tmp_path):
        # a fractional subcarrier count used to print inexact rates
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("n_sc = 600.5\nn_layers = 2\nn_ant = 4\nmod_order = 4\n")
        code, out, err = run_cli(capsys, "plan", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "bad cell config: n_sc must be an integer" in err


class TestCompare:
    def test_csv_grid(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "direction,mod_order,mod_scheme,soft_bit_width,ratio"
        assert "dl,2,QPSK,,16.0" in lines
        assert "dl,6,64QAM,,5.3" in lines
        assert "ul,6,64QAM,8,0.7" in lines
        assert "ul,6,64QAM,4,1.3" in lines
        assert len(lines) == 1 + 4 + 8

    def test_custom_width(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--soft-bit-width", "5",
                               "--format", "csv")
        assert code == 0
        assert "ul,6,64QAM,5,1.1" in out.splitlines()

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        dl_qpsk = [r for r in payload
                   if r["direction"] == "dl" and r["mod_order"] == 2]
        assert dl_qpsk[0]["ratio"] == 16.0


class TestBudget:
    def test_plain_goldens(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "--distance-km", "10")
        assert code == 0
        assert "max distance 100 km" in out
        assert "max distance 0 km" in out
        assert "50 us" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "--ul-processing-ms", "1.5",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ul"]["max_distance_km"] == 100.0
        assert payload["dl"]["max_distance_km"] == 0.0

    def test_over_budget_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "budget", "--dl-processing-ms", "2.0")
        assert code == 2
        assert "exceeds" in err


class TestInvalidValues:
    @pytest.mark.parametrize("argv,field", [
        (("compare", "--soft-bit-width", "0"), "soft_bit_width"),
        (("compare", "--soft-bit-width", "8", "-2"), "soft_bit_width"),
        (("compare", "--iq-bits", "0"), "iq_component_bits"),
        (("budget", "--distance-km", "-1"), "distance_km"),
        (("budget", "--distance-km", "nan"), "distance_km"),
        (("budget", "--distance-km", "inf"), "distance_km"),
        (("budget", "--us-per-km", "nan"), "propagation_us_per_km"),
        (("budget", "--us-per-km", "inf"), "propagation_us_per_km"),
        (("budget", "--harq-rtt-ms", "nan"), "harq_rtt_ms"),
        (("budget", "--dl-deadline-ms", "inf"), "dl_processing_ms"),
        (("budget", "--dl-processing-ms", "nan"), "processing_ms"),
        (("budget", "--ul-processing-ms=-inf"), "processing_ms"),
    ])
    def test_rejected_with_exit_2_and_one_line(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err
        assert len(err.splitlines()) == 1


class TestHeader:
    def test_encode_decode_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "header", "encode", "--timestamp", "7", "--num-blocks", "3",
            "--content-type", "1", "--size", "1472", "--sender-clock", "99",
        )
        assert code == 0
        hexstr = out.strip()
        assert len(hexstr) == 44
        code, out, _ = run_cli(capsys, "header", "decode", hexstr)
        assert code == 0
        assert "timestamp: 7" in out
        assert "num_blocks: 3" in out
        assert "size: 1472" in out
        assert "sender_clock: 99" in out

    def test_decode_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "header", "decode",
            "00000000000000000001000000160000000000000000",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "timestamp": 0, "num_blocks": 1, "content_type": 0,
            "size": 22, "sender_clock": 0,
        }

    def test_encode_invalid_size_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "header", "encode", "--timestamp", "0", "--num-blocks", "1",
            "--content-type", "0", "--size", "70000",
        )
        assert code == 2
        assert "size" in err

    def test_decode_bad_hex_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "header", "decode", "zz")
        assert code == 2
        assert "hex" in err

    def test_decode_malformed_header_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "header", "decode", "00" * 22)
        assert code == 2  # num_blocks == 0
        assert "undecodable" in err


class TestEmulate:
    def test_writes_reports_and_summary(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "emulate", "--preset", "lte10", "--goodput-mbps", "5",
            "--subframes", "50", "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert "offered" in out and "fronthaul" in out and "messages:" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["duration_subframes"] == 50

    def test_deterministic_outputs(self, capsys, tmp_path):
        args = ["emulate", "--preset", "lte10", "--goodput-mbps", "40",
                "--subframes", "100", "--loss", "0.03", "--reorder", "0.05",
                "--seed", "9"]
        run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/report.csv").read_bytes() == \
            (tmp_path / "b/report.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == \
            (tmp_path / "b/summary.json").read_bytes()

    def test_total_loss_reports_full_timeouts(self, capsys):
        code, out, _ = run_cli(
            capsys, "emulate", "--preset", "lte10", "--goodput-mbps", "5",
            "--subframes", "40", "--loss", "1.0",
        )
        assert code == 0
        assert "(100.00%)" in out
        assert "0 complete" in out

    def test_scenario_file(self, capsys, tmp_path):
        scn = tmp_path / "s.cfg"
        scn.write_text(
            "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\n"
            "cell.mod_order = 4\nprofile.goodput_bps = 4e6\n"
            "profile.duration_subframes = 40\nseed = 2\n"
        )
        code, out, _ = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert code == 0
        assert "40 subframes (seed 2)" in out

    def test_scenario_seed_override(self, capsys, tmp_path):
        scn = tmp_path / "s.cfg"
        scn.write_text(
            "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\n"
            "cell.mod_order = 4\nprofile.goodput_bps = 4e6\n"
            "profile.duration_subframes = 40\nseed = 2\n"
        )
        code, out, _ = run_cli(capsys, "emulate", "--scenario", str(scn),
                               "--seed", "5")
        assert code == 0
        assert "(seed 5)" in out

    def test_bad_scenario_exits_2(self, capsys, tmp_path):
        scn = tmp_path / "bad.cfg"
        scn.write_text("profile.goodput_bps = 1e6\n")
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert code == 2
        assert "bad scenario" in err

    @pytest.mark.parametrize("width", [1, 17])
    def test_unpackable_soft_bit_width_exits_2(self, capsys, tmp_path, width):
        scn = tmp_path / "s.cfg"
        scn.write_text(
            "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\n"
            f"cell.mod_order = 4\ncell.soft_bit_width = {width}\n"
            "profile.goodput_bps = 4e6\nprofile.duration_subframes = 5\n"
        )
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert code == 2
        assert "bad scenario" in err and "soft_bit_width" in err

    @pytest.mark.parametrize("line,field", [
        ("profile.duration_subframes = 5.5", "duration_subframes"),
        ("profile.packet_size_bytes = 100.5", "packet_size_bytes"),
        ("cell.n_sc = 600.5", "n_sc"),
        ("seed = 1.7", "seed"),
        ("max_datagram = 1472.9", "max_datagram"),
    ])
    def test_non_integer_scenario_field_exits_2(self, capsys, tmp_path, line, field):
        scn = tmp_path / "s.cfg"
        scn.write_text(
            "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\ncell.mod_order = 4\n"
            "profile.goodput_bps = 4e6\nprofile.duration_subframes = 5\n"
            f"{line}\n"
        )
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert code == 2
        assert "bad scenario" in err and f"{field} must be an integer" in err
        assert len(err.splitlines()) == 1

    def test_bad_channel_rate_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "emulate", "--preset", "lte10", "--loss", "1.5",
            "--subframes", "10",
        )
        assert code == 2
        assert "loss_rate" in err

    @pytest.mark.parametrize("argv,field", [
        (("--max-datagram", "10"), "max_datagram"),
        (("--max-datagram", "70000"), "max_datagram"),
        (("--goodput-mbps", "nan"), "goodput_bps"),
        (("--goodput-mbps", "inf"), "goodput_bps"),
        (("--delay-us", "nan"), "delay_us"),
        (("--delay-us", "inf"), "delay_us"),
    ])
    def test_bad_numeric_option_exits_2(self, capsys, argv, field):
        code, _, err = run_cli(capsys, "emulate", "--subframes", "3", *argv)
        assert code == 2
        assert err.startswith("error:") and field in err
        assert len(err.splitlines()) == 1

    def test_unchunkable_message_exits_2_before_sending(self, capsys, monkeypatch):
        def no_emit(*args):
            raise AssertionError("emitted before checking the message sizes")

        monkeypatch.setattr(fhsplit.emulation, "_emit", no_emit)
        code, _, err = run_cli(
            capsys, "emulate", "--preset", "worst100", "--goodput-mbps", "3000",
            "--max-datagram", "24", "--subframes", "3",
        )
        assert code == 2
        assert "16-bit" in err and len(err.splitlines()) == 1

    def test_socket_mode_rejects_impairments_before_binding(self, capsys,
                                                             monkeypatch):
        opened = []
        monkeypatch.setattr(fhsplit.emulation, "UdpEndpoint",
                            lambda addr: opened.append(addr))
        code, _, err = run_cli(
            capsys, "emulate", "--mode", "socket", "--loss", "0.1",
            "--du-addr", "127.0.0.1:0", "--ru-addr", "127.0.0.1:0",
        )
        assert code == 2
        assert "impairments" in err
        assert opened == []

    @pytest.mark.parametrize("du_addr,ru_addr", [
        ("127.0.0.1:70000", "127.0.0.1:0"),
        ("127.0.0.1:-1", "127.0.0.1:0"),
        ("127.0.0.1:0", "127.0.0.1:70000"),
    ])
    def test_socket_port_out_of_range_exits_2(self, capsys, du_addr, ru_addr):
        code, _, err = run_cli(
            capsys, "emulate", "--mode", "socket", "--du-addr", du_addr,
            "--ru-addr", ru_addr, "--subframes", "2",
        )
        assert code == 2
        assert err.startswith("error:") and "0-65535" in err
        assert len(err.splitlines()) == 1


# A sim-mode scenario that names every entry an emulate flag can write
# except the cell's optional fields; its addresses are for socket mode.
OVERLAY_SCENARIO = (
    "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\ncell.mod_order = 4\n"
    "profile.goodput_bps = 4e6\nprofile.packet_size_bytes = 1000\n"
    "profile.duration_subframes = 40\n"
    "channel.loss_rate = 0.0\nchannel.reorder_rate = 0.0\nchannel.delay_us = 0\n"
    "seed = 2\nmax_datagram = 1400\n"
    "du_addr = 127.0.0.1:1\nru_addr = 127.0.0.1:2\n"
)


@pytest.fixture
def run_args(monkeypatch):
    """Record the arguments of each run that main starts, then fail it with OSError."""
    calls = []

    def spy(mode, real):
        signature = inspect.signature(real)

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append({"mode": mode, **bound.arguments})
            raise OSError("stopped before the run")

        return record

    monkeypatch.setattr(fhsplit.cli, "run_emulation",
                        spy("sim", fhsplit.emulation.run_emulation))
    monkeypatch.setattr(fhsplit.cli, "run_socket_emulation",
                        spy("socket", fhsplit.emulation.run_socket_emulation))
    return calls


class TestScenarioOverlay:
    """Emulate flags given with --scenario override the entries they name."""

    @pytest.mark.parametrize("argv,entry,value", [
        (("--preset", "worst100"), "cfg", preset("worst100")),
        (("--config", str(PROFILES / "lte20.cfg")), "cfg", preset("lte20")),
        (("--goodput-mbps", "0"), "profile.goodput_bps", 0.0),
        (("--packet-size", "200"), "profile.packet_size_bytes", 200),
        (("--subframes", "7"), "profile.duration_subframes", 7),
        (("--loss", "1.0"), "channel.loss_rate", 1.0),
        (("--reorder", "0.5"), "channel.reorder_rate", 0.5),
        (("--delay-us", "50"), "channel.delay_us", 50.0),
        (("--max-datagram", "256"), "max_datagram", 256),
        (("--mode", "socket", "--du-addr", "127.0.0.1:5000"), "du_addr",
         "127.0.0.1:5000"),
        (("--mode", "socket", "--ru-addr", "127.0.0.1:5001"), "ru_addr",
         "127.0.0.1:5001"),
        (("--seed", "5"), "seed", 5),
        (("--mode", "socket"), "mode", "socket"),
    ])
    def test_flag_reaches_the_run(self, capsys, tmp_path, run_args, argv, entry, value):
        scn = tmp_path / "s.cfg"
        scn.write_text(OVERLAY_SCENARIO)
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn), *argv)
        assert code == 1 and "stopped before the run" in err
        [call] = run_args
        name, *attrs = entry.split(".")
        assert functools.reduce(getattr, attrs, call[name]) == value

    def test_preset_replaces_the_scenario_cell(self, capsys, tmp_path):
        # 100 Mbit/s saturates the file's lte10 cell but not lte20
        scn = tmp_path / "s.cfg"
        scn.write_text(
            "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\ncell.mod_order = 4\n"
            "profile.goodput_bps = 100e6\nprofile.duration_subframes = 20\nseed = 3\n"
        )
        run_cli(capsys, "emulate", "--scenario", str(scn), "--out", str(tmp_path / "file"))
        run_cli(capsys, "emulate", "--scenario", str(scn), "--preset", "lte20",
                "--out", str(tmp_path / "overlay"))
        run_cli(capsys, "emulate", "--preset", "lte20", "--goodput-mbps", "100",
                "--subframes", "20", "--seed", "3", "--out", str(tmp_path / "flags"))
        for name in ("report.csv", "summary.json"):
            overlay = (tmp_path / "overlay" / name).read_bytes()
            assert overlay == (tmp_path / "flags" / name).read_bytes()
            assert overlay != (tmp_path / "file" / name).read_bytes()

    def test_flags_and_equivalent_scenario_write_identical_reports(self, capsys,
                                                                   tmp_path):
        scn = tmp_path / "s.cfg"
        scn.write_text(
            "cell.bw_mhz = 10.0\ncell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\n"
            "cell.mod_order = 4\nprofile.goodput_bps = 40e6\n"
            "profile.packet_size_bytes = 500\nprofile.duration_subframes = 100\n"
            "channel.loss_rate = 0.03\nchannel.reorder_rate = 0.05\n"
            "channel.delay_us = 50\nmax_datagram = 512\nseed = 9\n"
        )
        assert run_cli(capsys, "emulate", "--scenario", str(scn),
                       "--out", str(tmp_path / "file"))[0] == 0
        assert run_cli(capsys, "emulate", "--preset", "lte10", "--goodput-mbps", "40",
                       "--packet-size", "500", "--subframes", "100", "--loss", "0.03",
                       "--reorder", "0.05", "--delay-us", "50", "--max-datagram", "512",
                       "--seed", "9", "--out", str(tmp_path / "flags"))[0] == 0
        for name in ("report.csv", "summary.json"):
            assert (tmp_path / "file" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()

    def test_socket_mode_rejects_flag_impairments_before_binding(self, capsys, tmp_path,
                                                                 monkeypatch):
        opened = []
        monkeypatch.setattr(fhsplit.emulation, "UdpEndpoint",
                            lambda addr: opened.append(addr))
        scn = tmp_path / "s.cfg"
        scn.write_text(OVERLAY_SCENARIO)
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn),
                               "--mode", "socket", "--loss", "0.1")
        assert code == 2
        assert err.startswith("error: bad scenario:") and "impairments" in err
        assert opened == []


class TestParser:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_entry_point_importable(self):
        value = declared_script("fhsplit")
        assert value == "fhsplit.cli:main"
        ep = metadata.EntryPoint(name="fhsplit", value=value,
                                 group="console_scripts")
        assert ep.load() is main

    @pytest.mark.skipif(not is_installed("fhsplit"),
                        reason="fhsplit distribution not installed")
    def test_installed_entry_point_matches_pyproject(self):
        eps = metadata.distribution("fhsplit").entry_points
        ours = [ep for ep in eps
                if ep.group == "console_scripts" and ep.name == "fhsplit"]
        assert len(ours) == 1
        assert ours[0].value == declared_script("fhsplit")
