"""End-to-end CLI tests through main(argv)."""

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import re
import shlex
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhsplit.cli
import fhsplit.emulation
from fhsplit.cell import MODULATION_NAMES, CellConfig, preset
from fhsplit.cli import main
from fhsplit.rates import OPTION8_NOTE, capacity_table

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
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


BASE_SCENARIO = ("cell.n_sc = 600", "cell.n_layers = 2", "cell.n_ant = 4",
                 "cell.mod_order = 4", "profile.goodput_bps = 4e6",
                 "profile.duration_subframes = 5")


def scenario_with(line):
    """BASE_SCENARIO's lines with line last, in place of the one that sets its key."""
    key = line.partition("=")[0].strip()
    kept = [b for b in BASE_SCENARIO if b.partition("=")[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


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
        assert payload["notes"] == [OPTION8_NOTE]

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
        # a fractional subcarrier count used to print inexact rates; the
        # other lines used to crash, plan a wrong option 8 or go unnamed
        cfg = tmp_path / "cell.cfg"
        for lines, message in [
            ("n_sc = 600.5", "n_sc must be an integer"),
            ("n_sc = 600\nbw_mhz = abc", "bw_mhz must be a number, got 'abc'"),
            ("n_sc = 600\nbw_mhz = nan", "bw_mhz must be finite and >= 0, got nan"),
            ("n_sc = 600\nbw_mhz = inf", "bw_mhz must be finite and >= 0, got inf"),
            ("n_sc = 600\nbw_mhz = -10", "bw_mhz must be finite and >= 0, got -10"),
            ("n_sc = 600\noversampling_factor = true", "oversampling_factor must be a number"),
            ("n_sc = 600\noversampling_factor = abc", "oversampling_factor must be a number"),
            ("n_sc = 600\nn_fft = 1024", "unknown cell config keys: n_fft"),
        ]:
            cfg.write_text(f"{lines}\nn_layers = 2\nn_ant = 4\nmod_order = 4\n")
            code, out, err = run_cli(capsys, "plan", "--config", str(cfg))
            assert code == 2 and out == ""
            assert err.startswith(f"error: bad cell config: {message}")
            assert len(err.splitlines()) == 1

    def test_rates_beyond_json_numbers_exit_2(self, capsys, tmp_path):
        # the exact rates print as csv; as JSON floats they used to end in
        # an OverflowError traceback
        cfg = tmp_path / "cell.cfg"
        cfg.write_text(f"n_sc = {10 ** 400}\nn_layers = 1\nn_ant = 1\nmod_order = 2\n")
        code, out, err = run_cli(capsys, "plan", "--config", str(cfg), "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the rates of cell config {cfg} are too large")
        assert len(err.splitlines()) == 1
        code, out, _ = run_cli(capsys, "plan", "--config", str(cfg), "--format", "csv")
        assert code == 0
        assert f"7.3,dl,{28 * 10 ** 397}.0" in out.splitlines()

    @pytest.mark.parametrize("name,text,message", [
        ("cell.cfg", "n_sc = 600\nn_layers = 2\nn_ant = 4\nmod_order = 4\nn_sc = 1200\n",
         "line 5: 'n_sc' is already set on line 1"),
        ("cell.json",
         '{"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4, "n_sc": 1200}',
         "'n_sc' is set twice in one JSON object"),
        ("cell.cfg", "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\n"
         "cell.mod_order = 6\nmod_order = 2\n",
         "cell config keys set outside the cell section: mod_order"),
    ])
    def test_value_given_twice_exits_2(self, capsys, tmp_path, name, text, message):
        # each of these used to plan with one of the two values, silently
        cfg = tmp_path / name
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "plan", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: bad cell config: {message}\n"


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

    @pytest.mark.parametrize("argv,row", [
        # 2*16 / (8*16) = 0.25 and 2*3 / (8*5) = 0.15 are exact ties; as
        # binary floats rounded half-to-even they printed 0.2 and 0.1
        (("--soft-bit-width", "16"), "ul,8,256QAM,16,0.3"),
        (("--iq-bits", "3", "--soft-bit-width", "5"), "ul,8,256QAM,5,0.2"),
    ], ids=["w16", "iq3-w5"])
    def test_exact_ties_round_half_up(self, capsys, argv, row):
        code, out, _ = run_cli(capsys, "compare", *argv, "--format", "csv")
        assert code == 0
        assert row in out.splitlines()

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_ratios_beyond_floats_print_exactly(self, capsys, fmt):
        # these used to exit 2 because the ratios went through a float
        iq = 10 ** 400
        code, out, err = run_cli(capsys, "compare", "--iq-bits", str(iq), "--format", fmt)
        assert (code, err) == (0, "")
        rows = [line.replace(",", " ").split() for line in out.splitlines()[1:]]
        # QPSK downlink: 2*IQ / 2; 64QAM uplink at 8 bits: 2*IQ / 48 = 41...6.67
        assert rows[0][-1] == f"{iq}.0"
        assert rows[6][-2:] == ["8", f"{iq // 24}.7"]


def half_up_tenths(value):
    """value = a/b rounded half-up to a whole number of tenths: (20a + b) // 2b."""
    value = Fraction(value)
    return (20 * value.numerator + value.denominator) // (2 * value.denominator)


def printed_column(*argv):
    """The rate or ratio column main(argv) prints: text in plain and csv, numbers in json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        payload = json.loads(out.getvalue())
        rows = payload["rows"] if argv[0] == "plan" else payload
        return [row["rate_mbps" if argv[0] == "plan" else "ratio"] for row in rows]
    lines = out.getvalue().splitlines()
    if fmt == "csv":
        return [line.rsplit(",", 1)[1] for line in lines[1:]]
    # plain: plan has a cell line, a header, then rows that end in "Mbit/s"
    if argv[0] == "plan":
        return [line.split()[-2] for line in lines[2:-1]]
    return [line.split()[-1] for line in lines[1:-1]]


def assert_half_up(printed, exact):
    """Each printed number is its exact value rounded half-up to one decimal."""
    assert len(printed) == len(exact)
    for shown, value in zip(printed, exact):
        tenths = half_up_tenths(value)
        if isinstance(shown, str):
            assert re.fullmatch(r"\d+\.\d", shown) and Fraction(shown) == Fraction(tenths, 10)
        else:
            assert shown == tenths / 10


class TestPrintedNumbers:
    """plan and compare print every exact rate and ratio by one rule."""

    @given(cfg=st.builds(
        CellConfig,
        n_sc=st.integers(1, 4000),
        n_layers=st.integers(1, 8),
        n_ant=st.integers(1, 64),
        mod_order=st.sampled_from(sorted(MODULATION_NAMES)),
        iq_component_bits=st.integers(1, 32),
        soft_bit_width=st.integers(2, 16),
        symbols_per_second=st.integers(1, 30000),
        oversampling_factor=st.fractions(1, 4, max_denominator=5000),
    ))
    @settings(max_examples=60, deadline=None)
    def test_plan(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("cell") / "cell.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(cfg).items()))
        exact = [Fraction(row.rate_bps, 10**6) for row in capacity_table(cfg)]
        for fmt in ("plain", "csv", "json"):
            assert_half_up(printed_column("plan", "--config", str(path), "--format", fmt),
                           exact)

    @given(widths=st.lists(st.integers(2, 16), min_size=1, max_size=4, unique=True),
           iq_bits=st.integers(1, 64) | st.integers(1, 10**30))
    @settings(max_examples=60, deadline=None)
    def test_compare(self, widths, iq_bits):
        mods = sorted(MODULATION_NAMES)
        exact = [Fraction(2 * iq_bits, m) for m in mods]
        exact += [Fraction(2 * iq_bits, m * w) for w in widths for m in mods]
        for fmt in ("plain", "csv", "json"):
            assert_half_up(printed_column("compare", "--iq-bits", str(iq_bits), "--soft-bit-width",
                                          *map(str, widths), "--format", fmt), exact)


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
        (("budget", "--dl-deadline-ms", "inf"), "dl_deadline_ms"),
        (("budget", "--dl-processing-ms", "nan"), "processing_ms"),
        (("budget", "--ul-processing-ms=-inf"), "processing_ms"),
        # results beyond the float range used to print inf, or Infinity in JSON
        (("budget", "--distance-km", "1e308", "--us-per-km", "10", "--format", "json"),
         "distance_km 1e+308"),
        (("budget", "--distance-km", "1e308", "--us-per-km", "10"), "distance_km 1e+308"),
        (("budget", "--us-per-km", "1e-320"), "max distance at 9.99989e-321 us/km"),
        (("budget", "--us-per-km", "1e-320", "--format", "json"), "9.99989e-321 us/km"),
        # a repeated width used to print its uplink rows twice
        (("compare", "--soft-bit-width", "8", "4", "8"), "--soft-bit-width 8 is given twice"),
        # ratios beyond the float range used to end in an OverflowError traceback;
        # plain and csv print them exactly (TestCompare)
        pytest.param(("compare", "--iq-bits", str(10 ** 400), "--format", "json"),
                     f"--iq-bits {10 ** 400} makes the ratios too large for a float",
                     id="compare-iq-bits-10**400-json"),
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

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_out_blocked_by_a_file_exits_1_before_running(self, capsys, tmp_path,
                                                          monkeypatch, under_file):
        def no_run(*args, **kwargs):
            raise AssertionError("ran before making the output directory")

        monkeypatch.setattr(fhsplit.cli, "run_emulation", no_run)
        blocker = tmp_path / "taken"
        blocker.write_text("kept")
        out_dir = blocker / "run" if under_file else blocker
        code, out, err = run_cli(capsys, "emulate", "--subframes", "2",
                                 "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(out_dir) in err
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("out", ["xo", "a/b", "kept/run"])
    def test_rejected_run_leaves_no_directory_it_made(self, capsys, tmp_path, out):
        (tmp_path / "kept").mkdir()
        code, out_text, err = run_cli(
            capsys, "emulate", "--preset", "worst100", "--goodput-mbps", "3000",
            "--max-datagram", "24", "--subframes", "3", "--out", str(tmp_path / out))
        assert code == 2 and out_text == ""
        assert "num_blocks is a 16-bit field" in err
        # the directory that was there before the call stays
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_failed_mkdir_leaves_no_parent_it_made(self, capsys, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("ran without an output directory")

        monkeypatch.setattr(fhsplit.cli, "run_emulation", no_run)
        (tmp_path / "kept").mkdir()
        # the parents are made before the last name fails as too long
        out_dir = tmp_path / "kept" / "new" / "deeper" / ("x" * 300)
        code, out, err = run_cli(capsys, "emulate", "--subframes", "2",
                                 "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_unwritable_report_exits_1(self, capsys, tmp_path):
        (tmp_path / "report.csv").mkdir()
        code, out, err = run_cli(capsys, "emulate", "--subframes", "2",
                                 "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "report.csv" in err
        assert len(err.splitlines()) == 1

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
        scn.write_text(scenario_with(line))
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert code == 2
        assert "bad scenario" in err and f"{field} must be an integer" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("line,message", [
        ("seed = true", "seed must be an integer, got True"),
        ("cell.n_layers = true", "n_layers must be an integer, got True"),
        ("channel.loss_rate = true", "loss_rate must be a number, got True"),
        ("profile.goodput_bps = true", "goodput_bps must be a number, got True"),
        ("cell = 5", "line 7: 'cell' is both value and section"),
        ("channel.delay_us = abc", "delay_us must be a number, got 'abc'"),
        ("profile.goodput_bps = fast", "goodput_bps must be a number, got 'fast'"),
        ("profile.rate = 3", "unknown profile keys: rate"),
        ("channel.loss = 0.1", "unknown channel keys: loss"),
        ("cell.oversampling_factor = true", "oversampling_factor must be a number"),
        ("cell.n_fft = 1024", "unknown cell config keys: n_fft"),
        ("mode = sim", "unknown scenario keys: mode"),
    ])
    def test_boolean_or_clobbering_scenario_line_exits_2(self, capsys, tmp_path,
                                                          line, message):
        scn = tmp_path / "s.cfg"
        scn.write_text(scenario_with(line))
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert code == 2
        assert err.startswith("error: bad scenario") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name,text", [
        ("s.cfg", "\n".join(line.replace("cell.", "cell.cell.") for line in BASE_SCENARIO)),
        ("s.json", json.dumps({"cell": {"cell": {"n_sc": 600, "n_layers": 2, "n_ant": 4,
                                                 "mod_order": 4}},
                               "profile": {"goodput_bps": 4e6, "duration_subframes": 5}})),
    ])
    def test_nested_cell_section_exits_2(self, capsys, tmp_path, name, text):
        # a scenario's cell section is the cell; it used to be unwrapped
        # once more, as a cell file's is, so cell.cell.n_sc ran as n_sc
        scn = tmp_path / name
        scn.write_text(text)
        code, out, err = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert (code, out) == (2, "")
        assert err == "error: bad scenario: unknown cell config keys: cell\n"

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
        (("--seed", "-1"), "seed"),
        (("--line-rate-gbps", "0"), "line_rate_bps"),
        (("--line-rate-gbps", "1.5e-9"), "line_rate_bps"),
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
            capsys, "emulate", "--loss", "0.1",
            "--du-addr", "127.0.0.1:0", "--ru-addr", "127.0.0.1:0",
        )
        assert code == 2
        assert "impairments" in err
        assert opened == []

    @pytest.mark.parametrize("rate", ["10", "25.000000001"])
    def test_socket_mode_rejects_a_line_rate_before_binding(self, capsys, monkeypatch,
                                                            rate):
        # a socket link runs at whatever rate the host gives it
        opened = []
        monkeypatch.setattr(fhsplit.emulation, "UdpEndpoint",
                            lambda addr: opened.append(addr))
        code, out, err = run_cli(
            capsys, "emulate", "--line-rate-gbps", rate,
            "--du-addr", "127.0.0.1:0", "--ru-addr", "127.0.0.1:0",
        )
        assert (code, out) == (2, "")
        assert err == "error: a socket run cannot apply channel impairments or a line rate\n"
        assert opened == []

    def test_the_default_line_rate_is_allowed_in_socket_mode(self, run_args, capsys):
        code, _, err = run_cli(capsys, "emulate", "--line-rate-gbps", "25", *SOCKET_ARGV)
        assert code == 1 and "stopped before the run" in err
        assert [call["mode"] for call in run_args] == ["socket"]

    @pytest.mark.parametrize("du_addr,ru_addr", [
        ("127.0.0.1:70000", "127.0.0.1:0"),
        ("127.0.0.1:-1", "127.0.0.1:0"),
        ("127.0.0.1:0", "127.0.0.1:70000"),
        ("127.0.0.1:abc", "127.0.0.1:0"),
    ])
    def test_socket_port_out_of_range_exits_2(self, capsys, du_addr, ru_addr):
        code, _, err = run_cli(
            capsys, "emulate", "--du-addr", du_addr,
            "--ru-addr", ru_addr, "--subframes", "2",
        )
        assert code == 2
        assert err.startswith("error:") and "0-65535" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,lines", [
        (("--du-addr", "127.0.0.1:0"), ()),
        (("--ru-addr", "127.0.0.1:0"), ()),
        ((), ("du_addr = 127.0.0.1:0",)),
        ((), ("ru_addr = 127.0.0.1:0",)),
    ], ids=["du-flag", "ru-flag", "du-file", "ru-file"])
    def test_one_address_exits_2_before_binding(self, capsys, tmp_path, monkeypatch,
                                                argv, lines):
        # the addresses select socket mode; one alone used to be ignored
        opened = []
        monkeypatch.setattr(fhsplit.emulation, "UdpEndpoint",
                            lambda addr: opened.append(addr))
        scn = tmp_path / "s.cfg"
        scn.write_text("\n".join([*BASE_SCENARIO, *lines]) + "\n")
        code, out, err = run_cli(capsys, "emulate", "--scenario", str(scn), *argv)
        assert (code, out) == (2, "")
        assert err == "error: bad scenario: a socket run needs both du_addr and ru_addr\n"
        assert opened == []

    @pytest.mark.parametrize("name,text,value", [
        ("s.cfg", "du_addr = 5000\nru_addr = 127.0.0.1:0\n", "5000"),
        ("s.cfg", "du_addr = 127.0.0.1:0\nru_addr = true\n", "True"),
        ("s.json", '{"du_addr": 5000, "ru_addr": "127.0.0.1:0"}', "5000"),
    ])
    def test_non_string_address_exits_2_before_binding(self, capsys, tmp_path,
                                                       monkeypatch, name, text, value):
        # a number used to end in an AttributeError traceback and exit 1
        opened = []
        monkeypatch.setattr(fhsplit.emulation, "UdpEndpoint",
                            lambda addr: opened.append(addr))
        scn = tmp_path / name
        if name.endswith(".json"):
            scn.write_text(json.dumps({
                "cell": {"n_sc": 600, "n_layers": 2, "n_ant": 4, "mod_order": 4},
                "profile": {"goodput_bps": 4e6, "duration_subframes": 5},
                **json.loads(text)}))
        else:
            scn.write_text("\n".join(BASE_SCENARIO) + "\n" + text)
        code, out, err = run_cli(capsys, "emulate", "--scenario", str(scn))
        assert (code, out) == (2, "")
        assert err == f"error: bad scenario: address {value} must be a host:port string\n"
        assert opened == []

    def test_mode_flag_is_gone(self, capsys):
        # the addresses select the mode, so there is no --mode to ignore
        with pytest.raises(SystemExit) as exc:
            main(["emulate", "--mode", "sim"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode sim" in capsys.readouterr().err


# A sim-mode scenario that names every entry an emulate flag can write
# except the cell's optional fields and the two addresses, which would
# make it a socket run.
OVERLAY_SCENARIO = (
    "cell.n_sc = 600\ncell.n_layers = 2\ncell.n_ant = 4\ncell.mod_order = 4\n"
    "profile.goodput_bps = 4e6\nprofile.packet_size_bytes = 1000\n"
    "profile.duration_subframes = 40\n"
    "channel.loss_rate = 0.0\nchannel.reorder_rate = 0.0\nchannel.delay_us = 0\n"
    "channel.line_rate_bps = 25e9\n"
    "seed = 2\nmax_datagram = 1400\n"
)
SOCKET_ARGV = ("--du-addr", "127.0.0.1:5000", "--ru-addr", "127.0.0.1:5001")


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
        (SOCKET_ARGV, "du_addr", "127.0.0.1:5000"),
        (SOCKET_ARGV, "ru_addr", "127.0.0.1:5001"),
        (("--seed", "5"), "seed", 5),
        (SOCKET_ARGV, "mode", "socket"),
        (("--line-rate-gbps", "2.5"), "channel.line_rate_bps", 2_500_000_000),
    ])
    def test_flag_reaches_the_run(self, capsys, tmp_path, run_args, argv, entry, value):
        scn = tmp_path / "s.cfg"
        scn.write_text(OVERLAY_SCENARIO)
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn), *argv)
        assert code == 1 and "stopped before the run" in err
        [call] = run_args
        name, *attrs = entry.split(".")
        assert functools.reduce(getattr, attrs, call[name]) == value

    @pytest.mark.parametrize("section,argv", [
        ("cell", ()), ("cell", ("--preset", "lte10")),
        ("profile", ()), ("profile", ("--subframes", "2")),
        ("channel", ()), ("channel", ("--loss", "0.1")),
    ], ids=["cell", "cell-preset", "profile", "profile-subframes", "channel",
            "channel-loss"])
    def test_section_that_is_not_a_mapping_is_named(self, capsys, tmp_path, section,
                                                    argv):
        lines = [line for line in OVERLAY_SCENARIO.splitlines()
                 if not line.startswith(f"{section}.")]
        scn = tmp_path / "s.cfg"
        scn.write_text("\n".join(lines + [f"{section} = 5"]) + "\n")
        code, _, err = run_cli(capsys, "emulate", "--scenario", str(scn), *argv)
        assert code == 2
        assert err == f"error: bad scenario: section '{section}' must be a mapping, got int\n"

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
                               *SOCKET_ARGV, "--loss", "0.1")
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


class TestReadme:
    def test_console_transcript_is_what_the_commands_print(self, capsys, tmp_path,
                                                            monkeypatch):
        block = README.read_text().split("```console\n", 1)[1].split("```", 1)[0]
        runs = re.split(r"^\$ fhsplit ", block, flags=re.M)[1:]
        assert len(runs) == 3
        monkeypatch.chdir(tmp_path)  # emulate writes its --out directory here
        for run in runs:
            command, *expected = run.strip().splitlines()
            code, out, err = run_cli(capsys, *shlex.split(command))
            assert (code, err) == (0, "")
            assert out.splitlines() == expected, command
