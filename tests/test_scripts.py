"""Smoke tests for the study scripts under scripts/: tiny runs, CSV shape."""

import csv
import importlib.util
import math
from pathlib import Path

import pytest
from test_emulation import COMPLETIONS_BOUND_SD

from fhsplit import TrafficProfile, preset
from fhsplit.emulation import expected_completions

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.mark.parametrize("preset_name", ["lte10", "worst100"])
def test_goodput_sweep(tmp_path, preset_name, capsys):
    out = tmp_path / "sweep.csv"
    code = load("goodput_sweep").main(
        ["--preset", preset_name, "--points", "3", "--subframes", "2", "--seed", "1",
         "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["offered_mbps", "measured_offered_mbps", "dl_mbps", "ul_mbps",
                      "completes", "timeouts", "jumbled", "dropped_bits"]
    assert len(rows) == 3
    assert f"wrote {out}" in capsys.readouterr().out


def test_impairment_study(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = load("impairment_study").main(
        ["--goodput-mbps", "5", "--subframes", "5", "--seeds", "1",
         "--loss", "0", "0.1", "--reorder", "0", "0.3", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["loss", "reorder", "complete_frac", "expected_complete_frac",
                      "timeout_frac", "jumbled_frac", "messages"]
    assert len(rows) == 4
    assert f"wrote {out}" in capsys.readouterr().out


def test_impairment_study_expected_complete_frac(tmp_path):
    out = tmp_path / "study.csv"
    seeds, subframes = 2, 100
    load("impairment_study").main(
        ["--goodput-mbps", "80", "--subframes", str(subframes), "--seeds", str(seeds),
         "--loss", "0.01", "--reorder", "0", "0.1", "--out", str(out)])
    header, rows = read_csv(out)
    lossy, reordered = (dict(zip(header, row)) for row in rows)
    # the closed form holds only without reordering
    assert reordered["expected_complete_frac"] == ""
    moments = expected_completions(
        preset("lte10"), TrafficProfile(80e6, duration_subframes=subframes), 0.01)
    messages = int(lossy["messages"])
    expected = seeds * sum(mean for mean, _ in moments.values()) / messages
    sd = math.sqrt(seeds * sum(variance for _, variance in moments.values())) / messages
    assert float(lossy["expected_complete_frac"]) == round(expected, 4)
    # complete_frac is printed to 4 decimals
    assert abs(float(lossy["complete_frac"]) - expected) <= COMPLETIONS_BOUND_SD * sd + 5e-5
