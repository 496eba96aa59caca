"""fhsplit command-line interface.

Subcommands:
    plan     per-split fronthaul capacity table for one cell
    compare  split-7 efficiency ratios across modulation orders
    budget   latency budget: max DU-RU distance, propagation delay
    header   encode / decode transport headers (hex on stdout/argv)
    emulate  run a DU-RU emulation, write report.csv and summary.json

Exit codes: 0 success, 1 runtime failure (I/O, sockets), 2 invalid
arguments or config.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .cell import MODULATION_NAMES, CellConfig, Direction, LinkBudget, PRESETS, preset
from .configio import (SCENARIO_KEYS, Scenario, check_scenario_sections, load_cell_config,
                       load_config_file, scenario_from_dict)
from .emulation import TrafficProfile, run_emulation, run_socket_emulation
from .rates import OPTION8_NOTE, capacity_table, efficiency_ratio, max_fronthaul_distance_km
from .wire import HeaderError, SplitHeader, decode_header, encode_header

# The CLI's own defaults: a run needs a cell and a goodput, which no
# dataclass defaults. Every other emulate default is the dataclasses'.
DEFAULT_PRESET = "lte10"
DEFAULT_GOODPUT_MBPS = 10.0


class CliError(Exception):
    """Invalid usage or config; maps to exit code 2."""


def mbps(text: str) -> float:
    """Argparse type for a rate given in Mbit/s; returns it in bit/s."""
    return float(text) * 1e6


def gbps(text: str) -> Fraction:
    """Argparse type for a rate given in Gbit/s; returns it in bit/s, exact."""
    return Fraction(text) * 10**9


def _tenths(value: Union[int, Fraction], fmt: str, too_large: str) -> Union[str, float]:
    """An exact rate or ratio rounded half-up to one decimal: the rule for every printed one.

    plain and csv get the digits, exact at any size; json gets the number,
    and one beyond the float range raises CliError(too_large).
    """
    tenths = math.floor(value * 10 + Fraction(1, 2))
    if fmt != "json":
        return f"{tenths // 10}.{tenths % 10}"
    try:
        return tenths / 10
    except OverflowError:
        raise CliError(too_large) from None


def _cell_from_args(args: argparse.Namespace) -> CellConfig:
    if args.config:
        try:
            return load_cell_config(args.config)
        except FileNotFoundError as exc:
            raise CliError(f"config file not found: {exc.filename}") from exc
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            raise CliError(f"bad cell config: {exc}") from exc
    try:
        return preset(DEFAULT_PRESET if args.preset is None else args.preset)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _add_cell_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--preset",
        help=f"named cell profile ({', '.join(sorted(PRESETS))}); default {DEFAULT_PRESET}",
    )
    group.add_argument("--config", help="cell config file (key=value or JSON)")


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = _cell_from_args(args)
    too_large = (f"the rates of cell config {args.config} are too large for "
                 "JSON numbers; --format csv prints them exactly")
    rows = [(split, direction, _tenths(Fraction(bps, 10**6), args.format, too_large))
            for split, direction, bps in capacity_table(cfg)]
    if args.format == "csv":
        print("split,direction,rate_mbps")
        for split, direction, mbps in rows:
            print(f"{split},{direction},{mbps}")
    elif args.format == "json":
        payload = {"rows": [{"split": split, "direction": direction, "rate_mbps": mbps}
                            for split, direction, mbps in rows],
                   "notes": [OPTION8_NOTE]}
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    else:
        label = f"{cfg.bw_mhz:g} MHz, " if cfg.bw_mhz else ""
        print(
            f"cell: {label}{cfg.n_sc} subcarriers, {cfg.n_layers} layers, "
            f"{cfg.n_ant} ports, {cfg.modulation_name}"
        )
        print(f"{'split':<8}{'direction':<12}{'rate':>14}")
        for split, direction, mbps in rows:
            print(f"{split:<8}{direction:<12}{mbps + ' Mbit/s':>14}")
        print(f"note: {OPTION8_NOTE}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    mods = sorted(MODULATION_NAMES)
    for i, w in enumerate(args.soft_bit_width):
        if w in args.soft_bit_width[:i]:
            raise CliError(f"--soft-bit-width {w} is given twice")
    grid = [(Direction.DL, m, None) for m in mods]
    grid += [(Direction.UL, m, w) for w in args.soft_bit_width for m in mods]
    try:
        exact = [efficiency_ratio(d, m, w, iq_component_bits=args.iq_bits) for d, m, w in grid]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    too_large = f"--iq-bits {args.iq_bits} makes the ratios too large for a float"
    rows = [(d.value, m, MODULATION_NAMES[m], w, _tenths(r, args.format, too_large))
            for (d, m, w), r in zip(grid, exact)]
    if args.format == "json":
        payload = [
            {
                "direction": d,
                "mod_order": m,
                "mod_scheme": name,
                "soft_bit_width": w,
                "ratio": r,
            }
            for d, m, name, w, r in rows
        ]
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    elif args.format == "csv":
        print("direction,mod_order,mod_scheme,soft_bit_width,ratio")
        for d, m, name, w, r in rows:
            print(f"{d},{m},{name},{'' if w is None else w},{r}")
    else:
        print(f"{'direction':<11}{'modulation':<12}{'soft bits':<11}{'ratio':>6}")
        for d, m, name, w, r in rows:
            print(f"{d:<11}{name:<12}{'-' if w is None else w:<11}{r:>6}")
        print("ratio = I/Q split bandwidth over bit split bandwidth (>1 favors bits)")
    return 0


def cmd_budget(args: argparse.Namespace) -> int:
    try:
        budget = LinkBudget(
            harq_rtt_ms=args.harq_rtt_ms,
            dl_deadline_ms=args.dl_deadline_ms,
            ul_deadline_ms=args.ul_deadline_ms,
            propagation_us_per_km=args.us_per_km,
        )
        results = {
            "dl": max_fronthaul_distance_km(budget, Direction.DL, args.dl_processing_ms),
            "ul": max_fronthaul_distance_km(budget, Direction.UL, args.ul_processing_ms),
        }
        if args.distance_km is not None:
            delay_us = budget.propagation_delay_us(args.distance_km)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "harq_rtt_ms": budget.harq_rtt_ms,
        "dl": {
            "deadline_ms": budget.dl_deadline_ms,
            "processing_ms": args.dl_processing_ms,
            "max_distance_km": results["dl"],
        },
        "ul": {
            "deadline_ms": budget.ul_deadline_ms,
            "processing_ms": args.ul_processing_ms,
            "max_distance_km": results["ul"],
        },
    }
    if args.distance_km is not None:
        payload["propagation_delay_us"] = delay_us
        payload["distance_km"] = args.distance_km
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    else:
        print(f"HARQ round trip: {budget.harq_rtt_ms:g} ms")
        for direction in ("dl", "ul"):
            d = payload[direction]
            print(
                f"{direction}: deadline {d['deadline_ms']:g} ms, processing "
                f"{d['processing_ms']:g} ms -> max distance {d['max_distance_km']:g} km"
            )
        if args.distance_km is not None:
            print(
                f"{args.distance_km:g} km one-way propagation: "
                f"{payload['propagation_delay_us']:g} us"
            )
    return 0


def cmd_header(args: argparse.Namespace) -> int:
    if args.header_cmd == "encode":
        try:
            header = SplitHeader(
                timestamp=args.timestamp,
                num_blocks=args.num_blocks,
                content_type=args.content_type,
                size=args.size,
                sender_clock=args.sender_clock,
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        print(encode_header(header).hex())
        return 0
    try:
        raw = bytes.fromhex(args.hex)
    except ValueError as exc:
        raise CliError(f"not valid hex: {exc}") from exc
    try:
        header = decode_header(raw)
    except HeaderError as exc:
        raise CliError(f"undecodable header: {exc}") from exc
    payload = header._asdict()
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Build the emulate run: the scenario file's mapping with each given flag written over it.

    A flag's dest names the entry it writes ("channel.loss_rate"); --preset
    and --config write the cell. Without a file the run starts from
    DEFAULT_GOODPUT_MBPS and DEFAULT_PRESET; every other default is the
    dataclasses', which scenario_from_dict applies.
    """
    prefix = "bad scenario: " if args.scenario else ""
    data: Dict[str, Any] = {"profile": {"goodput_bps": DEFAULT_GOODPUT_MBPS * 1e6}}
    if args.scenario:
        try:
            data = load_config_file(args.scenario)
            check_scenario_sections(data)
        except FileNotFoundError as exc:
            raise CliError(f"scenario file not found: {exc.filename}") from exc
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            raise CliError(f"{prefix}{exc}") from exc
    if args.config or args.preset is not None or not args.scenario:
        data["cell"] = asdict(_cell_from_args(args))
    try:
        for dest, value in vars(args).items():
            section, _, key = dest.rpartition(".")
            if value is not None and (section or key) in SCENARIO_KEYS:
                (data.setdefault(section, {}) if section else data)[key] = value
        return scenario_from_dict(data)
    except (ValueError, TypeError) as exc:
        raise CliError(f"{prefix}{exc}") from exc


def _report_write_failed(exc: OSError) -> int:
    print(f"error: cannot write reports: {exc}", file=sys.stderr)
    return 1


def _missing_dirs(path: Path) -> List[Path]:
    """path and those of its parents that do not exist, deepest first."""
    missing = []
    while not path.exists() and path != path.parent:
        missing.append(path)
        path = path.parent
    return missing


def _remove_dirs(dirs: List[Path]) -> None:
    for directory in dirs:
        with contextlib.suppress(OSError):
            directory.rmdir()


def cmd_emulate(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    made: List[Path] = []
    if args.out:
        # made before the run, so that an unusable path fails before any work
        try:
            made = _missing_dirs(Path(args.out))
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _remove_dirs(made)
            return _report_write_failed(exc)
    report = None
    try:
        if scenario.du_addr is not None:
            report = run_socket_emulation(
                scenario.cell,
                scenario.profile,
                scenario.du_addr,
                scenario.ru_addr,
                scenario.seed,
                max_datagram=scenario.max_datagram,
            )
        else:
            report = run_emulation(
                scenario.cell,
                scenario.profile,
                scenario.channel,
                scenario.seed,
                max_datagram=scenario.max_datagram,
            )
    except OSError as exc:
        print(f"emulation failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise CliError(f"cannot emulate: {exc}") from exc
    finally:
        # a run that made no report leaves no directory this call made
        if report is None:
            _remove_dirs(made)
    summary = report.summary()
    if args.out:
        try:
            csv_path, json_path = report.save(args.out)
        except OSError as exc:
            return _report_write_failed(exc)
        print(f"wrote {csv_path} and {json_path}")
    print(
        f"offered {summary['mean_offered_bps'] / 1e6:.3f} Mbit/s over "
        f"{report.duration_subframes} subframes (seed {report.seed})"
    )
    print(
        f"fronthaul dl {summary['mean_dl_bps'] / 1e6:.3f} Mbit/s, "
        f"ul {summary['mean_ul_bps'] / 1e6:.3f} Mbit/s"
    )
    events = summary["events"]
    print(
        f"messages: {events['completes']} complete, {events['timeouts']} timeout "
        f"({100 * events['timeout_fraction']:.2f}%), {events['jumbled']} jumbled"
    )
    if report.incomplete:
        print("warning: run ended early; results are partial", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhsplit",
        description="Fronthaul functional-split planner and DU-RU emulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="per-split capacity table for one cell")
    _add_cell_source(p_plan)
    p_plan.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p_plan.set_defaults(func=cmd_plan)

    p_cmp = sub.add_parser("compare", help="I/Q-vs-bits efficiency ratios")
    p_cmp.add_argument(
        "--soft-bit-width",
        type=int,
        nargs="+",
        default=[8, 4],
        help="uplink soft-bit widths to tabulate (default: 8 4)",
    )
    p_cmp.add_argument("--iq-bits", type=int, default=16,
                       help="bits per I/Q component (default: 16)")
    p_cmp.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p_cmp.set_defaults(func=cmd_compare)

    p_budget = sub.add_parser("budget", help="latency budget and max distance")
    p_budget.add_argument("--harq-rtt-ms", type=float, default=3.0)
    p_budget.add_argument("--dl-deadline-ms", type=float, default=1.0)
    p_budget.add_argument("--ul-deadline-ms", type=float, default=2.0)
    p_budget.add_argument("--dl-processing-ms", type=float, default=1.0,
                          help="actual downlink processing time")
    p_budget.add_argument("--ul-processing-ms", type=float, default=1.5,
                          help="actual uplink processing time")
    p_budget.add_argument("--us-per-km", type=float, default=5.0)
    p_budget.add_argument("--distance-km", type=float, default=None,
                          help="also report one-way delay at this distance")
    p_budget.add_argument("--format", choices=("plain", "json"), default="plain")
    p_budget.set_defaults(func=cmd_budget)

    p_header = sub.add_parser("header", help="transport header codec")
    header_sub = p_header.add_subparsers(dest="header_cmd", required=True)
    p_enc = header_sub.add_parser("encode", help="fields -> 22-byte hex")
    p_enc.add_argument("--timestamp", type=int, required=True)
    p_enc.add_argument("--num-blocks", type=int, required=True)
    p_enc.add_argument("--content-type", type=int, required=True)
    p_enc.add_argument("--size", type=int, required=True)
    p_enc.add_argument("--sender-clock", type=int, default=0)
    p_enc.set_defaults(func=cmd_header)
    p_dec = header_sub.add_parser("decode", help="hex -> fields")
    p_dec.add_argument("hex", help="header bytes as hex, at least 22 bytes")
    p_dec.add_argument("--format", choices=("plain", "json"), default="plain")
    p_dec.set_defaults(func=cmd_header)

    p_emu = sub.add_parser(
        "emulate", help="run a DU-RU emulation",
        description="Run a DU-RU emulation. Each flag that is given overrides "
                    "the scenario file's entry it names.",
    )
    # Each flag but --scenario, the cell source and --out has as its dest
    # the scenario entry it writes (_scenario_from_args).
    p_emu.add_argument("--scenario", help="scenario file (key=value or JSON)")
    _add_cell_source(p_emu)
    p_emu.add_argument("--goodput-mbps", dest="profile.goodput_bps", type=mbps,
                       metavar="MBPS",
                       help=f"offered CBR goodput (default: {DEFAULT_GOODPUT_MBPS:g})")
    p_emu.add_argument("--packet-size", dest="profile.packet_size_bytes", type=int,
                       help=f"default: {TrafficProfile.packet_size_bytes}")
    p_emu.add_argument("--subframes", dest="profile.duration_subframes", type=int,
                       help=f"1 ms subframes (default: {TrafficProfile.duration_subframes})")
    p_emu.add_argument("--loss", dest="channel.loss_rate", type=float,
                       help=f"default: {Scenario.channel.loss_rate:g}")
    p_emu.add_argument("--reorder", dest="channel.reorder_rate", type=float,
                       help=f"default: {Scenario.channel.reorder_rate:g}")
    p_emu.add_argument("--delay-us", dest="channel.delay_us", type=float,
                       help=f"default: {Scenario.channel.delay_us:g}")
    p_emu.add_argument("--line-rate-gbps", dest="channel.line_rate_bps", type=gbps,
                       metavar="GBPS",
                       help=f"link line rate in Gbit/s, a whole number of bit/s "
                            f"(default: {Scenario.channel.line_rate_bps / 1e9:g})")
    p_emu.add_argument("--seed", type=int, help=f"default: {Scenario.seed}")
    p_emu.add_argument("--max-datagram", type=int, help=f"default: {Scenario.max_datagram}")
    p_emu.add_argument("--du-addr", help="DU bind address, host:port; with --ru-addr, "
                       "the run uses UDP sockets")
    p_emu.add_argument("--ru-addr", help="RU bind address, host:port")
    p_emu.add_argument("--out", help="directory for report.csv and summary.json")
    p_emu.set_defaults(func=cmd_emulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
