#!/usr/bin/env python3
"""Sweep offered goodput and record measured fronthaul consumption.

Runs the in-process emulation at a ladder of offered rates from lightly
loaded to past saturation and writes one CSV row per point. The downlink
fronthaul curve should follow the offered load (plus header and control
overhead) until the scheduler saturates, then flatten; the uplink curve
is the downlink one scaled by the soft-bit width.

Usage:
    python scripts/goodput_sweep.py --preset lte10 --subframes 1000
    python scripts/goodput_sweep.py --points 16 --loss 0.01
"""

import argparse
import csv
import sys
from pathlib import Path

from fhsplit import ChannelSpec, TrafficProfile, preset, run_emulation
from fhsplit.emulation import subframe_capacity_bits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--preset", default="lte10")
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--subframes", type=int, default=1000)
    parser.add_argument(
        "--max-mbps",
        type=float,
        default=None,
        help="sweep ceiling in Mbit/s (default: 1.3x cell capacity)",
    )
    parser.add_argument("--loss", type=float, default=0.0)
    parser.add_argument("--reorder", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="goodput_sweep.csv")
    args = parser.parse_args(argv)

    cfg = preset(args.preset)
    capacity_mbps = subframe_capacity_bits(cfg) / 1000
    ceiling = args.max_mbps if args.max_mbps is not None else 1.3 * capacity_mbps
    spec = ChannelSpec(loss_rate=args.loss, reorder_rate=args.reorder)

    rows = []
    print(f"cell capacity {capacity_mbps:.1f} Mbit/s; sweeping up to {ceiling:.1f}")
    for i in range(1, args.points + 1):
        offered_mbps = ceiling * i / args.points
        profile = TrafficProfile(
            goodput_bps=offered_mbps * 1e6, duration_subframes=args.subframes
        )
        report = run_emulation(cfg, profile, spec, seed=args.seed)
        totals = report.totals()
        rows.append(
            {
                "offered_mbps": round(offered_mbps, 3),
                "measured_offered_mbps": round(report.mean_offered_bps / 1e6, 3),
                "dl_mbps": round(report.mean_dl_bps / 1e6, 3),
                "ul_mbps": round(report.mean_ul_bps / 1e6, 3),
                "completes": totals["completes"],
                "timeouts": totals["timeouts"],
                "jumbled": totals["jumbled"],
                "dropped_bits": report.offered_dropped_bits,
            }
        )
        print(
            f"  {offered_mbps:8.2f} Mbit/s offered -> "
            f"dl {rows[-1]['dl_mbps']:8.3f}, ul {rows[-1]['ul_mbps']:8.3f}"
        )

    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
