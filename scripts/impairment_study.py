#!/usr/bin/env python3
"""Outcome statistics over a grid of channel impairments.

For every (loss, reorder) point the emulation runs once per seed; the CSV
records the mean fraction of subframe messages that completed, timed out
or were jumbled. At the points without reordering it also records
expected_complete_frac, the closed form of the completed fraction under
independent loss (fhsplit.emulation.expected_completions). Useful for
picking reassembly timeouts and for sanity checks: completions fall
monotonically with loss and follow the closed form, while reordering,
which holds a datagram back by one subframe, costs no message: the
receiver keeps wire.WINDOW subframes open, so the held-back datagram
still lands in its own message before the timeout. A message that lost
a datagram times out; jumbles are left for reordering that outlasts the
window.

Usage:
    python scripts/impairment_study.py --seeds 5 --subframes 500
"""

import argparse
import csv
import sys
from pathlib import Path

from fhsplit import ChannelSpec, TrafficProfile, preset, run_emulation
from fhsplit.emulation import expected_completions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--preset", default="lte10")
    parser.add_argument("--goodput-mbps", type=float, default=30.0)
    parser.add_argument("--subframes", type=int, default=500)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument(
        "--loss", type=float, nargs="+", default=[0.0, 0.001, 0.01, 0.05, 0.2]
    )
    parser.add_argument(
        "--reorder", type=float, nargs="+", default=[0.0, 0.01, 0.1, 0.3]
    )
    parser.add_argument("--out", default="impairment_study.csv")
    args = parser.parse_args(argv)

    cfg = preset(args.preset)
    profile = TrafficProfile(
        goodput_bps=args.goodput_mbps * 1e6, duration_subframes=args.subframes
    )

    rows = []
    for loss in args.loss:
        for reorder in args.reorder:
            spec = ChannelSpec(loss_rate=loss, reorder_rate=reorder)
            acc = {"completes": 0, "timeouts": 0, "jumbled": 0}
            for seed in range(args.seeds):
                totals = run_emulation(cfg, profile, spec, seed=seed).totals()
                for key in acc:
                    acc[key] += totals[key]
            messages = sum(acc.values())
            expected = ""
            if reorder == 0:
                means = [mean for mean, _ in expected_completions(cfg, profile, loss).values()]
                expected = round(args.seeds * sum(means) / messages, 4)
            rows.append(
                {
                    "loss": loss,
                    "reorder": reorder,
                    "complete_frac": round(acc["completes"] / messages, 4),
                    "expected_complete_frac": expected,
                    "timeout_frac": round(acc["timeouts"] / messages, 4),
                    "jumbled_frac": round(acc["jumbled"] / messages, 4),
                    "messages": messages,
                }
            )
            print(
                f"loss={loss:<6g} reorder={reorder:<6g} "
                f"complete={rows[-1]['complete_frac']:.4f} "
                f"timeout={rows[-1]['timeout_frac']:.4f} "
                f"jumbled={rows[-1]['jumbled_frac']:.4f}"
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
