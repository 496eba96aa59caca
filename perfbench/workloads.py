"""The benchmark's workloads and the set-up that turns one into inputs.

Every workload is a closed loop of back-to-back run_emulation calls, one
call at a time, in virtual time; the offered constant-bit-rate load lives
inside the emulator. A call emulates `subframes_per_call` subframes, sized
so that one call takes a few hundred milliseconds on the baseline and a
run of a few seconds holds dozens of calls. Every call of a run uses the
run's seed, so every call must produce the same report.

`build` is what the set-up time covers: importing fhsplit (and numpy with
it) and building the cell, the traffic profile and the channel. The
set-up probe runs it in fresh interpreters, the benchmark in its own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    preset: str
    goodput_bps: float
    packet_size_bytes: int
    subframes_per_call: int
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_us: float = 0.0
    max_datagram: int = 1472
    # A clean channel with the line rate to carry the load must complete
    # every message; only workloads that meet that premise check it.
    expect_all_complete: bool = False


WORKLOADS = {
    # 3 M 5-bit LLR codes per subframe: the only workload on the
    # non-byte pack_codes path; payload synthesis dominates. Two
    # subframes per call are the fewest that show the chunk-clock defect.
    "worst100-3g": Workload("worst100", 3e9, 1400, 2),
    # About 648 datagrams per subframe at 256 B: the per-datagram path
    # (chunk, encode, channel, decode, reassembly, meter) dominates.
    "lte20-dg256": Workload(
        "lte20", 200e6, 1400, 10, max_datagram=256, expect_all_complete=True
    ),
    # About 3.2 short messages per subframe over an impaired link: fixed
    # per-message and per-subframe costs dominate, and the jumbled,
    # stale and timeout reassembly paths run.
    "lte10-light-impaired": Workload(
        "lte10", 2e6, 200, 1000, loss_rate=0.01, reorder_rate=0.05, delay_us=50.0
    ),
}


def build(name: str):
    """Import fhsplit and build one workload's inputs.

    Returns (fhsplit module, cell, profile, channel, run_emulation keyword
    arguments).
    """
    import fhsplit

    w = WORKLOADS[name]
    cell = fhsplit.preset(w.preset)
    profile = fhsplit.TrafficProfile(
        w.goodput_bps, w.packet_size_bytes, w.subframes_per_call
    )
    channel = fhsplit.ChannelSpec(w.loss_rate, w.reorder_rate, w.delay_us)
    return fhsplit, cell, profile, channel, {"max_datagram": w.max_datagram}
