"""fhsplit emulator benchmark: host time per emulated subframe, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lte20-dg256 --seed 1 --seconds 30 --trace 0

With --trace 0 the run reports the end-to-end metrics: host wall ms per
emulated 1 ms subframe at the tail (the median is printed beside it),
peak RSS, set-up time and the message completion ratio. With --trace 1
it alternates untraced and traced calls and reports self time per layer
(see spans.py) plus outcome counts. Every call is checked; a failed check makes the exit code 1.
The last line of standard output is one JSON object with the result; a
copy, with the run's environment, goes to perfbench/out/.

Exit codes: 0 all checks passed, 1 a check failed, 2 the checkout holds
no fhsplit sources or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One process on one thread: keep numpy's BLAS pool from starting threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_sample(name: str) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are built."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import workloads; workloads.build(sys.argv[3]); print('ready', flush=True)"
    )
    cmd = [sys.executable, "-E", "-c", code, str(SRC), str(HERE), name]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                          stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return t1 - t0


def report_digest(report, out_dir: Path) -> str:
    """sha256 of the report.csv and summary.json that report.save() writes."""
    csv_path, json_path = report.save(out_dir)
    return hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()


def check_report(summary: dict, workload) -> list:
    """Invariants every simulated report must meet; returns the violations."""
    problems = []
    for d in ("dl", "ul"):
        st = summary[d]
        outcomes = st["completed_messages"] + st["jumbled_messages"] + st["timeout_messages"]
        if st["emitted_messages"] != outcomes:
            problems.append(f"{d}: emitted {st['emitted_messages']} != completed + "
                            f"jumbled + timed out {outcomes}")
        if st["emitted_messages"] < 1:
            problems.append(f"{d}: no message emitted")
    ev = summary["events"]
    for key, field in (("completes", "completed_messages"),
                       ("jumbled", "jumbled_messages"),
                       ("timeouts", "timeout_messages")):
        if ev[key] != summary["dl"][field] + summary["ul"][field]:
            problems.append(f"events.{key} disagrees with the per-direction counts")
    if summary["duration_subframes"] != workload.subframes_per_call:
        problems.append("report covers the wrong number of subframes")
    if workload.expect_all_complete and (ev["jumbled"] or ev["timeouts"]):
        problems.append(f"clean channel gave {ev['jumbled']} jumbled and "
                        f"{ev['timeouts']} timed-out messages")
    return problems


def tail(samples: list):
    """Highest percentile with at least ten samples above it, and that percentile."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


class Run:
    """One benchmark run: the calls, their checks and their samples."""

    def __init__(self, args, fhsplit, cell, profile, channel, kwargs):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.fhsplit = fhsplit
        self.call_args = (cell, profile, channel, args.seed)
        self.kwargs = kwargs
        self.report_dir = OUT / f"{args.workload}-seed{args.seed}-report"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # (digest, summary) of the first call

    def call(self, run_emulation=None):
        """One checked run_emulation call; returns (wall ns, report or None)."""
        fn = run_emulation or self.fhsplit.run_emulation
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            report = fn(*self.call_args, **self.kwargs)
        except Exception:  # a raising call is a failed operation, not a crash
            wall = time.perf_counter_ns() - t0
            self.fail(f"call {self.attempted} raised:\n{traceback.format_exc()}")
            return wall, None
        wall = time.perf_counter_ns() - t0
        summary = report.summary()
        problems = check_report(summary, self.workload)
        digest = report_digest(report, self.report_dir)
        if self.reference is None:
            self.reference = (digest, summary)
        elif digest != self.reference[0]:
            problems.append("report differs from the first call with the same seed")
        if problems:
            self.fail(f"call {self.attempted}: " + "; ".join(problems))
        return wall, report

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    def subframe_ms(self, wall_ns: int) -> float:
        return wall_ns / 1e6 / self.workload.subframes_per_call


def run_untraced(run: Run, seconds: float):
    """Timed calls for `seconds`; returns (ms per subframe per call, set-up seconds)."""
    run.call()  # warm-up: lazy imports, allocator and page faults
    samples, setup = [], []
    # The set-up probes are spread evenly over the run, so that they meet
    # the same host as the calls do; the time they take is added on.
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if (len(setup) < SETUP_SAMPLES
                and deadline - time.perf_counter() <= seconds * (1 - len(setup) / SETUP_SAMPLES)):
            t0 = time.perf_counter()
            setup.append(setup_sample(run.args.workload))
            deadline += time.perf_counter() - t0
            continue
        wall, report = run.call()
        if report is not None:
            samples.append(run.subframe_ms(wall))
    while len(setup) < SETUP_SAMPLES:  # a run too short to spread them
        setup.append(setup_sample(run.args.workload))
    return samples, setup


def run_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    from spans import Tracer, ROOT_SPAN

    tracer = Tracer(run.fhsplit)
    root = tracer.span(ROOT_SPAN, run.fhsplit.emulation.run_emulation)
    run.call()  # untraced warm-up; its digest is the reference
    untraced, traced, reports = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        wall, report = run.call()
        if report is not None:
            untraced.append(run.subframe_ms(wall))
        tracer.begin_call()
        tracer.install()
        try:
            wall, report = run.call(root)
        finally:
            tracer.restore()
        if report is not None:
            traced.append(run.subframe_ms(wall))
            reports.append(report.summary())
    tracer.save(spans_path)
    return {"untraced": untraced, "traced": traced, "reports": reports, "tracer": tracer}


def layer_metrics(run: Run, result: dict) -> dict:
    tracer = result["tracer"]
    c = tracer.counters
    calls = len(result["traced"])
    subframes = calls * run.workload.subframes_per_call
    layer_ns = tracer.layer_self_ns()
    metrics = {name: (ns / 1e6 / subframes, "ms") for name, ns in layer_ns.items()}
    llr_s = (layer_ns["llr.quantize_ms"] + layer_ns["llr.pack_ms"]) / 1e9
    reassembly_s = layer_ns["wire.reassembly_ms"] / 1e9
    reports = result["reports"]

    def per_call(total):
        return total / calls

    def report_total(direction_field=None, event=None):
        if event is not None:
            return per_call(sum(r["events"][event] for r in reports))
        return per_call(sum(r["dl"][direction_field] + r["ul"][direction_field]
                            for r in reports))

    lat = sorted(c.latencies_ns)

    def latency_us(q):
        return lat[min(len(lat) - 1, int(q * len(lat)))] / 1e3 if lat else 0.0

    metrics.update({
        "llr.codes_per_s": (c.codes / llr_s if llr_s else 0.0, "1/s"),
        "wire.reassembly_dgrams_per_s": (c.accepted / reassembly_s if reassembly_s else 0.0,
                                         "1/s"),
        "wire.datagrams": (per_call(c.datagrams), "count"),
        "channel.max_in_flight": (c.max_in_flight, "count"),
        "wire.completes": (report_total(event="completes"), "count"),
        "wire.jumbled": (report_total(event="jumbled"), "count"),
        "wire.timeouts": (report_total(event="timeouts"), "count"),
        "wire.stale_drops": (report_total("stale_drops"), "count"),
        "wire.header_rejects": (per_call(c.header_rejects), "count"),
        "wire.useful_chunk_ratio": (c.useful_chunks / c.accepted if c.accepted else 0.0,
                                    "ratio"),
        "wire.corrupt_completes": (per_call(c.corrupt_completes), "count"),
        "channel.sent": (per_call(c.sent), "count"),
        "channel.dropped": (per_call(c.dropped), "count"),
        "channel.reordered": (per_call(c.reordered), "count"),
        "channel.sim_latency_us_p50": (latency_us(0.50), "us"),
        "channel.sim_latency_us_p99": (latency_us(0.99), "us"),
        "traced_subframe_ms": (tracer.root_ns() / 1e6 / subframes, "ms"),
        "trace_overhead_pct": (
            100.0 * (statistics.median(result["traced"])
                     / statistics.median(result["untraced"]) - 1.0), "%"),
    })
    return metrics


def layer_shares(metrics: dict) -> dict:
    """Share of traced time per layer group named in the notes."""
    total = metrics["traced_subframe_ms"][0]
    groups = {
        "payload_synthesis": ("llr.", "emulation.synth_ms"),
        "per_datagram": ("wire.", "channel.", "emulation.rx_ms", "emulation.meter_ms"),
        "per_message_and_subframe": ("messages.", "emulation.loop_ms",
                                     "emulation.report_ms"),
    }
    shares = {}
    for group, prefixes in groups.items():
        ms = sum(v for k, (v, unit) in metrics.items()
                 if unit == "ms" and k != "traced_subframe_ms" and k.startswith(prefixes))
        shares[group] = ms / total if total else 0.0
    return shares


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fhsplit" / "__init__.py").is_file():
        print(f"error: no fhsplit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    OUT.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(SRC))
    from workloads import build

    built = build(args.workload)
    fhsplit = built[0]
    if SRC not in Path(fhsplit.__file__).resolve().parents:
        print(f"error: imported fhsplit from {fhsplit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run = Run(args, *built)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    info = {"workload": args.workload, **env,
            "subframes_per_call": run.workload.subframes_per_call}

    if args.trace == 0:
        samples, setup = run_untraced(run, args.seconds)
        metrics = {}
        if samples:
            tail_ms, tail_pct = tail(samples)
            info["subframe_ms_tail_percentile"] = tail_pct
            info["samples"] = len(samples)
            info["subframe_ms_samples"] = samples
            info["subframe_ms_median"] = statistics.median(samples)
            metrics["subframe_ms_tail"] = (tail_ms, "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MiB")
        metrics["setup_s"] = (statistics.median(setup), "s")
        info["setup_s_samples"] = setup
    else:
        # One spans file per workload, overwritten, to bound disk use.
        result = run_traced(run, args.seconds, OUT / f"{args.workload}.spans.npz")
        metrics = layer_metrics(run, result) if result["traced"] else {}
        info["traced_calls"] = len(result["traced"])
        info["untraced_calls"] = len(result["untraced"])
        info["missing_hooks"] = result["tracer"].missing
        if metrics:
            info["layer_shares"] = layer_shares(metrics)
            if result["tracer"].counters.corrupt_completes and run.workload.reorder_rate == 0:
                run.fail("a Complete payload differs from what was sent on an in-order channel")

    if run.reference is not None:
        digest, summary = run.reference
        info["digest"] = digest
        info["totals"] = {
            "events": summary["events"],
            **{f"{d}_{k}": summary[d][k] for d in ("dl", "ul")
               for k in ("emitted_messages", "completed_messages", "jumbled_messages",
                         "timeout_messages", "wire_bits")},
        }
        if args.trace == 0:
            emitted = summary["dl"]["emitted_messages"] + summary["ul"]["emitted_messages"]
            completed = (summary["dl"]["completed_messages"]
                         + summary["ul"]["completed_messages"])
            metrics["msg_complete_ratio"] = (completed / emitted, "ratio")

    correct = run.failed == 0 and run.attempted > 0
    result_line = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info["problems"] = run.problems
    (OUT / f"{tag}.json").write_text(json.dumps({**info, "result": result_line}, indent=2)
                                     + "\n")

    for key in ("workload", "python", "numpy", "nproc", "seed", "trace",
                "subframes_per_call", "samples", "subframe_ms_median",
                "subframe_ms_tail_percentile",
                "traced_calls", "missing_hooks", "digest", "totals", "layer_shares"):
        if key in info:
            print(f"{key}: {info[key]}")
    print(f"failed: {run.failed} of {run.attempted} run_emulation calls")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps(result_line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
