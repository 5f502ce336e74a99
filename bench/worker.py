"""One workload process: import, build the batch, warm up, then time whole rounds.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
when set-up is done (the parent times set-up up to that line) and, at
the end, one ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import workloads as W  # noqa: E402
from spans import Tracer, plain_call  # noqa: E402

MIN_ROUNDS = 3  # each operation's best time is taken over at least this many rounds
REFERENCE_EVERY_S = 0.1  # untimed runs of the reference routine, between operations
REFERENCE_QUIET_S = 1.25e-3  # its best time on a quiet host of the reference figures
REPORTED_FAILURES = 5

# per-layer metrics that group several span names
SUBLAYERS = {
    "cantor.hausdorff": ("cantor.hausdorff_content", "cantor.hausdorff_measure"),
    "audit.isometry": ("audit.build_radic_isometry",),
    "harmonic.grid_maximal": ("harmonic.grid_maximal", "harmonic.grid_weak_type"),
    "harmonic.lp_bound": ("harmonic.lp_maximal_bound",),
}
LAYERS = ("padic", "hensel", "linalg", "radic", "cantor", "audit", "harmonic", "characters", "cli")
COUNTS = ("hensel.newton_steps", "cantor.leaves", "audit.pairs_checked", "harmonic.leaves",
          "characters.gram_entries")


def reference() -> None:
    """Fixed work of the kinds the library does (small-int loops, dict
    stores, big-integer modular squaring, Fraction sums), using none of
    the library, so that its time tracks only the speed of the host."""
    s, d = 0, {}
    for i in range(6000):
        s += i * i
        d[i & 255] = s
    x, m = 3**1500, 2**2000 + 7
    for _ in range(60):
        x = x * x % m
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(1, i)


class Tally:
    def __init__(self, size: int, reference_every: float | None = None):
        self.by_op: list[list[float]] = [[] for _ in range(size)]  # seconds, one per round
        self.reference_every = reference_every
        self.references: list[float] = []  # seconds, one per run of reference()
        self._last_reference = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.counts = dict.fromkeys(COUNTS, 0)

    def maybe_reference(self) -> None:
        if self.reference_every is None or perf_counter() - self._last_reference < self.reference_every:
            return
        gc.disable()
        t0 = perf_counter()
        reference()
        self._last_reference = perf_counter()
        gc.enable()
        self.references.append(self._last_reference - t0)

    def fail(self, op, what: str) -> None:
        self.failed += 1
        if self.failed <= REPORTED_FAILURES:
            print(f"FAILED {op.kind}: {what}", file=sys.stderr)


def run_round(batch, call, tally: Tally, count: bool) -> float:
    """One pass over the batch; returns the time spent inside operations."""
    gc.collect()
    busy = 0.0
    for i, op in enumerate(batch):
        tally.maybe_reference()
        tally.attempted += 1
        t0 = perf_counter()
        try:
            out = call(f"op.{op.kind}", op.run, call)
        except Exception:
            busy += perf_counter() - t0
            tally.fail(op, traceback.format_exc(limit=3))
            continue
        dt = perf_counter() - t0
        busy += dt
        tally.latencies.append(dt)
        tally.by_op[i].append(dt)
        try:
            good = bool(op.check(out))
        except Exception:
            good = False
        if not good:
            tally.wrong += 1
            tally.fail(op, "wrong output")
        elif count and op.counts is not None:
            for name, n in op.counts(out).items():
                tally.counts[name] += n
        del out
    return busy


def rounds_for(batch, call, tally, seconds: float, min_rounds: int = 1) -> tuple[int, float]:
    """Whole rounds until `seconds` have passed and at least `min_rounds` ran."""
    start = perf_counter()
    rounds, busy = 0, 0.0
    while True:
        busy += run_round(batch, call, tally, False)
        rounds += 1
        if perf_counter() - start >= seconds and rounds >= min_rounds:
            return rounds, busy


def layer_metrics(tracer: Tracer, tally: Tally, rounds: int) -> dict:
    totals = tracer.layer_totals()
    out = {}

    def busy(names):
        return sum(t for name, (t, _) in totals.items() if name in names) / rounds

    for layer in LAYERS:
        names = [n for n in totals if n.split(".")[0] == layer]
        out[f"{layer}.busy_s"] = busy(names)
        out[f"{layer}.calls"] = sum(totals[n][1] for n in names) // rounds
    for sub, names in SUBLAYERS.items():
        out[f"{sub}.busy_s"] = busy(names)
    for name, n in tally.counts.items():
        out[name] = n // rounds
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--workdir", required=True, help="where the cli workload writes its inputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import ultrametric

    if not os.path.abspath(ultrametric.__file__).startswith(SRC + os.sep):
        print(f"ultrametric imported from {ultrametric.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "cli":
        wl = W.build_cli(args.seed, ROOT, dict(os.environ), args.workdir)
    else:
        wl = {"arith": W.build_arith, "geometry": W.build_geometry,
              "analysis": W.build_analysis}[args.workload](args.seed)
    try:
        warm = Tally(len(wl.warm))
        run_round(wl.warm, plain_call, warm, False)
        if warm.failed:
            print("warm-up failed", file=sys.stderr)
            return 1
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tally = Tally(len(wl.batch), None if args.trace else REFERENCE_EVERY_S)
        result = {}
        if args.trace:
            rounds, untraced = rounds_for(wl.batch, plain_call, tally, args.seconds / 2)
            tracer = Tracer()
            traced = sum(run_round(wl.batch, tracer.call, tally, True) for _ in range(rounds))
            result["layers"] = layer_metrics(tracer, tally, rounds)
            result["layers"]["trace.overhead_s"] = (traced - untraced) / rounds
            if args.trace_file:
                tracer.write(args.trace_file)
            rounds *= 2
        else:
            rounds, _ = rounds_for(wl.batch, plain_call, tally, args.seconds, MIN_ROUNDS)
            # Each operation's latency is its best time over the rounds,
            # divided by how much slower the host ran the reference routine
            # than on a quiet host: other tenants slow stretches of a second
            # to over a minute by up to 1.7x, the best time leaves the short
            # ones alone and the reference's best time measures the long ones.
            best = [min(ts) for ts in tally.by_op if ts]
            slowdown = min(tally.references) / REFERENCE_QUIET_S
            adjusted = [b / slowdown for b in best]
            result["ops_per_s"] = len(adjusted) / sum(adjusted)
            result["op_p50_ms"] = statistics.median(adjusted) * 1e3
            result["op_p90_ms"] = statistics.quantiles(adjusted, n=10)[8] * 1e3
            result["host_slowdown"] = slowdown
            result["references"] = len(tally.references)
            result["unadjusted"] = {
                "ops_per_s": len(best) / sum(best),
                "op_p50_ms": statistics.median(best) * 1e3,
                "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
            }
            result["by_op"] = {"kinds": [op.kind for op in wl.batch], "seconds": tally.by_op}
        result.update(
            rounds=rounds,
            ops_per_round=len(wl.batch),
            samples=len(tally.by_op),
            timings=len(tally.latencies),
            attempted=tally.attempted,
            failed=tally.failed,
            wrong=tally.wrong,
            peak_rss_mb=wl.peak_rss_kb() / 1024,
        )
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
