"""Benchmark of the ultrametric certifier.

    python3 bench/run.py --workload arith --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Workloads: arith, geometry, analysis,
cli (see README.md).  With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  Raw results and trace files go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("arith", "geometry", "analysis", "cli")
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
IMPORT_SAMPLES = 3
DEADLINE_S = 170  # the whole run, set-up included, must end before 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # one BLAS thread: the workloads are closed loops with a single caller
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its deadline")
    return left


def run_worker(args, deadline: float, setup_only: bool, trace_file: str | None):
    """Start one worker; return (seconds from start to READY, RESULT dict or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", OUT]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    try:
        setup = None
        result = None
        for line in proc.stdout:
            if line == "READY\n":
                setup = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    remaining(deadline)
    if code != 0 or setup is None or (result is None and not setup_only):
        raise BenchError(f"worker exited with code {code}")
    return setup, result


def import_breakdown(deadline: float) -> dict:
    """cli.interp_s from bare interpreter starts; cli.import_s and
    cli.import_numpy_s as cumulative times from -X importtime."""
    env = child_env()
    interp, imports, numpy = [], [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=remaining(deadline))
        interp.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ultrametric.cli"],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=remaining(deadline))
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        imports.append(cumulative["ultrametric.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.import_numpy_s": statistics.median(numpy),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # end like an interrupt, so that the worker is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "ultrametric", "__init__.py")):
        print(f"no ultrametric package under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # a first import compiles the package, which users pay only once
        subprocess.run([sys.executable, "-c", "import ultrametric.cli"], env=child_env(),
                       check=True, timeout=remaining(deadline))
        setups = [run_worker(args, deadline, True, None)[0] for _ in range(SETUP_SAMPLES - 1)]
        trace_file = os.path.join(OUT, f"trace-{tag}.json") if args.trace else None
        setup, result = run_worker(args, deadline, False, trace_file)
        setups.append(setup)
        if args.trace:
            metrics = {**result["layers"], **import_breakdown(deadline)}
            units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        else:
            metrics = {name: result[name] for name in END_TO_END if name in result}
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    report = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "setup_samples_s": setups, **result, "report": report}
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    print(f"workload={args.workload} seed={args.seed} rounds={result['rounds']} "
          f"ops_per_round={result['ops_per_round']} samples={result['samples']} "
          f"timings={result['timings']} host_slowdown={result.get('host_slowdown', 'n/a')} "
          f"attempted={result['attempted']} failed={result['failed']} wrong={result['wrong']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
