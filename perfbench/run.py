#!/usr/bin/env python3
"""Benchmark of the toricshrink pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness N [--workload NAME] [--seconds S]

Run from the repository root. Each workload is one closed loop: a single
caller runs ops back to back, whole rounds at a time, until S seconds of
ops have run. Every op is timed between two runs of a fixed reference
kernel (see refclock.py) and its time is reported drift-corrected; raw
wall seconds are printed on the line before the result. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. ``--steadiness N`` runs each workload
N times with seeds 1..N and prints the spread of every metric, corrected
and raw. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# one BLAS thread in this process and in every process it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from refclock import DriftClock  # noqa: E402

SETUP_LAUNCHES = 5
ACCURACY_CAP = 15.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="run each workload N times and print metric spreads")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.steadiness is None and args.workload is None:
        p.error("--workload is required")
    return args


def _workdir(tag):
    path = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    return path


class SetupLaunches:
    """Fresh launches that stop once the workload's set-up is done.

    The launches are spread evenly over the timed phase rather than run
    back to back: launch times drift over seconds, and samples taken in
    one burst all land in the same phase of that drift.
    """

    def __init__(self, name, seed, seconds):
        self.cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
                    "--workload", name, "--seed", str(seed)]
        self.seconds = seconds
        self.raw = []
        self.corrected = []
        self.spent = 0.0

    def due(self, elapsed):
        """Launches still owed at ``elapsed`` seconds of op time."""
        owed = min(SETUP_LAUNCHES, 1 + int(elapsed * SETUP_LAUNCHES / self.seconds))
        return max(0, owed - len(self.raw))

    def launch(self, clock):
        t0 = time.perf_counter()
        (code, output, _), raw, corrected = clock.time(
            lambda: workloads.run_process(self.cmd, ROOT))
        if code != 0:
            raise RuntimeError(f"set-up launch failed ({code}): {output[-2000:]}")
        self.raw.append(raw)
        self.corrected.append(corrected)
        self.spent += time.perf_counter() - t0

    def medians(self):
        return statistics.median(self.corrected), statistics.median(self.raw)


class Tally:
    """Op counts, times and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raw = []
        self.corrected = []
        self.all_corrected = 0.0
        self.all_raw = 0.0
        self.rss_kib = 0
        self.bad_checks = []
        self.accuracy = ACCURACY_CAP

    def add(self, op, out, raw, corrected):
        self.attempted += 1
        if isinstance(out, _Error):
            self.fail(op, out.text)
            return
        self.all_raw += raw
        self.all_corrected += corrected
        if isinstance(out, workloads.CliResult):
            self.rss_kib = max(self.rss_kib, out.rss_kib)
        try:
            checks = op.check(out)
        except workloads.OpFailed as err:
            self.fail(op, str(err))
            return
        self.raw.append(raw)
        self.corrected.append(corrected)
        for c in checks:
            if not c.ok:
                self.bad_checks.append(f"{op.name}: {c.what} error {c.error:.3e} "
                                       f"> {c.tol:.0e}")
            if c.kind == "rel":
                digits = ACCURACY_CAP if c.error <= 0 else -math.log10(c.error)
                self.accuracy = min(self.accuracy, digits)

    def fail(self, op, message):
        self.failed += 1
        print(f"failed op: {op.name}: {message}", file=sys.stderr)

    def print_bad_checks(self):
        for line in self.bad_checks:
            print("check failed:", line, file=sys.stderr)


def _run_op(clock, op):
    """Time op.run(): (output, raw s, corrected s); a raised error is the output."""
    try:
        return clock.time(op.run)
    except Exception:  # the loop goes on; the op counts as failed
        return _Error(traceback.format_exc()), 0.0, 0.0


class _Error:
    def __init__(self, text):
        self.text = text


def measure(args):
    wl = workloads.make(args.workload, ROOT)
    workdir = _workdir(args.workload)
    try:
        state = wl.setup(args.seed, workdir)
        wl.prepare(state)
        clock = DriftClock()
        rng = np.random.default_rng([args.seed, 1])
        if args.trace:
            return _traced(wl, state, rng, clock, args.seconds)
        launches = SetupLaunches(args.workload, args.seed, args.seconds)
        tally = Tally()
        start = time.perf_counter()

        def elapsed():
            return time.perf_counter() - start - launches.spent

        while tally.attempted == 0 or elapsed() < args.seconds:
            for op in wl.round(state, rng):
                for _ in range(launches.due(elapsed())):
                    launches.launch(clock)
                tally.add(op, *_run_op(clock, op))
        for _ in range(SETUP_LAUNCHES - len(launches.raw)):
            launches.launch(clock)
        return _report(tally, launches.medians(), clock)
    finally:
        _remove(workdir)


def _remove(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:  # another run is using it
        pass


def _report(tally, setup, clock):
    completed = tally.attempted - tally.failed
    if tally.rss_kib == 0:
        tally.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (completed / tally.all_corrected, "op/s"),
        "op_p50_s": (statistics.median(tally.corrected), "s"),
        "peak_rss_mib": (tally.rss_kib / 1024.0, "MiB"),
        "accuracy_digits": (tally.accuracy, "digits"),
    }
    raw = {
        "setup_s": setup[1],
        "ops_per_s": completed / tally.all_raw,
        "op_p50_s": statistics.median(tally.raw),
        "kernel_p50_s": statistics.median(clock.kernel_times),
        "ops": completed,
    }
    tally.print_bad_checks()
    print("raw: " + json.dumps(raw))
    return {
        "correct": not tally.bad_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced(wl, state, rng, clock, seconds):
    """Alternate untraced and traced rounds; report per-layer totals per round."""
    from tracer import METRICS, Tracer

    tracer = Tracer()
    tally = Tally()
    layer = dict.fromkeys(METRICS, 0.0)
    overheads = []
    cli = isinstance(wl, workloads.CliCalls)
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        spent = []
        for traced in (False, True):
            if traced and cli:
                wl.traced = True
            elif traced:
                tracer.install()
            total = 0.0
            try:
                for op in wl.round(state, rng):
                    out, raw, corrected = _run_op(clock, op)
                    total += corrected
                    found = {}
                    if traced:  # spans of an op that raised are dropped
                        found = (out.trace if isinstance(out, workloads.CliResult)
                                 else tracer.take())
                    if not isinstance(out, _Error):
                        scale = corrected / raw
                        for key, value in found.items():
                            if key in layer:
                                layer[key] += value * scale if key.endswith("_s") \
                                    else value
                    tally.add(op, out, raw, corrected)
            finally:
                tracer.uninstall()
                if cli:
                    wl.traced = False
            spent.append(total)
        overheads.append(spent[1] - spent[0])
    rounds = len(overheads)
    layer = {k: v / rounds for k, v in layer.items()}
    layer["trace.overhead_s"] = statistics.median(overheads)
    tally.print_bad_checks()

    def unit(name):
        if name.endswith("_s"):
            return "s/round"
        return "bytes/round" if name.endswith("_bytes") else "count/round"

    return {
        "correct": not tally.bad_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": layer[k], "unit": unit(k)} for k in METRICS},
    }


def steadiness(args):
    """Run each workload N times; print IQR / median of each metric."""
    names = [args.workload] if args.workload else list(workloads.NAMES)
    cmd = [sys.executable, os.path.join(HERE, "run.py")]
    for name in names:
        runs = []
        for seed in range(1, args.steadiness + 1):
            code, output, _ = workloads.run_process(
                cmd + ["--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"], ROOT)
            lines = output.strip().splitlines()
            if code != 0:
                raise RuntimeError(f"{name} seed {seed} exited {code}:\n{output}")
            raw = json.loads(next(l for l in lines if l.startswith("raw: "))[5:])
            result = json.loads(lines[-1])
            runs.append((result, raw))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        for metric in runs[0][0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r, _ in runs]
            line = f"  {metric:16s} median {statistics.median(vals):.6g}  " \
                   f"spread {_spread(vals):.3f}"
            if metric in runs[0][1]:
                raws = [raw[metric] for _, raw in runs]
                line += f"  | raw median {statistics.median(raws):.6g}  " \
                        f"spread {_spread(raws):.3f}"
            print(line, flush=True)


def _spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    try:
        import toricshrink
    except ImportError as err:
        print(f"error: cannot import toricshrink from {src}: {err}", file=sys.stderr)
        return 2
    if not os.path.abspath(toricshrink.__file__).startswith(src + os.sep):
        print(f"error: toricshrink was imported from {toricshrink.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.steadiness is not None:
        steadiness(args)
        return 0
    if args.setup_only:
        workdir = _workdir("setup")
        try:
            workloads.make(args.workload, ROOT).setup(args.seed, workdir)
        finally:
            _remove(workdir)
        return 0
    # the reference kernel runs in this process: keep it, the ops and every
    # process started here on one CPU, so the kernel times the CPU the ops
    # ran on (the two vCPUs of a shared host drift apart)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
