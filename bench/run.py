"""End-to-end benchmark of `hctree`, run from the root of a source checkout.

    python3 bench/run.py --workload weak_scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One process, one client, closed loop: the workload's fixed list of calls is
run in a seeded order, once per pass, until the time is up. Each call goes
through `hctree.cli.main(argv)` with its output captured, as a user runs the
`hctree` subcommands, or through the public oracle API. Every output is
checked against `reference.py` after its pass, outside the timed region.

With --trace 0 the run reports the end-to-end metrics. On a shared 2-vCPU
virtual machine (Intel Xeon) the same code ran up to twice as slowly for
seconds to minutes at a time, in CPU time as well as in wall time, so raw
timings of runs minutes apart differed by more than any useful bound. Call
times are therefore scaled to a reference host speed: a fixed pure-Python
loop (`calibrate`, no package code) is timed every CAL_EVERY_S, also in the
middle of a call, and each stretch of a call's wall time is multiplied by
CAL_REF_S over the loop's mean time around it (see `HostSpeed`). The
result is the time the call would take on a host where the loop takes
CAL_REF_S, about the speed of that machine when it is not slowed. The raw
wall pass_s is printed beside the result for comparison.

    pass_s        sum over the mix of each call's median scaled time: the
                  time to solution for one pass
    call_p50_ms   median scaled time of a call, over every call of every
                  pass; a call that failed ranks as infinitely slow
    call_p75_ms   75th percentile of the same (a weak_scan run has about
                  45 calls, so p90 would have fewer than ten beyond it)
    setup_s       median over child processes, started at even intervals
                  through the run, of the time from process start to the
                  end of one warm-up call, imports included; not scaled,
                  as starting a process tracks calibrate() only in part
    peak_rss_mb   ru_maxrss of this process
    ok_ratio      calls that returned over calls attempted

With --trace 1 passes alternate between untraced and traced (see
`tracing.py`), and the run reports per-layer counts and self times per pass,
and the tracing overhead. The spans go to bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The package is imported from ./src only; a
checkout without it exits with status 1 and no result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("weak_scan", "closed_form", "finite_ball")
WARM_UP = ["classify", "-k", "3", "-l", "2", "--json"]
SETUP_PROBES = 11
MIN_PASSES = 3
CAL_REF_S = 0.003  # calibrate() on the reference host
CAL_EVERY_S = 0.05  # wall seconds between two calibrations
CAL_WINDOW_S = 0.3  # calibrations this near a stretch of a call scale it


def _mix(a, b, c, d):
    return (a * b + c) / (1.0 + d * d)


def calibrate():
    """Wall seconds of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    x, acc, seen = 0.3, 0.0, {}
    for i in range(10000):
        t = (x, 1.0 - x, 0.5 * x, 1.25)
        acc += _mix(*t) + math.sqrt(t[3] + x)
        x = 3.7 * x * (1.0 - x)
        seen[i & 63] = acc
    return time.perf_counter() - start


class HostSpeed:
    """Scales the wall times of calls to the reference host speed.

    While the timer is armed it interrupts the run every CAL_EVERY_S, also
    inside a long call, and times calibrate(); the calibrations' own time is
    left out of the calls'. Each stretch of a call is scaled by CAL_REF_S
    over the mean calibration within CAL_WINDOW_S of it. The host switches
    between speeds every few hundred ms, so a narrow window follows what a
    short call meets, and its mean smooths the jitter of single runs. While
    the program runs threads of its own the calibration waits for the next
    tick, as it would compete with them. Without the timer (traced passes,
    whose spans must not hold calibrations) it calibrates between calls.
    """

    def __init__(self):
        self.cals = []  # (time, seconds) of each calibration in this pass
        self.pieces = []  # (key, start, end) of each stretch of a call
        self.key = None  # the call running now
        self.since = 0.0  # start of its current stretch
        self.busy = False  # bookkeeping in progress: the timer waits
        self.timer = False  # armed with the timer, or calibrating between calls

    def arm(self, timer):
        self.busy, self.timer = True, timer
        self._calibrate()
        self.busy = False
        if timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def start(self, key):
        self.busy = True
        if not self.timer and time.perf_counter() - self.cals[-1][0] >= CAL_EVERY_S:
            self._calibrate()
        self.key, self.since = key, time.perf_counter()
        self.busy = False

    def stop(self):
        self.busy = True
        self.pieces.append((self.key, self.since, time.perf_counter()))
        self.key = None
        self.busy = False

    def _tick(self, signum, frame):
        if self.busy or threading.active_count() > 1:
            return
        self.busy = True
        if self.key is not None:
            self.pieces.append((self.key, self.since, time.perf_counter()))
        self._calibrate()
        self.since = time.perf_counter()
        self.busy = False

    def _calibrate(self):
        start = time.perf_counter()
        seconds = calibrate()
        self.cals.append(((start + time.perf_counter()) / 2, seconds))

    def collect(self):
        """Calibrate once more; return {key: (scaled, raw seconds)} of every
        call since arm()."""
        self._calibrate()
        times = {}
        for key, t0, t1 in self.pieces:
            near = [s for t, s in self.cals if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
            if len(near) < 2:
                by_distance = sorted(self.cals, key=lambda c: max(t0 - c[0], c[0] - t1))
                near = [s for _, s in by_distance[:2]]
            scaled, raw = times.get(key, (0.0, 0.0))
            times[key] = (scaled + (t1 - t0) * CAL_REF_S / statistics.fmean(near), raw + t1 - t0)
        self.cals, self.pieces = [], []
        return times


def import_package():
    """Import hctree from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "hctree" / "__init__.py").is_file():
        sys.exit(f"error: no src/hctree under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import hctree

    if Path(hctree.__file__).resolve().parent != (src / "hctree").resolve():
        sys.exit(f"error: imported hctree from {hctree.__file__}, not from {src}")
    return hctree


def warm_up():
    from hctree import cli

    with redirect_stdout(io.StringIO()):
        if cli.main(WARM_UP) != 0:
            sys.exit("error: warm-up call failed")


def setup_probe():
    """Child side of setup_s: imports, one warm-up call, then say so."""
    import_package()
    import numpy  # noqa: F401  (the package's only dependency)

    warm_up()
    print("ready", flush=True)


def measure_setup():
    """Seconds from starting a fresh process to the end of its warm-up call."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-probe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        sys.exit("error: setup probe failed")
    return elapsed


def percentile(values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if lo == hi or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


class Runner:
    def __init__(self, name, seed):
        import workloads

        self.workloads = workloads
        self.calls = workloads.WORKLOADS[name]()
        self.seed = seed
        self.rng = random.Random(seed)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}
        self._checked = set()
        self.speed = HostSpeed()

    def run_pass(self, tracer=None):
        """One pass in a seeded order; returns
        {call index: (scaled seconds, raw seconds, failed)}."""
        fmt_ids = self.workloads.FORMAT_FLAGS
        order = self.rng.sample(range(len(self.calls)), len(self.calls))
        plan = []
        for idx in order:
            call = self.calls[idx]
            fmt = call.formats[(idx + self.passes + self.seed) % len(call.formats)]
            argv = [*call.argv, *fmt_ids[fmt]]
            if call.sampler:
                argv += ["--seed", str(self.rng.randrange(2**31))]
            plan.append((idx, fmt, argv))

        results = []
        # spans of a traced pass stay free of calibrations
        self.speed.arm(timer=tracer is None)
        try:
            for idx, fmt, argv in plan:
                results.append((idx, fmt, *self.run_call(idx, argv, tracer)))
        finally:
            self.speed.disarm()
        failed = {idx for idx, _, _, error in results if error is not None}
        times = {idx: (scaled, raw, idx in failed)
                 for idx, (scaled, raw) in self.speed.collect().items()}

        self.passes += 1
        self.attempted += len(results)
        for idx, fmt, output, error in results:
            if error is not None:
                self.failed += 1
                self.failures.setdefault(self.calls[idx].label, error)
            else:
                self.check(idx, fmt, output)
        return times

    def run_call(self, idx, argv, tracer):
        """(output, None), or (None, error) for a call that raised."""
        from hctree import cli

        call = self.calls[idx]
        if tracer is not None:
            tracer.call_id = idx
        out, err = io.StringIO(), io.StringIO()
        self.speed.start(idx)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if call.api is not None:
                    return call.api(), None
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
                return out.getvalue(), None
        except Exception as exc:  # a failed call is counted, and the run goes on
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            self.speed.stop()

    def check(self, idx, fmt, output):
        key = (idx, fmt, repr(output))
        if key in self._checked:
            return
        try:
            self.calls[idx].check(fmt, output)
        except Exception as exc:  # a parse error is a wrong output too
            self.correct = False
            print(f"WRONG {self.calls[idx].label} [{fmt}]: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return
        self._checked.add(key)


def pass_seconds(passes, raw=False):
    """Sum over the mix of each call's median time over the passes."""
    per_call = {}
    for times in passes:
        for idx, (scaled, wall, _) in times.items():
            per_call.setdefault(idx, []).append(wall if raw else scaled)
    return sum(statistics.median(s) for s in per_call.values())


def run_workload(name, seed, seconds, traced):
    import_package()
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "HC_TREE_THREADS": os.environ.get("HC_TREE_THREADS", "unset"),
    }
    print(f"workload={name} seed={seed} seconds={seconds} trace={int(traced)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    runner = Runner(name, seed)
    warm_up()

    # setup probes are spread over the run, so that a slow spell of the
    # host does not catch all of them
    plain, traced_passes, setups = [], [], []
    start = time.perf_counter()
    while True:
        done = len(plain) + len(traced_passes)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            break
        due = len(setups) * seconds / SETUP_PROBES
        if not traced and len(setups) < SETUP_PROBES and elapsed >= due:
            setups.append(measure_setup())
        if traced and done % 2 == 1:
            traced_passes.append(traced_pass(runner))
        else:
            plain.append(runner.run_pass())

    while not traced and len(setups) < SETUP_PROBES:
        setups.append(measure_setup())
    for label, error in runner.failures.items():
        print(f"failed call: {label}: {error}")
    if traced:
        metrics = layer_metrics(name, seed, plain, traced_passes)
    else:
        ranked = [math.inf if failed else scaled
                  for times in plain for scaled, _, failed in times.values()]
        print(f"  raw wall time: pass_s {pass_seconds(plain, raw=True):.6g} s")
        metrics = {
            "pass_s": (pass_seconds(plain), "s", len(plain)),
            "call_p50_ms": (1e3 * percentile(ranked, 0.50), "ms", len(ranked)),
            "call_p75_ms": (1e3 * percentile(ranked, 0.75), "ms", len(ranked)),
            "setup_s": (statistics.median(setups), "s", SETUP_PROBES),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
            "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio",
                         runner.attempted),
        }
        if any(math.isinf(value) for value, _, _ in metrics.values()):
            sys.exit("error: more than a quarter of the calls failed")
    for metric, (value, unit, samples) in metrics.items():
        print(f"  {metric:36s} {value:14.6g} {unit:8s} n={samples}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }))


def traced_pass(runner):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        times = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    return times, tracer


# self-time metric: the prefix of the span names it sums
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "solvers.self_s": "solvers.",
    "extremality.self_s": "extremality.",
    "weakperiodic.solve.self_s": "weakperiodic.solve_weak_periodic",
    "oracle.self_s": "oracle.",
    "oracle.consistency_check.self_s": "oracle.consistency_check",
    "oracle.count_admissible.self_s": "oracle.count_admissible",
    "oracle.partition_function.self_s": "oracle.partition_function",
    "oracle.sample_tree_chain.self_s": "oracle.sample_tree_chain",
}
COUNTS = {
    "core.recursion_map.calls": "count",
    "extremality.verdict.extremal": "count",
    "extremality.verdict.nonextremal": "count",
    "extremality.verdict.undetermined": "count",
    "weakperiodic.map_calls": "count",
    "weakperiodic.fixed_points": "count",
    "oracle.configs_enumerated": "count",
    "oracle.sample_bytes": "bytes",
}
LAYERS = ("cli", "solvers", "extremality", "weakperiodic", "oracle")


def layer_metrics(name, seed, plain, traced_passes):
    """Per-pass counts from the first traced pass (later ones must agree)
    and each self time's best over the traced passes."""
    tracers = [t for _, t in traced_passes]
    per_pass = [t.self_times() for t in tracers]
    all_counts = [t.counts() for t in tracers]
    counts, calls = all_counts[0], tracers[0].span_calls()
    if any(c != counts for c in all_counts[1:]):
        print("warning: counts differ between traced passes", file=sys.stderr)
    n = len(tracers)
    metrics = {
        "cli.calls": (calls["cli.main"], "count", n),
        "weakperiodic.solve.calls": (calls["weakperiodic.solve_weak_periodic"], "count", n),
    }
    for metric, prefix in SELF_TIMES.items():
        value = min(
            sum(s for span, s in times.items() if span.startswith(prefix)) for times in per_pass
        )
        metrics[metric] = (float(value), "s", n)
    for metric, unit in COUNTS.items():
        metrics[metric] = (counts[metric], unit, n)
    map_calls = counts["weakperiodic.map_calls"]
    metrics["weakperiodic.points_per_kmap"] = (
        1e3 * counts["weakperiodic.fixed_points"] / map_calls if map_calls else 0.0,
        "per_1000_calls", n,
    )
    overhead = pass_seconds([t for t, _ in traced_passes]) - pass_seconds(plain)
    metrics["trace.overhead_s"] = (overhead, "s", n)

    fastest = min(per_pass, key=lambda times: sum(times.values()))
    for layer in LAYERS:
        share = sum(s for span, s in fastest.items() if span.startswith(layer + "."))
        print(f"  self-time share {layer:14s} {100 * share / sum(fastest.values()):6.1f}%")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for pass_no, tracer in enumerate(tracers):
            for span_id, span, start, end, parent, call in tracer.spans:
                fh.write(json.dumps([pass_no, span_id, span, start, end, parent, call]) + "\n")
    print(f"spans written to {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    return metrics


def run_all(seed, seconds):
    """Each workload in its own process; prints every end-to-end metric."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}\n")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
