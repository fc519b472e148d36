"""One sample: a fresh interpreter that sets up and runs one workload.

    python3 perfbench/sample.py WORKLOAD MODE SEED CACHE_DIR SPAWN_CLOCK [TRACE_OUT]

MODE is `plain` (nothing wrapped), `trace` (the tracer wraps every
module) or `profile` (cProfile counts calls; used by the self-test).
SPAWN_CLOCK is `time.monotonic()` read by the parent just before it started
this interpreter; CLOCK_MONOTONIC is system-wide, so set-up time counts the
interpreter's own start.  Prints one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


PROBE_PERIOD_S = 0.25


def probe_s():
    """Wall time of a fixed few-millisecond loop of exact arithmetic, dict
    and tuple work that shares no code with mdsforge."""
    t0 = time.perf_counter()
    x = Fraction(0)
    acc = {}
    for i in range(1, 1000):
        x += Fraction(i % 89 + 1, i % 97 + 1)
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs `probe_s` from a SIGALRM handler every PROBE_PERIOD_S of wall
    time, so the host's speed is sampled all through set-up and run.  The
    probes' own time is subtracted from the phase it fell in."""

    def __init__(self):
        self.phase = "setup"
        self.probes = {"setup": [], "run": []}
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _probe(self, signum, frame):
        self.probes[self.phase].append(probe_s())

    def spent(self, phase):
        return sum(self.probes[phase])

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv):
    name, mode, seed, cache_dir, spawn_clock = argv[:5]
    trace_out = argv[5] if len(argv) > 5 else None
    speed = SpeedProbe()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mdsforge
    if not os.path.abspath(mdsforge.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"mdsforge imported from {mdsforge.__file__}, not from this checkout")
    from mdsforge import cli, d4, fq
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    argv = workload.argv + ["--seed", seed, "--cache-dir", cache_dir, "--threads", "1"]
    args = cli.build_parser().parse_args(argv)

    layers = profiler = None
    if mode == "trace":
        from layers import LayerTrace
        layers = LayerTrace(mdsforge)
    elif mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()

    def span(label):
        return layers.tracer.stage(label) if layers else contextlib.nullcontext()

    with span("setup"):
        fq.build_field(args.q_char, args.ext_degree)
        if workload.expansion:
            d4.f_series_capped(12, 10)
    setup_s = time.monotonic() - float(spawn_clock) - speed.spent("setup")
    speed.phase = "run"

    out = io.StringIO()
    with span("run"), contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        exit_code = cli.main(argv)
        run_s = time.perf_counter() - t0
    speed.stop()
    run_s -= speed.spent("run")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "run_s": run_s, "probes_s": speed.probes,
              "peak_rss_mb": peak_rss_mb, "exit_code": exit_code,
              "report": out.getvalue()}
    if layers:
        result["layers"] = layers.metrics()
        result["ncalls"] = layers.call_counts()
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump({"spans": layers.tracer.spans,
                           "functions": {n: [s.calls, s.total, s.self_time]
                                         for n, s in layers.tracer.stats.items()}}, fh)
    if profiler:
        import pstats
        profiler.disable()
        result["ncalls"] = {"%s:%d:%s" % key: value[1]
                            for key, value in pstats.Stats(profiler).stats.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
