"""mdsforge benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs a workload (see workloads.py; `all` runs the four in turn) as a
sequence of samples, each a fresh interpreter with an empty cache directory
inside the checkout and `--threads 1`; samples run one at a time, so the
load is one process.  Samples start until the next one would end after S
seconds, and at least three run (with --trace 1: at least one traced and
one untraced).

--trace 0 prints the end-to-end metrics: medians of set-up time, run time,
work per second and peak RSS, with times scaled to a reference host speed
(see REFERENCE_PROBE_S), and the share of checks failed.  --trace 1 runs
traced samples between untraced ones and prints the per-layer metrics,
including the tracing overhead.  Every sample's report is checked against
reference.json; the last line printed for a workload is its JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_report, load_reference, planted_defects  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = os.path.join(HERE, "out")
# The host's speed drifts by up to 2x within seconds to minutes (other
# tenants share its cores), which wall time alone cannot tell from a change
# in the program.  Every sample times a fixed probe loop four times a second
# (sample.SpeedProbe), and times are reported at a fixed reference speed:
# wall seconds x the mean over the probes of REFERENCE_PROBE_S / probe time.
REFERENCE_PROBE_S = 0.004
MIN_SAMPLES = 3
LIMIT_S = 170          # every run must end within 180 s
SAMPLE_PY = os.path.join(HERE, "sample.py")


def run_sample(name, mode, seed, timeout, trace_out=None):
    """Run one sample interpreter; returns (result, None) or (None, error)."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        cmd = [sys.executable, SAMPLE_PY, name, mode, str(seed), cache_dir]
        cmd += [repr(time.monotonic())] + ([trace_out] if trace_out else [])
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} sample exceeded {timeout:.0f} s"
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"{mode} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def environment(seed):
    """The commit when the checkout is a git repository, and in any case a
    digest of the package sources, which identifies the code measured."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    package = os.path.join(ROOT, "src", "mdsforge")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "source_sha256": sources.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "loadavg_start": os.getloadavg()}


def collect(name, seed, seconds, trace):
    """Samples until the next would end after `seconds`."""
    order = ["trace", "plain"] if trace else ["plain"]
    samples = {"plain": [], "trace": []}
    errors = []
    durations = {"plain": [], "trace": []}
    start = time.monotonic()
    i = 0
    while True:
        mode = order[i % len(order)]
        i += 1
        elapsed = time.monotonic() - start
        trace_out = (os.path.join(OUT, f"spans-{name}-seed{seed}-{i}.json")
                     if mode == "trace" else None)
        t0 = time.monotonic()
        result, error = run_sample(name, mode, seed, LIMIT_S - elapsed, trace_out)
        durations[mode].append(time.monotonic() - t0)
        if error:
            errors.append(error)
            print(error, file=sys.stderr)
            if not samples["plain"] and not samples["trace"]:
                break           # the first sample failed: nothing to measure
        else:
            samples[mode].append(result)
        elapsed = time.monotonic() - start
        done = (samples["trace"] and samples["plain"]) if trace else \
            len(samples["plain"]) >= MIN_SAMPLES
        next_mode = order[i % len(order)]
        estimate = max(durations[next_mode] or durations[mode])
        if elapsed + estimate > (seconds if done else LIMIT_S):
            break
    return samples, errors


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running
    # sample, and through the cleanup of its cache directory
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "mdsforge", "__init__.py")):
        print(f"no mdsforge sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    return max(run_workload(name, opts) for name in names)


def run_workload(name, opts):
    """Measure one workload; prints its table and, last, its JSON result."""
    workload = WORKLOADS[name]
    expected = load_reference()[name]
    env = environment(opts.seed)

    samples, errors = collect(name, opts.seed, opts.seconds, opts.trace)
    attempted = failed = len(errors)
    missed = None
    for mode in ("plain", "trace"):
        for s in samples[mode]:
            doc = json.loads(s["report"])
            n, failures = check_report(doc, workload, expected)
            s["work"] = workload.work(doc)
            attempted += n
            failed += len(failures)
            for f in failures:
                print(f"{mode} sample: {f}", file=sys.stderr)
            if missed is None:
                missed = planted_defects(doc, workload, expected)
    if missed is None:
        print("no sample completed", file=sys.stderr)
        return 1
    attempted += 2
    failed += len(missed)
    for m in missed:
        print(f"checker self-test: {m}", file=sys.stderr)

    if opts.trace:
        metrics, count_mismatches = layer_metrics(samples)
        attempted += 1
        failed += bool(count_mismatches)
        for m in count_mismatches:
            print(f"count differs between traced samples: {m}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(samples["plain"])

    env["loadavg_end"] = os.getloadavg()
    env["samples"] = {mode: len(v) for mode, v in samples.items()}
    print(json.dumps({"env": env}))
    print(f"{name}: {' '.join(workload.argv)}  (work unit: {workload.unit})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} 1 ({failed} of {attempted} checks)")
    every = samples["plain"] + samples["trace"]
    print(f"  (unscaled medians: set-up {statistics.median(s['setup_s'] for s in every):.4g} s, "
          f"run {statistics.median(s['run_s'] for s in every):.4g} s; median probe "
          f"{statistics.median(p for s in every for p in s['probes_s']['run']):.4g} s "
          f"against {REFERENCE_PROBE_S} s)")
    record = {"workload": name, "env": env, "attempted": attempted,
              "failed": failed, "errors": errors,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "samples": {mode: [{k: v for k, v in s.items() if k not in ("report", "ncalls")}
                                 for s in ss] for mode, ss in samples.items()}}
    with open(os.path.join(OUT, f"result-{name}-seed{opts.seed}-trace{opts.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def speed(sample, phase=None):
    """Host speed relative to the reference during one phase of a sample, or
    during the whole sample; a phase too short for four probes (a set-up
    without the d4 expansion) takes the whole sample's."""
    probes = sample["probes_s"].get(phase, ())
    if len(probes) < 4:
        probes = sample["probes_s"]["setup"] + sample["probes_s"]["run"]
    return statistics.mean(REFERENCE_PROBE_S / p for p in probes)


def end_to_end_metrics(plain):
    med = statistics.median
    run = [s["run_s"] * speed(s, "run") for s in plain]
    return {
        "setup_s": (med(s["setup_s"] * speed(s, "setup") for s in plain), "s"),
        "run_s": (med(run), "s"),
        "work_per_s": (med(s["work"] / r for s, r in zip(plain, run)), "1/s"),
        "peak_rss_mb": (med(s["peak_rss_mb"] for s in plain), "MB"),
    }


def layer_metrics(samples):
    """Times are medians over the traced samples; counts must agree."""
    traced = samples["trace"]
    out = {}
    mismatches = []
    for key, (_, unit) in traced[0]["layers"].items():
        values = [s["layers"][key][0] for s in traced]
        if unit == "s":
            out[key] = (statistics.median(v * speed(s) for v, s in zip(values, traced)),
                        unit)
        else:
            if len(set(values)) > 1:
                mismatches.append(f"{key}: {values}")
            out[key] = (values[0], unit)
    traced_run = statistics.median(s["run_s"] * speed(s, "run") for s in traced)
    plain_run = statistics.median(s["run_s"] * speed(s, "run") for s in samples["plain"])
    out["trace.run_s"] = (traced_run, "s")
    out["trace.overhead_s"] = (traced_run - plain_run, "s")
    return out, mismatches


if __name__ == "__main__":
    sys.exit(main())
