"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all), in three fresh interpreters:

* tracer completeness: the traced call count of every wrapped function
  equals cProfile's ncalls for the same code, so no binding site (a
  `from ... import` name, `mds.ROUTES`, a class attribute) escapes the
  wrappers;
* tracing changes no value: the traced report's digest equals the
  untraced one, and both equal the committed reference;
* planted defects: one altered exact rational and one item marked fail
  must each register as a failure in the checker.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import digest, load_reference, planted_defects  # noqa: E402
from run import OUT, run_sample  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def selftest(name, reference):
    problems = []
    results = {}
    for mode in ("plain", "trace", "profile"):
        result, error = run_sample(name, mode, 0, 600)
        if error:
            return [error]
        results[mode] = result
    docs = {mode: json.loads(r["report"]) for mode, r in results.items()}
    digests = {mode: digest(doc) for mode, doc in docs.items()}
    if len({reference["digest"], *digests.values()}) != 1:
        problems.append(f"report digests differ: {digests}, reference {reference['digest']}")
    profiled = results["profile"]["ncalls"]
    traced = results["trace"]["ncalls"]
    for fn, entry in sorted(traced.items()):
        expected = profiled.get("%s:%d:%s" % tuple(entry["code"]), 0)
        if entry["ncalls"] != expected:
            problems.append(f"{fn}: traced {entry['ncalls']} calls, cProfile {expected}")
    called = sum(1 for entry in traced.values() if entry["ncalls"])
    print(f"{name}: {called} of {len(traced)} wrapped functions called, "
          f"{len(problems)} problems")
    workload = WORKLOADS[name]
    problems += planted_defects(docs["plain"], workload, reference)
    return problems


def main(names):
    os.makedirs(OUT, exist_ok=True)
    reference = load_reference()
    failed = False
    for name in names or sorted(WORKLOADS):
        for problem in selftest(name, reference[name]):
            failed = True
            print(f"  FAIL {problem}")
    print("self-test", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
