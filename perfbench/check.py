"""Correctness checks on one report, and the planted-defect test that shows
these checks can fail.

A report is checked three ways, each one check: its digest against the
committed reference, every item's status, and its work count against the
expected value.  The digest covers the report JSON without `timestamp`
(the rule of `test_determinism_modulo_timestamp`) and without the two config
fields the benchmark sets per run: `seed` and `cache_dir`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def digest(doc):
    doc = copy.deepcopy(doc)
    doc.pop("timestamp", None)
    doc["config"].pop("seed", None)
    doc["config"].pop("cache_dir", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_report(doc, workload, expected):
    """Return (attempted, failures): failures lists what did not hold."""
    failures = []
    attempted = 2
    if digest(doc) != expected["digest"]:
        failures.append("report digest differs from the reference")
    for item in doc["items"]:
        if "status" in item:
            attempted += 1
            if item["status"] != "pass":
                failures.append(f"item {item['name']} is {item['status']}")
    work = workload.work(doc)
    if work != expected["work"]:
        failures.append(f"work count {work} != expected {expected['work']}")
    return attempted, failures


# -- planted defects -----------------------------------------------------------

_RATIONAL = re.compile(r"-?\d+/\d+")


def _exact_values(node):
    """(container, key) of every exact value: "num/den" strings and ints."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _exact_values(value)
        elif (isinstance(value, str) and _RATIONAL.fullmatch(value)) or \
                (isinstance(value, int) and not isinstance(value, bool)):
            yield node, key


def _alter_one_exact_value(items):
    """Add one to the first exact rational; a report without one (the
    verify-series report holds only integer counts) gets its first integer
    altered instead."""
    found = list(_exact_values(items))
    found.sort(key=lambda nk: not isinstance(nk[0][nk[1]], str))
    if not found:
        return False
    node, key = found[0]
    value = node[key]
    if isinstance(value, str):
        num, den = value.split("/")
        node[key] = f"{int(num) + 1}/{den}"
    else:
        node[key] = value + 1
    return True


def planted_defects(doc, workload, expected):
    """Both planted defects must register as failures.  Returns a list of
    the defects the checker missed (empty when it caught both)."""
    missed = []
    bad = copy.deepcopy(doc)
    if not _alter_one_exact_value(bad["items"]):
        missed.append("no exact value in the report to alter")
    elif not check_report(bad, workload, expected)[1]:
        missed.append("an altered exact value passed the check")
    bad = copy.deepcopy(doc)
    passing = [item for item in bad["items"] if item.get("status") == "pass"]
    if not passing:
        missed.append("no passing item in the report to mark failed")
    else:
        passing[0]["status"] = "fail"
        if not check_report(bad, workload, expected)[1]:
            missed.append("an item marked fail passed the check")
    return missed
