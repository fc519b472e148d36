"""The benchmark's workloads: each is one mdsforge subcommand, run through
`cli.main(argv)` as a user runs it, resized through its own flags so that a
fresh-interpreter sample takes seconds.

Each workload has an exact work count read off its report; the unit is
given per workload.  The inputs are exhaustive enumerations fixed by the
flags, so `--seed` only reaches the report's config.
"""

from __future__ import annotations

import re


def squarefree_count(q, n):
    """Monic square-free polynomials of degree n over F_q."""
    if n <= 1:
        return q ** n
    return q ** n - q ** (n - 1)


def _field_order(config):
    return config["q_char"] ** config["ext_degree"]


def conductors_summed(doc):
    """Square-free conductors of degree >= 1 behind the S(D) items."""
    q = _field_order(doc["config"])
    degrees = [int(m.group(1)) for item in doc["items"]
               if (m := re.fullmatch(r"S\((\d+)\)", item["name"]))]
    return sum(squarefree_count(q, D) for D in degrees if D >= 1)


def buckets_compared(doc):
    return sum(item["buckets"] for item in doc["items"]
               if item["name"].startswith("route_agreement["))


def moduli_times_classes(doc):
    """Square-free moduli h up to --h-deg-max, times the pole classes."""
    q = _field_order(doc["config"])
    classes = sum(item["name"].startswith("two_route_rho_") for item in doc["items"])
    moduli = sum(squarefree_count(q, n) for n in range(doc["config"]["h_deg_max"] + 1))
    return moduli * classes


class Workload:
    def __init__(self, name, argv, expansion, work, unit):
        self.name = name
        self.argv = argv
        # whether the path uses the one-time d4.f_series_capped(12, 10)
        # expansion, which set-up then performs
        self.expansion = expansion
        self.work = work
        self.unit = unit


WORKLOADS = {w.name: w for w in (
    Workload("moments-q5", ["moments", "--q", "5", "--d-max", "6"],
             True, conductors_summed, "conductors"),
    Workload("moments-q9", ["moments", "--q", "3", "--ext-degree", "2", "--d-max", "4"],
             True, conductors_summed, "conductors"),
    Workload("verify-series-q5", ["verify-series", "--n-max", "3", "--d-max", "3"],
             True, buckets_compared, "buckets"),
    Workload("residue-z0-q5", ["residue-z0", "--h-deg-max", "2"],
             False, moduli_times_classes, "moduli*classes"),
)}
