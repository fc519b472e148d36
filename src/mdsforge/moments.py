"""Exact cubic moments, the secondary-term constant, and the desk-scale
diagnostics and inequality suite.

Exact moment values S(D) = sum over square-free monic conductors of degree D
of the cubed central value live in Q(sqrt q), are summed with one cube per
character-count class of conductors, and are cached as JSON files (one per
(q, D)) holding the two rational coordinates and a content hash.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat

import mpmath

from . import __version__, d4, fq, lseries, mds
from .fq import FqField
from .rings import QuadValue, tower_float, tower_mp


# ---------------------------------------------------------------------------
# moment sums
# ---------------------------------------------------------------------------

# The lower half c_0..c_h of L(u, chi_d0) is the Euler product over the
# primes P of degree <= h, truncated after u**h, so it depends only on how
# many primes of each degree have chi_d0(P) = +1 and how many -1.  S(D) is
# thus a sum over these character-count classes of multiplicity x cube.
# Conductors are indexed as in fq.monic_by_index, idx = lo + q**L * hi, and
# d0 mod P is F_q-linear in the digits of idx: the sum of a residue read off
# the low digits and one read off the high digits.  Residues of degree < k
# are coded by their base-q coefficient index.


@lru_cache(maxsize=None)
def _code_add_table(field_key, k):
    """add[a][b]: the code of the sum of the residues coded a and b."""
    F = fq.build_field(*field_key)
    q = F.q
    if k == 0:
        return [[0]]
    prev = _code_add_table(field_key, k - 1)
    # one int object per code, shared by every row, keeps the table at one
    # pointer per entry
    codes = list(range(q ** k))
    # a = a0 + q*a1 and b = b0 + q*b1 with a0, b0 the constant digits
    return [[codes[F.addtab[a0][b0] + q * s] for s in prev[a1] for b0 in range(q)]
            for a1 in range(q ** (k - 1)) for a0 in range(q)]


def _span_codes(add, base, steps):
    """Codes of base + c_0 v_0 + c_1 v_1 + ... in digit-index order, where
    steps[i][c] is the code of c * v_i."""
    codes = [base]
    for step in steps:
        codes = [add[r][s] for s in step for r in codes]
    return codes


@lru_cache(maxsize=None)
def _class_plan(field_key, D):
    """(L, radix, terms) for degree-D conductors.

    A class key is sum over degrees k <= h of plus_k w_k + minus_k w'_k in
    the mixed radix ``radix`` (plus_1, minus_1, plus_2, ...).  Each term
    (wsym, add, lo, hi) serves one prime P: wsym[r] is the key weight of
    the symbol (r/P), and lo[i], hi[j] are the codes of the parts of d0 mod P
    from the low and high digits."""
    F = fq.build_field(*field_key)
    q = F.q
    L = (D + 1) // 2
    radix, terms = [], []
    weight = 1
    for k in range(1, lseries.fe_lower_degree(D) + 1):
        add = _code_add_table(field_key, k)
        primes = fq.irreducibles(F, k)
        radix += [len(primes) + 1] * 2
        plus, minus = weight, weight * (len(primes) + 1)
        weight = minus * (len(primes) + 1)
        by_symbol = {0: 0, 1: plus, -1: minus}
        for p in primes:
            table = lseries._residue_symbol_table(field_key, p)
            wsym = [by_symbol[table[fq.trim(fq.monic_by_index(F, k, r)[:-1])]]
                    for r in range(q ** k)]
            # steps[i][c]: the code of c * x**i mod p
            steps = []
            for i in range(D + 1):
                xi = fq.pmod(F, fq.monic_by_index(F, i, 0), p)
                steps.append([fq.coeff_index(F, fq.pscale(F, xi, c)) for c in range(q)])
            terms.append((wsym, add, _span_codes(add, 0, steps[:L]),
                          _span_codes(add, steps[D][1], steps[L:D])))
    return L, tuple(radix), tuple(terms)


def _moment_partial(args):
    """Worker: the class counts of the square-free degree-D conductors whose
    high digits lie in [start, stop)."""
    p, e, D, start, stop = args
    F = fq.build_field(p, e)
    L, _, terms = _class_plan((p, e), D)
    width = F.q ** L
    mask = fq.squarefree_mask(F, D)
    counts = Counter()
    for hi in range(start, stop):
        # one row of key weights per prime: its symbol table shifted by the
        # high-digit residue, read at each low-digit residue
        rows = [map(list(map(wsym.__getitem__, add[his[hi]])).__getitem__, los)
                for wsym, add, los, his in terms]
        keys = map(sum, zip(*rows)) if rows else repeat(0, width)
        counts.update(compress(keys, mask[hi * width:(hi + 1) * width]))
    return counts


def _class_sum(F: FqField, D: int, counts) -> QuadValue:
    """Sum of multiplicity x cube over the classes: each lower half is the
    Euler product of the class's sign counts, completed by the functional
    equation."""
    q = F.q
    _, radix, _ = _class_plan((F.p, F.e), D)
    h = lseries.fe_lower_degree(D)
    total = QuadValue(q)
    for key, mult in counts.items():
        factors = []
        for i, r in enumerate(radix):
            key, n = divmod(key, r)
            factors += [(i // 2 + 1, -1 if i % 2 else 1)] * n
        coeffs = lseries._fe_complete(F, 1, D, lseries.euler_coeffs(h, factors))
        a, b, k = lseries.central_parts(q, D, coeffs)
        total = total + QuadValue(q, a, b, q ** k) ** 3 * mult
    return total


def moment_sum(F: FqField, D: int, workers: int = 1) -> QuadValue:
    """S(D): exact sum of cubed central values over degree-D conductors."""
    if D < 0:
        raise ValueError(f"conductor degree D = {D} is negative")
    if D == 0:
        return lseries.zeta_half(F.q) ** 3
    L, _, _ = _class_plan((F.p, F.e), D)
    blocks = F.q ** (D - L)
    if workers <= 1:
        parts = [_moment_partial((F.p, F.e, D, 0, blocks))]
    else:
        import multiprocessing
        chunk = (blocks + workers - 1) // workers
        jobs = [(F.p, F.e, D, k * chunk, min((k + 1) * chunk, blocks))
                for k in range(workers) if k * chunk < blocks]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_moment_partial, jobs)
    return _class_sum(F, D, sum(parts, Counter()))


# -- cache ---------------------------------------------------------------

def _moment_hash(q: int, D: int, a: Fraction, b: Fraction) -> str:
    payload = f"{q}|{D}|{a}|{b}|{__version__}"
    return hashlib.sha256(payload.encode()).hexdigest()


def moment_cache_path(cache_dir: str, q: int, D: int) -> str:
    return os.path.join(cache_dir, "moments", f"q{q}", f"D{D}.json")


def store_moment(cache_dir: str, q: int, D: int, value: QuadValue) -> str:
    path = moment_cache_path(cache_dir, q, D)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"q": q, "D": D, "a": str(value.a), "b": str(value.b),
           "hash": _moment_hash(q, D, value.a, value.b)}
    # write a temp file beside the target and rename it into place, so an
    # interrupted write never leaves a partial cache file at ``path``
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_moment(cache_dir: str, q: int, D: int):
    path = moment_cache_path(cache_dir, q, D)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    a = Fraction(doc["a"])
    b = Fraction(doc["b"])
    if doc.get("hash") != _moment_hash(q, D, a, b):
        raise ValueError(f"moment cache {path} fails its content hash; "
                         "delete it explicitly to recompute")
    return QuadValue(q, a, b)


def moment_table(F: FqField, D_max: int, cache_dir=None, workers: int = 1):
    if D_max < 0:
        raise ValueError(f"D_max = {D_max} is negative")
    out = {}
    for D in range(D_max + 1):
        val = None
        if cache_dir:
            val = load_moment(cache_dir, F.q, D)
        if val is None:
            val = moment_sum(F, D, workers=workers)
            if cache_dir:
                store_moment(cache_dir, F.q, D, val)
        out[D] = val
    return out


def sieve_reconstructed_moment(F: FqField, D: int) -> QuadValue:
    """S(D) rebuilt through the mu-sieve from the congruence-restricted
    series (cross-module oracle)."""
    total = QuadValue(F.q, 0, 0)
    for dh in range(D // 2 + 1):
        for h in fq.enumerate_monic(F, dh, "squarefree"):
            mu = fq.mobius(F, h)
            series = mds.sieved_t4_series(F, h, 1, D)
            total = total + series[D] * mu
    return total


# ---------------------------------------------------------------------------
# the secondary-term constant
# ---------------------------------------------------------------------------

def _bracket_values(q: int):
    """The three coefficient strings of the constant, exactly half the
    corresponding eighth-root constants (checked)."""
    rows = {(r["a2"], r["rho"]): r["value"] for r in mds.gamma_table_rows(q)}
    half = Fraction(1, 2)
    b_plus = rows[(1, "1")] * half
    b_minus = rows[(1, "-1")] * half
    b_imag = rows[(1, "i")] * half
    # defining-sum cross-check
    for (a2, rho), val in rows.items():
        sgn_tp = 1 if rho in ("1", "-1") else -1
        if mds.gamma_constant(q, a2, sgn_tp, rho) != val:
            raise ArithmeticError(f"eighth-root constant a2={a2}, rho={rho} "
                                  "disagrees with its defining sum")
    return b_plus, b_minus, b_imag


def r_term(F: FqField, D: int, deg_max: int = 8, dps: int = 50):
    """The exact-coefficient secondary term at conductor degree D.

    Assembled from the three bracket constants (cross-checked against the
    eighth-root table), the two central values, and the two Euler products;
    also re-derived through the pole-class expansion
    sum_rho rho**D * (closed residue at rho).
    """
    q = F.q
    b_plus, b_minus, b_imag = _bracket_values(q)
    # the trivial (1) and the nonsquare (-1) character class
    products = {sgn: mds.zhang_euler_product(F, sgn, deg_max, dps) for sgn in (1, -1)}
    with mpmath.workdps(dps + 10):
        # L(1/2)**7 times the Euler product, per class
        lp = {sgn: tower_mp(mds.central_l_theta_power7(q, sgn)).real * partials[-1]
              for sgn, (partials, _) in products.items()}
        B1 = tower_mp(b_plus).real
        B2 = tower_mp(b_minus).real
        B3 = tower_mp(b_imag)
        line1 = B1 / 4 * lp[1]
        line2 = (-1) ** D * B2 / 4 * lp[1]
        line3 = mpmath.re(mpmath.mpc(0, 1) ** D * B3) / 2 * lp[-1]
        value = line1 + line2 + line3

        # pole-class expansion: sum over the four classes of rho^D times the
        # closed residue (1/8) Gamma L^7 prod
        alt = mpmath.mpf(0)
        for rho_name, rho_c in (("1", 1), ("-1", -1), ("i", 1j), ("-i", -1j)):
            sgn_tp = 1 if rho_name in ("1", "-1") else -1
            gam = tower_mp(mds.gamma_constant(q, 1, sgn_tp, rho_name))
            alt += mpmath.re(mpmath.mpc(rho_c) ** D * gam / 8 * lp[sgn_tp])

    tail = sum(abs(float(partials[-1])) * math.expm1(tail_logs[-1])
               for partials, tail_logs in products.values())
    return {"D": D, "q": q, "value": value, "pole_class_expansion": alt,
            "tail_bound": tail, "deg_max": deg_max}


# ---------------------------------------------------------------------------
# diagnostics (explicitly not a theorem-level check)
# ---------------------------------------------------------------------------

def secondary_term_report(F: FqField, D_max: int, cache_dir=None, workers: int = 1):
    """Descriptive diagnostics of the moment table against the asymptotic
    shape.  The leading-coefficient polynomial of the main term has no
    closed form here, so everything below is least-squares exploration with
    stated caveats, never a pass/fail criterion."""
    q = F.q
    if D_max < 3:
        return {"declined": True,
                "reason": "need at least degrees 0..3 to fit anything"}
    table = moment_table(F, D_max, cache_dir=cache_dir, workers=workers)
    import numpy as np
    svals = [tower_float(table[D]).real for D in range(D_max + 1)]

    # growth: S(D) / (q^D (D+1)^6) should stay bounded (order-7 boundary pole)
    growth = [svals[D] / (q ** D * (D + 1) ** 6) for D in range(D_max + 1)]

    def fit(degree, subtract_secondary):
        rows = []
        rhs = []
        for D in range(D_max + 1):
            target = svals[D]
            if subtract_secondary:
                rt = r_term(F, D, deg_max=6, dps=30)
                target -= q ** (0.75 * D) * float(rt["value"])
            row = [q ** D * D ** k for k in range(degree + 1)]
            row += [(-q) ** D * D ** k for k in range(degree + 1)]
            rows.append(row)
            rhs.append(target)
        A = np.array(rows, dtype=float)
        y = np.array(rhs, dtype=float)
        # normalize columns for conditioning
        scale = np.max(np.abs(A), axis=0)
        sol, res, rank, sv = np.linalg.lstsq(A / scale, y, rcond=None)
        fitted = (A / scale) @ sol
        resid = y - fitted
        rel = float(np.max(np.abs(resid)) / max(np.max(np.abs(y)), 1.0))
        cond = float(sv[0] / sv[-1]) if sv[-1] else float("inf")
        return {"degree": degree, "relative_max_residual": rel,
                "condition_number": cond,
                "subtract_secondary": subtract_secondary}

    fits = []
    max_deg = min(2, (D_max - 2) // 2)
    for degree in range(max_deg + 1):
        for sub in (False, True):
            if 2 * (degree + 1) <= D_max:  # keep systems overdetermined
                fits.append(fit(degree, sub))

    # partial sums of the generating series inside the disk of convergence
    xi = Fraction(1, q * q)
    partials = []
    acc = QuadValue(q, 0, 0)
    for D in range(D_max + 1):
        acc = acc + table[D] * xi ** D
        partials.append(tower_float(acc).real)

    return {
        "declined": False,
        "q": q, "D_max": D_max,
        "moments": {D: {"a": str(table[D].a), "b": str(table[D].b)}
                    for D in range(D_max + 1)},
        "growth_ratios": growth,
        "fits": fits,
        "generating_series_partials": partials,
        "caveat": ("diagnostic only: the main-term coefficient polynomial is "
                   "not computed here, and at these degrees the error term "
                   "is not separable from the secondary term"),
    }


# ---------------------------------------------------------------------------
# the inequality suite
# ---------------------------------------------------------------------------

def _center_grid(q: int, radial: int = 16, angular: int = 64):
    """Complex sample points of the closed disk |z| <= q**(-1/2)."""
    pts = [0j]
    rmax = q ** -0.5
    for k in range(1, radial + 1):
        r = rmax * k / radial
        for j in range(angular):
            theta = 2 * math.pi * j / angular
            pts.append(r * complex(math.cos(theta), math.sin(theta)))
    return pts


def _f_bound_constant(q: float) -> float:
    num = (15 / q ** 7 + 119 / q ** 6 + 412 / q ** 5 + 812 / q ** 4
           + 994 / q ** 3 + 770 / q ** 2 + 363 / q + 99)
    return num / (1 - 1 / q) ** 8


def _g0_bound_constant(q: float) -> float:
    num = (15 / q ** 7 + 120 / q ** 6 + 420 / q ** 5 + 843 / q ** 4
           + 1064 / q ** 3 + 866 / q ** 2 + 427 / q + 153)
    return (1 + 1 / q) ** 3 * num / (q * (1 - 1 / q) ** 11)


def _g1_bound_constant(q: float) -> float:
    num = (1 / q ** 7 + 10 / q ** 6 + 36 / q ** 5 + 65 / q ** 4
           + 121 / q ** 3 + 134 / q ** 2 + 70 / q + 31)
    return num / (1 - 1 / q) ** 10


def local_factor_inequalities(q: int, radial: int = 16, angular: int = 64):
    """Grid check of every displayed local-factor inequality at one q."""
    Q = q ** -0.5
    items = []

    def margin(name, worst, bound):
        items.append({"name": name, "worst": worst, "bound": bound,
                      "ok": worst < bound})

    fb = _f_bound_constant(q)
    g0b = _g0_bound_constant(q)
    g1b = _g1_bound_constant(q) * Q
    worst_f = worst_g0 = worst_g1 = 0.0
    worst_odd = worst_evm = worst_evp_inv = 0.0
    for z in _center_grid(q, radial, angular):
        if z == 0:
            # F and G need their series constants at the origin; the parts
            # of the invariant function evaluate directly
            _, G0s, G1s = d4.local_factor_series(q, 1, 0)
            g00 = complex(tower_float(G0s[0]))
            g10 = complex(tower_float(G1s[0]))
            worst_g0 = max(worst_g0, abs(g00 - 14))
            worst_g1 = max(worst_g1, abs(g10))
            worst_evm = max(worst_evm, abs(d4.f_even_center_split(0.0, Q, -1)))
            worst_evp_inv = max(worst_evp_inv,
                                1.0 / abs(d4.f_even_center_split(0.0, Q, +1)))
            continue
        fv = d4.local_F_value(z, q)
        worst_f = max(worst_f, abs(fv - 14 - q * z * z) / abs(z) ** 2)
        g0v = d4.local_G_value(z, Q, 0)
        worst_g0 = max(worst_g0, abs(g0v - 14 - q * z * z))
        g1v = d4.local_G_value(z, Q, 1)
        worst_g1 = max(worst_g1, abs(g1v))
        worst_odd = max(worst_odd, abs(d4.f_odd_center_value(z, q)) / abs(z))
        worst_evm = max(worst_evm, abs(d4.f_even_center_split(z, Q, -1)))
        worst_evp_inv = max(worst_evp_inv, 1.0 / abs(d4.f_even_center_split(z, Q, +1)))
    margin("F_minus_14_minus_qz2_over_z2", worst_f, fb)
    margin("G0_minus_14_minus_qz2", worst_g0, g0b)
    margin("G1_abs", worst_g1, g1b)
    margin("odd_part_over_z", worst_odd, 17.0)
    margin("even_minus_part", worst_evm, 58.0 * Q)
    margin("inverse_even_plus_part", worst_evp_inv, 20.0)
    return items


def poly_center_bound(q: int, l_max: int = 10, eta: float = 0.2):
    """|P_l(+-q^-1/2,...)| < 843/(1-5^(-4 eta)) q^((l-a_l)(1/4+eta))."""
    const = 843.0 / (1 - 5.0 ** (-4 * eta))
    items = []
    for l in range(1, l_max + 1):
        al = l % 2
        bound = const * q ** ((l - al) * (0.25 + eta))
        for sign in (+1, -1):
            val = abs(tower_float(mds.pl_center_value(l, 1, sign, q)))
            items.append({"l": l, "sign": sign, "abs": val, "bound": bound,
                          "ok": val < bound})
    return items


def extremal_margin_value() -> float:
    """The q = 5 extremal value of the odd-part bound constant."""
    q = 5.0
    return (1 + 7 / q + 7 / q ** 2 + 1 / q ** 3) / (1 - 1 / q) ** 8


def dirichlet_series_partial_check(F: FqField, A: float = 3.0,
                                   sigma: float = 1.2, m_max: int = 12):
    """Partial Euler products of the omega-weighted square-free series at a
    point inside the convergence half-plane: increasing and bounded by the
    logarithmic Euler bound."""
    q = F.q
    # log bound: sum_m Irr(m) log(1 + A q^-(m sigma)) < A sum_m q^(m(1-sigma))/m
    bound = (1 - q ** (1 - sigma)) ** -A
    partials = []
    prod = 1.0
    for m in range(1, m_max + 1):
        prod *= (1 + A * q ** (-m * sigma)) ** fq.irreducible_count(F, m)
        partials.append(prod)
    increasing = all(b >= a for a, b in zip(partials, partials[1:]))
    return {"partials": partials, "bound": bound,
            "increasing": increasing,
            "bounded": partials[-1] < bound,
            "ok": increasing and partials[-1] < bound}


def g0_origin_decay(q_list=(5, 9, 13, 25, 29)):
    """|G0(...,0;q) - 14| * q stays bounded across growing q (decay fit)."""
    rows = []
    for q in q_list:
        Fs, G0s, _ = d4.local_factor_series(q, 1, 0)
        dev = abs(tower_float(G0s[0]) - 14)
        rows.append({"q": q, "abs_dev": dev, "scaled": dev * q})
    scaled = [r["scaled"] for r in rows]
    return {"rows": rows, "bounded": max(scaled) <= 1.5 * scaled[0],
            "ok": max(scaled) <= 1.5 * scaled[0]}


def bound_suite(F: FqField, q_list=(5, 9, 13, 25), lindelof_degrees=(3, 4, 5, 6),
                radial: int = 16, angular: int = 64):
    """Every explicit-constant inequality, aggregated with worst margins.

    These are proved statements: any violation is reported as fatal.
    """
    report = {"items": [], "ok": True}

    for q in q_list:
        for item in local_factor_inequalities(q, radial, angular):
            item["q"] = q
            report["items"].append(item)

    ext = extremal_margin_value()
    report["items"].append({"name": "odd_part_extremal_margin_q5",
                            "worst": ext, "bound": 17.0,
                            "rounded_4dp": round(ext, 4),
                            "expected_4dp": 16.0217,
                            "ok": abs(round(ext, 4) - 16.0217) < 5e-5 and ext < 17.0})

    for q in (5, 9, 13):
        for item in poly_center_bound(q):
            item["q"] = q
            item["name"] = f"poly_center_bound_l{item['l']}_s{item['sign']}"
            report["items"].append(item)

    worst_ratio = 0.0
    violations = 0
    count = 0
    for D in lindelof_degrees:
        for d0 in fq.enumerate_monic(F, D, "squarefree"):
            rep = lseries.check_lindelof(F, d0)
            count += 1
            worst_ratio = max(worst_ratio, rep["max_abs"] / rep["bound"])
            if not rep["ok"]:
                violations += 1
    report["items"].append({"name": "central_line_bound_sweep",
                            "conductors": count, "violations": violations,
                            "worst_ratio": worst_ratio, "ok": violations == 0})

    report["items"].append({"name": "omega_weighted_series_partials",
                            **dirichlet_series_partial_check(F), })
    report["items"].append({"name": "g0_origin_decay", **g0_origin_decay()})

    report["ok"] = all(item.get("ok", True) for item in report["items"])
    return report
