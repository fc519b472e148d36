"""The twisted series by three routes, the square-free sieve, the
decomposition of the sieved series into twisted series times explicit local
factors, the eighth-root constants at the quartic poles, the residue
formulas, and the Euler product of the Zhang polynomial.

Gradings.  Exact route comparisons and the sieve identity are checked on the
full multidegree buckets (deg m1, deg m2, deg m3, deg d): at the centre the
m-sums of two of the three routes are infinite per central coefficient, so
the bucketed form is the strongest finitely-checkable statement.  The
downstream central-variable series (coefficients of t4**n = q**(-n s4) at
s1 = s2 = s3 = 1/2) is always assembled through the per-d closed form, whose
coefficients are finite sums in Q(sqrt q).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add

from . import d4, fq, lseries
from .fq import FqField
from .rings import (ParamPoly, QuadValue, QuarticValue, accumulate, rho_value,
                    tower_float, RHO_CLASSES)


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

class TwistSpec:
    """c = c1 c2 c3 square-free (pairwise coprime monic parts) and units
    a1, a2 in {1, theta0}."""

    def __init__(self, F: FqField, c1=fq.P_ONE, c2=fq.P_ONE, c3=fq.P_ONE,
                 a1: int = 1, a2: int = 1):
        self.F = F
        self.c1, self.c2, self.c3 = c1, c2, c3
        if a1 not in (1, F.nonsquare_unit) or a2 not in (1, F.nonsquare_unit):
            raise ValueError("units must be 1 or the fixed non-square")
        self.a1, self.a2 = a1, a2
        self.c = fq.pmul(F, fq.pmul(F, c1, c2), c3)
        if not fq.is_squarefree(F, self.c):
            raise ValueError("twist product must be square-free")
        self.c_primes = tuple(p for p, _ in fq.factor(F, self.c)[1])

    def __repr__(self):
        return (f"TwistSpec(c1={fq.poly_str(self.c1)}, c2={fq.poly_str(self.c2)}, "
                f"c3={fq.poly_str(self.c3)}, a1={self.a1}, a2={self.a2})")


def chi(F: FqField, unit: int, monic_tops, m) -> int:
    """(unit * prod(monic_tops) / m) for monic m."""
    if not m:
        return 0
    top = fq.P_ONE
    for t in monic_tops:
        top = fq.pmul(F, top, t)
    if unit != 1:
        top = fq.pscale(F, top, unit)
    return fq.kronecker(F, top, m)


# ---------------------------------------------------------------------------
# evaluated series coefficients of the invariant function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def a_eval(k1: int, k2: int, k3: int, l: int, qp: int) -> int:
    """a(k1,k2,k3,l; qp) as an integer, qp a prime power."""
    return d4.a_coeff(k1, k2, k3, l).eval_int(qp)


@lru_cache(maxsize=None)
def _correction_at_prime(which, degp: int, qp: int, sign: int):
    """The correction polynomial P_l (``which`` = l) or Q_k (``which`` = the
    exponent triple kk) with arguments sign * t**degp and parameter qp, as a
    dict {exponents * degp: int} without zero entries.  The dict is shared
    by the cache: callers must not mutate it."""
    poly = d4.q_poly(*which) if isinstance(which, tuple) else d4.p_poly(which)
    out = {}
    for e, c in poly.terms.items():
        v = c.eval_int(qp) * sign ** sum(e)
        if v:
            out[tuple(x * degp for x in e)] = v
    return out


@lru_cache(maxsize=None)
def pl_center_value(l: int, degp: int, sign: int, q: int) -> QuadValue:
    """P_l at all three outer arguments sign*|p|**(-1/2), |p| = q**degp."""
    return sum((d4._qpow_half(q, -sum(key)) * v
                for key, v in _correction_at_prime(l, degp, q ** degp, sign).items()),
               QuadValue(q, 0, 0))


def pd_value(F: FqField, d0, d1, char_unit: int, char_monics) -> QuadValue:
    """The central-point value of the Dirichlet polynomial attached to
    d = d0*d1**2 for the character with the given top data."""
    q = F.q
    out = QuadValue(q, 1, 0)
    for p, mult in fq.factor(F, d1)[1]:
        dp = fq.deg(p)
        if fq.pmod(F, d0, p):
            s = chi(F, char_unit, char_monics, p)
            if s == 0:
                raise ArithmeticError("even-exponent prime meets the conductor")
            out = out * pl_center_value(2 * mult, dp, s, q)
        else:
            out = out * pl_center_value(2 * mult + 1, dp, 1, q)
    return out


# ---------------------------------------------------------------------------
# multidegree bucket tables (exact integers)
# ---------------------------------------------------------------------------

def _degree_splits(budget, parts):
    """All degree tuples with sum <= budget."""
    if parts == 1:
        for t in range(budget + 1):
            yield (t,)
        return
    for first in range(budget + 1):
        for rest in _degree_splits(budget - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _monic_profiles(field_key, max_deg):
    """All monic polys of degree <= max_deg with their factor profiles."""
    F = fq.build_field(*field_key)
    by_deg = []
    for n in range(max_deg + 1):
        row = []
        for m in fq.enumerate_monic(F, n):
            row.append((m, fq.factor(F, m)[1]))
        by_deg.append(tuple(row))
    return tuple(by_deg)


def _product(F: FqField, polys):
    """The product of the given polynomials."""
    out = fq.P_ONE
    for m in polys:
        out = fq.pmul(F, out, m)
    return out


def _profile_rows(F: FqField, tw: TwistSpec, max_deg: int):
    """Per degree, the (monic, factor profile) rows of the profile table
    whose primes are disjoint from the twist's: the monics coprime to c."""
    cset = set(tw.c_primes)
    return [[(m, prof) for m, prof in row if not any(p in cset for p, _ in prof)]
            for row in _monic_profiles((F.p, F.e), max_deg)]


class _BruteForceContext:
    """Shared caches for the tuple enumerations: per-conductor prime symbols
    and hatted character values need no gcd work when built from profiles."""

    def __init__(self, F: FqField, unit: int, extra_monic, d0):
        self.F = F
        self.top = fq.pscale(F, fq.pmul(F, extra_monic, d0), unit)
        self.d0_primes = {p for p, _ in fq.factor(F, d0)[1]}
        self._sym = {}

    def sym(self, p) -> int:
        v = self._sym.get(p)
        if v is None:
            v = lseries.prime_symbol(self.F, self.top, p)
            self._sym[p] = v
        return v

    def chi_hat(self, profile) -> int:
        """Character of the part coprime to d0, from the factor profile."""
        out = 1
        for p, mult in profile:
            if p in self.d0_primes:
                continue
            s = self.sym(p)
            if s == 0:
                return 0
            if mult % 2:
                out *= s
        return out


def _tuple_sum_for_d(F: FqField, ctx: "_BruteForceContext", dprof,
                     m_budget: int, profiles):
    """sum over (m1, m2, m3) of chi(hat m1) chi(hat m2) chi(hat m3) * A(m, d)
    as a dict (n1, n2, n3) -> int, for one fixed d.

    The A-coefficient is 1 on tuples coprime to d, so the sum splits into
    per-slot character sums plus small corrections indexed by which slots
    meet a prime of d.
    """
    qpow = [F.q ** k for k in range(m_budget + 16)]
    dplist = [(p, l, qpow[fq.deg(p)]) for p, l in dprof]
    dset = [p for p, _ in dprof]
    # per-degree: plain character sums over m coprime to d, and the
    # exceptional lists (chi, exponent-vector at the primes of d)
    plain = [0] * (m_budget + 1)
    extra = [[] for _ in range(m_budget + 1)]
    for n in range(m_budget + 1):
        for m, prof in profiles[n]:
            h = ctx.chi_hat(prof)
            if h == 0:
                continue
            vec = None
            if dset:
                pd = dict(prof)
                raw = tuple(pd.get(p, 0) for p in dset)
                if any(raw):
                    vec = raw
            if vec is None:
                plain[n] += h
            else:
                extra[n].append((h, vec))

    zerovec = tuple(0 for _ in dset)

    def a_of(v1, v2, v3):
        aa = 1
        for (p, l, qp), k1, k2, k3 in zip(dplist, v1, v2, v3):
            aa *= a_eval(k1, k2, k3, l, qp)
            if aa == 0:
                return 0
        return aa

    out = {}
    for n1 in range(m_budget + 1):
        for n2 in range(m_budget + 1 - n1):
            for n3 in range(m_budget + 1 - n1 - n2):
                total = plain[n1] * plain[n2] * plain[n3]
                # one slot exceptional
                for h1, v1 in extra[n1]:
                    total += h1 * a_of(v1, zerovec, zerovec) * plain[n2] * plain[n3]
                for h2, v2 in extra[n2]:
                    total += h2 * a_of(zerovec, v2, zerovec) * plain[n1] * plain[n3]
                for h3, v3 in extra[n3]:
                    total += h3 * a_of(zerovec, zerovec, v3) * plain[n1] * plain[n2]
                # two slots exceptional
                for h1, v1 in extra[n1]:
                    for h2, v2 in extra[n2]:
                        total += h1 * h2 * a_of(v1, v2, zerovec) * plain[n3]
                for h1, v1 in extra[n1]:
                    for h3, v3 in extra[n3]:
                        total += h1 * h3 * a_of(v1, zerovec, v3) * plain[n2]
                for h2, v2 in extra[n2]:
                    for h3, v3 in extra[n3]:
                        total += h2 * h3 * a_of(zerovec, v2, v3) * plain[n1]
                # all three exceptional
                for h1, v1 in extra[n1]:
                    for h2, v2 in extra[n2]:
                        for h3, v3 in extra[n3]:
                            total += h1 * h2 * h3 * a_of(v1, v2, v3)
                if total:
                    out[(n1, n2, n3)] = total
    return out


def zc_buckets_vers0(F: FqField, tw: TwistSpec, n4_max: int, total_max: int):
    """Brute force over every tuple (m1, m2, m3, d) bucket by multidegree."""
    out = {}
    rows = _profile_rows(F, tw, total_max)
    for n4 in range(n4_max + 1):
        for d, dprof in rows[n4]:
            d0 = _product(F, (p for p, mult in dprof if mult % 2))
            ctx = _BruteForceContext(F, tw.a1, tw.c1, d0)
            chi_a2c2_d0 = chi(F, tw.a2, (tw.c2,), d0)
            table = _tuple_sum_for_d(F, ctx, dprof, total_max - n4, rows)
            accumulate((((n1, n2, n3, n4), chi_a2c2_d0 * v)
                        for (n1, n2, n3), v in table.items()), out)
    return out


def _poly3_mul(a, b, cap):
    """Product of {exponent triple: int} dicts, keeping exponents <= cap."""
    return accumulate((e, c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()
                      if max(e := tuple(map(add, e1, e2))) <= cap)


def zc_buckets_vers1(F: FqField, tw: TwistSpec, n4_max: int, total_max: int):
    """Group by d: restricted L-polynomial coefficients times the outer
    correction polynomial, expanded in the outer gradings."""
    out = {}
    skip = tuple(p for p, _ in fq.factor(F, fq.pmul(F, tw.c2, tw.c3))[1])
    rows = _profile_rows(F, tw, total_max)
    for n4 in range(n4_max + 1):
        m_total = total_max - n4
        for d, dprof in rows[n4]:
            d0 = _product(F, (p for p, mult in dprof if mult % 2))
            chi_d0 = chi(F, tw.a2, (tw.c2,), d0)
            top = fq.pscale(F, fq.pmul(F, tw.c1, d0), tw.a1)
            lcoeffs = lseries.coeff_sums(F, top, m_total, skip=skip)
            # outer correction polynomial for d = d0 d1**2: a prime of d1 of
            # exponent e enters as P_(2e+1) if it divides d0, else as P_(2e)
            # with the sign chi(p); either way the index is its multiplicity
            pd = {(0, 0, 0): 1}
            for p, mult in dprof:
                if mult < 2:
                    continue
                dp = fq.deg(p)
                s = 1 if mult % 2 else chi(F, tw.a1, (tw.c1, d0), p)
                if s == 0:
                    raise ArithmeticError("unexpected character degeneration")
                pd = _poly3_mul(pd, _correction_at_prime(mult, dp, F.q ** dp, s), m_total)
            accumulate((((n1, n2, n3, n4), chi_d0 * cpd * c1v * c2v * c3v)
                        for (e1, e2, e3), cpd in pd.items()
                        for n1 in range(e1, m_total + 1)
                        if (c1v := lcoeffs[n1 - e1])
                        for n2 in range(e2, m_total + 1 - n1)
                        if (c2v := lcoeffs[n2 - e2])
                        for n3 in range(e3, m_total + 1 - n1 - n2)
                        if (c3v := lcoeffs[n3 - e3])), out)
    return out


def _odd_primes(odd1, odd2, odd3):
    """The primes of odd total multiplicity in m1 m2 m3, from the sets of
    primes of odd multiplicity in each: the primes of the square-free part
    n0 of m1 m2 m3."""
    return odd1 ^ odd2 ^ odd3


class _CentralContext:
    """Route vers2's caches for one call, keyed by the prime set of n0:
    chi_{a1 c1}(n0), the restricted L-series coefficients of a2 c2 n0, and
    the central symbols chi_{a2 c2 n0}(p) of the primes of even total
    multiplicity."""

    def __init__(self, F: FqField, tw: TwistSpec):
        self.F, self.tw = F, tw
        self.skip = tuple(p for p, _ in fq.factor(F, fq.pmul(F, tw.c1, tw.c3))[1])
        self._tops = {}
        self._coeffs = {}
        self._symbols = {}

    def top(self, odd):
        """(chi_{a1 c1}(n0), a2 c2 n0) for n0 the product of the primes in odd."""
        v = self._tops.get(odd)
        if v is None:
            F, tw = self.F, self.tw
            n0 = _product(F, odd)
            v = (chi(F, tw.a1, (tw.c1,), n0), fq.pscale(F, fq.pmul(F, tw.c2, n0), tw.a2))
            self._tops[odd] = v
        return v

    def coeffs(self, odd, n_max: int):
        v = self._coeffs.get((odd, n_max))
        if v is None:
            v = lseries.coeff_sums(self.F, self.top(odd)[1], n_max, skip=self.skip)
            self._coeffs[(odd, n_max)] = v
        return v

    def symbol(self, odd, p) -> int:
        s = self._symbols.get((odd, p))
        if s is None:
            s = fq.kronecker(self.F, self.top(odd)[1], p)
            if s == 0:
                raise ArithmeticError("central character degenerates")
            self._symbols[(odd, p)] = s
        return s


def zc_buckets_vers2(F: FqField, tw: TwistSpec, n4_max: int, total_max: int):
    """Group by the outer tuple: restricted central L-polynomial times the
    central correction polynomial.

    The tuples are read from the factor-profile table.  The square-free part
    n0 of m1 m2 m3 is the product of the primes of odd total multiplicity,
    so the correction polynomials of the tuples that share n0 (in one
    degree bucket) are summed before one product with n0's L-series."""
    q = F.q
    ctx = _CentralContext(F, tw)
    rows = [[(prof, frozenset(p for p, k in prof if k % 2)) for _, prof in row]
            for row in _profile_rows(F, tw, total_max)]
    pieces = {}  # (kk, deg p, s, cap) -> coefficients of t**0..t**cap
    out = {}
    for n1, n2, n3 in _degree_splits(total_max, 3):
        cap = min(n4_max, total_max - n1 - n2 - n3)
        by_n0 = {}
        for pr1, odd1 in rows[n1]:
            for pr2, odd2 in rows[n2]:
                pair = {p: (k, 0, 0) for p, k in pr1}
                for p, k in pr2:
                    pair[p] = (pair.get(p, (0,))[0], k, 0)
                for pr3, odd3 in rows[n3]:
                    merged = dict(pair)
                    for p, k in pr3:
                        kk = merged.get(p, (0, 0, 0))
                        merged[p] = (kk[0], kk[1], k)
                    odd = _odd_primes(odd1, odd2, odd3)
                    scale = 1
                    qm = [1] + [0] * cap
                    for p, kk in merged.items():
                        dp = len(p) - 1
                        # the terms of a piece sit at multiples of deg p: below
                        # deg p only the constant term is left, and it has no s
                        s = 1 if dp > cap or p in odd else ctx.symbol(odd, p)
                        key = (kk, dp, s, cap)
                        piece = pieces.get(key)
                        if piece is None:
                            piece = [0] * (cap + 1)
                            for (e,), c in _correction_at_prime(kk, dp, q ** dp, s).items():
                                if e <= cap:
                                    piece[e] = c
                            pieces[key] = piece
                        if dp > cap:
                            scale *= piece[0]
                        else:
                            qm = [sum(qm[i] * piece[e - i] for i in range(e + 1))
                                  for e in range(cap + 1)]
                    acc = by_n0.get(odd)
                    if acc is None:
                        acc = by_n0[odd] = [0] * (cap + 1)
                    for e, c in enumerate(qm):
                        acc[e] += scale * c
        total = [0] * (cap + 1)
        for odd, qm in by_n0.items():
            chi_n0 = ctx.top(odd)[0]
            lcoeffs = ctx.coeffs(odd, cap)
            for e, c in enumerate(qm):
                if c:
                    for n4 in range(e, cap + 1):
                        total[n4] += chi_n0 * c * lcoeffs[n4 - e]
        accumulate((((n1, n2, n3, n4), v) for n4, v in enumerate(total)), out)
    return out


ROUTES = {"vers0": zc_buckets_vers0, "vers1": zc_buckets_vers1,
          "vers2": zc_buckets_vers2}


def compare_routes(F: FqField, tw: TwistSpec, n4_max: int, total_max: int):
    """Exact bucketwise comparison of all three routes."""
    if not 0 <= n4_max <= total_max:
        raise ValueError("degree bounds must satisfy 0 <= n4_max <= total_max")
    tables = {name: fn(F, tw, n4_max, total_max) for name, fn in ROUTES.items()}
    keys = set()
    for t in tables.values():
        keys |= set(t)
    diffs = []
    for k in sorted(keys):
        vals = {name: t.get(k, 0) for name, t in tables.items()}
        if len(set(vals.values())) != 1:
            diffs.append((k, vals))
    return {"buckets": len(keys), "diffs": diffs, "ok": not diffs}


# ---------------------------------------------------------------------------
# central-variable series at the centre (Q(sqrt q) coefficients)
# ---------------------------------------------------------------------------

def _l_correction(F: FqField, unit, monics, skip_primes) -> QuadValue:
    """prod over p in skip of (1 - chi(p) |p|**(-1/2))."""
    q = F.q
    out = QuadValue(q, 1, 0)
    for p in skip_primes:
        out = out * (1 - d4._qpow_half(q, -fq.deg(p)) * chi(F, unit, monics, p))
    return out


def zc_t4_series(F: FqField, tw: TwistSpec, n_max: int):
    """Central-point coefficients of the twisted series: entry n sums the
    per-d closed form over monic d of degree n coprime to the twist."""
    q = F.q
    skip = tuple(p for p, _ in fq.factor(F, fq.pmul(F, tw.c2, tw.c3))[1])
    d1_rows = [[d1 for d1, _ in row] for row in _profile_rows(F, tw, n_max // 2)]
    out = [QuadValue(q, 0, 0) for _ in range(n_max + 1)]
    for a in range(n_max + 1):
        b_max = (n_max - a) // 2
        if b_max < 0:
            continue
        for d0 in fq.enumerate_monic(F, a, "squarefree"):
            if not all(fq.pmod(F, d0, p) for p in tw.c_primes):
                continue
            cond = fq.pmul(F, tw.c1, d0)
            lval = lseries.central_value(F, cond, tw.a1)
            lval = lval * _l_correction(F, tw.a1, (tw.c1, d0), skip)
            lcube = lval ** 3
            s_d0 = chi(F, tw.a2, (tw.c2,), d0)
            if s_d0 == 0:
                continue
            base = lcube * s_d0
            for b in range(b_max + 1):
                n = a + 2 * b
                for d1 in d1_rows[b]:
                    out[n] = out[n] + base * pd_value(F, d0, d1, tw.a1, (tw.c1, d0))
    return out


def sieved_t4_series(F: FqField, h, a2: int, n_max: int):
    """Central-point coefficients of the series restricted to d1 = 0 mod h."""
    q = F.q
    if not fq.is_squarefree(F, h):
        raise ValueError("h must be square-free")
    dh = fq.deg(h)
    out = [QuadValue(q, 0, 0) for _ in range(n_max + 1)]
    for a in range(n_max + 1):
        for e_deg in range((n_max - a) // 2 - dh + 1):
            b = e_deg + dh
            if a + 2 * b > n_max:
                continue
            for d0 in fq.enumerate_monic(F, a, "squarefree"):
                lcube = lseries.central_value(F, d0) ** 3
                s_d0 = F.chi2[a2] ** fq.deg(d0)
                for e in fq.enumerate_monic(F, e_deg):
                    d1 = fq.pmul(F, h, e)
                    val = lcube * pd_value(F, d0, d1, 1, (d0,)) * s_d0
                    out[a + 2 * b] = out[a + 2 * b] + val
    return out


# ---------------------------------------------------------------------------
# sieve identity on buckets
# ---------------------------------------------------------------------------

def z0_buckets(F: FqField, a2: int, total_max: int):
    """Bucket coefficients of the square-free-conductor generating series."""
    out = {}
    profiles = _monic_profiles((F.p, F.e), total_max)
    for n4 in range(total_max + 1):
        for d0 in fq.enumerate_monic(F, n4, "squarefree"):
            s_d0 = F.chi2[a2] ** n4
            ctx = _BruteForceContext(F, 1, fq.P_ONE, d0)
            m_budget = total_max - n4
            # chi_{d0}(m) with no hatting: a shared prime kills the term
            plain = [0] * (m_budget + 1)
            for n in range(m_budget + 1):
                for m, prof in profiles[n]:
                    v = 1
                    for p, mult in prof:
                        s = ctx.sym(p)
                        if s == 0:
                            v = 0
                            break
                        if mult % 2:
                            v *= s
                    plain[n] += v
            accumulate((((n1, n2, n3, n4), plain[n1] * plain[n2] * plain[n3] * s_d0)
                        for n1 in range(m_budget + 1) if plain[n1]
                        for n2 in range(m_budget + 1 - n1) if plain[n2]
                        for n3 in range(m_budget + 1 - n1 - n2)), out)
    return out


def sieved_buckets(F: FqField, h, a2: int, total_max: int):
    """Bucket coefficients of the congruence-restricted series (h | d1)."""
    out = {}
    dh = fq.deg(h)
    profiles = _monic_profiles((F.p, F.e), total_max)
    for n4 in range(2 * dh, total_max + 1):
        for a in range(n4 + 1):
            rem = n4 - a
            if rem % 2:
                continue
            b = rem // 2
            if b < dh:
                continue
            for d0 in fq.enumerate_monic(F, a, "squarefree"):
                s_d0 = F.chi2[a2] ** a
                ctx = _BruteForceContext(F, 1, fq.P_ONE, d0)
                for e in fq.enumerate_monic(F, b - dh):
                    d1 = fq.pmul(F, h, e)
                    d = fq.pmul(F, d0, fq.pmul(F, d1, d1))
                    dprof = fq.factor(F, d)[1]
                    table = _tuple_sum_for_d(F, ctx, dprof, total_max - n4, profiles)
                    accumulate((((n1, n2, n3, n4), v * s_d0)
                                for (n1, n2, n3), v in table.items()), out)
    return out


def check_sieve_identity(F: FqField, a2: int, total_max: int):
    """sum_h mu(h) * (restricted buckets) == square-free buckets, exactly."""
    if total_max < 0:
        raise ValueError("negative degree bound")
    z0 = z0_buckets(F, a2, total_max)
    acc = {}
    h_list = []
    for dh in range(total_max // 2 + 1):
        for h in fq.enumerate_monic(F, dh, "squarefree"):
            h_list.append(h)
            mu = fq.mobius(F, h)
            table = sieved_buckets(F, h, a2, total_max)
            accumulate(((k, mu * v) for k, v in table.items()), acc)
    keys = set(z0) | set(acc)
    diffs = [(k, z0.get(k, 0), acc.get(k, 0)) for k in sorted(keys)
             if z0.get(k, 0) != acc.get(k, 0)]
    return {"ok": not diffs, "first_diff": diffs[0] if diffs else None,
            "buckets": len(keys), "h_count": len(h_list)}


# ---------------------------------------------------------------------------
# decomposition of the sieved series into twisted series x local factors
# ---------------------------------------------------------------------------

def _useries_mul(a, b, n_max, zero):
    out = [zero] * (n_max + 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > n_max:
                break
            out[i + j] = out[i + j] + x * y
    return out


def _twist_splits(F: FqField, h, a2: int):
    """Every way to split the primes of square-free h into c1 and, by one bit
    each, c2 (bit 1) and c3 (bit 0).  Yields (tw, sign, c_set, cp_bits):
    the twist (c1, c2, c3) with units (1, a2), the sign chi_{a2 c2}(c1), the
    primes of c1 and the (prime, bit) pairs of the others."""
    h_primes = [p for p, _ in fq.factor(F, h)[1]]

    def prod(primes):
        out = fq.P_ONE
        for p in primes:
            out = fq.pmul(F, out, p)
        return out

    for r in range(len(h_primes) + 1):
        for c_set in itertools.combinations(h_primes, r):
            cp_primes = [p for p in h_primes if p not in c_set]
            for eps_bits in itertools.product((0, 1), repeat=len(cp_primes)):
                cp_bits = tuple(zip(cp_primes, eps_bits))
                c_poly = prod(c_set)
                c_eps = prod(p for p, bit in cp_bits if bit)
                c3_poly = prod(p for p, bit in cp_bits if not bit)
                tw = TwistSpec(F, c1=c_poly, c2=c_eps, c3=c3_poly, a1=1, a2=a2)
                yield tw, chi(F, a2, (c_eps,), c_poly), c_set, cp_bits


def decomposition_t4_series(F: FqField, h, a2: int, n_max: int):
    """Right-hand side of the key sieved-series decomposition, as an exact
    central-variable series."""
    q = F.q
    zero = QuadValue(q, 0, 0)
    total = [zero] * (n_max + 1)
    for tw, sign, c_set, cp_bits in _twist_splits(F, h, a2):
        series = [x * sign for x in zc_t4_series(F, tw, n_max)]
        for p in c_set:
            dp = fq.deg(p)
            Fs, _, _ = d4.local_factor_series(q, dp, n_max)
            series = _useries_mul(series, Fs, n_max, zero)
            # |p|^{-s4} shift
            series = [zero] * dp + series[: n_max + 1 - dp]
        for p, bit in cp_bits:
            _, G0s, G1s = d4.local_factor_series(q, fq.deg(p), n_max)
            series = _useries_mul(series, G1s if bit else G0s, n_max, zero)
        total = [t + s for t, s in zip(total, series)]
    # |h|^{-2 s4} shift
    shift = 2 * fq.deg(h)
    if shift > n_max:
        return [zero] * (n_max + 1)
    return [zero] * shift + total[: n_max + 1 - shift]


def check_fundamental_decomposition(F: FqField, h, a2: int, n_max: int):
    if n_max < 0:
        raise ValueError("negative degree bound")
    lhs = sieved_t4_series(F, h, a2, n_max)
    rhs = decomposition_t4_series(F, h, a2, n_max)
    for n, (x, y) in enumerate(zip(lhs, rhs)):
        if x != y:
            return {"ok": False, "first_diff": n,
                    "lhs": repr(x), "rhs": repr(y)}
    return {"ok": True, "n_max": n_max}


# ---------------------------------------------------------------------------
# eighth-root constants at the quartic poles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gamma_plus(q: int, sgn_a: int, rho: str) -> QuarticValue:
    """gamma+ at the pole point: q**(2s-1) (1 - sgn q**-s)/(1 - sgn q**(s-1))."""
    rv = rho_value(q, rho)
    num = 1 - rv.conj() * QuarticValue.root4(q, -3) * sgn_a
    den = 1 - rv * QuarticValue.root4(q, -1) * sgn_a
    lead = rv * rv * QuarticValue.root4(q, 2)
    return lead * num / den


@lru_cache(maxsize=None)
def gamma_minus(q: int, rho: str) -> QuarticValue:
    """gamma- at the pole point: q**(s-1/2) = rho * q**(1/4)."""
    return rho_value(q, rho) * QuarticValue.root4(q, 1)


@lru_cache(maxsize=None)
def gamma_constant(q: int, sgn_a2: int, sgn_theta_prime: int, rho: str) -> QuarticValue:
    """The defining two-term sum over the auxiliary unit class."""
    total = QuarticValue.from_rational(q, 0)
    gm = gamma_minus(q, rho)
    for sgn_t in (1, -1):
        first = gamma_plus(q, sgn_a2, rho) + gm * sgn_t
        second = gamma_plus(q, sgn_t, rho) ** 3 + gm ** 3 * (sgn_a2 * sgn_theta_prime)
        total = total + first * second
    return total


def gamma_table_rows(q: int):
    """The eight tabulated rows: coefficient strings over q**(j/4)."""
    def row(coeffs_re, coeffs_im=()):
        v = QuarticValue.from_rational(q, 0)
        for j, c in enumerate(coeffs_re):
            if c:
                v = v + QuarticValue.root4(q, j, c)
        for j, c in enumerate(coeffs_im):
            if c:
                v = v + QuarticValue.root4(q, j, c) * QuarticValue.i_unit(q)
        return v * 2

    plus = row((1, 1, 10, 7, 20, 7, 10, 1, 1))
    alt = row((1, -1, 10, -7, 20, -7, 10, -1, 1))
    im_pos = row((1, 0, -4, 0, 6, 0, -4, 0, 1), (0, -1, 0, 7, 0, -7, 0, 1, 0))
    im_neg = row((1, 0, -4, 0, 6, 0, -4, 0, 1), (0, 1, 0, -7, 0, 7, 0, -1, 0))
    return [
        {"a2": 1, "rho": "1", "value": plus},
        {"a2": -1, "rho": "-1", "value": plus},
        {"a2": 1, "rho": "-1", "value": alt},
        {"a2": -1, "rho": "1", "value": alt},
        {"a2": 1, "rho": "i", "value": im_pos},
        {"a2": -1, "rho": "-i", "value": im_pos},
        {"a2": 1, "rho": "-i", "value": im_neg},
        {"a2": -1, "rho": "i", "value": im_neg},
    ]


def gamma_table(q: int):
    """Evaluate the defining sum for all eight parameter rows and assert
    equality with the tabulated values."""
    rows = gamma_table_rows(q)
    out = []
    for r in rows:
        rho = r["rho"]
        sgn_tp = 1 if rho in ("1", "-1") else -1
        val = gamma_constant(q, r["a2"], sgn_tp, rho)
        if val != r["value"]:
            raise AssertionError(f"gamma table mismatch at a2={r['a2']} rho={rho}")
        out.append({"a2": r["a2"], "rho": rho, "theta_prime_sgn": sgn_tp,
                    "value": val})
    distinct = {v["value"] for v in out}
    if len(distinct) != 4:
        raise AssertionError("expected exactly four distinct constants")
    return out


# ---------------------------------------------------------------------------
# residues at the quartic poles
# ---------------------------------------------------------------------------

def _chi_tp(sgn_tp: int, degp: int) -> int:
    return 1 if sgn_tp == 1 else (1 if degp % 2 == 0 else -1)


@lru_cache(maxsize=None)
def _local_product_factor(q: int, degp: int, sgn_tp: int, which: str) -> QuarticValue:
    s = _chi_tp(sgn_tp, degp)
    Q = QuarticValue.root4(q, -2 * degp)  # |p|^(-1/2)
    sQ = Q * s
    if which == "c1":
        return (1 - sQ) ** 8 * (1 + sQ) ** 2 * (1 + sQ * 6 + Q * Q)
    if which == "c2":
        return (1 - sQ) ** 8 * (1 + sQ) * (3 + sQ * 7 + Q * Q * 3)
    if which == "c3":
        return ((1 - sQ) ** 8 * (1 + sQ)
                * (1 + sQ * 7 + Q * Q * 13 + sQ * Q * Q * 7 + Q ** 4))
    raise ValueError(which)


def _local_products(F: FqField, primes, sgn_tp: int, which: str) -> QuarticValue:
    q = F.q
    out = QuarticValue.from_rational(q, 1)
    for p in primes:
        out = out * _local_product_factor(q, fq.deg(p), sgn_tp, which)
    return out


@lru_cache(maxsize=None)
def central_l_theta_power7(q: int, sgn_tp: int) -> QuarticValue:
    base = lseries.zeta_half(q) if sgn_tp == 1 else lseries.l_nonsquare_half(q)
    return QuarticValue.from_quad(base) ** 7


def residue_three_quarters(F: FqField, tw: TwistSpec, rho: str) -> QuarticValue:
    """Closed form of the modified residue at the quartic pole class rho,
    for twists with trivial unit on the second character slot (a1 = 1)."""
    if tw.a1 != 1:
        raise ValueError("the residue formula requires a1 = 1")
    q = F.q
    sgn_tp = 1 if rho in ("1", "-1") else -1
    sgn_a2 = F.chi2[tw.a2]
    pref = Fraction(chi(F, tw.a2, (tw.c2,), tw.c1), 8)
    gam = gamma_constant(q, sgn_a2, sgn_tp, rho)
    lpow = central_l_theta_power7(q, sgn_tp)
    c1_primes = [p for p, _ in fq.factor(F, tw.c1)[1]]
    c2_primes = [p for p, _ in fq.factor(F, tw.c2)[1]]
    c3_primes = [p for p, _ in fq.factor(F, tw.c3)[1]]
    d1, d2, d3 = fq.deg(tw.c1), fq.deg(tw.c2), fq.deg(tw.c3)
    out = gam * lpow * pref
    out = out * rho_value(q, rho) ** d1 * QuarticValue.root4(q, -d1)
    out = out * _local_products(F, c1_primes, sgn_tp, "c1")
    out = out * QuarticValue.root4(q, -2 * d2)
    out = out * _local_products(F, c2_primes, sgn_tp, "c2")
    out = out * _local_products(F, c3_primes, sgn_tp, "c3")
    return out


@lru_cache(maxsize=None)
def _u_factor(q: int, degp: int, rho: str) -> QuarticValue:
    """U_p at the pole point: |p|^(s-1) (1-|p|^(1-2s))/(1-|p|^-1)."""
    rv = rho_value(q, rho)
    lead = rv ** degp * QuarticValue.root4(q, -degp)
    num = 1 - rv.conj() ** (2 * degp) * QuarticValue.root4(q, -2 * degp)
    den = 1 - QuarticValue.root4(q, -4 * degp)
    return lead * num / den


def residue_three_quarters_sum_route(F: FqField, tw: TwistSpec, rho: str) -> QuarticValue:
    """The same residue through the intermediate divisor sum of the proof:
    an independent assembly from the one-variable constituents."""
    if tw.a1 != 1:
        raise ValueError("the residue formula requires a1 = 1")
    q = F.q
    rv = rho_value(q, rho)
    sgn_tp = 1 if rho in ("1", "-1") else -1
    sgn_a2 = F.chi2[tw.a2]
    unit_tp = 1 if sgn_tp == 1 else F.nonsquare_unit
    unit_mix = F.mul[unit_tp][tw.a2]

    def u_of(m) -> QuarticValue:
        out = QuarticValue.from_rational(q, 1)
        for p, _ in fq.factor(F, m)[1]:
            out = out * _u_factor(q, fq.deg(p), rho)
        return out

    def v_of(m) -> QuarticValue:
        out = QuarticValue.from_rational(q, 1)
        for p, _ in fq.factor(F, m)[1]:
            u = _u_factor(q, fq.deg(p), rho)
            out = out * (1 + u * u * 3)
        return out

    def w_of(m) -> QuarticValue:
        out = QuarticValue.from_rational(q, 1)
        for p, _ in fq.factor(F, m)[1]:
            u = _u_factor(q, fq.deg(p), rho)
            out = out * u * (u * u + 3) / (1 + u * u * 3)
        return out

    def pole_unit_product(m, power: int) -> QuarticValue:
        """prod over p | m of (1 - |p|^{2 s4 - 2})**power at the pole."""
        out = QuarticValue.from_rational(q, 1)
        for p, _ in fq.factor(F, m)[1]:
            dp = fq.deg(p)
            t = rv ** (2 * dp) * QuarticValue.root4(q, -2 * dp)
            out = out * (1 - t) ** power
        return out

    def zeta_factor(w_kind: str) -> QuarticValue:
        # both needed zeta arguments give 1/(1 - rho^2 sqrt q) globally
        den = 1 - rv * rv * QuarticValue.root4(q, 2)
        base = 1 / den
        # remove the Euler factors at primes of c
        for p, _ in fq.factor(F, tw.c)[1]:
            dp = fq.deg(p)
            if w_kind == "six":
                t = rv ** (6 * dp) * QuarticValue.root4(q, -2 * dp)
            else:
                t = rv ** (2 * dp) * QuarticValue.root4(q, -2 * dp)
            base = base * (1 - t)
        return base

    # S: the double divisor sum
    S = QuarticValue.from_rational(q, 0)
    for e in fq.divisors_monic(F, tw.c1):
        for ep in fq.divisors_monic(F, tw.c3):
            ee = fq.pmul(F, e, ep)
            x = fq.pmul(F, fq.pmul(F, fq.pdivmod(F, tw.c3, ep)[0], e), tw.c2)
            dx = fq.deg(x)
            chi_ee = _chi_tp(sgn_tp, fq.deg(ee))
            term = QuarticValue.from_rational(q, chi_ee)
            term = term * u_of(ee)
            term = term * rv ** (3 * dx) * QuarticValue.root4(q, -9 * dx)
            term = term * Fraction(fq.euler_phi(F, x)) ** 3
            term = term * v_of(x)
            term = term * pole_unit_product(x, -3)
            S = S + term
    c13 = fq.pmul(F, tw.c1, tw.c3)
    out = Fraction(chi(F, unit_mix, (tw.c2,), tw.c1), 8)
    out = out * rv.conj() ** (3 * fq.deg(tw.c)) * QuarticValue.root4(q, -3 * fq.deg(tw.c))
    out = out * rv.conj() ** fq.deg(tw.c2) * QuarticValue.root4(q, -fq.deg(tw.c2))
    out = out * w_of(tw.c2)
    out = out * Fraction(fq.euler_phi(F, c13), F.q ** fq.deg(c13))
    out = out * pole_unit_product(c13, -1)
    out = out * zeta_factor("six") * zeta_factor("two") ** 6
    out = out * Fraction(fq.euler_phi(F, tw.c), F.q ** fq.deg(tw.c))
    gam = gamma_constant(q, sgn_a2, sgn_tp, rho)
    out = out * gam
    out = out * S
    return out


def explicit_residue_c1(q: int, rho: str) -> QuarticValue:
    """Direct residue of the centre specialization of the explicit rational
    function at the quartic pole class, by exact division in the tower."""
    rv = rho_value(q, rho)
    t0 = rv.conj() * QuarticValue.root4(q, -3)
    zc = QuarticValue.root4(q, -2)  # q^(-1/2)
    point = (zc, zc, zc, t0)
    num = QuarticValue.from_rational(q, 0)
    from . import d4data
    for e1, e2, e3, e4, a, c in d4data.NUM_TERMS:
        term = QuarticValue.root4(q, 4 * a, c)
        for x, e in zip(point, (e1, e2, e3, e4)):
            term = term * x ** e
        num = num + term
    den = QuarticValue.from_rational(q, 1)
    for a, exps in d4data.DEN_FACTORS:
        if exps == (2, 2, 2, 4):
            continue  # the quartic pole factor, handled below
        term = QuarticValue.root4(q, 4 * a)
        for x, e in zip(point, exps):
            term = term * x ** e
        den = den * (1 - term)
    # (1 - q^3 t^4) = prod over classes (1 - rho' q^(3/4) t); remove ours
    for other in RHO_CLASSES:
        if other == rho:
            continue
        den = den * (1 - rho_value(q, other) * QuarticValue.root4(q, 3) * t0)
    return num / den


# ---------------------------------------------------------------------------
# residue of the square-free-conductor series: divisor-sum route vs
# degree-graded product route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _local_value_F(q: int, degp: int, rho: str) -> QuarticValue:
    z = rho_value(q, rho).conj() ** degp * QuarticValue.root4(q, -3 * degp)
    qloc = QuarticValue.root4(q, 4 * degp)
    return d4.local_F_value(z, qloc)


@lru_cache(maxsize=None)
def _local_value_G(q: int, degp: int, rho: str, a: int) -> QuarticValue:
    z = rho_value(q, rho).conj() ** degp * QuarticValue.root4(q, -3 * degp)
    Q = QuarticValue.root4(q, -2 * degp)
    return d4.local_G_value(z, Q, a)


def residue_of_sieved(F: FqField, h, a2: int, rho: str) -> QuarticValue:
    """Modified residue of the congruence-restricted series at the pole
    class, assembled from the decomposition and the twisted-series residue
    formula."""
    q = F.q
    rv = rho_value(q, rho)
    total = QuarticValue.from_rational(q, 0)
    for tw, sign, c_set, cp_bits in _twist_splits(F, h, a2):
        term = residue_three_quarters(F, tw, rho) * sign
        for p in c_set:
            dp = fq.deg(p)
            term = term * _local_value_F(q, dp, rho)
            term = term * rv.conj() ** dp * QuarticValue.root4(q, -3 * dp)
        for p, bit in cp_bits:
            term = term * _local_value_G(q, fq.deg(p), rho, bit)
        total = total + term
    # |h|^{-2 s4} at the pole
    dh = fq.deg(h)
    total = total * rv.conj() ** (2 * dh) * QuarticValue.root4(q, -6 * dh)
    return total


ZHANG_CORE = (1, 4, 11, 10, -11, 0, 11, -4, -1)


def zhang_poly_coeffs():
    """Expanded coefficients of (1-x)^5 (1+x) (1+4x+11x^2+10x^3-11x^4
    +11x^6-4x^7-x^8)."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out
    poly = [1]
    for _ in range(5):
        poly = mul(poly, [1, -1])
    poly = mul(poly, [1, 1])
    poly = mul(poly, list(ZHANG_CORE))
    return poly


def zhang_value(x):
    """P(x) by Horner's rule, for a tower value or an mpmath number."""
    acc = 0
    for c in reversed(zhang_poly_coeffs()):
        acc = x * acc + c
    return acc


def per_prime_residue_identity(F: FqField, degp: int, rho: str) -> bool:
    """1 - chi(p)|p|^{-3/2} (wF + wG0 + wG1)(p) == P(chi(p)/sqrt|p|) exactly.

    wF collects the local weight of a prime sent to the F-branch of the
    decomposition, wG0/wG1 the two branches over the complement; the identity
    per degree class is the exact content of the residue comparison.
    """
    q = F.q
    rv = rho_value(q, rho)
    sgn_tp = 1 if rho in ("1", "-1") else -1
    s = _chi_tp(sgn_tp, degp)
    # branch weights, built on the three local product shapes
    loc1, loc2, loc3 = (_local_product_factor(q, degp, sgn_tp, which)
                        for which in ("c1", "c2", "c3"))
    wF = (rv ** degp * QuarticValue.root4(q, -degp) * loc1
          * _local_value_F(q, degp, rho)
          * rv.conj() ** degp * QuarticValue.root4(q, -3 * degp))
    wG1 = QuarticValue.root4(q, -2 * degp) * loc2 * _local_value_G(q, degp, rho, 1)
    wG0 = loc3 * _local_value_G(q, degp, rho, 0)
    w = wF + wG0 + wG1
    lhs = 1 - QuarticValue.root4(q, -6 * degp) * w * s
    x = QuarticValue.root4(q, -2 * degp) * s
    return lhs == zhang_value(x)


@lru_cache(maxsize=None)
def degree_class_weight(q: int, m: int, rho: str) -> QuarticValue:
    """w-tilde_m: the mu-sum weight a degree-m irreducible contributes to the
    restricted-series residue, as the exact value 1 - P(chi/sqrt|p|)."""
    sgn_tp = 1 if rho in ("1", "-1") else -1
    s = _chi_tp(sgn_tp, m)
    x = QuarticValue.root4(q, -2 * m) * s
    return 1 - zhang_value(x)


def h_layers_collapsed(F: FqField, rho: str, deg_max: int):
    """Degree layers of the mu-weighted residue sum, collapsed through
    multiplicativity: the coefficients of prod_m (1 - w_m u^m)^Irr(m).

    Valid because the per-h residue equals the product of per-prime weights
    (asserted exactly against the literal assembly in the tests)."""
    from math import comb
    q = F.q
    coeffs = [QuarticValue.from_rational(q, 1)] + \
        [QuarticValue.from_rational(q, 0) for _ in range(deg_max)]
    for m in range(1, deg_max + 1):
        w = degree_class_weight(q, m, rho)
        count = fq.irreducible_count(F, m)
        # multiply by (1 - w u^m)^count via the truncated binomial expansion
        sparse = []
        wj = QuarticValue.from_rational(q, 1)
        for j in range(1, deg_max // m + 1):
            wj = wj * w
            sparse.append((j * m, wj * ((-1) ** j * comb(count, j))))
        new = list(coeffs)
        for shift, coef in sparse:
            for k in range(0, deg_max + 1 - shift):
                if not coeffs[k].is_zero():
                    new[k + shift] = new[k + shift] + coeffs[k] * coef
        coeffs = new
    return coeffs


def _zhang_abs_tail_constant(q: int) -> float:
    """C with |1 - P(x)| <= C |x|**3 for |x| <= q**-1/2 (q >= 5)."""
    total = 0.0
    xcap = q ** -0.5
    for k, c in enumerate(zhang_poly_coeffs()):
        if k >= 3 and c:
            total += abs(c) * xcap ** (k - 3)
    return total


def zhang_euler_product(F: FqField, sgn: int, deg_max: int, dps: int = 50):
    """Partial products over the monic irreducibles p of P(chi(p)/sqrt|p|),
    chi(p) = sgn**deg(p), truncated at degree M = 1..deg_max.

    Returns (partials, tail_logs), both indexed by M - 1: the products as
    mpf at dps + 10 digits, and float bounds on the log of the factors left
    out, sum over k > M of C q**(-k/2) / (k (1 - y_k)), y_k = C q**(-3k/2),
    from Irr(k) <= q**k / k and |log P(x)| <= y / (1 - y) for C|x|**3 = y.
    The 400 terms summed leave out less than the float rounding.
    """
    import mpmath
    if sgn not in (1, -1):
        raise ValueError(f"sgn must be 1 or -1, not {sgn!r}")
    if deg_max < 2:
        raise ValueError(f"need deg_max >= 2, not {deg_max}")
    q = F.q
    partials = []
    with mpmath.workdps(dps + 10):
        prod = mpmath.mpf(1)
        for m in range(1, deg_max + 1):
            x = _chi_tp(sgn, m) * mpmath.power(q, -mpmath.mpf(m) / 2)
            prod *= zhang_value(x) ** fq.irreducible_count(F, m)
            partials.append(prod)
    C = _zhang_abs_tail_constant(q)
    terms = [C * q ** (-0.5 * k) / (k * (1 - C * q ** (-1.5 * k)))
             for k in range(2, deg_max + 401)]
    return partials, [sum(terms[M - 1:]) for M in range(1, deg_max + 1)]


def h_tail_bound(F: FqField, H: int, rho: str = "1", extra: int = 30) -> float:
    """Upper bound on the absolute mu-sum tail past degree H: the k > H
    coefficients of prod_m (1 + |w_m| u^m)^Irr(m) with the exact per-degree
    weights, plus the analytic remainder of its logarithm past the window."""
    import math
    from math import comb
    q = F.q
    K = H + extra
    C = _zhang_abs_tail_constant(q)
    coeffs = [0.0] * (K + 1)
    coeffs[0] = 1.0
    for m in range(1, K + 1):
        if m <= 16:
            w_abs = abs(tower_float(degree_class_weight(q, m, rho)))
        else:
            w_abs = C * q ** (-1.5 * m)
        count = fq.irreducible_count(F, m)
        sparse = [(j * m, comb(count, j) * w_abs ** j)
                  for j in range(1, K // m + 1)]
        new = list(coeffs)
        for shift, coef in sparse:
            for k in range(0, K + 1 - shift):
                if coeffs[k]:
                    new[k + shift] += coeffs[k] * coef
        coeffs = new
    # remainder of log G(1) beyond the window
    rem_log = C * sum(q ** (-0.5 * m) / m for m in range(K + 1, K + 200))
    window_tail = sum(coeffs[H + 1:])
    total_window = sum(coeffs)
    return window_tail + total_window * (math.exp(rem_log) - 1.0)


def residue_z0_three_quarters(F: FqField, a2: int, rho: str,
                              h_deg_max: int = 4, prod_deg_max: int = 8,
                              extended_deg: int = 12):
    """Two-route evaluation of the residue of the square-free-conductor
    series at the quartic pole class.

    Left: mu-weighted sum of restricted-series residues over h of degree up
    to h_deg_max, each term assembled literally from the decomposition and
    the twisted-series residue formula (plus a multiplicativity-collapsed
    continuation of the degree layers for the convergence report).  Right:
    the closed form with the degree-truncated product of the Zhang
    polynomial over irreducibles.  All values exact; tail bounds numeric.
    """
    if h_deg_max < 0:
        raise ValueError(f"need h_deg_max >= 0, not {h_deg_max}")
    q = F.q
    sgn_tp = 1 if rho in ("1", "-1") else -1
    # product route: the per-degree values are exact, but the Irr(m)-fold
    # powers explode as exact rationals, so the reported truncations are
    # high-precision numerics (the comparison is tail-bounded anyway)
    partials, prod_tail_logs = zhang_euler_product(F, sgn_tp, prod_deg_max)
    sgn_a2 = F.chi2[a2]
    pref = (gamma_constant(q, sgn_a2, sgn_tp, rho)
            * central_l_theta_power7(q, sgn_tp) * Fraction(1, 8))

    layers = []
    running = QuarticValue.from_rational(q, 0)
    h_partials = []
    for dh in range(h_deg_max + 1):
        layer = QuarticValue.from_rational(q, 0)
        for h in fq.enumerate_monic(F, dh, "squarefree"):
            mu = fq.mobius(F, h)
            layer = layer + residue_of_sieved(F, h, a2, rho) * mu
        running = running + layer
        layers.append(layer)
        h_partials.append(running)

    collapsed = h_layers_collapsed(F, rho, extended_deg)
    extended_partials = []
    acc = QuarticValue.from_rational(q, 0)
    for k in range(extended_deg + 1):
        acc = acc + collapsed[k] * pref
        extended_partials.append(acc)

    import mpmath
    with mpmath.workdps(60):
        # the float rounding of pref is pinned by perfbench/reference.json
        pref_c = mpmath.mpc(tower_float(pref))
        prod_partials = [complex(pref_c * p) for p in partials]
    tails = [h_tail_bound(F, H, rho) for H in range(extended_deg + 1)]
    return {"h_partials": h_partials, "h_layers": layers,
            "extended_partials": extended_partials,
            "h_tail_bounds": tails,
            "product_partials": prod_partials,
            "product_tail_logs": prod_tail_logs,
            "closed_prefactor": pref}


# ---------------------------------------------------------------------------
# residues at the central-variable boundary point (symbolic identity)
# ---------------------------------------------------------------------------

def check_residue_w1():
    """Exact rational-function identity for the modified residue of the
    untwisted series at the boundary pole in the central variable, in the
    three outer gradings (t1, t2, t3) with symbolic q."""
    from .rings import MultiPoly, RationalFunction
    from . import d4data

    def build():
        """Cancel the boundary zeta pole and evaluate at t4 = 1/q."""
        num = MultiPoly(3, accumulate(((e1, e2, e3), ParamPoly.q_power(a - e4, c))
                                      for e1, e2, e3, e4, a, c in d4data.NUM_TERMS))
        dens = [MultiPoly.const(3, 1)
                - MultiPoly.monomial(3, exps[:3], ParamPoly.q_power(a - exps[3]))
                for a, exps in d4data.DEN_FACTORS
                if exps != (0, 0, 0, 1)]  # the boundary pole, cancelled by the zeta
        return RationalFunction(num, dens)

    # target: zeta-product form rewritten in the t variables
    def zeta_rhs():
        dens = []
        dens.append(MultiPoly.const(3, 1)
                    - MultiPoly.monomial(3, (2, 2, 2), ParamPoly.q_power(2)))
        for i in range(3):
            exps = tuple(2 if k == i else 0 for k in range(3))
            dens.append(MultiPoly.const(3, 1)
                        - MultiPoly.monomial(3, exps, ParamPoly.q_power(1)))
        for i in range(3):
            for j in range(i + 1, 3):
                exps = tuple(1 if k in (i, j) else 0 for k in range(3))
                dens.append(MultiPoly.const(3, 1)
                            - MultiPoly.monomial(3, exps, ParamPoly.q_power(1)))
        return RationalFunction(MultiPoly.const(3, 1), dens)

    ok = build().equals_exact(zeta_rhs())
    return {"boundary_identity": ok, "ok": ok}
