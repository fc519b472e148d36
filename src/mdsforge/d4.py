"""The explicit rank-4 rational function and everything extracted from it:
power-series coefficients a(k1,k2,k3,l;q), the correction polynomials in the
outer/central variables, centre specializations, and the local factors of the
sieved-series decomposition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import d4data
from .rings import (MultiPoly, ParamPoly, PP_ONE, QuadValue, RationalFunction,
                    TruncSeries, accumulate, expand)


# ---------------------------------------------------------------------------
# the explicit function and its normalized form
# ---------------------------------------------------------------------------

def explicit_f() -> RationalFunction:
    """f(z;q) = Z(q z1, q z2, q z3, q z4; 1/q) -- the invariant normalization.

    On the data level each term c*q**a*z**e becomes c*q**(|e|-a)*z**e.
    """
    num = MultiPoly(4, accumulate(((e1, e2, e3, e4), ParamPoly.q_power(e1 + e2 + e3 + e4 - a, c))
                                  for e1, e2, e3, e4, a, c in d4data.NUM_TERMS))
    den = []
    for a, e in d4data.DEN_FACTORS:
        den.append(MultiPoly.const(4, 1)
                   - MultiPoly.monomial(4, e, ParamPoly.q_power(sum(e) - a)))
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# series expansions (cached)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def f_series_total(cutoff: int = 10) -> TruncSeries:
    """Expansion of f to total degree ``cutoff`` (houses the a-table)."""
    return expand(explicit_f(), cutoff)


@lru_cache(maxsize=None)
def f_series_capped(cap_outer: int = 12, cap_center: int = 10) -> TruncSeries:
    """Expansion with per-variable caps (outer z1..z3, central z4)."""
    caps = (cap_outer, cap_outer, cap_outer, cap_center)
    return expand(explicit_f(), 3 * cap_outer + cap_center, caps)


DEFAULT_CUTOFF = 10


def a_coeff(k1: int, k2: int, k3: int, l: int, cutoff: int = DEFAULT_CUTOFF) -> ParamPoly:
    """a(k1,k2,k3,l;q) as an exact polynomial in q."""
    if k1 + k2 + k3 + l > cutoff:
        raise ValueError(f"index total {k1 + k2 + k3 + l} exceeds cutoff {cutoff}")
    return f_series_total(cutoff).coefficient((k1, k2, k3, l))


# ---------------------------------------------------------------------------
# correction polynomials: outer (indexed by the central exponent l) and
# central (indexed by the outer exponent triple)
# ---------------------------------------------------------------------------

class StabilizationError(ValueError):
    """Raised when a slice of the expansion fails to stabilize to a
    polynomial with the required margin (cutoff too small)."""


def _certify_poly_outer(slice_terms, cap_outer, margin=2):
    """Check that all outer-degree layers above the observed degree vanish."""
    degs = [max(e) for e in slice_terms] or [0]
    observed = max(degs)
    if observed > cap_outer - margin:
        raise StabilizationError(
            f"cutoff too small: outer degree {observed} leaves no {margin}-layer margin "
            f"at cap {cap_outer}")
    return observed


def _clear_geometric(terms, variables, cap):
    """Multiply {exponent: ParamPoly} by the product of (1 - z_i) over
    ``variables``, keeping exponents <= cap: one shifted difference
    out[e + u_i] -= c per variable, taken only while e_i < cap.

    The slices are truncated at the cap, so the product is exact only there.
    """
    for i in variables:
        terms = accumulate(((e[:i] + (e[i] + 1,) + e[i + 1:], -c)
                            for e, c in terms.items() if e[i] < cap), dict(terms))
    return terms


@lru_cache(maxsize=None)
def p_poly(l: int, cap_outer: int = 12, cap_center: int = 10) -> MultiPoly:
    """The symmetric polynomial in (z1,z2,z3) multiplying z4**l.

    Even l slices carry the 1/((1-z1)(1-z2)(1-z3)) prefactor, which is
    cleared before certifying polynomial stabilization.
    """
    if l > cap_center:
        raise ValueError(f"l={l} beyond central cap {cap_center}")
    series = f_series_capped(cap_outer, cap_center)
    terms = {e[:3]: c for e, c in series.terms.items() if e[3] == l}
    if l % 2 == 0:
        terms = _clear_geometric(terms, range(3), cap_outer)
    _certify_poly_outer(terms, cap_outer)
    return MultiPoly(3, terms)


@lru_cache(maxsize=None)
def _outer_slices(cap_outer: int, cap_center: int) -> dict:
    """The exponents of ``f_series_capped`` grouped by outer triple:
    (k1, k2, k3) -> [(k1, k2, k3, l), ...]."""
    out = {}
    for e in f_series_capped(cap_outer, cap_center).terms:
        out.setdefault(e[:3], []).append(e)
    return out


@lru_cache(maxsize=None)
def q_poly(k1: int, k2: int, k3: int, cap_outer: int = 12, cap_center: int = 10) -> MultiPoly:
    """The polynomial in the central variable multiplying z1^k1 z2^k2 z3^k3."""
    if max(k1, k2, k3) > cap_outer:
        raise ValueError("outer index beyond cap")
    series = f_series_capped(cap_outer, cap_center).terms
    terms = {e[3:]: series[e] for e in _outer_slices(cap_outer, cap_center).get((k1, k2, k3), ())}
    if (k1 + k2 + k3) % 2 == 0:
        terms = _clear_geometric(terms, (0,), cap_center)
    observed = max((e[0] for e in terms), default=0)
    if observed > cap_center - 2:
        raise StabilizationError(
            f"cutoff too small: central degree {observed} at cap {cap_center}")
    return MultiPoly(1, terms)


def check_pq_functional_eqs(l_max: int = 8, k_max: int = 8):
    """Exact functional equations for the correction polynomials.

    Outer side: P_l(z1,z2,z3) = (sqrt(q) z1)**(l-a_l) P_l(1/(q z1), z2, z3),
    and the central-variable analogue, with a_n = n mod 2.  Returns a report
    list; failures carry the index and the first mismatching monomial.
    """
    failures = []
    checked = []
    for l in range(l_max + 1):
        al = l % 2
        P = p_poly(l)
        # RHS: monomial z1^j -> q^((l-al)/2 - j) z1^(l-al-j)
        ok = all(l - al - e[0] >= 0 for e in P.terms)
        rhs = MultiPoly(3, accumulate(
            ((l - al - e[0], e[1], e[2]),
             c * ParamPoly.q_power((l - al) - 2 * e[0], 1, half_units=True))
            for e, c in P.terms.items()))
        if not ok or not (P - rhs).is_zero():
            failures.append(("outer", l))
        else:
            checked.append(("outer", l))
    seen = set()
    for k1 in range(k_max + 1):
        for k2 in range(k_max + 1 - k1):
            for k3 in range(k_max + 1 - k1 - k2):
                kk = k1 + k2 + k3
                if kk > k_max or (k1, k2, k3) in seen:
                    continue
                seen.add((k1, k2, k3))
                ak = kk % 2
                Q = q_poly(k1, k2, k3)
                ok = all(kk - ak - j >= 0 for (j,) in Q.terms)
                rhs = MultiPoly(1, accumulate(
                    ((kk - ak - j,), c * ParamPoly.q_power((kk - ak) - 2 * j, 1, half_units=True))
                    for (j,), c in Q.terms.items()))
                if not ok or not (Q - rhs).is_zero():
                    failures.append(("central", (k1, k2, k3)))
                else:
                    checked.append(("central", (k1, k2, k3)))
    return {"checked": len(checked), "failures": failures}


def reconstruct_from_p(cutoff: int = 10) -> TruncSeries:
    """Resum the outer correction polynomials against the geometric prefactor
    and compare with the direct expansion (exact to the cutoff)."""
    base = TruncSeries(4, cutoff)
    acc = base.clone_empty()
    for l in range(cutoff + 1):
        P = p_poly(l)
        lifted = base.clone_empty()
        for e, c in P.terms.items():
            e4 = (e[0], e[1], e[2], l)
            if sum(e4) <= cutoff:
                lifted.terms[e4] = c
        if l % 2 == 0:
            for var in range(3):
                exps = tuple(1 if i == var else 0 for i in range(4))
                lifted = lifted.mul_geometric(exps, PP_ONE)
        acc = acc + lifted
    return acc


def reconstruct_from_q(cutoff: int = 10) -> TruncSeries:
    # the |k| = cutoff slices have central degree up to the cutoff, so give
    # the central direction the same 2-layer margin the outer one gets
    cap_center = cutoff + 2
    base = TruncSeries(4, cutoff)
    acc = base.clone_empty()
    for k1 in range(cutoff + 1):
        for k2 in range(cutoff + 1 - k1):
            for k3 in range(cutoff + 1 - k1 - k2):
                Q = q_poly(k1, k2, k3, 12, cap_center)
                lifted = base.clone_empty()
                for e, c in Q.terms.items():
                    e4 = (k1, k2, k3, e[0])
                    if sum(e4) <= cutoff:
                        lifted.terms[e4] = c
                if (k1 + k2 + k3) % 2 == 0:
                    lifted = lifted.mul_geometric((0, 0, 0, 1), PP_ONE)
                acc = acc + lifted
    return acc


# ---------------------------------------------------------------------------
# centre specializations (outer variables at +-q**(-1/2))
# ---------------------------------------------------------------------------
#
# Closed forms, with Q denoting q**(-1/2):
#   odd part:    z (1 + 7 z^2 + 7 z^4 + z^6) / ((1-z^2)^7 (1 - q z^4))
#   even at +:   (1-Q)^-3 (1 + (7-14Q+6Q^2-Q^3) z^2 + 7(1-4Q+4Q^2-Q^3) z^4
#                 + (1-6Q+14Q^2-7Q^3) z^6 - Q^3 z^8) / ((1-z^2)^7 (1-q z^4))
#   even at -:   (1+Q)^-3 (1 + (7+14Q+6Q^2+Q^3) z^2 + 7(1+4Q+4Q^2+Q^3) z^4
#                 + (1+6Q+14Q^2+7Q^3) z^6 + Q^3 z^8) / ((1-z^2)^7 (1-q z^4))

ODD_NUM_COEFFS = (0, 1, 0, 7, 0, 7, 0, 1)  # z * (1 + 7z^2 + 7z^4 + z^6)


def even_num_coeffs(sign: int):
    """z-coefficients (Laurent in Q) of the even-part numerator at sign*Q args.

    Returns a dict z-exponent -> polynomial-in-Q given as {Q-exponent: coef}.
    The odd Q-powers flip sign with the argument sign (the + specialization
    carries the alternating signs).
    """
    s = -sign
    return {
        0: {0: 1},
        2: {0: 7, 1: 14 * s, 2: 6, 3: s},
        4: {0: 7, 1: 28 * s, 2: 28, 3: 7 * s},
        6: {0: 1, 1: 6 * s, 2: 14, 3: 7 * s},
        8: {3: s},
    }


def _qpoly_from_qexp(table) -> ParamPoly:
    """{Q-exponent: coef} -> ParamPoly in q (Q = q**(-1/2))."""
    return ParamPoly(accumulate((-k, Fraction(c)) for k, c in table.items()))


def specialized_odd_closed(n_max: int) -> TruncSeries:
    """z-series of the odd part at outer variables q**(-1/2) (symbolic q)."""
    num = MultiPoly(1, accumulate(((j,), ParamPoly.const(c))
                                  for j, c in enumerate(ODD_NUM_COEFFS)))
    den = [MultiPoly.const(1, 1) - MultiPoly.monomial(1, (2,), PP_ONE)] * 7
    den.append(MultiPoly.const(1, 1) - MultiPoly.monomial(1, (4,), ParamPoly.q_power(1)))
    return expand(RationalFunction(num, den), n_max)


def specialized_even_closed(sign: int, n_max: int) -> TruncSeries:
    """z-series of (1 -+ Q)^3 * even part at outer variables sign*q**(-1/2).

    The non-polynomial prefactor (1 -+ Q)^-3 is cleared, so both sides of the
    comparison live in Laurent polynomials of q**(1/2).
    """
    num = MultiPoly(1, accumulate(((j,), _qpoly_from_qexp(tab))
                                  for j, tab in even_num_coeffs(sign).items()))
    den = [MultiPoly.const(1, 1) - MultiPoly.monomial(1, (2,), PP_ONE)] * 7
    den.append(MultiPoly.const(1, 1) - MultiPoly.monomial(1, (4,), ParamPoly.q_power(1)))
    return expand(RationalFunction(num, den), n_max)


def specialize_center_series(parity: str, sign: int, n_max: int,
                             cap_outer: int = 12, cap_center: int = 10) -> TruncSeries:
    """Series route: substitute z1 = z2 = z3 = sign * q**(-1/2) into the
    extracted correction polynomials.

    Returns the z-series whose l-th coefficient is the specialized outer
    correction polynomial, over the requested parity class.  For the even
    class this is the specialization with the geometric prefactor cleared,
    which is exactly what specialized_even_closed produces.
    """
    n_max = min(n_max, cap_center)
    out = TruncSeries(1, n_max)
    want = 1 if parity == "odd" else 0
    for l in range(n_max + 1):
        if l % 2 != want:
            continue
        P = p_poly(l, cap_outer, cap_center)
        val = ParamPoly()
        for e, c in P.terms.items():
            tot = sum(e)
            factor = ParamPoly.q_power(-tot, sign ** tot if tot else 1, half_units=True)
            val = val + c * factor
        if not val.is_zero():
            out.terms[(l,)] = val
    return out


# ---------------------------------------------------------------------------
# local factors of the sieved-series decomposition
# ---------------------------------------------------------------------------
#
# With the outer variables at |p|**(-1/2) and w the central-variable value:
#   F  = (odd part)/w^3 - 1/w^2          (odd exponents >= 3, renormalized)
#   G(a) = [even(+) - (1-Q)^-3]/(2 w^2) + (-1)^a [even(-) - (1+Q)^-3]/(2 w^2)

def f_odd_center_value(z, qloc):
    """Odd part at outer args qloc**(-1/2); z and qloc in any common ring."""
    z2 = z * z
    z4 = z2 * z2
    num = z * (1 + 7 * z2 + 7 * z4 + z2 * z4)
    return num / ((1 - z2) ** 7 * (1 - qloc * z4))


def f_even_center_value(z, qloc_inv_sqrt, sign: int):
    """Even part at outer args sign*qloc**(-1/2); pass Q = qloc**(-1/2)."""
    Q = qloc_inv_sqrt
    qloc = 1 / (Q * Q)
    pref = (1 - sign * Q) ** (-3)
    num = 0
    for j, tab in even_num_coeffs(sign).items():
        coef = 0
        for k, c in tab.items():
            coef = coef + c * Q ** k
        num = num + coef * z ** j
    z2 = z * z
    return pref * num / ((1 - z2) ** 7 * (1 - qloc * z2 * z2))


def f_even_center_split(z, qloc_inv_sqrt, part: int):
    """(even(+) + part*even(-))/2 with part in {+1, -1}."""
    plus = f_even_center_value(z, qloc_inv_sqrt, +1)
    minus = f_even_center_value(z, qloc_inv_sqrt, -1)
    if part == +1:
        return (plus + minus) / 2
    return (plus - minus) / 2


def local_F_value(z, qloc):
    """F at outer args qloc**(-1/2) and central value z (z != 0)."""
    z2 = z * z
    z4 = z2 * z2
    frac = (1 + 7 * z2 + 7 * z4 + z2 * z4) / ((1 - z2) ** 7 * (1 - qloc * z4))
    return (frac - 1) / z2


def local_G_value(z, qloc_inv_sqrt, a: int):
    """G^(a) at outer args qloc**(-1/2) and central value z (z != 0)."""
    Q = qloc_inv_sqrt
    plus = f_even_center_value(z, Q, +1) - (1 - Q) ** (-3)
    minus = f_even_center_value(z, Q, -1) - (1 + Q) ** (-3)
    half = Fraction(1, 2)
    combo = plus * half + minus * (half if a % 2 == 0 else -half)
    return combo / (z * z)


# -- univariate series versions over Q(sqrt q), graded in the central
#    variable of the *global* series (z = t**degp substitution applied) -----

def _geom_univ(coeffs, caps_n, ratio_exp, ratio_coef, power=1):
    """Multiply a coefficient list by (1 - ratio_coef*t^ratio_exp)^-power:
    ``power`` passes of c[j] += ratio_coef * c[j - ratio_exp], j increasing."""
    out = list(coeffs)
    for _ in range(power):
        for j in range(ratio_exp, caps_n + 1):
            out[j] = out[j] + ratio_coef * out[j - ratio_exp]
    return out


def _qpow_half(q: int, k: int) -> QuadValue:
    """q**(k/2) in Q(sqrt q), k any integer."""
    if k % 2 == 0:
        j = k // 2
        return QuadValue(q, Fraction(q) ** j, 0)
    j = (k - 1) // 2
    return QuadValue(q, 0, Fraction(q) ** j)


def explicit_center_t4_series(q: int, n_max: int):
    """Taylor coefficients in the central variable of the explicit function
    with the outer variables at the centre: the brute-force oracle series.

    Entry n is the t**n coefficient of Z(q**-1/2, q**-1/2, q**-1/2, t; q),
    exactly in Q(sqrt q).
    """
    zero = QuadValue(q, 0, 0)
    series = [zero] * (n_max + 1)
    for e1, e2, e3, e4, a, c in d4data.NUM_TERMS:
        if e4 <= n_max:
            series[e4] = series[e4] + _qpow_half(q, 2 * a - (e1 + e2 + e3)) * c
    for a, exps in d4data.DEN_FACTORS:
        e123 = exps[0] + exps[1] + exps[2]
        e4 = exps[3]
        ratio = _qpow_half(q, 2 * a - e123)
        if e4 == 0:
            inv = (QuadValue(q, 1, 0) - ratio).inverse()
            series = [s * inv for s in series]
        else:
            out = list(series)
            acc = ratio
            k = 1
            while k * e4 <= n_max:
                for j in range(0, n_max + 1 - k * e4):
                    if not series[j].is_zero():
                        out[j + k * e4] = out[j + k * e4] + series[j] * acc
                acc = acc * ratio
                k += 1
            series = out
    return series


@lru_cache(maxsize=None)
def local_factor_series(q: int, degp: int, n_max: int):
    """(F, G0, G1) as t-series coefficient tuples up to n_max over Q(sqrt q).

    t is the grading variable of the global central direction; the local
    argument is z = t**degp.
    """
    zero = QuadValue(q, 0, 0)
    one = QuadValue(q, 1, 0)

    def lift(vals):
        out = [zero] * (n_max + 1)
        for j, c in enumerate(vals):
            if j * degp > n_max:
                break
            out[j * degp] = c
        return tuple(out)

    # F: ((1+7z^2+7z^4+z^6)/den - 1)/z^2
    # build in z-units first (cap generous), then shift by z^-2 and lift
    zcap = n_max // degp + 3
    numz = [Fraction(0)] * (zcap + 1)
    for j, c in ((0, 1), (2, 7), (4, 7), (6, 1)):
        if j <= zcap:
            numz[j] = Fraction(c)
    numz_q = [QuadValue(q, c, 0) for c in numz]
    fz = _geom_univ(numz_q, zcap, 2, one, power=7)
    fz = _geom_univ(fz, zcap, 4, QuadValue(q, Fraction(q) ** degp, 0), power=1)
    fz[0] = fz[0] - one
    if not (fz[0].is_zero() and fz[1].is_zero()):
        raise ArithmeticError("F - 1 is not divisible by z**2")
    F_z = fz[2:]  # divided by z^2

    # G parts: (1 -+ Q)^-3 * num(sign) / den - (1 -+ Q)^-3, over Q(sqrt q)
    Qv = _qpow_half(q, -degp)
    parts = {}
    for sign in (+1, -1):
        numz_s = [zero] * (zcap + 1)
        for j, tab in even_num_coeffs(sign).items():
            if j <= zcap:
                val = zero
                Qp = one
                for k in range(4):
                    c = tab.get(k, 0)
                    if c:
                        val = val + Qp * c
                    Qp = Qp * Qv
                numz_s[j] = val
        gz = _geom_univ(numz_s, zcap, 2, one, power=7)
        gz = _geom_univ(gz, zcap, 4, QuadValue(q, Fraction(q) ** degp, 0), power=1)
        pref = (one - Qv * sign).inverse() ** 3
        gz = [pref * c for c in gz]
        gz[0] = gz[0] - pref
        if not (gz[0].is_zero() and gz[1].is_zero()):
            raise ArithmeticError("G - (1 -+ Q)**-3 is not divisible by z**2")
        parts[sign] = gz[2:]

    half = Fraction(1, 2)
    G0_z = [(a + b) * half for a, b in zip(parts[+1], parts[-1])]
    G1_z = [(a - b) * half for a, b in zip(parts[+1], parts[-1])]
    return lift(F_z), lift(G0_z), lift(G1_z)
