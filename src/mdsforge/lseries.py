"""Quadratic L-series over F_q(x): exact coefficients, functional-equation
completion, central values in Q(sqrt q), complex evaluation, and the
Lindelof-type / root-modulus checks.

The character attached to d = unit * b0 (b0 monic square-free) is
chi_d(m) = (d/m).  For non-constant b0 the L-series is a polynomial in
u = q**-s of degree deg(b0) - 1; constant conductors give the two tagged
special forms 1/(1 - q**(1-s)) and 1/(1 + q**(1-s)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, repeat

from . import fq
from .fq import FqField
from .rings import QuadValue


# ---------------------------------------------------------------------------
# the quadratic symbol at a prime
# ---------------------------------------------------------------------------

def prime_symbol(F: FqField, top, p) -> int:
    """chi_top(p) = (top/p) for monic irreducible p: the square class of
    top at the root of a linear p, reciprocity (fq.kronecker) otherwise."""
    if fq.deg(p) == 1:
        return F.chi2[fq.peval(F, top, F.neg[p[0]])]
    return fq.kronecker(F, top, p)


def coeff_sums(F: FqField, top, n_max: int, skip=()):
    """[c_0..c_n_max] with c_n = sum over monic m of degree n of chi_top(m),
    omitting primes in ``skip`` from the support (restricted L-series).

    Computed as the degree-truncated Euler product over primes of degree
    <= n_max from the per-prime symbol values.
    """
    skipset = set(skip)
    factors = [(dp, s) for dp in range(1, n_max + 1) for p in fq.irreducibles(F, dp)
               if p not in skipset and (s := prime_symbol(F, top, p))]
    return euler_coeffs(n_max, factors)


def euler_coeffs(n_max: int, factors):
    """[c_0..c_n_max] of prod 1/(1 - s t**dp) over the (dp, s) in factors,
    s = +-1, truncated after t**n_max."""
    coeffs = [1] + [0] * n_max
    for dp, s in factors:
        # multiply by 1 + s t^dp + s^2 t^2dp + ...
        for j in range(dp, n_max + 1):
            coeffs[j] += s * coeffs[j - dp]
    return coeffs


def coeff_sums_direct(F: FqField, top, n_max: int, skip=()):
    """Oracle: the same sums by direct enumeration of monic m."""
    out = []
    for n in range(n_max + 1):
        total = 0
        for m in fq.enumerate_monic(F, n):
            mm = m
            ok = True
            for p in skip:
                if not fq.pmod(F, mm, p):
                    ok = False
                    break
            if not ok:
                continue
            total += fq.kronecker(F, top, m)
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# L-polynomials
# ---------------------------------------------------------------------------

class LPolynomial:
    """The L-series of chi_d as a polynomial in u = q**-s.

    ``special`` tags the constant-conductor cases: 'zeta' for
    1/(1 - q**(1-s)), 'minus' for 1/(1 + q**(1-s)).
    """

    def __init__(self, F: FqField, D: int, coeffs, special=None):
        self.F = F
        self.conductor_degree = D
        self.coeffs = list(coeffs)
        self.special = special

    def central_parts(self):
        """Integers (A, B, k) with L(q**(-1/2)) = (A + B*sqrt q) / q**k and
        k = D // 2; constant conductors have no such form."""
        if self.special:
            raise ValueError("constant conductor: use central_value()")
        return central_parts(self.F.q, self.conductor_degree, self.coeffs)

    def central_value(self) -> QuadValue:
        """L at u = q**(-1/2), exactly in Q(sqrt q)."""
        q = self.F.q
        if self.special:
            return zeta_half(q) if self.special == "zeta" else l_nonsquare_half(q)
        a, b, k = self.central_parts()
        return QuadValue(q, a, b, q ** k)

    def eval_u(self, u):
        """Evaluate the polynomial at a numeric/complex u."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc


def central_parts(q: int, D: int, coeffs):
    """Integers (A, B, k) with sum_n coeffs[n] q**(-n/2) = (A + B*sqrt q) / q**k
    and k = D // 2, for the coefficients of a degree-D conductor's
    L-polynomial."""
    k = D // 2
    # c_n q**(-n/2) is c_n q**(k - n/2) / q**k for even n and
    # c_n q**(k - (n+1)/2) sqrt(q) / q**k for odd n; n <= D - 1 keeps
    # both exponents >= 0
    a = b = 0
    for n, c in enumerate(coeffs):
        if n % 2:
            b += c * q ** (k - (n + 1) // 2)
        else:
            a += c * q ** (k - n // 2)
    return a, b, k


def fe_lower_degree(D: int) -> int:
    """h for conductor degree D >= 1: c_0..c_h of the L-polynomial are
    summed, the functional equation gives the rest."""
    return (D - 1) // 2 if D % 2 else D // 2 - 1


def _fe_complete(F: FqField, sgn: int, D: int, lower):
    """Extend c_0..c_h to the full coefficient list via the functional
    equation; exact integer arithmetic throughout."""
    q = F.q
    c = list(lower) + [0] * (D - len(lower))
    if D % 2 == 1:
        half = (D - 1) // 2
        for k in range(half + 1):
            c[D - 1 - k] = q ** (half - k) * c[k]
    else:
        # L(u) (u - sgn/q) = q^(D/2-1) (1 - sgn u) sum_k c_k q^-k u^(D-1-k);
        # times q: q c_(j-1) = q^(j-D/2) (q c_(D-1-j) - sgn c_(D-j)) + sgn c_j,
        # where c_(-1) = c_D = 0
        for j in range(D, D // 2, -1):
            lo, hi = (q * c[D - 1 - j], c[j]) if j < D else (0, 0)
            c[j - 1], rem = divmod(q ** (j - D // 2) * (lo - sgn * c[D - j]) + sgn * hi, q)
            if rem:
                raise ArithmeticError("functional-equation completion left a denominator")
    return c


def l_polynomial(F: FqField, b0, unit: int = 1) -> LPolynomial:
    """Build L(s, chi_{unit*b0}) for monic square-free b0: the lower half of
    the coefficients by summation, the rest by the functional equation.
    Constant b0 yields the tagged special values.
    """
    if not b0:
        raise ValueError("zero conductor")
    D = fq.deg(b0)
    if D == 0:
        return LPolynomial(F, D, [], special="zeta" if F.chi2[unit] == 1 else "minus")
    if not fq.is_monic(b0):
        raise ValueError("conductor must be unit * monic")
    if not fq.is_squarefree(F, b0):
        raise ValueError("conductor must be square-free")
    lower = coeff_sums(F, fq.pscale(F, b0, unit), fe_lower_degree(D))
    return LPolynomial(F, D, _fe_complete(F, F.chi2[unit], D, lower))


def central_value(F: FqField, b0, unit: int = 1) -> QuadValue:
    return l_polynomial(F, b0, unit).central_value()


def zeta_half(q: int) -> QuadValue:
    """zeta(1/2) = 1/(1 - sqrt q)."""
    return 1 / (1 - QuadValue.sqrt_q(q))


def l_nonsquare_half(q: int) -> QuadValue:
    """L(1/2) for the non-square constant-conductor character: 1/(1+sqrt q)."""
    return 1 / (1 + QuadValue.sqrt_q(q))


# ---------------------------------------------------------------------------
# central values of a family by character-count class
# ---------------------------------------------------------------------------

# The family is chi = chi_{unit*c*d0} over monic square-free d0 of degree a;
# the conductor degree is D = a + deg c.  The lower half c_0..c_h of L(u, chi)
# (h = fe_lower_degree(D)) is the Euler product over the primes P of degree
# <= h, truncated after u**h, so it depends only on how many primes of each
# degree have chi(P) = +1 and how many -1: the character-count class of d0.
# chi(P) = s_P (d0/P) with s_P = chi2(unit)**deg P (c/P), which is 0 when
# P | c.  The d0 are indexed as in fq.monic_by_index, idx = lo + q**L * hi,
# and d0 mod P is F_q-linear in the digits of idx: the sum of a residue read
# off the low digits and one read off the high digits.  Residues of degree
# < k are coded by their base-q coefficient index, and (d0/P) is read from
# P's symbol row at that code: the engine's only symbol table.  Symbols
# outside the engine come from prime_symbol.

@lru_cache(maxsize=None)
def _residue_symbol_table(field_key, p):
    """(r/p) for every residue r mod the irreducible p, indexed by the code
    fq.coeff_index(F, r): 0 at r = 0, +1 at the nonzero squares, -1 at the
    other residues.  Every nonzero square is (c*m)**2 = c**2 * m**2 with m
    monic, so each monic m is squared once and m*m mod p is scaled by the
    (q-1)/2 square units."""
    F = fq.build_field(*field_key)
    table = [-1] * F.q ** fq.deg(p)
    table[0] = 0
    square_units = [u for u in range(1, F.q) if F.chi2[u] == 1]
    for n in range(fq.deg(p)):
        for m in fq.enumerate_monic(F, n):
            s = fq.pmod(F, fq.pmul(F, m, m), p)
            for u in square_units:
                table[fq.coeff_index(F, fq.pscale(F, s, u))] = 1
    return tuple(table)


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
def _class_plan(field_key, a, c, unit):
    """(L, radix, terms) for the family unit*c*d0 with deg d0 = a.

    A class key is sum over degrees k <= h of plus_k w_k + minus_k w'_k in
    the mixed radix ``radix`` (plus_1, minus_1, plus_2, ...).  Each term
    (wsym, add, lo, hi) serves one prime P not dividing c: wsym[r] is the
    key weight of chi(P) for d0 = r mod P, and lo[i], hi[j] are the codes of
    the parts of d0 mod P from the low and high digits."""
    F = fq.build_field(*field_key)
    q = F.q
    L = (a + 1) // 2
    radix, terms = [], []
    weight = 1
    for k in range(1, fe_lower_degree(a + fq.deg(c)) + 1):
        add = _code_add_table(field_key, k)
        primes = fq.irreducibles(F, k)
        radix += [len(primes) + 1] * 2
        plus, minus = weight, weight * (len(primes) + 1)
        weight = minus * (len(primes) + 1)
        for p in primes:
            s_p = F.chi2[unit] ** k * prime_symbol(F, c, p)
            if not s_p:
                continue
            by_symbol = {0: 0, s_p: plus, -s_p: minus}
            wsym = [by_symbol[s] for s in _residue_symbol_table(field_key, p)]
            # steps[i][u]: the code of u * x**i mod p
            steps = []
            for i in range(a + 1):
                xi = fq.pmod(F, fq.monic_by_index(F, i, 0), p)
                steps.append([fq.coeff_index(F, fq.pscale(F, xi, u)) for u in range(q)])
            terms.append((wsym, add, _span_codes(add, 0, steps[:L]),
                          _span_codes(add, steps[a][1], steps[L:a])))
    return L, tuple(radix), tuple(terms)


def class_keys(F: FqField, a: int, c=fq.P_ONE, unit: int = 1, part: int = 0, parts: int = 1):
    """Per high-digit block in the part-th of ``parts`` contiguous runs of
    blocks, an iterator over the class keys of unit*c*d0 for the square-free
    d0 of degree a in the block, in index order."""
    L, _, terms = _class_plan((F.p, F.e), a, c, unit)
    width, blocks = F.q ** L, F.q ** (a - L)
    chunk = -(-blocks // parts)
    mask = fq.squarefree_mask(F, a)
    for hi in range(part * chunk, min((part + 1) * chunk, blocks)):
        # one row of key weights per prime: its weight table shifted by the
        # high-digit residue, read at each low-digit residue
        rows = [map(list(map(wsym.__getitem__, add[his[hi]])).__getitem__, los)
                for wsym, add, los, his in terms]
        keys = map(sum, zip(*rows)) if rows else repeat(0, width)
        yield compress(keys, mask[hi * width:(hi + 1) * width])


def class_value(F: FqField, a: int, key: int, c=fq.P_ONE, unit: int = 1) -> QuadValue:
    """L(1/2, chi_{unit*c*d0}) for the degree-a d0 of class ``key``: the
    Euler product of the class's sign counts, completed by the functional
    equation with sign chi2(unit)."""
    q, D = F.q, a + fq.deg(c)
    if D == 0:
        return zeta_half(q) if F.chi2[unit] == 1 else l_nonsquare_half(q)
    _, radix, _ = _class_plan((F.p, F.e), a, c, unit)
    factors = []
    for i, r in enumerate(radix):
        key, n = divmod(key, r)
        factors += [(i // 2 + 1, -1 if i % 2 else 1)] * n
    coeffs = _fe_complete(F, F.chi2[unit], D, euler_coeffs(fe_lower_degree(D), factors))
    num_a, num_b, k = central_parts(q, D, coeffs)
    return QuadValue(q, num_a, num_b, q ** k)


@lru_cache(maxsize=None)
def family_values(field_key, a: int, c=fq.P_ONE, unit: int = 1):
    """(keys, values): keys[i] is the class key of unit*c*d0 for the i-th d0
    of fq.enumerate_monic(F, a, "squarefree"), and values maps each key to
    its L(1/2).  Cached per family, so callers share one value per class."""
    F = fq.build_field(*field_key)
    keys = tuple(chain.from_iterable(class_keys(F, a, c, unit)))
    return keys, {key: class_value(F, a, key, c, unit) for key in set(keys)}


# ---------------------------------------------------------------------------
# complex evaluation and analytic checks
# ---------------------------------------------------------------------------

def eval_l(F: FqField, b0, s, digits: int = 30, unit: int = 1):
    """L(s, chi) at a complex point, high-precision."""
    import mpmath
    L = l_polynomial(F, b0, unit)
    with mpmath.workdps(digits + 10):
        u = mpmath.power(F.q, -mpmath.mpmathify(s))
        return complex(L.eval_u(u))


def check_lindelof(F: FqField, b0, t_samples: int = 32):
    """Central-line bound |L(1/2+it)| < 4 |d|**(10/log D) for deg >= 3.

    The polynomial in q**(-it) is periodic in t with period 2*pi/log q, so
    equispaced samples over one period cover all values up to grid density.
    """
    import math
    import cmath
    D = fq.deg(b0)
    if D < 3:
        return {"skipped": True, "reason": "degree below 3"}
    L = l_polynomial(F, b0)
    q = F.q
    bound = 4.0 * math.exp(10.0 * D * math.log(q) / math.log(D))
    worst = 0.0
    for k in range(t_samples):
        u = q ** -0.5 * cmath.exp(-2j * math.pi * k / t_samples)
        worst = max(worst, abs(L.eval_u(u)))
    return {"skipped": False, "max_abs": worst, "bound": bound,
            "ok": worst < bound, "samples": t_samples}


def check_weil(F: FqField, b0, tol: float = 1e-9):
    """All inverse roots of the completed polynomial have modulus sqrt q.

    For even conductor degree the polynomial carries one unit root (at +1 or
    -1), which is peeled off exactly before the modulus test.
    """
    import mpmath
    D = fq.deg(b0)
    L = l_polynomial(F, b0)
    coeffs = list(L.coeffs)
    if D <= 1:
        return {"vacuous": True}
    if D % 2 == 0:
        for u0 in (1, -1):
            if L.eval_u(u0) == 0:
                # exact synthetic division by (u - u0); remainder must vanish
                d = len(coeffs) - 1
                quot = [0] * d
                quot[d - 1] = coeffs[d]
                for k in range(d - 1, 0, -1):
                    quot[k - 1] = coeffs[k] + u0 * quot[k]
                if coeffs[0] + u0 * quot[0]:
                    raise ArithmeticError(f"division by u - ({u0}) left a remainder")
                coeffs = quot
                break
        else:
            return {"vacuous": False, "error": "no unit root found for even degree"}
    if len(coeffs) <= 1:
        return {"vacuous": True}
    # the extra precision resolves repeated roots such as those of (1 + q u^2)^2
    roots = mpmath.polyroots(coeffs[::-1], extraprec=60)
    target = mpmath.mpf(F.q) ** -0.5
    devs = [float(abs(abs(r) - target)) for r in roots]
    return {"vacuous": False, "max_deviation": max(devs), "tol": tol,
            "ok": max(devs) < tol, "count": len(roots)}
