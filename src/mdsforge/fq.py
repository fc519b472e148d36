"""Finite fields F_q with q = p**e = 1 (mod 4), and F_q[x] arithmetic.

Field elements are ints in 0..q-1.  For prime fields the int is the residue;
for extension fields F_{p^e} = F_p[y]/(P) it is coeff_index of the residue
over F_p, built with the same polynomial functions: its coefficients in
base p, constant digit least significant.  Polynomials over F_q are tuples
of element codes, constant term first, no trailing zeros; () is the zero
polynomial.

The quadratic symbol is computed by reciprocity-based Euclidean reduction
(q = 1 mod 4 keeps the law sign-free); the factorization-based definition
is kept as a cross-check oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class _FieldTables:
    """A finite field as the tables that the polynomial functions below read:
    its order q, the product and sum tables, negation and inversion."""

    def __init__(self, q: int, mul, addtab):
        self.q = q
        self.mul = mul
        self.addtab = addtab
        self.neg = [row.index(0) for row in addtab]
        self.inv = [0] + [mul[a].index(1) for a in range(1, q)]


def _extension_tables(Fp: _FieldTables, e: int) -> _FieldTables:
    """F_{p^e} = F_p[y]/(P), P the first monic of degree e in monic_by_index
    order with no monic divisor of degree 1..e/2; an element's code is
    coeff_index of its reduced residue."""
    p = Fp.q
    modulus = next(
        m for m in (monic_by_index(Fp, e, i) for i in range(p ** e))
        if all(pmod(Fp, m, monic_by_index(Fp, k, j))
               for k in range(1, e // 2 + 1) for j in range(p ** k)))
    digits = [monic_by_index(Fp, e, a)[:-1] for a in range(p ** e)]
    mul = [[coeff_index(Fp, pmod(Fp, pmul(Fp, a, b), modulus)) for b in digits]
           for a in digits]
    addtab = [[coeff_index(Fp, [Fp.addtab[x][y] for x, y in zip(a, b)]) for b in digits]
              for a in digits]
    return _FieldTables(p ** e, mul, addtab)


class FqField:
    """F_q with precomputed tables; create via build_field(p, e)."""

    def __init__(self, p: int, e: int):
        if p == 2:
            raise ValueError("characteristic 2 is not supported (need odd q = 1 mod 4)")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        q = p ** e
        if q % 4 != 1:
            raise ValueError(
                f"q = {p}^{e} = {q} fails the congruence q = 1 (mod 4) "
                f"(it is {q % 4} mod 4)")
        self.p = p
        self.e = e
        self.q = q
        Fp = _FieldTables(p, [[a * b % p for b in range(p)] for a in range(p)],
                          [[(a + b) % p for b in range(p)] for a in range(p)])
        tables = Fp if e == 1 else _extension_tables(Fp, e)
        self.mul, self.addtab = tables.mul, tables.addtab
        self.neg, self.inv = tables.neg, tables.inv
        squares = {self.mul[a][a] for a in range(1, q)}
        self.is_square = [a in squares for a in range(q)]
        # quadratic character on F_q (0 on 0)
        self.chi2 = [0] + [1 if self.is_square[a] else -1 for a in range(1, q)]
        self.nonsquare_unit = next(a for a in range(1, q) if not self.is_square[a])
        if self.pow_el(self.nonsquare_unit, (q - 1) // 2) != self.neg[1]:
            raise ArithmeticError("the non-square unit fails Euler's criterion")

    # -- element ops -----------------------------------------------------
    def pow_el(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self.mul[r][a]
            a = self.mul[a][a]
            n >>= 1
        return r

    def __repr__(self):
        return f"FqField(p={self.p}, e={self.e}, q={self.q})"


@lru_cache(maxsize=None)
def build_field(p: int, e: int = 1) -> FqField:
    return FqField(p, e)


# ---------------------------------------------------------------------------
# polynomials over F_q: tuples, constant first, no trailing zeros
# ---------------------------------------------------------------------------

P_ZERO = ()
P_ONE = (1,)


def deg(a) -> int:
    return len(a) - 1


def is_monic(a) -> bool:
    return bool(a) and a[-1] == 1


def trim(a):
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def pmul(F: FqField, a, b):
    if not a or not b:
        return P_ZERO
    mul = F.mul
    tab = F.addtab
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            rowm = mul[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = tab[out[i + j]][rowm[bj]]
    return trim(out)


def pscale(F: FqField, a, c):
    if c == 0:
        return P_ZERO
    row = F.mul[c]
    return tuple(row[x] for x in a)


def pdivmod(F: FqField, a, b):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(a) < len(b):
        return P_ZERO, a
    mul = F.mul
    tab = F.addtab
    neg = F.neg
    inv_lead = F.inv[b[-1]]
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        lead = rem[top]
        if lead:
            c = mul[lead][inv_lead]
            quot[top - db] = c
            rowc = mul[c]
            off = top - db
            for k in range(db + 1):
                rem[off + k] = tab[rem[off + k]][neg[rowc[b[k]]]]
    return trim(quot), trim(rem[:db])


def pmod(F: FqField, a, b):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = len(b) - 1
    if len(a) <= db:
        return a
    mul = F.mul
    tab = F.addtab
    neg = F.neg
    inv_lead = F.inv[b[-1]]
    rem = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        lead = rem[top]
        if lead:
            rowc = mul[mul[lead][inv_lead]]
            off = top - db
            for k in range(db):
                rem[off + k] = tab[rem[off + k]][neg[rowc[b[k]]]]
    return trim(rem[:db])


def pgcd_monic(F: FqField, a, b):
    while b:
        a, b = b, pmod(F, a, b)
    if not a:
        return P_ZERO
    return pscale(F, a, F.inv[a[-1]])


def derivative(F: FqField, a):
    # the image of the integer k in F_q has code k mod p (a constant digit)
    p = F.p
    mul = F.mul
    out = []
    for k in range(1, len(a)):
        kk = k % p
        out.append(mul[a[k]][kk] if kk else 0)
    return trim(out)


def peval(F: FqField, a, x):
    """Evaluate at a field element (Horner)."""
    mul = F.mul
    tab = F.addtab
    acc = 0
    for c in reversed(a):
        acc = tab[mul[acc][x]][c]
    return acc


def ppow_mod(F: FqField, a, n, mod):
    r = P_ONE
    a = pmod(F, a, mod)
    while n:
        if n & 1:
            r = pmod(F, pmul(F, r, a), mod)
        a = pmod(F, pmul(F, a, a), mod)
        n >>= 1
    return r


def sgn(F: FqField, d) -> int:
    """+1 iff the leading coefficient is a square in F_q^x."""
    if not d:
        raise ValueError("sgn of the zero polynomial")
    return F.chi2[d[-1]]


# -- enumeration -------------------------------------------------------------

def monic_by_index(F: FqField, n: int, idx: int):
    """idx in [0, q**n): base-q digits give c_0..c_{n-1}; leading coeff 1."""
    q = F.q
    coeffs = []
    for _ in range(n):
        coeffs.append(idx % q)
        idx //= q
    coeffs.append(1)
    return tuple(coeffs) if n else P_ONE


def coeff_index(F: FqField, a) -> int:
    """The base-q number whose digits are the coefficients of a, constant
    digit least significant; monic_by_index(F, n, coeff_index(F, m[:-1]))
    is m for monic m of degree n."""
    idx = 0
    for c in reversed(a):
        idx = idx * F.q + c
    return idx


def enumerate_monic(F: FqField, n: int, filt: str = "all", start: int = 0, stop=None):
    """Stream monic polynomials of degree n in base-q counting order.

    filt: 'all' | 'squarefree' | 'irreducible'.  [start, stop) indexes the
    underlying q**n range, so streams partition cleanly across workers.
    """
    if n < 0:
        raise ValueError("negative degree")
    total = F.q ** n
    if stop is None:
        stop = total
    mask = squarefree_mask(F, n) if filt == "squarefree" else None
    for idx in range(start, stop):
        if filt == "all":
            yield monic_by_index(F, n, idx)
        elif filt == "squarefree":
            if mask[idx]:
                yield monic_by_index(F, n, idx)
        elif filt == "irreducible":
            m = monic_by_index(F, n, idx)
            if is_irreducible(F, m):
                yield m
        else:
            raise ValueError(f"unknown filter {filt!r}")


@lru_cache(maxsize=None)
def _squarefree_mask_cached(field_key, n):
    F = build_field(*field_key)
    mask = bytearray([1]) * F.q ** n
    for k in range(1, n // 2 + 1):
        for p in irreducibles(F, k):
            p2 = pmul(F, p, p)
            for m in enumerate_monic(F, n - 2 * k):
                mask[coeff_index(F, pmul(F, p2, m)[:-1])] = 0
    return bytes(mask)


def squarefree_mask(F: FqField, n: int) -> bytes:
    """Entry idx is 1 iff monic_by_index(F, n, idx) is square-free, else 0.

    One sieve per field and degree: every P**2 * m with P prime of degree
    <= n/2 and m monic is marked; cached."""
    return _squarefree_mask_cached((F.p, F.e), n)


def is_squarefree(F: FqField, m) -> bool:
    if deg(m) <= 0:
        return bool(m)
    d = derivative(F, m)
    if not d:
        return False
    return deg(pgcd_monic(F, m, d)) == 0


@lru_cache(maxsize=None)
def _irreducibles_cached(field_key, n):
    F = build_field(*field_key)
    if n == 1:
        return tuple(monic_by_index(F, 1, i) for i in range(F.q))
    smaller = []
    for k in range(1, n // 2 + 1):
        smaller.extend(_irreducibles_cached(field_key, k))
    out = []
    for idx in range(F.q ** n):
        m = monic_by_index(F, n, idx)
        if all(pmod(F, m, p) for p in smaller):
            out.append(m)
    return tuple(out)


def irreducibles(F: FqField, n: int):
    """All monic irreducibles of degree n, enumeration order."""
    return _irreducibles_cached((F.p, F.e), n)


def is_irreducible(F: FqField, m) -> bool:
    n = deg(m)
    if n <= 0:
        return False
    if n == 1:
        return True
    for k in range(1, n // 2 + 1):
        for p in irreducibles(F, k):
            if not pmod(F, m, p):
                return False
    return True


def irreducible_count(F: FqField, n: int) -> int:
    """Irr_q(n) by the divisor-sum recurrence sum_{d|n} d*Irr(d) = q**n."""
    q = F.q
    total = q ** n
    for d in range(1, n):
        if n % d == 0:
            total -= d * irreducible_count(F, d)
    return total // n


# -- factorization -----------------------------------------------------------

def factor(F: FqField, m):
    """Complete factorization: (unit, ((irreducible, multiplicity), ...))."""
    if not m:
        raise ValueError("factor of the zero polynomial")
    key = (F.p, F.e, m)
    cached = _factor_cache.get(key)
    if cached is not None:
        return cached
    unit = m[-1]
    work = m if unit == 1 else pscale(F, m, F.inv[unit])
    factors = []
    while deg(work) > 0:
        p = None
        half = deg(work) // 2
        for dp in range(1, half + 1):
            for cand in irreducibles(F, dp):
                if not pmod(F, work, cand):
                    p = cand
                    break
            if p:
                break
        if p is None:
            p = work  # irreducible remainder
        mult = 0
        while True:
            quot, rem = pdivmod(F, work, p)
            if rem:
                break
            work = quot
            mult += 1
        factors.append((p, mult))
    factors.sort()
    result = (unit, tuple(factors))
    _factor_cache[key] = result
    return result


_factor_cache = {}


def mobius(F: FqField, m) -> int:
    unit, fs = factor(F, m)
    if any(mult > 1 for _, mult in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def square_decomposition(F: FqField, m):
    """monic m = d0 * d1**2 with d0 monic square-free; returns (d0, d1)."""
    unit, fs = factor(F, m)
    if unit != 1:
        raise ValueError("square decomposition expects a monic polynomial")
    d0 = P_ONE
    d1 = P_ONE
    for p, mult in fs:
        if mult % 2:
            d0 = pmul(F, d0, p)
        for _ in range(mult // 2):
            d1 = pmul(F, d1, p)
    return d0, d1


def euler_phi(F: FqField, m) -> int:
    """|(F_q[x]/m)^x|; multiplicative with phi(p^k) = |p|^(k-1)(|p|-1)."""
    if not m:
        raise ValueError("euler_phi of the zero polynomial")
    q = F.q
    total = 1
    for p, mult in factor(F, m)[1]:
        np = q ** deg(p)
        total *= np ** (mult - 1) * (np - 1)
    return total


# -- quadratic symbol ---------------------------------------------------------

def kronecker(F: FqField, d, m) -> int:
    """(d/m) for monic m; completely multiplicative in both arguments.

    Uses (b/m) = sgn(b)**deg(m) for constants and the sign-free reciprocity
    law available at q = 1 (mod 4).
    """
    if not is_monic(m):
        raise ValueError("lower argument must be monic")
    result = 1
    while True:
        if deg(m) == 0:
            return result
        if len(d) >= len(m):
            d = pmod(F, d, m)
        if not d:
            return 0
        lead = d[-1]
        if lead != 1:
            if not F.is_square[lead] and deg(m) % 2:
                result = -result
            d = pscale(F, d, F.inv[lead])
        if deg(d) == 0:
            return result
        d, m = m, d


def kronecker_factored(F: FqField, d, m) -> int:
    """Oracle: square test of d modulo each irreducible factor of m."""
    if not is_monic(m):
        raise ValueError("lower argument must be monic")
    result = 1
    for p, mult in factor(F, m)[1]:
        r = pmod(F, d, p)
        if not r:
            return 0
        np = F.q ** deg(p)
        t = ppow_mod(F, r, (np - 1) // 2, p)
        s = 1 if t == P_ONE else -1
        if mult % 2:
            result *= s
    return result


def divisors_monic(F: FqField, m):
    """All monic divisors of m."""
    unit, fs = factor(F, m)
    divs = [P_ONE]
    for p, mult in fs:
        more = []
        pk = P_ONE
        for k in range(mult + 1):
            more.extend(pmul(F, d, pk) for d in divs)
            if k < mult:
                pk = pmul(F, pk, p)
        divs = more
    return divs


def poly_str(m) -> str:
    if not m:
        return "0"
    bits = []
    for k, c in enumerate(m):
        if not c:
            continue
        if k == 0:
            bits.append(str(c))
        elif k == 1:
            bits.append("x" if c == 1 else f"{c}*x")
        else:
            bits.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
    return " + ".join(bits)
