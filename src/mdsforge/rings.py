"""Exact coefficient rings for the symbolic engine.

Everything here is exact: ``fractions.Fraction`` coefficients, and in the
two towers integer numerators over one shared denominator.  No floating
point enters any identity check.  The main types:

* ``ParamPoly``   -- Laurent polynomials in the size parameter q, with
                     half-integer exponents allowed (exponents are stored
                     doubled, so q**(1/2) is representable exactly).
* ``MultiPoly``   -- multivariate polynomials in z1..zr with ParamPoly
                     coefficients.
* ``RationalFunction`` -- num/den pairs with the denominator kept as a list
                     of small factors (products of ``1 - c*monomial`` units
                     survive substitutions in factored form).
* ``TruncSeries`` -- truncated power series (total-degree and/or
                     per-variable caps) used for all expansions.
* ``QuadValue``   -- exact elements (a + b*sqrt(q)) / den of Q(sqrt q) at
                     numeric q.
* ``QuarticValue``-- exact elements of Q(i, q**(1/4)) at numeric q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, sub

ZERO = Fraction(0)
ONE = Fraction(1)


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def accumulate(pairs, out=None) -> dict:
    """Sum (key, value) pairs into ``out`` (a new dict by default) and return
    it; a key whose sum is zero is dropped.  Values are ints, Fractions or
    ParamPolys: anything with ``+`` and a truth value that is False at zero."""
    if out is None:
        out = {}
    for k, v in pairs:
        s = out.get(k)
        s = v if s is None else s + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


# ---------------------------------------------------------------------------
# ParamPoly
# ---------------------------------------------------------------------------

class ParamPoly:
    """Laurent polynomial in q with half-integer exponents.

    Keys of ``half`` are twice the q-exponent (ints, possibly negative),
    values are nonzero Fractions.
    """

    __slots__ = ("half",)

    def __init__(self, half=None):
        self.half = half or {}

    @staticmethod
    def const(c) -> "ParamPoly":
        c = _fr(c)
        return ParamPoly({0: c} if c else {})

    @staticmethod
    def q_power(exp, coef=1, half_units=False) -> "ParamPoly":
        """coef * q**exp; set half_units=True to pass 2*exp directly."""
        c = _fr(coef)
        if not c:
            return ParamPoly()
        k = exp if half_units else 2 * exp
        return ParamPoly({k: c})

    def is_zero(self) -> bool:
        return not self.half

    def __bool__(self) -> bool:
        return bool(self.half)

    def is_one(self) -> bool:
        return self.half == {0: ONE}

    def __add__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        return ParamPoly(accumulate(other.half.items(), dict(self.half)))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({k: -c for k, c in self.half.items()})

    def __sub__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return ParamPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        return ParamPoly(accumulate((k1 + k2, c1 * c2)
                                    for k1, c1 in self.half.items()
                                    for k2, c2 in other.half.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative ParamPoly power")
        return _power(self, n) if n else ParamPoly.const(1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        return isinstance(other, ParamPoly) and self.half == other.half

    def __hash__(self):
        return hash(frozenset(self.half.items()))

    def eval_sqrtq(self, sqrtq: Fraction) -> Fraction:
        """Evaluate at a numeric q = sqrtq**2 (sqrtq rational)."""
        return sum((c * sqrtq ** k for k, c in self.half.items()), ZERO)

    def eval_int(self, qp: int) -> int:
        """Evaluate at an integer q = qp (a prime power): the exponents must
        be integers and the value an integer."""
        total = ZERO
        for half, c in self.half.items():
            if half % 2:
                raise ArithmeticError("half-integer exponent in a Z[q] value")
            total += c * Fraction(qp) ** (half // 2)
        if total.denominator != 1:
            raise ArithmeticError(f"ParamPoly value at q = {qp} is not an integer")
        return int(total)

    def eval_quad(self, q: int) -> "QuadValue":
        """Evaluate at integer q inside Q(sqrt q)."""
        a = ZERO
        b = ZERO
        for k, c in self.half.items():
            j, r = divmod(k, 2)
            if j >= 0:
                piece = c * Fraction(q) ** j
            else:
                piece = c / Fraction(q) ** (-j)
            if r == 0:
                a += piece
            else:
                b += piece
        return QuadValue(q, a, b)

    def constant_value(self) -> Fraction:
        if not self.half:
            return ZERO
        if set(self.half) == {0}:
            return self.half[0]
        raise ValueError("ParamPoly is not constant")

    def __repr__(self):
        if not self.half:
            return "0"
        bits = []
        for k in sorted(self.half):
            c = self.half[k]
            if k == 0:
                bits.append(f"{c}")
            elif k % 2 == 0:
                bits.append(f"{c}*q^{k // 2}")
            else:
                bits.append(f"{c}*q^({k}/2)")
        return " + ".join(bits)


PP_ZERO = ParamPoly()
PP_ONE = ParamPoly.const(1)


# ---------------------------------------------------------------------------
# MultiPoly
# ---------------------------------------------------------------------------

class MultiPoly:
    """Polynomial in z1..zn with ParamPoly coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = terms or {}

    @staticmethod
    def const(n: int, c) -> "MultiPoly":
        c = c if isinstance(c, ParamPoly) else ParamPoly.const(c)
        return MultiPoly(n, {(0,) * n: c} if not c.is_zero() else {})

    @staticmethod
    def monomial(n: int, exps, coef=PP_ONE) -> "MultiPoly":
        coef = coef if isinstance(coef, ParamPoly) else ParamPoly.const(coef)
        if coef.is_zero():
            return MultiPoly(n)
        return MultiPoly(n, {tuple(exps): coef})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset((e, hash(c)) for e, c in self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.n, other)
        return MultiPoly(self.n, accumulate(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(self.n, other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            c = other if isinstance(other, ParamPoly) else ParamPoly.const(other)
            if c.is_zero():
                return MultiPoly(self.n)
            return MultiPoly(self.n, {e: cc * c for e, cc in self.terms.items()})
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        return MultiPoly(self.n, accumulate((tuple(map(add, e1, e2)), c1 * c2)
                                            for e1, c1 in self.terms.items()
                                            for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def substitute_zero(self, var: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                out[e] = c
        return MultiPoly(self.n, out)

    def derivative(self, var: int) -> "MultiPoly":
        return MultiPoly(self.n, accumulate((e[:var] + (e[var] - 1,) + e[var + 1:], c * e[var])
                                            for e, c in self.terms.items() if e[var]))

    def eval(self, point, sqrtq: Fraction) -> Fraction:
        tot = ZERO
        for e, c in self.terms.items():
            v = c.eval_sqrtq(sqrtq)
            for x, k in zip(point, e):
                if k:
                    v *= x ** k
            tot += v
        return tot

    def coefficient(self, exps) -> ParamPoly:
        return self.terms.get(tuple(exps), PP_ZERO)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"z{i + 1}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"({self.terms[e]})*{mono}")
        return " + ".join(bits[:12]) + (" + ..." if len(bits) > 12 else "")


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------

def _factor_key(p: MultiPoly):
    return tuple(sorted((e, tuple(sorted(c.half.items()))) for e, c in p.terms.items()))


class RationalFunction:
    """num / prod(factors); factors kept unexpanded so substitutions stay cheap."""

    __slots__ = ("n", "num", "den")

    def __init__(self, num: MultiPoly, den=()):
        self.n = num.n
        self.num = num
        self.den = tuple(den)  # tuple of MultiPoly factors (with multiplicity by repetition)

    @staticmethod
    def const(n: int, c) -> "RationalFunction":
        return RationalFunction(MultiPoly.const(n, c))

    def den_expanded(self) -> MultiPoly:
        d = MultiPoly.const(self.n, 1)
        for f in self.den:
            d = d * f
        return d

    def _merged_den(self, other):
        """Common denominator: multiset union of factors, by structural key."""
        from collections import Counter
        c1 = Counter(_factor_key(f) for f in self.den)
        c2 = Counter(_factor_key(f) for f in other.den)
        lookup = {}
        for f in self.den + other.den:
            lookup.setdefault(_factor_key(f), f)
        union = c1 | c2
        den = []
        for key, mult in union.items():
            den.extend([lookup[key]] * mult)
        missing1 = union - c1
        missing2 = union - c2
        m1 = MultiPoly.const(self.n, 1)
        for key, mult in missing1.items():
            for _ in range(mult):
                m1 = m1 * lookup[key]
        m2 = MultiPoly.const(self.n, 1)
        for key, mult in missing2.items():
            for _ in range(mult):
                m2 = m2 * lookup[key]
        return den, m1, m2

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.const(self.n, other)
        den, m1, m2 = self._merged_den(other)
        return RationalFunction(self.num * m1 + other.num * m2, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.const(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def eval(self, point, sqrtq: Fraction) -> Fraction:
        num = self.num.eval(point, sqrtq)
        den = ONE
        for f in self.den:
            v = f.eval(point, sqrtq)
            if v == 0:
                raise ZeroDivisionError("denominator factor vanishes at sample point")
            den *= v
        return num / den

    def substitute_zero(self, var: int) -> "RationalFunction":
        return RationalFunction(self.num.substitute_zero(var),
                                [f.substitute_zero(var) for f in self.den])

    def is_independent_of(self, var: int) -> bool:
        """True when d/dz_var of the function vanishes identically."""
        num = self.num
        den = self.den_expanded()
        dnum = num.derivative(var) * den - num * den.derivative(var)
        return dnum.is_zero()

    def equals_exact(self, other: "RationalFunction") -> bool:
        lhs = self.num * other.den_expanded()
        rhs = other.num * self.den_expanded()
        return (lhs - rhs).is_zero()


def _sample_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-9, 9)
    den = rng.randint(2, 11)
    return Fraction(num, den)


def rat_equal(f: RationalFunction, g: RationalFunction, mode="exact",
              trials=20, seed=0):
    """Decide f == g.

    exact mode cross-multiplies; randomized mode evaluates at rational points
    with q sampled among rational squares > 1 (so sqrt q stays rational).
    Returns (equal, witness) where witness is a distinguishing sample on
    failure, or None.  Randomized mode raises RuntimeError("inconclusive")
    when too few sample points avoid the denominators.
    """
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    if mode == "exact":
        if f.equals_exact(g):
            return True, None
        return False, {"mode": "exact"}
    rng = random.Random(seed)
    sqrtq_choices = [Fraction(2), Fraction(3, 2), Fraction(5, 2),
                     Fraction(7, 3), Fraction(11, 5), Fraction(13, 4)]
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 60 * trials:
            raise RuntimeError("inconclusive: could not find enough valid sample points")
        sq = rng.choice(sqrtq_choices)
        point = tuple(_sample_fraction(rng) for _ in range(f.n))
        try:
            lv = f.eval(point, sq)
            rv = g.eval(point, sq)
        except ZeroDivisionError:
            continue
        if lv != rv:
            return False, {"point": point, "sqrtq": sq, "lhs": lv, "rhs": rv}
        done += 1
    return True, None


# ---------------------------------------------------------------------------
# TruncSeries
# ---------------------------------------------------------------------------

class TruncSeries:
    """Truncated power series over ParamPoly coefficients.

    ``total`` is the total-degree cutoff; ``caps`` an optional tuple of
    per-variable caps.
    """

    __slots__ = ("n", "total", "caps", "terms")

    def __init__(self, n, total, caps=None, terms=None):
        self.n = n
        self.total = total
        self.caps = tuple(caps) if caps is not None else None
        self.terms = terms or {}

    def _keep(self, e) -> bool:
        if sum(e) > self.total:
            return False
        if self.caps is not None:
            return all(k <= c for k, c in zip(e, self.caps))
        return True

    @staticmethod
    def from_poly(p: MultiPoly, total, caps=None):
        s = TruncSeries(p.n, total, caps)
        s.terms = {e: c for e, c in p.terms.items() if s._keep(e)}
        return s

    def clone_empty(self):
        return TruncSeries(self.n, self.total, self.caps)

    def __add__(self, other):
        r = self.clone_empty()
        r.terms = accumulate(other.terms.items(), dict(self.terms))
        return r

    def mul_poly(self, p: MultiPoly):
        """Multiply by a polynomial, truncating."""
        keep = self._keep
        r = self.clone_empty()
        r.terms = accumulate((e, c1 * c2)
                             for e1, c1 in self.terms.items()
                             for e2, c2 in p.terms.items()
                             if keep(e := tuple(map(add, e1, e2))))
        return r

    def __mul__(self, other):
        """Product with a scalar, a MultiPoly or another TruncSeries, truncating."""
        if isinstance(other, (int, Fraction, ParamPoly)):
            c0 = other if isinstance(other, ParamPoly) else ParamPoly.const(other)
            r = self.clone_empty()
            if not c0.is_zero():
                r.terms = {e: c * c0 for e, c in self.terms.items()}
            return r
        return self.mul_poly(other)

    def mul_geometric(self, exps, coef: ParamPoly, power: int = 1):
        """Multiply by (1 - coef*z**exps)**(-power), truncating: ``power``
        passes of the ``expand`` recurrence."""
        terms = _exact_terms(self.terms)
        c = _exact_coeffs(coef.half)
        for _ in range(power):
            terms = _geometric_pass(terms, exps, c, self.total, self.caps)
        r = self.clone_empty()
        r.terms = _param_terms(terms)
        return r

    def coefficient(self, exps) -> ParamPoly:
        return self.terms.get(tuple(exps), PP_ZERO)

    def truncate(self, total=None, caps=None):
        r = TruncSeries(self.n, self.total if total is None else total,
                        self.caps if caps is None else caps)
        r.terms = {e: c for e, c in self.terms.items() if r._keep(e)}
        return r

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self.terms == other.terms


def _exact_coeffs(half):
    """ParamPoly coefficients with the integral Fractions turned into ints."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in half.items()}


def _exact_terms(terms):
    return {e: _exact_coeffs(c.half) for e, c in terms.items()}


def _param_terms(terms):
    return {e: ParamPoly({k: Fraction(c) for k, c in half.items()})
            for e, half in terms.items()}


def _geometric_pass(terms, exps, coef, total, caps):
    """Divide {exponent: {half_exponent: coefficient}} terms by the unit
    1 - coef*z**exps, truncated to ``total`` and ``caps``.

    Each chain e, e + s, e + 2s, ... (s = exps) is walked once, from its
    lowest term, with out[e] = terms[e] + coef*out[e - s].
    """
    deg = sum(exps)
    if deg <= 0 or min(exps) < 0:
        raise ValueError("geometric factor needs exponents >= 0, total degree > 0")
    moving = [i for i, k in enumerate(exps) if k]
    out = {}
    for start in sorted(terms):
        # a nonzero predecessor means an earlier walk already passed here
        if tuple(map(sub, start, exps)) in out:
            continue
        steps = (total - sum(start)) // deg
        if caps is not None:
            steps = min([steps] + [(caps[i] - start[i]) // exps[i] for i in moving])
        acc = {}
        e = start
        for _ in range(steps + 1):
            acc = accumulate(terms.get(e, {}).items(),
                             accumulate((h + hc, v * vc) for hc, vc in coef.items()
                                        for h, v in acc.items()))
            if acc:
                out[e] = acc
            e = tuple(map(add, e, exps))
    return out


def _unit_factor_parts(f: MultiPoly):
    """Decompose a factor as const_part - sum of positive-degree monomials.

    Returns (c0, [(exps, coef), ...]) for f = c0 - sum coef*z**exps, or None
    when the factor has no constant term.
    """
    zero = (0,) * f.n
    c0 = f.terms.get(zero)
    if c0 is None:
        return None
    rest = [(e, -c) for e, c in f.terms.items() if e != zero]
    return c0, rest


def expand(rf: RationalFunction, total, caps=None) -> TruncSeries:
    """Taylor expansion of a rational function whose den factors are
    ``const * (1 - c*monomial)`` units.  Rejects denominators vanishing at 0.

    Each unit 1 - c*z**s is divided out by one linear recurrence pass,
    out[e] = num[e] + c*out[e - s], along every chain e, e + s, e + 2s, ...
    in order of increasing total degree.  The passes run on plain
    {half_exponent: coefficient} dicts: integral coefficients are ints, so the
    work is over Z wherever the data are integral (as for the rank-4
    function); others stay Fractions.  ParamPoly is rebuilt once at the end.
    """
    series = TruncSeries.from_poly(rf.num, total, caps)
    terms = _exact_terms(series.terms)
    const = PP_ONE
    for f in rf.den:
        parts = _unit_factor_parts(f)
        if parts is None:
            raise ValueError("denominator factor vanishes at the origin")
        c0, rest = parts
        if c0.is_zero():
            raise ValueError("denominator factor vanishes at the origin")
        if not rest:
            const = const * c0
            continue
        if not c0.is_one():
            raise ValueError("denominator factor not in unit form (1 - c*monomial)")
        if len(rest) != 1:
            raise ValueError("denominator factor is not a binomial unit")
        exps, coef = rest[0]
        terms = _geometric_pass(terms, exps, _exact_coeffs(coef.half), total, series.caps)
    series.terms = _param_terms(terms)
    if not const.is_one():
        inv = ONE / const.constant_value()
        series = series * inv
    return series


# ---------------------------------------------------------------------------
# Towers Q(sqrt q) and Q(i, q**(1/4)): integer numerators over one denominator
# ---------------------------------------------------------------------------

_SQRT_CACHE = {}


def _exact_sqrt(q: int):
    hit = _SQRT_CACHE.get(q, -1)
    if hit != -1:
        return hit
    r = isqrt(q)
    out = r if r * r == q else None
    _SQRT_CACHE[q] = out
    return out


def _fill(v, q: int, nums, den: int):
    """Store nums / den in the tower value v in normal form: den > 0 and
    gcd(*nums, den) = 1, so equal values have equal coordinates."""
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    v.q = q
    if g == 1:
        v.nums = tuple(nums)
        v.den = den
    else:
        v.nums = tuple([n // g for n in nums])
        v.den = den // g
    return v


def _power(x, k: int):
    """x**k for k != 0 by binary powering, with x inverted first when k < 0."""
    if k < 0:
        x, k = x.inverse(), -k
    r = None
    while True:
        if k & 1:
            r = x if r is None else r * x
        k >>= 1
        if not k:
            return r
        x = x * x


def _quad(q: int, nums, den: int) -> "QuadValue":
    return _fill(object.__new__(QuadValue), q, nums, den)


def _quartic(q: int, nums, den: int) -> "QuarticValue":
    return _fill(object.__new__(QuarticValue), q, nums, den)


class QuadValue:
    """(a + b*sqrt(q)) / den with integers ``nums = (a, b)`` and ``den``, in
    normal form; b = 0 when q is a square (the value collapses into Q)."""

    __slots__ = ("q", "nums", "den")

    def __init__(self, q: int, a=0, b=0, den: int = 1):
        ad, bd = a.denominator, b.denominator
        d = ad * bd // gcd(ad, bd)
        a, b = a.numerator * (d // ad), b.numerator * (d // bd)
        r = _exact_sqrt(q)
        if r is not None:
            a, b = a + b * r, 0
        _fill(self, q, (a, b), d * den)

    @property
    def a(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nums[1], self.den)

    @staticmethod
    def sqrt_q(q: int) -> "QuadValue":
        return QuadValue(q, 0, 1)

    def _coerce(self, other) -> "QuadValue":
        if isinstance(other, QuadValue):
            if other.q != self.q:
                raise ValueError("mixed q")
            return other
        return QuadValue(self.q, other)

    def __add__(self, other):
        o = self._coerce(other)
        (a, b), d = self.nums, self.den
        (c, e), f = o.nums, o.den
        return _quad(self.q, (a * f + c * d, b * f + e * d), d * f)

    __radd__ = __add__

    def __neg__(self):
        a, b = self.nums
        return _quad(self.q, (-a, -b), self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        (a, b), (c, e) = self.nums, o.nums
        return _quad(self.q, (a * c + b * e * self.q, a * e + b * c), self.den * o.den)

    __rmul__ = __mul__

    def conj(self) -> "QuadValue":
        a, b = self.nums
        return _quad(self.q, (a, -b), self.den)

    def inverse(self) -> "QuadValue":
        """(a + b sqrt q)**-1 = (a - b sqrt q) / (a**2 - q b**2)."""
        a, b = self.nums
        n = a * a - b * b * self.q
        if n == 0:
            raise ZeroDivisionError("zero or non-invertible QuadValue")
        return _quad(self.q, (a * self.den, -b * self.den), n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        return _power(self, k) if k else _quad(self.q, (1, 0), 1)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError, AttributeError):
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.q, self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self):
        if not self.nums[1]:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt({self.q})"


class QuarticValue:
    """Element of Q(i)[t] / (t**4 - q) with t = q**(1/4), as
    ``nums = (re_0..re_3, im_0..im_3)`` over ``den`` in normal form: the
    coordinate of q**(j/4) is (re_j + i*im_j) / den.

    When t**4 - q factors over Q (square q) the quotient is a product ring;
    inversion then only succeeds for units, which covers every value this
    library inverts.
    """

    __slots__ = ("q", "nums", "den")

    def __init__(self, q: int, coords=None, den: int = 1):
        """``coords``: 8 ints or Fractions in the order of ``coordinates()``."""
        coords = coords or (0,) * 8
        d = lcm(*[x.denominator for x in coords])
        _fill(self, q, [x.numerator * (d // x.denominator) for x in coords], d * den)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(q: int, x) -> "QuarticValue":
        return QuarticValue(q, (x, 0, 0, 0, 0, 0, 0, 0))

    @staticmethod
    def from_complex_rational(q: int, re, im) -> "QuarticValue":
        return QuarticValue(q, (re, 0, 0, 0, im, 0, 0, 0))

    @staticmethod
    def from_quad(qv: QuadValue) -> "QuarticValue":
        a, b = qv.nums
        return _quartic(qv.q, (a, 0, b, 0, 0, 0, 0, 0), qv.den)

    @staticmethod
    def root4(q: int, power: int = 1, coef=1) -> "QuarticValue":
        """coef * q**(power/4) for any integer power (negative allowed)."""
        n, d = coef.numerator, coef.denominator
        j, extra = power % 4, power // 4
        if extra >= 0:
            n *= q ** extra
        else:
            d *= q ** -extra
        nums = [0] * 8
        nums[j] = n
        return _quartic(q, nums, d)

    @staticmethod
    def i_unit(q: int) -> "QuarticValue":
        return QuarticValue.from_complex_rational(q, 0, 1)

    # -- ring ops ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QuarticValue):
            if other.q != self.q:
                raise ValueError("mixed q")
            return other
        if isinstance(other, QuadValue):
            if other.q != self.q:
                raise ValueError("mixed q")
            return QuarticValue.from_quad(other)
        return QuarticValue.from_rational(self.q, other)

    def __add__(self, other):
        o = self._coerce(other)
        d, f = self.den, o.den
        return _quartic(self.q, [x * f + y * d for x, y in zip(self.nums, o.nums)], d * f)

    __radd__ = __add__

    def __neg__(self):
        return _quartic(self.q, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        q = self.q
        x, y = self.nums, o.nums
        re = [0] * 7
        im = [0] * 7
        for i in range(4):
            a, b = x[i], x[i + 4]
            if a or b:
                for j in range(4):
                    c, e = y[j], y[j + 4]
                    re[i + j] += a * c - b * e
                    im[i + j] += a * e + b * c
        # t**(4 + k) = q t**k
        return _quartic(q, (re[0] + q * re[4], re[1] + q * re[5], re[2] + q * re[6], re[3],
                            im[0] + q * im[4], im[1] + q * im[5], im[2] + q * im[6], im[3]),
                        self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "QuarticValue":
        """x**-1 = x' y' conj(z) / |z|**2 through norms: x' = x(-t), the
        product y = x x' is even in t, y' = y(i t), and z = y y' lies in Q(i)."""
        q = self.q
        r0, r1, r2, r3, i0, i1, i2, i3 = self.nums
        xp = _quartic(q, (r0, -r1, r2, -r3, i0, -i1, i2, -i3), self.den)
        y = self * xp
        yp = _quartic(q, (y.nums[0], 0, -y.nums[2], 0, y.nums[4], 0, -y.nums[6], 0), y.den)
        z = y * yp
        zr, zi, dz = z.nums[0], z.nums[4], z.den
        norm = zr * zr + zi * zi
        if norm == 0:
            raise ZeroDivisionError("non-invertible QuarticValue")
        w = xp * yp * z.conj()
        return _quartic(q, [c * dz * dz for c in w.nums], w.den * norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        return _power(self, k) if k else QuarticValue.from_rational(self.q, 1)

    def conj(self) -> "QuarticValue":
        """Complex conjugation i -> -i (q**(1/4) stays real)."""
        n = self.nums
        return _quartic(self.q, n[:4] + tuple([-x for x in n[4:]]), self.den)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError, AttributeError):
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.q, self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def to_quad(self) -> QuadValue:
        n = self.nums
        if not any(n[j] for j in (1, 3, 4, 5, 6, 7)):
            return QuadValue(self.q, n[0], n[2], self.den)
        raise ValueError("value not in Q(sqrt q)")

    def coordinates(self):
        """8 rationals: (re_0..re_3, im_0..im_3) over the q**(j/4) basis."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    def __repr__(self):
        c = self.coordinates()
        bits = []
        for j in range(4):
            re, im = c[j], c[j + 4]
            if not re and not im:
                continue
            base = "1" if j == 0 else f"q^({j}/4)"
            bits.append(f"({re}{'+' if im >= 0 else ''}{im}i)*{base}")
        return " + ".join(bits) if bits else "0"


# -- fourth roots of unity as quartic values --------------------------------

def rho_value(q: int, rho: str) -> QuarticValue:
    """rho in {'1','-1','i','-i'} as an exact QuarticValue."""
    table = {
        "1": (1, 0), "-1": (-1, 0), "i": (0, 1), "-i": (0, -1),
    }
    re, im = table[rho]
    return QuarticValue.from_complex_rational(q, re, im)


RHO_CLASSES = ("1", "-1", "i", "-i")


# ---------------------------------------------------------------------------
# High-precision evaluation of tower values
# ---------------------------------------------------------------------------

def tower_mp(value):
    """A QuadValue as an mpmath ``mpf``, a QuarticValue as an ``mpc``, at
    mpmath's working precision.

    Each coordinate sum, a + b sqrt q or sum_j n_j q**(j/4) over the integer
    numerators, is formed with guard bits and then divided by ``den``.  A
    nonzero such sum has a nonzero integer norm, so it is at least about its
    largest term to the power 1 - k (k = 2, 4); k times the terms' bit
    length (the numerators' bits plus those of q) in guard bits keeps
    cancellation between coordinates from costing digits.
    """
    import mpmath
    if isinstance(value, QuadValue):
        k, parts = 2, (value.nums,)
    elif isinstance(value, QuarticValue):
        k, parts = 4, (value.nums[:4], value.nums[4:])
    else:
        raise TypeError(f"cannot render {type(value)!r}")
    bits = max(abs(n).bit_length() for n in value.nums) + value.q.bit_length()
    with mpmath.extraprec(k * (bits + 3)):
        root = mpmath.root(value.q, k)
        sums = [mpmath.fsum(n * root ** j for j, n in enumerate(p) if n) for p in parts]
    if k == 2:
        return sums[0] / value.den
    return mpmath.mpc(*sums) / value.den


def tower_float(value) -> complex:
    """Cheap float rendering (for reports and slack inequality checks)."""
    if isinstance(value, QuadValue):
        return float(value.a) + float(value.b) * (value.q ** 0.5)
    if isinstance(value, QuarticValue):
        r = value.q ** 0.25
        c = value.coordinates()
        re = sum(float(c[j]) * r ** j for j in range(4))
        im = sum(float(c[j + 4]) * r ** j for j in range(4))
        return complex(re, im)
    return complex(value)
