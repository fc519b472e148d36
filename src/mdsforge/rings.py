"""Exact coefficient rings for the symbolic engine.

Everything here is built on ``fractions.Fraction``; no floating point enters
any identity check.  The main types:

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
* ``QuadValue``   -- exact elements a + b*sqrt(q) of Q(sqrt q) at numeric q.
* ``QuarticValue``-- exact elements of Q(i, q**(1/4)) at numeric q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
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
        r = ParamPoly.const(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

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
    per-variable caps.  ``provenance`` records what produced the series.
    """

    __slots__ = ("n", "total", "caps", "terms", "provenance")

    def __init__(self, n, total, caps=None, terms=None, provenance=""):
        self.n = n
        self.total = total
        self.caps = tuple(caps) if caps is not None else None
        self.terms = terms or {}
        self.provenance = provenance

    def _keep(self, e) -> bool:
        if sum(e) > self.total:
            return False
        if self.caps is not None:
            return all(k <= c for k, c in zip(e, self.caps))
        return True

    @staticmethod
    def from_poly(p: MultiPoly, total, caps=None, provenance=""):
        s = TruncSeries(p.n, total, caps, provenance=provenance)
        s.terms = {e: c for e, c in p.terms.items() if s._keep(e)}
        return s

    def clone_empty(self):
        return TruncSeries(self.n, self.total, self.caps, provenance=self.provenance)

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
                        self.caps if caps is None else caps,
                        provenance=self.provenance)
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


def expand(rf: RationalFunction, total, caps=None, provenance="expand") -> TruncSeries:
    """Taylor expansion of a rational function whose den factors are
    ``const * (1 - c*monomial)`` units.  Rejects denominators vanishing at 0.

    Each unit 1 - c*z**s is divided out by one linear recurrence pass,
    out[e] = num[e] + c*out[e - s], along every chain e, e + s, e + 2s, ...
    in order of increasing total degree.  The passes run on plain
    {half_exponent: coefficient} dicts: integral coefficients are ints, so the
    work is over Z wherever the data are integral (as for the rank-4
    function); others stay Fractions.  ParamPoly is rebuilt once at the end.
    """
    series = TruncSeries.from_poly(rf.num, total, caps, provenance=provenance)
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
# Quadratic tower Q(sqrt q)
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


class QuadValue:
    """a + b*sqrt(q) with rational a, b; collapses when q is a square."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a=0, b=0):
        self.q = q
        a = _fr(a)
        b = _fr(b)
        r = _exact_sqrt(q)
        if r is not None and b:
            a, b = a + b * r, ZERO
        self.a = a
        self.b = b

    @staticmethod
    def sqrt_q(q: int) -> "QuadValue":
        return QuadValue(q, 0, 1)

    def _coerce(self, other) -> "QuadValue":
        if isinstance(other, QuadValue):
            if other.q != self.q:
                raise ValueError("mixed q")
            return other
        return QuadValue(self.q, other, 0)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadValue(self.q, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadValue(self.q, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadValue(self.q, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadValue(self.q, self.a * o.a + self.b * o.b * self.q,
                         self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conj(self) -> "QuadValue":
        return QuadValue(self.q, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.q

    def inverse(self) -> "QuadValue":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero or non-invertible QuadValue")
        return QuadValue(self.q, self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        r = QuadValue(self.q, 1, 0)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __repr__(self):
        if not self.b:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt({self.q})"


# ---------------------------------------------------------------------------
# Quartic tower Q(i, q**(1/4))
# ---------------------------------------------------------------------------

class _Gauss:
    """Tiny helper: elements of Q(i) as (re, im) Fraction pairs."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _fr(re)
        self.im = _fr(im)

    def __add__(self, o):
        return _Gauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Gauss(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    def __neg__(self):
        return _Gauss(-self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("zero Gaussian rational")
        return _Gauss(self.re / n, -self.im / n)

    def is_zero(self):
        return not self.re and not self.im


def _gpoly_divmod(a, b):
    """Division with remainder in Q(i)[t]; polys are lists of _Gauss, low first."""
    a = list(a)
    db = len(b) - 1
    while len(b) > 1 and b[-1].is_zero():
        b = b[:-1]
        db -= 1
    inv_lead = b[-1].inverse()
    quot = [_Gauss() for _ in range(max(0, len(a) - db))]
    while len(a) - 1 >= db and not all(x.is_zero() for x in a):
        while len(a) > 1 and a[-1].is_zero():
            a.pop()
        da = len(a) - 1
        if da < db:
            break
        coef = a[-1] * inv_lead
        quot[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = a[da - db + i] - coef * b[i]
        a.pop()
    return quot, a


class QuarticValue:
    """Element of Q(i)[t] / (t**4 - q) with t = q**(1/4).

    Coordinates: coeffs[j] is the Q(i) coefficient of q**(j/4), j = 0..3.
    When t**4 - q factors over Q (square q) the quotient is a product ring;
    inversion then only succeeds for units, which covers every value this
    library inverts.
    """

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs=None):
        self.q = q
        if coeffs is None:
            coeffs = (_Gauss(), _Gauss(), _Gauss(), _Gauss())
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(q: int, x) -> "QuarticValue":
        return QuarticValue(q, (_Gauss(x), _Gauss(), _Gauss(), _Gauss()))

    @staticmethod
    def from_complex_rational(q: int, re, im) -> "QuarticValue":
        return QuarticValue(q, (_Gauss(re, im), _Gauss(), _Gauss(), _Gauss()))

    @staticmethod
    def from_quad(qv: QuadValue) -> "QuarticValue":
        return QuarticValue(qv.q, (_Gauss(qv.a), _Gauss(), _Gauss(qv.b), _Gauss()))

    @staticmethod
    def root4(q: int, power: int = 1, coef=1) -> "QuarticValue":
        """coef * q**(power/4) for any integer power (negative allowed)."""
        c = _fr(coef)
        j, extra = power % 4, power // 4
        if extra >= 0:
            c *= Fraction(q) ** extra
        else:
            c /= Fraction(q) ** (-extra)
        lst = [_Gauss(), _Gauss(), _Gauss(), _Gauss()]
        lst[j] = _Gauss(c)
        return QuarticValue(q, lst)

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
        return QuarticValue(self.q, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return QuarticValue(self.q, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        return QuarticValue(self.q, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        prod = [_Gauss() for _ in range(7)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                if b.is_zero():
                    continue
                prod[i + j] = prod[i + j] + a * b
        qg = _Gauss(self.q)
        out = list(prod[:4])
        for k in range(4, 7):
            out[k - 4] = out[k - 4] + prod[k] * qg
        return QuarticValue(self.q, out)

    __rmul__ = __mul__

    def inverse(self) -> "QuarticValue":
        # extended Euclid in Q(i)[t] against t**4 - q
        mod = [_Gauss(-self.q), _Gauss(), _Gauss(), _Gauss(), _Gauss(1)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [_Gauss()], [_Gauss(1)]
        while True:
            while len(r1) > 1 and r1[-1].is_zero():
                r1.pop()
            if len(r1) == 1 and r1[0].is_zero():
                raise ZeroDivisionError("non-invertible QuarticValue")
            if len(r1) == 1:
                inv = r1[0].inverse()
                out = [(c * inv) for c in s1]
                out = (out + [_Gauss()] * 4)[:4]
                return QuarticValue(self.q, out)
            quot, rem = _gpoly_divmod(r0, r1)
            # s_new = s0 - quot*s1
            prod = [_Gauss() for _ in range(len(quot) + len(s1) - 1)]
            for i, qc in enumerate(quot):
                if qc.is_zero():
                    continue
                for j, sc in enumerate(s1):
                    prod[i + j] = prod[i + j] + qc * sc
            s_new = [_Gauss() for _ in range(max(len(s0), len(prod)))]
            for i, c in enumerate(s0):
                s_new[i] = s_new[i] + c
            for i, c in enumerate(prod):
                s_new[i] = s_new[i] - c
            r0, r1 = r1, rem
            s0, s1 = s1, s_new

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        r = QuarticValue.from_rational(self.q, 1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def conj(self) -> "QuarticValue":
        """Complex conjugation i -> -i (q**(1/4) stays real)."""
        return QuarticValue(self.q, tuple(_Gauss(c.re, -c.im) for c in self.coeffs))

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return all(a.re == b.re and a.im == b.im
                   for a, b in zip(self.coeffs, o.coeffs))

    def __hash__(self):
        return hash((self.q, tuple((c.re, c.im) for c in self.coeffs)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def to_quad(self) -> QuadValue:
        if (self.coeffs[1].is_zero() and self.coeffs[3].is_zero()
                and not self.coeffs[0].im and not self.coeffs[2].im):
            return QuadValue(self.q, self.coeffs[0].re, self.coeffs[2].re)
        raise ValueError("value not in Q(sqrt q)")

    def coordinates(self):
        """8 rationals: (re_0..re_3, im_0..im_3) over the q**(j/4) basis."""
        return tuple(c.re for c in self.coeffs) + tuple(c.im for c in self.coeffs)

    def __repr__(self):
        bits = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            base = "1" if j == 0 else f"q^({j}/4)"
            bits.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)*{base}")
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

def _floor_root_scaled(q: int, k: int, digits: int) -> int:
    """floor(q**(1/k) * 10**digits) for k in {2, 4}."""
    scaled = q * 10 ** (k * digits)
    r = isqrt(scaled)
    if k == 4:
        r = isqrt(r)
    return r


def _round_fraction(x: Fraction, digits: int):
    from decimal import Decimal
    sign = -1 if x < 0 else 1
    x = abs(x)
    scaled = x * 10 ** digits
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled - n) >= 1:
        n += 1
    return Decimal(sign * n).scaleb(-digits)


def tower_eval(value, digits: int = 50):
    """Evaluate a QuadValue / QuarticValue numerically.

    Returns a Decimal (QuadValue) or a (re, im) Decimal pair (QuarticValue),
    correctly rounded to ``digits`` decimal places.  Exact zeros map to 0.
    """
    if isinstance(value, QuadValue):
        if value.is_zero():
            return _round_fraction(ZERO, digits)
        guard = digits + 10
        while True:
            r = _floor_root_scaled(value.q, 2, guard)
            lo = value.a + value.b * Fraction(r, 10 ** guard)
            hi = value.a + value.b * Fraction(r + 1, 10 ** guard)
            if value.b < 0:
                lo, hi = hi, lo
            dlo = _round_fraction(lo, digits)
            dhi = _round_fraction(hi, digits)
            if dlo == dhi:
                return dlo
            guard += 10

    if isinstance(value, QuarticValue):
        guard = digits + 10
        while True:
            r = _floor_root_scaled(value.q, 4, guard)
            results = []
            ok = True
            for part in ("re", "im"):
                lo = ZERO
                hi = ZERO
                for j, c in enumerate(value.coeffs):
                    coef = getattr(c, part)
                    if not coef:
                        continue
                    blo = Fraction(r, 10 ** guard) ** j
                    bhi = Fraction(r + 1, 10 ** guard) ** j
                    if coef > 0:
                        lo += coef * blo
                        hi += coef * bhi
                    else:
                        lo += coef * bhi
                        hi += coef * blo
                dlo = _round_fraction(lo, digits)
                dhi = _round_fraction(hi, digits)
                if dlo != dhi:
                    ok = False
                    break
                results.append(dlo)
            if ok:
                return tuple(results)
            guard += 10

    raise TypeError(f"cannot tower_eval {type(value)!r}")


def tower_float(value) -> complex:
    """Cheap float rendering (for reports and slack inequality checks)."""
    if isinstance(value, QuadValue):
        return float(value.a) + float(value.b) * (value.q ** 0.5)
    if isinstance(value, QuarticValue):
        r = value.q ** 0.25
        re = sum(float(c.re) * r ** j for j, c in enumerate(value.coeffs))
        im = sum(float(c.im) * r ** j for j, c in enumerate(value.coeffs))
        return complex(re, im)
    return complex(value)
