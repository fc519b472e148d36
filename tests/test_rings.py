import math
import random
from fractions import Fraction

import pytest

from mdsforge.rings import (MultiPoly, ParamPoly, PP_ONE, QuadValue,
                            QuarticValue, RationalFunction, TruncSeries,
                            accumulate, expand, rat_equal, tower_eval,
                            tower_float)


def test_accumulate():
    # pairs that cancel leave no key, for every coefficient type in use
    for one in (1, Fraction(1, 3), ParamPoly.q_power(1, 2) + 1):
        pairs = [("a", one), ("b", one), ("a", -one), ("c", -one), ("c", one)]
        assert accumulate(pairs) == {"b": one}
        assert accumulate([("a", one - one)]) == {}
    # a given dict is updated in place and returned
    base = {"a": 2, "b": 1}
    assert accumulate([("a", -2), ("c", 5), ("b", 1)], base) is base
    assert base == {"b": 2, "c": 5}
    assert bool(ParamPoly()) is False
    assert bool(PP_ONE - PP_ONE) is False
    assert bool(PP_ONE) is True


def test_eval_int():
    pp = ParamPoly.q_power(2, 3) + ParamPoly.q_power(-1, 5) + ParamPoly.const(-1)
    assert pp.eval_int(5) == 75
    assert ParamPoly().eval_int(7) == 0
    with pytest.raises(ArithmeticError):
        ParamPoly.q_power(1, 1, half_units=True).eval_int(9)  # q**(1/2)
    with pytest.raises(ArithmeticError):
        ParamPoly.q_power(-1).eval_int(5)  # 1/5
    with pytest.raises(ArithmeticError):
        ParamPoly.const(Fraction(1, 2)).eval_int(5)


def _random_parampoly(rng):
    out = ParamPoly()
    for _ in range(rng.randint(0, 3)):
        out = out + ParamPoly.q_power(rng.randint(-2, 3), Fraction(rng.randint(-4, 4)))
    return out


def _random_multipoly(rng, n=2):
    out = MultiPoly(n)
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        out = out + MultiPoly.monomial(n, exps, _random_parampoly(rng))
    return out


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(60):
        a, b, c = (_random_multipoly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a - a).is_zero()


def test_expand_geometric():
    one = MultiPoly.const(1, 1)
    f = RationalFunction(one, [one - MultiPoly.monomial(1, (1,), PP_ONE)])
    s = expand(f, 3)
    assert [s.coefficient((k,)) for k in range(4)] == [PP_ONE] * 4


def test_expand_rejects_origin_pole():
    z = MultiPoly.monomial(1, (1,), PP_ONE)
    with pytest.raises(ValueError):
        expand(RationalFunction(MultiPoly.const(1, 1), [z]), 3)


def test_expand_is_ring_homomorphism():
    rng = random.Random(5)
    one = MultiPoly.const(2, 1)
    for _ in range(10):
        def unit():
            exps = (rng.randint(0, 1), rng.randint(0, 1))
            if exps == (0, 0):
                exps = (1, 0)
            return one - MultiPoly.monomial(2, exps, ParamPoly.q_power(rng.randint(0, 2)))
        f = RationalFunction(_random_multipoly(rng) + one, [unit()])
        g = RationalFunction(_random_multipoly(rng) + one, [unit()])
        lhs = expand(f * g, 4)
        rhs = expand(f, 4) * expand(g, 4)
        assert lhs.terms == rhs.truncate(4).terms


def _random_fraction_parampoly(rng):
    out = ParamPoly()
    while out.is_zero():
        for _ in range(rng.randint(1, 3)):
            coef = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
            out = out + ParamPoly.q_power(rng.randint(-3, 3), coef, half_units=True)
    return out


def test_expand_times_denominator_is_numerator():
    # algebraic oracle: (num / den) expanded, times den, is num -- under
    # per-variable caps, with repeated units, multi-term and non-integral
    # coefficients, and a constant factor in the denominator
    rng = random.Random(11)
    n = 3
    one = MultiPoly.const(n, 1)
    for _ in range(25):
        num = MultiPoly(n)
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            num = num + MultiPoly.monomial(n, exps, _random_fraction_parampoly(rng))
        den = []
        for _ in range(rng.randint(1, 4)):
            exps = (0,) * n
            while not any(exps):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
            unit = one - MultiPoly.monomial(n, exps, _random_fraction_parampoly(rng))
            den.extend([unit] * rng.randint(1, 3))
        if rng.random() < 0.3:
            den.append(MultiPoly.const(n, Fraction(rng.randint(1, 6), rng.randint(1, 4))))
        f = RationalFunction(num, den)
        total = rng.randint(4, 9)
        caps = tuple(rng.randint(2, 6) for _ in range(n))
        series = expand(f, total, caps)
        for c in series.terms.values():
            assert c.half and all(type(v) is Fraction and v for v in c.half.values())
        back = series.mul_poly(f.den_expanded())
        assert back == TruncSeries.from_poly(f.num, total, caps)


def test_mul_geometric_matches_binomial_sum():
    # (1 - c z^s)^-3 = sum_k C(k+2, 2) c^k z^(k s)
    rng = random.Random(4)
    exps = (1, 2)
    c = ParamPoly.q_power(1, Fraction(2, 3)) + ParamPoly.q_power(-1, -1, half_units=True)
    total, caps = 14, (6, 11)
    binomial = MultiPoly(2)
    for k in range(8):
        binomial = binomial + MultiPoly.monomial(2, (k, 2 * k), c ** k * math.comb(k + 2, 2))
    for _ in range(5):
        start = TruncSeries.from_poly(_random_multipoly(rng) + 1, total, caps)
        assert start.mul_geometric(exps, c, power=3) == start.mul_poly(binomial)


def test_truncation_consistency():
    one = MultiPoly.const(2, 1)
    den = [one - MultiPoly.monomial(2, (1, 1), ParamPoly.q_power(1)),
           one - MultiPoly.monomial(2, (0, 1), PP_ONE)]
    f = RationalFunction(one + MultiPoly.monomial(2, (1, 0), PP_ONE), den)
    big = expand(f, 7)
    small = expand(f, 4)
    assert big.truncate(4).terms == small.terms


def test_rat_equal_modes():
    one = MultiPoly.const(1, 1)
    z = MultiPoly.monomial(1, (1,), PP_ONE)
    f = RationalFunction(one, [one - z])
    assert rat_equal(f, f, "exact") == (True, None)
    # (1 - z^2)/(1-z)^2 == (1+z)/(1-z)
    g = RationalFunction(one - z * z, [one - z, one - z])
    h = RationalFunction(one + z, [one - z])
    ok, _ = rat_equal(g, h, "exact")
    assert ok
    perturbed = RationalFunction(one + z + MultiPoly.monomial(1, (2,), ParamPoly.q_power(1)),
                                 [one - z])
    ok, witness = rat_equal(perturbed, h, "randomized", trials=6, seed=3)
    assert not ok and witness is not None


def test_quadvalue_field_ops():
    x = QuadValue(5, Fraction(1, 2), Fraction(3, 4))
    y = QuadValue(5, Fraction(-2), Fraction(1, 3))
    assert (x * y) * x == x * (y * x)
    assert (x / y) * y == x
    assert x.conj() * y.conj() == (x * y).conj()  # conjugation is a ring map
    assert (x ** 3) * (x ** -3) == QuadValue(5, 1, 0)
    # square q collapses
    z = QuadValue(9, 1, 2)
    assert z.b == 0 and z.a == 7


def test_quarticvalue_structure():
    i = QuarticValue.i_unit(5)
    assert i * i == QuarticValue.from_rational(5, -1)
    r = QuarticValue.root4(5)
    assert r ** 4 == QuarticValue.from_rational(5, 5)  # q^{4/4} = q
    x = QuarticValue(5, None) + r * 3 + i * r ** 3
    inv = x.inverse()
    assert x * inv == QuarticValue.from_rational(5, 1)
    # embedding of the quadratic tower: coordinates {1, q^{1/2}} only
    rng = random.Random(2)
    for _ in range(25):
        a = QuadValue(5, Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2))
        b = QuadValue(5, rng.randint(-4, 4), rng.randint(-4, 4))
        lhs = QuarticValue.from_quad(a) * QuarticValue.from_quad(b)
        assert lhs == QuarticValue.from_quad(a * b)
        assert lhs.to_quad() == a * b


def _is_quartic_unit(x):
    """Whether x is a unit, decided without ``inverse``: for square q = r^2,
    t^4 - q = (t^2 - r)(t^2 + r) and x is a unit iff it is nonzero modulo
    both factors; for other q in the sweep t^4 - q is irreducible over Q(i)."""
    r = math.isqrt(x.q)
    if r * r != x.q:
        return not x.is_zero()
    c = x.coordinates()
    return all(any(c[k] + s * r * c[k + 2] for k in (0, 1, 4, 5)) for s in (1, -1))


def test_quartic_inverse_in_square_q_ring():
    # t^4 - 9 is reducible: the quotient is only a product ring, but the
    # values this library inverts are units there
    v = 1 - QuarticValue.root4(9, -1)  # 1 - 9^(-1/4)
    assert v * v.inverse() == QuarticValue.from_rational(9, 1)
    zero_divisor = QuarticValue.root4(9, 2) - 3  # sqrt(9) - 3 = 0 component
    with pytest.raises(ZeroDivisionError):
        zero_divisor.inverse()
    # seeded sweep: every unit inverts, every zero divisor raises
    rng = random.Random(6)
    for q in (5, 9, 13, 25):
        r = math.isqrt(q)
        sqrt_q = QuarticValue.root4(q, 2)
        if r * r == q:
            with pytest.raises(ZeroDivisionError):
                (sqrt_q - r).inverse()
        for n in range(60):
            x = QuarticValue(q, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                 for _ in range(8)])
            if n % 3 and r * r == q:
                x = x * (sqrt_q - r if n % 3 == 1 else sqrt_q + r)
            if _is_quartic_unit(x):
                assert x * x.inverse() == 1, (q, x)
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
    with pytest.raises(ZeroDivisionError):
        QuarticValue(5).inverse()


def _normal(v):
    return v.den > 0 and math.gcd(*v.nums, v.den) == 1


def test_tower_values_are_in_normal_form():
    # every constructor and operation leaves den > 0 and
    # gcd(numerators, den) = 1, so == and hash are structural
    rng = random.Random(7)

    def rat():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    for q in (5, 9):
        quads = [QuadValue(q, rat(), rat()) for _ in range(4)]
        quads += [QuadValue.sqrt_q(q), QuadValue(q, 4, -2, -6), QuadValue(q, 6, 0, 3)]
        quarts = [QuarticValue.from_rational(q, Fraction(4, 6)),
                  QuarticValue.from_complex_rational(q, rat(), Fraction(-3, 9)),
                  QuarticValue.from_quad(quads[0]), QuarticValue.from_quad(quads[-2]),
                  QuarticValue.root4(q, -5, Fraction(6, 4)), QuarticValue.root4(q, -2, q),
                  QuarticValue.root4(q, 3, -2), QuarticValue.i_unit(q),
                  QuarticValue(q, [rat() for _ in range(8)], -4)]
        for vals in (quads, quarts):
            out = list(vals)
            for x in vals:
                out += [x.conj(), -x, x ** 3, x ** 0, x + 2, Fraction(-2, 6) * x]
                for y in vals:
                    out += [x + y, x - y, x * y]
                    if not y.is_zero():
                        try:
                            out += [x / y, y.inverse(), y ** -2]
                        except ZeroDivisionError:  # zero divisor of a square-q ring
                            pass
            bad = [v for v in out if not _normal(v)]
            assert not bad, bad
    # equal values built by different routes compare and hash equal
    x = QuadValue(5, Fraction(1, 2), Fraction(3, 4))
    y = QuadValue(5, Fraction(-2), Fraction(1, 3))
    same = [(x, QuadValue(5, 2, 3, 4)), (x, QuadValue(5, Fraction(-4, -8), Fraction(6, 8))),
            ((x + y) - y, x), (x * x.inverse(), QuadValue(5, 1)), (x ** -2 * x ** 3, x),
            (QuadValue(9, 1, 2), QuadValue(9, Fraction(14, 2))),
            (QuarticValue.from_quad(x), QuarticValue(5, (2, 0, 3, 0, 0, 0, 0, 0), 4)),
            (QuarticValue.root4(5, -4), QuarticValue.from_rational(5, Fraction(1, 5))),
            (QuarticValue.root4(5, 2, 3) + 1, QuarticValue.from_quad(QuadValue(5, 1, 3))),
            (QuarticValue.i_unit(5) * QuarticValue.i_unit(5), QuarticValue.from_rational(5, -1)),
            (QuarticValue.root4(5, 3) * QuarticValue.root4(5, -1), QuarticValue.root4(5, 2))]
    for u, v in same:
        assert u == v and hash(u) == hash(v), (u, v)


def test_tower_eval():
    val = tower_eval(1 / (1 - QuadValue.sqrt_q(5)), 8)
    assert str(val) == "-0.80901699"
    val2 = tower_eval(1 / (1 + QuadValue.sqrt_q(5)), 8)
    assert str(val2) == "0.30901699"
    assert tower_eval(QuadValue(5, 0, 0), 10) == 0
    re, im = tower_eval(QuarticValue.root4(5) + QuarticValue.i_unit(5), 6)
    assert str(re) == "1.495349"
    assert str(im) == "1.000000"
    assert abs(tower_float(QuarticValue.root4(5)) - 5 ** 0.25) < 1e-12
