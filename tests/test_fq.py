import hashlib
import json
import random

import pytest

from mdsforge import fq


F5 = fq.build_field(5)
F9 = fq.build_field(3, 2)


def test_field_construction_constraints():
    with pytest.raises(ValueError):
        fq.FqField(2, 1)
    with pytest.raises(ValueError, match="mod 4"):
        fq.FqField(7, 1)
    assert fq.build_field(3, 2).q == 9  # 9 = 1 mod 4 accepted
    assert fq.build_field(13).q == 13


@pytest.mark.parametrize("p, e, digest", [
    (3, 2, "6ef4f29d572b5ef6fa83007cd14c6a3c754433299d7ecbdbfa21cbd572482eb3"),
    (5, 2, "6e534489ec7d814cabda855e86d41964a44a80a14c591e255f048abfcc0440e3"),
    (3, 4, "f6f6f6eaeb6d6ad40e2d1fb481fff28d9c6a74ef41016d1e7831461aa5984180"),
    (7, 2, "9845882871e5aae4b286513ad3518d3881108d2efdae571cf063f53ff45c2f53"),
    (13, 2, "cfb9fdddd68f008cd1c0abf4bc85cc88a6bbeb8c5d75aa60c09140495a956158"),
])
def test_extension_field_tables_pinned(p, e, digest):
    # element codes are read by every cached and reported value over F_q:
    # the modulus and the code order must not move
    F = fq.FqField(p, e)
    tables = json.dumps([F.mul, F.addtab]).encode()
    assert hashlib.sha256(tables).hexdigest() == digest


def test_nonsquare_unit_is_verified():
    assert F5.nonsquare_unit == 2  # smallest of {2, 3}
    for F in (F5, F9):
        theta = F.nonsquare_unit
        assert F.pow_el(theta, (F.q - 1) // 2) == F.neg[1]


def test_sgn():
    assert fq.sgn(F5, (0, 0, 1)) == 1        # monic
    assert fq.sgn(F5, (1, 2)) == -1          # leading coeff 2, a non-square
    assert fq.sgn(F5, (3, 4)) == 1           # 4 = 2^2
    gen = F9.nonsquare_unit
    assert fq.sgn(F9, (0, gen)) == -1
    with pytest.raises(ValueError):
        fq.sgn(F5, ())


def test_kronecker_basics():
    assert fq.kronecker(F5, (3, 1, 2), fq.P_ONE) == 1  # (d/1) = 1
    assert fq.kronecker(F5, (2,), (0, 1)) == -1        # 2 not a square mod x
    # shared factor kills the symbol
    x = (0, 1)
    assert fq.kronecker(F5, fq.pmul(F5, x, (3, 1)), fq.pmul(F5, x, (1, 1))) == 0


@pytest.mark.parametrize("F", [F5, F9], ids=["q5", "q9"])
def test_reciprocity_exhaustive(F):
    cap = 3 if F is F5 else 2
    for dd in range(1, cap + 1):
        for dm in range(1, cap + 1):
            for di in range(F.q ** dd):
                d = fq.monic_by_index(F, dd, di)
                for mi in range(F.q ** dm):
                    m = fq.monic_by_index(F, dm, mi)
                    if fq.deg(fq.pgcd_monic(F, d, m)) == 0:
                        assert fq.kronecker(F, d, m) == fq.kronecker(F, m, d)


def test_kronecker_matches_factored_oracle():
    rng = random.Random(11)
    for _ in range(400):
        d = fq.trim(tuple(rng.randrange(5) for _ in range(rng.randint(1, 5))))
        if not d:
            d = (2,)
        m = fq.monic_by_index(F5, rng.randint(1, 4), rng.randrange(5 ** 4))
        assert fq.kronecker(F5, d, m) == fq.kronecker_factored(F5, d, m)


def test_kronecker_complete_multiplicativity():
    rng = random.Random(7)
    for _ in range(120):
        d1 = fq.monic_by_index(F5, rng.randint(0, 3), rng.randrange(125))
        d2 = fq.monic_by_index(F5, rng.randint(0, 3), rng.randrange(125))
        m = fq.monic_by_index(F5, rng.randint(1, 3), rng.randrange(125))
        m2 = fq.monic_by_index(F5, rng.randint(1, 3), rng.randrange(125))
        assert (fq.kronecker(F5, fq.pmul(F5, d1, d2), m)
                == fq.kronecker(F5, d1, m) * fq.kronecker(F5, d2, m))
        assert (fq.kronecker(F5, d1, fq.pmul(F5, m, m2))
                == fq.kronecker(F5, d1, m) * fq.kronecker(F5, d1, m2))


def test_enumeration_counts():
    assert list(fq.enumerate_monic(F5, 0)) == [fq.P_ONE]
    assert sum(1 for _ in fq.enumerate_monic(F5, 3, "squarefree")) == 100
    # divisor-sum recurrence against filtered enumeration
    for m in range(1, 5):
        direct = sum(1 for _ in fq.enumerate_monic(F5, m, "irreducible"))
        assert direct == fq.irreducible_count(F5, m)
    for m in range(1, 7):
        total = sum(d * fq.irreducible_count(F5, d)
                    for d in range(1, m + 1) if m % d == 0)
        assert total == 5 ** m


def test_squarefree_mask_matches_gcd_test():
    for F, n_max in ((F5, 6), (F9, 4)):
        for n in range(n_max + 1):
            mask = fq.squarefree_mask(F, n)
            assert len(mask) == F.q ** n
            assert list(mask) == [fq.is_squarefree(F, m) for m in fq.enumerate_monic(F, n)]
            assert sum(mask) == (F.q ** n - F.q ** (n - 1) if n >= 2 else F.q ** n)
            for idx in range(0, F.q ** n, 7):
                m = fq.monic_by_index(F, n, idx)
                assert fq.coeff_index(F, m[:-1]) == idx


def test_enumeration_partitions():
    whole = list(fq.enumerate_monic(F5, 2))
    split = list(fq.enumerate_monic(F5, 2, start=0, stop=11)) + \
        list(fq.enumerate_monic(F5, 2, start=11, stop=25))
    assert whole == split


def test_factor_reconstruct_roundtrip():
    for d in range(6):
        for idx in range(5 ** d):
            m = fq.monic_by_index(F5, d, idx)
            unit, fs = fq.factor(F5, m)
            back = (unit,)
            for p, mult in fs:
                for _ in range(mult):
                    back = fq.pmul(F5, back, p)
            assert back == m


def test_mobius():
    assert fq.mobius(F5, fq.P_ONE) == 1
    p = (0, 1)
    assert fq.mobius(F5, fq.pmul(F5, p, p)) == 0
    # sum over divisors
    for d in range(0, 6):
        for idx in range(0, 5 ** d, 7):
            m = fq.monic_by_index(F5, d, idx)
            s = sum(fq.mobius(F5, h) for h in fq.divisors_monic(F5, m))
            assert s == (1 if d == 0 else 0)


def test_square_decomposition_bijection():
    seen = {}
    for a in range(4):
        for ai in range(5 ** a):
            d0 = fq.monic_by_index(F5, a, ai)
            if not fq.is_squarefree(F5, d0):
                continue
            for b in range((4 - a) // 2 + 1):
                for bi in range(5 ** b):
                    d1 = fq.monic_by_index(F5, b, bi)
                    d = fq.pmul(F5, d0, fq.pmul(F5, d1, d1))
                    assert fq.square_decomposition(F5, d) == (d0, d1)
                    assert d not in seen
                    seen[d] = (d0, d1)


def test_euler_phi():
    assert fq.euler_phi(F5, fq.P_ONE) == 1
    x = (0, 1)
    assert fq.euler_phi(F5, x) == 4
    assert fq.euler_phi(F5, fq.pmul(F5, x, (1, 1))) == 16
    assert fq.euler_phi(F5, fq.pmul(F5, x, x)) == 20  # |p|^(k-1)(|p|-1)
