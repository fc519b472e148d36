import random
from fractions import Fraction

import mpmath
import pytest

from mdsforge import fq, lseries
from mdsforge.rings import QuadValue, tower_mp


F5 = fq.build_field(5)
F9 = fq.build_field(3, 2)
X = (0, 1)


def test_degree_one_is_trivial():
    L = lseries.l_polynomial(F5, X)
    assert L.coeffs == [1]
    assert L.central_value() == QuadValue(5, 1, 0)
    # the degree-one character sum itself vanishes
    assert lseries.coeff_sums_direct(F5, X, 1)[1] == 0


def test_constant_conductor_special_values():
    L = lseries.l_polynomial(F5, fq.P_ONE)
    assert L.special == "zeta"
    assert L.central_value() == lseries.zeta_half(5)
    Lt = lseries.l_polynomial(F5, fq.P_ONE, unit=F5.nonsquare_unit)
    assert Lt.special == "minus"
    assert Lt.central_value() == lseries.l_nonsquare_half(5)
    with pytest.raises(ValueError):
        L.central_parts()


def test_nonsquarefree_rejected():
    with pytest.raises(ValueError):
        lseries.l_polynomial(F5, fq.pmul(F5, X, X))


def test_coeff_sums_match_direct_enumeration():
    for top in [(2, 0, 1), (1, 1, 0, 1), (3, 1), (2, 4, 1, 0, 1)]:
        assert lseries.coeff_sums(F5, top, 4) == lseries.coeff_sums_direct(F5, top, 4)
    skip = ((0, 1),)
    top = (2, 0, 1)
    assert (lseries.coeff_sums(F5, top, 3, skip=skip)
            == lseries.coeff_sums_direct(F5, top, 3, skip=skip))


@pytest.mark.parametrize("F,deg_max", [(F5, 3), (F9, 2)], ids=["q5", "q9"])
def test_residue_symbol_tables_match_kronecker(F, deg_max):
    for d in range(1, deg_max + 1):
        for p in fq.irreducibles(F, d):
            table = lseries._residue_symbol_table((F.p, F.e), p)
            assert len(table) == F.q ** d
            for r, s in table.items():
                assert s == fq.kronecker(F, r, p)


@pytest.mark.parametrize("F,deg_cap", [(F5, 5), (F9, 3)], ids=["q5", "q9"])
def test_full_vs_completed_exhaustive(F, deg_cap):
    q = F.q
    for D in range(1, deg_cap + 1):
        for d0 in fq.enumerate_monic(F, D, "squarefree"):
            for unit in (1, F.nonsquare_unit):
                full = lseries.l_polynomial(F, d0, unit, "full").coeffs
                L = lseries.l_polynomial(F, d0, unit, "fe_completed")
                assert full == L.coeffs, (d0, unit)
                # the integer central parts against the direct sum
                # c_n q^(-n/2), kept as two rational coordinates (also at
                # q = 9, where QuadValue would merge them)
                A, B, k = L.central_parts()
                a = sum(Fraction(c, q ** (n // 2))
                        for n, c in enumerate(full) if n % 2 == 0)
                b = sum(Fraction(c, q ** ((n + 1) // 2))
                        for n, c in enumerate(full) if n % 2)
                assert k == D // 2
                assert (Fraction(A, q ** k), Fraction(B, q ** k)) == (a, b), (d0, unit)


def test_full_vs_completed_sampled_high_degree():
    # degrees 6..8 on seeded samples (the exhaustive degree-6 sweep is the
    # same check repeated 15624 times; samples keep the suite fast)
    rng = random.Random(77)
    for D in (6, 7, 8):
        done = 0
        while done < (40 if D == 6 else 12):
            d0 = fq.monic_by_index(F5, D, rng.randrange(5 ** D))
            if not fq.is_squarefree(F5, d0):
                continue
            full = lseries.l_polynomial(F5, d0, 1, "full").coeffs
            fe = lseries.l_polynomial(F5, d0, 1, "fe_completed").coeffs
            assert full == fe, d0
            done += 1


def test_fe_complete_rejects_non_integral_result():
    # a non-integral lower half leaves a remainder in the exact division by q
    with pytest.raises(ArithmeticError, match="denominator"):
        lseries._fe_complete(F5, 1, 4, [1, Fraction(1, 2)])


def test_unit_twist_flips_odd_coefficients():
    d0 = (1, 1, 0, 1)
    base = lseries.l_polynomial(F5, d0, 1, "full").coeffs
    tw = lseries.l_polynomial(F5, d0, F5.nonsquare_unit, "full").coeffs
    assert tw == [(-1) ** n * c for n, c in enumerate(base)]


def test_central_values():
    cube = lseries.zeta_half(5) ** 3
    assert cube == QuadValue(5, Fraction(-1, 4), Fraction(-1, 8))  # -(2+sqrt5)/8
    with mpmath.workdps(8):
        assert str(tower_mp(lseries.zeta_half(5))) == "-0.80901699"
        assert str(tower_mp(lseries.l_nonsquare_half(5))) == "0.30901699"


def test_eval_l_consistency():
    d0 = (2, 0, 1, 0, 1)
    v = lseries.eval_l(F5, d0, 0.5)
    exact = float(tower_mp(lseries.central_value(F5, d0)))
    assert abs(v - exact) < 1e-12
    # dominance of the constant coefficient far right
    far = lseries.eval_l(F5, d0, 9.0)
    assert abs(far - 1) < 2 * 5 ** -8
    # real coefficients: conjugate symmetry
    s = complex(0.7, 0.4)
    assert abs(lseries.eval_l(F5, d0, s.conjugate())
               - lseries.eval_l(F5, d0, s).conjugate()) < 1e-12


def test_functional_equation_exact_identity():
    # L(s) = gamma_q(s, d0) |d0|^(1/2 - s) L(1-s) evaluated at rational
    # points u = q^-s (so q^s = 1/u and everything stays exact).  For odd
    # conductor degree the completion factor collapses to q^(s-1/2), so the
    # combined factor is q^((D-1)/2) u^(D-1); for even degree the full
    # quotient form with sgn = +1 applies.
    q = 5
    for d0 in [(2, 0, 1), (1, 1, 0, 1), (2, 0, 1, 0, 1), (1, 2, 0, 0, 0, 1)]:
        D = fq.deg(d0)
        L = lseries.l_polynomial(F5, d0)
        for u in (Fraction(1, 3), Fraction(2, 7), Fraction(-1, 4)):
            lhs = sum(c * u ** n for n, c in enumerate(L.coeffs))
            l_dual = sum(c * (Fraction(1, q) / u) ** n
                         for n, c in enumerate(L.coeffs))
            if D % 2:
                assert lhs == Fraction(q) ** ((D - 1) // 2) * u ** (D - 1) * l_dual
            else:
                norm = Fraction(q) ** (D // 2) * u ** D
                gamma = (Fraction(1, q) / u ** 2) * (1 - u) / (1 - Fraction(1, q) / u)
                assert lhs == gamma * norm * l_dual


def test_lindelof_check():
    assert lseries.check_lindelof(F5, (1, 1))["skipped"]
    rep = lseries.check_lindelof(F5, (1, 1, 0, 1))
    assert rep["ok"] and rep["samples"] == 32


def test_weil_moduli():
    assert lseries.check_weil(F5, X)["vacuous"]
    rng = random.Random(9)
    done = 0
    while done < 6:
        d0 = fq.monic_by_index(F5, 4, rng.randrange(5 ** 4))
        if not fq.is_squarefree(F5, d0):
            continue
        rep = lseries.check_weil(F5, d0)
        assert rep["ok"], (d0, rep)
        assert rep["max_deviation"] < rep["tol"]
        done += 1
    # odd degree too
    rep = lseries.check_weil(F5, (2, 0, 1, 0, 0, 1))
    assert rep["ok"]
