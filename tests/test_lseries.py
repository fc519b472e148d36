import random
from itertools import chain
from fractions import Fraction

import mpmath
import pytest

from mdsforge import d4, fq, lseries, mds
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
            for code, s in enumerate(table):
                r = fq.trim(fq.monic_by_index(F, d, code)[:-1])
                assert s == fq.kronecker(F, r, p)


@pytest.mark.parametrize("F,deg_max", [(F5, 4), (F9, 2)], ids=["q5", "q9"])
def test_prime_symbol_matches_factored_oracle(F, deg_max):
    # linear primes take the root branch, the others reciprocity; the tops
    # include non-monic ones, constants, and multiples of p (symbol 0)
    rng = random.Random(20)
    tops = [fq.P_ONE, (F.nonsquare_unit,), (0, 1), (1, 1, 0, 1)]
    tops += [tuple(rng.randrange(F.q) for _ in range(n)) + (rng.randrange(1, F.q),)
             for n in (1, 2, 3, 5, 7)]
    for d in range(1, deg_max + 1):
        for p in fq.irreducibles(F, d):
            for top in tops + [p, fq.pscale(F, fq.pmul(F, p, (2, 1)), F.nonsquare_unit)]:
                assert lseries.prime_symbol(F, top, p) == fq.kronecker_factored(F, top, p), (p, top)


@pytest.mark.parametrize("F,deg_cap", [(F5, 5), (F9, 3)], ids=["q5", "q9"])
def test_full_vs_completed_exhaustive(F, deg_cap):
    q = F.q
    for D in range(1, deg_cap + 1):
        for d0 in fq.enumerate_monic(F, D, "squarefree"):
            for unit in (1, F.nonsquare_unit):
                full = lseries.coeff_sums(F, fq.pscale(F, d0, unit), D - 1)
                L = lseries.l_polynomial(F, d0, unit)
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
            assert lseries.coeff_sums(F5, d0, D - 1) == lseries.l_polynomial(F5, d0).coeffs, d0
            done += 1


def test_fe_complete_rejects_non_integral_result():
    # a non-integral lower half leaves a remainder in the exact division by q
    with pytest.raises(ArithmeticError, match="denominator"):
        lseries._fe_complete(F5, 1, 4, [1, Fraction(1, 2)])


def test_unit_twist_flips_odd_coefficients():
    d0 = (1, 1, 0, 1)
    base = lseries.coeff_sums(F5, d0, 3)
    tw = lseries.coeff_sums(F5, fq.pscale(F5, d0, F5.nonsquare_unit), 3)
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
    # L = (1 + 5u^2)^2: repeated roots need the extra working precision
    rep = lseries.check_weil(F5, (0, 1, 0, 0, 0, 1))
    assert rep["ok"], rep


F13 = fq.build_field(13)


def _engine_mismatches(F, a, c=fq.P_ONE, unit=1):
    """The degree-a d0 coprime to c whose family value differs from the
    independent per-conductor route l_polynomial(F, c*d0, unit)."""
    keys, values = lseries.family_values((F.p, F.e), a, c, unit)
    d0s = list(fq.enumerate_monic(F, a, "squarefree"))
    assert len(keys) == len(d0s)
    return [d0 for d0, key in zip(d0s, keys)
            if fq.is_squarefree(F, fq.pmul(F, c, d0))
            and values[key] != lseries.central_value(F, fq.pmul(F, c, d0), unit)]


@pytest.mark.parametrize("F,a_max", [(F5, 6), (F9, 4), (F13, 3)], ids=["q5", "q9", "q13"])
def test_family_values_match_l_polynomial(F, a_max):
    for a in range(a_max + 1):
        assert not _engine_mismatches(F, a), (F.q, a)


def test_twisted_family_values_match_l_polynomial():
    for c in (fq.P_ONE, X, fq.pmul(F5, X, (1, 1))):
        for unit in (1, F5.nonsquare_unit):
            for a in range(5):
                assert not _engine_mismatches(F5, a, c, unit), (c, unit, a)


def test_class_keys_stream_matches_family_keys():
    # the block streams moment_sum counts, over any partition of the blocks,
    # make up the cached per-degree key tuple
    for a, c, unit in ((5, fq.P_ONE, 1), (4, X, F5.nonsquare_unit)):
        keys, _ = lseries.family_values((F5.p, F5.e), a, c, unit)
        for parts in (1, 2, 3, 30):
            assert tuple(chain.from_iterable(
                chain.from_iterable(lseries.class_keys(F5, a, c, unit, k, parts))
                for k in range(parts))) == keys, (a, parts)


def test_flipped_engine_symbol_is_caught(monkeypatch):
    # swap the +1 and -1 weights of one residue of one degree-one prime
    plan = lseries._class_plan

    def flipped(field_key, a, c, unit):
        L, radix, terms = plan(field_key, a, c, unit)
        if terms:
            wsym, add, lo, hi = terms[0]
            q = fq.build_field(*field_key).q
            wsym = list(wsym)
            wsym[1] = {0: 0, 1: q + 1, q + 1: 1}[wsym[1]]
            terms = ((wsym, add, lo, hi),) + terms[1:]
        return L, radix, terms

    lseries.family_values.cache_clear()
    monkeypatch.setattr(lseries, "_class_plan", flipped)
    try:
        assert _engine_mismatches(F5, 3)
        assert (mds.zc_t4_series(F5, mds.TwistSpec(F5), 4)
                != d4.explicit_center_t4_series(5, 4))
    finally:
        monkeypatch.undo()
        lseries.family_values.cache_clear()
    assert not _engine_mismatches(F5, 3)
