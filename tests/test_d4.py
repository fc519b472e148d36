"""Extraction layer: coefficient laws, correction polynomials, centre
specializations, local factors."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from mdsforge import d4
from mdsforge.rings import MultiPoly, QuadValue, tower_float


def test_coefficient_laws_small():
    assert d4.a_coeff(0, 0, 0, 5, 8).is_one()
    assert d4.a_coeff(3, 1, 2, 0, 8).is_one()
    assert d4.a_coeff(1, 0, 0, 1, 8).is_zero()  # vanishes at central exponent 1
    for k1, k2, k3, l in itertools.product(range(4), repeat=4):
        if k1 + k2 + k3 + l > 8:
            continue
        if (k1 + k2 + k3) % 2 == 1 and l % 2 == 1:
            assert d4.a_coeff(k1, k2, k3, l, 8).is_zero()


def test_a_table_outer_symmetry():
    for (k1, k2, k3, l) in [(1, 2, 0, 1), (2, 1, 1, 2), (0, 1, 2, 3), (3, 0, 1, 4)]:
        base = d4.a_coeff(k1, k2, k3, l, 8)
        for perm in itertools.permutations((k1, k2, k3)):
            assert d4.a_coeff(*perm, l, 8) == base


def test_f_series_capped_pinned():
    # term-for-term fingerprint of the expansion every correction polynomial
    # is sliced from; a change to the expansion kernel must leave it intact
    series = d4.f_series_capped(12, 10)
    pairs = sorted((e, sorted(c.half.items())) for e, c in series.terms.items())
    assert len(pairs) == 13552
    assert (hashlib.sha256(repr(pairs).encode()).hexdigest()
            == "057153de8989084f3af7a00c1747a13973cdf73da9d8759d8f31ad079d68b800")


def test_a_coeff_cutoff_guard():
    with pytest.raises(ValueError):
        d4.a_coeff(5, 5, 5, 5, 8)


def test_extraction_base_cases():
    assert d4.p_poly(0, 6, 6).terms == {(0, 0, 0): d4.PP_ONE}
    P1 = d4.p_poly(1, 6, 6)
    assert P1.terms == {(0, 0, 0): d4.PP_ONE}  # symmetric and nonzero
    assert d4.q_poly(0, 0, 0, 6, 6).terms == {(0,): d4.PP_ONE}


def _times_units_truncated(terms, n, variables, cap):
    """The general product terms * prod (1 - z_i), truncated at the cap."""
    P = MultiPoly(n, dict(terms))
    for i in variables:
        z_i = MultiPoly.monomial(n, tuple(int(j == i) for j in range(n)))
        P = P * (MultiPoly.const(n, 1) - z_i)
    return {e: c for e, c in P.terms.items() if max(e) <= cap}


def test_clear_geometric_matches_general_product():
    series = d4.f_series_capped(12, 10)
    for l in range(11):
        raw = {e[:3]: c for e, c in series.terms.items() if e[3] == l}
        cleared = d4._clear_geometric(raw, range(3), 12)
        assert cleared == _times_units_truncated(raw, 3, range(3), 12), l
        if l % 2 == 0:
            assert d4.p_poly(l).terms == cleared
    for k in itertools.product(range(4), repeat=3):
        raw = {e[3:]: c for e, c in series.terms.items() if e[:3] == k}
        cleared = d4._clear_geometric(raw, (0,), 10)
        assert cleared == _times_units_truncated(raw, 1, (0,), 10), k
        if sum(k) % 2 == 0:
            assert d4.q_poly(*k).terms == cleared


def test_q_poly_matches_full_scan():
    # q_poly reads its outer triple's bucket; the old scan over every term
    series = d4.f_series_capped(12, 10)
    for k in itertools.product(range(5), repeat=3):
        terms = {e[3:]: c for e, c in series.terms.items() if e[:3] == k}
        if sum(k) % 2 == 0:
            terms = d4._clear_geometric(terms, (0,), 10)
        if max((e[0] for e in terms), default=0) > 8:
            with pytest.raises(d4.StabilizationError):
                d4.q_poly(*k)
        else:
            assert d4.q_poly(*k).terms == terms, k


def test_geom_univ_inverts_unit_power():
    # multiplying by (1 - r t^s)^k, truncated at n, undoes the k-fold division
    n = 11
    for q in (5, 9):
        r = QuadValue(q, Fraction(2, 3), -1)
        c = [QuadValue(q, j - 3, Fraction(1, j + 1)) for j in range(n + 1)]
        for s, k in ((1, 1), (1, 3), (2, 7), (3, 2), (4, 1)):
            out = d4._geom_univ(c, n, s, r, power=k)
            for _ in range(k):
                out = [x - r * out[j - s] if j >= s else x for j, x in enumerate(out)]
            assert out == c, (q, s, k)


def test_extraction_symmetry():
    P2 = d4.p_poly(2)
    for e, c in P2.terms.items():
        for perm in itertools.permutations(e):
            assert P2.terms.get(tuple(perm)) == c
    # central polynomials symmetric in the index
    assert d4.q_poly(2, 1, 0) == d4.q_poly(0, 1, 2) == d4.q_poly(1, 2, 0)


def test_stabilization_guard():
    with pytest.raises(d4.StabilizationError):
        d4.p_poly(6, 6, 6)  # outer degree 6 leaves no margin at cap 6


def test_pq_functional_equations():
    rep = d4.check_pq_functional_eqs(6, 6)
    assert rep["failures"] == []
    assert rep["checked"] > 50


def test_reconstructions_exact():
    assert d4.reconstruct_from_p(8) == d4.f_series_total(8)
    assert d4.reconstruct_from_q(8) == d4.f_series_total(8)


def test_centre_specializations_match_closed_forms():
    for parity, sign, closed in (("odd", 1, d4.specialized_odd_closed(9)),
                                 ("even", 1, d4.specialized_even_closed(1, 9)),
                                 ("even", -1, d4.specialized_even_closed(-1, 9))):
        assert d4.specialize_center_series(parity, sign, 9) == closed.truncate(9)


def test_odd_specialization_shape():
    s = d4.specialized_odd_closed(9)
    assert s.coefficient((1,)).is_one()          # leading numerator term
    for n in range(0, 9, 2):
        assert s.coefficient((n,)).is_zero()     # odd in the central variable


def test_even_specialization_origin():
    # value at 0 is the cleared geometric prefactor: numerator starts at 1
    s = d4.specialized_even_closed(1, 4)
    assert s.coefficient((0,)).is_one()


def test_local_factor_series_constants():
    Fs, G0s, G1s = d4.local_factor_series(5, 1, 6)
    assert Fs[0] == QuadValue(5, 14, 0)
    # the even-part split at the origin is O(q^-1) away from the odd value
    assert abs(tower_float(G0s[0]) - 14) < 16
    assert abs(tower_float(G1s[0])) < 58 * 5 ** -0.5


def test_local_series_match_closed_forms():
    q = 5
    z0 = Fraction(1, 7)
    Fs, G0s, G1s = d4.local_factor_series(q, 1, 40)
    z = QuadValue(q, z0, 0)
    Q = QuadValue(q, 0, Fraction(1, 5))  # q^(-1/2) = sqrt(5)/5
    approx_F = sum((Fs[j] * QuadValue(q, z0 ** j, 0) for j in range(41)),
                   QuadValue(q, 0, 0))
    exact_F = d4.local_F_value(z, QuadValue(q, q, 0))
    assert abs(tower_float(approx_F) - tower_float(exact_F)) < 1e-18
    approx_G1 = sum((G1s[j] * QuadValue(q, z0 ** j, 0) for j in range(41)),
                    QuadValue(q, 0, 0))
    exact_G1 = d4.local_G_value(z, Q, 1)
    assert abs(tower_float(approx_G1) - tower_float(exact_G1)) < 1e-16


def test_local_factor_series_degree_lift():
    # a degree-2 place only populates exponents divisible by 2... times z-step 2
    Fs, _, _ = d4.local_factor_series(5, 2, 12)
    for n, c in enumerate(Fs):
        if n % 4 != 0:
            assert c.is_zero()


def test_explicit_center_series_low_coefficients():
    series = d4.explicit_center_t4_series(5, 3)
    assert series[0] == (1 / (1 - QuadValue.sqrt_q(5))) ** 3
    assert series[1] == QuadValue(5, 5, 0)
