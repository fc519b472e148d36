"""Route agreement, the sieve, the decomposition, the eighth-root constants,
and the residue formulas."""

from fractions import Fraction

import pytest

from mdsforge import d4, fq, lseries, mds
from mdsforge.rings import QuadValue, QuarticValue, accumulate, rho_value, RHO_CLASSES


F5 = fq.build_field(5)
F9 = fq.build_field(3, 2)
X = (0, 1)
XP1 = (1, 1)
THETA = F5.nonsquare_unit
THETA9 = F9.nonsquare_unit

# the twists of `mdsforge verify-series`
SERIES_TWISTS = (mds.TwistSpec(F5), mds.TwistSpec(F5, c1=X, a2=THETA),
                 mds.TwistSpec(F5, c2=X, a1=THETA),
                 mds.TwistSpec(F5, c3=X, a1=THETA, a2=THETA),
                 mds.TwistSpec(F5, c1=X, c3=XP1))


def test_twist_validation():
    with pytest.raises(ValueError):
        mds.TwistSpec(F5, c1=X, c2=X)  # product not square-free
    with pytest.raises(ValueError):
        mds.TwistSpec(F5, a1=3)
    tw = mds.TwistSpec(F5, c1=X, c3=XP1, a2=THETA)
    assert fq.deg(tw.c) == 2


def test_a_eval_values():
    assert mds.a_eval(0, 0, 0, 7, 5) == 1
    assert mds.a_eval(1, 0, 0, 1, 25) == 0
    assert mds.a_eval(1, 1, 0, 2, 5) == 5  # linear coefficient in the size


def test_route_agreement_small():
    for F, tw in ((F5, mds.TwistSpec(F5)),
                  (F5, mds.TwistSpec(F5, c1=X, a2=THETA)),
                  (F5, mds.TwistSpec(F5, c2=X, a1=THETA)),
                  # q = 9: sqrt q is rational
                  (F9, mds.TwistSpec(F9)),
                  (F9, mds.TwistSpec(F9, c1=X, a2=THETA9)),
                  (F9, mds.TwistSpec(F9, c2=X, c3=XP1, a1=THETA9))):
        rep = mds.compare_routes(F, tw, n4_max=2, total_max=3)
        assert rep["ok"], rep["diffs"][:3]


def test_negative_degree_bounds_are_rejected():
    tw = mds.TwistSpec(F5)
    for n4_max, total_max in ((-1, 0), (0, -1), (2, 1)):
        with pytest.raises(ValueError):
            mds.compare_routes(F5, tw, n4_max, total_max)
    with pytest.raises(ValueError):
        mds.check_sieve_identity(F5, 1, -1)
    with pytest.raises(ValueError):
        mds.check_fundamental_decomposition(F5, X, 1, -1)


def test_monic_profiles_match_factor():
    # routes vers0, vers1 and vers2 all read this one table, so check it
    # against factor and rebuild every monic from its profile by products
    for F, max_deg in ((F5, 5), (F9, 3)):
        table = mds._monic_profiles((F.p, F.e), max_deg)
        assert len(table) == max_deg + 1
        for n, row in enumerate(table):
            assert [m for m, _ in row] == list(fq.enumerate_monic(F, n))
            for m, prof in row:
                assert prof == fq.factor(F, m)[1]
                rebuilt = fq.P_ONE
                for p, mult in prof:
                    assert fq.is_irreducible(F, p) and mult >= 1
                    for _ in range(mult):
                        rebuilt = fq.pmul(F, rebuilt, p)
                assert rebuilt == m


def _vers2_by_products(F, tw, n4_max, total_max):
    """Oracle for route vers2: every tuple (m1, m2, m3) by polynomial
    products, square decomposition and factorization."""
    def coprime(m):
        return all(fq.pmod(F, m, p) for p in tw.c_primes)

    out = {}
    skip = tuple(p for p, _ in fq.factor(F, fq.pmul(F, tw.c1, tw.c3))[1])
    for n1, n2, n3 in mds._degree_splits(total_max, 3):
        n4_cap = min(n4_max, total_max - n1 - n2 - n3)
        for m1 in filter(coprime, fq.enumerate_monic(F, n1)):
            for m2 in filter(coprime, fq.enumerate_monic(F, n2)):
                for m3 in filter(coprime, fq.enumerate_monic(F, n3)):
                    prod = fq.pmul(F, fq.pmul(F, m1, m2), m3)
                    n0, _ = fq.square_decomposition(F, prod)
                    chi_n0 = mds.chi(F, tw.a1, (tw.c1,), n0)
                    if chi_n0 == 0:
                        continue
                    top = fq.pscale(F, fq.pmul(F, tw.c2, n0), tw.a2)
                    lcoeffs = lseries.coeff_sums(F, top, n4_cap, skip=skip)
                    qm = {0: 1}
                    profile = {}
                    for idx, m in enumerate((m1, m2, m3)):
                        for p, mult in fq.factor(F, m)[1]:
                            profile.setdefault(p, [0, 0, 0])[idx] = mult
                    for p, kk in profile.items():
                        dp = fq.deg(p)
                        s = 1 if sum(kk) % 2 else mds.chi(F, tw.a2, (tw.c2, n0), p)
                        assert s != 0
                        piece = mds._correction_at_prime(tuple(kk), dp, F.q ** dp, s)
                        qm = accumulate((e1 + e2, c1 * c2) for e1, c1 in qm.items()
                                        for (e2,), c2 in piece.items() if e1 + e2 <= n4_cap)
                    accumulate((((n1, n2, n3, n4),
                                 chi_n0 * sum(cq * lcoeffs[n4 - e]
                                              for e, cq in qm.items() if e <= n4))
                                for n4 in range(n4_cap + 1)), out)
    return out


def test_vers2_matches_product_oracle():
    twists = [(F5, tw) for tw in SERIES_TWISTS]
    twists += [(F9, mds.TwistSpec(F9, c1=X, a2=THETA9)),
               (F9, mds.TwistSpec(F9, c2=X, c3=XP1, a1=THETA9))]
    for F, tw in twists:
        assert mds.zc_buckets_vers2(F, tw, 2, 3) == _vers2_by_products(F, tw, 2, 3), tw


def test_route_comparison_catches_planted_vers2_defects(monkeypatch):
    def odd_in_some_slot(odd1, odd2, odd3):
        return odd1 | odd2 | odd3

    for target, defect in ((mds, ("_odd_primes", odd_in_some_slot)),
                           (mds._CentralContext, ("symbol", lambda self, odd, p: 1))):
        with monkeypatch.context() as patch:
            patch.setattr(target, *defect)
            diffs = [d for tw in SERIES_TWISTS
                     for d in mds.compare_routes(F5, tw, n4_max=2, total_max=3)["diffs"]]
        assert diffs, defect[0]


def test_central_series_normalization():
    tw = mds.TwistSpec(F5)
    series = mds.zc_t4_series(F5, tw, 2)
    assert series[0] == (1 / (1 - QuadValue.sqrt_q(5))) ** 3
    assert series[1] == QuadValue(5, 5, 0)
    # matches the explicit-function oracle
    oracle = d4.explicit_center_t4_series(5, 2)
    assert all(a == b for a, b in zip(series, oracle))


def test_sieved_series_h1_equals_untwisted():
    tw = mds.TwistSpec(F5)
    assert mds.sieved_t4_series(F5, fq.P_ONE, 1, 3) == mds.zc_t4_series(F5, tw, 3)


def test_sieved_series_low_degrees_empty():
    series = mds.sieved_t4_series(F5, X, 1, 3)
    assert series[0].is_zero() and series[1].is_zero()  # h | d1 forces deg d >= 2


def test_sieve_identity():
    rep = mds.check_sieve_identity(F5, 1, 4)
    assert rep["ok"]
    rep = mds.check_sieve_identity(F5, THETA, 4)
    assert rep["ok"]


def test_fundamental_decomposition():
    for h, n in ((fq.P_ONE, 3), (X, 3)):
        for a2 in (1, THETA):
            rep = mds.check_fundamental_decomposition(F5, h, a2, n)
            assert rep["ok"], rep


def test_gamma_table_rows_and_count():
    rows = mds.gamma_table(5)
    assert len(rows) == 8
    assert len({r["value"] for r in rows}) == 4
    lookup = {(r["a2"], r["rho"]): r["value"] for r in rows}
    # the tabulated coefficient string for the all-plus row, folded at q = 5
    plus = lookup[(1, "1")]
    assert plus.coordinates()[:4] == (252, 72, 120, 24)
    assert lookup[(1, "1")] == lookup[(-1, "-1")]
    assert lookup[(1, "i")] == lookup[(-1, "-i")]
    assert lookup[(1, "i")].conj() == lookup[(1, "-i")]
    mds.gamma_table(9)  # square size: still exact in the product ring


def test_pd_values():
    # square-free d: every factor is the trivial extraction
    assert mds.pd_value(F5, (2, 3, 1), fq.P_ONE, 1, ((2, 3, 1),)) == QuadValue(5, 1, 0)
    # d = p^2 gives the single even-layer factor
    p = X
    val = mds.pd_value(F5, fq.P_ONE, p, 1, (fq.P_ONE,))
    s = fq.kronecker(F5, fq.P_ONE, p)
    assert val == mds.pl_center_value(2, 1, s, 5)


def test_central_correction_fixed_point():
    # at the centre the reflected argument of the central polynomial is the
    # same point and the scaling factor is 1, so evaluating both sides of
    # its functional equation there must agree exactly
    q = 5
    for kk in ((1, 1, 0), (2, 0, 0), (1, 1, 1), (2, 2, 1)):
        Q = d4.q_poly(*kk)
        total = sum(kk)
        a = total % 2
        lhs = QuadValue(q, 0, 0)
        rhs = QuadValue(q, 0, 0)
        for e, c in Q.terms.items():
            coef = c.eval_quad(q)
            j = e[0]
            lhs = lhs + coef * d4._qpow_half(q, -j)
            # (sqrt(q) z)^(k-a) * coef * (q z)^(-j) at z = q^(-1/2)
            rhs = rhs + (coef * d4._qpow_half(q, (total - a) - 2 * j)
                         * d4._qpow_half(q, -(total - a - j)))
        assert lhs == rhs


def test_residue_w1_identity():
    rep = mds.check_residue_w1()
    assert rep["boundary_identity"] and rep["ok"]


def test_residue_w1_detects_perturbed_numerator(monkeypatch):
    from mdsforge import d4data
    terms = list(d4data.NUM_TERMS)
    e1, e2, e3, e4, a, c = terms[1]
    terms[1] = (e1, e2, e3, e4, a, c + 1)
    monkeypatch.setattr(d4data, "NUM_TERMS", tuple(terms))
    rep = mds.check_residue_w1()
    assert rep["boundary_identity"] is False and rep["ok"] is False


def test_correction_tables_match_direct_evaluation():
    # P_l and Q_k tables against term-by-term evaluation in Q(sqrt q)
    def direct(poly, degp, qp, sign):
        out = {}
        for e, c in poly.terms.items():
            v = c.eval_quad(qp)
            assert v.b == 0 and v.a.denominator == 1
            if v.a:
                out[tuple(x * degp for x in e)] = int(v.a) * sign ** sum(e)
        return out

    for q, degp in ((5, 1), (5, 2), (9, 1)):
        qp = q ** degp
        for sign in (1, -1):
            for l in range(1, 6):
                want = direct(d4.p_poly(l), degp, qp, sign)
                assert mds._correction_at_prime(l, degp, qp, sign) == want
                value = sum((d4._qpow_half(q, -sum(k)) * v for k, v in want.items()),
                            QuadValue(q, 0, 0))
                assert mds.pl_center_value(l, degp, sign, q) == value
            kk = (2, 1, 0)
            want = direct(d4.q_poly(*kk), degp, qp, sign)
            assert all(len(k) == 1 for k in want)
            assert mds._correction_at_prime(kk, degp, qp, sign) == want


def test_residue_closed_form_equals_divisor_sum():
    for tw in (mds.TwistSpec(F5), mds.TwistSpec(F5, c1=X),
               mds.TwistSpec(F5, c2=X, a2=THETA), mds.TwistSpec(F5, c3=XP1)):
        for rho in RHO_CLASSES:
            assert (mds.residue_three_quarters(F5, tw, rho)
                    == mds.residue_three_quarters_sum_route(F5, tw, rho))


def test_residue_requires_trivial_first_unit():
    tw = mds.TwistSpec(F5, a1=THETA)
    with pytest.raises(ValueError):
        mds.residue_three_quarters(F5, tw, "1")


def test_residue_c1_matches_explicit_function():
    tw = mds.TwistSpec(F5)
    for rho in RHO_CLASSES:
        closed = mds.residue_three_quarters(F5, tw, rho)
        assert closed == mds.explicit_residue_c1(5, rho)
        sgn_tp = 1 if rho in ("1", "-1") else -1
        simple = (mds.gamma_constant(5, 1, sgn_tp, rho)
                  * mds.central_l_theta_power7(5, sgn_tp) * Fraction(1, 8))
        assert closed == simple


def test_residue_prime_scaling():
    base = mds.residue_three_quarters(F5, mds.TwistSpec(F5), "i")
    scaled = mds.residue_three_quarters(F5, mds.TwistSpec(F5, c1=X), "i")
    factor = (rho_value(5, "i") * QuarticValue.root4(5, -1)
              * mds._local_products(F5, [X], -1, "c1"))
    assert scaled == base * factor


def test_zhang_polynomial_expansion():
    assert mds.zhang_poly_coeffs()[:6] == [1, 0, 0, -14, -1, 78]


def test_zhang_euler_product_rejects_bad_input():
    with pytest.raises(ValueError, match="sgn"):
        mds.zhang_euler_product(F5, 0, 8)
    with pytest.raises(ValueError, match="deg_max"):
        mds.zhang_euler_product(F5, 1, 1)


def test_residue_z0_rejects_negative_h_degree():
    with pytest.raises(ValueError, match="h_deg_max"):
        mds.residue_z0_three_quarters(F5, 1, "1", h_deg_max=-1)


def test_per_prime_residue_identity():
    for degp in (1, 2, 3):
        for rho in RHO_CLASSES:
            assert mds.per_prime_residue_identity(F5, degp, rho)


def test_sieved_residue_multiplicative_consistency():
    # the literal sieved-residue assembly equals the per-prime weight form
    coll = mds.h_layers_collapsed(F5, "1", 2)
    pref = (mds.gamma_constant(5, 1, 1, "1")
            * mds.central_l_theta_power7(5, 1) * Fraction(1, 8))
    for dh in range(3):
        lit = QuarticValue.from_rational(5, 0)
        for h in fq.enumerate_monic(F5, dh, "squarefree"):
            lit = lit + mds.residue_of_sieved(F5, h, 1, "1") * fq.mobius(F5, h)
        assert lit == coll[dh] * pref


def test_u_v_w_multiplicative():
    # local pole-point data multiplies over coprime arguments; spot-check
    # that the divisor-sum route treats a two-prime twist consistently
    a = mds._u_factor(5, 1, "i")
    b = mds._u_factor(5, 2, "i")
    tw = mds.TwistSpec(F5, c3=fq.pmul(F5, X, XP1))
    # sum route already asserts against the closed form; here just make sure
    # the building blocks are units
    assert not (a * b).is_zero()
    assert (a / a) == QuarticValue.from_rational(5, 1)
