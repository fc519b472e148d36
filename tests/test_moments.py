import hashlib
import json
import os
from fractions import Fraction

import mpmath
import pytest

from mdsforge import fq, lseries, mds, moments
from mdsforge.rings import QuadValue, tower_float


F5 = fq.build_field(5)
F9 = fq.build_field(3, 2)
F13 = fq.build_field(13)


def _per_conductor_moment(F, D, full=False):
    """Oracle: S(D) as one L-polynomial per square-free conductor, each
    tested with the gcd criterion; ``full`` sums every coefficient instead
    of completing by the functional equation."""
    total = QuadValue(F.q)
    for idx in range(F.q ** D):
        d0 = fq.monic_by_index(F, D, idx)
        if not fq.is_squarefree(F, d0):
            continue
        if full and D:
            a, b, k = lseries.central_parts(F.q, D, lseries.coeff_sums(F, d0, D - 1))
            value = QuadValue(F.q, a, b, F.q ** k)
        else:
            value = lseries.central_value(F, d0)
        total = total + value ** 3
    return total


def _clear_lseries_caches():
    for fn in vars(lseries).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def test_moment_boundary_values():
    assert moments.moment_sum(F5, 0) == lseries.zeta_half(5) ** 3
    assert moments.moment_sum(F5, 1) == QuadValue(5, 5, 0)


def test_moment_rejects_negative_degree():
    with pytest.raises(ValueError, match="negative"):
        moments.moment_sum(F5, -1)
    with pytest.raises(ValueError, match="negative"):
        moments.moment_table(F5, -1)


def test_moment_matches_direct_sum():
    # the slow way, with every coefficient of every L-polynomial summed
    for F, degrees in ((F5, (2, 3, 4)), (F9, (0, 1, 2, 3))):
        for D in degrees:
            assert _per_conductor_moment(F, D, full=True) == moments.moment_sum(F, D), (F.q, D)


def test_class_fill_matches_per_conductor_oracle():
    for F, D_max in ((F5, 6), (F9, 4), (F13, 4)):
        for D in range(1, D_max + 1):
            assert moments.moment_sum(F, D) == _per_conductor_moment(F, D), (F.q, D)


def test_planted_defects_change_the_moment(monkeypatch):
    F, D = F5, 5
    oracle = _per_conductor_moment(F, D)
    assert moments.moment_sum(F, D) == oracle

    # one class counted twice
    partial = moments._moment_partial

    def doubled(args):
        counts = partial(args)
        key = min(counts)
        counts[key] *= 2
        return counts

    monkeypatch.setattr(moments, "_moment_partial", doubled)
    assert moments.moment_sum(F, D) != oracle
    monkeypatch.undo()

    # the symbol of the residue 1 (code 1) in one degree-2 prime's row
    # flipped: the class engine reads the row, the per-conductor oracle
    # computes its symbols without it
    table = lseries._residue_symbol_table
    target = fq.irreducibles(F, 2)[0]

    def flipped(field_key, p):
        out = table(field_key, p)
        if p == target:
            out = out[:1] + (-out[1],) + out[2:]
        return out

    _clear_lseries_caches()
    monkeypatch.setattr(lseries, "_residue_symbol_table", flipped)
    try:
        assert moments.moment_sum(F, D) != oracle
        assert _per_conductor_moment(F, D) == oracle
    finally:
        monkeypatch.undo()
        _clear_lseries_caches()
    assert moments.moment_sum(F, D) == oracle


def test_worker_partition_merge():
    # (F5, 6) splits its 125 high-digit blocks 42 + 42 + 41 over three workers
    for F, D, workers in ((F5, 3, 2), (F5, 4, 2), (F9, 4, 2), (F5, 6, 3)):
        assert moments.moment_sum(F, D, workers=1) == moments.moment_sum(F, D, workers=workers)


# SHA-256 of the cache files store_moment wrote before the moment sums moved
# to integer arithmetic; caches written by earlier versions stay valid only
# while these bytes are unchanged
MOMENT_CACHE_SHA256 = {
    (5, 0): "c3a60d5eaaf54dcb446d1c866de3556c2f1cceaa96ff574e2296ecd37fc2b1c8",
    (5, 1): "007454892a45c0a5e7d5de549fd6af0f1c6699933f7a9da14af3b451d817f4de",
    (5, 2): "7b432f07771003606988ad4df02289f0e6e4e0d3fd9e203e8e7c2eda4300eeba",
    (5, 3): "37b1f09a13b30df7862e204b26439f1386113f51bfc0c380d3fed678021483d8",
    (5, 4): "5dc5657648a33e60d03b0093e0e1f3f173a0ff92c695b1f4eca12934836843ce",
    (5, 5): "46072460d356ff3a0e87346750db90aba578c8177d02f6600f3ed84adeed11e8",
    (5, 6): "2c27b0fffd1210d346a91be5eefc2b74b166ce98d7394e2212fb6d9053282333",
    (9, 0): "d96eebdb3bb8dd268c6b70e6c37640b6efe3f781c8010c80dbc591482a789608",
    (9, 1): "1ed1dd4b48fbb5adfc20cbb1a95b4e444a46e552b83d5d7efea577dc2878ffe9",
    (9, 2): "edbf8277c22bd22ff70968b0f98600306c994d2aec05a7e60ba6c31d4746b301",
    (9, 3): "1aa7c0ce9f40cb090e63a0304eed72319fd1f628c3e0cf935437307564344bd6",
    (9, 4): "9718a3436a09c3c80155f0060acfd9733201727fdcf086b2ea9d5d4927c02b71",
}


def test_moment_cache_files_pinned(tmp_path):
    fields = {5: F5, 9: F9}
    for (q, D), digest in MOMENT_CACHE_SHA256.items():
        path = moments.store_moment(str(tmp_path), q, D, moments.moment_sum(fields[q], D))
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, (q, D)


def test_sieve_reconstruction():
    for D in range(4):
        assert (moments.sieve_reconstructed_moment(F5, D)
                == moments.moment_sum(F5, D))


def test_cache_roundtrip_and_tamper(tmp_path):
    val = moments.moment_sum(F5, 2)
    moments.store_moment(str(tmp_path), 5, 2, val)
    back = moments.load_moment(str(tmp_path), 5, 2)
    assert back.a == val.a and back.b == val.b
    path = moments.moment_cache_path(str(tmp_path), 5, 2)
    doc = json.load(open(path))
    doc["a"] = "1/1"
    json.dump(doc, open(path, "w"))
    with pytest.raises(ValueError, match="hash"):
        moments.load_moment(str(tmp_path), 5, 2)
    assert moments.load_moment(str(tmp_path), 5, 9) is None


def test_store_moment_interrupted_leaves_nothing(tmp_path, monkeypatch):
    def broken_dump(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(moments.json, "dump", broken_dump)
    with pytest.raises(KeyboardInterrupt):
        moments.store_moment(str(tmp_path), 5, 2, QuadValue(5, 1, 2))
    path = moments.moment_cache_path(str(tmp_path), 5, 2)
    assert not os.path.exists(path)
    assert os.listdir(os.path.dirname(path)) == []
    assert moments.load_moment(str(tmp_path), 5, 2) is None


def test_euler_product_tail_honored():
    # each tail bounds the log of every longer partial product, and the
    # direct sum of the Irr(k)-fold per-degree bounds over 59 degrees
    for F in (F5, F9, F13):
        q = F.q
        C = mds._zhang_abs_tail_constant(q)
        for sgn in (1, -1):
            partials, tails = mds.zhang_euler_product(F, sgn, 8)
            assert len(partials) == len(tails) == 8
            for M in (1, 2, 3):
                ys = [C * q ** (-1.5 * k) for k in range(M + 1, M + 60)]
                direct = sum(fq.irreducible_count(F, k) * y / (1 - y)
                             for k, y in zip(range(M + 1, M + 60), ys))
                assert tails[M - 1] >= direct, (q, sgn, M)
                for M2 in range(M + 1, 9):
                    ratio = partials[M2 - 1] / partials[M - 1]
                    assert abs(mpmath.log(ratio)) <= tails[M - 1]


def test_zhang_factored_equals_expanded():
    for x in (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)):
        factored = (1 - x) ** 5 * (1 + x) * sum(
            c * x ** k for k, c in enumerate(mds.ZHANG_CORE))
        assert factored == mds.zhang_value(x)


def test_r_term_brackets_and_period():
    b_plus, b_minus, b_imag = moments._bracket_values(5)
    rows = {(r["a2"], r["rho"]): r["value"] for r in mds.gamma_table_rows(5)}
    assert b_plus * 2 == rows[(1, "1")]
    assert b_imag * 2 == rows[(1, "i")]
    r0 = moments.r_term(F5, 0, deg_max=6)
    r4 = moments.r_term(F5, 4, deg_max=6)
    assert abs(float(r0["value"] - r4["value"])) < 1e-15
    assert abs(float(r0["value"] - r0["pole_class_expansion"])) < 1e-10


def test_secondary_report_declines_small():
    rep = moments.secondary_term_report(F5, 2)
    assert rep["declined"]


def test_secondary_report_runs(tmp_path):
    rep = moments.secondary_term_report(F5, 5, cache_dir=str(tmp_path))
    assert not rep["declined"]
    assert rep["fits"]
    assert len(rep["generating_series_partials"]) == 6
    # partial sums inside the disk settle down
    tail = rep["generating_series_partials"][-3:]
    assert max(tail) - min(tail) < 0.2 * (abs(tail[-1]) + 1)


def test_secondary_report_computes_r_term_once_per_degree(monkeypatch):
    calls = []
    r_term = moments.r_term

    def counted(F, D, **kwargs):
        calls.append(D)
        return r_term(F, D, **kwargs)

    monkeypatch.setattr(moments, "r_term", counted)
    rep = moments.secondary_term_report(F5, 5)
    assert calls == list(range(6))
    # the fits as computed with one r_term call per degree and fit
    expected = [(0, False, 0.031600990670590745, 5.0),
                (0, True, 0.03159563625659185, 5.0),
                (1, False, 0.0009563447170643361, 564.740230091199),
                (1, True, 0.0009564383778055246, 564.740230091199)]
    got = [(f["degree"], f["subtract_secondary"], f["relative_max_residual"],
            f["condition_number"]) for f in rep["fits"]]
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    for g, e in zip(got, expected):
        assert g[2:] == pytest.approx(e[2:], rel=1e-9)


def test_inequality_grid_q5():
    items = moments.local_factor_inequalities(5, radial=6, angular=12)
    assert all(item["ok"] for item in items)
    names = {item["name"] for item in items}
    assert "inverse_even_plus_part" in names


def test_extremal_margin():
    val = moments.extremal_margin_value()
    assert round(val, 4) == 16.0217
    assert val < 17


def test_poly_center_bound():
    items = moments.poly_center_bound(5, l_max=6)
    assert all(item["ok"] for item in items)
    assert len(items) == 12
    for item in items:
        value = mds.pl_center_value(item["l"], 1, item["sign"], 5)
        assert item["abs"] == abs(tower_float(value))


def test_series_partials_bounded():
    rep = moments.dirichlet_series_partial_check(F5)
    assert rep["ok"]


def test_g0_origin_decay():
    rep = moments.g0_origin_decay()
    scaled = [r["scaled"] for r in rep["rows"]]
    assert all(b <= a for a, b in zip(scaled, scaled[1:]))  # monotone decay
