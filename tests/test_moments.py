import json
import os
from fractions import Fraction

import pytest

from mdsforge import fq, lseries, mds, moments
from mdsforge.rings import QuadValue


F5 = fq.build_field(5)


def test_moment_boundary_values():
    assert moments.moment_sum(F5, 0) == lseries.zeta_half(5) ** 3
    assert moments.moment_sum(F5, 1) == QuadValue(5, 5, 0)


def test_moment_matches_direct_sum():
    # recompute S(2) from the 20 conductors the slow way
    total = QuadValue(5, 0, 0)
    for d0 in fq.enumerate_monic(F5, 2, "squarefree"):
        total = total + lseries.l_polynomial(F5, d0, 1, "full").central_value() ** 3
    assert total == moments.moment_sum(F5, 2)


def test_worker_partition_merge():
    assert moments.moment_sum(F5, 3, workers=1) == moments.moment_sum(F5, 3, workers=2)


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
    e6 = moments.euler_product_P(F5, "trivial", 6)
    e8 = moments.euler_product_P(F5, "trivial", 8)
    assert abs(float(e8["value"]) - float(e6["value"])) < e6["tail_bound"]
    assert e8["tail_bound"] < e6["tail_bound"]
    with pytest.raises(ValueError):
        moments.euler_product_P(F5, "trivial", 1)


def test_zhang_factored_equals_expanded():
    for x in (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)):
        factored = (1 - x) ** 5 * (1 + x) * sum(
            c * x ** k for k, c in enumerate(mds.ZHANG_CORE))
        expanded = sum(c * x ** k
                       for k, c in enumerate(mds.zhang_poly_coeffs()))
        assert factored == expanded


def test_r_term_brackets_and_period():
    b_plus, b_minus, b_imag = moments._bracket_values(5)
    rows = {(r["a2"], r["rho"]): r["value"] for r in mds.gamma_table_rows(5)}
    assert b_plus * 2 == rows[(1, "1")]
    assert b_imag * 2 == rows[(1, "i")]
    r0 = moments.r_term(F5, 0, deg_max=6)
    r4 = moments.r_term(F5, 4, deg_max=6)
    assert abs(float(r0["value"] - r4["value"])) < 1e-15
    assert abs(float(r0["value"] - r0["via_sign_convention"])) < 1e-15
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


def test_series_partials_bounded():
    rep = moments.dirichlet_series_partial_check(F5)
    assert rep["ok"]


def test_g0_origin_decay():
    rep = moments.g0_origin_decay()
    scaled = [r["scaled"] for r in rep["rows"]]
    assert all(b <= a for a, b in zip(scaled, scaled[1:]))  # monotone decay
