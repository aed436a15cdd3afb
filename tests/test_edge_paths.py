"""Less-traveled paths: scaled maps, polynomial multipliers, non-constant
duality ratios, fi on binary brackets."""

from fractions import Fraction as F

import pytest

from ppa import dsl
from ppa.duality import duality_check
from ppa.errors import DomainError
from ppa.poly import MonomialMap, PolyExpr, substitute
from ppa.runner import run_checks
from ppa.structures import jacobian_structure


def test_scaled_map_substitution():
    m = MonomialMap(("x",), ("y",), [[1]], scales=[F(4)])     # y = 4x
    x = PolyExpr.var("x", ("x",))
    assert substitute(x, m) == PolyExpr.var("y", ("y",)) / 4
    assert substitute(x ** 2, m) == PolyExpr.var("y", ("y",)) ** 2 / 16
    back = substitute(substitute(x ** 2 + x * 3, m), m.inverse())
    assert back == x ** 2 + x * 3


def test_scaled_map_with_fractional_root():
    m = MonomialMap(("x",), ("y",), [[2]], scales=[F(4)])     # y = 4x^2
    x = PolyExpr.var("x", ("x",))
    out = substitute(x, m)                                    # x = (y/4)^(1/2)
    assert out == PolyExpr(("y",), {(F(1, 2),): F(1, 2)})
    bad = MonomialMap(("x",), ("y",), [[2]], scales=[F(2)])   # sqrt(1/2) leaves Q
    with pytest.raises(DomainError):
        substitute(x, bad)


def test_scaled_map_file():
    mm = dsl.parse_map_file("map y1 = 2*x1;\nmap y2 = x2;\n", ("x1", "x2"))
    assert mm.scales == (F(2), F(1))
    p = PolyExpr.var("x1", ("x1", "x2")) * 6
    assert substitute(p, mm) == PolyExpr.var("y1", ("y1", "y2")) * 3


def test_polynomial_multiplier_structure():
    v = ("x1", "x2", "x3")
    x1, x2, x3 = PolyExpr.gens(v)
    ps = jacobian_structure(v, [x3], x1)       # {x1,x2} = x1, rest zero
    assert ps.matrix[0][1] == x1
    assert ps.matrix[0][2].is_zero() and ps.matrix[1][2].is_zero()


def test_non_constant_ratio_reported():
    v = ("x1", "x2", "x3")
    x1, x2, x3 = PolyExpr.gens(v)
    ps = jacobian_structure(v, [x3], x1)
    rep = duality_check(ps, [x3])
    assert not rep.holds
    assert rep.lam is None and rep.lam_coord is None


def test_fi_check_on_binary_bracket_model():
    spec = dsl.parse_model(
        "vars x1 x2 x3; casimir P = x1^2 + x2^2 + x3^2 + 3*x1*x2*x3;"
        " structure jacobian; check fi(3);")
    report = run_checks(spec, seed=5)
    assert [r.status for r in report.results] == ["pass"]


def test_theorem31_fails_on_non_central_declaration():
    spec = dsl.parse_model(
        "vars x1 x2 x3; casimir Q = x1;"
        " structure table { {x1,x2} = x3; {x2,x3} = x1; {x3,x1} = x2; };"
        " check theorem31;")
    report = run_checks(spec, seed=0)
    assert report.results[0].status == "fail"
    assert "not a casimir" in report.results[0].witness.lower()


def test_large_scale_factors_stay_exact():
    big = 10 ** 30
    m = MonomialMap(("x",), ("y",), [[2]], scales=[F(big) ** 2])
    x = PolyExpr.var("x", ("x",))
    assert substitute(x, m) == PolyExpr(("y",), {(F(1, 2),): F(1, big)})
    with pytest.raises(DomainError):
        substitute(x, MonomialMap(("x",), ("y",), [[2]],
                                  scales=[F(big) ** 2 + 1]))


def test_duplicate_table_entry_rejected():
    from ppa.errors import ModelSyntaxError
    with pytest.raises(ModelSyntaxError):
        dsl.parse_model("vars a b; structure table { {a,b} = a; {b,a} = b; };")


def test_weighted_degree_sum_through_runner():
    spec = dsl.parse_model(
        "vars x y z; weights 1 1 2;"
        " casimir P = z^2 - x^2*y^2 - x;"
        " structure jacobian; check degree_sum; expect degree_sum = 4;")
    report = run_checks(spec)
    assert report.results[0].status == "pass"
