"""Model DSL: parsing, diagnostics, canonical emission."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings

from ppa import catalog, dsl
from ppa.errors import ArityError, DomainError, ModelSyntaxError, PpaError
from ppa.poly import MonomialMap, PolyExpr
from ppa.runner import FI_MAX
from test_dsl_front_end import models

Q3_TEXT = (
    "vars x1 x2 x3; param k = 2; "
    "casimir P = (1/3)*(x1^3+x2^3+x3^3) + k*x1*x2*x3; "
    "structure jacobian lambda 1; "
    "check jacobi, casimirs, theorem31;"
)


def test_parse_matches_catalog_builder():
    spec = dsl.parse_model(Q3_TEXT, name="q3")
    built = catalog.build("q3", {"k": 2})
    assert spec.vars == built.vars
    assert spec.casimirs[0][1] == built.casimirs[0][1]
    assert spec.build_structure() == built.structure
    assert spec.checks == [("jacobi", None), ("casimirs", None),
                           ("theorem31", None)]


def test_a_param_bound_before_vars_takes_the_model_variables():
    spec = dsl.parse_model(
        "param k = 2; vars x y; let c = k*2; let d = 2*k; let e = k+2; "
        "let f = 2+k; let g = k-2; let h = 2-k; structure table { };")
    for name, value in zip("cdefgh", (4, 4, 4, 4, 0, 0)):
        p = spec.named_poly(name)
        assert p.vars == ("x", "y") and p == value, name


@pytest.mark.parametrize("text, name, line, column", [
    # a coordinate named twice
    ("vars x1 x1 x2;\nstructure jacobian;", "x1", 1, 1),
    # a param over a coordinate, before and after vars
    ("vars x y;\nparam x = 2;\nstructure table { {x,y} = x; };", "x", 2, 1),
    ("param x = 2;\n  vars y x;\nstructure table { };", "x", 2, 3),
    # a param over a let, and over a param
    ("vars x y;\nlet a = x;\n  param a = 3;\nstructure table { };", "a", 3, 3),
    ("param k = 1;\nparam k = 2;\nvars x y;\nstructure table { };", "k", 2, 1),
])
def test_a_name_is_bound_once(text, name, line, column):
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model(text)
    assert str(e.value) == f"name {name!r} already defined at {line}:{column}"
    assert (e.value.line, e.value.column, e.value.token) == (line, column, None)


def test_vars_refuses_more_than_max_dim_names():
    # the ninth name is refused at the statement, before any name is bound
    text = "# nine\n  vars " + " ".join(f"x{i}" for i in range(9)) + " x0;\nstructure table { };"
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model(text)
    assert str(e.value) == "vars names more than MAX_DIM = 8 variables at 2:3"
    assert (e.value.line, e.value.column, e.value.token) == (2, 3, None)
    eight = "vars " + " ".join(f"x{i}" for i in range(8)) + "; structure table { };"
    assert len(dsl.parse_model(eight).vars) == 8


def test_vars_refuses_a_long_run_of_names_in_linear_time():
    # 20000 names once took 0.5 s to read and 31 s to build as a table
    text = "vars " + " ".join(f"v{i}" for i in range(20000)) + "; structure table { };"
    start = time.perf_counter()
    with pytest.raises(ModelSyntaxError, match="more than MAX_DIM = 8 variables at 1:1"):
        dsl.parse_model(text)
    assert time.perf_counter() - start < 1.0


def test_empty_input_errors_at_origin():
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model("")
    assert e.value.line == 1 and e.value.column == 1


def test_table_defaults_to_zero():
    spec = dsl.parse_model(
        "vars x1 x2 x3; structure table { {x1,x2} = x1; };")
    ps = spec.build_structure()
    assert ps.matrix[0][1] == PolyExpr.var("x1", spec.vars)
    assert ps.matrix[0][2].is_zero() and ps.matrix[1][2].is_zero()


def test_reversed_table_pair_negates():
    spec = dsl.parse_model(
        "vars x1 x2; structure table { {x2,x1} = x1; };")
    ps = spec.build_structure()
    assert ps.matrix[0][1] == -PolyExpr.var("x1", spec.vars)


def test_unknown_identifier_has_position():
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model("vars x1;\ncasimir P = x1 + bogus;\nstructure jacobian;")
    assert e.value.token == "bogus"
    assert e.value.line == 2


def test_unknown_check_rejected():
    with pytest.raises(ModelSyntaxError):
        dsl.parse_model("vars x1 x2; structure table { }; check frobnicate;")


def test_structure_declared_once():
    with pytest.raises(ModelSyntaxError):
        dsl.parse_model("vars x1 x2; structure table { }; structure jacobian;")


def test_missing_structure_rejected():
    with pytest.raises(ModelSyntaxError):
        dsl.parse_model("vars x1 x2; casimir P = x1;")


def test_nambu_arity_validation():
    spec = dsl.parse_model(
        "vars x1 x2 x3 x4 x5; casimir C = x5; structure nambu 4 lambda -1/8;")
    ns = spec.build_structure()
    assert ns.arity == 4 and ns.multiplier.constant_value() == F(-1, 8)
    bad = dsl.parse_model("vars x1 x2 x3; structure nambu 2;")
    with pytest.raises(ArityError):
        bad.build_structure()


def test_expect_and_integrate_statements():
    text = (
        "vars x1 x2 x3; casimir Q = x3; structure jacobian; hamiltonian x1;\n"
        "check jacobi, rank, quasi(Q), fi(2);\n"
        "expect rank = 2; expect jacobi = true;\n"
        "integrate from (1.0, 2.0, 0.5) step 0.001 until 1.0 monitor Q x3;\n")
    spec = dsl.parse_model(text)
    assert spec.expects == {"rank": 2, "jacobi": True}
    assert spec.checks[2] == ("quasi", "Q") and spec.checks[3] == ("fi", 2)
    assert spec.integrate.x0 == (1.0, 2.0, 0.5)
    assert spec.integrate.step == 0.001
    assert spec.integrate.monitors == ("Q", "x3")


def test_expect_without_check_rejected():
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model("vars x1 x2 x3; structure table { }; "
                        "check jacobi;\nexpect rank = 2;")
    assert e.value.line == 2 and e.value.token == "rank"
    # the pin keys on the argument too
    with pytest.raises(ModelSyntaxError):
        dsl.parse_model("vars x1 x2 x3; structure table { }; "
                        "check fi(1); expect fi(2) = true;")


@pytest.mark.parametrize("check,literal", [
    ("plucker", "1"), ("jacobi", "1"), ("rank", "true"), ("rank", "5/2"),
    ("degree_sum", "3/2"), ("casimirs", "0")])
def test_expect_literal_kind_rejected(check, literal):
    text = (f"vars x1 x2 x3; casimir Q = x3; structure jacobian; "
            f"check {check};\nexpect {check} = {literal};")
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model(text)
    assert e.value.line == 2 and e.value.token == literal


@pytest.mark.parametrize("arg", ["1/2", "101", "1000000000", "4/2"])
def test_fi_argument_out_of_range_rejected(arg):
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model(f"vars x1 x2 x3; structure table {{ }}; check fi({arg});")
    assert e.value.token == arg


def test_fi_argument_bounds():
    spec = dsl.parse_model(f"vars x1 x2 x3; structure table {{ }}; "
                           f"check fi(0), fi({FI_MAX});")
    assert spec.checks == [("fi", 0), ("fi", FI_MAX)]


def test_let_references_resolve():
    spec = dsl.parse_model(
        "vars x y; let u = x + y; casimir C = u*u; structure table { };")
    x, y = PolyExpr.gens(spec.vars)
    assert spec.casimirs[0][1] == (x + y) * (x + y)


def test_comments_ignored():
    spec = dsl.parse_model("# header\nvars x1 x2; # trailing\nstructure table { };")
    assert spec.vars == ("x1", "x2")


def test_monitor_names_validated():
    with pytest.raises(ModelSyntaxError):
        dsl.parse_model("vars x1 x2; structure table { }; "
                        "integrate from (1.0, 1.0) step 0.1 until 1.0 monitor nope;")


def test_fractional_exponent_expression():
    p = dsl.parse_polynomial("2*x1^(3/2)*x3^(-2) - 1/3", ("x1", "x2", "x3"))
    assert p.coefficient((F(3, 2), 0, -2)) == 2
    assert p.coefficient((0, 0, 0)) == F(-1, 3)


def test_power_exponents_keep_the_limit_of_every_value():
    # |e| and the reduced denominator of a power's exponent are bounded, not
    # its numerator
    assert dsl.parse_polynomial("x1^(40000/3)", ("x1",)).terms == {(F(40000, 3),): 1}
    for text, bad in (("x1^(1/40000)", "1/40000"), ("x1^(-40000)", "-40000"),
                      ("(x1^2)^(-20000)", "-40000"), ("(x1^3)^(40000/3)", "40000")):
        with pytest.raises(DomainError, match=f"^exponent {bad} exceeds MAX_EXPONENT = 32767$"):
            dsl.parse_polynomial(text, ("x1",))


def test_integral_negative_powers_of_negative_constants():
    spec = dsl.parse_model("vars x1 x2 x3; param k = -2; "
                           "casimir P = k^(-1)*x1^2 + x2*x3; structure jacobian;")
    x1, x2, x3 = PolyExpr.gens(spec.vars)
    assert spec.casimirs[0][1] == x1 ** 2 * F(-1, 2) + x2 * x3
    assert dsl.parse_polynomial("(-2*x1)^(-3)", ("x1",)).coefficient((-3,)) \
        == F(-1, 8)
    with pytest.raises(DomainError, match="rational power 1/2"):
        dsl.parse_polynomial("(-x1)^(1/2)", ("x1",))


def test_fractional_power_of_sum_rejected():
    with pytest.raises(ModelSyntaxError):
        dsl.parse_polynomial("(x1+x2)^(1/2)", ("x1", "x2"))


@pytest.mark.parametrize("name", catalog.names())
def test_emission_round_trip_byte_identical(name):
    built = catalog.build(name)
    text = dsl.render_model(dsl.model_spec_from_built(built))
    spec = dsl.parse_model(text, name=name)
    assert dsl.render_model(spec) == text


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_render_parse_render_is_byte_stable(text):
    # random models reach what no catalog entry emits: a jacobian or nambu
    # lambda, and an empty table.  Every model read is emitted and read
    # back, unless it holds a coefficient longer than the scanner reads
    # (MAX_LITERAL_CHARS) or than Python prints; then emission is refused.
    try:
        spec = dsl.parse_model(text)
    except PpaError:
        return
    try:
        emitted = dsl.render_model(spec)
    except DomainError as e:
        assert "MAX_LITERAL_CHARS" in str(e) or "digits to print" in str(e)
        return
    assert dsl.render_model(dsl.parse_model(emitted)) == emitted


@pytest.mark.parametrize("name", ["q3", "q5", "dell", "quadrics61", "euler_top"])
def test_emitted_model_rebuilds_same_structure(name):
    built = catalog.build(name)
    text = dsl.render_model(dsl.model_spec_from_built(built))
    spec = dsl.parse_model(text, name=name)
    assert spec.build_structure() == built.structure
    assert [p for _, p in spec.casimirs] == built.casimir_polys()


def test_map_file_parsing():
    mm = dsl.parse_map_file(
        "map y1 = x1;\nmap y2 = x2*x3^(-1/2);\nmap y3 = x3^(3/2);\n",
        ("x1", "x2", "x3"))
    assert isinstance(mm, MonomialMap)
    assert mm.new_vars == ("y1", "y2", "y3")
    assert mm.matrix[1] == (0, 1, F(-1, 2))


def test_map_file_rejects_sums():
    from ppa.errors import SingularMapError
    with pytest.raises(SingularMapError):
        dsl.parse_map_file("map y1 = x1 + x2;", ("x1", "x2"))


def test_bad_token_position():
    with pytest.raises(ModelSyntaxError) as e:
        dsl.parse_model("vars x1;\nstructure @jacobian;")
    assert e.value.line == 2


def test_nesting_limit():
    x1 = PolyExpr.var("x1", ("x1",))
    deep = "(" * dsl.MAX_NESTING + "x1" + ")" * dsl.MAX_NESTING
    assert dsl.parse_polynomial(deep, ("x1",)) == x1
    assert dsl.parse_polynomial(f"{deep} * {deep}", ("x1",)) == x1 ** 2
    with pytest.raises(ModelSyntaxError, match="nested deeper than"):
        dsl.parse_polynomial(f"({deep})", ("x1",))


@pytest.mark.parametrize("text,message", [
    ("vars x1 x2; weights 1 3/2; structure table { };", "expected an integer"),
    ("vars x1 x2 x3; structure nambu 5/2;", "expected an integer"),
    ("vars x1 x2; param k = 2/0; structure table { };", "zero denominator"),
    ("vars x1; structure table { }; check rank; expect rank = 1/0;",
     "zero denominator"),
    ("vars x1; structure table { }; integrate from (1/0) step 1 until 1;",
     "zero denominator"),
    ("vars x1; structure table { }; integrate from (1" + "0" * 400
     + ") step 1 until 1;", "out of float range"),
    ("vars x1; let p = x1^(2/0); structure table { };", "zero denominator"),
    ("vars x1; let p = 1." + "0" * 4000 + "; structure table { };",
     "longer than 4000")])
def test_numeric_literal_errors(text, message):
    with pytest.raises(ModelSyntaxError, match=message):
        dsl.parse_model(text)
