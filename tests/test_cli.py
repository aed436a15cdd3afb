"""CLI behaviour: exit codes, JSON reports, determinism, subcommands."""

import contextlib
import dataclasses
import io
import json
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import synthetic
from ppa import catalog, dsl, runner
from ppa.cli import main


# a numeric literal at the DSL's 4000-character cap
SEVENS = "7" * 4000


def _squarings(k):
    """``let`` lines squaring SEVENS k times."""
    return [f"let a0 = {SEVENS};"] + [f"let a{i + 1} = a{i}*a{i};" for i in range(k)]


def run_cli(*argv):
    return main(list(argv))


def emit(tmp_path, name, *params):
    out = tmp_path / f"{name}.ppa"
    argv = ["catalog", name, "--emit", str(out)]
    for p in params:
        argv[2:2] = ["--param", p]
    assert run_cli(*argv) == 0
    return out


def test_check_passes_on_emitted_model(tmp_path, capsys):
    f = emit(tmp_path, "q3")
    assert run_cli("check", str(f)) == 0
    out = capsys.readouterr().out
    assert "jacobi: pass" in out and "overall: pass" in out


def test_check_exit_one_on_failure(tmp_path):
    bad = tmp_path / "bad.ppa"
    bad.write_text(
        "vars x1 x2 x3;\n"
        "structure table { {x1,x2} = 2*x1*x2 + x3^2 + x1^2;"
        " {x2,x3} = 2*x2*x3 + x1^2; {x3,x1} = 2*x3*x1 + x2^2; };\n"
        "check jacobi;\n")
    assert run_cli("check", str(bad)) == 1


def test_check_exit_two_on_parse_error(tmp_path):
    f = tmp_path / "broken.ppa"
    f.write_text("vars x1 x2; structure table { oops };\n")
    assert run_cli("check", str(f)) == 2


def test_check_exit_two_on_a_rebound_name(tmp_path, capsys):
    # a param over a coordinate once turned {x,y} = x into {x,y} = 2
    f = tmp_path / "rebound.ppa"
    f.write_text("vars x y; param x = 2; structure table { {x,y} = x; };")
    assert run_cli("check", str(f)) == 2
    assert "name 'x' already defined at 1:11" in capsys.readouterr().err


def test_check_exit_two_on_more_than_max_dim_vars(tmp_path, capsys):
    # a table model over nine variables once passed every check
    f = tmp_path / "nine.ppa"
    f.write_text("vars a b c d e f g h i; structure table { {a,b} = c; };\n"
                 "check jacobi, rank, plucker;\n")
    assert run_cli("check", str(f)) == 2
    assert "vars names more than MAX_DIM = 8 variables at 1:1" in capsys.readouterr().err


def test_check_exit_two_on_missing_file():
    assert run_cli("check", "/nonexistent/model.ppa") == 2


def test_usage_error_is_exit_two():
    assert run_cli("frobnicate") == 2


def test_expect_mismatch_fails(tmp_path):
    f = tmp_path / "m.ppa"
    f.write_text("vars x1 x2 x3; casimir Q = x3; structure jacobian;\n"
                 "check rank; expect rank = 3;\n")
    assert run_cli("check", str(f)) == 1


def test_a_ten_variable_jacobian_model_is_refused_with_exit_two(tmp_path):
    f = tmp_path / "m.ppa"
    xs = [f"x{i}" for i in range(1, 11)]
    casimirs = "".join(f"casimir Q{k} = {xs[k]}^2 + {xs[k + 1]}*{xs[k + 2]};\n"
                       for k in range(8))
    f.write_text(f"vars {' '.join(xs)};\n{casimirs}structure jacobian;\n")
    assert run_cli("check", str(f)) == 2


def test_informational_checks_never_fail_unpinned(tmp_path):
    f = tmp_path / "m.ppa"
    f.write_text("vars x1 x2 x3; casimir Q = x3; structure jacobian;\n"
                 "check plucker, rank, degree_sum;\n")
    assert run_cli("check", str(f)) == 0


@pytest.mark.parametrize("seed", ["0", "1", "7"])
def test_the_degree_14_model_reports_rank_four_at_every_seed(tmp_path, capsys, seed):
    f = tmp_path / "degree14.ppa"
    f.write_text(synthetic.degree14_model_text())
    assert run_cli("check", str(f), "--seed", seed) == 0
    assert capsys.readouterr().out == ("jacobi: pass\n"
                                       "plucker: info  plucker = false (x1,x2,x3,x4)\n"
                                       "rank: info  rank = 4\n"
                                       "overall: pass\n")


def test_json_report_schema_and_determinism(tmp_path):
    model = emit(tmp_path, "q5")
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("check", str(model), "--json", str(j1), "--seed", "7") == 0
    assert run_cli("check", str(model), "--json", str(j2), "--seed", "7") == 0
    assert j1.read_bytes() == j2.read_bytes()
    data = json.loads(j1.read_text())
    assert set(data) == {"model", "seed", "checks"}
    assert data["model"] == "q5" and data["seed"] == 7
    for c in data["checks"]:
        assert {"name", "status", "millis"} <= set(c)
        assert c["status"] in ("pass", "fail", "skipped", "info")
    th = next(c for c in data["checks"] if c["name"] == "theorem31")
    assert th["lambda"] == "1/5"


def test_catalog_emission_reparse_byte_identical(tmp_path):
    for name in ("q3", "dell", "fairlie", "bdu_casimirs"):
        f1 = emit(tmp_path, name)
        text1 = f1.read_text()
        from ppa import dsl
        spec = dsl.parse_model(text1, name=name)
        assert dsl.render_model(spec) == text1


def test_catalog_with_params(tmp_path, capsys):
    assert run_cli("catalog", "q3", "--param", "k=5/2") == 0
    out = capsys.readouterr().out
    assert "5/2*x1*x2*x3" in out
    assert run_cli("catalog", "q5", "--param", "k=-5/7") == 0
    assert "casimir P = 7/5*x1^5 - " in capsys.readouterr().out    # -1/k


def test_catalog_unknown_entry():
    assert run_cli("catalog", "nonexistent") == 2


def test_catalog_bad_param(tmp_path):
    assert run_cli("catalog", "q3", "--param", "zz=1") == 2


@pytest.mark.parametrize("value", ["1/0", "abc", "0.5", "1e400",
                                   "2; check jacobi", "", "--1"])
def test_catalog_param_is_one_rational_literal(value, capsys):
    assert run_cli("catalog", "q3", "--param", f"k={value}") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parse error:") and "Traceback" not in err


def test_catalog_dell_initial_point_needs_real_roots(capsys):
    # x3 = sqrt(x1^2 - k^2) at x1 = 5/4
    assert run_cli("catalog", "dell", "--param", "k=5/4") == 0
    capsys.readouterr()
    assert run_cli("catalog", "dell", "--param", "k=-2") == 2
    assert capsys.readouterr().err.startswith("error: k must lie in")


def _integrate_requests():
    for name in catalog.names():
        for i, bindings in enumerate([None] + catalog.entry(name).alternates):
            if catalog.build(name, bindings).integrate:
                yield pytest.param(name, bindings, id=f"{name}-{i}")
    # the window follows g2: these escape at t = 0.137 and 0.104
    yield pytest.param("dell", {"g2": 9}, id="dell-g2=9")
    yield pytest.param("dell", {"g2": 16}, id="dell-g2=16")


@pytest.mark.parametrize("name,bindings", list(_integrate_requests()))
def test_every_catalog_integrate_request_completes(tmp_path, capsys, name,
                                                   bindings):
    params = [f"{k}={v}" for k, v in (bindings or {}).items()]
    model = emit(tmp_path, name, *params)
    csv_out = tmp_path / "traj.csv"
    assert run_cli("integrate", str(model), "--out", str(csv_out)) == 0
    assert "divergence" not in capsys.readouterr().err


def test_integrate_writes_csv(tmp_path, capsys):
    f = emit(tmp_path, "euler_top")
    csv_out = tmp_path / "traj.csv"
    assert run_cli("integrate", str(f), "--out", str(csv_out)) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,Q1"
    assert len(lines) == 1 + 10001
    out = capsys.readouterr().out
    assert "drift Q1" in out


def test_integrate_divergence_exit_one(tmp_path, capsys):
    f = tmp_path / "blowup.ppa"
    f.write_text(
        "vars x1 x2;\nstructure table { {x1,x2} = 1; };\n"
        "hamiltonian x1^2*x2^2;\n"
        "integrate from (2.0, 2.0) step 0.01 until 50.0;\n")
    assert run_cli("integrate", str(f), "--out", str(tmp_path / "t.csv")) == 1
    assert "divergence" in capsys.readouterr().err
    # no CSV, and no temporary file either
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blowup.ppa"]


def test_integrate_overflow_is_divergence(tmp_path, capsys):
    f = tmp_path / "huge_step.ppa"
    f.write_text(
        "vars x1 x2 x3;\nparam k = 2;\n"
        "casimir P = (1/3)*(x1^3+x2^3+x3^3) + k*x1*x2*x3;\n"
        "structure jacobian lambda 1;\nhamiltonian x1^2 + x2^2 + x3^2;\n"
        "integrate from (1.0, 0.5, 0.25) step 1e300 until 1e308 monitor P;\n")
    assert run_cli("integrate", str(f), "--out", str(tmp_path / "t.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("divergence:") and "last valid t = 0.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("window,message", [
    ("step 1e-09 until 1000000000.0", "needs more than"),
    ("step 0.3 until 1.0", "nearest reachable t_end is 0.9")])
def test_integrate_window_limits_exit_two(tmp_path, capsys, window, message):
    f = emit(tmp_path, "euler_top")
    text = f.read_text()
    assert "step 0.001 until 10.0" in text
    f.write_text(text.replace("step 0.001 until 10.0", window))
    assert run_cli("integrate", str(f), "--out", str(tmp_path / "t.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("casimir,message", [
    ("1/0", "parse error: zero denominator at 1:28 near '1/0'"),
    ("7" * 5000 + "*x1", "parse error: numeric literal longer than 4000"),
    ("(" * 5000 + "x1" + ")" * 5000, "parse error: parentheses nested deeper than 50"),
    ("x1^70000", "error: power 70000 exceeds MAX_EXPONENT = 32767"),
    ("(x1+x2+x3)^40000", "error: power 40000 exceeds MAX_EXPONENT"),
    ("(x1^2+x2)^20000", "error: exponent 40000 of the power exceeds MAX_EXPONENT"),
    ("(x1+x2+x3)^2000", "error: a product of polynomials with 2145 x 2145 terms and "
                        "coefficients of 96 and 96 bits costs 4601025 units, more than "
                        "MAX_WORK = 1000000"),
    ("x1^(1/40000)", "error: exponent 1/40000 exceeds MAX_EXPONENT = 32767\n"),
    # Laurent values keep the same limit: once emitted, neither would parse
    ("(x1^2)^(-20000)", "error: exponent -40000 exceeds MAX_EXPONENT = 32767\n"),
    ("(x1*x1*x1*x1^16383 + x1^-1)^2",
     "error: exponent 32772 of the power exceeds MAX_EXPONENT = 32767\n"),
    # a grade error names its first offending term, never the whole value,
    # which may be long or hold a coefficient too long to print
    (f"{SEVENS}^2*x1^(1/2)",
     "error: Casimir has fractional or negative exponents: x1^(1/2)\n"),
    ("(x1+x2+x3)^6*x1^(1/2)",
     "error: Casimir has fractional or negative exponents: x1^(13/2)\n")])
def test_hostile_literals_exit_two(tmp_path, capsys, casimir, message):
    f = tmp_path / "m.ppa"
    f.write_text(f"vars x1 x2 x3; casimir P = {casimir}; structure jacobian;\n"
                 "check jacobi;\n")
    assert run_cli("check", str(f)) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert len(err.encode()) < 200


def test_product_chain_exits_two(tmp_path, capsys):
    # the 96th power written as a chain of eight products: its first
    # product is over the work budget
    f = tmp_path / "m.ppa"
    f.write_text("vars x1 x2 x3 x4 x5 x6;\n"
                 "let a = (x1+x2+x3+x4+x5+x6)^12;\n"
                 "casimir P = a*a*a*a*a*a*a*a;\n"
                 "structure jacobian;\ncheck casimirs;\n")
    assert run_cli("check", str(f)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a product of polynomials with 6188 x 6188")
    assert "MAX_WORK = 1000000" in err and "Traceback" not in err


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    f = emit(tmp_path, "q3")
    monkeypatch.setitem(runner.CHECKS, "jacobi",
                        dataclasses.replace(runner.CHECKS["jacobi"], run=boom))
    assert run_cli("check", str(f)) == 2
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_integrate_requires_statement(tmp_path):
    f = emit(tmp_path, "q3")
    assert run_cli("integrate", str(f), "--out", str(tmp_path / "t.csv")) == 2


def test_transport_command(tmp_path, capsys):
    model = emit(tmp_path, "q3")
    mapfile = tmp_path / "m.map"
    mapfile.write_text("map y1 = x1;\nmap y2 = x2*x3^(-1/2);\nmap y3 = x3^(3/2);\n")
    emitted = tmp_path / "out.ppa"
    assert run_cli("transport", str(model), "--map", str(mapfile),
                   "--emit", str(emitted)) == 0
    out = capsys.readouterr().out
    assert "polynomial_grade: true" in out
    assert run_cli("check", str(emitted)) == 0


def test_transport_refuses_repeated_map_names(tmp_path, capsys):
    model = emit(tmp_path, "q3")
    mapfile = tmp_path / "m.map"
    mapfile.write_text("map y1 = x1;\nmap y1 = x2;\nmap y3 = x3;\n")
    emitted = tmp_path / "out.ppa"
    capsys.readouterr()
    assert run_cli("transport", str(model), "--map", str(mapfile),
                   "--emit", str(emitted)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: new variable y1 is named twice in the map\n"
    assert not emitted.exists()


def test_transport_refuses_oversized_scale_power(tmp_path, capsys):
    # the inverse map has x3 = 2^(-9*10^8) * y1^(9*10^8) * ...: the power of
    # the scale is refused by its predicted size before it is computed
    model = emit(tmp_path, "q3")
    mapfile = tmp_path / "m.map"
    mapfile.write_text("map y1 = 2*x1;\nmap y2 = x1^30000*x2;\nmap y3 = x2^30000*x3;\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli("transport", str(model), "--map", str(mapfile)) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the power -900000000 of a 2-bit rational would "
                            "have more than MAX_POWER_BITS = 1048576 bits\n")


def test_transport_refuses_to_emit_an_unreadable_literal(tmp_path, capsys):
    # a 2100-digit literal squared: its 4200 digits print, but the scanner
    # reads at most MAX_LITERAL_CHARS = 4000 characters
    model = tmp_path / "m.ppa"
    model.write_text(f"vars x1 x2 x3; casimir P = {'7' * 2100}^2*x1 + x2*x3;\n"
                     "structure table { {x1,x2} = x3; };\n")
    mapfile = tmp_path / "m.map"
    mapfile.write_text("map y1 = x1;\nmap y2 = x2;\nmap y3 = x3;\n")
    emitted = tmp_path / "out.ppa"
    assert run_cli("transport", str(model), "--map", str(mapfile),
                   "--emit", str(emitted)) == 2
    assert capsys.readouterr().err == ("error: cannot emit a numeric literal of 4200 "
                                       "characters: longer than MAX_LITERAL_CHARS = 4000\n")
    assert not emitted.exists()


def run_cli_captured(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


MAP_EXPONENTS = sorted({Fraction(a, d) for d in (1, 2, 3) for a in range(-2 * d, 2 * d + 1)})


@st.composite
def map_files(draw):
    """Map files over x1 x2 x3: mostly three lines with distinct new names,
    else a wrong line count or a repeated name.  Line k is a scaled
    monomial with a nonzero exponent at variable perm[k] and sparse other
    ones, so most of the maps are invertible: a permutation of the
    variables in a third of the maps, else small exponents, integral in
    half of them."""
    count = draw(st.sampled_from([3, 3, 3, 0, 1, 2, 4]))
    names = draw(st.permutations(["y1", "y2", "y3", "w", "x1"]))[:count]
    if count > 1 and draw(st.booleans()):
        names[-1] = names[0]
    exps = draw(st.sampled_from([[0], [-2, -1, 1, 2], MAP_EXPONENTS]))
    off_diagonal = st.sampled_from([0, 0] + exps)
    perm = draw(st.permutations(range(3)))
    lines = []
    for k, name in enumerate(names):
        row = [draw(off_diagonal) for _ in range(3)]
        row[perm[k % 3]] = draw(st.sampled_from([e for e in exps if e] or [1]))
        scale = draw(st.sampled_from(["1"] * 4 + ["-1", "4", "2", "9/4", "-1/8"]))
        factors = [f"x{i}^({e})" for i, e in enumerate(row, 1) if e]
        lines.append(f"map {name} = " + "*".join([f"({scale})"] + factors) + ";")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(map_files(), st.booleans())
def test_transport_fuzz_exit_codes(map_text, emit_it):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "q3.ppa"
        assert run_cli_captured("catalog", "q3", "--emit", str(model))[0] == 0
        mapfile = Path(tmp) / "m.map"
        mapfile.write_text(map_text)
        emitted = Path(tmp) / "out.ppa"
        argv = ["transport", str(model), "--map", str(mapfile)]
        code, _, err = run_cli_captured(*(argv + ["--emit", str(emitted)] if emit_it
                                          else argv))
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "internal error" not in err
        if code == 0 and emit_it:
            # what transport writes, check reads
            code, _, err = run_cli_captured("check", str(emitted))
            assert code in (0, 1) and not err


# small values twice as often as each hostile one
LITERALS = 2 * ["0", "1", "2", "3", "7/2"] + ["1/0", "7" * 400, SEVENS, SEVENS + "7"]
EXPONENTS = 2 * ["0", "1", "2", "3"] + ["(1/2)", "(-1)", "2000", "32767", "40000"]
CHECK_NAMES = ["jacobi", "casimirs", "theorem31", "plucker", "rank", "fi(3)", "degree_sum"]


@st.composite
def check_models(draw):
    """Models over x1 x2 x3 from a small grammar: literals from one digit
    to one past the 4000-character cap, variables, earlier lets, signs,
    ``*``, ``+``, ``-``, ``^`` and parentheses; an optional chain of up to
    14 squarings of a literal, up to two lets, a Casimir, a Jacobian
    structure and one check."""
    names = ["x1", "x2", "x3"]

    def atom(depth):
        kind = draw(st.integers(0, 2 if depth else 1))
        if kind == 0:
            return draw(st.sampled_from(LITERALS))
        if kind == 1:
            return draw(st.sampled_from(names))
        return "(" + expr(depth - 1) + ")"

    def factor(depth):
        text = draw(st.sampled_from(["", "", "-"])) + atom(depth)
        if draw(st.integers(0, 3)) == 0:
            text += "^" + draw(st.sampled_from(EXPONENTS))
        return text

    def expr(depth):
        terms = ["*".join(factor(depth) for _ in range(draw(st.integers(1, 3))))
                 for _ in range(draw(st.integers(1, 3)))]
        return terms[0] + "".join(draw(st.sampled_from([" + ", " - "])) + t
                                  for t in terms[1:])

    lines = ["vars x1 x2 x3;"]
    k = draw(st.integers(0, 14))
    if k:
        lines.append(f"let c0 = {draw(st.sampled_from(LITERALS))};")
        lines += [f"let c{i + 1} = c{i}*c{i};" for i in range(k)]
        names.append(f"c{k}")
    for i in range(draw(st.integers(0, 2))):
        lines.append(f"let a{i} = {expr(2)};")
        names.append(f"a{i}")
    lines += [f"casimir P = {expr(2)};", "structure jacobian;",
              f"check {draw(st.sampled_from(CHECK_NAMES))};"]
    return "\n".join(lines) + "\n"


EMISSIONS = [dsl.render_model(dsl.model_spec_from_built(catalog.build(name)))
             for name in catalog.names()]
SNIPPETS = ["^", "*", "(", ")", ";", "-", "=", ",", "{", "}", "let", "x9", "/0",
            "^(1/2)", "^2000", "^32767", SEVENS]


@st.composite
def mutated_emissions(draw):
    """A catalog emission with one to three edits: a span of up to 10
    characters deleted, a snippet inserted, or a span of up to 20
    characters repeated."""
    text = draw(st.sampled_from(EMISSIONS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            text = text[:i] + text[i + draw(st.integers(1, 10)):]
        elif kind == 1:
            text = text[:i] + draw(st.sampled_from(SNIPPETS)) + text[i:]
        else:
            j = draw(st.integers(i, min(len(text), i + 20)))
            text = text[:j] + text[i:j] + text[j:]
    return text


def _hostile(*lines):
    return "\n".join(("vars x1 x2 x3;",) + lines
                     + ("structure jacobian;", "check jacobi;")) + "\n"


@settings(max_examples=80, deadline=timedelta(seconds=10))
@given(st.one_of(check_models(), mutated_emissions()))
@example(_hostile(f"casimir P = (x1 + {'7' * 400}*x2 + x3)^40;"))
@example(_hostile(f"casimir P = (x1 + {SEVENS}*x2 + x3)^40;"))
@example(_hostile(*_squarings(10)))
@example(_hostile(*_squarings(14)))
# numbers of 8000 and 4400 digits in the text of an error: Python refuses
# to print an int past 4300 digits, which was an internal error
@example(_hostile(f"casimir P = {SEVENS}^2*x1^(1/2);"))
@example(_hostile(f"casimir P = ({'7' * 400}*({SEVENS}))^(1/2);"))
def test_check_fuzz_exit_codes(model_text):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.ppa"
        model.write_text(model_text)
        code, _, err = run_cli_captured("check", str(model))
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "internal error" not in err


# x2 grows by 10^153 per unit time from 1.3e154, and x1' = x2^2: x2^2 is
# finite at the state and overflows at the first stage point past it
STAGE_OVERFLOW = ("vars x1 x2 x3;\nstructure table { {x1,x2} = 1; };\n"
                  f"hamiltonian (1/3)*x2^3 - {10 ** 153}*x1;\n"
                  "integrate from (0.0, 1.3e154, 0.0) step 1.0 until 5.0 monitor x3;\n")
FRACTIONAL_MONITOR = ("vars x1 x2 x3;\ncasimir R = x1^(1/2) + x3^2;\n"
                      "structure table { {x1,x2} = x3; };\nhamiltonian x2^2;\n"
                      "integrate from (1.0, 0.5, 0.25) step 0.01 until 1 monitor R x3;\n")
PAST_MAX_STEPS = ("vars x1 x2 x3;\ncasimir Q = x3;\nstructure jacobian;\n"
                  "hamiltonian x1^2;\n"
                  "integrate from (1.0, 0.5, 0.25) step 1e-9 until 1 monitor Q;\n")


@pytest.mark.parametrize("model_text,code", [
    (STAGE_OVERFLOW, 1), (FRACTIONAL_MONITOR, 0), (PAST_MAX_STEPS, 2)])
def test_integrate_exit_codes(tmp_path, model_text, code):
    model = tmp_path / "m.ppa"
    model.write_text(model_text)
    got, _, err = run_cli_captured("integrate", str(model), "--out",
                                   str(tmp_path / "t.csv"))
    assert got == code and "Traceback" not in err


# polynomial terms, each six times as likely as each fractional, huge,
# unparsable or unknown one
INTEGRATE_TERMS = 6 * ["x1", "x2", "-x3", "3", "x1*x2", "-x2*x3", "x1^2", "(1/3)*x2^3",
                       "7/2*x3^2", "-x1*x3^2"] + ["x1^(1/2)", "x2^2000", f"{SEVENS}*x1",
                                                  "1/0", "x9"]
INTEGRATE_POINTS = 3 * ["0", "-0.0", "1.0", "-0.5", "2", "0.25"] + ["1e150", "-1.3e154",
                                                                  "5e-324"]
# (step, until): at most 1000 steps, or a window that is refused
INTEGRATE_WINDOWS = 3 * [("0.01", "1"), ("0.1", "10"), ("1", "100"), ("0.001", "1")] + [
    ("1e300", "1e300"), ("0.3", "1"), ("0.1", "0.04"), ("0", "1"), ("0.1", "-1"),
    ("1e-9", "1"), ("0.5", "1e9"), ("1e-300", "1")]


@st.composite
def integrate_models(draw):
    """Models over x1 x2 x3 with an integrate statement: a Jacobian, table
    or ternary Nambu structure with the Casimirs it takes (now and then one
    too many), the Hamiltonians it takes (now and then one too many or too
    few), each up to three terms from INTEGRATE_TERMS; a start point of
    three coordinates (now and then four); a window from INTEGRATE_WINDOWS;
    up to three monitors, now and then an unknown one."""
    def poly():
        return " + ".join(draw(st.lists(st.sampled_from(INTEGRATE_TERMS),
                                        min_size=1, max_size=3)))

    def rarely():
        return draw(st.sampled_from([False] * 9 + [True]))

    kind = draw(st.sampled_from(["jacobian", "table", "nambu"]))
    casimir = (kind == "jacobian") != rarely() if kind != "table" else draw(st.booleans())
    lines = ["vars x1 x2 x3;"] + ([f"casimir Q = {poly()};"] if casimir else [])
    if kind == "table":
        lines.append(f"structure table {{ {{x1,x2}} = {poly()}; {{x2,x3}} = {poly()}; }};")
    else:
        lines.append("structure jacobian;" if kind == "jacobian" else "structure nambu 3;")
    count = (2 if kind == "nambu" else 1) + (draw(st.sampled_from([-1, 1])) if rarely() else 0)
    lines.append("hamiltonian " + ", ".join(poly() for _ in range(count)) + ";")
    point = [draw(st.sampled_from(INTEGRATE_POINTS)) for _ in range(4 if rarely() else 3)]
    step, until = draw(st.sampled_from(INTEGRATE_WINDOWS))
    names = ["x1", "x3"] + (["Q"] if casimir else []) + (["H"] if rarely() else [])
    monitors = draw(st.lists(st.sampled_from(names), max_size=3))
    lines.append(f"integrate from ({', '.join(point)}) step {step} until {until}"
                 + (" monitor " + " ".join(monitors) if monitors else "") + ";")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=timedelta(seconds=10))
@given(integrate_models())
@example(STAGE_OVERFLOW)
@example(FRACTIONAL_MONITOR)
@example(PAST_MAX_STEPS)
def test_integrate_fuzz_exit_codes(model_text):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.ppa"
        model.write_text(model_text)
        code, _, err = run_cli_captured("integrate", str(model), "--out",
                                        str(Path(tmp) / "t.csv"))
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "internal error" not in err


def test_a_witness_too_long_to_print_fails_the_check(tmp_path):
    # the residual has a coefficient of 8000 digits: the check fails with
    # that reason, as it does when it cannot be decided within the limits
    f = tmp_path / "m.ppa"
    f.write_text(f"vars x1 x2 x3;\nlet c = {SEVENS}^2;\n"
                 "structure table { {x1,x2} = c*x1*x3; {x2,x3} = x2^2; };\n"
                 "check jacobi;\n")
    code, out, err = run_cli_captured("check", str(f))
    assert (code, err) == (1, "")
    assert out.startswith("jacobi: fail  a rational of 26576 bits has more than 4300 "
                          "digits to print\n")


def test_transport_nonpolynomial_report(tmp_path, capsys):
    model = emit(tmp_path, "markov")
    mapfile = tmp_path / "m.map"
    mapfile.write_text("map y1 = x1^(1/2);\nmap y2 = x2;\nmap y3 = x3;\n")
    assert run_cli("transport", str(model), "--map", str(mapfile)) == 0
    assert "polynomial_grade: false" in capsys.readouterr().out


def test_quasi_check_via_cli(tmp_path):
    f = tmp_path / "quasi.ppa"
    f.write_text("vars x1 x2 x3; let L = x1;\n"
                 "structure table { {x1,x2} = x1; };\n"
                 "check quasi(L);\n")
    assert run_cli("check", str(f)) == 0
    f2 = tmp_path / "quasi2.ppa"
    f2.write_text("vars x1 x2 x3; let L = x2;\n"
                  "structure table { {x1,x2} = x1; };\n"
                  "check quasi(L);\n")
    assert run_cli("check", str(f2)) == 1


def test_bdu_relation_skipped_without_table(tmp_path, capsys):
    f = emit(tmp_path, "bdu_casimirs")
    assert run_cli("check", str(f)) == 0
    out = capsys.readouterr().out
    assert "bdu_relation: skipped" in out
    assert "no bracket table supplied" in out


@pytest.mark.parametrize("lines,message", [
    (["let a = (x1+x2+x3+x4+x5+x6)^12;", "let b = a*a;"],
     "error: a product of polynomials with 6188 x 6188 terms and coefficients of 23 "
     "and 23 bits costs 38291344 units, more than MAX_WORK = 1000000\n"),
    (["casimir P = (x1+x2+x3+x4+x5+x6)^24;"],
     "error: a product of polynomials with 1287 x 1287 terms and coefficients of 14 "
     "and 14 bits costs 1656369 units, more than MAX_WORK = 1000000\n"),
    (["casimir P = x2^30000*x2^30000*x2^30000;"],
     "error: an exponent of the product exceeds MAX_EXPONENT = 32767\n"),
    (["casimir P = x1*x2^32767*x2;"],
     "error: an exponent of the product exceeds MAX_EXPONENT = 32767\n"),
    ([f"let a = {'7' * 400}^32767;"],
     "error: the power 32767 of a 1329-bit rational would have more than "
     "MAX_POWER_BITS = 1048576 bits\n"),
    ([f"casimir P = ({'7' * 100}*x1 + x2)^32767;"],
     "error: a product of polynomials with 64 x 65 terms and coefficients of 20906 "
     "and 21238 bits costs 7163520 units, more than MAX_WORK = 1000000\n"),
    ([f"casimir P = (1/{'7' * 100}*x1)^32767;"],
     "error: the power 32767 of a 332-bit rational would have more than "
     "MAX_POWER_BITS = 1048576 bits\n"),
    (["casimir P = (x1 + 10460353203*x2)^32767;"],
     "error: a product of polynomials with 128 x 129 terms and coefficients of 4228 "
     "and 4261 bits costs 1337472 units, more than MAX_WORK = 1000000\n"),
    ([f"casimir P = (x1 + {'7' * 400}*x2 + x3)^40;"],
     "error: a product of polynomials with 153 x 153 terms and coefficients of 21255 "
     "and 21255 bits costs 41293476 units, more than MAX_WORK = 1000000\n"),
    ([f"casimir P = (x1 + {SEVENS}*x2 + x3)^40;"],
     "error: a product of polynomials with 15 x 15 terms and coefficients of 53150 "
     "and 53150 bits costs 2433600 units, more than MAX_WORK = 1000000\n"),
    (_squarings(10),
     "error: a product of polynomials with 1 x 1 terms and coefficients of 850391 "
     "and 850391 bits costs 2758921 units, more than MAX_WORK = 1000000\n"),
    (_squarings(14),
     "error: a product of polynomials with 1 x 1 terms and coefficients of 850391 "
     "and 850391 bits costs 2758921 units, more than MAX_WORK = 1000000\n"),
])
def test_product_work_and_carries_exit_two(tmp_path, lines, message):
    # each used to take about 21 s (the first two) or would carry an
    # exponent into the next variable's field if tested once per term; the
    # integer powers of large coefficients took seconds (19 s for the 400
    # sevens, 58 s for 3^21 on the trailing term); the power of a 400-digit
    # middle coefficient took 3.7 s and that of a 4000-digit one more than
    # two minutes, and squaring a 4000-digit constant 12 times took 49 s.
    # Each is refused by its predicted bits or by the work budget
    f = tmp_path / "m.ppa"
    f.write_text("\n".join(["vars x1 x2 x3 x4 x5 x6;"] + lines
                           + ["structure jacobian;", "check casimirs;"]) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli_captured("check", str(f))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", message)
