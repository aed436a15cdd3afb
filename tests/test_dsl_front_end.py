"""The one-scan DSL front end against the token-by-token one it replaced.

``oracles`` keeps the old front end verbatim: ``Token`` dataclasses, a
``PolyExpr`` per factor, a product chain per term and a sum per term.  On
random expressions, models and map files, and on mutations of them, both
must give the same ModelSpec fields, the same stored numerators in the same
order over the same denominator, or the same exception: type, message,
line, column and token.
"""

import time
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from ppa import dsl, poly
from ppa.errors import DomainError, PpaError
from ppa.poly import MAX_EXPONENT, MonomialMap, PolyExpr


def examples(n):
    return settings(max_examples=n, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# exponents around the field limits: a product of two or three of them
# crosses MAX_EXPONENT, and three of 30000 would carry into the next field
BIG = ["16383", "16384", "30000", "32767"]
OVER = ["32768", "40000"]
LITERALS = ["0", "1", "2", "10", "3/4", "6/4", "0/5", "4", "9/4", "12345678901234567890"]
INTEGRAL = ["-1", "-2", "(-3)", "(-4/2)"]
FRACTIONAL = INTEGRAL + ["(1/2)", "(-1/2)", "(3/2)", "(2/4)"]
# literals of exactly MAX_LITERAL_CHARS characters and one more, and a float
L7 = "7" * dsl.MAX_LITERAL_CHARS
LONG = [L7, L7 + "7", "1/" + L7[2:], "1/" + L7[1:], "2.5"]
# what may stand around '*' and '^' inside a term: spaces, line breaks,
# CRLF, and comments
TIMES = ["*", "*", " * ", " *", "* ", "\t*\r\n", " # c\r\n* ", "\n*\n"]
CARET = ["^", "^", "^", " ^ ", "^ ", " ^", "\r\n^\t", " # c\n^"]


def canonical(value):
    """Everything a parse result holds, term order included."""
    if isinstance(value, PolyExpr):
        return ("poly", value.vars, value._den, value._grade,
                list(value._num.items()))
    if isinstance(value, MonomialMap):
        return ("map", value.old_vars, value.new_vars, value.matrix, value.scales)
    if isinstance(value, (dsl.ModelSpec, dsl.IntegrateRequest)):
        return (type(value).__name__,
                [canonical(getattr(value, f)) for f in value.__dataclass_fields__])
    if isinstance(value, dict):
        return ("dict", [(canonical(k), canonical(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canonical(v) for v in value])
    return (type(value).__name__, value)


def outcome(parse, *args):
    try:
        return "ok", canonical(parse(*args))
    except PpaError as e:
        return ("error", type(e).__name__, str(e), getattr(e, "line", None),
                getattr(e, "column", None), getattr(e, "token", None))


def same(name, *args):
    new = outcome(getattr(dsl, name), *args)
    assert new == outcome(getattr(oracles, name), *args)
    return new


@st.composite
def expressions(draw, names, depth=0):
    """Signed sums of signed products of literals, names, powers and
    parenthesised sums; only names of ``names[0]`` (variables) and
    literals take exponents near the field limits."""
    variables, others = names
    parts = []
    for k in range(draw(st.integers(1, 4))):
        if k:
            parts.append(draw(st.sampled_from([" + ", " - ", "+", "-"])))
        factors = [draw(factors_of(names, depth)) for _ in range(draw(st.integers(1, 4)))]
        parts.append(factors[0] + "".join(draw(st.sampled_from(TIMES)) + f
                                          for f in factors[1:]))
    return "".join(parts)


@st.composite
def factors_of(draw, names, depth, parens=True):
    """One signed factor; most have no power or a small one."""
    variables, others = names
    signs = draw(st.sampled_from(["", "", "", "-", "--", "+", "-+"]))
    kind = draw(st.sampled_from(["literal", "var", "var", "var", "name", "paren"]))
    big = []
    if kind == "literal":
        atom = draw(st.sampled_from(LONG if draw(st.integers(0, 19)) == 0 else LITERALS))
        big = BIG if atom in ("0", "1", "2") else []
    elif kind == "var" and variables:
        atom = draw(st.sampled_from(variables))
        big = BIG
    elif kind == "name" and others:
        atom = draw(st.sampled_from(others))
    elif kind == "paren" and parens and depth < 2:
        atom = "(" + draw(expressions(names, depth + 1)) + ")"
    else:
        atom = draw(st.sampled_from(LITERALS[1:5]))
    r = draw(st.integers(0, 99))
    if r < 50:
        return signs + atom
    caret = draw(st.sampled_from(CARET))
    if r < 53:                      # a power of a power: x^2^3
        return f"{signs}{atom}{caret}{draw(st.sampled_from(['0', '2', '3']))}^2"
    if r < 80 or (r < 97 and not big and kind != "literal"):
        power = draw(st.sampled_from(["0", "1", "2", "3", "(2)", "(4/2)", "-0"]))
    elif r < 92:
        power = draw(st.sampled_from(FRACTIONAL if kind == "var" else INTEGRAL))
    elif r < 97:
        power = draw(st.sampled_from(big or INTEGRAL))
    elif r < 99:
        power = draw(st.sampled_from(FRACTIONAL))
    else:
        power = draw(st.sampled_from(OVER))
    return f"{signs}{atom}{caret}{power}"


@st.composite
def models(draw):
    variables = [f"x{i + 1}" for i in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 4)) == 0:
        # a variable named like a keyword of the grammar
        variables[-1] = draw(st.sampled_from(["lambda", "step", "monitor", "vars"]))
    early = draw(st.sampled_from([[], ["param k = -2/3;"], ["let c = 2*3;"],
                                  ["param k = 3;", "let c = k^2 - 1/2;"]]))
    names = [n for n in ("k", "c") if any(s.startswith(f"param {n} ") or
                                          s.startswith(f"let {n} ") for s in early)]
    lines = list(early) + ["vars " + " ".join(variables) + ";"]
    if draw(st.booleans()):
        # a name bound to a sum: a term that uses it is not monomial
        lines.append(f"let s = 2*{variables[0]} + 1;")
        names.append("s")
    if draw(st.booleans()):
        lines.append(f"param q = {draw(st.sampled_from(['5', '-1/7', '0']))};")
        names.append("q")
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"let a{k} = {draw(expressions((variables, names)))};")
        names.append(f"a{k}")
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"casimir C{k} = {draw(expressions((variables, names)))};")
        names.append(f"C{k}")
    kind = draw(st.sampled_from(["table", "jacobian", "nambu"]))
    if kind == "table":
        pairs = draw(st.lists(st.tuples(st.sampled_from(variables),
                                        st.sampled_from(variables)), max_size=3))
        body = " ".join(f"{{{a},{b}}} = {draw(expressions((variables, names)))};"
                        for a, b in pairs)
        lines.append(f"structure table {{ {body} }};")
    elif kind == "jacobian":
        lam = draw(st.one_of(st.just(""), expressions((variables, names)).map(
            lambda e: " lambda " + e)))
        lines.append(f"structure jacobian{lam};")
    else:
        lines.append(f"structure nambu {len(variables)} lambda "
                     f"{draw(expressions((variables, names)))};")
    if draw(st.booleans()):
        lines.append(f"hamiltonian {draw(expressions((variables, names)))}, "
                     f"{draw(expressions((variables, names)))};")
    lines.append("check jacobi, rank, fi(2);  # a comment")
    lines.append("expect rank = 2;\nexpect jacobi = true;")
    point = ", ".join(draw(st.sampled_from(["1.0", "1/2", "-3", "2e-1"]))
                      for _ in variables)
    lines.append(f"integrate from ({point}) step 0.01 until 1 monitor "
                 f"{variables[0]};")
    return "\n".join(lines) + "\n"


@st.composite
def map_files(draw):
    """Mostly three monomial lines over three variables."""
    variables = ("x1", "x2", "x3")
    names = (variables, [])
    monomials = st.lists(factors_of(names, 0, parens=False), min_size=1,
                         max_size=4).map("*".join)
    lines = [f"map y{k + 1} = {draw(st.one_of(monomials, monomials, monomials, expressions(names)))};"
             for k in range(draw(st.sampled_from([3, 3, 3, 2])))]
    return variables, "\n".join(lines) + "\n"


ALPHABET = list(" \n\r\t;,{}()=^*+-/#.$@012349xkaCy_") + [
    "x1", "^30000", "/0", "((", " * ", " ^ ", "\r\n", "lambda", "2.5"]


@st.composite
def mutated(draw, texts):
    """A text with one to three characters or pieces inserted, deleted or
    replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(ALPHABET))
        if action == "insert":
            text = text[:i] + piece + text[i:]
        elif action == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    return text


def same_expression(text):
    # k is a constant, p a sum and z zero, then k is a constant over no
    # variables and p a variable of another variable set
    variables = ("x1", "x2", "x3")
    env = {"k": F(-3, 2), "p": PolyExpr.var("x1", variables) + 1,
           "z": PolyExpr.zero(variables)}
    same("parse_polynomial", text, variables, env)
    env["k"] = PolyExpr.const((), 5)
    env["p"] = PolyExpr.var("y", ("y",))
    same("parse_polynomial", text, variables, env)


@examples(200)
@given(expressions((("x1", "x2", "x3"), ["k", "p", "z"])))
def test_expressions_match(text):
    same_expression(text)


@pytest.mark.parametrize("text", [
    # a sum that raises does so before a later term is read
    "0 + p + x1 + x1*p", "k*x1 - p + x2 - bogus", "p + 1 + x1 + 1/0",
    "(x2^(1/2) + 1)*x1^30000*x1^30000 - x2^(1/2)*x1^30000*x1^30000 + bogus",
    # a zero factor ends the exponent tests; the power of a monomial is
    # bounded by its top exponent
    "0*x1^30000*x1^30000", "x1^30000*x1^30000*0", "-x1^30000*0^2*x1^30000",
    "x1^30000*x1^30000*x1^30000*bogus", "(x1^2)^20000", "(3*x1^2*x2)^16384",
    "x1 + x2 - x1 + x1 - x2", "1/2*x1 + 1/3 - 1/2*x1 + 5/6*x1",
    # the token shapes of a monomial term and where one stops
    "3 * x1 ^ 2", "x1 # c\r\n* x2", "x1\r\n*\r\nx2 ^\t3 - 2", "x1^2^3", "2*x1^2^3",
    "2*x1^(1/2)", "2*x1^-1*x2", "x1^-2*x2^3", "2*x1^4/2*x2", "3*-x1", "2.5*x1",
    "x1*2.5", "2*3e5*x1", "2*3e*x1", "2x1*x2", "x1*x2 x3*x1", "1/2/3*x1", "x1*(x2)*x3",
    "2*p*x1", "x1*p^2", "z*x1^30000*x1^30000", "x1*k^2*x2", "-x1*x2*-3", "- -x1*x2",
    # a sum whose first term is a value read whole, alone or not
    "p", "(p)", "-p", "p*1", "(x1 - x1) - p", "(x1 - x1) + p", "z - p", "p - p + x1",
    "(x2 - x2) - x1*x2 + x1", "(p) + 0", "0 - (p)", "(x1^(1/2)) - x1^(1/2)",
    pytest.param(L7 + "*x1", id="L*x1"), pytest.param("x1*7" + L7, id="x1*7L"),
    pytest.param("x1^2*1/" + L7[2:], id="x1^2*1/L[2:]"),
    pytest.param("x1*1/" + L7[1:], id="x1*1/L[1:]"),
    # two 518000-bit factors whose product passes MAX_WORK: the products
    # are charged once every factor is read, so the unknown name wins
    pytest.param(f"{L7}^39*{L7}^39*bogus", id="L^39*L^39*bogus"),
    pytest.param(f"{L7}^39*{L7}^39", id="L^39*L^39"),
])
def test_edge_expressions_match(text):
    same_expression(text)


@examples(100)
@given(models())
def test_models_match(text):
    same("parse_model", text, "m")


@examples(80)
@given(map_files())
def test_map_files_match(vars_and_text):
    variables, text = vars_and_text
    same("parse_map_file", text, variables)


@examples(150)
@given(mutated(models()))
def test_mutated_models_match(text):
    same("parse_model", text, "m")


@examples(80)
@given(mutated(map_files().map(lambda vt: vt[1])))
def test_mutated_map_files_match(text):
    same("parse_map_file", text, ("x1", "x2", "x3"))


@pytest.mark.parametrize("text", [
    "", "   \n  ", "# only a comment", "vars x1;\n\n  $", "vars x1; structure table { }; @",
    "vars x1; casimir P = 1." + "0" * 4001 + "; $", "vars x1; casimir P = x1 $ " + "7" * 4001,
    "vars x1;\r\n# c\n  structure jacobian", "vars x1; casimir P = x1^(1/0);",
    "vars x1 x2; casimir P = 0*x1^30000*x1^30000; structure jacobian;",
    "vars x1 x2; let a = x1^2*x2; casimir P = a^16383 + a^16384;",
    # a power whose low field would carry into the next one with its top
    # bit still clear, and the powers at the limit beside it
    "vars x1 x2; let a = x1*x2^5; casimir P = a^16384;",
    "vars x1 x2; let a = x1*x2^3; casimir P = a^21846;",
    "vars x1 x2; let a = x1*x2^5; casimir P = a^6553 + a^6554;",
    "vars x1 x2; let a = 2*x1^2; casimir P = x2*a^3*a^16000;",
    "vars x1 x2; casimir P = x1^30000*x1^30000*bogus;",
    "vars x1 x2; casimir P = x1^(1/2)*x1^30000*x1^30000*x1^(-1/2);",
    # the first two terms leave x1^60000 alone, which cannot be packed
    "vars x1 x2; casimir P = (x2^(1/2) + 1)*x1^30000*x1^30000 "
    "- x2^(1/2)*x1^30000*x1^30000 + x2^(1/2);",
    "param k = 2; let c = k*3; vars x1; casimir P = c + x1 - c*x1 + k;"
    " structure jacobian;",
    # a variable named like a keyword, and keywords next to terms
    "vars x1 lambda; structure jacobian lambda lambda*x1;",
    "vars x1 lambda; structure jacobian lambda*x1;",
    "vars x1 x2; structure nambu 2*x1;", "vars x1 x2*x3;", "x1*x2 = 3;",
    "vars x1 x2; weights 1 2*3;", "vars x1 x2; check fi(2*3);",
    "vars x1 x2; structure table { {x1*x2, x1} = x1; };",
    "vars x1 x2; structure jacobian; integrate from (1*2, 3) step 1 until 2;",
    "vars x1 step; casimir P = step*x1; structure jacobian;"
    " integrate from (1, 2) step 1 until 2 monitor step*x1;",
    # a name bound to a sum inside a term, and a re-bound parameter
    "vars x1 x2; let s = x1 + 1; casimir P = 2*s*x2 - x1*s^2; structure jacobian;",
    "vars x1 x2; param k = 2; let a = k*x1; param k = 3; casimir P = k*x1 - a;"
    " structure jacobian;",
    "param k = 2; let a = k*3; vars x1 x2; casimir P = a*x1 + k^2*x2; structure jacobian;",
    # spacing, comments and CRLF between the factors of every term
    "vars x1 x2;\r\ncasimir P = 3 * x1 ^ 2 # c\r\n* x2 - x2 ^ 3;\r\n# c\r\nstructure jacobian;\r\n",
])
def test_edge_texts_match(text):
    same("parse_model", text, "m")


@pytest.mark.parametrize("product", ["x2^30000*x2^30000*x2^30000", "x1*x2^32767*x2"])
def test_folded_product_raises_on_a_carry(product):
    # the low field would reach 90000 (or 32768) and, tested only once at
    # the end, carry into x1's field
    with pytest.raises(DomainError) as e:
        dsl.parse_polynomial(product, ("x1", "x2"))
    assert str(e.value) == f"an exponent of the product exceeds MAX_EXPONENT = {MAX_EXPONENT}"
    same("parse_polynomial", product, ("x1", "x2"))


@pytest.mark.parametrize("power", [30, 78])
def test_folded_product_stops_at_the_first_refused_product(power):
    # 400 factors of 398k (or a million) bits: the reference refuses the
    # first product, and a fold that went on multiplying would take minutes
    variables = ("x1", "x2")
    env = {"a": int(L7) ** power}
    text = "*".join(["a", "a*x1"] * 200)
    start = time.perf_counter()
    with pytest.raises(DomainError):
        dsl.parse_polynomial(text, variables, env)
    assert time.perf_counter() - start < 1.0
    same("parse_polynomial", text, variables, env)


@pytest.mark.parametrize("head, unit", [("x1", "*x1"), ("x1", "*x1^"), ("", "*x1^")])
def test_scan_is_linear_in_the_text(head, unit):
    # a 200 kB term, and a 200 kB run of fragments that start a term and
    # break it off, each scan in one pass: a term pattern that backtracked
    # over what it had read would take minutes here
    text = head + unit * (200_000 // len(unit))
    start = time.perf_counter()
    tokens = dsl.tokenize(text)
    assert time.perf_counter() - start < 1.0
    assert tokens[-1][0] == "eof"
    same("parse_polynomial", text, ("x1", "x2"))


# what may stand between the terms of a sum: a sign or a run of signs, with
# spaces, line breaks, CRLF and comments around them
SIGNS = [" + ", " - ", "+", "-", " - -", "+-", " -+ ", "--", "\r\n+ ", "\n-\n",
         " # c\r\n- ", "-\r\n# c\r\n", "\t+\t"]
# what may follow a sum: a factor or a power that its last term runs on
# into, or what ends it
FOLLOWERS = ["", "", "*x2", "*(x1 + 1)", "*(x1 - x2)^2", "^2", "^(1/2)", "^-1", "*-x1",
             " 2.5", "*2.5", ")", ";", ",", " + (x1 - 1)", " - -(x2)"]
# one-term values a name may be bound to, zero among them
MONOMIALS = ["3*x1^2", "-x1*x2", "1/2*x3", "0", "x2^0", "7", "-2/4*x1*x1", "x1^2*x3^3"]


@st.composite
def sums(draw, names):
    """One to six monomial terms of literals and names, each factor with an
    optional small power, after optional signs and between runs of signs."""
    variables, others = names
    atoms = st.sampled_from(list(variables) + list(others) + ["2", "3/4", "0", "10", "7"])
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            f = draw(atoms)
            if draw(st.integers(0, 3)) == 0:
                f += draw(st.sampled_from(CARET)) + draw(st.sampled_from(["0", "1", "2", "3"]))
            factors.append(f)
        terms.append(factors[0] + "".join(draw(st.sampled_from(TIMES)) + f
                                          for f in factors[1:]))
    lead = draw(st.sampled_from(["", "", "-", "- -", "+-", "-+"]))
    return lead + terms[0] + "".join(draw(st.sampled_from(SIGNS)) + t for t in terms[1:])


@st.composite
def sums_in_context(draw, names):
    """A sum alone or inside an expression, followed by what ends it or runs
    its last term on."""
    pre, post = draw(st.sampled_from([("", ""), ("(", ")"), ("x3 - (", ") + x1"),
                                      ("2*(", ")^2"), ("x2^2 + ", "")]))
    return pre + draw(sums(names)) + draw(st.sampled_from(FOLLOWERS)) + post


def same_over_names(text):
    # m is one term, then a term over another variable set; k, p and z as
    # in same_expression
    variables = ("x1", "x2", "x3")
    x1, x2, _ = PolyExpr.gens(variables)
    env = {"k": F(-3, 2), "p": x1 + 1, "z": PolyExpr.zero(variables),
           "m": F(2, 3) * x1 * x2 ** 2}
    same("parse_polynomial", text, variables, env)
    env.update(k=PolyExpr.const((), 5), m=PolyExpr.var("y", ("y",)) ** 2)
    same("parse_polynomial", text, variables, env)


@st.composite
def sum_models(draw):
    """Models whose expressions are sums: a param bound before vars,
    one-term lets, and sums after 'lambda' and 'hamiltonian' and before ';'
    and ','."""
    early = draw(st.sampled_from([[], ["param k = -2/3;"],
                                  ["param k = 3;", "let c = k^2 - 1/2;"]]))
    names = [n for n in ("k", "c") if any(f" {n} " in s for s in early)]
    lines = early + ["vars x1 x2 x3;"]
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"let m{k} = {draw(st.sampled_from(MONOMIALS))};")
        names.append(f"m{k}")
    if draw(st.booleans()):
        lines.append("param q = -1/7;")
        names.append("q")
    terms = sums((("x1", "x2", "x3"), names))
    lines += [f"casimir C = {draw(terms)};", f"structure jacobian lambda {draw(terms)};",
              f"hamiltonian {draw(terms)}, {draw(terms)};", "check jacobi;"]
    return draw(st.sampled_from(["\n", "\r\n", " ", "\n# c\n"])).join(lines) + "\n"


@examples(200)
@given(sums_in_context((("x1", "x2", "x3"), ["k", "p", "z", "m"])))
def test_sums_match(text):
    same_over_names(text)


@examples(100)
@given(sum_models())
def test_sum_models_match(text):
    same("parse_model", text, "m")


@examples(100)
@given(mutated(sum_models()))
def test_mutated_sum_models_match(text):
    same("parse_model", text, "m")


@pytest.mark.parametrize("text", [
    # unary signs, alone and in runs, and line breaks and comments around
    # the signs between terms
    "- -x1", "+-2*x1", "- -x1 + +-2*x1", "x1 -- x2 +- x3", "x1\r\n- # c\r\nx2",
    "x1 -\n# c\n- x2 *\r\n x3",
    # a last term that runs on, and what may end a sum
    "x1 - x2*(x1 + 1)", "m - m*(x1 + 1)", "2*x1 - 3*x2^2^3", "x1 + x2^(1/2)",
    "x1 - x2^-1*x3", "x1 + x2 2.5", "x1 - 2.5", "x1 - x2)", "x1 + x2;", "(x1 - x2)*x3 + x1",
    # names bound to one term, to zero and to a sum, in every place of a sum
    "m^2 - m*m", "m*x1 - x1*m + m", "z*m + m - m", "x1 - p", "p*x1 - x2", "x2 - x1*p",
    "m^16384", "x1 + m^16383*m", "k*m - m*k", "x1 + bogus - x2", "x1 + 1/0 - x2",
    "x1 + 2/4*x2 - 6/4*x3 + 1/2*x2",
    # products the limits refuse, in a later term
    "x1 - x2^30000*x2^30000", "x1 + x1^30000*x1^30000*0",
])
def test_edge_sums_match(text):
    same_over_names(text)


@pytest.mark.parametrize("text", [
    "vars x1 x2; structure jacobian lambda -x1 - x2;",
    "vars x1 x2; structure jacobian lambda - -2*x1 +- x2;",
    "vars lambda x1; structure jacobian lambda lambda - x1;",
    "vars lambda x1; structure jacobian lambda -lambda;",
    "vars hamiltonian x1; structure jacobian; hamiltonian hamiltonian - x1;",
    "vars x1 x2; structure jacobian; hamiltonian -x1 + x2, - -x2;",
    "vars x1 x2; let m = -3*x1^2; structure table { {x1,x2} = m - x2*m + 1; };",
    "param k = 2; let c = k - 1; vars x1 x2; casimir P = c*x1 - k*x2 + c - k;"
    " structure jacobian;",
    "vars x1 x2; weights 1 -2;", "vars x1 x2; structure table { {x1,x2} = x1 - x2 x1; };",
])
def test_edge_sum_texts_match(text):
    same("parse_model", text, "m")


@pytest.mark.parametrize("head, unit, tail", [
    ("x1", " - x1", ""), ("x1", " -", " (x1)"), ("x1", " - -", "2.5"),
])
def test_sum_scan_is_linear_in_the_text(head, unit, tail):
    # a 200 kB sum, and runs of signs that a term does not follow
    text = head + unit * (200_000 // len(unit)) + tail
    start = time.perf_counter()
    tokens = dsl.tokenize(text)
    assert time.perf_counter() - start < 1.0
    assert tokens[-1][0] == "eof"
    same("parse_polynomial", text, ("x1", "x2"))


@st.composite
def signed_values(draw):
    """(value, sign) pairs over (x1, x2), polynomials and Laurent/Puiseux
    values, drawn from a few monomials so that sums cancel often.  Their
    exponents reach the limit every value keeps from both sides
    (+-MAX_EXPONENT, MAX_EXPONENT - 1/2, a denominator of MAX_EXPONENT), so
    a Laurent sum that cancels its other terms packs a term at the limit."""
    grade = [0, 1, 2, MAX_EXPONENT]
    exps = st.sampled_from(grade if draw(st.booleans()) else grade + [
        F(1, 2), -1, -MAX_EXPONENT, MAX_EXPONENT - F(1, 2), F(1, MAX_EXPONENT)])
    pool = draw(st.lists(st.tuples(exps, exps), min_size=2, max_size=4, unique=True))
    coeff = st.sampled_from([F(1), F(-1), F(2), F(1, 2)])
    return [(PolyExpr(("x1", "x2"), draw(st.dictionaries(st.sampled_from(pool), coeff,
                                                         max_size=3))),
             draw(st.sampled_from([1, -1]))) for _ in range(draw(st.integers(1, 6)))]


@examples(300)
@given(signed_values())
def test_one_pass_sum_matches_pairwise_sums(items):
    variables = ("x1", "x2")

    def result(f):
        try:
            return canonical(f())
        except DomainError as e:
            return str(e)
    one_pass = result(lambda: poly._sum(variables, items))
    assert one_pass == result(lambda: reduce(
        lambda acc, vs: poly._sum(variables, [(acc, 1), vs]), items,
        PolyExpr.zero(variables)))
    # term order, on its own: Fractions added in order into one dict
    expected = {}
    for value, sign in items:
        for m, c in value.terms.items():
            total = expected.get(m, 0) + sign * c
            if total:
                expected[m] = total
            else:
                del expected[m]
    if not isinstance(one_pass, str):
        assert list(poly._sum(variables, items).terms.items()) == list(expected.items())
