"""Synthetic Jacobian structures for scale tests and timings.

``model_text(n)`` is a model in ``n`` variables whose bracket is the
Jacobian structure of ``n - 2`` quadrics with multiplier 1.  Each quadric
has 4 monomials drawn by ``random.Random(1).sample`` from the degree-2
monomials in ``combinations_with_replacement`` order, with coefficients
``randint(-9, 9) or 1``; one generator serves all quadrics, drawing each
quadric's support before its coefficients.  At that seed the largest
bracket entry has 43, 90 and 310 terms at n = 6, 7 and 8; other seeds give
other structures of the same shape.

``perturbed_model_text(n)`` is the same structure written as an explicit
bracket table with ``x1*x2`` added to {x1,x2}, the Casimirs still declared:
it is not Poisson and the declared Casimirs are not central.  At seed 1 its
first failing jacobiator is on (x1,x2,x3) for n = 6, 7 and 8.

``table_model_text(n)`` is the synthetic bracket as an explicit table with
no Casimirs declared, checked for ``jacobi, plucker, rank``: nothing
certifies it, so the pivot reduction decides it.  Building either needs
``ppa`` importable.

``degree14_model_text(n)`` is the table {x1,x2} = 1, {x3,x4} = (3x5 + 1)
(3x5 - 1) ... (3x5 + 7)(3x5 - 7) in n >= 5 variables, checked for
``jacobi, plucker, rank``: Poisson of rank 4, with a Pfaffian of degree 14
that vanishes at every x5 in {+-1/3, +-2/3, ..., +-7/3}, so a rank read off
points of that grid would say 2.

``sl3_model_text()`` is the Lie-Poisson structure on sl(3)*, n = 8, on the
coordinates e_ij (i != j), h1 and h2 dual to E_ij, H1 = E_11 - E_22 and
H2 = E_22 - E_33: {x_a, x_b} is the coordinate of [X_a, X_b].  It declares
the Casimirs tr Z^2 and tr Z^3 of Z = sum_ij e_ij E_ij + diag(z1, z2, z3),
z = ((2h1 + h2)/3, (h2 - h1)/3, -(h1 + 2h2)/3), the traceless point of
sl(3) that the trace form pairs with the coordinates.  Its rank is 6 = n - l,
and theorem31 holds with m = 3; the degree sum is 5 = (n + l)/2.

Run ``python tests/synthetic.py N`` to print the model for N variables,
``python tests/synthetic.py N --perturbed`` for the perturbed one,
``python tests/synthetic.py N --table`` for the table without Casimirs,
``python tests/synthetic.py N --degree14`` for the degree-14 table and
``python tests/synthetic.py 8 --sl3`` for sl(3)*.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations, combinations_with_replacement

CHECKS = "jacobi, casimirs, theorem31, plucker, rank"


def quadrics(n: int, seed: int = 1) -> list:
    """``n - 2`` quadrics as lists of ((i, j), coefficient), i <= j."""
    monomials = list(combinations_with_replacement(range(n), 2))
    rng = random.Random(seed)
    return [[(m, rng.randint(-9, 9) or 1) for m in rng.sample(monomials, 4)]
            for _ in range(n - 2)]


def model_text(n: int, seed: int = 1) -> str:
    lines = ["vars " + " ".join(f"x{i + 1}" for i in range(n)) + ";"]
    for k, q in enumerate(quadrics(n, seed)):
        terms = " + ".join(f"({c})*x{i + 1}*x{j + 1}" for (i, j), c in q)
        lines.append(f"casimir Q{k + 1} = {terms};")
    lines += ["structure jacobian lambda 1;", f"check {CHECKS};"]
    return "\n".join(lines) + "\n"


def _table_spec(n: int, seed: int):
    """``model_text(n, seed)`` parsed, with its bracket written as a table."""
    from ppa import dsl

    spec = dsl.parse_model(model_text(n, seed))
    spec.table = {ij: p for ij, p in spec.build_structure().entries_upper()
                  if not p.is_zero()}
    spec.structure_kind, spec.multiplier = "table", None
    return spec


def perturbed_model_text(n: int, seed: int = 1) -> str:
    from ppa import dsl
    from ppa.poly import PolyExpr

    spec = _table_spec(n, seed)
    x1, x2 = PolyExpr.gens(spec.vars)[:2]
    spec.table[0, 1] = spec.table.get((0, 1), PolyExpr.zero(spec.vars)) + x1 * x2
    return dsl.render_model(spec)


def table_model_text(n: int, seed: int = 1) -> str:
    from ppa import dsl

    spec = _table_spec(n, seed)
    spec.casimirs = []
    spec.checks = [("jacobi", None), ("plucker", None), ("rank", None)]
    return dsl.render_model(spec)


def degree14_model_text(n: int = 5) -> str:
    factors = " * ".join(f"(3*x5 {s} {i})" for i in range(1, 8) for s in "+-")
    return "\n".join(["vars " + " ".join(f"x{i + 1}" for i in range(n)) + ";",
                      f"structure table {{ {{x1,x2}} = 1; {{x3,x4}} = {factors}; }};",
                      "check jacobi, plucker, rank;"]) + "\n"


def sl3_model_text(n: int = 8) -> str:
    if n != 8:
        raise ValueError("sl(3)* has 8 coordinates")
    basis = {f"e{i}{j}": {(i, j): 1} for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    basis.update(h1={(1, 1): 1, (2, 2): -1}, h2={(2, 2): 1, (3, 3): -1})
    names = list(basis)

    def bracket(a, b):
        """[A, B] of two matrices {(i, j): entry}, in the coordinates: a
        traceless diag(d1, d2, d3) is d1 H1 - d3 H2."""
        c = {}
        for (i, j), x in a.items():
            for (k, l), y in b.items():
                if j == k:
                    c[i, l] = c.get((i, l), 0) + x * y
                if l == i:
                    c[k, j] = c.get((k, j), 0) - x * y
        coords = {f"e{i}{j}": v for (i, j), v in c.items() if i != j}
        coords.update(h1=c.get((1, 1), 0), h2=-c.get((3, 3), 0))
        return " + ".join(f"({v})*{name}" for name, v in coords.items() if v)

    pairs = " ".join(f"{{{a},{b}}} = {expr};" for a, b in combinations(names, 2)
                     if (expr := bracket(basis[a], basis[b])))
    return "\n".join([
        "vars " + " ".join(names) + ";",
        "let z1 = (1/3)*(2*h1 + h2);", "let z2 = (1/3)*(h2 - h1);",
        "let z3 = (-1/3)*(h1 + 2*h2);",
        "let s1 = e12*e21 + e13*e31;", "let s2 = e12*e21 + e23*e32;",
        "let s3 = e13*e31 + e23*e32;",
        "casimir C2 = z1^2 + z2^2 + z3^2 + s1 + s2 + s3;",
        "casimir C3 = z1^3 + z2^3 + z3^3 + 3*(z1*s1 + z2*s2 + z3*s3)"
        " + 3*(e12*e23*e31 + e13*e32*e21);",
        f"structure table {{ {pairs} }};",
        f"check {CHECKS}, degree_sum;"]) + "\n"


if __name__ == "__main__":
    texts = {"--perturbed": perturbed_model_text, "--table": table_model_text,
             "--degree14": degree14_model_text, "--sl3": sl3_model_text}
    sys.stdout.write(texts.get(" ".join(sys.argv[2:]), model_text)(int(sys.argv[1])))
