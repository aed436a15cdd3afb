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
first failing jacobiator is on (x1,x2,x3) for n = 6, 7 and 8.  Building it
needs ``ppa`` importable.

Run ``python tests/synthetic.py N`` to print the model for N variables, and
``python tests/synthetic.py N --perturbed`` for the perturbed one.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations_with_replacement

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


def perturbed_model_text(n: int, seed: int = 1) -> str:
    from ppa import dsl
    from ppa.poly import PolyExpr

    spec = dsl.parse_model(model_text(n, seed))
    table = {ij: p for ij, p in spec.build_structure().entries_upper()
             if not p.is_zero()}
    x1, x2 = PolyExpr.gens(spec.vars)[:2]
    table[0, 1] = table.get((0, 1), PolyExpr.zero(spec.vars)) + x1 * x2
    spec.structure_kind, spec.table, spec.multiplier = "table", table, None
    return dsl.render_model(spec)


if __name__ == "__main__":
    text = perturbed_model_text if sys.argv[2:] == ["--perturbed"] else model_text
    sys.stdout.write(text(int(sys.argv[1])))
