"""The Lie-Poisson structure on sl(3)*, the paper's rank > 2 class at n = 8.

``synthetic.sl3_model_text()`` declares the Casimirs tr Z^2 and tr Z^3, so
l = 2, the rank is n - l = 6 and theorem31 compares 6x6 Pfaffians (m = 3)
with the dual of dQ_1 ^ dQ_2.  Here every check of the model is pinned, and
theorem31's report is the one ``oracles.duality_check_by_wedges`` computes
from the cube of the bivector.
"""

from fractions import Fraction as F

import synthetic
from oracles import duality_check_by_wedges
from ppa import dsl, runner
from ppa.duality import duality_check


def test_sl3_checks():
    report = runner.run_checks(dsl.parse_model(synthetic.sl3_model_text()))
    assert [(r.name, r.status, r.lam, r.witness) for r in report.results] == [
        ("jacobi", "pass", None, None),
        ("casimirs", "pass", None, None),
        ("theorem31", "pass", "-1/2", None),
        ("plucker", "info", None, "plucker = false (e12,e13,e21,e23)"),
        ("rank", "info", None, "rank = 6"),
        ("degree_sum", "info", None, "sum = 5, weights sum = 8, equal = false")]
    assert not report.failed


def test_sl3_theorem31_is_the_wedge_report():
    spec = dsl.parse_model(synthetic.sl3_model_text())
    qs = spec.casimir_polys()
    built = duality_check(spec.build_structure(), qs)
    wedges = duality_check_by_wedges(spec.build_structure(), qs)
    assert (built.holds, built.lam, built.lam_coord, built.m) == (True, -3, F(-1, 2), 3)
    assert (wedges.holds, wedges.lam, wedges.lam_coord, wedges.m, wedges.residual) == \
        (built.holds, built.lam, built.lam_coord, built.m, built.residual)
