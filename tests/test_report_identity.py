"""Byte-identity guard over the whole catalog.

The digest covers the ``run_checks`` JSON of every catalog entry, at its
defaults and at each alternate binding, for seeds 0 and 1, each model going
through ``render_model`` and ``parse_model`` as ``ppa check`` would see it.
It was recorded with the Fraction-coefficient polynomial kernel, before the
integer-numerator one: a change to any verdict, constant, witness or rendered
residual moves it.  Reports are exact, so the digest does not depend on the
platform.  ``CheckReport.to_json`` writes its schema directly; its bytes are
those of ``json.dumps(obj, indent=2)`` for any text in a name or witness.
"""

import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ppa import catalog, dsl, runner
from ppa.dynamics import hamiltonian_vector_field, integrate, write_trajectory_csv

CATALOG_REPORT_SHA256 = "82b1dc6f89bfefdf5376ef8bc252ce06301fb09b33b08508d3dc51c2285f1a25"


def test_catalog_reports_byte_identical():
    digest = hashlib.sha256()
    for name in catalog.names():
        for bindings in [None] + list(catalog.entry(name).alternates):
            built = catalog.build(name, bindings)
            text = dsl.render_model(dsl.model_spec_from_built(built))
            spec = dsl.parse_model(text, name=name)
            for seed in (0, 1):
                digest.update(runner.run_checks(spec, seed=seed).to_json().encode())
    assert digest.hexdigest() == CATALOG_REPORT_SHA256


def test_nambu_fi_reports_do_not_depend_on_the_count_or_the_seed():
    """An n-ary ``fi`` passes by the Nambu construction: on the fairlie and
    dell_nambu emissions, ``fi(0)``, ``fi(7)`` and ``fi(100)`` give the same
    result, and the report bytes at seeds 0, 1 and 9 differ only in the
    seed field."""
    for name in ("fairlie", "dell_nambu"):
        for bindings in [None] + list(catalog.entry(name).alternates):
            text = dsl.render_model(dsl.model_spec_from_built(catalog.build(name, bindings)))
            text, found = re.subn(r"^check .*;$", "check fi(0), fi(7), fi(100);",
                                  text, flags=re.M)
            assert found == 1
            spec = dsl.parse_model(text, name=name)
            reports = set()
            for seed in (0, 1, 9):
                report = runner.run_checks(spec, seed=seed)
                assert [r.as_json_obj() for r in report.results] == [
                    {"name": f"fi({count})", "status": "pass", "millis": 0}
                    for count in (0, 7, 100)]
                js = report.to_json()
                reports.add(js.replace(f'\n  "seed": {seed},\n', '\n  "seed": 0,\n', 1))
            assert len(reports) == 1, (name, bindings)


# sha256 over the canonical text of the 39 distinct catalog emissions
# (entries in name order, each at its defaults and then at its alternates),
# as ``ppa catalog NAME --emit`` writes them.  It moved from 575a1761...7f1f
# only when dell's first alternate (kt = 2) got the window ``until 0.1``.
CATALOG_EMISSION_SHA256 = "8af21f368f74c01d45dc16f809ce588d38961efd6c72a4773e67fe4c63640139"


def test_catalog_emissions_byte_identical():
    digest = hashlib.sha256()
    texts = set()
    for name in catalog.names():
        for bindings in [None] + list(catalog.entry(name).alternates):
            built = catalog.build(name, bindings)
            text = dsl.render_model(dsl.model_spec_from_built(built))
            digest.update(text.encode())
            texts.add(text)
    assert len(texts) == 39
    assert digest.hexdigest() == CATALOG_EMISSION_SHA256


# sha256 of the trajectory CSV of every integrate request of euler_top and
# dell (defaults, then alternates), each model through ``render_model`` and
# ``parse_model`` and integrated over its whole window.  The values are
# floats written with 17 significant digits: they pin the integrator's
# arithmetic bit for bit, for float ``**`` as the C library's ``pow``
# computes it (glibc on Linux).  euler_top's second alternate lowers each J
# by 2, which changes H by the Casimir -2*Q1: the field, and so the CSV, are
# the default's.
CATALOG_INTEGRATE_CSV_SHA256 = {
    "euler_top": [
        "4a854af028aa1772af07b0529520d5b1de355841fc90c7427615822bb146e9d9",
        "992ed150b774631603325d249cf6aaff01eff6dbd1837d8f46346f0b28dd6626",
        "4a854af028aa1772af07b0529520d5b1de355841fc90c7427615822bb146e9d9",
    ],
    "dell": [
        "9125d5bae92df7e9c6e705469ee55c766310c30db33d4871a8de41e7e02943a2",
        "79798b6981f2aac7dad61ded94de87c0986aa50b62472f863118c4a115bf4f3c",
        "4317f2b3b3ff97b2daeacc381a7331f348df26b763e9f23039ca50ecd1074c5c",
    ],
}


def test_catalog_integrate_csv_byte_identical(tmp_path):
    path = tmp_path / "traj.csv"
    for name, digests in CATALOG_INTEGRATE_CSV_SHA256.items():
        found = []
        for bindings in [None] + list(catalog.entry(name).alternates):
            built = catalog.build(name, bindings)
            spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)),
                                   name=name)
            req = spec.integrate
            field = hamiltonian_vector_field(spec.build_structure(),
                                             spec.hamiltonians[0])
            monitors = [(m, spec.named_poly(m)) for m in req.monitors]
            report = integrate(field, req.x0, req.step, req.t_end, monitors)
            write_trajectory_csv(report, spec.vars, monitors, path)
            found.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert found == digests, name


def _dumped(report):
    obj = {"model": report.model, "seed": report.seed,
           "checks": [r.as_json_obj() for r in report.results]}
    return json.dumps(obj, indent=2) + "\n"


TRICKY = ["", "q5", "mé", 'a "quoted" name', "back\\slash", "two\nlines",
          "tab\there", "☃ \U0001F600", "\ud800", "\x00\x1f\x7f"]


@pytest.mark.parametrize("text", TRICKY)
def test_report_json_is_json_dumps(text):
    # the report is written straight from its schema; json.dumps with
    # indent=2 is the reference, byte for byte
    empty = runner.CheckReport(text, 7)
    assert empty.to_json() == _dumped(empty)
    report = runner.CheckReport(text, -1, [
        runner.CheckResult("jacobi", "pass"),
        runner.CheckResult("rank", "info", witness=text),
        runner.CheckResult("theorem31", "fail", lam=text, witness="w", millis=12)])
    assert report.to_json() == _dumped(report)


@settings(max_examples=200, deadline=None)
@given(st.text(), st.integers(), st.lists(st.tuples(
    st.text(), st.sampled_from(["pass", "fail", "skipped", "info"]),
    st.none() | st.text(), st.none() | st.text(), st.integers(0, 10 ** 6)), max_size=4))
def test_report_json_is_json_dumps_on_any_text(model, seed, results):
    report = runner.CheckReport(model, seed, [runner.CheckResult(*r) for r in results])
    assert report.to_json() == _dumped(report)
