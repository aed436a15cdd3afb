"""Byte-identity guard over the whole catalog.

The digest covers the ``run_checks`` JSON of every catalog entry, at its
defaults and at each alternate binding, for seeds 0 and 1, each model going
through ``render_model`` and ``parse_model`` as ``ppa check`` would see it.
It was recorded with the Fraction-coefficient polynomial kernel, before the
integer-numerator one: a change to any verdict, constant, witness or rendered
residual moves it.  Reports are exact, so the digest does not depend on the
platform.
"""

import hashlib

from ppa import catalog, dsl, runner

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
