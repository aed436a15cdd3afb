"""Command-line interface.

Subcommands: check, integrate, catalog, transport.  Exit codes: 0 when no
requested check fails, 1 on check failure or divergence, 2 on usage, parse,
or model errors, and 2 on any other exception, which is reported as an
internal error so that it never reads as a failed check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog as _catalog
from . import dsl
from .dynamics import (
    hamiltonian_vector_field,
    integrate as _integrate,
    nambu_vector_field,
    write_trajectory_csv,
)
from .errors import DivergenceError, ModelSyntaxError, PpaError
from .geometry import transport_bracket
from .poly import substitute
from .runner import run_checks
from .structures import PoissonStructure


def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="ppa",
        description="Verifier for polynomial Poisson and Nambu bracket models")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the checks requested by a model file")
    p_check.add_argument("file")
    p_check.add_argument("--json", metavar="OUT", help="write a JSON report")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed of the argument tuples of an n-ary fi(N)")

    p_int = sub.add_parser("integrate", help="integrate the model flow, write CSV")
    p_int.add_argument("file")
    p_int.add_argument("--out", required=True, metavar="CSV")

    p_cat = sub.add_parser("catalog", help="emit a named model as a DSL file")
    p_cat.add_argument("name", nargs="?")
    p_cat.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE")
    p_cat.add_argument("--emit", metavar="FILE")
    p_cat.add_argument("--list", action="store_true")

    p_tr = sub.add_parser("transport",
                          help="push the model bracket through a monomial map")
    p_tr.add_argument("file")
    p_tr.add_argument("--map", required=True, dest="mapfile")
    p_tr.add_argument("--emit", metavar="FILE")
    return ap


def main(argv=None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "integrate":
            return _cmd_integrate(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "transport":
            return _cmd_transport(args)
        return 2
    except ModelSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (PpaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


def _load_model(path: str) -> dsl.ModelSpec:
    text = Path(path).read_text(encoding="utf-8")
    return dsl.parse_model(text, name=Path(path).stem)


def _cmd_check(args) -> int:
    spec = _load_model(args.file)
    report = run_checks(spec, seed=args.seed)
    sys.stdout.write(report.format_text())
    if args.json:
        Path(args.json).write_text(report.to_json(), encoding="utf-8")
    return 1 if report.failed else 0


def _cmd_integrate(args) -> int:
    spec = _load_model(args.file)
    if spec.integrate is None:
        print("error: model has no integrate statement", file=sys.stderr)
        return 2
    structure = spec.build_structure()
    if isinstance(structure, PoissonStructure):
        if len(spec.hamiltonians) != 1:
            print("error: Poisson flow needs exactly one Hamiltonian",
                  file=sys.stderr)
            return 2
        fieldobj = hamiltonian_vector_field(structure, spec.hamiltonians[0])
    else:
        fieldobj = nambu_vector_field(structure, spec.hamiltonians)
    monitors = [(m, spec.named_poly(m)) for m in spec.integrate.monitors]
    try:
        traj = _integrate(fieldobj, spec.integrate.x0, spec.integrate.step,
                          spec.integrate.t_end, monitors)
    except DivergenceError as e:
        print(f"divergence: {e} (last valid t = {e.last_valid_time})",
              file=sys.stderr)
        return 1
    write_trajectory_csv(traj, spec.vars, monitors, args.out)
    for nm in traj.monitor_names:
        print(f"drift {nm}: {traj.drift[nm]:.3e}")
    print(f"wrote {args.out} ({len(traj.times)} rows)")
    return 0


def _cmd_catalog(args) -> int:
    if args.list or not args.name:
        for nm in _catalog.names():
            print(f"{nm}: {_catalog.entry(nm).summary}")
        return 0
    bindings = {}
    for kv in args.param:
        if "=" not in kv:
            print(f"error: bad --param {kv!r}, need NAME=VALUE", file=sys.stderr)
            return 2
        k, v = kv.split("=", 1)
        bindings[k.strip()] = dsl.parse_rational(v)
    built = _catalog.build(args.name, bindings)
    text = dsl.render_model(dsl.model_spec_from_built(built))
    if args.emit:
        Path(args.emit).write_text(text, encoding="utf-8")
        print(f"wrote {args.emit}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_transport(args) -> int:
    spec = _load_model(args.file)
    structure = spec.build_structure()
    if not isinstance(structure, PoissonStructure):
        print("error: transport needs a Poisson structure", file=sys.stderr)
        return 2
    map_text = Path(args.mapfile).read_text(encoding="utf-8")
    mmap = dsl.parse_map_file(map_text, spec.vars)
    result = transport_bracket(structure, mmap)
    print(f"polynomial_grade: {'true' if result.polynomial_grade else 'false'}")
    for i in range(len(result.new_vars)):
        for j in range(i + 1, len(result.new_vars)):
            print(f"{{{result.new_vars[i]},{result.new_vars[j]}}} = "
                  f"{result.entries[i][j].render()}")
    new_casimirs = [(nm, substitute(p, mmap)) for nm, p in spec.casimirs]
    for nm, p in new_casimirs:
        grade = "" if p.is_polynomial_grade() else "   # fractional exponents"
        print(f"casimir {nm} -> {p.render()}{grade}")
    if args.emit:
        if not result.polynomial_grade:
            print("error: cannot emit a model with fractional exponents",
                  file=sys.stderr)
            return 1
        out = dsl.ModelSpec(name=Path(args.emit).stem)
        out.vars = result.new_vars
        out.casimirs = [(nm, p) for nm, p in new_casimirs
                        if p.is_polynomial_grade()]
        out.structure_kind = "table"
        out.table = {(i, j): result.entries[i][j]
                     for i in range(len(out.vars))
                     for j in range(i + 1, len(out.vars))
                     if not result.entries[i][j].is_zero()}
        out.checks = [("jacobi", None), ("casimirs", None)]
        Path(args.emit).write_text(dsl.render_model(out), encoding="utf-8")
        print(f"wrote {args.emit}")
    return 0


if __name__ == "__main__":
    main_entry()
