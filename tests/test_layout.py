"""Guards on the package layout: the README lists exactly the checks of the
check table, the catalog sits above the DSL and the runner, every method
the benchmark tracer wraps exists, and every definition of the package is
reached."""

import ast
import importlib
import re
from pathlib import Path

from ppa.poly import MonomialMap, PolyExpr
from ppa.runner import CHECKS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ppa"


def test_readme_check_bullet_names_the_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- `check` name.*?(?=^- )", readme, re.M | re.S).group()
    listed = re.findall(r"`(\w+)(\(\w+\))?`", bullet.split("with names", 1)[1])
    assert [name for name, _ in listed] == list(CHECKS)
    assert {name: bool(arg) for name, arg in listed} == \
        {name: check.arg is not None for name, check in CHECKS.items()}


def _package_imports(path):
    """Modules of the package that ``path`` imports anywhere in its body."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module
                       else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            out.update(n.split(".")[1] for n in names
                       if n and n.startswith("ppa."))
    return out


def test_only_the_cli_and_the_package_import_catalog():
    importers = {p.name for p in PACKAGE.glob("*.py")
                 if "catalog" in _package_imports(p)}
    assert importers == {"cli.py", "__init__.py"}


def test_module_imports_are_acyclic():
    graph = {p.stem: _package_imports(p) - {p.stem}
             for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    done = set()

    def visit(mod, path):
        assert mod not in path, " -> ".join(path + [mod])
        if mod in done:
            return
        for dep in graph.get(mod, ()):
            visit(dep, path + [mod])
        done.add(mod)

    for mod in graph:
        visit(mod, [])


def _tracer_tables():
    """The method tables of ``bench/tracer.py``, read as literals: the file is
    parsed, never imported."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("POLY_METHODS", "MAP_METHODS", "SPAN_METHODS")}


def test_every_method_the_tracer_wraps_exists():
    # the tracer reads each name from the class __dict__: a deleted method
    # would raise KeyError in the traced benchmark run
    tables = _tracer_tables()
    assert set(tables) == {"POLY_METHODS", "MAP_METHODS", "SPAN_METHODS"}
    wrapped = [(PolyExpr, attr) for attr in tables["POLY_METHODS"]]
    wrapped += [(MonomialMap, attr) for attr in tables["MAP_METHODS"]]
    wrapped += [(getattr(importlib.import_module(f"ppa.{layer}"), cls), attr)
                for layer, cls, attr in tables["SPAN_METHODS"]]
    missing = [f"{cls.__name__}.{attr}" for cls, attr in wrapped
               if attr not in cls.__dict__]
    assert not missing


# Reached by no other place in the package, and kept: the production
# expression parser, which tests call, and the reason text of a theorem31
# report, which oracle comparisons read.
KEPT = {"parse_polynomial", "DualityReport.detail"}


def test_every_definition_is_reached():
    """Every top-level function or class and every public method of a
    top-level class is named somewhere else in the package, exported by
    ``ppa/__init__``, wrapped by the benchmark tracer or in ``KEPT``.  The
    scan is by name: a method counts as reached when any attribute of that
    name is read outside its own body."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    names = [(p, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for p, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    exported = {alias.name for node in ast.walk(trees[PACKAGE / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    tables = _tracer_tables()
    pinned = {f"PolyExpr.{attr}" for attr in tables["POLY_METHODS"]}
    pinned |= {f"MonomialMap.{attr}" for attr in tables["MAP_METHODS"]}
    pinned |= {f"{cls}.{attr}" for _, cls, attr in tables["SPAN_METHODS"]}
    defined = []
    for p, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((p, node, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(p, m, f"{node.name}.{m.name}") for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]

    def reached(p, node):
        return any(name == node.name
                   and not (at == p and node.lineno <= line <= node.end_lineno)
                   for at, line, name in names)

    unreached = [f"{p.stem}.{qualified}" for p, node, qualified in defined
                 if qualified not in exported | pinned | KEPT and not reached(p, node)]
    assert not unreached
