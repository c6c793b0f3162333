"""Import hygiene: no module-level import that its module never uses, no
name in ``squeezed_lasing.__all__`` that the package does not define, and
no module-level private helper that nothing in the package refers to.

No linter runs on this project, so this test is what stops a deletion
from leaving a dead import, a stale export or a dead helper behind.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squeezed_lasing

PACKAGE = Path(squeezed_lasing.__file__).resolve().parent


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    # ``import a.b`` binds ``a``; ``as`` binds the alias
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _dead_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            dead += [f"{path.name}:{node.lineno} {name}"
                     for name in _bound_names(node) if name not in used]
    return dead


def test_no_dead_imports_or_stale_exports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = [entry for path in modules for entry in _dead_imports(path)]
    assert dead == [], f"module-level imports never used: {dead}"
    stale = [name for name in squeezed_lasing.__all__
             if not hasattr(squeezed_lasing, name)]
    assert stale == [], f"__all__ names the package does not define: {stale}"


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private functions, classes and constants a module defines at
    its top level; dunder names are not private."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names += [n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _references(tree: ast.Module) -> list[str]:
    """Every name the module reads: bare names, attributes and imports."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs += [alias.name for alias in node.names]
    return refs


def test_every_private_helper_is_used():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module} {name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in used]
    assert dead == [], f"private helpers nothing refers to: {dead}"


# the scipy subpackages a run loads only where it solves with them
_WATCHED = ("scipy.integrate", "scipy.linalg", "scipy.optimize",
            "scipy.sparse", "scipy.special")


def _loaded_after(code: str) -> list[str]:
    """The packages of ``_WATCHED`` that have a module loaded after running
    ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code += ("; import sys; print(' '.join(sorted({w for w in "
             f"{_WATCHED!r} for m in sys.modules "
             "if m == w or m.startswith(w + '.')})))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def _run_code(scenario: str, out: Path, *settings: str) -> str:
    argv = [scenario, "--out", str(out)]
    for item in settings:
        argv += ["--set", item]
    return f"from squeezed_lasing.cli import main; assert main({argv!r}) == 0"


def test_cli_import_leaves_scipy_subpackages_out():
    # each scipy subpackage is imported inside the functions that solve
    # with it, not with the package
    assert _loaded_after("import squeezed_lasing.cli") == []


@pytest.mark.parametrize("scenario, settings", [
    # the Bessel weights are the package's own, and the Schroedinger
    # evolution is its own Dormand-Prince loop
    ("rwa_validate", ["numerics.field_dim=6", "params.gt_max=0.2"]),
    ("dress_audit", []),
], ids=["rwa_validate", "dress_audit"])
def test_drive_scenarios_run_on_numpy_alone(tmp_path, scenario, settings):
    out = tmp_path / "o"
    assert _loaded_after(_run_code(scenario, out, *settings)) == []
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("scenario, settings", [
    ("single_laser", ["numerics.field_dim=6"]),
    # the Wigner kernel's own f_0 needs no scipy.special
    ("wigner_panels", ["numerics.field_dim=16", "numerics.grid_points=25"]),
    # the ansatz's unitaries come from eigh, not scipy.linalg.expm
    ("squeezed_laser", ["numerics.field_dim=8"]),
    ("two_qubit_full", ["numerics.field_dim=6"]),
    ("fidelity_sweep", ["numerics.field_dim=8", "params.include_full=1"]),
    ("mf_compare", ["numerics.field_dim=8"]),
], ids=["single_laser", "wigner_panels", "squeezed_laser", "two_qubit_full",
        "fidelity_sweep", "mf_compare"])
def test_steady_state_scenarios_load_what_they_solve_with(
        tmp_path, scenario, settings):
    # the steady states are the package's own multifrontal solve, so the
    # probe above sees no scipy subpackage
    assert _loaded_after(_run_code(scenario, tmp_path / "o", *settings)) == []
