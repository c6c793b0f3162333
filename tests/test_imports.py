"""Import hygiene: no module-level import that its module never uses, no
name in ``squeezed_lasing.__all__`` that the package does not define, and
no module-level private helper that nothing in the package refers to;
neither importing the CLI nor running any scenario needs scipy, which
only the tests use, and the package imports it only in the tests' oracle
``lindblad.liouvillian_matrix``; and no steady-state run loads numpy.ma.

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


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def _oracle_scopes(tree: ast.Module) -> list[ast.stmt]:
    """lindblad's ``liouvillian_matrix`` and its ``TYPE_CHECKING`` block:
    the places where the package may import scipy."""
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name == "liouvillian_matrix"
            or isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"]


def test_scipy_is_imported_only_for_the_tests_oracle():
    allowed, stray = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        if path == PACKAGE / "lindblad.py":
            inside = {id(node) for scope in _oracle_scopes(tree)
                      for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if _imports_scipy(node):
                if id(node) in inside:
                    allowed += 1
                else:
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == [], f"scipy imported outside liouvillian_matrix: {stray}"
    # the check sees the imports that it lets stand
    assert allowed == 2


# a finder ahead of every other that refuses scipy and its submodules, so
# that any import of scipy fails as it would where scipy is not installed
_NO_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, _NoScipy())
"""


def _run_without_scipy(code: str) -> None:
    """Run ``code`` in a fresh interpreter where ``import scipy`` fails,
    and assert that it succeeds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY + code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _run_code(scenario: str, out: Path, *settings: str) -> str:
    argv = [scenario, "--out", str(out)]
    for item in settings:
        argv += ["--set", item]
    return f"from squeezed_lasing.cli import main; assert main({argv!r}) == 0"


def test_cli_import_leaves_scipy_subpackages_out():
    # the package imports no scipy: only the tests and
    # ``lindblad.liouvillian_matrix``, which they call, need it
    _run_without_scipy("import squeezed_lasing.cli")


@pytest.mark.parametrize("scenario, settings", [
    # the Bessel weights are the package's own, and the Schroedinger
    # evolution is its own Dormand-Prince loop
    ("rwa_validate", ["numerics.field_dim=6", "params.gt_max=0.2"]),
    ("dress_audit", []),
], ids=["rwa_validate", "dress_audit"])
def test_drive_scenarios_run_on_numpy_alone(tmp_path, scenario, settings):
    out = tmp_path / "o"
    _run_without_scipy(_run_code(scenario, out, *settings))
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
    # the steady states are the package's own multifrontal solve, so a
    # run needs no scipy
    _run_without_scipy(_run_code(scenario, tmp_path / "o", *settings))


def test_steady_state_runs_leave_numpy_ma_unloaded(tmp_path):
    # numpy 2.4's np.unique without index outputs imports numpy.ma (for
    # np.ma.is_masked) on its first call: 5.7 ms and 1.2 MB that no
    # steady-state run needs
    runs = "\n".join(_run_code(scenario, tmp_path / scenario)
                     for scenario in ("squeezed_laser", "two_qubit_full",
                                      "wigner_panels"))
    _run_without_scipy(runs + "\nassert 'numpy.ma' not in sys.modules, "
                       "'numpy.ma was loaded'")
