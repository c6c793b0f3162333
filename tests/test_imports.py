"""Import hygiene: no module-level import that its module never uses, and
no name in ``squeezed_lasing.__all__`` that the package does not define.

No linter runs on this project, so this test is what stops a deletion
from leaving a dead import or a stale export behind.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def _loaded_after(code: str) -> str:
    """The scipy.integrate, scipy.optimize and scipy.sparse.csgraph
    modules loaded after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code += ("; import sys; print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy.integrate', 'scipy.optimize', "
             "'scipy.sparse.csgraph'))))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate (which loads scipy.optimize) serves only the
    # mean-field trajectory and the evolve oracle of the steady state, and
    # scipy.sparse.csgraph only the direct steady-state solve, so each is
    # imported inside its callers, not with the package
    assert _loaded_after("import squeezed_lasing.cli") == "[]"


def test_rwa_validate_runs_without_scipy_integrate(tmp_path):
    # the Schroedinger evolution is the package's own Dormand-Prince loop
    out = tmp_path / "o"
    code = ("from squeezed_lasing.cli import main; "
            f"assert main(['rwa_validate', '--out', {str(out)!r}, "
            "'--set', 'numerics.field_dim=6', "
            "'--set', 'params.gt_max=0.2']) == 0")
    assert _loaded_after(code) == "[]"
    assert (out / "manifest.json").exists()
