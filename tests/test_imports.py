"""Import hygiene: no module-level import that its module never uses, no
name in ``squeezed_lasing.__all__`` that the package does not define,
no module-level private helper that nothing in the package refers to,
and no function, class or method that only the tests reach; README's
library quick start runs as written on the exported names; neither
importing the CLI nor running any scenario needs scipy, which only the
tests use, and the package imports it only in the tests' oracle
``lindblad.liouvillian_matrix``; and no steady-state run loads numpy.ma.

No linter runs on this project, so this test is what stops a deletion
from leaving a dead import, a stale export or a dead helper behind, and
what keeps the tests' references in ``tests/``.
"""

import ast
import os
import re
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


# Never called by the package, but wrapped by name by the benchmark's
# tracer (perfbench/tracing.py), so they stay until the tracer goes:
# ROADMAP items 10 (per-point records from inside the program) and 2 (the
# benchmark change that deletes the tracer).
_TRACER_PINNED = {"fock.matrix_exponential", "lindblad.liouvillian_matrix"}

_SCOPES = (ast.FunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
# a string naming an attribute path, such as a table column's "mf.D"
_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _locals(scope: ast.FunctionDef | ast.Lambda) -> set[str]:
    """The names a function binds: its parameters and every name its body
    assigns, imports or defines, not counting the scopes nested in it."""
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    todo = list(scope.body) if isinstance(scope, ast.FunctionDef) else []
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, _COMPREHENSIONS + (ast.Lambda,)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _names_read(node: ast.AST, hidden: frozenset = frozenset()):
    """Every name ``node`` may reach a definition by: bare names that no
    enclosing function binds itself, attribute names, and each part of an
    attribute path written as a string (``attrgetter``'s columns)."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in hidden:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
          and _PATH.fullmatch(node.value)):
        yield from node.value.split(".")
    if isinstance(node, _SCOPES):
        hidden = hidden | _locals(node)
    elif isinstance(node, _COMPREHENSIONS):
        hidden = hidden | {n.id for gen in node.generators
                           for n in ast.walk(gen.target)
                           if isinstance(n, ast.Name)}
    for child in ast.iter_child_nodes(node):
        yield from _names_read(child, hidden)


def _definitions(module: str, tree: ast.Module):
    """(key, name, nodes) for the module's top-level code (key None), each
    top-level function and class, and each method not named like a dunder;
    a class's nodes are its body apart from those methods."""
    yield None, None, [node for node in tree.body
                       if not isinstance(node, (ast.FunctionDef,
                                                ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, [node]
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.endswith("__")]
            for item in methods:
                yield f"{module}.{node.name}.{item.name}", item.name, [item]
            rest = [item for item in node.body if item not in methods]
            yield (f"{module}.{node.name}", node.name,
                   node.bases + node.decorator_list + rest)


def test_every_definition_is_reached_from_the_package():
    # A definition is reached when code outside any definition, or inside
    # one already reached, names it; ``__init__``'s re-exports and the
    # definition's own body do not count, so what only tests call, or
    # only such code calls, is listed
    pending, reached = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for key, name, nodes in _definitions(path.stem, tree):
            names = {n for node in nodes for n in _names_read(node)}
            if key is None or key in _TRACER_PINNED:
                reached |= names
            else:
                pending[key] = (name, names)
    grew = True
    while grew:
        grew = False
        for key, (name, names) in list(pending.items()):
            if name in reached:
                reached |= names
                del pending[key]
                grew = True
    assert not pending, ("defined under src/ but reached only from tests: "
                         f"{sorted(pending)}")


def _quick_start() -> str:
    """The python block under README's ``## Quick start (library)``."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Quick start (library)\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start_runs_on_the_exported_names():
    code = _quick_start()
    imported = [alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom)
                and node.module == "squeezed_lasing" for alias in node.names]
    assert imported
    assert set(imported) <= set(squeezed_lasing.__all__)
    exec(compile(code, "README.md", "exec"), {})


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
