"""Dead knobs: every parameter a config may set is read by a resolver,
every numerics field is read by the pipeline, every defaulted parameter
of a package function is passed somewhere, and one function decides
between a dimensionless key and the GHz values it can come from.

A name in ``PARAM_KEYS`` or a ``NumericsSpec`` field that nothing reads
is still accepted and hashed, so setting it changes the config hash and
nothing else; a default that no call overrides is a constant dressed as
an option.  No linter runs on this project, so these tests are what
stop a deletion from leaving such a knob behind.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import squeezed_lasing
from squeezed_lasing import scenarios

PACKAGE = Path(squeezed_lasing.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _string_constants(*functions) -> set[str]:
    return {node.value
            for function in functions
            for node in ast.walk(ast.parse(inspect.getsource(function)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _reads_numerics(node: ast.AST) -> bool:
    # ``numerics.<field>`` or ``<anything>.numerics.<field>``
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id == "numerics")
            or (isinstance(owner, ast.Attribute) and owner.attr == "numerics"))


def test_every_param_key_is_read_by_a_resolver():
    read = _string_constants(scenarios.resolve_point,
                             scenarios._resolve_drives,
                             scenarios._resolve_run)
    assert sorted(scenarios.PARAM_KEYS - read) == []


def test_every_numerics_field_is_read():
    read = {node.attr
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if _reads_numerics(node)}
    unread = {f.name for f in fields(scenarios.NumericsSpec)} - read
    # the one declared exception: the ansatz integrates the ring phase
    # exactly, and n_phases goes once the benchmark stops passing it
    assert unread == {"n_phases"}


def test_one_precedence_rule():
    uses = sum(path.read_text().count("params.keys()")
               for path in PACKAGE.glob("*.py"))
    assert uses == inspect.getsource(scenarios._pick).count("params.keys()")
    assert uses == 1


def _bound_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(the names assigned, the names imported) anywhere in the tree."""
    assigned, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", [getattr(node, "target",
                                                        None)])
            assigned |= {n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name for a in node.names}
    return assigned, imported


def test_one_band_rule():
    # the band tolerance, the narrowest band, the probe ratio and the
    # growth factor are the steady-state solve's own: each is bound in one
    # module, and the harness that calls the solve binds none of them
    names = {"_BAND_TOL", "_MIN_BAND", "_PROBE_RATIO", "_BAND_GROWTH"}
    bound = {path.stem: _bound_names(ast.parse(path.read_text()))
             for path in PACKAGE.glob("*.py")}
    for name in sorted(names):
        assert [m for m, (assigned, _) in sorted(bound.items())
                if name in assigned] == ["lindblad"], name
    assigned, imported = bound["scenarios"]
    assert not names & (assigned | imported)


def _defaulted_parameters(tree: ast.Module):
    """(function name, parameter, position or None) of each defaulted
    parameter of each function in the tree.  A method's position skips
    self or cls, and ``__init__`` is called by its class's name; a
    keyword-only parameter has no position."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, ast.FunctionDef):
                method = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                name = (cls.name if method and child.name == "__init__"
                        else child.name)
                a = child.args
                positional = [*a.posonlyargs, *a.args]
                first = len(positional) - len(a.defaults)
                out.extend((name, arg.arg, k - method)
                           for k, arg in enumerate(positional)
                           if k >= first)
                out.extend((name, arg.arg, None)
                           for arg, default in zip(a.kwonlyargs,
                                                   a.kw_defaults)
                           if default is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    # a ** or * argument may pass anything
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_default_is_overridden_somewhere():
    # calls match on the called name alone, so a call of another function
    # of that name counts too
    calls = {}
    for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    never = [f"{path.name} {name}({parameter})"
             for path in sorted(PACKAGE.glob("*.py"))
             for name, parameter, position in _defaulted_parameters(
                 ast.parse(path.read_text()))
             if not any(_passes(call, parameter, position)
                        for call in calls.get(name, []))]
    assert never == []
