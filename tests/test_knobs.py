"""Dead knobs: every parameter a config may set is read by a resolver,
every numerics field is read by the pipeline, and one function decides
between a dimensionless key and the GHz values it can come from.

A name in ``PARAM_KEYS`` or a ``NumericsSpec`` field that nothing reads
is still accepted and hashed, so setting it changes the config hash and
nothing else.  No linter runs on this project, so these tests are what
stop a deletion from leaving such a knob behind.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import squeezed_lasing
from squeezed_lasing import scenarios

PACKAGE = Path(squeezed_lasing.__file__).resolve().parent


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
