"""Spans around the layers of ``squeezed_lasing``, installed from outside.

Every wrapper replaces a name where its caller looks it up: ``scenarios``
imports ``steady_state``, ``mf_ansatz`` and the others by name, so the
patch goes on ``scenarios.steady_state``, not on ``lindblad``.  Spans are
kept in memory as ``[name, start, end, parent, point]`` lists (``parent``
is the index of the enclosing span or -1, ``point`` the index of the
operation the span belongs to or -1) and are written out by the caller
when the run ends.  Nothing in the program itself changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter
from pathlib import Path

PKG = "squeezed_lasing"

# (module, attribute, span name, counter hook); hooks run after the span
# has closed, so their cost stays outside every span
_PLAIN = (
    ("cli", "run_scenario", "scenarios.run", None),
    ("cli", "write_outputs", "scenarios.write", "bytes_written"),
    ("scenarios", "steady_state", "lindblad.steady", "unknowns"),
    ("scenarios", "partial_trace", "lindblad.partial_trace", None),
    ("scenarios", "fidelity", "lindblad.fidelity", None),
    ("scenarios", "schrodinger_evolve", "lindblad.evolve", None),
    ("scenarios", "mf_ansatz", "meanfield.ansatz", None),
    ("scenarios", "grid_for_density", "wigner.grid", None),
    ("scenarios", "wigner_from_density", "wigner.density", "cells"),
    ("scenarios", "wigner_change_basis", "wigner.change_basis", "cells"),
    ("meanfield", "to_fock", "gaussian.to_fock", None),
    ("lindblad", "liouvillian_matrix", "lindblad.liouvillian", "nnz"),
    ("lindblad", "splu", "lindblad.lu", "lu_nnz"),
    ("fock", "matrix_exponential", "fock.expm", None),
)


def _bytes_written(args, result):
    out = Path(args[0])
    return sum((out / name).stat().st_size
               for name in [*result["products"], "manifest.json"])


_HOOKS = {
    "bytes_written": _bytes_written,
    "unknowns": lambda args, result: args[0].space.dim ** 2,
    "cells": lambda args, result: result.grid.nx * result.grid.np,
    "nnz": lambda args, result: result.matrix.nnz,
    # stored entries of the supernodal factors; .L/.U would copy them
    "lu_nnz": lambda args, result: result.nnz,
}


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._point = -1
        self._points_open = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, *, counter: str | None = None,
             point: bool | str = False):
        """``fn`` recorded as span ``name``.

        ``point=True`` makes each call a new operation (a sweep point, a
        panel or an RWA run); ``point="outermost"`` does so only outside
        another operation.
        """
        hook = _HOOKS[counter] if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            starts_point = point is True or (point == "outermost"
                                             and not self._points_open)
            if starts_point:
                self._point += 1
                self._points_open += 1
                self.counts["points"] += 1
            index = len(self.spans)
            span = [name, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self._point]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if starts_point:
                    self._points_open -= 1
            if hook is not None:
                self.counts[counter] += hook(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement):
        """Replace ``owner.attr``, or ``owner[attr]`` for a dict."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def install(self):
        """Wrap every layer boundary of the imported package."""
        mod = {name: importlib.import_module(f"{PKG}.{name}")
               for name in ("cli", "scenarios", "meanfield", "lindblad",
                            "fock")}
        for module, attr, name, counter in _PLAIN:
            owner = mod[module]
            self.patch(owner, attr,
                       self.wrap(getattr(owner, attr), name, counter=counter))
        scenarios = mod["scenarios"]
        density = mod["fock"].DensityMatrix
        self.patch(density, "__init__",
                   self.wrap(density.__init__, "fock.state_check"))
        factory = scenarios.interaction_picture_hamiltonian

        def hamiltonian_factory(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), "dressing.h_build")

        self.patch(scenarios, "interaction_picture_hamiltonian",
                   hamiltonian_factory)
        checked = scenarios._solve_steady_checked

        def solve_steady_checked(build, *args, **kwargs):
            return checked(self.wrap(build, "scenarios.model_build"),
                           *args, **kwargs)

        # a wigner panel is a checked solve outside any sweep point
        self.patch(scenarios, "_solve_steady_checked", self.wrap(
            solve_steady_checked, "scenarios.steady_checked",
            point="outermost"))
        self.patch(scenarios, "_run_rwa_validate", self.wrap(
            scenarios._run_rwa_validate, "scenarios.point", point=True))
        points = scenarios._POINT_FUNCS
        for key, fn in list(points.items()):
            self.patch(points, key,
                       self.wrap(fn, "scenarios.point", point=True))

    def restore(self):
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, point in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, point) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_table(spans: list) -> dict[str, dict]:
    """Calls, total time and self time per span name."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return table


# per-layer metric -> (unit, how it is read from one traced run)
_CALLS, _TOTAL, _SELF, _COUNT = "calls", "total_s", "self_s", "count"
LAYER_METRICS = {
    "scenarios.run_s": ("s", _TOTAL, ("scenarios.run",)),
    "scenarios.self_s": ("s", _SELF, ("scenarios.run", "scenarios.point",
                                      "scenarios.steady_checked")),
    "scenarios.points": ("count", _COUNT, ("points",)),
    "scenarios.model_builds": ("count", _CALLS, ("scenarios.model_build",)),
    "scenarios.model_build_s": ("s", _TOTAL, ("scenarios.model_build",)),
    "scenarios.write_s": ("s", _TOTAL, ("scenarios.write",)),
    "scenarios.bytes_written": ("bytes", _COUNT, ("bytes_written",)),
    "lindblad.steady_calls": ("count", _CALLS, ("lindblad.steady",)),
    "lindblad.steady_s": ("s", _TOTAL, ("lindblad.steady",)),
    "lindblad.steady_self_s": ("s", _SELF, ("lindblad.steady",)),
    "lindblad.liouvillian_s": ("s", _TOTAL, ("lindblad.liouvillian",)),
    "lindblad.lu_s": ("s", _TOTAL, ("lindblad.lu",)),
    "lindblad.unknowns": ("count", _COUNT, ("unknowns",)),
    "lindblad.nnz": ("count", _COUNT, ("nnz",)),
    "lindblad.lu_nnz": ("count", _COUNT, ("lu_nnz",)),
    "lindblad.partial_trace_s": ("s", _TOTAL, ("lindblad.partial_trace",)),
    "lindblad.fidelity_s": ("s", _TOTAL, ("lindblad.fidelity",)),
    "lindblad.evolve_s": ("s", _TOTAL, ("lindblad.evolve",)),
    "lindblad.evolve_self_s": ("s", _SELF, ("lindblad.evolve",)),
    "meanfield.ansatz_calls": ("count", _CALLS, ("meanfield.ansatz",)),
    "meanfield.ansatz_s": ("s", _TOTAL, ("meanfield.ansatz",)),
    "meanfield.ansatz_self_s": ("s", _SELF, ("meanfield.ansatz",)),
    "gaussian.to_fock_calls": ("count", _CALLS, ("gaussian.to_fock",)),
    "gaussian.to_fock_s": ("s", _TOTAL, ("gaussian.to_fock",)),
    "gaussian.to_fock_self_s": ("s", _SELF, ("gaussian.to_fock",)),
    "fock.expm_calls": ("count", _CALLS, ("fock.expm",)),
    "fock.expm_s": ("s", _TOTAL, ("fock.expm",)),
    "fock.state_checks": ("count", _CALLS, ("fock.state_check",)),
    "fock.state_check_s": ("s", _TOTAL, ("fock.state_check",)),
    "dressing.h_builds": ("count", _CALLS, ("dressing.h_build",)),
    "dressing.h_build_s": ("s", _TOTAL, ("dressing.h_build",)),
    "wigner.grid_s": ("s", _TOTAL, ("wigner.grid",)),
    "wigner.density_s": ("s", _TOTAL, ("wigner.density",)),
    "wigner.change_basis_s": ("s", _TOTAL, ("wigner.change_basis",)),
    "wigner.cells": ("count", _COUNT, ("cells",)),
}


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    table = layer_table(spans)
    out = {}
    for metric, (unit, field, names) in LAYER_METRICS.items():
        if field == _COUNT:
            out[metric] = sum(counts.get(n, 0) for n in names)
        else:
            out[metric] = sum(table.get(n, {}).get(field, 0) for n in names)
    return out


def combine_runs(runs: list[dict[str, float]]) -> tuple[dict, list[str]]:
    """Median times over traced runs; counts must repeat exactly.

    Returns the metrics (counts from the first run) and the names of the
    counts that differed between runs.
    """
    out, mismatched = {}, []
    for key, (unit, field, names) in LAYER_METRICS.items():
        values = [run[key] for run in runs]
        if unit == "s":
            out[key] = statistics.median(values)
        else:
            out[key] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(key)
    return out, mismatched
