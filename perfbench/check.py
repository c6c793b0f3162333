"""Checks one ``simulate`` output directory against a pinned reference.

A reference (``references/<workload>-<variant>.json``) holds every table
cell as the CLI printed it, a sub-lattice of every Wigner grid, and the
operation each row or grid belongs to.  Tolerances follow the ROADMAP:

- table floats agree to 1e-10 relative (plus 1e-14 absolute, the
  roundoff floor of quantities whose exact value is zero);
- integer and text columns agree exactly;
- grid values agree to 1e-10 of the grid's largest magnitude, and grid
  coordinates to 1e-10 relative;
- the roundoff columns ``trace_error`` and ``hermiticity_error`` are
  invariants instead: at most 1e-10, like the manifest's
  ``invariants``; ``truncation_flag`` must be 0.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-10
ABS_TOL = 1e-14
INVARIANT_TOL = 1e-10
GRID_STRIDE = 8
INTEGER_COLUMNS = frozenset({"field_dim", "truncation_flag", "adiabatic_ok"})
TEXT_COLUMNS = frozenset({"frame"})
INVARIANT_COLUMNS = frozenset({"trace_error", "hermiticity_error"})


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_grid(path: Path) -> dict:
    """Header, side length and the stride-sampled sub-lattice of a grid."""
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if not line.startswith("# config_hash:"):
                header.append(line)
        elif line:
            rows.append(line.split(" "))
    n = math.isqrt(len(rows))
    if n * n != len(rows):
        raise ValueError(f"{path.name}: {len(rows)} cells is not a square grid")
    keep = range(0, n, GRID_STRIDE)
    return {
        "header": header,
        "n": n,
        "x": [rows[i * n][0] for i in keep],
        "p": [rows[j][1] for j in keep],
        "w": [[rows[i * n + j][2] for j in keep] for i in keep],
        "w_scale": max(abs(float(r[2])) for r in rows),
    }


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def floats_differ(ref: str, got: str, scale: float | None = None) -> bool:
    """Whether two printed floats differ beyond the tolerance.

    Relative to the larger of the two by default, or to ``scale``.
    """
    a, b = _number(ref), _number(got)
    if scale is None:
        bound = REL_TOL * max(abs(a), abs(b)) + ABS_TOL
    else:
        bound = REL_TOL * scale
    return not abs(a - b) <= bound


def _line_differs(want: str, got: str) -> bool:
    """Header lines: words equal, or numbers within the float tolerance."""
    a, b = want.split(), got.split()
    return len(a) != len(b) or any(x != y and floats_differ(x, y)
                                   for x, y in zip(a, b))


def _check_table(columns, rows, ref: dict) -> dict[int, str]:
    """Failed operation -> reason, for one table."""
    failed: dict[int, str] = {}
    if columns != ref["columns"]:
        return {op: f"columns {columns} != {ref['columns']}"
                for op in set(ref["row_ops"])}
    if len(rows) != len(ref["rows"]):
        return {op: f"{len(rows)} rows, reference has {len(ref['rows'])}"
                for op in set(ref["row_ops"])}
    for got_row, ref_row, op in zip(rows, ref["rows"], ref["row_ops"]):
        if len(got_row) != len(columns):
            failed.setdefault(op, f"row {got_row} has the wrong length")
            continue
        for col, got, want in zip(columns, got_row, ref_row):
            if col in INVARIANT_COLUMNS:
                bad = not abs(_number(got)) <= INVARIANT_TOL
            elif col in INTEGER_COLUMNS or col in TEXT_COLUMNS:
                bad = got != want
            else:
                bad = floats_differ(want, got)
            if col == "truncation_flag" and got != "0":
                bad = True
            if bad:
                failed.setdefault(op, f"{col} = {got}, reference {want}")
    return failed


def _check_grid(grid: dict, ref: dict) -> str | None:
    if len(grid["header"]) != len(ref["header"]) or any(
            _line_differs(want, got)
            for want, got in zip(ref["header"], grid["header"])):
        return f"header {grid['header']} != {ref['header']}"
    if grid["n"] != ref["n"]:
        return f"grid side {grid['n']}, reference {ref['n']}"
    for axis in ("x", "p"):
        if any(floats_differ(a, b) for a, b in zip(ref[axis], grid[axis])):
            return f"{axis} coordinates differ"
    for ref_row, row in zip(ref["w"], grid["w"]):
        for a, b in zip(ref_row, row):
            if floats_differ(a, b, scale=ref["w_scale"]):
                return f"w = {b}, reference {a}"
    return None


def check_outputs(out_dir: Path, ref: dict, exit_code: int) -> dict[int, str]:
    """Failed operation index -> first reason; empty when all agree."""
    every = set(range(ref["ops"]))
    if exit_code != 0:
        return {op: f"exit code {exit_code}" for op in every}
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return {op: f"manifest: {exc}" for op in every}
    failed: dict[int, str] = {}
    for entry in manifest.get("failed_points", []):
        ops = [entry["index"]] if "index" in entry else every
        for op in ops:
            failed.setdefault(op, f"failed point: {entry.get('error')}")
    inv = manifest.get("invariants")
    if inv is not None and not (inv["max_trace_error"] <= INVARIANT_TOL
                                and inv["max_hermiticity_error"] <= INVARIANT_TOL
                                and inv["truncation_flagged"] == 0):
        for op in every:
            failed.setdefault(op, f"manifest invariants {inv}")
    if sorted(manifest.get("products", [])) != sorted(ref["products"]):
        for op in every:
            failed.setdefault(op, f"products {manifest.get('products')}")
        return failed
    for name, table_ref in ref["tables"].items():
        try:
            columns, rows = read_table(out_dir / name)
        except (OSError, IndexError) as exc:
            problems = {op: str(exc) for op in set(table_ref["row_ops"])}
        else:
            problems = _check_table(columns, rows, table_ref)
        for op, why in problems.items():
            failed.setdefault(op, f"{name}: {why}")
    for name, grid_ref in ref["grids"].items():
        try:
            why = _check_grid(read_grid(out_dir / name), grid_ref)
        except (OSError, ValueError, IndexError) as exc:
            why = str(exc)
        if why is not None:
            failed.setdefault(grid_ref["op"], f"{name}: {why}")
    return failed


def make_reference(out_dir: Path, ops: int, row_op, grid_op) -> dict:
    """Reference from a trusted output directory.

    ``row_op(table_name, columns, row)`` and ``grid_op(file_name)`` give
    the operation a table row or a grid file belongs to; tables are read
    first, so ``grid_op`` may rely on what ``row_op`` saw.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text())
    ref = {"ops": ops, "products": sorted(manifest["products"]),
           "tables": {}, "grids": {}}
    names = ref["products"]
    for name in (n for n in names if n.endswith(".csv")):
        columns, rows = read_table(out_dir / name)
        ref["tables"][name] = {
            "columns": columns, "rows": rows,
            "row_ops": [row_op(name, columns, row) for row in rows]}
    for name in (n for n in names if not n.endswith(".csv")):
        ref["grids"][name] = {**read_grid(out_dir / name), "op": grid_op(name)}
    return ref
