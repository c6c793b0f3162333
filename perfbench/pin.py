"""Re-pin the reference artefacts of every workload and seed variant.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload once per variant (seed mod 4) exactly as run.py
does, untraced, and writes ``references/<workload>-<variant>.json``.
Pin only from a commit whose outputs are trusted: the benchmark fails
every later run that disagrees with these files.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
from run import HERE, VARIANTS, WORK, WORKLOADS, child_env, run_child


def pin(name: str, variant: int) -> None:
    workload = WORKLOADS[name]
    out_dir = WORK / f"pin-{name}-{variant}"
    shutil.rmtree(out_dir, ignore_errors=True)
    env, _ = child_env()
    child = run_child(workload.simulate_args(variant, out_dir), WORK,
                      f"pin-{name}-{variant}", env)
    if child.exit_code != 0:
        raise SystemExit(f"{name} variant {variant} exited with "
                         f"{child.exit_code}; see {child.log}")
    op_values: list[str] = []  # the op_column value of each operation
    sweep_rows: list[list[str]] = []

    def row_op(table, columns, row):
        if workload.ops == 1:
            return 0
        if workload.op_column is None:  # one row per sweep point
            sweep_rows.append(row)
            return len(sweep_rows) - 1
        value = row[columns.index(workload.op_column)]
        if value not in op_values:
            op_values.append(value)
        return op_values.index(value)

    def grid_op(file_name):
        tags = [f"{float(v):g}" for v in op_values]
        return next(i for i, tag in enumerate(tags)
                    if file_name.startswith(f"wigner_c{tag}_"))

    ref = check.make_reference(out_dir, workload.ops, row_op, grid_op)
    if check.check_outputs(out_dir, ref, 0):
        raise SystemExit(f"{name} variant {variant} fails its own checks")
    path = HERE / "references" / f"{name}-{variant}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1) + "\n")
    shutil.rmtree(out_dir)
    print(f"pinned {path.relative_to(HERE.parent)} in {child.wall_s:.1f} s")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or WORKLOADS:
        for k in range(VARIANTS):
            pin(workload_name, k)
