"""Golden artefacts: every scenario at the ``desk`` preset, small numerics.

``tests/golden/<case>/`` holds what ``simulate`` wrote for each case in
CASES.  The test reruns each case and compares with the north-star
tolerances:

- CSV and Wigner-grid columns: max |new - golden| <= 1e-10 times the
  column's largest golden magnitude; columns whose golden cells are all
  integers, string cells and comment lines must match exactly;
- the manifest must be equal apart from ``versions``.

These files are not byte-identical across machines: a rerun elsewhere
may differ in the last digits (about 1e-13 relative in 7 of the 11
cases on one 2-CPU VM), inside the tolerances above.  So check a claim
that a change keeps artefacts byte-identical with ``diff -r`` against a
run of the parent commit on the same machine, not against these files.
Re-pin only for a change meant to move the numbers, and only the cases
it moves, from the repo root:

    PYTHONPATH=src python tests/test_golden.py wigner_panels mf_compare

With no case names every case is re-pinned and stale cases are removed.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from squeezed_lasing.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10
_INT = re.compile(r"-?\d+")


def _sweep(start, stop, steps):
    return ["--set", "sweep.param=c_tilde", "--set", f"sweep.start={start}",
            "--set", f"sweep.stop={stop}", "--set", f"sweep.steps={steps}"]


def _numerics(**values):
    out = []
    for key, value in values.items():
        out += ["--set", f"numerics.{key}={value}"]
    return out


CASES = {
    "dress_audit": ["dress_audit"],
    "rwa_validate": ["rwa_validate", "--set", "params.gt_max=0.5",
                     *_numerics(field_dim=6, store_points=11)],
    "single_laser": ["single_laser", *_sweep(1, 3, 3),
                     *_numerics(field_dim=12)],
    # 6 -> 9 -> 14 -> 21 before the edge population is healthy
    "single_laser_retry": ["single_laser",
                           *_numerics(field_dim=6, truncation_retries=3)],
    "squeezed_laser": ["squeezed_laser", *_sweep(1.5, 6, 2),
                       *_numerics(field_dim=12, n_phases=16)],
    "two_qubit_full": ["two_qubit_full",
                       *_numerics(field_dim=8, n_phases=16)],
    "fidelity_sweep": ["fidelity_sweep", "--set", "sweep.steps=3",
                       *_numerics(field_dim=12, n_phases=16)],
    "fidelity_sweep_full": ["fidelity_sweep", "--set", "sweep.steps=2",
                            "--set", "params.include_full=1",
                            *_numerics(field_dim=12, n_phases=16)],
    "wigner_panels": ["wigner_panels",
                      *_numerics(field_dim=16, grid_points=25)],
    # the c_prime_alt panel is still truncation-limited at field_dim 27
    "wigner_panels_flagged": ["wigner_panels",
                              *_numerics(field_dim=12, grid_points=25)],
    "mf_compare": ["mf_compare", *_sweep(1.5, 6, 2),
                   *_numerics(field_dim=12, n_phases=16)],
}


def _run(case: str, out: Path) -> None:
    assert main([*CASES[case], "--out", str(out)]) == 0


def _compare_table(name: str, new: list[str], gold: list[str], sep) -> None:
    """Leading comments and the CSV header exact; data columns per the
    module docstring."""
    n_head = next(i for i, line in enumerate(gold)
                  if not line.startswith("#")) + (sep == ",")
    assert new[:n_head] == gold[:n_head], f"{name}: header"
    assert len(new) == len(gold), f"{name}: line count"
    rows_new = [line.split(sep) for line in new[n_head:]]
    rows_gold = [line.split(sep) for line in gold[n_head:]]
    for col, cells_gold in enumerate(zip(*rows_gold)):
        cells_new = [row[col] for row in rows_new]
        try:
            values_gold = [float(c) for c in cells_gold]
        except ValueError:
            assert cells_new == list(cells_gold), f"{name}: column {col}"
            continue
        if all(_INT.fullmatch(c) for c in cells_gold):
            assert cells_new == list(cells_gold), f"{name}: column {col}"
            continue
        scale = max(abs(v) for v in values_gold)
        worst = max(abs(float(a) - b)
                    for a, b in zip(cells_new, values_gold))
        assert worst <= RTOL * scale, \
            f"{name}: column {col} moved by {worst:.3e} (scale {scale:.3e})"


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, tmp_path):
    _run(case, tmp_path)
    gold_dir = GOLDEN / case
    names = sorted(p.name for p in gold_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        new = (tmp_path / name).read_text()
        gold = (gold_dir / name).read_text()
        if name == "manifest.json":
            new, gold = json.loads(new), json.loads(gold)
            new.pop("versions")
            gold.pop("versions")
            assert new == gold
        else:
            _compare_table(f"{case}/{name}", new.splitlines(),
                           gold.splitlines(), "," if name.endswith(".csv")
                           else None)


def pin(cases: list[str]) -> None:
    """Rewrite the named cases of tests/golden/, or all of it for none."""
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden cases: {unknown}")
    if not cases:
        shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in cases or CASES:
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        _run(case, GOLDEN / case)


if __name__ == "__main__":
    pin(sys.argv[1:])
