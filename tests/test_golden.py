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
One command runs every case into ``DIR/<case>`` and touches nothing
under ``tests/golden/``:

    PYTHONPATH=src python tests/test_golden.py --write DIR

Run it in a checkout of each commit, then ``diff -r`` the two DIRs.
Re-pin only for a change meant to move the numbers, and only the cases
it moves, from the repo root:

    PYTHONPATH=src python tests/test_golden.py wigner_panels mf_compare

With no case names every case is re-pinned and stale cases are removed.
A change that moves only the config hash (a parameter or numerics field
added or deleted) re-pins with

    PYTHONPATH=src python tests/test_golden.py --hash-only [CASE ...]

which reruns each case and rewrites only the first ``# config_hash:``
line of every committed table and grid and the manifest's ``config`` and
``config_hash``; every other committed byte stays, ``versions``
included.  ``test_matches_golden`` still compares the committed numbers
with a fresh run, so this mode cannot hide a number that moved.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
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


def test_hash_only_repin_restores_only_the_hash(tmp_path, monkeypatch):
    # a copy of one case with a stale hash and config comes back byte for
    # byte; a table without its hash line is refused
    case = "dress_audit"
    shutil.copytree(GOLDEN / case, tmp_path / case)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    committed = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    table = tmp_path / case / "spurious_terms.csv"
    table.write_text(re.sub(r"^# config_hash: \w+", "# config_hash: stale",
                            table.read_text()))
    manifest_path = tmp_path / case / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["params"]["retired"] = 1.0
    manifest["config_hash"] = "stale"
    manifest_path.write_text(_dump_manifest(manifest))
    pin_hashes([case])
    assert {p.name: p.read_bytes()
            for p in (tmp_path / case).iterdir()} == committed
    table.write_text(table.read_text().partition("\n")[2])
    with pytest.raises(SystemExit, match="config hash line"):
        pin_hashes([case])


def _check_cases(cases: list[str]) -> None:
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden cases: {unknown}")


def pin(cases: list[str]) -> None:
    """Rewrite the named cases of tests/golden/, or all of it for none."""
    _check_cases(cases)
    if not cases:
        shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in cases or CASES:
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        _run(case, GOLDEN / case)


def write(out: Path) -> None:
    """Run every case into ``out/<case>``."""
    for case in CASES:
        _run(case, out / case)


def _dump_manifest(manifest: dict) -> str:
    # the format ``write_outputs`` writes
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def pin_hashes(cases: list[str]) -> None:
    """Move the named cases (all for none) to a fresh run's config and
    config hash, keeping every other committed byte."""
    _check_cases(cases)
    for case in cases or CASES:
        gold_dir = GOLDEN / case
        names = sorted(p.name for p in gold_dir.iterdir())
        with tempfile.TemporaryDirectory() as tmp:
            _run(case, Path(tmp))
            if sorted(p.name for p in Path(tmp).iterdir()) != names:
                raise SystemExit(f"{case}: a fresh run writes other files "
                                 f"than {names}")
            fresh = json.loads((Path(tmp) / "manifest.json").read_text())
        for name in names:
            path = gold_dir / name
            text = path.read_text()
            if name == "manifest.json":
                manifest = json.loads(text)
                if _dump_manifest(manifest) != text:
                    raise SystemExit(f"{case}/{name} is not in the "
                                     "manifest format; re-pin it in full")
                manifest["config"] = fresh["config"]
                manifest["config_hash"] = fresh["config_hash"]
                path.write_text(_dump_manifest(manifest))
                continue
            first, newline, rest = text.partition("\n")
            if not first.startswith("# config_hash: "):
                raise SystemExit(f"{case}/{name} does not start with a "
                                 "config hash line")
            path.write_text(f"# config_hash: {fresh['config_hash']}"
                            f"{newline}{rest}")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--hash-only"]:
        pin_hashes(args[1:])
    elif args[:1] == ["--write"]:
        if len(args) != 2:
            raise SystemExit("usage: test_golden.py --write DIR")
        write(Path(args[1]))
    else:
        pin(args)
