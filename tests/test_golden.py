"""Golden artefacts: every scenario at the ``desk`` preset, small numerics,
and the six that run clean at the ``paper-2013`` preset (``paper_*``).

``tests/golden/<case>/`` holds what ``simulate`` wrote for each case in
CASES.  The test reruns each case and compares with the north-star
tolerances:

- CSV and Wigner-grid columns: max |new - golden| <= 1e-10 times the
  column's largest golden magnitude; columns whose golden cells are all
  integers, string cells and comment lines must match exactly;
- the manifest must be equal apart from ``versions``.

These files are not byte-identical across machines: a rerun elsewhere
may differ in the last digits (about 1e-13 relative in 7 of the 11 desk
cases on one 2-CPU VM), inside the tolerances above.  So check a claim
that a change keeps artefacts byte-identical with ``diff -r`` against a
run of the parent commit on the same machine, not against these files.
One command runs every case into ``DIR/<case>``, and every scenario at
each preset's own numerics into ``DIR/preset_<preset>_<scenario>``,
with those runs' exit codes in ``DIR/exit_codes.txt``; it touches
nothing under ``tests/golden/``:

    PYTHONPATH=src python tests/test_golden.py --write DIR

Run it in a checkout of each commit, then ``diff -r`` the two DIRs, or
compare them within the tolerances above, worst deviation per file:

    PYTHONPATH=src python tests/test_golden.py --compare OLD_DIR NEW_DIR

which exits 1 if any file passes them (``tests/golden`` may be OLD_DIR).
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
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from squeezed_lasing.cli import main
from squeezed_lasing.scenarios import PRESETS, SCENARIO_NAMES

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
# the paper-2013 runs that end unflagged, at the preset's own numerics;
# single_laser and wigner_panels are still truncation-limited there
CASES.update({f"paper_{scenario}": [scenario, "--preset", "paper-2013"]
              for scenario in ("dress_audit", "rwa_validate",
                               "squeezed_laser", "two_qubit_full",
                               "fidelity_sweep", "mf_compare")})


def _run(case: str, out: Path) -> None:
    assert main([*CASES[case], "--out", str(out)]) == 0


def _compare_table(name: str, new: list[str], gold: list[str], sep) -> None:
    """Leading comments and the CSV header exact; data columns per the
    module docstring."""
    worst = _table_deviation(name, new, gold, sep)
    assert worst <= RTOL, f"{name}: a column moved by {worst:.3e} of its scale"


def _table_deviation(name: str, new: list[str], gold: list[str], sep) -> float:
    """The largest max |new - golden| over a data column, relative to that
    column's largest golden magnitude; raises AssertionError where a
    comment, the header, a text or an integer cell differs."""
    n_head = next(i for i, line in enumerate(gold)
                  if not line.startswith("#")) + (sep == ",")
    assert new[:n_head] == gold[:n_head], f"{name}: header"
    assert len(new) == len(gold), f"{name}: line count"
    rows_new = [line.split(sep) for line in new[n_head:]]
    rows_gold = [line.split(sep) for line in gold[n_head:]]
    worst = 0.0
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
        moved = max(abs(float(a) - b) for a, b in zip(cells_new, values_gold))
        worst = max(worst, moved / scale if scale
                    else math.inf if moved else 0.0)
    return worst


def _manifest_deviation(new, gold, path: str = "manifest") -> float:
    """The largest |new - golden| / |golden| over the manifests' floats
    (absolute where the golden float is 0); raises AssertionError where a
    key, a string, an integer or a list length differs."""
    if isinstance(gold, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(gold), path
        return max((_manifest_deviation(new[k], gold[k], f"{path}.{k}")
                    for k in gold if k != "versions"), default=0.0)
    if isinstance(gold, list):
        assert isinstance(new, list) and len(new) == len(gold), path
        return max((_manifest_deviation(a, b, f"{path}[{i}]")
                    for i, (a, b) in enumerate(zip(new, gold))), default=0.0)
    if isinstance(gold, float) and type(new) in (int, float):
        return abs(new - gold) / (abs(gold) or 1.0)
    assert new == gold and type(new) is type(gold), path
    return 0.0


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


def _perturb_largest(path: Path, column: int, factor: float) -> None:
    """Scale the largest-magnitude cell of a CSV data column."""
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = [line.split(",") for line in lines[start:]]
    row = max(rows, key=lambda r: abs(float(r[column])))
    row[column] = repr(float(row[column]) * factor)
    path.write_text("\n".join(lines[:start] + [",".join(r) for r in rows])
                    + "\n")


@pytest.mark.parametrize("relative, flagged", [(1e-9, True), (1e-12, False)])
def test_compare_flags_a_move_past_the_tolerance(tmp_path, capsys, relative,
                                                 flagged):
    # one table cell, and separately one manifest float, moved by
    # ``relative`` of the column's or the float's size
    for moved in ("table", "manifest"):
        old, new = tmp_path / moved / "old", tmp_path / moved / "new"
        for side in (old, new):
            shutil.copytree(GOLDEN / "single_laser", side / "single_laser")
        if moved == "table":
            _perturb_largest(new / "single_laser" / "single_laser.csv", 1,
                             1 + relative)
        else:
            path = new / "single_laser" / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["config"]["params"]["c_prime"] *= 1 + relative
            path.write_text(_dump_manifest(manifest))
        assert compare(old, new) == flagged
        assert f"{relative:.3e}" in capsys.readouterr().out
    # a text cell that differs is a mismatch, whatever its size
    path = new / "single_laser" / "single_laser.csv"
    path.write_text(path.read_text().replace("c_tilde", "c_tild", 1))
    assert compare(old, new) == 1
    assert "mismatch" in capsys.readouterr().out


def test_write_runs_each_preset_and_records_its_exit_code(tmp_path,
                                                          monkeypatch):
    # the preset runs alone, through a stand-in main that exits 3 on one
    module = sys.modules[__name__]
    runs = []

    def stand_in(argv):
        runs.append(argv)
        return 3 if argv[:3] == ["wigner_panels", "--preset",
                                 "paper-2013"] else 0

    monkeypatch.setattr(module, "CASES", {})
    monkeypatch.setattr(module, "main", stand_in)
    write(tmp_path)
    assert len(runs) == len(PRESETS) * len(SCENARIO_NAMES) == 16
    assert runs[0][-2:] == ["--out", str(tmp_path / "preset_desk_dress_audit")]
    codes = (tmp_path / "exit_codes.txt").read_text().splitlines()
    assert len(codes) == 16 and "preset_desk_dress_audit 0" in codes
    assert "preset_paper-2013_wigner_panels 3" in codes


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


def compare(old: Path, new: Path) -> int:
    """Print the worst deviation of each table, grid and manifest of the
    cases run into ``new`` from the same files under ``old`` (each a
    ``--write`` directory, or ``tests/golden``); 1 if any passes RTOL or
    differs where it must match exactly, else 0."""
    status = 0
    for case_dir in sorted(p for p in old.iterdir() if p.is_dir()):
        case = case_dir.name
        names = sorted(p.name for p in case_dir.iterdir())
        if not (new / case).is_dir() or sorted(
                p.name for p in (new / case).iterdir()) != names:
            print(f"{case}: files differ")
            status = 1
            continue
        for name in names:
            text_new = (new / case / name).read_text()
            text_old = (case_dir / name).read_text()
            try:
                if name == "manifest.json":
                    worst = _manifest_deviation(json.loads(text_new),
                                                json.loads(text_old))
                else:
                    worst = _table_deviation(
                        f"{case}/{name}", text_new.splitlines(),
                        text_old.splitlines(),
                        "," if name.endswith(".csv") else None)
            except AssertionError as exc:
                print(f"{case}/{name}: mismatch at {exc}")
                status = 1
                continue
            print(f"{case}/{name}: worst deviation {worst:.3e}")
            status |= worst > RTOL
    return int(status)


def write(out: Path) -> None:
    """Run every case into ``out/<case>``, then every scenario at each
    preset's own numerics into ``out/preset_<preset>_<scenario>``, with
    those runs' exit codes in ``out/exit_codes.txt``."""
    for case in CASES:
        _run(case, out / case)
    codes = []
    for preset in PRESETS:
        for scenario in SCENARIO_NAMES:
            name = f"preset_{preset}_{scenario}"
            code = main([scenario, "--preset", preset, "--out",
                         str(out / name)])
            codes.append(f"{name} {code}\n")
    (out / "exit_codes.txt").write_text("".join(codes))


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
    elif args[:1] == ["--compare"]:
        if len(args) != 3:
            raise SystemExit("usage: test_golden.py --compare OLD NEW")
        sys.exit(compare(Path(args[1]), Path(args[2])))
    elif args[:1] == ["--write"]:
        if len(args) != 2:
            raise SystemExit("usage: test_golden.py --write DIR")
        write(Path(args[1]))
    else:
        pin(args)
