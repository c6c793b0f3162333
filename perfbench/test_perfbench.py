"""Tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# --- self time ---------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, -1],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 1],
        ["leaf", 5.0, 7.0, 3, 1],
        ["leaf", 6.0, 8.0, 3, 1],  # overlaps its sibling: counted once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0,
                                                       2.0, 2.0])
    table = tracing.layer_table(spans)
    assert table["leaf"] == pytest.approx({"calls": 3, "total_s": 5.0,
                                           "self_s": 5.0})
    assert table["root"]["self_s"] == pytest.approx(3.0)


def test_combine_runs_takes_median_times_and_flags_changed_counts():
    first = dict.fromkeys(tracing.LAYER_METRICS, 0)
    runs = [dict(first, **{"lindblad.steady_s": t, "lindblad.steady_calls": 2})
            for t in (1.0, 3.0, 2.0)]
    runs[2]["fock.expm_calls"] = 1
    combined, mismatched = tracing.combine_runs(runs)
    assert combined["lindblad.steady_s"] == 2.0
    assert combined["lindblad.steady_calls"] == 2
    assert mismatched == ["fock.expm_calls"]


# --- wrappers ----------------------------------------------------------------

_SMALL_RUNS = {
    "squeezed_laser": ["--set", "numerics.field_dim=10",
                       "--set", "numerics.n_phases=16",
                       "--set", "sweep.param=c_tilde", "--set", "sweep.start=2",
                       "--set", "sweep.stop=4", "--set", "sweep.steps=2"],
    "two_qubit_full": ["--set", "numerics.field_dim=6",
                       "--set", "numerics.n_phases=16"],
    "rwa_validate": ["--set", "params.gt_max=0.2",
                     "--set", "numerics.field_dim=4"],
    "wigner_panels": ["--set", "numerics.field_dim=12",
                      "--set", "numerics.grid_points=16"],
}


def _snapshot():
    from squeezed_lasing import fock, scenarios

    owners = [importlib.import_module(f"squeezed_lasing.{m}")
              for m in ("cli", "scenarios", "meanfield", "lindblad", "fock")]
    return ([(owner, dict(vars(owner))) for owner in owners]
            + [(fock.DensityMatrix, dict(vars(fock.DensityMatrix))),
               (scenarios._POINT_FUNCS, dict(scenarios._POINT_FUNCS))])


@pytest.mark.parametrize("scenario", sorted(_SMALL_RUNS))
def test_tracer_restores_originals_and_keeps_outputs(scenario, tmp_path):
    from squeezed_lasing import cli

    args = [scenario, "--threads", "1", *_SMALL_RUNS[scenario]]
    assert cli.main([*args, "--out", str(tmp_path / "plain")]) == 0
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main([*args, "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.restore()
    for (owner, attrs), (_, attrs_after) in zip(before, _snapshot()):
        assert attrs_after.keys() == attrs.keys()
        changed = [k for k in attrs if attrs_after[k] is not attrs[k]]
        assert not changed, f"{owner!r}: {changed} not restored"

    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in plain:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes()), name

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["scenarios.run_s"] > 0
    assert metrics["scenarios.points"] >= 1
    assert metrics["scenarios.bytes_written"] == sum(
        (tmp_path / "traced" / name).stat().st_size for name in plain)
    if scenario == "rwa_validate":
        assert metrics["dressing.h_builds"] > 0
        assert metrics["lindblad.steady_calls"] == 0
    else:
        assert metrics["lindblad.steady_calls"] >= 1
        assert metrics["lindblad.unknowns"] > 0
    if scenario == "squeezed_laser":
        assert metrics["meanfield.ansatz_calls"] == 2
        assert metrics["gaussian.to_fock_calls"] == 32
        assert metrics["fock.expm_calls"] == 96
    if scenario == "wigner_panels":
        assert metrics["scenarios.points"] == 2
        assert metrics["wigner.cells"] == 4 * 16 * 16


# --- checker -----------------------------------------------------------------

def _write_from_reference(ref: dict, out: Path):
    """An output directory whose tables are exactly the reference's."""
    out.mkdir()
    for name, table in ref["tables"].items():
        lines = ["# config_hash: x", ",".join(table["columns"])]
        lines += [",".join(row) for row in table["rows"]]
        (out / name).write_text("\n".join(lines) + "\n")
    (out / "manifest.json").write_text(json.dumps(
        {"products": ref["products"], "failed_points": []}))


def _perturbed(text: str, rel: float) -> str:
    return format(float(text) * (1 + rel), ".17g")


def test_checker_flags_csv_perturbed_by_1e9_relative(tmp_path):
    ref = json.loads(run.reference_path("squeezed_sweep", 0).read_text())
    table = ref["tables"]["squeezed_laser.csv"]
    column = table["columns"].index("n_mode")
    _write_from_reference(ref, tmp_path / "same")
    assert check.check_outputs(tmp_path / "same", ref, 0) == {}

    for rel, flagged in ((1e-9, {2}), (1e-12, set())):
        bad = json.loads(json.dumps(ref))
        row = bad["tables"]["squeezed_laser.csv"]["rows"][2]
        row[column] = _perturbed(row[column], rel)
        out = tmp_path / f"rel{rel:g}"
        _write_from_reference(bad, out)
        assert set(check.check_outputs(out, ref, 0)) == flagged

    bad = json.loads(json.dumps(ref))
    bad["tables"]["squeezed_laser.csv"]["rows"][1][
        table["columns"].index("field_dim")] = "61"
    _write_from_reference(bad, tmp_path / "int")
    assert set(check.check_outputs(tmp_path / "int", ref, 0)) == {1}
    assert set(check.check_outputs(tmp_path / "same", ref, 3)) == {0, 1, 2, 3}


def test_checker_flags_grid_and_invariant_deviations(tmp_path):
    n = 9
    cells = [(i - 4.0, j - 4.0, 0.01 * (i + 1) * (j + 2)) for i in range(n)
             for j in range(n)]

    def write(out: Path, values, trace_error="0"):
        out.mkdir()
        lines = ["# config_hash: x", "# frame: mode_a squeeze_r: 0.5",
                 "# columns: x p w"]
        lines += [f"{x!r} {p!r} {w!r}" for x, p, w in values]
        (out / "g.txt").write_text("\n".join(lines) + "\n")
        (out / "t.csv").write_text(f"v,trace_error\n1.5,{trace_error}\n")
        (out / "manifest.json").write_text(json.dumps(
            {"products": ["t.csv", "g.txt"], "failed_points": []}))

    write(tmp_path / "ref", cells)
    ref = check.make_reference(tmp_path / "ref", 2, lambda *a: 0,
                               lambda name: 1)
    assert check.check_outputs(tmp_path / "ref", ref, 0) == {}
    scale = max(w for _, _, w in cells)
    k = 8 * n + 8  # a sampled cell
    for rel, flagged in ((1e-9, {1}), (1e-12, set())):
        moved = list(cells)
        x, p, w = moved[k]
        moved[k] = (x, p, w + rel * scale)
        write(tmp_path / f"g{rel:g}", moved)
        assert set(check.check_outputs(tmp_path / f"g{rel:g}", ref, 0)) \
            == flagged
    write(tmp_path / "trace", cells, trace_error="2e-10")
    assert set(check.check_outputs(tmp_path / "trace", ref, 0)) == {0}


# --- workloads and the command line -----------------------------------------

def test_seed_shifts_inputs_and_every_variant_is_pinned(tmp_path):
    for name, workload in run.WORKLOADS.items():
        args = [workload.simulate_args(seed, tmp_path) for seed in range(5)]
        assert args[0] == args[4] != args[1]
        for seed in range(run.VARIANTS):
            ref = json.loads(run.reference_path(name, seed).read_text())
            assert ref["ops"] == workload.ops
    sweep = run.WORKLOADS["squeezed_sweep"].simulate_args(3, tmp_path)
    assert "sweep.start=1.53" in sweep and "sweep.stop=6.03" in sweep


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "two_qubit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_runs_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
