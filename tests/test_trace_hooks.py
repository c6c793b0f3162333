"""The benchmark's tracer (``perfbench/tracing.py``) wraps names of this
package from outside.  A renamed hook would only break traced benchmark
runs, so this installs the tracer on a small run and checks that its
spans are recorded and that every wrapped name is put back."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from squeezed_lasing import cli, fock, scenarios

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PINNED_SPANS = {"fock.state_check": 8, "scenarios.model_build": 4,
                "lindblad.steady": 4, "lindblad.lu": 4,
                "lindblad.partial_trace": 4}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> list:
    owners = [importlib.import_module(f"squeezed_lasing.{name}")
              for name in ("cli", "scenarios", "meanfield", "lindblad",
                           "fock")]
    owners += [fock.DensityMatrix, scenarios._POINT_FUNCS]
    return [(owner, dict(owner if isinstance(owner, dict) else vars(owner)))
            for owner in owners]


def test_tracer_records_a_small_sweep_and_restores_every_name(tmp_path):
    tracer = _tracing().Tracer()
    before = _snapshot()
    tracer.install()
    try:
        assert cli.main(["single_laser", "--out", str(tmp_path / "o"),
                         "--set", "numerics.field_dim=6",
                         "--set", "sweep.param=c_tilde",
                         "--set", "sweep.start=1", "--set", "sweep.stop=2",
                         "--set", "sweep.steps=2"]) == 0
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"scenarios.point", "scenarios.steady_checked",
            "lindblad.steady"} <= names
    assert tracer.counts["points"] == 2
    # the per-layer counts that the benchmark reports for this run: each
    # point solves at field_dim 6 and again at 9, and validates each
    # state and its reduced field
    spans = Counter(span[0] for span in tracer.spans)
    assert {name: spans[name] for name in PINNED_SPANS} == PINNED_SPANS
    for (owner, attrs), (_, after) in zip(before, _snapshot()):
        assert after.keys() == attrs.keys()
        changed = [key for key in attrs if after[key] is not attrs[key]]
        assert not changed, f"{owner!r}: {changed} not restored"
