import json

import pytest

from squeezed_lasing.cli import build_parser, main

FAST_SWEEP = ["--set", "sweep.param=c_tilde", "--set", "sweep.start=1",
              "--set", "sweep.stop=2", "--set", "sweep.steps=2",
              "--set", "numerics.field_dim=16"]


def test_parser_defaults():
    args = build_parser().parse_args(["single_laser", "--out", "d"])
    assert args.scenario == "single_laser"
    assert args.preset == "desk"
    assert args.threads == 1
    assert args.overrides == []


def test_unknown_scenario_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["warp_drive", "--out", "d"])
    assert exc.value.code == 2


def test_successful_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main(["single_laser", "--out", str(out), *FAST_SWEEP])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["products"] == ["single_laser.csv"]
    csv = (out / "single_laser.csv").read_text().splitlines()
    assert csv[0] == f"# config_hash: {manifest['config_hash']}"
    assert len(csv) == 4  # hash comment, header, two rows


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["single_laser", "--out", str(a), *FAST_SWEEP]) == 0
    assert main(["single_laser", "--out", str(b), *FAST_SWEEP]) == 0
    for name in ("manifest.json", "single_laser.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "single_laser",
        "params": {"c_tilde": 4.0},
        "numerics": {"field_dim": 16},
    }))
    out = tmp_path / "run"
    rc = main(["single_laser", "--config", str(cfg), "--out", str(out),
               "--set", "params.c_tilde=2.5"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["params"]["c_tilde"] == 2.5  # --set wins
    assert manifest["config"]["numerics"]["field_dim"] == 16


def test_config_scenario_mismatch(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "mf_compare"}))
    assert main(["single_laser", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_bad_json_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["single_laser", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_config_integer_past_the_digit_limit_exits_2(tmp_path):
    # json.loads refuses integers longer than 4300 digits with ValueError
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"numerics": {"field_dim": 1%s}}' % ("0" * 5000))
    assert main(["single_laser", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["single_laser", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_param_exits_2(tmp_path):
    assert main(["single_laser", "--out", str(tmp_path / "o"),
                 "--set", "params.detuning=1"]) == 2


def test_zero_threads_exits_2(tmp_path):
    assert main(["single_laser", "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2


def test_more_than_one_thread_exits_2(tmp_path):
    # sweep points run serially; --threads only accepts 1
    assert main(["single_laser", "--out", str(tmp_path / "o"),
                 "--threads", "2"]) == 2
    assert not (tmp_path / "o").exists()


def _fragment_id(fragment: str) -> str:
    key, _, value = fragment.partition("=")
    return fragment if len(value) < 40 else f"{key}=<{len(value)} digits>"


@pytest.mark.parametrize("fragments", [
    ["--set", "numerics.field_dim=abc"],
    ["--set", "numerics.field_dim=12.7"],
    ["--set", "numerics.truncation_retries=true"],
    ["--set", "numerics=3"],
    ["--set", "params=5"],
    ["--set", "sweep=5"],
    ["--set", "output.foo=1"],
    [*FAST_SWEEP, "--set", "sweep.start=abc"],
    [*FAST_SWEEP, "--set", "sweep.steps=2.5"],
    [*FAST_SWEEP, "--set", "sweep.steps=true"],
    [*FAST_SWEEP, "--set", "sweep.stpes=5"],
    # integers beyond the float range, and beyond json's digit limit
    ["--set", "numerics.field_dim=1" + "0" * 400],
    [*FAST_SWEEP, "--set", "sweep.start=1" + "0" * 400],
    ["--set", "params.c_tilde=1" + "0" * 400],
    ["--set", "numerics.field_dim=1" + "0" * 5000],
], ids=lambda fragments: _fragment_id(fragments[-1]))
def test_malformed_config_exits_2(tmp_path, fragments):
    assert main(["single_laser", "--out", str(tmp_path / "o"),
                 *fragments]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, fragment", [
    ("squeezed_laser", "params.r=-0.5"),
    # epsilon below omega puts the difference sideband at a negative frequency
    ("rwa_validate", "params.epsilon_over_g=100"),
    ("dress_audit", "params.epsilon_over_g=100"),
    ("rwa_validate", "params.gt_max=-3"),
    # eta1 = eta2 balances the Bessel weights: no mode is dressed
    ("dress_audit", "params.eta1=0.2"),
    ("rwa_validate", "params.eta1=0.2"),
    ("squeezed_laser", "params.eta1=0.2"),
    ("two_qubit_full", "params.eta1=0.2"),
])
def test_out_of_range_physics_exits_2(tmp_path, scenario, fragment):
    assert main([scenario, "--out", str(tmp_path / "o"),
                 "--set", fragment]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fragment", ["params.eta2=0.4", "params.eta1=0.25"])
def test_dress_audit_outside_small_amplitude_regime(tmp_path, fragment):
    # a deep drive, or eta1 > eta2, still dresses a mode; only the
    # small-amplitude estimates are undefined there
    out = tmp_path / "o"
    assert main(["dress_audit", "--out", str(out), "--set", fragment]) == 0
    dressing = json.loads((out / "manifest.json").read_text())["dressing"]
    assert dressing["small_amplitude_r"] is None
    assert dressing["small_amplitude_g_tilde"] is None
    assert dressing["r"] > 0


def test_paper_single_laser_at_field_dim_400(tmp_path):
    # the U(1) sector holds 4 fd - 2 = 1,598 of the 640,000 entries of rho
    out = tmp_path / "o"
    assert main(["single_laser", "--preset", "paper-2013", "--out", str(out),
                 "--set", "numerics.field_dim=400"]) == 0
    lines = (out / "single_laser.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert int(row["truncation_flag"]) == 0
    assert int(row["field_dim"]) == 400
    # mean field |F|^2 = gamma (C - 1) / (2 kappa C) at C = 47.94,
    # kappa/gamma = 2e-3
    c_tilde = float(row["c_tilde"])
    mean_field = (c_tilde - 1.0) / (2.0 * 2e-3 * c_tilde)
    assert mean_field == pytest.approx(244.78, abs=0.01)
    assert float(row["n_photons"]) == pytest.approx(mean_field, rel=0.01)


def test_output_path_collision_exits_4(tmp_path):
    target = tmp_path / "file"
    target.write_text("occupied")
    assert main(["dress_audit", "--preset", "paper-2013",
                 "--out", str(target)]) == 4


def test_failed_points_exit_3_with_partial_results(tmp_path, monkeypatch):
    import squeezed_lasing.scenarios as scen
    real = scen._POINT_FUNCS["single_laser"]

    def sometimes(params, numerics):
        if params["c_tilde"] == 2.0:
            raise RuntimeError("synthetic blowup")
        return real(params, numerics)

    monkeypatch.setitem(scen._POINT_FUNCS, "single_laser", sometimes)
    out = tmp_path / "run"
    rc = main(["single_laser", "--out", str(out), *FAST_SWEEP])
    assert rc == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["failed_points"]) == 1
    assert "synthetic blowup" in manifest["failed_points"][0]["error"]
    # surviving point still committed
    csv = (out / "single_laser.csv").read_text().splitlines()
    assert len(csv) == 3


def test_hard_failure_still_writes_manifest(tmp_path, monkeypatch):
    import squeezed_lasing.scenarios as scen

    def explode(config):
        raise RuntimeError("synthetic hard failure")

    monkeypatch.setattr(scen, "_run_dress_audit", explode)
    out = tmp_path / "run"
    rc = main(["dress_audit", "--preset", "paper-2013", "--out", str(out)])
    assert rc == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert "synthetic hard failure" in manifest["error"]
    assert manifest["failed_points"]
    assert manifest["products"] == []


def test_logs_go_to_stderr_only(tmp_path, capsys):
    rc = main(["single_laser", "--out", str(tmp_path / "o"), *FAST_SWEEP])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
