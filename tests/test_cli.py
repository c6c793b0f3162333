import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import squeezed_lasing
from squeezed_lasing.cli import build_parser, main
from squeezed_lasing.scenarios import (
    PRESETS,
    SCENARIO_NAMES,
    ConfigError,
    _merge,
    build_config,
    parse_set_override,
)

FAST_SWEEP = ["--set", "sweep.param=c_tilde", "--set", "sweep.start=1",
              "--set", "sweep.stop=2", "--set", "sweep.steps=2",
              "--set", "numerics.field_dim=16"]


def test_artifacts_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # run_scenario works on one BLAS thread whatever the environment says.
    # Desk two_qubit_full needs it: without the pin its fidelity_ansatz and
    # fidelity_vs_effective cells differ between 1 and 2 threads (desk
    # squeezed_laser at fd 60 writes the same bytes either way)
    src = str(Path(squeezed_lasing.__file__).resolve().parents[1])
    written = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads-{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "squeezed_lasing.cli", "two_qubit_full",
             "--preset", "desk", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        written[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written["1"]) == ["manifest.json", "two_qubit_full.csv"]
    assert written["1"] == written["2"]


def test_a_warm_plan_memo_writes_the_bytes_of_a_fresh_process(tmp_path):
    # the sweep's two points share a band at field_dim 30, so a fresh
    # process analyses it once; in this process the runs after the first
    # find every plan in the memo
    argv = ["squeezed_laser", "--set", "sweep.param=c_tilde",
            "--set", "sweep.start=1", "--set", "sweep.stop=2",
            "--set", "sweep.steps=2", "--set", "numerics.field_dim=30"]
    src = str(Path(squeezed_lasing.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "squeezed_lasing.cli", *argv,
                          "--out", str(tmp_path / "fresh")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    written = []
    for out in ("fresh", "first", "warm"):
        if out != "fresh":
            assert main([*argv, "--out", str(tmp_path / out)]) == 0
        written.append({p.name: p.read_bytes()
                        for p in (tmp_path / out).iterdir()})
    assert sorted(written[0]) == ["manifest.json", "squeezed_laser.csv"]
    assert written[0] == written[1] == written[2]


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
    # a 0/1 switch that changes which columns a point writes
    [*FAST_SWEEP, "--set", "sweep.start=0", "--set", "sweep.stop=1",
     "--set", "sweep.param=include_full"],
    # integers beyond the float range, and beyond json's digit limit
    ["--set", "numerics.field_dim=1" + "0" * 400],
    [*FAST_SWEEP, "--set", "sweep.start=1" + "0" * 400],
    ["--set", "params.c_tilde=1" + "0" * 400],
    ["--set", "numerics.field_dim=1" + "0" * 5000],
    # two C' that differ but both name their panels wigner_c10
    ["wigner_panels", "--set", "params.c_prime_alt=10.000001"],
    # cosh r and sinh r round to the same double: no lasing branch
    ["squeezed_laser", "--set", "params.r=20"],
    # more sweep steps than numpy can form, refused before any allocation
    [*FAST_SWEEP, "--set", "sweep.steps=1" + "0" * 20],
], ids=lambda fragments: _fragment_id(fragments[-1]))
def test_malformed_config_exits_2(tmp_path, fragments):
    # a leading scenario name replaces single_laser
    scenario = "single_laser"
    if not fragments[0].startswith("-"):
        scenario, *fragments = fragments
    assert main([scenario, "--out", str(tmp_path / "o"), *fragments]) == 2
    assert not (tmp_path / "o").exists()
    overrides: dict = {}
    for item in fragments[1::2]:
        overrides = _merge(overrides, parse_set_override(item))
    with pytest.raises(ConfigError):
        build_config(scenario, overrides=overrides)


@pytest.mark.parametrize("scenario, fragment", [
    ("squeezed_laser", "params.r=-0.5"),
    # cosh r past the float range
    ("two_qubit_full", "params.r=1000"),
    # epsilon below omega puts the difference sideband at a negative frequency
    ("rwa_validate", "params.epsilon_over_g=100"),
    ("dress_audit", "params.epsilon_over_g=100"),
    ("rwa_validate", "params.gt_max=-3"),
    # g~t = 0 would write every row at t = 0
    ("rwa_validate", "params.gt_max=0"),
    # the initial state is |e,0> or |g,0>; nothing in between
    ("rwa_validate", "params.start_excited=0.5"),
    ("rwa_validate", "params.start_excited=-1"),
    # the two-qubit columns are either added or not
    ("fidelity_sweep", "params.include_full=0.5"),
    ("fidelity_sweep", "params.include_full=-1"),
    # eta1 = eta2 balances the Bessel weights: no mode is dressed
    ("dress_audit", "params.eta1=0.2"),
    ("rwa_validate", "params.eta1=0.2"),
    ("squeezed_laser", "params.eta1=0.2"),
    ("two_qubit_full", "params.eta1=0.2"),
    # a drive depth is a modulation amplitude, never negative
    ("squeezed_laser", "params.eta1=-0.1"),
    ("two_qubit_full", "params.eta2=-0.2"),
    # ... even where the model reads no depth
    ("single_laser", "params.eta1=-0.1"),
    # rates are in units of gamma and frequencies in units of g, both 1,
    # and the drives sit on the sidebands: none of these is a parameter
    ("single_laser", "params.gamma=2"),
    ("rwa_validate", "params.g=3"),
    ("dress_audit", "params.shift_omega1_over_g=0.5"),
    ("dress_audit", "params.shift_omega2_over_g=0.5"),
    # a GHz rate that a derivation divides by
    ("squeezed_laser", "params.gamma_ghz=0"),
    ("single_laser", "params.kappa_ghz=0"),
    ("two_qubit_full", "params.gamma_prime_ghz=0"),
])
def test_out_of_range_physics_exits_2(tmp_path, scenario, fragment):
    assert main([scenario, "--out", str(tmp_path / "o"),
                 "--set", fragment]) == 2
    assert not (tmp_path / "o").exists()
    # found while the config is built, before anything runs
    with pytest.raises(ConfigError):
        build_config(scenario, overrides=parse_set_override(fragment))


def record_solves(monkeypatch) -> list:
    """Patch scenarios.steady_state to record the arguments of each call."""
    import squeezed_lasing.scenarios as scen
    solves = []
    real = scen.steady_state

    def counting(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scen, "steady_state", counting)
    return solves


def test_bad_value_inside_a_sweep_range_exits_2_before_any_solve(
        tmp_path, monkeypatch):
    # eta1 = 0.2 balances eta2 and eta1 = 0.3 dresses the swapped branch;
    # eta1 = 0.1 alone would solve
    solves = record_solves(monkeypatch)
    out = tmp_path / "o"
    assert main(["two_qubit_full", "--out", str(out),
                 "--set", "numerics.field_dim=8",
                 "--set", "sweep.param=eta1", "--set", "sweep.start=0.1",
                 "--set", "sweep.stop=0.3", "--set", "sweep.steps=3"]) == 2
    assert not out.exists()
    assert solves == []


@pytest.mark.parametrize("fragments", [
    # both depths negated would dress the mode of +0.1 and +0.2
    ["params.eta1=-0.1", "params.eta2=-0.2"],
    # the first point of the axis is negative; the other two would solve
    ["sweep.param=eta1", "sweep.start=-0.1", "sweep.stop=0.1",
     "sweep.steps=3"],
    # r sets the coupling, so nothing reads the negative depth
    ["params.r=0.5", "params.eta1=-0.1"],
], ids=["both_depths", "sweep_axis", "unread_depth"])
def test_negative_drive_depth_exits_2_before_any_solve(tmp_path, monkeypatch,
                                                       fragments):
    solves = record_solves(monkeypatch)
    out = tmp_path / "o"
    argv = ["squeezed_laser", "--out", str(out),
            "--set", "numerics.field_dim=10"]
    for item in fragments:
        argv += ["--set", item]
    assert main(argv) == 2
    assert not out.exists()
    assert solves == []


@pytest.mark.parametrize("scenario, key", [
    ("squeezed_laser", "gamma_ghz"),
    ("single_laser", "kappa_ghz"),
    ("two_qubit_full", "gamma_prime_ghz"),
])
def test_zero_ghz_divisor_is_named(tmp_path, scenario, key):
    # paper-2013 derives every ratio from GHz values, so each of these
    # would otherwise reach a division by zero
    assert main([scenario, "--preset", "paper-2013", "--out",
                 str(tmp_path / "o"), "--set", f"params.{key}=0"]) == 2
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError, match=f"{key} must be positive"):
        build_config(scenario, preset="paper-2013",
                     overrides={"params": {key: 0.0}})


@pytest.mark.parametrize("preset, scenario, fragments", [
    # kappa / gamma overflows to inf
    ("paper-2013", "single_laser",
     ["params.kappa_ghz=1e300", "params.gamma_ghz=1e-300"]),
    # g~ = sqrt(C~ kappa (1 + C')) overflows to inf
    ("desk", "squeezed_laser",
     ["params.c_tilde=1e300", "params.kappa_over_gamma=1e300"]),
    # the RWA run's length gt_max / g~ overflows to inf
    ("desk", "rwa_validate", ["params.gt_max=1e308"]),
], ids=["kappa_over_gamma", "g_tilde", "t_final"])
def test_derived_value_past_the_float_range_exits_2(tmp_path, preset,
                                                    scenario, fragments):
    argv = [scenario, "--preset", preset, "--out", str(tmp_path / "o")]
    for item in fragments:
        argv += ["--set", item]
    assert main(argv) == 2
    assert not (tmp_path / "o").exists()
    overrides: dict = {}
    for item in fragments:
        overrides = _merge(overrides, parse_set_override(item))
    with pytest.raises(ConfigError, match="finite"):
        build_config(scenario, preset=preset, overrides=overrides)


@pytest.mark.parametrize("preset, key, value", [
    # about 3.6e21, 1.3e7 and 4.3e18 integrator steps, 2 t_final
    # (epsilon + omega), against desk's 1.3e4 and paper-2013's 1.9e4
    ("desk", "epsilon_over_g", 1e20),
    ("paper-2013", "epsilon_ghz", 1e4),
    ("desk", "gt_max", 1e15),
], ids=["epsilon_over_g", "epsilon_ghz", "gt_max"])
def test_an_rwa_run_past_the_step_bound_exits_2(tmp_path, preset, key,
                                                 value):
    # refused when the config is built, so no propagation starts; the
    # message names the epsilon key in use and gt_max
    assert main(["rwa_validate", "--preset", preset, "--out",
                 str(tmp_path / "o"), "--set", f"params.{key}={value}"]) == 2
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError, match="integrator steps") as refused:
        build_config("rwa_validate", preset=preset,
                     overrides={"params": {key: value}})
    message = str(refused.value)
    assert f"{key} ({value!r})" in message
    epsilon_key = "epsilon_ghz" if preset == "paper-2013" else "epsilon_over_g"
    assert f"lower {epsilon_key} (" in message and "or gt_max (" in message


@pytest.mark.parametrize("scenario, key, value, size", [
    ("wigner_panels", "grid_points", 10**7, "1e+14 cells"),
    ("rwa_validate", "store_points", 10**10, "1e+10 stored samples"),
    ("wigner_panels", "field_dim", 10**6,
     "dense operators of about 5.76e+14 bytes"),
    # field_dim 60 grows 1.5 times per retry while the point stays
    # truncation-limited, past the bound at its ninth
    ("wigner_panels", "truncation_retries", 40,
     "dense operators of about 3.1e+09 bytes"),
], ids=["grid_points", "store_points", "field_dim", "truncation_retries"])
def test_an_oversized_grid_or_sample_count_exits_2(tmp_path, scenario, key,
                                                   value, size):
    # refused when the config is built, before anything of that size
    # is allocated: the refusal takes well under a megabyte
    tracemalloc.start()
    try:
        assert main([scenario, "--out", str(tmp_path / "o"),
                     "--set", f"numerics.{key}={value}"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError) as refused:
        build_config(scenario, overrides={"numerics": {key: value}})
    assert f"numerics.{key} = {value} asks for {size}" in str(refused.value)
    # the largest count the fd-500 paper panels have asked for is accepted
    build_config("wigner_panels", overrides={"numerics": {"grid_points": 1587}})


def test_dress_audit_accepts_a_gt_max_it_never_reads(tmp_path):
    # only the RWA run divides gt_max by g~
    assert main(["dress_audit", "--out", str(tmp_path / "o"),
                 "--set", "params.gt_max=1e308"]) == 0


def test_the_field_bound_accepts_every_preset_and_the_paper_panels():
    for preset in PRESETS:
        for scenario in SCENARIO_NAMES:
            build_config(scenario, preset=preset)
    # the fd-800 panels may retry to field_dim 1800: 1.87e9 bytes
    for field_dim in (500, 800):
        build_config("wigner_panels", preset="paper-2013",
                     overrides={"numerics": {"field_dim": field_dim}})
    # dress_audit builds no field
    build_config("dress_audit", overrides={"numerics": {
        "field_dim": 10**6, "truncation_retries": 40}})
    # the RWA run holds 320 B per entry of d x d, d = 2 field_dim
    with pytest.raises(ConfigError, match="about 1.15e.10 bytes at field_d"):
        build_config("rwa_validate",
                     overrides={"numerics": {"field_dim": 3000}})


@pytest.mark.parametrize("scenario, table, fragments", [
    ("dress_audit", "spurious_terms.csv", []),
    ("rwa_validate", "rwa_fidelity.csv",
     ["params.gt_max=0.2", "numerics.field_dim=6",
      "numerics.store_points=5"]),
], ids=["dress_audit", "rwa_validate"])
def test_dimensionless_drive_key_is_never_ignored(tmp_path, scenario, table,
                                                  fragments):
    # paper-2013 sets the GHz drives; a dimensionless drive key wins over
    # them, and then the pair must be complete
    def run(name, *extra):
        argv = [scenario, "--preset", "paper-2013",
                "--out", str(tmp_path / name)]
        for item in (*fragments, *extra):
            argv += ["--set", item]
        return main(argv)

    assert run("half", "params.epsilon_over_g=300") == 2
    assert not (tmp_path / "half").exists()
    with pytest.raises(ConfigError, match="'omega_over_g'"):
        build_config(scenario, preset="paper-2013", overrides={
            "params": {"epsilon_over_g": 300}})
    assert run("ghz") == 0
    assert run("pair", "params.epsilon_over_g=300",
               "params.omega_over_g=112.5") == 0
    rows = {name: (tmp_path / name / table).read_text().splitlines()[2:]
            for name in ("ghz", "pair")}
    assert rows["pair"] != rows["ghz"]


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


def test_strong_squeezing_is_not_read_as_a_second_steady_state(tmp_path):
    # at r = 10 the generator's rates spread over cosh^2 r ~ 1e8, so its
    # second smallest singular value is 1e-9 of the largest, yet only the
    # smallest one vanishes
    assert main(["squeezed_laser", "--out", str(tmp_path / "o"),
                 "--set", "params.r=10",
                 "--set", "numerics.field_dim=8"]) == 0


def test_output_path_collision_exits_4(tmp_path):
    target = tmp_path / "file"
    target.write_text("occupied")
    assert main(["dress_audit", "--preset", "paper-2013",
                 "--out", str(target)]) == 4


def test_failed_points_exit_3_with_partial_results(tmp_path, monkeypatch):
    import squeezed_lasing.scenarios as scen
    real = scen._POINT_FUNCS["single_laser"]

    def sometimes(point, *rest):
        if point.c_tilde == 2.0:
            raise RuntimeError("synthetic blowup")
        return real(point, *rest)

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


def test_every_point_failing_writes_only_the_manifest(tmp_path, monkeypatch):
    import squeezed_lasing.scenarios as scen

    def always(point, *rest):
        raise RuntimeError(f"synthetic blowup at {point.c_tilde}")

    monkeypatch.setitem(scen._POINT_FUNCS, "single_laser", always)
    out = tmp_path / "run"
    assert main(["single_laser", "--out", str(out), *FAST_SWEEP]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == "no sweep point completed"
    assert manifest["products"] == []
    assert [(f["index"], f["axis_value"]) for f in manifest["failed_points"]] \
        == [(0, 1.0), (1, 2.0)]
    assert all("synthetic blowup" in f["error"]
               for f in manifest["failed_points"])


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
