import json
import logging
import math
import re

import numpy as np
import pytest

from squeezed_lasing.cli import main
from squeezed_lasing.dressing import dress
from squeezed_lasing.fock import HilbertSpace
from squeezed_lasing.lindblad import model_single_qubit_laser, partial_trace, steady_state
from squeezed_lasing.scenarios import (
    ConfigError,
    NumericsSpec,
    RunConfig,
    SweepSpec,
    build_config,
    parse_set_override,
    resolve_aux_dressing,
    resolve_dressing,
    resolve_gprime_ratio,
    resolve_rates,
    ring_cut_anisotropy,
    run_scenario,
    write_outputs,
)
from squeezed_lasing.wigner import ModeBasis, PhaseGrid, WignerField


# ---------------------------------------------------------------------------
# configuration assembly

class TestConfigAssembly:
    def test_layering_order(self):
        cfg = build_config("single_laser", preset="desk",
                           file_data={"params": {"c_tilde": 4.0}},
                           overrides={"params": {"kappa_over_gamma": 0.2}})
        assert cfg.params["c_tilde"] == 4.0          # file beats preset (5.0)
        assert cfg.params["kappa_over_gamma"] == 0.2  # --set beats preset
        assert cfg.params["eta1"] == 0.1              # preset survives

    def test_scenario_numerics_defaults(self):
        assert build_config("rwa_validate").numerics.field_dim == 8
        assert build_config("wigner_panels").numerics.field_dim == 60
        assert build_config("single_laser").numerics.field_dim == 40

    def test_fidelity_sweep_has_default_axis(self):
        cfg = build_config("fidelity_sweep")
        assert cfg.sweep is not None
        assert cfg.sweep.param == "c_tilde"
        assert cfg.sweep.steps == 10

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            RunConfig("mystery", {}, None, NumericsSpec())

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_config("single_laser", preset="bench")

    def test_unknown_param_name(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            build_config("single_laser",
                         overrides={"params": {"coupling": 1.0}})

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config sections"):
            build_config("single_laser", file_data={"paramz": {}})

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            build_config("single_laser",
                         overrides={"params": {"c_tilde": "five"}})

    def test_non_finite_param_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            build_config("single_laser",
                         overrides={"params": {"c_tilde": math.inf}})

    def test_file_scenario_must_match(self):
        with pytest.raises(ConfigError, match="names scenario"):
            build_config("single_laser",
                         file_data={"scenario": "mf_compare"})

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            SweepSpec("bogus", 0.0, 1.0, 3)
        with pytest.raises(ConfigError, match="at least one step"):
            SweepSpec("c_tilde", 0.0, 1.0, 0)
        with pytest.raises(ConfigError, match="precede"):
            SweepSpec("c_tilde", 2.0, 1.0, 3)
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec("c_tilde", 0.0, math.nan, 3)

    def test_sweep_values_are_uniform(self):
        np.testing.assert_allclose(SweepSpec("c_tilde", 1.0, 3.0, 5).values(),
                                   [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_sweep_rejected_on_non_sweepable(self):
        sweep = {"param": "c_tilde", "start": 1.0, "stop": 2.0, "steps": 2}
        with pytest.raises(ConfigError, match="does not sweep"):
            build_config("dress_audit", preset="paper-2013",
                         file_data={"sweep": sweep})

    def test_integral_floats_read_as_integers(self):
        sweep = {"param": "c_tilde", "start": 1, "stop": 2, "steps": 3}
        ints = build_config("single_laser", overrides={
            "numerics": {"field_dim": 60}, "sweep": sweep})
        floats = build_config("single_laser", overrides={
            "numerics": {"field_dim": 60.0}, "sweep": {**sweep, "steps": 3.0}})
        assert type(floats.numerics.field_dim) is int
        assert type(floats.sweep.steps) is int
        assert floats.config_hash == ints.config_hash

    def test_numerics_bounds(self):
        with pytest.raises(ConfigError):
            NumericsSpec(field_dim=1)
        with pytest.raises(ConfigError):
            NumericsSpec(truncation_retries=-1)
        with pytest.raises(ConfigError):
            NumericsSpec(grid_points=4)

    def test_config_hash_tracks_content(self):
        a = build_config("single_laser")
        b = build_config("single_laser")
        c = build_config("single_laser",
                         overrides={"params": {"c_tilde": 5.5}})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash
        assert len(a.config_hash) == 64

    def test_canonical_roundtrips_through_json(self):
        cfg = build_config("fidelity_sweep")
        again = json.loads(json.dumps(cfg.canonical()))
        assert again == cfg.canonical()


class TestSetOverrides:
    def test_dotted_path(self):
        assert parse_set_override("numerics.field_dim=80") == \
            {"numerics": {"field_dim": 80}}

    def test_json_values(self):
        assert parse_set_override("params.c_tilde=2.5") == \
            {"params": {"c_tilde": 2.5}}

    def test_bare_string_fallback(self):
        assert parse_set_override("sweep.param=c_tilde") == \
            {"sweep": {"param": "c_tilde"}}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_set_override("params.c_tilde")


# ---------------------------------------------------------------------------
# parameter resolution

class TestResolution:
    def test_desk_rates(self):
        cfg = build_config("squeezed_laser", preset="desk")
        rates = resolve_rates(cfg.params)
        assert rates.gamma == 1.0
        assert rates.kappa == pytest.approx(0.1)
        assert rates.c_tilde == 5.0
        assert rates.c_prime == 10.0
        assert rates.g_tilde == pytest.approx(math.sqrt(5.0 * 0.1 * 11.0))

    def test_ghz_derivation(self):
        cfg = build_config("squeezed_laser", preset="paper-2013")
        rates = resolve_rates(cfg.params)
        n_lasing = dress(0.16, 0.2).norm_N
        n_aux = dress(0.2, 0.16).norm_N
        c_prime = (0.07 * n_aux) ** 2 / (3.0e-5 * 0.25)
        c_tilde = (0.04 * n_lasing) ** 2 / (0.015 * 3.0e-5 * (1.0 + c_prime))
        assert rates.kappa == pytest.approx(3.0e-5 / 0.015)
        assert rates.c_prime == pytest.approx(c_prime)
        assert rates.c_tilde == pytest.approx(c_tilde)
        ratio = resolve_gprime_ratio(cfg.params)
        assert ratio == pytest.approx(0.07 * n_aux / 0.25)

    def test_dimensionless_beats_ghz(self):
        cfg = build_config("squeezed_laser", preset="paper-2013",
                           overrides={"params": {"c_tilde": 3.0,
                                                 "gprime_ratio": 0.05}})
        assert resolve_rates(cfg.params).c_tilde == 3.0
        assert resolve_gprime_ratio(cfg.params) == 0.05

    def test_missing_rates_raise(self):
        with pytest.raises(ConfigError, match="kappa_over_gamma"):
            resolve_rates({"c_tilde": 5.0, "c_prime": 1.0})
        with pytest.raises(ConfigError, match="c_tilde"):
            resolve_rates({"kappa_over_gamma": 0.1, "c_prime": 1.0})
        with pytest.raises(ConfigError, match="c_prime"):
            resolve_rates({"kappa_over_gamma": 0.1, "c_tilde": 5.0})

    def test_dressing_from_depths(self):
        params = {"eta1": 0.1, "eta2": 0.2}
        d = resolve_dressing(params, g_tilde=2.0)
        assert d.g_tilde == pytest.approx(2.0)
        assert d.r == pytest.approx(dress(0.1, 0.2).r)

    def test_dressing_direct_r(self):
        d = resolve_dressing({"r": 0.5}, g_tilde=1.5)
        assert d.u == pytest.approx(math.cosh(0.5))
        assert d.v == pytest.approx(math.sinh(0.5))
        assert d.g_tilde == 1.5

    def test_aux_dressing_is_swapped_branch(self):
        lasing = resolve_dressing({"eta1": 0.1, "eta2": 0.2}, g_tilde=1.0)
        aux = resolve_aux_dressing({"eta1": 0.1, "eta2": 0.2},
                                   g_tilde_prime=3.0)
        assert aux.signature == -1
        assert aux.r == pytest.approx(lasing.r)
        assert aux.g_tilde == pytest.approx(3.0)
        direct = resolve_aux_dressing({"r": 0.5}, g_tilde_prime=3.0)
        assert direct.u == pytest.approx(math.sinh(0.5))
        assert direct.v == pytest.approx(math.cosh(0.5))

    def test_swapped_depths_rejected_for_lasing(self):
        with pytest.raises(ConfigError, match="swap the depths"):
            resolve_dressing({"eta1": 0.2, "eta2": 0.1}, g_tilde=1.0)


# ---------------------------------------------------------------------------
# scenario runs (sized for speed)

class TestDressAudit:
    def test_physical_preset_report(self):
        out = run_scenario(build_config("dress_audit", preset="paper-2013"))
        dressing = out.report["dressing"]
        assert dressing["r"] == pytest.approx(dress(0.16, 0.2).r)
        audit = out.report["audit"]
        assert all(t["detuning"] == 0.0 for t in audit["kept_terms"])
        kinds = {t["kind"] for t in audit["kept_terms"]}
        assert kinds == {"rotating", "counter"}
        assert audit["first_spurious"] == [28, 11]
        assert out.tables["spurious_terms"].rows
        assert not out.failed_points


class TestRwaValidate:
    def test_structure_and_fidelity_range(self):
        cfg = build_config(
            "rwa_validate", preset="desk",
            overrides={"params": {"gt_max": 0.5},
                       "numerics": {"field_dim": 6, "store_points": 11}})
        out = run_scenario(cfg)
        table = out.tables["rwa_fidelity"]
        assert table.columns == ("gt", "t", "fidelity")
        assert len(table.rows) == 11
        gts = [row[0] for row in table.rows]
        assert gts[0] == 0.0
        assert gts[-1] == pytest.approx(0.5)
        fids = np.array([row[2] for row in table.rows])
        assert fids[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all((fids >= 0.0) & (fids <= 1.0 + 1e-12))
        assert out.report["rwa"]["min_fidelity"] == pytest.approx(fids.min())
        assert out.report["rwa"]["on_sidebands"] is True

    def test_ground_start_state(self):
        cfg = build_config(
            "rwa_validate", preset="desk",
            overrides={"params": {"gt_max": 0.2, "start_excited": 0.0},
                       "numerics": {"field_dim": 6, "store_points": 5}})
        out = run_scenario(cfg)
        assert out.report["rwa"]["initial_state"] == "g0"


def _warning_filters() -> list:
    # read at call time: pytest installs a fresh filter list for each test
    from warnings import filters
    return list(filters)


class TestSweeps:
    def test_single_laser_matches_direct_solve(self):
        cfg = build_config(
            "single_laser", preset="desk",
            overrides={"params": {"c_tilde": 2.0},
                       "numerics": {"field_dim": 25}})
        out = run_scenario(cfg)
        row = dict(zip(out.tables["single_laser"].columns,
                       out.tables["single_laser"].rows[0]))
        space = HilbertSpace(n_qubits=1, field_dim=25)
        g = math.sqrt(2.0 * 1.0 * 0.1)
        rho = steady_state(model_single_qubit_laser(g, 1.0, 0.1, space))
        field = partial_trace(rho, keep=[1])
        n_ref = float(np.sum(np.arange(25) * np.diag(field.matrix).real))
        assert row["n_photons"] == pytest.approx(n_ref, rel=1e-10)
        assert row["truncation_flag"] == 0

    @pytest.mark.parametrize("scenario", [
        "single_laser", "squeezed_laser", "two_qubit_full", "fidelity_sweep",
        "mf_compare"])
    def test_axis_ordering_and_rerun_determinism(self, scenario):
        over = {"sweep": {"param": "c_tilde", "start": 1.0, "stop": 3.0,
                          "steps": 3},
                "numerics": {"field_dim": 8 if scenario == "two_qubit_full"
                             else 18, "n_phases": 16}}
        cfg = build_config(scenario, preset="desk", file_data=over)
        table = run_scenario(cfg).tables[scenario]
        assert table.rows == run_scenario(cfg).tables[scenario].rows
        axis = [dict(zip(table.columns, row))["c_tilde"] for row in table.rows]
        assert axis == [1.0, 2.0, 3.0]

    def test_truncation_retry_escalates_field_dim(self):
        cfg = build_config(
            "single_laser", preset="desk",
            overrides={"numerics": {"field_dim": 6,
                                    "truncation_retries": 3}})
        out = run_scenario(cfg)
        row = dict(zip(out.tables["single_laser"].columns,
                       out.tables["single_laser"].rows[0]))
        assert row["field_dim"] > 6
        assert row["truncation_flag"] == 0
        # converged answer agrees with a comfortably sized solve
        assert row["n_photons"] == pytest.approx(4.1098, abs=2e-3)

    def test_exhausted_retries_flag_the_row(self):
        cfg = build_config(
            "single_laser", preset="desk",
            overrides={"numerics": {"field_dim": 6,
                                    "truncation_retries": 0}})
        out = run_scenario(cfg)
        row = dict(zip(out.tables["single_laser"].columns,
                       out.tables["single_laser"].rows[0]))
        assert row["truncation_flag"] == 1
        assert row["field_dim"] == 6
        assert out.report["invariants"]["truncation_flagged"] == 1

    def test_truncation_is_reported_without_touching_warning_filters(
            self, caplog, recwarn, tmp_path):
        # a flagged point commits its flag and one log record, no warning
        before = _warning_filters()
        cfg = build_config(
            "single_laser", preset="desk",
            overrides={"numerics": {"field_dim": 6,
                                    "truncation_retries": 0}})
        with caplog.at_level(logging.INFO, logger="squeezed_lasing"):
            out = run_scenario(cfg)
        row = dict(zip(out.tables["single_laser"].columns,
                       out.tables["single_laser"].rows[0]))
        assert row["truncation_flag"] == 1
        assert len([m for m in caplog.messages if "flagging point" in m]) == 1
        assert len(recwarn) == 0
        # neither a sweep nor the CLI changes the process-wide filters
        over = {"sweep": {"param": "c_tilde", "start": 1.0, "stop": 3.0,
                          "steps": 3},
                "numerics": {"field_dim": 12, "n_phases": 16}}
        run_scenario(build_config("squeezed_laser", preset="desk",
                                  file_data=over))
        assert main(["single_laser", "--out", str(tmp_path / "o"),
                     "--set", "numerics.field_dim=6",
                     "--set", "numerics.truncation_retries=0"]) == 0
        assert _warning_filters() == before
        assert len(recwarn) == 0

    def test_truncation_limited_ansatz_is_logged(self, caplog):
        # the field fits (edge 6.0e-7) but the ansatz does not (2.4e-6)
        cfg = build_config(
            "squeezed_laser", preset="desk",
            overrides={"params": {"c_tilde": 3.0, "c_prime": 1.0},
                       "numerics": {"field_dim": 20, "n_phases": 16}})
        with caplog.at_level(logging.INFO, logger="squeezed_lasing"):
            out = run_scenario(cfg)
        row = dict(zip(out.tables["squeezed_laser"].columns,
                       out.tables["squeezed_laser"].rows[0]))
        assert row["truncation_flag"] == 0
        logged = [r for r in caplog.records
                  if r.getMessage().startswith("ansatz truncation-limited")]
        assert len(logged) == 1
        assert logged[0].levelno == logging.WARNING
        assert logged[0].name == "squeezed_lasing.scenarios"

    def test_failed_point_is_isolated(self, monkeypatch):
        import squeezed_lasing.scenarios as scen
        real = scen._POINT_FUNCS["single_laser"]

        def sometimes(params, numerics):
            if params["c_tilde"] == 2.0:
                raise RuntimeError("synthetic solver blowup")
            return real(params, numerics)

        monkeypatch.setitem(scen._POINT_FUNCS, "single_laser", sometimes)
        over = {"sweep": {"param": "c_tilde", "start": 1.0, "stop": 3.0,
                          "steps": 3},
                "numerics": {"field_dim": 18}}
        cfg = build_config("single_laser", preset="desk", file_data=over)
        out = run_scenario(cfg)
        axis = [row[0] for row in out.tables["single_laser"].rows]
        assert axis == [1.0, 3.0]
        assert len(out.failed_points) == 1
        assert out.failed_points[0]["axis_value"] == 2.0
        assert "synthetic solver blowup" in out.failed_points[0]["error"]

    def test_failed_points_are_listed_in_axis_order(self, monkeypatch):
        # a non-finite row and a later raising point fail in axis order
        import squeezed_lasing.scenarios as scen
        real = scen._POINT_FUNCS["single_laser"]

        def faulty(params, numerics):
            if params["c_tilde"] == 2.0:
                raise RuntimeError("synthetic solver blowup")
            row = real(params, numerics)
            if params["c_tilde"] == 1.0:
                row["purity"] = float("nan")
            return row

        monkeypatch.setitem(scen._POINT_FUNCS, "single_laser", faulty)
        over = {"sweep": {"param": "c_tilde", "start": 1.0, "stop": 3.0,
                          "steps": 3},
                "numerics": {"field_dim": 18}}
        out = run_scenario(build_config("single_laser", preset="desk",
                                        file_data=over))
        assert [f["index"] for f in out.failed_points] == [0, 1]
        assert out.failed_points[0]["error"] == "non-finite output"
        assert "synthetic solver blowup" in out.failed_points[1]["error"]
        assert [row[0] for row in out.tables["single_laser"].rows] == [3.0]

    def test_fidelity_sweep_solves_effective_model_once_per_point(
            self, monkeypatch):
        # with include_full, the two-qubit comparison reuses the point's
        # effective-model field and ansatz at the same field_dim
        import squeezed_lasing.scenarios as scen
        calls = {"steady_state": 0, "mf_ansatz": 0}

        def counting(name):
            real = getattr(scen, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(scen, name, counting(name))
        cfg = build_config("fidelity_sweep", preset="desk", overrides={
            "sweep": {"steps": 2}, "params": {"include_full": 1},
            "numerics": {"field_dim": 12, "n_phases": 16}})
        out = run_scenario(cfg)
        table = out.tables["fidelity_sweep"]
        assert [dict(zip(table.columns, row))["field_dim"]
                for row in table.rows] == [12, 12]
        assert calls == {"steady_state": 4, "mf_ansatz": 2}

    def test_squeezed_laser_reports_mf_anchor(self):
        cfg = build_config("squeezed_laser", preset="desk",
                           overrides={"numerics": {"field_dim": 30}})
        out = run_scenario(cfg)
        row = dict(zip(out.tables["squeezed_laser"].columns,
                       out.tables["squeezed_laser"].rows[0]))
        assert row["mf_f_squared"] == pytest.approx(4.0 / 11.0)
        assert 0.9 < row["fidelity_ansatz"] <= 1.0
        assert row["n_bare"] > row["n_mode"]  # bare frame adds squeezing quanta


class TestWignerPanels:
    def test_products_and_mass(self):
        over = {"params": {"c_prime": 1.0, "c_prime_alt": 0.05},
                "numerics": {"field_dim": 24, "grid_points": 33}}
        cfg = build_config("wigner_panels", preset="desk", file_data=over)
        out = run_scenario(cfg)
        assert sorted(out.grids) == ["wigner_c0.05_bare", "wigner_c0.05_lasing",
                                     "wigner_c1_bare", "wigner_c1_lasing"]
        for name, panel in out.grids.items():
            assert panel.mass == pytest.approx(1.0, abs=1e-3)
            tag = "mode_a" if name.endswith("bare") else "mode_A"
            assert panel.basis_tag.value == tag
        table = out.tables["wigner_summary"]
        assert len(table.rows) == 4
        assert set(out.report["panels"]) == set(out.grids)

    @pytest.mark.parametrize("points", [17, 21])
    def test_coarse_grid_error_suggests_more_points(self, points, tmp_path):
        # the grid spans the moment extents, but its midpoint rule
        # aliases the ring's fine structure: the remedy is resolution
        def simulate(n, out):
            return main(["wigner_panels", "--preset", "desk",
                         "--set", "params.c_prime=0.01",
                         "--set", "params.c_prime_alt=0.01",
                         "--set", "numerics.field_dim=36",
                         "--set", f"numerics.grid_points={n}",
                         "--out", str(out)])

        assert simulate(points, tmp_path / "coarse") == 3
        manifest = json.loads(
            (tmp_path / "coarse" / "manifest.json").read_text())
        error = manifest["error"]
        assert error.startswith("GridCoverageError")
        assert "too coarse" in error and "extents x in" not in error
        suggested = int(re.search(r"suggest (\d+) grid points",
                                  error).group(1))
        assert suggested > points
        assert simulate(suggested, tmp_path / "fine") == 0

    def test_duplicate_alt_collapses_to_one_pair(self):
        over = {"params": {"c_prime": 1.0, "c_prime_alt": 1.0},
                "numerics": {"field_dim": 24, "grid_points": 33}}
        cfg = build_config("wigner_panels", preset="desk", file_data=over)
        out = run_scenario(cfg)
        assert sorted(out.grids) == ["wigner_c1_bare", "wigner_c1_lasing"]


class TestRingCutAnisotropy:
    def test_synthetic_four_blob_ring(self):
        # four Gaussian blobs at the axis crossings of a radius-5 ring;
        # radial variance 0.25 on the x crossings, 1.0 on the p crossings
        grid = PhaseGrid(x_min=-9.0, x_max=9.0, p_min=-9.0, p_max=9.0,
                         nx=241, np=241)
        x, p = grid.mesh()
        w = np.zeros((grid.nx, grid.np))
        for cx, cp, vx, vp in ((5, 0, 0.25, 0.3), (-5, 0, 0.25, 0.3),
                               (0, 5, 0.3, 1.0), (0, -5, 0.3, 1.0)):
            w += np.exp(-(x - cx) ** 2 / (2 * vx) - (p - cp) ** 2 / (2 * vp))
        w /= w.sum() * grid.cell_area
        field = WignerField(grid, w, ModeBasis.MODE_a, 0.0)
        var_x, var_p, ratio = ring_cut_anisotropy(field)
        assert var_x == pytest.approx(0.25, abs=0.02)
        assert var_p == pytest.approx(1.0, abs=0.05)
        assert ratio == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("points", [25, 24])
    def test_cuts_ignore_roundoff_shifts_of_the_centre(self, points):
        # a ring with weight at its centre; shifting the grid by 1e-15
        # must not move a cell across the half-line boundary
        def variances(shift):
            grid = PhaseGrid(x_min=-6.0 + shift, x_max=6.0 + shift,
                             p_min=-6.0 + shift, p_max=6.0 + shift,
                             nx=points, np=points)
            x, p = grid.mesh()
            w = (np.exp(-((np.hypot(x, p) - 3.0) ** 2) / 0.5)
                 + np.exp(-(x ** 2 + p ** 2) / 0.5))
            w /= w.sum() * grid.cell_area
            return ring_cut_anisotropy(WignerField(grid, w, ModeBasis.MODE_a,
                                                   0.0))

        centred = variances(0.0)
        for shift in (1e-15, -1e-15):
            assert variances(shift) == pytest.approx(centred, rel=1e-12)

    def test_empty_cut_rejected(self):
        grid = PhaseGrid(x_min=-6.0, x_max=6.0, p_min=-6.0, p_max=6.0,
                         nx=65, np=65)
        x, p = grid.mesh()
        # all weight in the x<0 half plane: the +x cut carries nothing
        w = np.exp(-(x + 3) ** 2 - p ** 2) * np.ones((grid.nx, grid.np))
        w[x[:, 0] > 0, :] = 0.0
        w /= w.sum() * grid.cell_area
        field = WignerField(grid, w, ModeBasis.MODE_a, 0.0)
        with pytest.raises(ValueError, match="no positive weight"):
            ring_cut_anisotropy(field)


# ---------------------------------------------------------------------------
# serialization

class TestWriters:
    @pytest.fixture()
    def small_run(self):
        over = {"sweep": {"param": "c_tilde", "start": 1.0, "stop": 2.0,
                          "steps": 2},
                "numerics": {"field_dim": 16}}
        cfg = build_config("single_laser", preset="desk", file_data=over)
        return cfg, run_scenario(cfg)

    def test_manifest_contents(self, tmp_path, small_run):
        cfg, result = small_run
        manifest = write_outputs(tmp_path, cfg, result)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        assert on_disk["config_hash"] == cfg.config_hash
        assert on_disk["scenario"] == "single_laser"
        assert on_disk["products"] == ["single_laser.csv"]
        assert on_disk["failed_points"] == []
        assert "numpy" in on_disk["versions"]
        assert "timestamp" not in (tmp_path / "manifest.json").read_text()

    def test_csv_carries_hash_and_full_precision(self, tmp_path, small_run):
        cfg, result = small_run
        write_outputs(tmp_path, cfg, result)
        lines = (tmp_path / "single_laser.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash: {cfg.config_hash}"
        header = lines[1].split(",")
        assert header == list(result.tables["single_laser"].columns)
        parsed = [float(v) for v in lines[2].split(",")]
        original = [float(v) for v in result.tables["single_laser"].rows[0]]
        assert parsed == original  # .17g round-trips doubles exactly

    def test_rewrite_is_byte_identical(self, tmp_path, small_run):
        cfg, result = small_run
        write_outputs(tmp_path / "a", cfg, result)
        write_outputs(tmp_path / "b", cfg, result)
        for name in ("manifest.json", "single_laser.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_wigner_grid_file_format(self, tmp_path):
        over = {"params": {"c_prime": 1.0, "c_prime_alt": 1.0},
                "numerics": {"field_dim": 24, "grid_points": 17}}
        cfg = build_config("wigner_panels", preset="desk", file_data=over)
        result = run_scenario(cfg)
        write_outputs(tmp_path, cfg, result)
        lines = (tmp_path / "wigner_c1_bare.txt").read_text().splitlines()
        assert lines[0] == f"# config_hash: {cfg.config_hash}"
        assert lines[1].startswith("# frame: mode_a squeeze_r: ")
        assert lines[2] == "# columns: x p w"
        body = [ln.split() for ln in lines[3:]]
        assert len(body) == 17 * 17
        grid = result.grids["wigner_c1_bare"].grid
        np.testing.assert_allclose(
            np.array([float(b[2]) for b in body]).reshape(17, 17),
            result.grids["wigner_c1_bare"].values)
        assert float(body[0][0]) == pytest.approx(float(grid.x_centers[0]))
