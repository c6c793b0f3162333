import json
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from squeezed_lasing import fock, lindblad, scenarios
from squeezed_lasing.cli import main
from squeezed_lasing.dressing import dress
from squeezed_lasing.fock import HilbertSpace
from squeezed_lasing.lindblad import (
    model_single_qubit_laser,
    model_squeezed_laser_effective,
    partial_trace,
    steady_state,
)
from squeezed_lasing.scenarios import (
    ConfigError,
    NumericsSpec,
    RunConfig,
    ScenarioOutput,
    SweepSpec,
    build_config,
    parse_set_override,
    resolve_point,
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

_RATES = {"kappa_over_gamma": 1.0, "c_tilde": 2.0, "c_prime": 1.0}  # g~ = 2


class TestResolution:
    def test_desk_rates(self):
        cfg = build_config("squeezed_laser", preset="desk")
        point = resolve_point(cfg.params, "effective")
        assert cfg.points == (point,)
        assert point.gamma == 1.0
        assert point.kappa == pytest.approx(0.1)
        assert point.c_tilde == 5.0
        assert point.c_prime == 10.0
        assert point.g_tilde == pytest.approx(math.sqrt(5.0 * 0.1 * 11.0))
        # the single laser has no second qubit, so no C'
        assert resolve_point(cfg.params, "single").c_prime == 0.0

    def test_ghz_derivation(self):
        cfg = build_config("squeezed_laser", preset="paper-2013")
        point = resolve_point(cfg.params, "two_qubit")
        n_lasing = dress(0.16, 0.2).norm_N
        n_aux = dress(0.2, 0.16).norm_N
        c_prime = (0.07 * n_aux) ** 2 / (3.0e-5 * 0.25)
        c_tilde = (0.04 * n_lasing) ** 2 / (0.015 * 3.0e-5 * (1.0 + c_prime))
        assert point.kappa == pytest.approx(3.0e-5 / 0.015)
        assert point.c_prime == pytest.approx(c_prime)
        assert point.c_tilde == pytest.approx(c_tilde)
        assert point.gprime_ratio == pytest.approx(0.07 * n_aux / 0.25)
        # C~ from GHz divides by 1 + C' of the model it resolves for
        single = resolve_point(cfg.params, "single")
        assert single.c_tilde == pytest.approx(
            (0.04 * n_lasing) ** 2 / (0.015 * 3.0e-5))

    def test_dimensionless_beats_ghz(self):
        cfg = build_config("squeezed_laser", preset="paper-2013",
                           overrides={"params": {"c_tilde": 3.0,
                                                 "gprime_ratio": 0.05}})
        point = resolve_point(cfg.params, "two_qubit")
        assert point.c_tilde == 3.0
        assert point.gprime_ratio == 0.05

    def test_missing_rates_raise(self):
        with pytest.raises(ConfigError, match="kappa_over_gamma"):
            resolve_point({"c_tilde": 5.0, "c_prime": 1.0}, "effective")
        with pytest.raises(ConfigError, match="c_tilde"):
            resolve_point({"kappa_over_gamma": 0.1, "c_prime": 1.0},
                          "effective")
        with pytest.raises(ConfigError, match="c_prime"):
            resolve_point({"kappa_over_gamma": 0.1, "c_tilde": 5.0},
                          "effective")
        with pytest.raises(ConfigError, match="'eta1'"):
            resolve_point(dict(_RATES, eta2=0.2), "effective")
        with pytest.raises(ConfigError, match="gprime_ratio"):
            resolve_point(dict(_RATES, eta1=0.1, eta2=0.2), "two_qubit")

    @pytest.mark.parametrize("bad, message", [
        ({"kappa_over_gamma": 0.0}, "kappa_over_gamma must be positive"),
        ({"c_prime": -1.0}, "c_prime must be non-negative"),
        ({"c_tilde": -1.0}, "c_tilde must be non-negative"),
        ({"r": -0.5}, "r must be non-negative"),
        ({"gprime_ratio": 0.0}, "gprime_ratio must be positive"),
        ({"eta1": 0.2}, "dress no mode"),
    ], ids=lambda case: next(iter(case)) if isinstance(case, dict) else "")
    def test_bad_values_raise(self, bad, message):
        params = {**_RATES, "eta1": 0.1, "eta2": 0.2, "gprime_ratio": 0.02,
                  **bad}
        with pytest.raises(ConfigError, match=message):
            resolve_point(params, "two_qubit")

    def test_dressing_from_depths(self):
        point = resolve_point(dict(_RATES, eta1=0.1, eta2=0.2), "effective")
        assert point.g_tilde == 2.0
        # the lasing qubit couples with g = g~ / N, exactly as dress forms it
        n = dress(0.1, 0.2).norm_N
        assert point.dressed == dress(0.1, 0.2, g=2.0 / n)
        assert point.dressed.g_tilde == pytest.approx(2.0)

    def test_dressing_direct_r(self):
        d = resolve_point(dict(_RATES, r=0.5), "effective").dressed
        assert d.u == pytest.approx(math.cosh(0.5))
        assert d.v == pytest.approx(math.sinh(0.5))
        assert d.g_tilde == 2.0

    def test_aux_dressing_is_swapped_branch(self):
        point = resolve_point(dict(_RATES, eta1=0.1, eta2=0.2,
                                   gprime_ratio=0.25), "two_qubit")
        aux = point.aux
        assert aux.signature == -1
        assert aux.r == pytest.approx(point.dressed.r)
        assert point.g_tilde_prime == 1.0 * 1.0 / 0.25
        assert point.gamma_prime == point.g_tilde_prime / 0.25
        assert aux == dress(0.2, 0.1, g=4.0 / dress(0.2, 0.1).norm_N)
        assert aux.g_tilde == pytest.approx(4.0)
        direct = resolve_point(dict(_RATES, r=0.5, gprime_ratio=0.25),
                               "two_qubit").aux
        assert direct.u == pytest.approx(math.sinh(0.5))
        assert direct.v == pytest.approx(math.cosh(0.5))
        assert direct.g_tilde == 4.0

    def test_swapped_depths_rejected_for_lasing(self):
        with pytest.raises(ConfigError, match="swap the depths"):
            resolve_point(dict(_RATES, eta1=0.2, eta2=0.1), "effective")

    @pytest.mark.parametrize("preset, model, calls", [
        ("desk", "single", 0), ("desk", "effective", 1),
        ("desk", "two_qubit", 1), ("paper-2013", "single", 1),
        ("paper-2013", "effective", 1), ("paper-2013", "two_qubit", 1)])
    def test_dress_runs_at_most_once_per_point(self, monkeypatch, preset,
                                               model, calls):
        # the auxiliary qubit's swapped depths need no second call
        params = build_config("two_qubit_full", preset=preset).params
        depths = []
        real = scenarios.dress

        def counting(eta1, eta2, **kwargs):
            depths.append((eta1, eta2))
            return real(eta1, eta2, **kwargs)

        monkeypatch.setattr(scenarios, "dress", counting)
        resolve_point(params, model)
        assert len(depths) == calls


class TestRunResolution:
    """Building a RunConfig resolves every point it will solve."""

    @staticmethod
    def _sweep(scenario, param, start, stop, preset="desk", steps=3):
        return build_config(scenario, preset=preset, overrides={
            "sweep": {"param": param, "start": start, "stop": stop,
                      "steps": steps}})

    @pytest.mark.parametrize("scenario, param, start, stop", [
        ("squeezed_laser", "gt_max", 1.0, 3.0),
        ("squeezed_laser", "gprime_ratio", 0.01, 0.03),
        ("squeezed_laser", "epsilon_over_g", 200.0, 300.0),
        ("squeezed_laser", "c_prime_alt", 0.01, 0.1),
        ("single_laser", "eta1", 0.05, 0.15),
    ])
    def test_inert_axis_rejected(self, scenario, param, start, stop):
        with pytest.raises(ConfigError, match=f"'{param}'.*{scenario}"):
            self._sweep(scenario, param, start, stop)

    @pytest.mark.parametrize("scenario, param, start, stop, preset", [
        # the axis switches include_full on, and the two-qubit model reads it
        ("fidelity_sweep", "gprime_ratio", 0.02, 0.04, "desk"),
        ("two_qubit_full", "gprime_ratio", 0.02, 0.04, "desk"),
        # C~ from GHz depends on N(eta1, eta2)
        ("single_laser", "eta1", 0.1, 0.15, "paper-2013"),
    ])
    def test_live_axis_accepted(self, scenario, param, start, stop, preset):
        cfg = self._sweep(scenario, param, start, stop, preset=preset)
        assert len(set(cfg.points)) == 3

    def test_one_value_of_an_inert_axis_is_no_sweep(self):
        for start, stop, steps in ((1.0, 3.0, 1), (2.0, 2.0, 3)):
            cfg = self._sweep("squeezed_laser", "gt_max", start, stop,
                              steps=steps)
            assert len(set(cfg.points)) == 1

    def test_fidelity_sweep_resolves_the_two_qubit_sibling(self):
        cfg = self._sweep("fidelity_sweep", "gprime_ratio", 0.02, 0.04)
        assert [p.full.gprime_ratio for p in cfg.points] == [0.02, 0.03, 0.04]
        assert all(p.model == "effective" for p in cfg.points)
        plain = build_config("fidelity_sweep", preset="desk")
        assert all(p.full is None for p in plain.points)

    def test_bad_value_inside_the_range_is_found_when_built(self):
        # eta1 = 0.2 balances eta2 at the middle point only
        with pytest.raises(ConfigError, match="dress no mode"):
            self._sweep("squeezed_laser", "eta1", 0.1, 0.3)

    def test_zero_ghz_rate_is_a_config_error(self):
        with pytest.raises(ConfigError, match="out of range"):
            build_config("squeezed_laser", preset="paper-2013",
                         overrides={"params": {"gamma_ghz": 0.0}})

    def test_records_stay_out_of_the_hash(self):
        cfg = build_config("wigner_panels", preset="paper-2013")
        assert [p.c_prime for p in cfg.points] == [
            pytest.approx(8.8082, abs=1e-4), 0.01]
        assert "points" not in cfg.canonical()
        assert cfg == RunConfig(cfg.scenario, cfg.params, cfg.sweep,
                                cfg.numerics)


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

    def test_hamiltonian_hook_counts_repeat(self, tmp_path, monkeypatch):
        # a tracer counts H(t) builds by wrapping the factory as bound in
        # scenarios, from outside; the count and the artefacts must repeat
        factory = scenarios.interaction_picture_hamiltonian
        calls = []

        def counting_factory(*args, **kwargs):
            hamiltonian = factory(*args, **kwargs)

            def counted(t):
                calls.append(t)
                return hamiltonian(t)

            return counted

        monkeypatch.setattr(scenarios, "interaction_picture_hamiltonian",
                            counting_factory)
        counts = []
        for run in ("first", "second"):
            calls.clear()
            assert main(["rwa_validate", "--out", str(tmp_path / run),
                         "--set", "params.gt_max=0.3"]) == 0
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[1] == counts[0]
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
        for name in names:
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "second" / name).read_bytes()), name


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

    @pytest.mark.parametrize("scenario", [
        "squeezed_laser", "two_qubit_full", "fidelity_sweep", "mf_compare",
        "wigner_panels"])
    def test_no_scenario_takes_a_matrix_exponential(self, monkeypatch,
                                                    scenario):
        # the ansatz and every Gaussian state come from closed-form Fock
        # elements; field_dim 18 is the least at which the band start
        # forms an ansatz too
        def refuse(op):
            raise AssertionError("fock.matrix_exponential was called")

        monkeypatch.setattr(fock, "matrix_exponential", refuse)
        formed = []
        real = scenarios.mf_ansatz
        monkeypatch.setattr(scenarios, "mf_ansatz",
                            lambda *args: formed.append(args) or real(*args))
        cfg = build_config(scenario, preset="desk", overrides={
            "numerics": {"field_dim": 18, "n_phases": 16, "grid_points": 64}})
        out = run_scenario(cfg)
        assert not out.failed_points
        assert formed

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
        # the field fits (edge 6.0e-7) but the ansatz does not (2.1e-6)
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

    def test_ansatz_read_only_to_size_the_band_is_not_logged(self, caplog):
        # at C' = 0.01 and field_dim 30 the ansatz's edge is 1.9e-5, and
        # the band sizing reads it, but wigner_panels reports no fidelity
        # to it
        cfg = build_config(
            "wigner_panels", preset="desk",
            overrides={"params": {"c_prime": 0.01},
                       "numerics": {"field_dim": 30, "grid_points": 16}})
        with caplog.at_level(logging.INFO, logger="squeezed_lasing"):
            run_scenario(cfg)
        assert any(m.startswith("steady state at field_dim 30")
                   for m in caplog.messages)
        assert not [m for m in caplog.messages
                    if m.startswith("ansatz truncation-limited")]

    def test_each_solve_logs_its_band(self, caplog, monkeypatch):
        # an empty plan memo, so that each pattern is analysed here
        monkeypatch.setattr(lindblad, "_plans", [])
        cfg = build_config("squeezed_laser", preset="desk",
                           overrides={"numerics": {"field_dim": 30}})
        with caplog.at_level(logging.INFO, logger="squeezed_lasing"):
            out = run_scenario(cfg)
        assert out.tables["squeezed_laser"].rows[0][-4:-2] == (30, 0)
        # the one factorisation, then the band the point kept
        solves = [r.getMessage() for r in caplog.records
                  if r.name == "squeezed_lasing.lindblad"]
        [kept] = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("steady state at")]
        [solve] = solves
        band, unknowns = re.fullmatch(
            r"field_dim 30, band (\d+): (\d+) unknowns factored, "
            r"pattern analysed", solve).groups()
        found = re.fullmatch(
            r"steady state at field_dim 30: band (\d+), band edge (\S+), "
            r"band grown (\d+) times", kept)
        assert found.group(1) == band
        # a band narrower than the 29 of the whole sector, which passed
        assert int(band) < 29 and float(found.group(2)) < scenarios._BAND_TOL
        assert int(found.group(3)) == 0
        r = cfg.points[0]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="squeezed_lasing"):
            steady_state(model_squeezed_laser_effective(
                r.dressed, r.gamma, r.kappa, r.c_prime,
                HilbertSpace(n_qubits=1, field_dim=30)))
        [whole] = caplog.messages
        assert whole.startswith("field_dim 30, band 29: ")
        assert whole.endswith(", pattern analysed")
        assert 0 < int(unknowns) < int(whole.split()[4])
        # the same point again reuses its band's plan
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="squeezed_lasing.lindblad"):
            run_scenario(cfg)
        assert caplog.messages == [solve.replace("analysed", "reused")]

    def test_failed_point_is_isolated(self, monkeypatch):
        import squeezed_lasing.scenarios as scen
        real = scen._POINT_FUNCS["single_laser"]

        def sometimes(point, *rest):
            if point.c_tilde == 2.0:
                raise RuntimeError("synthetic solver blowup")
            return real(point, *rest)

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

        def faulty(point, *rest):
            if point.c_tilde == 2.0:
                raise RuntimeError("synthetic solver blowup")
            row = real(point, *rest)
            if point.c_tilde == 1.0:
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

    def test_gprime_ratio_axis_adds_the_two_qubit_columns(self):
        # a coupling-ratio axis only means something for the two-qubit
        # model, so it turns include_full on unless the config sets it
        cfg = build_config("fidelity_sweep", preset="desk", overrides={
            "sweep": {"param": "gprime_ratio", "start": 0.02, "stop": 0.04,
                      "steps": 2},
            "numerics": {"field_dim": 8}})
        assert "include_full" not in cfg.params
        out = run_scenario(cfg)
        table = out.tables["fidelity_sweep"]
        rows = [dict(zip(table.columns, row)) for row in table.rows]
        assert table.columns[-3:] == ("gprime_ratio", "fidelity_full",
                                      "fidelity_full_vs_effective")
        assert [row["gprime_ratio"] for row in rows] == [0.02, 0.04]
        assert all(0.0 < row["fidelity_full"] <= 1.0 + 1e-12 for row in rows)
        assert not out.failed_points

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

    @pytest.mark.parametrize("scenario", ["fidelity_sweep",
                                          "two_qubit_full"])
    def test_gprime_ratio_axis_solves_the_effective_model_once(
            self, scenario, tmp_path, monkeypatch):
        # the effective model does not depend on g'/gamma', so of the 8
        # steady states along a 4-step axis (4 two-qubit, 4 effective) only
        # 5 are distinct; the run's memo solves those, and the artefacts
        # are those of points that share nothing
        argv = [scenario, "--set", "sweep.param=gprime_ratio",
                "--set", "sweep.start=0.02", "--set", "sweep.stop=0.08",
                "--set", "sweep.steps=4", "--set", "numerics.field_dim=12"]
        factored = []
        real_splu = lindblad.splu

        def counting(*args):
            factored.append(args[0].n)
            return real_splu(*args)

        monkeypatch.setattr(lindblad, "splu", counting)
        assert main([*argv, "--out", str(tmp_path / "memo")]) == 0
        assert len(factored) == 5
        real_point = scenarios._POINT_FUNCS[scenario]
        monkeypatch.setitem(scenarios._POINT_FUNCS, scenario,
                            lambda resolved, numerics, memo:
                            real_point(resolved, numerics, {}))
        assert main([*argv, "--out", str(tmp_path / "apart")]) == 0
        assert len(factored) == 5 + 8
        written = sorted(p.name for p in (tmp_path / "memo").iterdir())
        assert written == sorted(p.name for p in
                                 (tmp_path / "apart").iterdir())
        for name in written:
            assert ((tmp_path / "memo" / name).read_bytes()
                    == (tmp_path / "apart" / name).read_bytes())

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
        assert manifest["error"] == "no wigner panel completed"
        [failed] = manifest["failed_points"]
        error = failed["error"]
        assert error.startswith("GridCoverageError")
        assert "too coarse" in error and "extents x in" not in error
        suggested = int(re.search(r"suggest (\d+) grid points",
                                  error).group(1))
        assert suggested > points
        assert simulate(suggested, tmp_path / "fine") == 0

    def test_paper_preset_resolves_c_prime(self, monkeypatch):
        # paper-2013 gives C' only through its GHz rates, as every sweep
        # point reads them; each panel's steady state starts with _Point
        class Solve(Exception):
            pass

        reached = []

        def point(resolved, numerics, memo=None):
            reached.append(resolved.c_prime)
            raise Solve

        monkeypatch.setattr(scenarios, "_Point", point)
        cfg = build_config("wigner_panels", preset="paper-2013")
        out = run_scenario(cfg)
        assert reached == [resolve_point(cfg.params, "effective").c_prime,
                           0.01]
        assert reached[0] == pytest.approx(8.8082, abs=1e-4)
        assert [f["index"] for f in out.failed_points] == [0, 1]
        assert all(f["error"].startswith("Solve") for f in out.failed_points)
        assert out.report["error"] == "no wigner panel completed"
        assert not out.grids and not out.tables

    def test_failed_panel_keeps_the_clean_one(self, tmp_path, monkeypatch):
        # each panel is isolated like a sweep point: the first panel's
        # grids and rows are written, the second is listed as failed
        real = scenarios.wigner_from_density
        calls = []

        def second_fails(rho, grid):
            calls.append(rho.space.field_dim)
            if len(calls) == 2:
                raise RuntimeError("synthetic panel failure")
            return real(rho, grid)

        monkeypatch.setattr(scenarios, "wigner_from_density", second_fails)
        out = tmp_path / "run"
        assert main(["wigner_panels", "--out", str(out),
                     "--set", "numerics.field_dim=16",
                     "--set", "numerics.grid_points=25"]) == 3
        assert len(calls) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["products"] == ["wigner_summary.csv",
                                        "wigner_c10_bare.txt",
                                        "wigner_c10_lasing.txt"]
        assert sorted(manifest["panels"]) == ["wigner_c10_bare",
                                              "wigner_c10_lasing"]
        [failed] = manifest["failed_points"]
        assert failed["index"] == 1
        assert failed["axis_value"] == 0.01
        assert "synthetic panel failure" in failed["error"]
        assert "error" not in manifest
        rows = (out / "wigner_summary.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:2] for row in rows] == [["10", "lasing"],
                                                        ["10", "bare"]]

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
# BLAS threads

class TestOneBlasThread:
    """``run_scenario`` runs on one BLAS thread and gives the caller's
    thread counts back however the scenario ends."""

    @pytest.fixture()
    def controls(self):
        # scipy's OpenBLAS loads with scipy.linalg, whichever test ran first
        import scipy.linalg  # noqa: F401

        # the caller runs two threads on each library during the test
        controls = scenarios._blas_thread_controls()
        if not controls:
            pytest.skip("this BLAS exports no OpenBLAS thread controls")
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        yield controls
        for (_, set_), count in zip(controls, saved):
            set_(count)

    @staticmethod
    def _counts(controls) -> list[int]:
        return [get() for get, _ in controls]

    def _recording_solve(self, controls, monkeypatch) -> list:
        seen = []
        solve = scenarios._solve_steady_checked

        def recording(*args, **kwargs):
            seen.append(self._counts(controls))
            return solve(*args, **kwargs)

        monkeypatch.setattr(scenarios, "_solve_steady_checked", recording)
        return seen

    @staticmethod
    def _small_sweep() -> RunConfig:
        return build_config(
            "single_laser", preset="desk",
            overrides={"sweep": {"param": "c_tilde", "start": 1.0,
                                 "stop": 2.0, "steps": 2},
                       "numerics": {"field_dim": 16}})

    def test_numpy_and_scipy_each_have_their_controls(self, controls):
        # numpy's and scipy's wheels each bundle their own OpenBLAS
        assert len(controls) == 2
        assert self._counts(controls) == [2, 2]

    def test_one_thread_inside_and_the_callers_count_after(
            self, controls, monkeypatch):
        seen = self._recording_solve(controls, monkeypatch)
        out = run_scenario(self._small_sweep())
        assert len(out.tables["single_laser"].rows) == 2
        assert seen == [[1, 1], [1, 1]]
        assert self._counts(controls) == [2, 2]

    def test_numerical_failure_restores_the_callers_count(
            self, controls, monkeypatch):
        seen = []

        def failing(*args, **kwargs):
            seen.append(self._counts(controls))
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scenarios, "schrodinger_evolve", failing)
        cfg = build_config("rwa_validate", preset="desk",
                           overrides={"params": {"gt_max": 0.2},
                                      "numerics": {"field_dim": 6}})
        with pytest.raises(np.linalg.LinAlgError):
            run_scenario(cfg)
        assert seen == [[1, 1]]
        assert self._counts(controls) == [2, 2]

    def test_a_fresh_run_pins_numpys_library_in_its_first_solve(self):
        # a steady-state run in a fresh interpreter loads no scipy
        # subpackage, so numpy's OpenBLAS is the one library, and the
        # first solve already sees it on one thread
        code = textwrap.dedent("""
            import json, sys
            from squeezed_lasing import lindblad, scenarios
            counts = lambda: [get() for get, _ in
                              scenarios._blas_thread_controls()]
            seen, factor = [], lindblad.splu
            def recording(*args):
                seen.append(counts())
                return factor(*args)
            lindblad.splu = recording
            scenarios.run_scenario(scenarios.build_config(
                "single_laser", overrides={"numerics": {"field_dim": 6}}))
            print(json.dumps([seen[0], counts(),
                              "scipy.linalg" in sys.modules]))
        """)
        src = str(Path(scenarios.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        during, after, scipy_loaded = json.loads(run.stdout)
        assert not scipy_loaded
        if not after:
            pytest.skip("this BLAS exports no OpenBLAS thread controls")
        assert during == [1]
        assert after == [2]

    def test_without_controls_it_changes_nothing(self, controls, monkeypatch):
        # an MKL or Accelerate build exports none of the OpenBLAS names
        monkeypatch.setattr(scenarios, "_blas_thread_controls", lambda: [])
        seen = self._recording_solve(controls, monkeypatch)
        out = run_scenario(self._small_sweep())
        assert len(out.tables["single_laser"].rows) == 2
        assert seen == [[2, 2], [2, 2]]
        assert self._counts(controls) == [2, 2]


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
        body = np.array([[float(v) for v in ln.split()] for ln in lines[3:]])
        assert body.shape == (17 * 17, 3)
        grid = result.grids["wigner_c1_bare"].grid
        x, p, w = (col.reshape(17, 17) for col in body.T)
        # .17g round-trips doubles exactly
        assert np.array_equal(x, np.broadcast_to(grid.x_centers[:, None], x.shape))
        assert np.array_equal(p, np.broadcast_to(grid.p_centers[None, :], p.shape))
        assert np.array_equal(w, result.grids["wigner_c1_bare"].values)

    @staticmethod
    def _grid_text(chash, field):
        # the grid writer as it ran before it shared and streamed its text
        g = field.grid
        lines = [f"# config_hash: {chash}",
                 f"# frame: {field.basis_tag.value} "
                 f"squeeze_r: {format(float(field.squeeze_r), '.17g')}",
                 "# columns: x p w"]
        ps = [format(p, ".17g") for p in g.p_centers.tolist()]
        for x, row in zip(g.x_centers.tolist(), field.values.tolist()):
            xi = format(x, ".17g")
            lines += [f"{xi} {p} {format(w, '.17g')}" for p, w in zip(ps, row)]
        return ("\n".join(lines) + "\n").encode()

    def _assert_grids_written_as_before(self, out_dir, cfg, result):
        write_outputs(out_dir, cfg, result)
        for name, field in result.grids.items():
            assert ((out_dir / f"{name}.txt").read_bytes()
                    == self._grid_text(cfg.config_hash, field)), name

    @pytest.fixture()
    def panels_config(self):
        over = {"params": {"c_prime": 1.0, "c_prime_alt": 2.0},
                "numerics": {"field_dim": 24, "grid_points": 17}}
        return build_config("wigner_panels", preset="desk", file_data=over)

    def test_grid_files_match_the_per_grid_writer(self, tmp_path,
                                                  panels_config):
        # each lasing grid and its bare twin share one values array
        result = run_scenario(panels_config)
        assert (result.grids["wigner_c1_bare"].values
                is result.grids["wigner_c1_lasing"].values)
        self._assert_grids_written_as_before(tmp_path, panels_config, result)

    def test_grids_of_one_shape_do_not_share_text(self, tmp_path,
                                                  panels_config):
        grid = PhaseGrid(x_min=-6.0, x_max=6.0, p_min=-6.0, p_max=6.0,
                         nx=20, np=20)
        x, p = grid.mesh()
        result = ScenarioOutput()
        for name, width in (("a", 1.0), ("b", 1.2)):
            values = (np.exp(-(x**2 + p**2) / (2 * width**2))
                      / (2 * math.pi * width**2))
            values.setflags(write=False)
            result.grids[name] = WignerField(grid=grid, values=values,
                                             basis_tag=ModeBasis.MODE_A)
        self._assert_grids_written_as_before(tmp_path, panels_config, result)

    def test_grid_values_at_the_edges_of_the_double_format(self, tmp_path,
                                                           panels_config):
        grid = PhaseGrid(x_min=-1.0, x_max=1.0, p_min=-1.0, p_max=1.0,
                         nx=64, np=64)
        rng = np.random.default_rng(7)
        # near-uniform doubles, most of which need all 17 digits
        values = (1 + rng.uniform(-1e-3, 1e-3, (64, 64))) / 4.0
        edges = [5e-324, -0.0, 1e-300, 0.1 + 0.2, 1 / 3, 2.0**-1074 * 3]
        values[0, :len(edges)] = edges
        field = WignerField(grid=grid, values=values,
                            basis_tag=ModeBasis.MODE_A)
        result = ScenarioOutput(grids={"edges": field})
        self._assert_grids_written_as_before(tmp_path, panels_config, result)
        lines = (tmp_path / "edges.txt").read_text().splitlines()[3:]
        assert lines[1].endswith(" -0")
        assert lines[3].endswith(" 0.30000000000000004")
        w = np.array([float(ln.split()[2]) for ln in lines]).reshape(64, 64)
        assert w.tobytes() == field.values.tobytes()
