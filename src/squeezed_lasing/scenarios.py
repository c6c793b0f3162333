"""Configuration-driven experiment harness over the physics modules.

A :class:`RunConfig` names a scenario, a flat parameter mapping, an
optional 1-D sweep, and numerical settings.  Building it resolves and
checks the parameters of every point the run will solve
(``resolve_point``), so bad input anywhere on a sweep axis, or an axis
that changes nothing, is a ``ConfigError`` before the first solve.
``run_scenario`` returns tables, Wigner grids, and a report;
``write_outputs`` serializes them (CSV for sweeps, JSON for the
manifest, plain x/p/w triples for Wigner fields) with the configuration
hash embedded in every file.

Every sweep point, and every Wigner panel, runs one pipeline: a
``_Point`` solves the steady state of its resolved working point,
growing the field dimension while the top Fock levels hold weight; each
solve starts from the band of coherences that the point's mean-field
ansatz predicts, and ``steady_state`` sizes the band from there.
Each column of a scenario's spec then names a quantity of the point
(reduced-field observables, mean field, ansatz fidelity, effective vs
full model), computed once, on first use.  Sweep points run serially,
in axis order, in the calling thread: a point may probe, grow its band
or retry, and its multifrontal LUs run their front loop in Python,
which has not been measured under threads.  A point or a panel that
fails is logged and listed in ``failed_points``, and the others still
run.  Truncation health is one measured value, the population in the
top Fock levels of the reduced field: it comes back as the row's
``truncation_flag`` and as log records, never as a Python warning.

Two parameter families are understood: dimensionless ratios
(``kappa_over_gamma``, ``c_tilde``, ``epsilon_over_g``, ...), with rates
in units of the qubit decay gamma and frequencies in units of the bare
coupling g, both fixed at 1 since the results depend only on the ratios,
and circuit values in GHz (``epsilon_ghz``, ...).  ``_pick`` holds the
one rule between them.  Either way the two drives sit exactly on the
sidebands epsilon -/+ omega; detuned drives are built on
``SystemParams`` in the library.
Everything stays deterministic: no randomness and no timestamps.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cache, cached_property, partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .dressing import (
    DegenerateDressingError,
    DressedCoupling,
    SystemParams,
    dress,
    effective_H,
    interaction_picture_hamiltonian,
    resonance_audit,
    small_amplitude_estimates,
)
from .fock import (
    HilbertSpace,
    annihilation,
    expectation,
    hermiticity_error,
    qubit_ops,
    truncation_edge,
)
from .lindblad import (
    adiabatic_elimination_ok,
    fidelity,
    model_single_qubit_laser,
    model_squeezed_laser_effective,
    model_two_qubit_full,
    partial_trace,
    predicted_band,
    schrodinger_evolve,
    steady_state,
)
from .meanfield import MFParams, gaussian_mf_solution, mf_ansatz, mf_residual, mf_steady
from .wigner import WignerField, grid_for_density, wigner_change_basis, wigner_from_density

log = logging.getLogger("squeezed_lasing.scenarios")

SCENARIO_NAMES = (
    "dress_audit",
    "rwa_validate",
    "single_laser",
    "squeezed_laser",
    "two_qubit_full",
    "fidelity_sweep",
    "wigner_panels",
    "mf_compare",
)
# the two that read the drives and solve no steady state
_DRIVE_SCENARIOS = ("dress_audit", "rwa_validate")

# every parameter key a config or a sweep axis may reference
PARAM_KEYS = frozenset({
    "kappa_over_gamma", "c_tilde", "c_prime", "c_prime_alt",
    "eta1", "eta2", "r", "gprime_ratio", "include_full",
    "epsilon_over_g", "omega_over_g", "gt_max", "start_excited",
    "epsilon_ghz", "omega_ghz", "g_ghz", "gamma_ghz", "kappa_ghz",
    "g_prime_ghz", "gamma_prime_ghz",
})

class ConfigError(ValueError):
    """The run configuration is malformed or incomplete."""


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter on a uniform grid."""

    param: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.param not in PARAM_KEYS:
            raise ConfigError(f"unknown sweep parameter {self.param!r}")
        if self.param == "include_full":
            raise ConfigError("include_full switches columns on or off; "
                              "it is not a sweep axis")
        _finite("sweep range", self.start, self.stop)
        if self.stop < self.start:
            raise ConfigError("sweep stop must not precede start")
        if self.steps < 1:
            raise ConfigError("sweep needs at least one step")

    def values(self) -> np.ndarray:
        try:
            return np.linspace(self.start, self.stop, self.steps)
        except (ValueError, MemoryError) as exc:  # more than numpy holds
            raise ConfigError(f"sweep.steps = {self.steps}: {exc}") from None


# Past these a run would take about a gigabyte, and is refused when the
# config is built.  Desk wigner_panels (both panels) measured 52 MB and
# 0.6 s at 129^2 points per grid and 268 MB and 10 s at 1025^2: about
# 210 B and 9 us per grid cell.  Desk rwa_validate measured 36 MB and
# 1.5 s at 61 stored samples and 1.08 GB and 26 s at 1e6: about 1 KB and
# 24 us per sample (field_dim 8; the states grow with field_dim).
_GRID_MAX_POINTS = 2048
_STORE_MAX_POINTS = 1_000_000


@dataclass(frozen=True)
class NumericsSpec:
    field_dim: int = 40
    # accepted and hashed but unread: the ansatz integrates the ring phase
    # exactly
    n_phases: int = 64
    grid_points: int = 129
    truncation_retries: int = 1
    store_points: int = 61

    def __post_init__(self):
        if self.field_dim < 2:
            raise ConfigError("field_dim must be at least 2")
        if self.n_phases < 16:
            raise ConfigError("n_phases must be at least 16")
        if self.grid_points < 16:
            raise ConfigError("grid_points must be at least 16")
        if self.grid_points > _GRID_MAX_POINTS:
            cells = float(self.grid_points) ** 2
            raise ConfigError(
                f"numerics.grid_points = {self.grid_points} asks for "
                f"{cells:.3g} cells per Wigner grid, about "
                f"{210 * cells:.3g} bytes; at most {_GRID_MAX_POINTS} "
                "points per axis are accepted")
        if self.truncation_retries < 0:
            raise ConfigError("truncation_retries must be non-negative")
        if self.store_points < 2:
            raise ConfigError("store_points must be at least 2")
        if self.store_points > _STORE_MAX_POINTS:
            raise ConfigError(
                f"numerics.store_points = {self.store_points} asks for "
                f"{self.store_points:.3g} stored samples, about "
                f"{1000.0 * self.store_points:.3g} bytes; at most "
                f"{_STORE_MAX_POINTS:.0e} are accepted")


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: dict
    sweep: SweepSpec | None
    numerics: NumericsSpec
    # what each operation reads (``_resolve_run``), checked when the config
    # is built and kept out of canonical() and the hash
    points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose from {', '.join(SCENARIO_NAMES)}")
        bad = set(self.params) - PARAM_KEYS
        if bad:
            raise ConfigError(f"unknown parameter names: {sorted(bad)}")
        for key, value in self.params.items():
            _finite(f"parameter {key!r}", _number(value, f"parameter {key!r}"))
        if self.sweep is not None and self.scenario not in _COLUMNS:
            raise ConfigError(f"scenario {self.scenario!r} does not sweep")
        try:
            points = _resolve_run(self)
        except ArithmeticError as exc:  # a GHz product past float range
            raise ConfigError(f"parameters out of range: {exc}") from None
        object.__setattr__(self, "points", points)

    def axis(self) -> tuple[str | None, list]:
        """The swept parameter and its values, or (None, [None])."""
        if self.sweep is None:
            return None, [None]
        return self.sweep.param, self.sweep.values().tolist()

    def canonical(self) -> dict:
        """Plain nested dict with sorted keys, the hashing/manifest form."""
        out = {
            "scenario": self.scenario,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "numerics": asdict(self.numerics),
        }
        if self.sweep is not None:
            out["sweep"] = {"param": self.sweep.param,
                            "start": float(self.sweep.start),
                            "stop": float(self.sweep.stop),
                            "steps": self.sweep.steps}
        return out

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# presets and config assembly

_GLOBAL_PARAM_DEFAULTS = {
    "gt_max": 3.0,
    "start_excited": 1.0,
}

# per-scenario tweaks applied before preset/file/--set layers
_SCENARIO_DEFAULTS: dict[str, dict] = {
    "rwa_validate": {"numerics": {"field_dim": 8}},
    "wigner_panels": {"numerics": {"field_dim": 60, "truncation_retries": 2},
                      "params": {"c_prime_alt": 0.01}},
    "fidelity_sweep": {"sweep": {"param": "c_tilde", "start": 1.5,
                                 "stop": 6.0, "steps": 10}},
}

PRESETS: dict[str, dict] = {
    # dimensionless working point sized so every scenario runs in minutes
    "desk": {
        "params": {
            "kappa_over_gamma": 0.1,
            "c_tilde": 5.0,
            "c_prime": 10.0,
            "eta1": 0.1,
            "eta2": 0.2,
            "gprime_ratio": 0.02,
            "epsilon_over_g": 250.0,
            "omega_over_g": 112.5,
        },
    },
    # circuit values in GHz (ordinary frequencies), resolved by _pick
    "paper-2013": {
        "params": {
            "epsilon_ghz": 10.0,
            "omega_ghz": 4.5,
            "g_ghz": 0.04,
            "gamma_ghz": 0.015,
            "kappa_ghz": 3.0e-5,
            "g_prime_ghz": 0.07,
            "gamma_prime_ghz": 0.25,
            "eta1": 0.16,
            "eta2": 0.2,
        },
    },
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def build_config(scenario: str, preset: str = "desk",
                 file_data: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Layer defaults, preset, config file, and --set overrides in order."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; "
                          f"choose from {', '.join(sorted(PRESETS))}")
    data: dict = {"params": dict(_GLOBAL_PARAM_DEFAULTS), "numerics": {}}
    data = _merge(data, _SCENARIO_DEFAULTS.get(scenario, {}))
    data = _merge(data, PRESETS[preset])
    for layer in (file_data, overrides):
        if layer:
            data = _merge(data, layer)
    file_scenario = data.pop("scenario", None)
    if file_scenario is not None and file_scenario != scenario:
        raise ConfigError(f"config file names scenario {file_scenario!r} "
                          f"but {scenario!r} was requested")
    bad = set(data) - {"params", "sweep", "numerics"}
    if bad:
        raise ConfigError(f"unknown config sections: {sorted(bad)}")
    for name in ("params", "numerics", "sweep"):
        if not isinstance(data.get(name, {}), dict):
            raise ConfigError(f"config section {name!r} must be an object")
    sweep_data = data.get("sweep")
    sweep = None
    if sweep_data:
        bad = set(sweep_data) - {"param", "start", "stop", "steps"}
        if bad:
            raise ConfigError(f"unknown sweep keys: {sorted(bad)}")
        try:
            sweep = SweepSpec(
                param=str(sweep_data["param"]),
                start=_number(sweep_data["start"], "sweep.start"),
                stop=_number(sweep_data["stop"], "sweep.stop"),
                steps=_integer(sweep_data["steps"], "sweep.steps"))
        except KeyError as exc:
            raise ConfigError(f"sweep spec is missing {exc}") from None
    try:
        numerics = NumericsSpec(**{k: _integer(v, f"numerics.{k}")
                                   for k, v in data["numerics"].items()})
    except TypeError as exc:
        raise ConfigError(f"bad numerics section: {exc}") from None
    return RunConfig(scenario=scenario, params=dict(data["params"]),
                     sweep=sweep, numerics=numerics)


def _number(value, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is beyond the float range") from None


def _integer(value, name: str) -> int:
    """An int, or a float with no fractional part (JSON's ``60.0``)."""
    if _number(value, name).is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def parse_set_override(item: str) -> dict:
    """One ``--set path.to.key=value`` fragment as a nested dict."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set needs key=value, got {item!r}")
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer past the digit limit
        value = raw
    out: dict = {}
    node = out
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# parameter resolution

def _require(params: dict, key: str) -> float:
    try:
        return float(params[key])
    except KeyError:
        raise ConfigError(f"scenario needs parameter {key!r}") from None


def _finite(name: str, *values: float) -> tuple:
    """``values``, checked to lie inside the float range."""
    if all(map(math.isfinite, values)):
        return values
    raise ConfigError(f"{name} must be finite, got "
                      f"{', '.join(map(repr, values))}")


# the GHz rates that a derivation divides by
_GHZ_DIVISORS = ("gamma_ghz", "kappa_ghz", "gamma_prime_ghz")


def _pick(params: dict, keys: tuple, ghz_keys: tuple, derive,
          unit: tuple = (), positive: bool = False) -> tuple:
    """The one precedence rule: the dimensionless ``keys`` (then ``unit``)
    if any is set, and then all must be; else ``derive`` of the GHz values
    ``ghz_keys``, which must all be set.  Every value is finite and
    non-negative, or ``positive``.  A GHz divisor among ``ghz_keys`` must
    be positive whenever it is set, so no derivation divides by zero."""
    for key in ghz_keys:
        if key in _GHZ_DIVISORS and key in params and not params[key] > 0:
            raise ConfigError(f"parameters out of range: {key} must be "
                              f"positive, got {params[key]!r}")
    name = " and ".join(keys)
    if any(key in params for key in keys):
        values = tuple(_require(params, key) for key in keys) + unit
    elif set(ghz_keys) <= params.keys():
        values = derive(*(float(params[key]) for key in ghz_keys))
    else:
        raise ConfigError(f"need {name} (or {', '.join(ghz_keys)})")
    if any(v < 0 or positive and v == 0 for v in values):
        raise ConfigError(f"{name} must be "
                          f"{'positive' if positive else 'non-negative'}")
    return _finite(name, *values)


def _check_depths(params: dict):
    """A drive depth is a modulation amplitude: reject a negative eta1 or
    eta2 wherever it is set, whether or not the point reads it."""
    for key in ("eta1", "eta2"):
        if key in params and _require(params, key) < 0:
            raise ConfigError(f"parameters out of range: {key} must be "
                              f"non-negative, got {params[key]!r}")


def _dress(eta1: float, eta2: float, g: float = 1.0) -> DressedCoupling:
    """``dress``, with balanced drive depths reported as bad
    configuration."""
    try:
        return dress(eta1, eta2, g=g)
    except DegenerateDressingError as exc:
        raise ConfigError(f"drive depths dress no mode: {exc}") from None


@dataclass(frozen=True)
class ResolvedPoint:
    """Everything one steady state reads, in units of the qubit decay.

    ``model`` is "single", "effective" (the squeezed laser after adiabatic
    elimination) or "two_qubit"; the primed fields and ``aux`` are the
    two-qubit model's, and ``full`` is that model at the same parameters
    for a fidelity sweep that adds it.
    """

    model: str
    kappa: float
    c_tilde: float
    c_prime: float
    g_tilde: float
    dressed: DressedCoupling | None = None
    gprime_ratio: float | None = None
    g_tilde_prime: float | None = None
    gamma_prime: float | None = None
    aux: DressedCoupling | None = None
    full: ResolvedPoint | None = None
    gamma = 1.0  # the unit of every rate, not a field


def resolve_point(params: dict, model: str) -> ResolvedPoint:
    """The checked working point of ``model`` at ``params``.

    Resolved in order, each ratio by ``_pick``: kappa, C' (0 for the
    single laser), C~ (with that C'), the lasing coupling, then the
    two-qubit g' ratio and auxiliary coupling.  ``dress`` runs at most
    once: swapping the depths swaps u and v, bit for bit, and keeps N.
    """
    _check_depths(params)

    @cache
    def depths() -> DressedCoupling:
        return _dress(_require(params, "eta1"), _require(params, "eta2"))

    [kappa] = _pick(params, ("kappa_over_gamma",), ("kappa_ghz", "gamma_ghz"),
                    lambda kappa_ghz, gamma_ghz: [kappa_ghz / gamma_ghz],
                    positive=True)
    c_prime = 0.0
    if model != "single":
        [c_prime] = _pick(
            params, ("c_prime",),
            ("g_prime_ghz", "gamma_prime_ghz", "kappa_ghz"),
            lambda g_prime_ghz, gamma_prime_ghz, kappa_ghz: [
                (g_prime_ghz * depths().norm_N) ** 2
                / (kappa_ghz * gamma_prime_ghz)])
    [c_tilde] = _pick(
        params, ("c_tilde",), ("g_ghz", "gamma_ghz", "kappa_ghz"),
        lambda g_ghz, gamma_ghz, kappa_ghz: [
            (g_ghz * depths().norm_N) ** 2
            / (gamma_ghz * kappa_ghz * (1.0 + c_prime))])
    [g_tilde] = _finite("g_tilde", math.sqrt(
        c_tilde * ResolvedPoint.gamma * kappa * (1.0 + c_prime)))
    rates = (model, kappa, c_tilde, c_prime, g_tilde)
    if model == "single":
        return ResolvedPoint(*rates)

    # the lasing coupling at g = 1, from r directly or from the depths; a
    # coupling at g is this one with g_tilde = g N
    if "r" in params:
        unit = DressedCoupling.from_r(float(params["r"]))
        if unit.r < 0:
            raise ConfigError("r must be non-negative")
        if unit.signature < 0:  # the two round to the same double
            raise ConfigError(f"r = {unit.r:g} is too large: cosh r = sinh r")
    else:
        unit = depths()
        if unit.signature < 0:
            raise ConfigError("eta1 > eta2 dresses the creation-like branch; "
                              "swap the depths")
    n = unit.norm_N
    dressed = replace(unit, g_tilde=(g_tilde / n) * n)
    if model == "effective":
        return ResolvedPoint(*rates, dressed)

    [ratio] = _pick(
        params, ("gprime_ratio",), ("g_prime_ghz", "gamma_prime_ghz"),
        lambda g_prime_ghz, gamma_prime_ghz: [
            g_prime_ghz * depths().norm_N / gamma_prime_ghz], positive=True)
    g_tilde_prime = c_prime * kappa / ratio
    g_tilde_prime, gamma_prime = _finite("g_tilde_prime and gamma_prime",
                                         g_tilde_prime, g_tilde_prime / ratio)
    # the auxiliary qubit's depths are swapped
    aux = replace(unit, u=unit.v, v=unit.u,
                  g_tilde=(g_tilde_prime / n) * n)
    return ResolvedPoint(*rates, dressed, gprime_ratio=ratio,
                         g_tilde_prime=g_tilde_prime,
                         gamma_prime=gamma_prime, aux=aux)


# The RWA check's Dormand-Prince loop follows H(t), whose fastest phase
# turns at epsilon + omega, and attempts about 2 t_final (epsilon + omega) steps:
# 2.09, 1.85 and 2.14 times t_final (epsilon + omega) at desk, at desk
# with epsilon = 1000 g and at paper-2013.  A step takes about 25 us at
# field_dim 16 on a 2-CPU VM, so this many steps take about 50 s; a run
# predicted past it is refused before it starts.
_RWA_MAX_STEPS = 2_000_000

# Bytes per field_dim^2 of the dense arrays that a run holds at its
# peak: 112, 144 and 176 B per entry of d x d, d = 2 field_dim (4
# field_dim for the two-qubit model).  They were measured by tracemalloc
# at field_dim 150-500 on the build of each model when its operators
# were dense d x d arrays; the build now holds only their nonzeros
# (``fock.Operator``, 0.5 MB at field_dim 800).  The values stay, so
# that no run's refusal moves, and now stand in for the dense work after
# the build: the state, its checks and the ansatz.  A whole fd-500
# paper-2013 C' = 0.01 effective point (solve, checks and the ansatz's
# fidelity) peaked at 679 B per field_dim^2 under tracemalloc (935 with
# dense operators), against the 576 here.  The RWA run holds 320: its
# four stacked couplings and one step's five H(t) and -i H(t).  A run
# predicted past _FIELD_MAX_BYTES at the largest field_dim its truncation
# retries reach is refused before it starts.  This keeps a run inside an
# 8 GB machine; the fd-800 panels at 2 retries predict 1.87e9 bytes
# (field_dim 1800).
_DENSE_BYTES = {"single": 4 * 112, "effective": 4 * 144,
                "two_qubit": 16 * 176, "rwa": 4 * 320}
_FIELD_MAX_BYTES = 2**31


@dataclass(frozen=True)
class ResolvedDrives:
    """What ``dress_audit`` and ``rwa_validate`` read: the system, its
    coupling dressed at the bare g, and the RWA run's length and start.
    ``t_final`` = gt_max / g~ is set for ``rwa_validate`` only."""

    system: SystemParams
    reference: DressedCoupling
    gt_max: float
    start_excited: float
    t_final: float | None = None


def _resolve_drives(params: dict, evolve: bool) -> ResolvedDrives:
    """The checked drives, at absolute frequencies for the Hamiltonian
    builders, and with ``evolve`` the length of the RWA run.

    The dimensionless pair is in units of g (g = 1).  GHz inputs are
    ordinary frequencies; the 2*pi enters here and only here, leaving
    everything downstream in angular units (rad/ns).  The drives sit on
    the two sidebands either way.
    """
    eta1, eta2 = _require(params, "eta1"), _require(params, "eta2")
    _check_depths(params)
    scale = 2.0 * math.pi
    eps, om, g = _pick(params, ("epsilon_over_g", "omega_over_g"),
                       ("epsilon_ghz", "omega_ghz", "g_ghz"),
                       lambda *ghz: [scale * f for f in ghz], unit=(1.0,))
    try:
        system = SystemParams.at_sidebands(eps, om, g, eta1, eta2)
    except ValueError as exc:
        raise ConfigError(f"system parameters out of range: {exc}") from None
    gt_max = _require(params, "gt_max")
    if not gt_max > 0:
        raise ConfigError(f"gt_max must be positive, got {gt_max!r}")
    start_excited = _require(params, "start_excited")
    if start_excited not in (0, 1):
        raise ConfigError("start_excited must be 0 (start in |g,0>) or 1 "
                          f"(start in |e,0>), got {start_excited!r}")
    reference = _dress(eta1, eta2, g=g)
    t_final = None
    if evolve:  # a small g~ can carry gt_max / g~ past the float range
        [t_final] = _finite("t_final = gt_max / g_tilde",
                            gt_max / reference.g_tilde)
        steps = 2 * t_final * (eps + om)
        if steps > _RWA_MAX_STEPS:
            eps_key = ("epsilon_over_g" if "epsilon_over_g" in params
                       else "epsilon_ghz")
            raise ConfigError(
                f"the RWA run would take about {steps:.3g} integrator "
                f"steps, 2 t_final (epsilon + omega), past the "
                f"{_RWA_MAX_STEPS:.0e} that finish in about a minute: "
                f"lower {eps_key} ({params[eps_key]!r}) or gt_max "
                f"({gt_max!r})")
    return ResolvedDrives(system, reference, gt_max, start_excited, t_final)


def _check_field(numerics: NumericsSpec, models: set[str],
                 retries: int) -> None:
    """Refuse a run whose largest model, at its field_dim grown 1.5 times
    by each of ``retries`` truncation retries, would hold more than
    _FIELD_MAX_BYTES of dense arrays (``_DENSE_BYTES``), naming the key
    that takes it there."""
    rate = max(_DENSE_BYTES[m] for m in models)
    fd = numerics.field_dim
    for retry in range(retries + 1):
        fd = math.ceil(fd * 1.5) if retry else fd
        size = rate * float(fd) * fd
        if size > _FIELD_MAX_BYTES:
            key = "truncation_retries" if retry else "field_dim"
            raise ConfigError(
                f"numerics.{key} = {getattr(numerics, key)} asks for dense "
                f"operators of about {size:.3g} bytes at field_dim {fd}; "
                f"at most {_FIELD_MAX_BYTES:.3g} are accepted")


def _resolve_run(config: RunConfig) -> tuple:
    """The record of each operation of a run: each sweep point, each
    Wigner panel's C', or the drives of a scenario that solves nothing."""
    params, scenario = config.params, config.scenario
    if scenario == "rwa_validate":
        _check_field(config.numerics, {"rwa"}, 0)
    if scenario in _DRIVE_SCENARIOS:
        return (_resolve_drives(params, scenario == "rwa_validate"),)
    if scenario == "wigner_panels":
        panels = [resolve_point(params, "effective")]
        alt = _require(params, "c_prime_alt")
        if alt != panels[0].c_prime:
            if _panel_stem(alt) == _panel_stem(panels[0].c_prime):
                raise ConfigError(
                    f"c_prime {panels[0].c_prime!r} and c_prime_alt "
                    f"{alt!r} differ but share the panel name "
                    f"{_panel_stem(alt)!r}; set them further apart")
            panels.append(resolve_point(dict(params, c_prime=alt),
                                        "effective"))
        _check_field(config.numerics, {"effective"},
                     config.numerics.truncation_retries)
        return tuple(panels)
    include_full = params.get("include_full", 0.0)
    if include_full not in (0, 1):
        raise ConfigError("include_full must be 0 (effective model only) or "
                          f"1 (add the two-qubit model), got {include_full!r}")
    axis, values = config.axis()
    base = dict(params)
    # a coupling-ratio axis only means something for the two-qubit model
    if scenario == "fidelity_sweep" and axis == "gprime_ratio":
        base.setdefault("include_full", 1.0)
    with_full = scenario == "fidelity_sweep" and base.get("include_full") == 1
    points = []
    for value in values:
        at = base if axis is None else {**base, axis: value}
        point = resolve_point(at, _COLUMNS[scenario][0])
        if with_full:
            point = replace(point, full=resolve_point(at, "two_qubit"))
        points.append(point)
    if len(set(values)) > 1 and len(set(points)) == 1:
        raise ConfigError(f"sweeping {axis!r} changes nothing in {scenario}: "
                          "every value resolves to the same working point")
    _check_field(config.numerics, {p.model for p in points}
                 | {p.full.model for p in points if p.full is not None},
                 config.numerics.truncation_retries)
    return tuple(points)


# ---------------------------------------------------------------------------
# scenario outputs

@dataclass
class Table:
    columns: tuple[str, ...]
    rows: list[tuple]


@dataclass
class ScenarioOutput:
    tables: dict[str, Table] = field(default_factory=dict)
    grids: dict[str, WignerField] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    failed_points: list[dict] = field(default_factory=list)


# A state whose truncation edge (``fock.truncation_edge``) reaches this
# population is truncation-limited.
_TRUNCATION_TOL = 1e-6


def _solved(build, fd: int, solved: dict, band_start) -> tuple:
    """The steady state of ``build(fd)`` and its reduced field (the last
    factor), from ``solved`` (field_dim -> that pair) when it holds them,
    else solved from the band ``band_start(fd)`` up and added to it."""
    if fd not in solved:
        me = build(fd)
        rho = steady_state(me, band=band_start(fd))
        solved[fd] = rho, partial_trace(rho, keep=[me.space.n_qubits])
    return solved[fd]


def _solve_steady_checked(build, field_dim: int, retries: int,
                          solved: dict | None, band_start):
    """Steady state with the field dimension retried 1.5x on bad truncation.

    ``build(field_dim)`` returns the master equation; its field is the
    last factor of its space.  ``solved`` holds the states of this model
    already solved, by field_dim, and ``band_start`` gives the first band
    of coherences tried at a field_dim (``_solved``).  Returns (full
    state, reduced field state, field_dim used, flagged).  The edge
    population of each attempt's reduced field is measured once; a state
    still over the edge after the last retry is logged and flagged.
    """
    solved = {} if solved is None else solved
    fd = field_dim
    for attempt in range(retries + 1):
        rho, reduced = _solved(build, fd, solved, band_start)
        edge = truncation_edge(reduced)
        if edge < _TRUNCATION_TOL:
            return rho, reduced, fd, False
        if attempt < retries:
            new_fd = math.ceil(fd * 1.5)
            log.info("field_dim %d truncation-limited (edge %.2e); "
                     "retrying with %d", fd, edge, new_fd)
            fd = new_fd
    log.warning("truncation still unhealthy at field_dim %d (edge %.2e); "
                "flagging point", fd, edge)
    return rho, reduced, fd, True


class _Point:
    """One sweep point of one model and what its columns derive from it.

    Construction runs the checked steady state of ``resolved``, the
    point's working point; every other quantity is computed once, on
    first use.  ``memo`` is the run's: it holds what depends only on the
    effective model of the point's working point (its dressed coupling,
    rates and C'), so that points along an axis that leaves that model
    alone, such as the g' ratio, share it.  That is the effective model's
    states and reduced fields (by field_dim) and the ansatz states (by
    field_dim and |F|).  A point whose effective model differs from the
    one the memo holds empties it first, so it keeps one model's states.
    """

    def __init__(self, resolved: ResolvedPoint, numerics: NumericsSpec,
                 memo: dict):
        self.resolved, self.numerics = resolved, numerics
        self.dressed = resolved.dressed
        effective = (self.dressed, resolved.gamma, resolved.kappa,
                     resolved.c_prime)
        if memo.get("effective model") != effective:
            memo.clear()
            memo["effective model"] = effective
        self._memo = memo
        self._effective = memo.setdefault("effective states", {})
        self.rho, self.field, self.field_dim, flagged = _solve_steady_checked(
            self._build, numerics.field_dim, numerics.truncation_retries,
            self._effective if resolved.model == "effective" else None,
            self._band_start)
        self.truncation_flag = int(flagged)

    def _band_start(self, fd: int) -> int:
        """The first band at ``fd``: the ansatz's prediction, or the whole
        sector for the single laser, which has no pair two photons apart."""
        if self.dressed is None:
            return fd - 1
        return predicted_band(fd, partial(self._ansatz, fd))

    def _build(self, fd: int, model: str | None = None):
        r = self.resolved
        model = model or r.model
        space = HilbertSpace(n_qubits=2 if model == "two_qubit" else 1,
                             field_dim=fd)
        if model == "single":
            return model_single_qubit_laser(r.g_tilde, r.gamma, r.kappa,
                                            space)
        if model == "two_qubit":
            return model_two_qubit_full(self.dressed, r.aux, r.gamma,
                                        r.gamma_prime, r.kappa, space)
        return model_squeezed_laser_effective(self.dressed, r.gamma, r.kappa,
                                              r.c_prime, space)

    @cached_property
    def trace_error(self) -> float:
        return float(abs(np.trace(self.rho.matrix).real - 1.0))

    @cached_property
    def hermiticity_error(self) -> float:
        return hermiticity_error(self.rho.matrix)

    @cached_property
    def purity(self) -> float:
        return float(np.trace(self.field.matrix @ self.field.matrix).real)

    @cached_property
    def n_mode(self) -> float:
        mode = annihilation(self.field.space)
        return expectation(mode.dag() @ mode, self.field).real

    @cached_property
    def n_bare(self) -> float:
        # a dense a^dag a: its diagonal entries sum two products each, in
        # the order BLAS sums them
        a = self.dressed.bare_from_mode(self.field.space)
        return complex(np.trace(a.dag().matrix @ a.matrix
                                @ self.field.matrix)).real

    @cached_property
    def inversion(self) -> float:
        _, sigma_z, _ = qubit_ops(self.rho.space, 0)
        return expectation(sigma_z, self.rho).real

    @cached_property
    def mf(self):
        r = self.resolved
        return mf_steady(MFParams(g_tilde=r.g_tilde, gamma=r.gamma,
                                  kappa=r.kappa, C_tilde_prime=r.c_prime))

    @cached_property
    def mf_f_squared(self) -> float:
        return abs(self.mf.F) ** 2

    @cached_property
    def mf_n_mode(self) -> float:
        return self.mf_f_squared + (math.cosh(2 * self.dressed.r) - 1.0) \
            / (2.0 * (1.0 + self.resolved.c_prime))

    def _ansatz(self, fd: int):
        """The mean-field ansatz of the point's field at ``fd``, from the
        run's memo (by field_dim and |F|) or formed and added to it."""
        f_mag = abs(self.mf.F)
        key = ("ansatz", fd, f_mag)
        if key not in self._memo:
            self._memo[key] = mf_ansatz(
                f_mag, self.resolved.c_prime, self.dressed.r,
                HilbertSpace(n_qubits=0, field_dim=fd))
        return self._memo[key]

    @cached_property
    def fidelity_ansatz(self) -> float:
        """Of the field against the ansatz at the point's field_dim.  An
        ansatz whose own top levels hold weight is logged, once per
        ansatz, since this fidelity then measures its truncation too.  The
        edge is read on the ansatz the fidelity is taken against, which is
        renormalised over the kept levels: weight the ansatz has past
        field_dim raises its top levels' share, so it is not hidden."""
        ansatz = self._ansatz(self.field_dim)
        key = ("ansatz edge", self.field_dim, abs(self.mf.F))
        if key not in self._memo:
            self._memo[key] = edge = truncation_edge(ansatz)
            if edge >= _TRUNCATION_TOL:
                log.warning("ansatz truncation-limited at field_dim %d "
                            "(edge %.2e)", self.field_dim, edge)
        return fidelity(self.field, ansatz)

    @cached_property
    def gaussian_residual(self) -> float:
        fbar = complex(abs(self.mf.F))
        c_prime, r = self.resolved.c_prime, self.dressed.r
        return mf_residual(gaussian_mf_solution(fbar, c_prime, r), fbar,
                           c_prime, r, self.field.space)

    @cached_property
    def fidelity_vs_effective(self) -> float:
        """Against the effective model's field at this field_dim, from a
        solve whose truncation is not checked, on a band sized as the
        point's own, unless the memo already holds one."""
        _, effective = _solved(lambda fd: self._build(fd, "effective"),
                               self.field_dim, self._effective,
                               self._band_start)
        return fidelity(self.field, effective)

    @cached_property
    def adiabatic_ok(self) -> int:
        r = self.resolved
        ok = adiabatic_elimination_ok(r.gamma_prime, r.g_tilde_prime,
                                      self.n_bare)
        log.info("adiabatic elimination %s at gprime_ratio=%.4g "
                 "(gamma'=%.4g, g~'=%.4g, <a^dag a>=%.4g)",
                 "valid" if ok else "questionable", r.gprime_ratio,
                 r.gamma_prime, r.g_tilde_prime, self.n_bare)
        return int(ok)

    @cached_property
    def full(self) -> "_Point":
        """The two-qubit model at the same parameters."""
        return _Point(self.resolved.full, self.numerics, self._memo)

    @cached_property
    def truncation_flag_with_full(self) -> int:
        return max(self.truncation_flag, self.full.truncation_flag)


# per scenario: the model, then each column as (name, attribute path on
# _Point); the names and their order are the artefact format
_CHECKS = (("field_dim", "field_dim"), ("truncation_flag", "truncation_flag"),
           ("trace_error", "trace_error"),
           ("hermiticity_error", "hermiticity_error"))
_FIDELITY_SWEEP = (
    ("c_tilde", "resolved.c_tilde"), ("fidelity_effective", "fidelity_ansatz"),
    ("n_mode", "n_mode"), ("n_bare", "n_bare"), ("inversion_d", "inversion"),
    ("purity", "purity"))
_COLUMNS = {
    "single_laser": ("single", (
        ("c_tilde", "resolved.c_tilde"), ("n_photons", "n_mode"),
        ("inversion_d", "inversion"), ("purity", "purity"), *_CHECKS)),
    "squeezed_laser": ("effective", (
        ("c_tilde", "resolved.c_tilde"), ("c_prime", "resolved.c_prime"),
        ("n_mode", "n_mode"), ("n_bare", "n_bare"),
        ("inversion_d", "inversion"), ("mf_f_squared", "mf_f_squared"),
        ("fidelity_ansatz", "fidelity_ansatz"), ("purity", "purity"),
        *_CHECKS)),
    "two_qubit_full": ("two_qubit", (
        ("gprime_ratio", "resolved.gprime_ratio"),
        ("c_tilde", "resolved.c_tilde"),
        ("n_mode", "n_mode"), ("n_bare", "n_bare"),
        ("fidelity_ansatz", "fidelity_ansatz"),
        ("fidelity_vs_effective", "fidelity_vs_effective"),
        ("purity", "purity"), ("adiabatic_ok", "adiabatic_ok"), *_CHECKS)),
    "fidelity_sweep": ("effective", _FIDELITY_SWEEP + _CHECKS),
    "mf_compare": ("effective", (
        ("c_tilde", "resolved.c_tilde"), ("mf_f_squared", "mf_f_squared"),
        ("mf_inversion", "mf.D"), ("exact_inversion", "inversion"),
        ("mf_n_mode", "mf_n_mode"), ("exact_n_mode", "n_mode"),
        ("fidelity_ansatz", "fidelity_ansatz"),
        ("gaussian_residual", "gaussian_residual"), *_CHECKS)),
}
# fidelity_sweep with include_full: the flag covers both models, and the
# two-qubit columns follow the checks
_FIDELITY_SWEEP_FULL = _FIDELITY_SWEEP + (
    ("field_dim", "field_dim"),
    ("truncation_flag", "truncation_flag_with_full"), *_CHECKS[2:],
    ("gprime_ratio", "full.resolved.gprime_ratio"),
    ("fidelity_full", "full.fidelity_ansatz"),
    ("fidelity_full_vs_effective", "full.fidelity_vs_effective"))


def _evaluate_point(scenario: str, resolved: ResolvedPoint,
                    numerics: NumericsSpec, memo: dict) -> dict:
    columns = (_COLUMNS[scenario][1] if resolved.full is None
               else _FIDELITY_SWEEP_FULL)
    point = _Point(resolved, numerics, memo)
    return {name: attrgetter(path)(point) for name, path in columns}


# scenario -> fn(resolved point, numerics, the run's memo) -> one row as a
# dict
_POINT_FUNCS = {name: partial(_evaluate_point, name) for name in _COLUMNS}


def _isolated(compute, failed: list[dict], index: int, axis, value):
    """``compute()``, or None with its failure logged and appended to
    ``failed``."""
    try:
        return compute()
    except Exception as exc:  # noqa: BLE001 - point isolation
        error = f"{type(exc).__name__}: {exc}"
        log.error("point %s (%s=%s) failed: %s", index, axis, value, error)
        failed.append({"index": index, "axis_value": value, "error": error})
        return None


def _run_sweep(config: RunConfig) -> ScenarioOutput:
    point_fn = _POINT_FUNCS[config.scenario]
    axis, values = config.axis()
    returned: list[dict] = []
    rows: list[tuple] = []
    failed: list[dict] = []
    memo: dict = {}
    for i, (value, resolved) in enumerate(zip(values, config.points)):
        rec = _isolated(partial(point_fn, resolved, config.numerics, memo),
                        failed, i, axis, value)
        if rec is None:
            continue
        returned.append(rec)
        row = tuple(rec.values())
        if all(math.isfinite(float(v)) for v in row):
            rows.append(row)
        else:
            failed.append({"index": i, "axis_value": value,
                           "error": "non-finite output"})

    out = ScenarioOutput(failed_points=failed)
    if not returned:
        out.report["error"] = "no sweep point completed"
        return out
    out.tables[config.scenario] = Table(columns=tuple(returned[0]), rows=rows)
    out.report["invariants"] = {
        "max_trace_error": max(r["trace_error"] for r in returned),
        "max_hermiticity_error": max(r["hermiticity_error"]
                                     for r in returned),
        "truncation_flagged": sum(int(r["truncation_flag"])
                                  for r in returned),
    }
    return out


# --- non-sweep scenarios -----------------------------------------------------

def _run_dress_audit(config: RunConfig) -> ScenarioOutput:
    [drives] = config.points
    system, dressed = drives.system, drives.reference
    try:
        est_r, est_gt = small_amplitude_estimates(system.eta1, system.eta2,
                                                  g=system.g)
    except ValueError as exc:  # outside the small-amplitude regime
        log.info("no small-amplitude estimates: %s", exc)
        est_r = est_gt = None
    report = resonance_audit(system)
    out = ScenarioOutput()
    out.report["dressing"] = {
        "u": dressed.u, "v": dressed.v, "r": dressed.r,
        "g_tilde": dressed.g_tilde, "norm_N": dressed.norm_N,
        "small_amplitude_r": est_r,
        "small_amplitude_g_tilde": est_gt,
    }
    out.report["audit"] = {
        "threshold": report.threshold,
        "kept_terms": [{"kind": t.kind, "indices": list(t.indices),
                        "detuning": t.detuning, "weight": t.weight}
                       for t in report.kept_terms],
        "first_spurious": (list(report.spurious_terms[0].indices)
                           if report.spurious_terms else None),
        "n_spurious": len(report.spurious_terms),
    }
    rows = [(t.kind, t.indices[0], t.indices[1], t.detuning, t.weight)
            for t in report.spurious_terms]
    out.tables["spurious_terms"] = Table(
        columns=("kind", "m1", "m2", "detuning", "weight"), rows=rows)
    log.info("dressing r=%.6f g~=%.6g; %d spurious terms under threshold "
             "%.4g", dressed.r, dressed.g_tilde, len(rows), report.threshold)
    return out


def _run_rwa_validate(config: RunConfig) -> ScenarioOutput:
    [drives] = config.points
    system, reference = drives.system, drives.reference
    space = HilbertSpace(n_qubits=1, field_dim=config.numerics.field_dim)
    h_full = interaction_picture_hamiltonian(system, space)
    h_eff = effective_H(reference, space).matrix
    psi0 = np.zeros(space.dim, dtype=complex)
    excited = drives.start_excited == 1
    psi0[space.basis_index(0 if excited else 1, 0)] = 1.0
    n = config.numerics.store_points
    times, psis_full = schrodinger_evolve(h_full, psi0, drives.t_final,
                                          n_store=n)
    _, psis_eff = schrodinger_evolve(h_eff, psi0, drives.t_final, n_store=n)
    fid = np.abs(np.sum(psis_full.conj() * psis_eff, axis=1)) ** 2
    rows = [(reference.g_tilde * t, t, f)
            for t, f in zip(times.tolist(), fid.tolist())]
    out = ScenarioOutput()
    out.tables["rwa_fidelity"] = Table(columns=("gt", "t", "fidelity"),
                                       rows=rows)
    out.report["rwa"] = {
        "g_tilde": reference.g_tilde,
        "min_fidelity": float(fid.min()),
        "final_fidelity": float(fid[-1]),
        "on_sidebands": system.on_sidebands,
        "initial_state": "e0" if excited else "g0",
    }
    log.info("RWA fidelity over g~t <= %.3g: min %.6f, final %.6f",
             drives.gt_max, fid.min(), fid[-1])
    return out


def ring_cut_anisotropy(w: WignerField) -> tuple[float, float, float]:
    """Cross-section variances of the positive-half axis cuts of a ring.

    Returns (variance along +x at p=0, variance along +p at x=0, their
    p-over-x ratio).  For a phase ring this compares the radial widths
    at the two principal crossings; a squeezed-member ring shows a
    large ratio, a coherent-member ring a modest one.

    Cuts are chosen by grid index, never by the sign of a coordinate:
    the x cut runs along p index ``np // 2`` and the p cut along x index
    ``nx // 2``, and each half line keeps the n // 2 cells with index
    ``(n + 1) // 2`` and up, the ones past the grid centre.  On an odd
    grid the centre cell is left out wherever roundoff puts its
    coordinate.  The panels' grids are centred on the state's mean, the
    origin for a phase ring.
    """
    grid = w.grid

    def half_line(coords, profile):
        start = (coords.size + 1) // 2
        c = coords[start:]
        q = np.clip(profile[start:], 0.0, None)
        total = q.sum()
        if total <= 0:
            raise ValueError("cut carries no positive weight")
        mu = float((q * c).sum() / total)
        return float((q * (c - mu) ** 2).sum() / total)

    var_x = half_line(grid.x_centers, w.values[:, grid.np // 2])
    var_p = half_line(grid.p_centers, w.values[grid.nx // 2, :])
    return var_x, var_p, var_p / var_x


def _panel_stem(c_prime: float) -> str:
    """The name a Wigner panel's grids start with; ``_resolve_run``
    refuses two panels that would share it."""
    return f"wigner_c{c_prime:g}"


def _wigner_panel(resolved: ResolvedPoint, numerics: NumericsSpec):
    """The steady point at ``resolved`` and, for the lasing and the bare
    frame, (label, Wigner field, cut variances)."""
    steady = _Point(resolved, numerics, {})
    grid = grid_for_density(steady.field, points=numerics.grid_points)
    w_mode = wigner_from_density(steady.field, grid)
    w_bare = wigner_change_basis(w_mode, steady.dressed.r)
    return steady, [(label, panel, ring_cut_anisotropy(panel))
                    for label, panel in (("lasing", w_mode), ("bare", w_bare))]


def _run_wigner_panels(config: RunConfig) -> ScenarioOutput:
    """One panel per C': each is isolated like a sweep point, and its
    grids and rows are committed only once both frames are built."""
    out = ScenarioOutput()
    summary_rows = []
    panel_info = {}
    for i, resolved in enumerate(config.points):
        cp = resolved.c_prime
        done = _isolated(partial(_wigner_panel, resolved, config.numerics),
                         out.failed_points, i, "c_prime", cp)
        if done is None:
            continue
        steady, frames = done
        for label, panel, (var_x, var_p, ratio) in frames:
            name = f"{_panel_stem(cp)}_{label}"
            out.grids[name] = panel
            summary_rows.append((cp, label, panel.mass,
                                 float(panel.values.min()), var_x, var_p,
                                 ratio, steady.field_dim,
                                 steady.truncation_flag))
            panel_info[name] = {"mass": panel.mass,
                                "min_value": float(panel.values.min()),
                                "cut_variance_x": var_x,
                                "cut_variance_p": var_p,
                                "anisotropy_ratio": ratio}
            log.info("panel %s: mass %.6f, min %.3e, anisotropy %.2f",
                     name, panel.mass, panel.values.min(), ratio)
    if not panel_info:
        out.report["error"] = "no wigner panel completed"
        return out
    out.tables["wigner_summary"] = Table(
        columns=("c_prime", "frame", "mass", "min_value", "cut_variance_x",
                 "cut_variance_p", "anisotropy_ratio", "field_dim",
                 "truncation_flag"),
        rows=summary_rows)
    out.report["panels"] = panel_info
    return out


# get/set thread-count symbol pairs that numpy's OpenBLAS may export: its
# 64-bit wheels bundle an ILP64 build with the 64_ suffix (scipy_-prefixed
# since numpy 2.0), its 32-bit ones an LP64 build without, and a build
# against a system OpenBLAS exports the plain names
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                        "scipy_openblas_{}_num_threads",
                        "openblas_{}_num_threads64_",
                        "openblas_{}_num_threads")


def _blas_thread_controls() -> list[tuple]:
    """The ``(get, set)`` pair of thread-count functions of numpy's
    OpenBLAS, the one library that the scenarios run on; empty for a BLAS
    without them (MKL, Accelerate)."""
    import ctypes

    import numpy.linalg._umath_linalg as numpy_lapack

    lib = ctypes.CDLL(numpy_lapack.__file__)
    for pattern in _BLAS_THREAD_SYMBOLS:
        get = getattr(lib, pattern.format("get"), None)
        set_ = getattr(lib, pattern.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return [(get, set_)]
    return []


@contextmanager
def _one_blas_thread():
    """Run the enclosed code on one BLAS thread, then restore the caller's
    thread counts, also when it raises.

    What still runs dense is small at desk scale: the multifrontal
    solve's pivot blocks, the state checks' eigvalsh and the fidelity's
    eigh, on fd-60 fields and their joint states.  A second OpenBLAS
    thread gains nothing there (on a 2-CPU machine the perfbench desk
    workloads took the same time in process, 0.10-0.13 s, either way) and
    3% on the fd-500 paper-2013 panels (3.05 s against 2.95 s).  With one
    thread the artefacts do not depend on the ``OPENBLAS_NUM_THREADS``
    the program was started with.
    """
    controls = _blas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(reversed(controls), reversed(saved)):
            set_(count)


def run_scenario(config: RunConfig) -> ScenarioOutput:
    """Execute one scenario, on one BLAS thread, and return its in-memory
    products.  Every scenario runs on numpy alone, so numpy's OpenBLAS is
    the library whose threads ``_one_blas_thread`` pins; scipy's, which
    only the tests load, is theirs to pin.
    """
    with _one_blas_thread():
        if config.scenario == "dress_audit":
            return _run_dress_audit(config)
        if config.scenario == "rwa_validate":
            return _run_rwa_validate(config)
        if config.scenario == "wigner_panels":
            return _run_wigner_panels(config)
        return _run_sweep(config)


# ---------------------------------------------------------------------------
# serialization

def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_outputs(out_dir: str | Path, config: RunConfig,
                  result: ScenarioOutput) -> dict:
    """Serialize tables, grids, and the manifest; returns the manifest."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    chash = config.config_hash
    products = []
    for name, table in sorted(result.tables.items()):
        fname = f"{name}.csv"
        lines = [f"# config_hash: {chash}", ",".join(table.columns)]
        lines += [",".join(_format_cell(v) for v in row)
                  for row in table.rows]
        (out_path / fname).write_text("\n".join(lines) + "\n")
        products.append(fname)
    # a bare-frame grid holds its lasing twin's values array
    # (wigner_change_basis) and sorts just before it, so the text of the
    # last values formatted is kept for the next grid
    w_values, w_text = None, None
    for name, grid_field in sorted(result.grids.items()):
        fname = f"{name}.txt"
        g = grid_field.grid
        if grid_field.values is not w_values:
            # the last grid's text goes first, so two are never held
            w_values, w_text = grid_field.values, None
            flat = w_values.ravel().tolist()
            # one %-pass over the grid: a format() call per cell took
            # longer
            w_text = ("%.17g\n" * len(flat) % tuple(flat)).splitlines(True)
        ps = [format(p, ".17g") + " " for p in g.p_centers.tolist()]
        with (out_path / fname).open("w") as fh:
            fh.write(f"# config_hash: {chash}\n"
                     f"# frame: {grid_field.basis_tag.value} "
                     f"squeeze_r: {_format_cell(grid_field.squeeze_r)}\n"
                     "# columns: x p w\n")
            # one row of the grid at a time, so the file's text is never
            # held whole
            for i, x in enumerate(g.x_centers.tolist()):
                xi = format(x, ".17g") + " "
                row = w_text[i * g.np:(i + 1) * g.np]
                fh.write("".join([xi + p + w for p, w in zip(ps, row)]))
        products.append(fname)
    manifest = {
        "scenario": config.scenario,
        "config": config.canonical(),
        "config_hash": chash,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
        },
        "products": products,
        "failed_points": result.failed_points,
        **result.report,
    }
    (out_path / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
