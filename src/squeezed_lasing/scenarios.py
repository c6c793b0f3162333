"""Configuration-driven experiment harness over the physics modules.

A :class:`RunConfig` names a scenario, a flat parameter mapping, an
optional 1-D sweep, and numerical settings.  ``run_scenario`` resolves
the parameters and returns tables, Wigner grids, and a report;
``write_outputs`` serializes them (CSV for sweeps, JSON for the
manifest, plain x/p/w triples for Wigner fields) with the configuration
hash embedded in every file.

Every sweep point, and every Wigner panel, runs one pipeline: a
``_Point`` resolves the rates and the dressed coupling of its model and
solves the steady state, growing the field dimension while the top Fock
levels hold weight.  Each column of a scenario's spec then names a
quantity of the point (reduced-field observables, mean field, ansatz
fidelity, effective vs full model), computed once, on first use.
Sweep points run serially, in axis order, in the calling thread: each
is one sparse LU, which holds the GIL.  Truncation health is one
measured value, the population in the top Fock levels of the reduced
field: it comes back as the row's ``truncation_flag`` and as log
records, never as a Python warning.

Two parameter families are understood.  Dimensionless keys
(``kappa_over_gamma``, ``c_tilde``, ...) drive the solvers directly in
units of the qubit decay.  Physical keys carry the circuit values in
GHz (``epsilon_ghz``, ...); ratios are derived from them when the
dimensionless key is absent, and absolute angular frequencies (rad/ns)
are formed with the 2*pi factor only where a Hamiltonian needs them.
Everything stays deterministic: no randomness and no timestamps.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path

import numpy as np
import scipy

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

# every parameter key a config or a sweep axis may reference
PARAM_KEYS = frozenset({
    "gamma", "kappa_over_gamma", "c_tilde", "c_prime", "c_prime_alt",
    "eta1", "eta2", "r", "gprime_ratio", "include_full", "theta", "g",
    "epsilon_over_g", "omega_over_g", "shift_omega1_over_g",
    "shift_omega2_over_g", "gt_max", "start_excited",
    "epsilon_ghz", "omega_ghz", "g_ghz", "gamma_ghz", "kappa_ghz",
    "g_prime_ghz", "gamma_prime_ghz",
})

_SWEEPABLE = frozenset({
    "single_laser", "squeezed_laser", "two_qubit_full", "fidelity_sweep",
    "mf_compare",
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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep range must be finite")
        if self.stop < self.start:
            raise ConfigError("sweep stop must not precede start")
        if self.steps < 1:
            raise ConfigError("sweep needs at least one step")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class NumericsSpec:
    field_dim: int = 40
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
        if self.truncation_retries < 0:
            raise ConfigError("truncation_retries must be non-negative")
        if self.store_points < 2:
            raise ConfigError("store_points must be at least 2")


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: dict
    sweep: SweepSpec | None
    numerics: NumericsSpec

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose from {', '.join(SCENARIO_NAMES)}")
        bad = set(self.params) - PARAM_KEYS
        if bad:
            raise ConfigError(f"unknown parameter names: {sorted(bad)}")
        for key, value in self.params.items():
            if not math.isfinite(_number(value, f"parameter {key!r}")):
                raise ConfigError(f"parameter {key!r} must be finite")
        if self.sweep is not None and self.scenario not in _SWEEPABLE:
            raise ConfigError(f"scenario {self.scenario!r} does not sweep")

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
    "gamma": 1.0,
    "g": 1.0,
    "theta": 0.0,
    "gt_max": 3.0,
    "start_excited": 1.0,
    "shift_omega1_over_g": 0.0,
    "shift_omega2_over_g": 0.0,
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
    # circuit values in GHz (ordinary frequencies); dimensionless ratios
    # are derived from these unless overridden
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


def _dress(eta1: float, eta2: float, g: float = 1.0) -> DressedCoupling:
    """``dress``, with balanced drive depths reported as bad configuration."""
    try:
        return dress(eta1, eta2, g=g)
    except DegenerateDressingError as exc:
        raise ConfigError(f"drive depths dress no mode: {exc}") from None


def _dressing_norm(eta1: float, eta2: float) -> float:
    return _dress(eta1, eta2).norm_N


@dataclass(frozen=True)
class ResolvedRates:
    """Dimensionless working point in units of the qubit decay."""

    gamma: float
    kappa: float
    c_tilde: float
    c_prime: float

    @property
    def g_tilde(self) -> float:
        return math.sqrt(self.c_tilde * self.gamma * self.kappa
                         * (1.0 + self.c_prime))


def resolve_rates(params: dict, *, need_c_prime: bool = True) -> ResolvedRates:
    """Dimensionless rates, derived from the GHz family when absent."""
    gamma = float(params.get("gamma", 1.0))
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    if "kappa_over_gamma" in params:
        kv = float(params["kappa_over_gamma"])
    elif "kappa_ghz" in params and "gamma_ghz" in params:
        kv = float(params["kappa_ghz"]) / float(params["gamma_ghz"])
    else:
        raise ConfigError("need kappa_over_gamma (or kappa_ghz with gamma_ghz)")
    if kv <= 0:
        raise ConfigError("kappa_over_gamma must be positive")
    if need_c_prime:
        if "c_prime" in params:
            c_prime = float(params["c_prime"])
        elif {"g_prime_ghz", "gamma_prime_ghz", "kappa_ghz"} <= params.keys():
            gtp = float(params["g_prime_ghz"]) * _dressing_norm(
                _require(params, "eta2"), _require(params, "eta1"))
            c_prime = gtp ** 2 / (float(params["kappa_ghz"])
                                  * float(params["gamma_prime_ghz"]))
        else:
            raise ConfigError("need c_prime (or the primed GHz parameters)")
        if c_prime < 0:
            raise ConfigError("c_prime must be non-negative")
    else:
        c_prime = 0.0
    if "c_tilde" in params:
        c_tilde = float(params["c_tilde"])
    elif {"g_ghz", "gamma_ghz", "kappa_ghz"} <= params.keys():
        gt = float(params["g_ghz"]) * _dressing_norm(
            _require(params, "eta1"), _require(params, "eta2"))
        c_tilde = gt ** 2 / (float(params["gamma_ghz"])
                             * float(params["kappa_ghz"]) * (1.0 + c_prime))
    else:
        raise ConfigError("need c_tilde (or the GHz parameters)")
    if c_tilde < 0:
        raise ConfigError("c_tilde must be non-negative")
    return ResolvedRates(gamma=gamma, kappa=kv * gamma,
                         c_tilde=c_tilde, c_prime=c_prime)


def _squeezing(params: dict) -> float:
    r = float(params["r"])
    if r < 0:
        raise ConfigError("r must be non-negative")
    return r


def resolve_dressing(params: dict, g_tilde: float) -> DressedCoupling:
    """Lasing-branch coupling from ``r`` directly or from the drive depths."""
    if "r" in params:
        return DressedCoupling.from_r(_squeezing(params), g_tilde=g_tilde)
    eta1, eta2 = _require(params, "eta1"), _require(params, "eta2")
    base = _dress(eta1, eta2)
    if base.signature < 0:
        raise ConfigError("eta1 > eta2 dresses the creation-like branch; "
                          "swap the depths")
    return _dress(eta1, eta2, g=g_tilde / base.norm_N)


def resolve_aux_dressing(params: dict, g_tilde_prime: float) -> DressedCoupling:
    """Swapped-branch coupling for the dissipation-engineering qubit."""
    if "r" in params:
        r = _squeezing(params)
        return DressedCoupling(u=math.sinh(r), v=math.cosh(r), r=r,
                               g_tilde=g_tilde_prime, norm_N=1.0)
    eta1, eta2 = _require(params, "eta1"), _require(params, "eta2")
    base = _dress(eta2, eta1)
    return _dress(eta2, eta1, g=g_tilde_prime / base.norm_N)


def resolve_gprime_ratio(params: dict) -> float:
    if "gprime_ratio" in params:
        ratio = float(params["gprime_ratio"])
    elif {"g_prime_ghz", "gamma_prime_ghz"} <= params.keys():
        ratio = (float(params["g_prime_ghz"]) * _dressing_norm(
            _require(params, "eta2"), _require(params, "eta1"))
            / float(params["gamma_prime_ghz"]))
    else:
        raise ConfigError("need gprime_ratio (or the primed GHz parameters)")
    if ratio <= 0:
        raise ConfigError("gprime_ratio must be positive")
    return ratio


def resolve_system_params(params: dict) -> SystemParams:
    """Absolute drive/system frequencies for the Hamiltonian builders.

    GHz inputs are ordinary frequencies; the 2*pi enters here and only
    here, leaving everything downstream in angular units (rad/ns).
    """
    eta1, eta2 = _require(params, "eta1"), _require(params, "eta2")
    if {"epsilon_ghz", "omega_ghz", "g_ghz"} <= params.keys():
        scale = 2.0 * math.pi
        eps = scale * float(params["epsilon_ghz"])
        om = scale * float(params["omega_ghz"])
        g = scale * float(params["g_ghz"])
    else:
        g = float(params.get("g", 1.0))
        eps = _require(params, "epsilon_over_g") * g
        om = _require(params, "omega_over_g") * g
    omega1 = eps - om + float(params.get("shift_omega1_over_g", 0.0)) * g
    omega2 = eps + om + float(params.get("shift_omega2_over_g", 0.0)) * g
    try:
        return SystemParams(epsilon=eps, omega=om, g=g, eta1=eta1, eta2=eta2,
                            Omega1=omega1, Omega2=omega2)
    except ValueError as exc:
        raise ConfigError(f"system parameters out of range: {exc}") from None


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


def _solve_steady_checked(build, field_dim: int, retries: int):
    """Steady state with the field dimension retried 1.5x on bad truncation.

    ``build(field_dim)`` returns (master equation, tuple of factor indices
    keeping the field).  Returns (full state, reduced field state,
    field_dim used, flagged).  The edge population of each attempt's
    reduced field is measured once; a state still over the edge after the
    last retry is logged and flagged.
    """
    fd = field_dim
    for attempt in range(retries + 1):
        me, keep = build(fd)
        rho = steady_state(me)
        reduced = partial_trace(rho, keep=keep)
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

    ``model`` is "single" (one-qubit laser), "effective" (the squeezed
    laser after adiabatic elimination) or "two_qubit".  Construction
    resolves rates and dressing and runs the checked steady state; every
    other quantity is computed once, on first use.  ``memo`` holds
    effective-model fields (by field_dim) and ansatz states (by field_dim
    and |F|); a point shares it with its two-qubit sibling ``full``.
    """

    def __init__(self, params: dict, numerics: NumericsSpec, model: str,
                 memo: dict | None = None):
        self.params, self.numerics, self.model = params, numerics, model
        self._memo = {} if memo is None else memo
        self.rates = r = resolve_rates(params, need_c_prime=model != "single")
        if model != "single":
            self.dressed = resolve_dressing(params, r.g_tilde)
        if model == "two_qubit":
            self.gprime_ratio = resolve_gprime_ratio(params)
            self.g_tilde_prime = r.c_prime * r.kappa / self.gprime_ratio
            self.gamma_prime = self.g_tilde_prime / self.gprime_ratio
            self.aux = resolve_aux_dressing(params, self.g_tilde_prime)
        self.rho, self.field, self.field_dim, flagged = _solve_steady_checked(
            self._build, numerics.field_dim, numerics.truncation_retries)
        self.truncation_flag = int(flagged)
        if model == "effective":
            self._memo["field", self.field_dim] = self.field

    def _build(self, fd: int, model: str | None = None):
        model = model or self.model
        r = self.rates
        space = HilbertSpace(n_qubits=2 if model == "two_qubit" else 1,
                             field_dim=fd)
        if model == "single":
            g = math.sqrt(r.c_tilde * r.gamma * r.kappa)
            me = model_single_qubit_laser(g, r.gamma, r.kappa, space)
        elif model == "two_qubit":
            me = model_two_qubit_full(self.dressed, self.aux, r.gamma,
                                      self.gamma_prime, r.kappa, space)
        else:
            me = model_squeezed_laser_effective(self.dressed, r.gamma,
                                                r.kappa, r.c_prime, space)
        return me, [space.n_qubits]

    @cached_property
    def trace_error(self) -> float:
        return float(abs(np.trace(self.rho.matrix).real - 1.0))

    @cached_property
    def hermiticity_error(self) -> float:
        m = self.rho.matrix
        return float(np.max(np.abs(m - m.conj().T)))

    @cached_property
    def purity(self) -> float:
        return float(np.trace(self.field.matrix @ self.field.matrix).real)

    @cached_property
    def n_mode(self) -> float:
        mode = annihilation(self.field.space)
        return expectation(mode.dag() @ mode, self.field).real

    @cached_property
    def n_bare(self) -> float:
        a_op = self.dressed.bare_from_mode(self.field.space)
        return expectation(a_op.dag() @ a_op, self.field).real

    @cached_property
    def inversion(self) -> float:
        _, sigma_z, _ = qubit_ops(self.rho.space, 0)
        return expectation(sigma_z, self.rho).real

    @cached_property
    def mf(self):
        # two-qubit rows take the free ring phase as 0, where |F| is exact
        theta = (0.0 if self.model == "two_qubit"
                 else float(self.params.get("theta", 0.0)))
        r = self.rates
        return mf_steady(MFParams(g_tilde=r.g_tilde, gamma=r.gamma,
                                  kappa=r.kappa, C_tilde_prime=r.c_prime,
                                  r=self.dressed.r), theta=theta)

    @cached_property
    def mf_f_squared(self) -> float:
        return abs(self.mf.F) ** 2

    @cached_property
    def mf_n_mode(self) -> float:
        return self.mf_f_squared + (math.cosh(2 * self.dressed.r) - 1.0) \
            / (2.0 * (1.0 + self.rates.c_prime))

    @cached_property
    def fidelity_ansatz(self) -> float:
        f_mag = abs(self.mf.F)
        key = ("ansatz", self.field_dim, f_mag)
        if key not in self._memo:
            self._memo[key] = ansatz = mf_ansatz(
                f_mag, self.rates.c_prime, self.dressed.r, self.field.space,
                n_phases=self.numerics.n_phases)
            edge = truncation_edge(ansatz)
            if edge >= _TRUNCATION_TOL:
                log.warning("ansatz truncation-limited at field_dim %d "
                            "(edge %.2e)", self.field_dim, edge)
        return fidelity(self.field, self._memo[key])

    @cached_property
    def gaussian_residual(self) -> float:
        fbar = complex(abs(self.mf.F))
        c_prime, r = self.rates.c_prime, self.dressed.r
        return mf_residual(gaussian_mf_solution(fbar, c_prime, r), fbar,
                           c_prime, r, self.field.space)

    @cached_property
    def fidelity_vs_effective(self) -> float:
        """Against the effective model's field at this field_dim, from an
        unchecked solve unless the point already holds one."""
        key = ("field", self.field_dim)
        if key not in self._memo:
            me, keep = self._build(self.field_dim, "effective")
            self._memo[key] = partial_trace(steady_state(me), keep=keep)
        return fidelity(self.field, self._memo[key])

    @cached_property
    def adiabatic_ok(self) -> int:
        ok = adiabatic_elimination_ok(self.gamma_prime, self.g_tilde_prime,
                                      self.n_bare)
        log.info("adiabatic elimination %s at gprime_ratio=%.4g "
                 "(gamma'=%.4g, g~'=%.4g, <a^dag a>=%.4g)",
                 "valid" if ok else "questionable", self.gprime_ratio,
                 self.gamma_prime, self.g_tilde_prime, self.n_bare)
        return int(ok)

    @cached_property
    def full(self) -> "_Point":
        """The two-qubit model at the same parameters."""
        return _Point(self.params, self.numerics, "two_qubit", self._memo)

    @cached_property
    def truncation_flag_with_full(self) -> int:
        return max(self.truncation_flag, self.full.truncation_flag)


# per scenario: the model, then each column as (name, attribute path on
# _Point); the names and their order are the artefact format
_CHECKS = (("field_dim", "field_dim"), ("truncation_flag", "truncation_flag"),
           ("trace_error", "trace_error"),
           ("hermiticity_error", "hermiticity_error"))
_FIDELITY_SWEEP = (
    ("c_tilde", "rates.c_tilde"), ("fidelity_effective", "fidelity_ansatz"),
    ("n_mode", "n_mode"), ("n_bare", "n_bare"), ("inversion_d", "inversion"),
    ("purity", "purity"))
_COLUMNS = {
    "single_laser": ("single", (
        ("c_tilde", "rates.c_tilde"), ("n_photons", "n_mode"),
        ("inversion_d", "inversion"), ("purity", "purity"), *_CHECKS)),
    "squeezed_laser": ("effective", (
        ("c_tilde", "rates.c_tilde"), ("c_prime", "rates.c_prime"),
        ("n_mode", "n_mode"), ("n_bare", "n_bare"),
        ("inversion_d", "inversion"), ("mf_f_squared", "mf_f_squared"),
        ("fidelity_ansatz", "fidelity_ansatz"), ("purity", "purity"),
        *_CHECKS)),
    "two_qubit_full": ("two_qubit", (
        ("gprime_ratio", "gprime_ratio"), ("c_tilde", "rates.c_tilde"),
        ("n_mode", "n_mode"), ("n_bare", "n_bare"),
        ("fidelity_ansatz", "fidelity_ansatz"),
        ("fidelity_vs_effective", "fidelity_vs_effective"),
        ("purity", "purity"), ("adiabatic_ok", "adiabatic_ok"), *_CHECKS)),
    "fidelity_sweep": ("effective", _FIDELITY_SWEEP + _CHECKS),
    "mf_compare": ("effective", (
        ("c_tilde", "rates.c_tilde"), ("mf_f_squared", "mf_f_squared"),
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
    ("gprime_ratio", "full.gprime_ratio"),
    ("fidelity_full", "full.fidelity_ansatz"),
    ("fidelity_full_vs_effective", "full.fidelity_vs_effective"))


def _evaluate_point(scenario: str, params: dict,
                    numerics: NumericsSpec) -> dict:
    model, columns = _COLUMNS[scenario]
    if scenario == "fidelity_sweep" and bool(params.get("include_full", 0.0)):
        columns = _FIDELITY_SWEEP_FULL
    point = _Point(params, numerics, model)
    return {name: attrgetter(path)(point) for name, path in columns}


# scenario -> fn(params, numerics) -> one row as a dict
_POINT_FUNCS = {name: partial(_evaluate_point, name) for name in _COLUMNS}


def _run_sweep(config: RunConfig) -> ScenarioOutput:
    point_fn = _POINT_FUNCS[config.scenario]
    if config.sweep is not None:
        axis = config.sweep.param
        values = [float(v) for v in config.sweep.values()]
    else:
        axis, values = None, [None]
    base_params = dict(config.params)
    if (config.scenario == "fidelity_sweep" and axis == "gprime_ratio"
            and "include_full" not in base_params):
        base_params["include_full"] = 1.0

    returned: list[dict] = []
    rows: list[tuple] = []
    failed: list[dict] = []
    for i, value in enumerate(values):
        params = dict(base_params)
        if axis is not None:
            params[axis] = value
        try:
            rec = point_fn(params, config.numerics)
        except ConfigError:
            raise
        except Exception as exc:  # noqa: BLE001 - point isolation
            error = f"{type(exc).__name__}: {exc}"
            log.error("sweep point %s (%s=%s) failed: %s", i, axis, value,
                      error)
            failed.append({"index": i, "axis_value": value, "error": error})
            continue
        if returned and tuple(rec) != tuple(returned[0]):
            raise RuntimeError("sweep points produced inconsistent columns")
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
    params = config.params
    system = resolve_system_params(params)
    dressed = _dress(system.eta1, system.eta2, g=system.g)
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
    params = config.params
    system = resolve_system_params(params)
    space = HilbertSpace(n_qubits=1, field_dim=config.numerics.field_dim)
    gt_max = float(params.get("gt_max", 3.0))
    if gt_max < 0:
        raise ConfigError("gt_max must be non-negative")
    reference = _dress(system.eta1, system.eta2, g=system.g)
    t_final = gt_max / reference.g_tilde
    h_full = interaction_picture_hamiltonian(system, space)
    h_eff = effective_H(reference, space).matrix
    psi0 = np.zeros(space.dim, dtype=complex)
    excited = bool(params.get("start_excited", 1.0))
    psi0[0 if excited else space.field_dim] = 1.0
    n = config.numerics.store_points
    times, psis_full = schrodinger_evolve(h_full, psi0, t_final, n_store=n)
    _, psis_eff = schrodinger_evolve(lambda t: h_eff, psi0, t_final, n_store=n)
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
             gt_max, fid.min(), fid[-1])
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


def _run_wigner_panels(config: RunConfig) -> ScenarioOutput:
    params = config.params
    out = ScenarioOutput()
    summary_rows = []
    panel_info = {}
    wanted = [float(_require(params, "c_prime")),
              float(params.get("c_prime_alt", 0.01))]
    if wanted[1] == wanted[0]:
        wanted = wanted[:1]
    for cp in wanted:
        point = dict(params)
        point["c_prime"] = cp
        steady = _Point(point, config.numerics, "effective")
        rho_f = steady.field
        grid = grid_for_density(rho_f, points=config.numerics.grid_points)
        w_mode = wigner_from_density(rho_f, grid)
        w_bare = wigner_change_basis(w_mode, steady.dressed.r)
        tag = f"{cp:g}"
        for label, panel in (("lasing", w_mode), ("bare", w_bare)):
            name = f"wigner_c{tag}_{label}"
            out.grids[name] = panel
            var_x, var_p, ratio = ring_cut_anisotropy(panel)
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
    out.tables["wigner_summary"] = Table(
        columns=("c_prime", "frame", "mass", "min_value", "cut_variance_x",
                 "cut_variance_p", "anisotropy_ratio", "field_dim",
                 "truncation_flag"),
        rows=summary_rows)
    out.report["panels"] = panel_info
    return out


def run_scenario(config: RunConfig) -> ScenarioOutput:
    """Execute one scenario and return its in-memory products."""
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
    for name, grid_field in sorted(result.grids.items()):
        fname = f"{name}.txt"
        g = grid_field.grid
        lines = [f"# config_hash: {chash}",
                 f"# frame: {grid_field.basis_tag.value} "
                 f"squeeze_r: {_format_cell(grid_field.squeeze_r)}",
                 "# columns: x p w"]
        xs, ps = g.x_centers, g.p_centers
        vals = grid_field.values
        for i in range(g.nx):
            xi = _format_cell(xs[i])
            for j in range(g.np):
                lines.append(f"{xi} {_format_cell(ps[j])} "
                             f"{_format_cell(vals[i, j])}")
        (out_path / fname).write_text("\n".join(lines) + "\n")
        products.append(fname)
    manifest = {
        "scenario": config.scenario,
        "config": config.canonical(),
        "config_hash": chash,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "products": products,
        "failed_points": result.failed_points,
        **result.report,
    }
    (out_path / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
