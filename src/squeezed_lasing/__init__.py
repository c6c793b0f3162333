"""Simulator for a periodically driven qubit-cavity system.

Two bichromatic flux drives dress a transversal qubit-cavity coupling into
an interaction with a Bogoliubov field mode.  With a single lossy qubit this
produces lasing into a squeezed vacuum of that mode; an auxiliary qubit adds
engineered dissipation that pins the squeezing axis.  The package covers the
operator-level model, the drive-dressing algebra, Lindblad steady states
and the Schrödinger check of the rotating-wave step, the mean-field
description, Gaussian steady states, and Wigner tomography, plus a
deterministic scenario runner.
"""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    annihilation,
    expectation,
    qubit_ops,
)
from .dressing import (
    DressedCoupling,
    SystemParams,
    dress,
    effective_H,
    interaction_picture_hamiltonian,
    resonance_audit,
)
from .lindblad import (
    LindbladTerm,
    MasterEquation,
    dissipator,
    fidelity,
    model_single_qubit_laser,
    model_squeezed_laser_effective,
    model_two_qubit_full,
    partial_trace,
    steady_state,
)
from .meanfield import (
    MFParams,
    gaussian_mf_solution,
    mf_ansatz,
    mf_residual,
    mf_steady,
)
from .gaussian import GaussianState, to_fock
from .wigner import (
    PhaseGrid,
    WignerField,
    grid_for_density,
    wigner_change_basis,
    wigner_from_density,
)
from .scenarios import (
    PRESETS,
    SCENARIO_NAMES,
    ConfigError,
    NumericsSpec,
    RunConfig,
    SweepSpec,
    build_config,
    run_scenario,
    write_outputs,
)

__all__ = [
    "ConfigError",
    "DensityMatrix",
    "DressedCoupling",
    "GaussianState",
    "HilbertSpace",
    "InvalidStateError",
    "LindbladTerm",
    "MFParams",
    "MasterEquation",
    "NumericsSpec",
    "Operator",
    "PRESETS",
    "PhaseGrid",
    "RunConfig",
    "SCENARIO_NAMES",
    "SweepSpec",
    "SystemParams",
    "WignerField",
    "annihilation",
    "build_config",
    "dissipator",
    "dress",
    "effective_H",
    "expectation",
    "fidelity",
    "gaussian_mf_solution",
    "grid_for_density",
    "interaction_picture_hamiltonian",
    "mf_ansatz",
    "mf_residual",
    "mf_steady",
    "model_single_qubit_laser",
    "model_squeezed_laser_effective",
    "model_two_qubit_full",
    "partial_trace",
    "qubit_ops",
    "resonance_audit",
    "run_scenario",
    "steady_state",
    "to_fock",
    "wigner_change_basis",
    "wigner_from_density",
    "write_outputs",
]
