"""Exact branch-label simulation of weak-cross-Kerr QND parity detection,
probe homodyne measurement with feed-forward, and a near-deterministic CNOT
on polarization qubits, plus a truncated-Fock brute-force oracle."""

from .analysis import ShotStats, geometry, p_error, run_shots
from .errors import ContractError, ValidationError
from .gates import (
    ANCILLA_PLUS,
    GateTrace,
    cnot,
    entangler,
    entangler_45,
    parity_gate,
    recycle_ancilla,
)
from .measurement import (
    HomodyneRecord,
    kernel_value,
    outcome_density,
    qnd_photon_measure,
    sample_and_collapse,
    sample_quadrature,
)
from .optics import (
    KerrCoupling,
    SingleQubitGate,
    apply_cross_kerr,
    apply_single_qubit,
    bit_flip,
    build_parity_coupling_pair,
    diagonal_basis_change,
    diagonal_gate,
)
from .states import (
    Branch,
    HybridState,
    PolBasisString,
    ProbeMode,
    coherent_overlap,
    fidelity,
    merge_and_prune,
    new_state,
    norm_squared,
)

__all__ = [
    "ANCILLA_PLUS",
    "Branch",
    "ContractError",
    "GateTrace",
    "HomodyneRecord",
    "HybridState",
    "KerrCoupling",
    "PolBasisString",
    "ProbeMode",
    "ShotStats",
    "SingleQubitGate",
    "ValidationError",
    "apply_cross_kerr",
    "apply_single_qubit",
    "bit_flip",
    "build_parity_coupling_pair",
    "cnot",
    "coherent_overlap",
    "diagonal_basis_change",
    "diagonal_gate",
    "entangler",
    "entangler_45",
    "fidelity",
    "geometry",
    "kernel_value",
    "merge_and_prune",
    "new_state",
    "norm_squared",
    "outcome_density",
    "p_error",
    "parity_gate",
    "qnd_photon_measure",
    "recycle_ancilla",
    "run_shots",
    "sample_and_collapse",
    "sample_quadrature",
]

__version__ = "0.1.0"
