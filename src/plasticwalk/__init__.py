"""Discrete-spacetime quantum walk laboratory.

A single walk family whose time step and lattice spacing shrink as
epsilon and epsilon^(1-alpha): alpha = 1 freezes the grid and yields
lattice-fermion dynamics in continuous time, every alpha < 1 yields the
continuum two-component wave equation. The package bundles the walk
operators, the reference solvers for both limits (flat and with an
inhomogeneous propagation speed), a convergence harness, and the
many-particle partitioned-gate automaton built from the same coins.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigError,
    DegenerateError,
    DomainError,
    InhomogeneousError,
    OrthogonalityError,
    PlasticWalkError,
    ResolutionError,
    SectorError,
    SingularMassError,
    SizeError,
    SolverError,
)
from .fields import CProfile, SpinorField
from .scaling import ScalingParams
from .walk import (
    coin_matrix,
    evolve_walk,
    lambda_matrix,
    lambda_power,
    momentum_block,
    qw_step,
    ring_momenta,
)
from .hamiltonians import (
    DiracPropagator,
    LatticeHamiltonian,
    curved_dirac_reference,
    dirac_propagator,
    evolve_crank_nicolson,
    evolve_exact,
    lattice_hamiltonian_curved,
    lattice_hamiltonian_flat,
    lattice_propagator,
    trig_interpolate,
)
from .qca import (
    QcaState,
    SlaterState,
    embed_one_particle,
    extract_one_particle,
    gate_U,
    gate_V,
    one_particle_matrix,
    qca_step,
    slater_determinant_state,
    slater_evolve,
    verify_encoding,
)
from .harness import (
    ComparisonFrame,
    DispersionTable,
    ExperimentSpec,
    SweepReport,
    SweepRow,
    comparison_frame,
    dispersion_scan,
    estimate_order,
    make_wavepacket,
    run_convergence_sweep,
)

__all__ = [
    "__version__",
    "BudgetError",
    "ConfigError",
    "DegenerateError",
    "DomainError",
    "InhomogeneousError",
    "OrthogonalityError",
    "PlasticWalkError",
    "ResolutionError",
    "SectorError",
    "SingularMassError",
    "SizeError",
    "SolverError",
    "CProfile",
    "SpinorField",
    "ScalingParams",
    "coin_matrix",
    "evolve_walk",
    "lambda_matrix",
    "lambda_power",
    "momentum_block",
    "qw_step",
    "ring_momenta",
    "DiracPropagator",
    "LatticeHamiltonian",
    "curved_dirac_reference",
    "dirac_propagator",
    "evolve_crank_nicolson",
    "evolve_exact",
    "lattice_hamiltonian_curved",
    "lattice_hamiltonian_flat",
    "lattice_propagator",
    "trig_interpolate",
    "QcaState",
    "SlaterState",
    "embed_one_particle",
    "extract_one_particle",
    "gate_U",
    "gate_V",
    "one_particle_matrix",
    "qca_step",
    "slater_determinant_state",
    "slater_evolve",
    "verify_encoding",
    "ComparisonFrame",
    "DispersionTable",
    "ExperimentSpec",
    "SweepReport",
    "SweepRow",
    "comparison_frame",
    "dispersion_scan",
    "estimate_order",
    "make_wavepacket",
    "run_convergence_sweep",
]
