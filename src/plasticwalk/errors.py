"""Exception types shared across the package."""


class PlasticWalkError(Exception):
    """Base class for all package errors."""


class DomainError(PlasticWalkError):
    """A parameter is outside its admissible range."""


class InhomogeneousError(PlasticWalkError):
    """Operation requires a homogeneous propagation-speed profile."""


class SolverError(PlasticWalkError):
    """A linear solve failed or left an unacceptable residual."""


class BudgetError(PlasticWalkError):
    """Statevector size exceeds the qubit budget."""


class SectorError(PlasticWalkError):
    """State has weight outside the expected particle-number sector."""


class OrthogonalityError(PlasticWalkError):
    """Orbital set is too far from orthonormal."""


class ResolutionError(PlasticWalkError):
    """Requested feature is too narrow for the grid spacing."""


class ConfigError(PlasticWalkError):
    """Invalid run configuration; message names the offending field."""
