"""Spinor fields on a periodic ring and spacetime speed profiles.

A field stores two complex amplitudes per site: ``plus`` (left-moving
component) and ``minus`` (right-moving component), as an (N, 2) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass
class SpinorField:
    """Length-N array of two-component spinors on a periodic ring.

    Parameters
    ----------
    data:
        Complex array of shape (N, 2); column 0 is the plus component,
        column 1 the minus component.
    dx:
        Lattice spacing, in simulation length units. Must be positive.
    """

    data: np.ndarray
    dx: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2 or self.data.shape[1] != 2:
            raise DomainError(f"field data must have shape (N, 2), got {self.data.shape}")
        if self.data.shape[0] < 2:
            raise DomainError("field needs at least 2 sites")
        if not self.dx > 0:
            raise DomainError(f"dx must be positive, got {self.dx}")
        if not np.all(np.isfinite(self.data)):
            raise DomainError("field contains non-finite amplitudes")

    @property
    def n_sites(self) -> int:
        return self.data.shape[0]

    @property
    def plus(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def minus(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def length(self) -> float:
        """Ring circumference N * dx."""
        return self.n_sites * self.dx

    def positions(self) -> np.ndarray:
        return np.arange(self.n_sites) * self.dx

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def density(self) -> np.ndarray:
        """Per-site probability density |plus|^2 + |minus|^2."""
        return np.sum(np.abs(self.data) ** 2, axis=1)

    def copy(self) -> "SpinorField":
        return SpinorField(self.data.copy(), self.dx)

    def with_data(self, data: np.ndarray) -> "SpinorField":
        return SpinorField(data, self.dx)

    @classmethod
    def _unchecked(cls, data: np.ndarray, dx: float) -> "SpinorField":
        """A field from (N, 2) complex128 data known to be valid, without validating it again."""
        field = object.__new__(cls)
        field.data = data
        field.dx = dx
        return field


@dataclass
class CProfile:
    """Propagation-speed (hopping-rate) profile c(t, x) with values in [0, 1].

    ``static`` marks profiles that do not depend on t: a walk builds their
    step operators once per trajectory, and the curved references (which
    freeze c at t = 0) are valid for them. ``homogeneous`` marks profiles
    that are constant in both arguments, and implies ``static``; several
    operations (momentum diagnostics, the momentum-space reference
    propagator) are only defined for homogeneous profiles.
    """

    fn: Callable[[float, float], float]
    homogeneous: bool
    name: str = "custom"
    params: dict = dc_field(default_factory=dict)
    static: bool = False

    def __post_init__(self):
        self.static = self.static or self.homogeneous

    @classmethod
    def constant(cls, c0: float) -> "CProfile":
        if not 0.0 <= c0 <= 1.0:
            raise DomainError(f"constant profile needs c0 in [0, 1], got {c0}")
        return cls(fn=lambda t, x: c0, homogeneous=True, name="flat", params={"c0": c0})

    @classmethod
    def from_function(
        cls, fn: Callable[[float, float], float], name: str = "custom", static: bool = False
    ) -> "CProfile":
        """Profile from any callable c(t, x); pass ``static=True`` only if fn ignores t."""
        return cls(fn=fn, homogeneous=False, name=name, static=static)

    @classmethod
    def sine_bump(cls, c0: float, a: float, length: float) -> "CProfile":
        """c(x) = c0 + a*sin(2*pi*x/length), static in time."""
        if not length > 0:
            raise DomainError(f"sine-bump length must be positive, got {length}")
        if not (0.0 <= c0 - abs(a) and c0 + abs(a) <= 1.0):
            raise DomainError(f"sine-bump range [{c0 - abs(a)}, {c0 + abs(a)}] leaves [0, 1]")
        return cls(
            fn=lambda t, x: c0 + a * np.sin(2.0 * np.pi * x / length),
            homogeneous=(a == 0.0),
            name="sine-bump",
            params={"c0": c0, "a": a, "length": length},
            static=True,
        )

    @classmethod
    def gaussian_well(cls, c0: float, depth: float, center: float, width: float) -> "CProfile":
        """c(x) = c0 - depth*exp(-(x-center)^2 / (2*width^2)), static in time."""
        if not width > 0:
            raise DomainError(f"gaussian-well width must be positive, got {width}")
        if not (0.0 <= c0 - depth and c0 <= 1.0 and depth >= 0.0):
            raise DomainError(f"gaussian-well range [{c0 - depth}, {c0}] leaves [0, 1]")
        return cls(
            fn=lambda t, x: c0 - depth * np.exp(-((x - center) ** 2) / (2.0 * width ** 2)),
            homogeneous=(depth == 0.0),
            name="gaussian-well",
            params={"c0": c0, "depth": depth, "center": center, "width": width},
            static=True,
        )

    def __call__(self, t: float, x: float) -> float:
        return float(self.sample(t, x))

    def sample(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Evaluate at an array of positions (or one), validating the range once."""
        xs = np.asarray(xs, dtype=float)
        try:
            cs = np.asarray(self.fn(t, xs), dtype=float)
        except (TypeError, ValueError):  # scalar-only callables, e.g. built on math.sin
            cs = None
        if cs is not None and cs.ndim == 0:  # constant callables
            cs = np.full(xs.shape, cs)
        if cs is None or cs.shape != xs.shape:
            cs = np.array([float(self.fn(t, x)) for x in xs.ravel().tolist()]).reshape(xs.shape)
        inside = (cs >= 0.0) & (cs <= 1.0)  # NaN fails both comparisons
        if not inside.all():
            i = np.argmin(inside)
            raise DomainError(f"profile value c({t}, {xs.flat[i]}) = {cs.flat[i]} outside [0, 1]")
        return cs
