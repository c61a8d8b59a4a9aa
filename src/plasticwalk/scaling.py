"""Scaling parameters tying the step sizes and coin angles to one knob.

A single parameter ``epsilon`` drives the refinement; the exponent
``alpha`` fixes how the time step (dt = epsilon) and the lattice spacing
(dx = epsilon^(1-alpha)) shrink relative to each other. The derived
contrast kappa = epsilon^alpha controls how close the coin sits to a bare
component swap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, SingularMassError
from .fields import CProfile


@dataclass
class ScalingParams:
    """Mass, speed profile and discretization scalings for one walk family.

    Derived quantities (dt, dx, kappa) are computed on construction:
    dt = epsilon, dx = epsilon**(1 - alpha), kappa = epsilon**alpha.
    """

    m: float
    cprofile: CProfile
    epsilon: float
    alpha: float
    dt: float = dc_field(init=False)
    dx: float = dc_field(init=False)
    kappa: float = dc_field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m >= 0):
            raise DomainError(f"mass m must be finite and nonnegative, got {self.m}")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        self.dt = self.epsilon
        self.dx = self.epsilon ** (1.0 - self.alpha)
        self.kappa = self.epsilon ** self.alpha


def derive_angle_arrays(
    params: ScalingParams, t: float, xs: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coin angles (theta, zeta) at time t and positions xs (a scalar or an array).

    theta = arccos(c(t, x) * kappa). For positive mass,
    zeta = m * cos(pi * kappa) * epsilon / sin(theta); the cos(pi*kappa)
    factor is the real interpolation of the alternating sign (-1)^kappa,
    equal to -1 at kappa = 1 and 1 + O(kappa^2) as kappa -> 0. Massless
    walks take zeta = 0 identically, which removes the 0/0 at sin(theta)=0.
    """
    xs = np.asarray(xs, dtype=float)
    ck = params.cprofile.sample(t, xs) * params.kappa
    if np.any(ck > 1.0):
        i = np.argmax(ck > 1.0)
        raise DomainError(f"c*kappa = {ck.flat[i]} > 1 at (t={t}, x={xs.flat[i]}); arccos undefined")
    theta = np.arccos(ck)
    if params.m == 0.0:
        return theta, np.zeros_like(theta)
    st = np.sin(theta)
    if np.any(st == 0.0):
        x = xs.flat[np.argmax(st == 0.0)]
        raise SingularMassError(f"sin(theta) = 0 at (t={t}, x={x}) with m = {params.m} > 0")
    zeta = params.m * np.cos(np.pi * params.kappa) * params.epsilon / st
    return theta, zeta
