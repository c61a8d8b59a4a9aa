"""Single-step operators of the tunable-scaling quantum walk.

One walk step advances a spinor field by 2*dt and factorizes as

    W = Lambda^(-kappa) . S . C(-zeta) . S . C(zeta) . Lambda^(kappa)

applied right to left: a pointwise mixing power Lambda^kappa, a pointwise
coin, the full shift, the conjugate coin, the shift again, and the inverse
mixing power. All factors are unitary, so the step preserves the norm
exactly up to roundoff.

The builders ``coin_matrix``, ``lambda_matrix`` and ``lambda_power`` take
scalars or arrays: a scalar gives one 2x2 matrix, an array gives a stack of
shape ``shape + (2, 2)``. One step is one set of four such stacks: coins
sampled at the crossing midpoints x + dx/2, mixing powers at the cell
centers x, all at the step's start time (a homogeneous profile is sampled
at one point and broadcast over the ring). ``qw_step`` builds them and
applies them by component arithmetic on the plus and minus arrays, and
``evolve_walk`` is the one stepping loop, one ``qw_step`` per step.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InhomogeneousError
from .fields import SpinorField
from .scaling import ScalingParams, derive_angle_arrays

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)


def coin_matrix(theta, zeta) -> np.ndarray:
    """Coin [[-cos t, e^{-iz} sin t], [e^{iz} sin t, cos t]], stacked over the angle shape.

    Unitary with determinant -1 for all real angles; C(-zeta) = C(zeta)^T.
    """
    theta, zeta = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(zeta, dtype=float))
    ct, st = np.cos(theta), np.sin(theta)
    phase = np.exp(1j * zeta)
    out = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = -ct
    out[..., 0, 1] = phase.conj() * st
    out[..., 1, 0] = phase * st
    out[..., 1, 1] = ct
    return out


def lambda_matrix(c) -> np.ndarray:
    """Real symmetric involution (1/2)[[-f-, f+], [f+, f-]], f+- = sqrt(1-c) +- sqrt(1+c).

    Stacked over the shape of c. Equals sigma_x at c = 0 and the Hadamard
    matrix at c = 1.
    """
    c = np.asarray(c, dtype=float)
    if not np.all((0.0 <= c) & (c <= 1.0)):
        raise DomainError(f"lambda_matrix needs c in [0, 1], got {c}")
    root_m, root_p = np.sqrt(1.0 - c), np.sqrt(1.0 + c)
    fp, fm = root_m + root_p, root_m - root_p
    out = np.empty(c.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = -0.5 * fm
    out[..., 0, 1] = 0.5 * fp
    out[..., 1, 0] = 0.5 * fp
    out[..., 1, 1] = 0.5 * fm
    return out


def lambda_power(c, kappa: float) -> np.ndarray:
    """Principal spectral power Lambda(c)^kappa, stacked over the shape of c.

    Lambda is a traceless involution, so its eigenvalues are exactly +-1
    with spectral projectors (I +- Lambda)/2, and

        Lambda^kappa = (I + Lambda)/2 + e^{i pi kappa} (I - Lambda)/2.

    The result is unitary for every real kappa, reduces to I at kappa = 0
    and to Lambda at kappa = 1, and satisfies the group law in kappa.
    Lambda is real, so Lambda^(-kappa) is the complex conjugate.
    """
    lam = lambda_matrix(c)
    return 0.5 * (ID2 + lam) + 0.5 * np.exp(1j * np.pi * kappa) * (ID2 - lam)


def shift_plus(data: np.ndarray) -> np.ndarray:
    """Partial shift: plus component pulled from the right neighbour."""
    out = data.copy()
    out[:, 0] = np.roll(data[:, 0], -1)
    return out


def shift_minus(data: np.ndarray) -> np.ndarray:
    """Partial shift: minus component pulled from the left neighbour."""
    out = data.copy()
    out[:, 1] = np.roll(data[:, 1], +1)
    return out


def _step_operators(params: ScalingParams, t: float, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four pointwise stacks of one step at start time t, in order of application.

    Returns (Lambda^kappa, C(zeta), C(-zeta), Lambda^(-kappa)); coins are
    sampled at the crossings xs + dx/2, mixing powers at the sites xs. A
    homogeneous profile is sampled at one point, giving (1, 2, 2) stacks.
    """
    if params.cprofile.homogeneous:
        xs = xs[:1]
    lam = lambda_power(params.cprofile.sample(t, xs), params.kappa)
    coin = coin_matrix(*derive_angle_arrays(params, t, xs + 0.5 * params.dx))
    return lam, coin, coin.swapaxes(-1, -2), lam.conj()


def _mix(mat: np.ndarray, p: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return mat[:, 0, 0] * p + mat[:, 0, 1] * m, mat[:, 1, 0] * p + mat[:, 1, 1] * m


def _shift(p: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full shift: np.roll(p, -1) and np.roll(m, 1), without np.roll's per-call overhead."""
    return np.concatenate((p[1:], p[:1])), np.concatenate((m[-1:], m[:-1]))


def qw_step(field: SpinorField, params: ScalingParams, t: float = 0.0) -> SpinorField:
    """Advance a spinor field by one walk step (duration 2*dt).

    Parameters
    ----------
    field:
        Input field; its spacing must equal ``params.dx``.
    params:
        Scaling parameters; the speed profile may depend on (t, x).
    t:
        Start time of the step. Every spacetime-dependent factor is frozen
        at this time.

    Returns
    -------
    SpinorField
        The field at time t + 2*dt.
    """
    if abs(field.dx - params.dx) > 1e-12 * max(field.dx, params.dx):
        raise DomainError(f"field.dx = {field.dx} does not match params.dx = {params.dx}")
    lam, coin, coin_t, lam_inv = _step_operators(params, t, field.positions())
    p, m = _mix(coin, *_mix(lam, field.plus, field.minus))
    p, m = _mix(coin_t, *_shift(p, m))
    p, m = _mix(lam_inv, *_shift(p, m))
    return field.with_data(np.stack([p, m], axis=1))


def evolve_walk(
    field: SpinorField, params: ScalingParams, steps: int, t0: float = 0.0
) -> SpinorField:
    """Apply ``steps`` walk steps; step j starts at t0 + 2*dt*j."""
    out = field
    for j in range(steps):
        out = qw_step(out, params, t0 + 2.0 * params.epsilon * j)
    return out


def momentum_block(params: ScalingParams, k, t: float = 0.0) -> np.ndarray:
    """Block of one walk step on the plane wave e^{ikx}, stacked over the shape of k.

    Only defined for homogeneous profiles, where the step commutes with
    translations. Constructed as
    Lambda^(-kappa) D(k) C(-zeta) D(k) C(zeta) Lambda^(kappa) with
    D(k) = diag(e^{ik dx}, e^{-ik dx}).
    """
    if not params.cprofile.homogeneous:
        raise InhomogeneousError("momentum_block requires a homogeneous profile")
    lam, coin, coin_t, lam_inv = (op[0] for op in _step_operators(params, t, np.zeros(1)))
    phase = np.exp(1j * np.asarray(k, dtype=float) * params.dx)
    d = np.zeros(phase.shape + (2, 2), dtype=np.complex128)
    d[..., 0, 0] = phase
    d[..., 1, 1] = phase.conj()
    return lam_inv @ d @ coin_t @ d @ coin @ lam


def ring_momenta(n_sites: int, dx: float) -> np.ndarray:
    """Momenta 2*pi*n/(N*dx) in FFT order, n = 0..N-1 folded to +-."""
    return 2.0 * np.pi * np.fft.fftfreq(n_sites, d=dx)
