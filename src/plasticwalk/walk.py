"""Single-step operators of the tunable-scaling quantum walk.

One walk step advances a spinor field by 2*dt and factorizes as

    W = Lambda^(-kappa) . S . C(-zeta) . S . C(zeta) . Lambda^(kappa)

applied right to left: a pointwise mixing power Lambda^kappa, a pointwise
coin, the full shift, the conjugate coin, the shift again, and the inverse
mixing power. All factors are unitary, so the step preserves the norm
exactly up to roundoff. With an inhomogeneous speed profile the coin
angles are sampled at the crossing midpoints x + dx/2 and the mixing
matrices at the cell centers x; all samples are taken at the step's start
time.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InhomogeneousError
from .fields import SpinorField
from .scaling import ScalingParams, derive_angle_arrays, derive_angles

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    """Max-norm test of M^dag M = I."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def coin_matrix(theta: float, zeta: float) -> np.ndarray:
    """2x2 coin [[-cos t, e^{-iz} sin t], [e^{iz} sin t, cos t]].

    Unitary with determinant -1 for all real angles.
    """
    ct, st = np.cos(theta), np.sin(theta)
    return np.array(
        [[-ct, np.exp(-1j * zeta) * st], [np.exp(1j * zeta) * st, ct]],
        dtype=np.complex128,
    )


def lambda_matrix(c: float) -> np.ndarray:
    """Real symmetric involution (1/2)[[-f-, f+], [f+, f-]], f+- = sqrt(1-c) +- sqrt(1+c).

    Equals sigma_x at c = 0 and the Hadamard matrix at c = 1.
    """
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"lambda_matrix needs c in [0, 1], got {c}")
    fp = np.sqrt(1.0 - c) + np.sqrt(1.0 + c)
    fm = np.sqrt(1.0 - c) - np.sqrt(1.0 + c)
    return 0.5 * np.array([[-fm, fp], [fp, fm]], dtype=np.complex128)


def lambda_power(c: float, kappa: float) -> np.ndarray:
    """Principal spectral power Lambda^kappa.

    Lambda is a traceless involution, so its eigenvalues are exactly +-1
    with spectral projectors (I +- Lambda)/2, and

        Lambda^kappa = (I + Lambda)/2 + e^{i pi kappa} (I - Lambda)/2.

    The result is unitary for every real kappa, reduces to I at kappa = 0
    and to Lambda at kappa = 1, and satisfies the group law in kappa.
    """
    lam = lambda_matrix(c)
    return 0.5 * (ID2 + lam) + 0.5 * np.exp(1j * np.pi * kappa) * (ID2 - lam)


def lambda_power_array(cs: np.ndarray, kappa: float) -> np.ndarray:
    """(N, 2, 2) stack of Lambda(c_l)^kappa for an array of speeds."""
    cs = np.asarray(cs, dtype=float)
    fp = np.sqrt(1.0 - cs) + np.sqrt(1.0 + cs)
    fm = np.sqrt(1.0 - cs) - np.sqrt(1.0 + cs)
    lam = 0.5 * np.stack(
        [np.stack([-fm, fp], axis=-1), np.stack([fp, fm], axis=-1)], axis=-2
    ).astype(np.complex128)
    eye = np.broadcast_to(ID2, lam.shape)
    return 0.5 * (eye + lam) + 0.5 * np.exp(1j * np.pi * kappa) * (eye - lam)


def _coin_array(theta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """(N, 2, 2) stack of coins for per-site angles."""
    ct, st = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = -ct
    out[..., 0, 1] = np.exp(-1j * zeta) * st
    out[..., 1, 0] = np.exp(1j * zeta) * st
    out[..., 1, 1] = ct
    return out


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


def _apply_pointwise(mats: np.ndarray, data: np.ndarray) -> np.ndarray:
    if mats.ndim == 2:
        return data @ mats.T
    return np.einsum("lij,lj->li", mats, data)


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
    xs = field.positions()
    if params.cprofile.homogeneous:
        c0 = params.cprofile(t, 0.0)
        theta, zeta = derive_angles(params, t, 0.0)
        lam_p = lambda_power(c0, params.kappa)
        lam_m = lambda_power(c0, -params.kappa)
        coin_p = coin_matrix(theta, zeta)
        coin_m = coin_matrix(theta, -zeta)
    else:
        cs = params.cprofile.sample(t, xs)
        # coin angles live on the crossings between sites, mixing powers on sites
        theta, zeta = derive_angle_arrays(params, t, xs + 0.5 * params.dx)
        lam_p = lambda_power_array(cs, params.kappa)
        lam_m = lambda_power_array(cs, -params.kappa)
        coin_p = _coin_array(theta, zeta)
        coin_m = _coin_array(theta, -zeta)

    data = _apply_pointwise(lam_p, field.data)
    data = _apply_pointwise(coin_p, data)
    data = shift_minus(shift_plus(data))
    data = _apply_pointwise(coin_m, data)
    data = shift_minus(shift_plus(data))
    data = _apply_pointwise(lam_m, data)
    return field.with_data(data)


def evolve_walk(
    field: SpinorField, params: ScalingParams, steps: int, t0: float = 0.0
) -> SpinorField:
    """Apply ``steps`` walk steps, threading the start time of each."""
    out = field
    for j in range(steps):
        out = qw_step(out, params, t0 + 2.0 * params.epsilon * j)
    return out


def momentum_block(params: ScalingParams, k: float, t: float = 0.0) -> np.ndarray:
    """2x2 block of one walk step on the plane wave e^{ikx}.

    Only defined for homogeneous profiles, where the step commutes with
    translations. Constructed as
    Lambda^(-kappa) D(k) C(-zeta) D(k) C(zeta) Lambda^(kappa) with
    D(k) = diag(e^{ik dx}, e^{-ik dx}).
    """
    if not params.cprofile.homogeneous:
        raise InhomogeneousError("momentum_block requires a homogeneous profile")
    c0 = params.cprofile(t, 0.0)
    theta, zeta = derive_angles(params, t, 0.0)
    phase = np.exp(1j * k * params.dx)
    d = np.array([[phase, 0.0], [0.0, np.conj(phase)]], dtype=np.complex128)
    return (
        lambda_power(c0, -params.kappa)
        @ d
        @ coin_matrix(theta, -zeta)
        @ d
        @ coin_matrix(theta, zeta)
        @ lambda_power(c0, params.kappa)
    )


def ring_momenta(n_sites: int, dx: float) -> np.ndarray:
    """Momenta 2*pi*n/(N*dx) in FFT order, n = 0..N-1 folded to +-."""
    return 2.0 * np.pi * np.fft.fftfreq(n_sites, d=dx)
