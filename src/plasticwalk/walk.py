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
at one point and broadcast over the ring). A step's operators hold each
stack as its four entries, each a contiguous 1-D array, and ``qw_step``
applies them by component arithmetic on the plus and minus arrays. For a
static profile the operators are the same on every step, so
``trajectory_operators`` builds them once for a whole trajectory.

``evolve_walk`` runs a trajectory. On a homogeneous profile the step
commutes with translations, so it acts on each ring momentum k as one 2x2
block: the same four operators with each shift replaced by its phase
e^{+-ik dx} (``momentum_block``). There ``evolve_walk`` takes one FFT of
the field, multiplies each momentum by its block raised to the number of
steps and transforms back. The block is built and raised (binary powering,
log2(steps) squarings) in long double, so its rounding does not grow with
the number of steps. Every other profile is stepped by ``qw_step`` one
step at a time, and a profile that depends on t builds each step's
operators at that step's start time. ``qca.verify_encoding`` runs the same
kernel, ``_apply`` with the full shift ``_shift``, on a step whose mixing
power is the identity.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InhomogeneousError
from .fields import SpinorField
from .scaling import ScalingParams, derive_angle_arrays

_TWO_PI = 2 * np.longdouble("3.14159265358979323846264338327950288")
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


StepOperators = tuple[tuple[np.ndarray, ...], ...]


def _step_operators(params: ScalingParams, t: float, xs: np.ndarray) -> StepOperators:
    """The four pointwise stacks of one step at start time t, in order of application.

    Lambda^kappa is sampled at the sites xs and C(zeta) at the crossings
    xs + dx/2 (a homogeneous profile at one point), and split into entry
    arrays over the sites by ``_operators``.
    """
    if params.cprofile.homogeneous:
        xs = xs[:1]
    lam = lambda_power(params.cprofile.sample(t, xs), params.kappa)
    return _operators(lam, coin_matrix(*derive_angle_arrays(params, t, xs + 0.5 * params.dx)))


def _operators(lam: np.ndarray, coin: np.ndarray) -> StepOperators:
    """A step's operators from its (n, 2, 2) stacks Lambda^kappa and C(zeta).

    Returns (Lambda^kappa, C(zeta), C(-zeta), Lambda^(-kappa)), each as its
    entries (a00, a01, a10, a11), each a contiguous array of length n.
    C(-zeta) is the transpose of C(zeta), so it shares C(zeta)'s arrays.
    """
    lam_e = tuple(np.ascontiguousarray(lam[:, i, j]) for i in (0, 1) for j in (0, 1))
    c00, c01, c10, c11 = (np.ascontiguousarray(coin[:, i, j]) for i in (0, 1) for j in (0, 1))
    return lam_e, (c00, c01, c10, c11), (c00, c10, c01, c11), tuple(a.conj() for a in lam_e)


def trajectory_operators(
    params: ScalingParams, field: SpinorField, t0: float = 0.0
) -> StepOperators | None:
    """Operators shared by every step of a trajectory from ``field``.

    A static profile's operators are built once, here; a profile that
    depends on t gets None, so each ``qw_step`` builds its own.
    """
    return _step_operators(params, t0, field.positions()) if params.cprofile.static else None


def _mix(mat: tuple[np.ndarray, ...], p: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a00, a01, a10, a11 = mat
    x = a00 * p
    x += a01 * m
    y = a10 * p
    y += a11 * m
    return x, y


def _shift(p: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full shift: np.roll(p, -1) and np.roll(m, 1), without np.roll's per-call overhead."""
    return np.concatenate((p[1:], p[:1])), np.concatenate((m[-1:], m[:-1]))


def _apply(ops: StepOperators, p, m, shift) -> tuple[np.ndarray, np.ndarray]:
    """One step's operators on the components (p, m), with ``shift`` as the full shift."""
    lam, coin, coin_t, lam_inv = ops
    p, m = _mix(coin, *_mix(lam, p, m))
    p, m = _mix(coin_t, *shift(p, m))
    return _mix(lam_inv, *shift(p, m))


def _block(ops: StepOperators, angle) -> tuple[np.ndarray, ...]:
    """Entries (b00, b01, b10, b11) of one homogeneous step on the plane waves e^{ikx}.

    ``angle`` holds k dx: on a plane wave the full shift multiplies plus by
    e^{ik dx} and minus by its conjugate. Column j of the block is the step
    applied to the j-th unit spinor. The entries are complex long doubles,
    because a block is raised to the number of steps: rounded to double,
    its rounding would grow with that number.
    """
    phase = np.exp(1j * np.asarray(angle, dtype=np.longdouble))
    back = phase.conj()

    def shift(p, m):
        return phase * p, back * m

    ops = tuple(tuple(a.astype(np.clongdouble) for a in op) for op in ops)
    (b00, b10), (b01, b11) = (_apply(ops, p, m, shift) for p, m in ((1.0, 0.0), (0.0, 1.0)))
    return b00, b01, b10, b11


def _product(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11


def _power(block: tuple[np.ndarray, ...], n: int) -> tuple[np.ndarray, ...]:
    """block^n for n >= 1 by binary powering: floor(log2 n) squarings."""
    out = None
    while True:
        if n & 1:
            out = block if out is None else _product(out, block)
        n >>= 1
        if not n:
            return out
        block = _product(block, block)


def _check_spacing(field: SpinorField, params: ScalingParams) -> None:
    if abs(field.dx - params.dx) > 1e-12 * max(field.dx, params.dx):
        raise DomainError(f"field.dx = {field.dx} does not match params.dx = {params.dx}")


def qw_step(
    field: SpinorField, params: ScalingParams, t: float = 0.0, *, ops: StepOperators | None = None
) -> SpinorField:
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
    ops:
        The step's operators, as ``trajectory_operators`` returns them for
        a static profile on this field's ring. None builds them at time t.

    Returns
    -------
    SpinorField
        The field at time t + 2*dt.
    """
    _check_spacing(field, params)
    if ops is None:
        ops = _step_operators(params, t, field.positions())
    data = np.empty_like(field.data)
    data[:, 0], data[:, 1] = _apply(ops, field.plus, field.minus, _shift)
    return SpinorField._unchecked(data, field.dx)  # unitary arithmetic on a valid field


def evolve_walk(
    field: SpinorField,
    params: ScalingParams,
    steps: int,
    t0: float = 0.0,
    *,
    ops: StepOperators | None = None,
) -> SpinorField:
    """Apply ``steps`` walk steps; step j starts at t0 + 2*dt*j.

    ``ops`` are the trajectory's operators as ``trajectory_operators``
    returns them for this field's ring; None builds them here, once for a
    static profile. A homogeneous profile's steps are applied as one
    Fourier multiplier: the FFT of the field, each ring momentum's block
    to the power ``steps``, and the inverse FFT. They agree with the
    stepped loop to roundoff, not bitwise. Every other profile takes one
    ``qw_step`` per step.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise DomainError(f"steps must be a nonnegative integer, got {steps!r}")
    if ops is None:
        ops = trajectory_operators(params, field, t0)
    if params.cprofile.homogeneous and steps:
        _check_spacing(field, params)
        angle = _TWO_PI * np.arange(field.n_sites) / field.n_sites  # k dx of each FFT bin
        power = tuple(b.astype(np.complex128) for b in _power(_block(ops, angle), int(steps)))
        ft = np.fft.fft(field.data, axis=0)
        p, m = _mix(power, ft[:, 0], ft[:, 1])
        return field.with_data(np.fft.ifft(np.stack([p, m], axis=1), axis=0))
    out = field
    for j in range(steps):
        out = qw_step(out, params, t0 + 2.0 * params.epsilon * j, ops=ops)
    return out


def momentum_block(params: ScalingParams, k, t: float = 0.0) -> np.ndarray:
    """Block of one walk step on the plane wave e^{ikx}, stacked over the shape of k.

    Only defined for homogeneous profiles, where the step commutes with
    translations. Equals
    Lambda^(-kappa) D(k) C(-zeta) D(k) C(zeta) Lambda^(kappa) with
    D(k) = diag(e^{ik dx}, e^{-ik dx}), built from the step's operators
    as ``evolve_walk`` builds it for a homogeneous trajectory.
    """
    if not params.cprofile.homogeneous:
        raise InhomogeneousError(f"momentum_block requires a homogeneous profile; {params.cprofile.name!r} is not")
    angle = np.asarray(k, dtype=np.longdouble) * params.dx
    block = _block(_step_operators(params, t, np.zeros(1)), angle)
    return np.stack(block, axis=-1).astype(np.complex128).reshape(angle.shape + (2, 2))


def ring_momenta(n_sites: int, dx: float) -> np.ndarray:
    """Momenta 2*pi*n/(N*dx) in FFT order, n = 0..N-1 folded to +-."""
    return 2.0 * np.pi * np.fft.fftfreq(n_sites, d=dx)
