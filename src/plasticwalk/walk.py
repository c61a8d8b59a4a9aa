"""Single-step operators of the tunable-scaling quantum walk.

One walk step advances a spinor field by 2*dt and factorizes as

    W = Lambda^(-kappa) . S . C(-zeta) . S . C(zeta) . Lambda^(kappa)

applied right to left: a pointwise mixing power Lambda^kappa, a pointwise
coin, the full shift, the conjugate coin, the shift again, and the inverse
mixing power. All factors are unitary, so the step preserves the norm
exactly up to roundoff.

The builders ``coin_matrix``, ``lambda_matrix`` and ``lambda_power`` take
scalars or arrays: a scalar gives one 2x2 matrix, an array gives a stack of
shape ``shape + (2, 2)``. One step is built from such stacks: coins sampled
at the crossing midpoints x + dx/2, mixing powers at the cell centers x,
all at the step's start time (a homogeneous profile is sampled at one point
and broadcast over the ring).

Between the two shifts sits one pointwise coin, so S . C(-zeta) . S reads
only the sites x +- 2. With (p1, m1) the components after C(zeta) and
(a, b, c, d) the entries of C(-zeta),

    p'(x) = a(x+1) p1(x+2) + b(x+1) m1(x)
    m'(x) = c(x-1) p1(x)   + d(x-1) m1(x-2).

A step's operators are therefore (Lambda^kappa, C(zeta), taps,
Lambda^(-kappa)), each held as its four entries, each a contiguous 1-D
array over the sites; the taps are C(-zeta)'s entries moved once, when the
operators are built, to read x+1 (a, b) and x-1 (c, d). That is 8 complex
products and two concatenations per site for C(zeta) and the taps. Either
mixing power may be None, and the step then leaves it out. ``_apply`` is
the one kernel. ``qw_step`` runs it on the ring. ``_block`` runs it on a
plane wave, where each two-site tap is the phase e^{+-2ik dx}.
``qca.verify_encoding`` runs it on the step with no mixing power,
W = S . C(-zeta) . S . C(zeta).

``evolve_walk`` runs a trajectory; ``_trajectory`` builds its operators, and
for a static profile, the same on every step, builds them once, so
Lambda^kappa of one step cancels Lambda^(-kappa) of the step before. An
inhomogeneous static trajectory is therefore stepped in the mixing-power
frame: Lambda^kappa once, one ``qw_step`` of C(zeta) and the taps per step,
and Lambda^(-kappa) once (a snapshot applies it to a copy). A profile that
depends on t takes full steps, each built at its start time. On a
homogeneous profile the step commutes with translations, so it acts on
each ring momentum k as one 2x2 block (``momentum_block``). There
``evolve_walk`` takes one FFT of the field, multiplies each momentum by
its block raised to the number of steps and transforms back (a
``MomentumOperator``: the block's entries over the FFT bins). The block is
built and raised (binary powering, log2(steps) squarings) in long double,
so its rounding does not grow with the number of steps. Both static paths
agree with the product of full steps to roundoff, not bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InhomogeneousError
from .fields import SpinorField
from .scaling import ScalingParams, derive_angle_arrays

_TWO_PI = 2 * np.longdouble("3.14159265358979323846264338327950288")
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


StepOperators = tuple[tuple[np.ndarray, ...] | None, ...]


def _step_operators(params: ScalingParams, t: float, xs: np.ndarray) -> StepOperators:
    """The operators of one step at start time t, in order of application.

    Lambda^kappa is sampled at the sites xs and C(zeta) at the crossings
    xs + dx/2 (a homogeneous profile at one point), and split into entry
    arrays over the sites by ``_operators``.
    """
    if params.cprofile.homogeneous:
        xs = xs[:1]
    lam = lambda_power(params.cprofile.sample(t, xs), params.kappa)
    return _operators(lam, coin_matrix(*derive_angle_arrays(params, t, xs + 0.5 * params.dx)))


def _operators(lam: np.ndarray | None, coin: np.ndarray) -> StepOperators:
    """A step's operators from its (n, 2, 2) stacks Lambda^kappa (None: no mixing power) and C(zeta).

    Returns (Lambda^kappa, C(zeta), taps, Lambda^(-kappa)), each as its
    entries, each a contiguous array of length n; both mixing powers are
    None when ``lam`` is. The taps are C(-zeta)'s entries (a, b, c, d),
    C(-zeta) being the transpose of C(zeta), with a and b moved to read
    site x+1 and c and d site x-1: the full shift of ``_shift``.
    """
    c00, c01, c10, c11 = _entries(coin)
    (a, c), (b, d) = _shift(c00, c01), _shift(c10, c11)
    if lam is None:
        return None, (c00, c01, c10, c11), (a, b, c, d), None
    lam_e = _entries(lam)
    return lam_e, (c00, c01, c10, c11), (a, b, c, d), tuple(e.conj() for e in lam_e)


def _entries(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries (a00, a01, a10, a11) of an (n, 2, 2) stack, each a contiguous array of length n."""
    return tuple(np.ascontiguousarray(stack[:, i, j]) for i in (0, 1) for j in (0, 1))


def _mix(mat: tuple[np.ndarray, ...], p: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a00, a01, a10, a11 = mat
    x = a00 * p
    x += a01 * m
    y = a10 * p
    y += a11 * m
    return x, y


def _shift(p: np.ndarray, m: np.ndarray, k: int = 1, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Shift by k sites on axis 0: np.roll(p, -k) and np.roll(m, k), without np.roll's per-call overhead.

    ``out``, if given, is a pair of arrays that receive the shifted p and m.
    """
    return np.concatenate((p[k:], p[:k]), out=out[0]), np.concatenate((m[-k:], m[:-k]), out=out[1])


def _apply(ops: StepOperators, p, m, shift, out=None) -> tuple[np.ndarray, np.ndarray]:
    """One step's operators on the components (p, m): the one step kernel.

    ``shift(p, m, k)`` shifts the components by k sites (the ring's
    ``_shift``, or a phase on a plane wave). Lambda^kappa, if given, and
    C(zeta) act pointwise and give (p1, m1). The taps then read p1 two
    sites to the right and m1 two to the left, p' = a p1(x+2) + b m1 and
    m' = c p1 + d m1(x-2), which is S . C(-zeta) . S. Lambda^(-kappa), if
    given, acts last.

    ``out``, a pair of arrays that overlap neither p nor m, receives the
    shifted components (``shift(p, m, 2, out)``), and the taps update it in
    place; on a step without Lambda^(-kappa) it is the result returned,
    bitwise the same as without ``out``.
    """
    lam, coin, taps, lam_inv = ops
    if lam is not None:
        p, m = _mix(lam, p, m)
    p, m = _mix(coin, p, m)
    a, b, c, d = taps
    # new arrays of the full shape, even where p and m are not
    x, y = shift(p, m, 2) if out is None else shift(p, m, 2, out)
    x *= a
    x += b * m
    y *= d
    y += c * p  # d m1(x-2) + c p1 is c p1 + d m1(x-2) bitwise
    return (x, y) if lam_inv is None else _mix(lam_inv, x, y)


def _block(ops: StepOperators, angle) -> tuple[np.ndarray, ...]:
    """Entries (b00, b01, b10, b11) of one homogeneous step on the plane waves e^{ikx}.

    ``angle`` holds k dx: on a plane wave a shift by k sites multiplies plus
    by e^{ik k dx} and minus by its conjugate, so each two-site tap is the
    phase e^{+-2ik dx}. Column j of the block is the step applied to the
    j-th unit spinor. The entries are complex long doubles, because a block
    is raised to the number of steps: rounded to double, its rounding would
    grow with that number.
    """
    angle = np.asarray(angle, dtype=np.longdouble)

    def shift(p, m, k):
        phase = np.exp(1j * k * angle)
        return phase * p, phase.conj() * m

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


@dataclass(frozen=True)
class MomentumOperator:
    """A 2x2 operator on each ring momentum, held as its entries over the FFT bins.

    ``apply`` takes the FFT of a field, mixes each bin's components by that
    bin's entries (``_mix``) and transforms back.
    """

    entries: tuple[np.ndarray, ...]

    def apply(self, field: SpinorField) -> SpinorField:
        if len(self.entries[0]) != field.n_sites:
            raise DomainError("operator and field live on different grids")
        ft = np.fft.fft(field.data, axis=0)
        p, m = _mix(self.entries, ft[:, 0], ft[:, 1])
        return field.with_data(np.fft.ifft(np.stack([p, m], axis=1), axis=0))


def _check_spacing(field: SpinorField, params: ScalingParams) -> None:
    if abs(field.dx - params.dx) > 1e-12 * max(field.dx, params.dx):
        raise DomainError(f"field.dx = {field.dx} does not match params.dx = {params.dx}")


def _pointwise(mat: tuple[np.ndarray, ...], field: SpinorField, order: str = "C") -> SpinorField:
    """``field`` with the entry arrays ``mat`` applied at each site, stored in ``order``."""
    data = np.empty((field.n_sites, 2), dtype=np.complex128, order=order)
    data[:, 0], data[:, 1] = _mix(mat, field.plus, field.minus)
    return SpinorField._unchecked(data, field.dx)  # unitary arithmetic on a valid field


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
        The step's operators, as ``_step_operators`` builds them on this
        field's ring. None builds them at time t. With both mixing powers
        None the step is C(zeta) and the taps only: ``_trajectory`` steps a
        static inhomogeneous trajectory so, between one Lambda^kappa and
        one Lambda^(-kappa).

    Returns
    -------
    SpinorField
        The field at time t + 2*dt, stored in the input's memory order.
        Without Lambda^(-kappa) on F-ordered data, whose components are
        contiguous columns, ``_apply`` writes the two columns itself
        (its ``out``); otherwise its results are copied in. Both give the
        same bits.
    """
    _check_spacing(field, params)
    if ops is None:
        ops = _step_operators(params, t, field.positions())
    data = np.empty_like(field.data)
    if ops[3] is None and data.flags.f_contiguous:
        _apply(ops, field.plus, field.minus, _shift, out=(data[:, 0], data[:, 1]))
    else:
        data[:, 0], data[:, 1] = _apply(ops, field.plus, field.minus, _shift)
    return SpinorField._unchecked(data, field.dx)  # unitary arithmetic on a valid field


def _trajectory(field: SpinorField, params: ScalingParams, steps: int, stride: int):
    """Yield (steps taken, field) after every ``stride`` steps of ``steps``, and after the last.

    Step j starts at 2*dt*j. A static profile's operators are built here,
    once, on the field's ring; a profile that depends on t leaves each
    step's to ``qw_step``. A static inhomogeneous trajectory is stepped in
    the mixing-power frame: Lambda^kappa once, then one ``qw_step`` of
    C(zeta) and the taps per step, and each yield applies Lambda^(-kappa)
    to a copy while the rotated state carries on. Its field after s steps
    is therefore bitwise the same for every stride, as is a time-dependent
    profile's. A homogeneous trajectory takes one Fourier multiplier per
    chunk of ``stride`` steps.
    """
    ops = _step_operators(params, 0.0, field.positions()) if params.cprofile.static else None
    if not steps:
        return
    if params.cprofile.homogeneous:
        _check_spacing(field, params)
        angle = _TWO_PI * np.arange(field.n_sites) / field.n_sites  # k dx of each FFT bin
        block, powers = _block(ops, angle), {}
        for start in range(0, steps, stride):
            chunk = min(stride, steps - start)
            if chunk not in powers:  # the stride's, and a shorter last chunk's
                powers[chunk] = MomentumOperator(tuple(b.astype(np.complex128) for b in _power(block, chunk)))
            field = powers[chunk].apply(field)
            yield start + chunk, field
        return
    if ops is None:  # full steps, each built at its start time
        state, step_ops, lam_inv = field, None, None
    else:  # the rotated state keeps its components apart, so each step reads them contiguously
        state, step_ops, lam_inv = _pointwise(ops[0], field, order="F"), (None, *ops[1:3], None), ops[3]
    for start in range(0, steps, stride):
        stop = min(start + stride, steps)
        for j in range(start, stop):
            state = qw_step(state, params, 2.0 * params.epsilon * j, ops=step_ops)
        yield stop, state if lam_inv is None else _pointwise(lam_inv, state)


def evolve_walk(field: SpinorField, params: ScalingParams, steps: int) -> SpinorField:
    """Apply ``steps`` walk steps; step j starts at 2*dt*j.

    A static profile's operators are built once. A homogeneous profile's
    steps are applied as one Fourier multiplier: the FFT of the field, each
    ring momentum's block to the power ``steps``, and the inverse FFT. A
    static inhomogeneous profile applies Lambda^kappa once, takes one
    ``qw_step`` of C(zeta) and the taps per step, and applies
    Lambda^(-kappa) once. Both agree with the product of full ``qw_step``s
    to roundoff, not bitwise. A profile that depends on t takes one full
    ``qw_step`` per step, built at its start time. The result is the last
    field ``_trajectory`` yields in one chunk, so a snapshot loop over the
    same trajectory meets it bitwise.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise DomainError(f"steps must be a nonnegative integer, got {steps!r}")
    out = field
    for _, out in _trajectory(field, params, int(steps), max(int(steps), 1)):
        pass
    return out


def momentum_block(params: ScalingParams, k) -> np.ndarray:
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
    block = _block(_step_operators(params, 0.0, np.zeros(1)), angle)
    return np.stack(block, axis=-1).astype(np.complex128).reshape(angle.shape + (2, 2))


def ring_momenta(n_sites: int, dx: float) -> np.ndarray:
    """Momenta 2*pi*n/(N*dx) in FFT order, n = 0..N-1 folded to +-."""
    return 2.0 * np.pi * np.fft.fftfreq(n_sites, d=dx)
