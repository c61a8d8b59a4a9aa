"""Continuous-time reference evolutions for the walk's two limits.

The discrete-space references are nearest-neighbour lattice Hamiltonians

    (H psi)_l = (i / (2 dx)) * sigma_x * (c_{l-1/2} psi_{l-1} - c_{l+1/2} psi_{l+1})
                - m * sigma_z * psi_l

with the speed sampled at half-sites (bond midpoints), which makes H
Hermitian term by term.

A translation-invariant (constant-speed) operator is diagonal in ring
momentum: mode k evolves by the closed-form 2x2 block
exp(-i (c q sigma_x - m sigma_z) T), with effective momentum q = k for the
continuum and q = sin(k dx)/dx for the lattice. Both propagators are built
from ``dirac_block``. Dense diagonalization (``evolve_exact``) and Cayley
stepping serve only inhomogeneous grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, SizeError, SolverError
from .fields import CProfile, SpinorField
from .walk import ring_momenta

DENSE_DIM_BUDGET = 4096  # largest 2N handled by dense diagonalization


@dataclass
class LatticeHamiltonian:
    """Banded Hermitian operator on spinor fields over a periodic ring.

    ``c_minus[l]`` and ``c_plus[l]`` are the hopping speeds on the bonds to
    the left and right of site l; Hermiticity holds because neighbouring
    sites quote the same speed for their shared bond.
    """

    c_minus: np.ndarray
    c_plus: np.ndarray
    dx: float
    m: float

    @property
    def n_sites(self) -> int:
        return len(self.c_minus)

    @property
    def dim(self) -> int:
        return 2 * self.n_sites

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Matrix-vector product on an (N, 2) component array."""
        left = np.roll(data, +1, axis=0)   # psi_{l-1}
        right = np.roll(data, -1, axis=0)  # psi_{l+1}
        hop = (0.5j / self.dx) * (
            self.c_minus[:, None] * left[:, ::-1] - self.c_plus[:, None] * right[:, ::-1]
        )
        mass = np.empty_like(data)
        mass[:, 0] = -self.m * data[:, 0]
        mass[:, 1] = +self.m * data[:, 1]
        return hop + mass

    def dense(self) -> np.ndarray:
        """The (2N, 2N) matrix, site-major: row 2l + a is component a of site l."""
        n = self.n_sites
        sites = np.arange(n)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = np.zeros((n, 2, n, 2), dtype=np.complex128)
        # separate statements, so the two hops add up on a two-site ring
        h[sites, :, (sites - 1) % n, :] += ((0.5j / self.dx) * self.c_minus)[:, None, None] * sx
        h[sites, :, (sites + 1) % n, :] += ((-0.5j / self.dx) * self.c_plus)[:, None, None] * sx
        h[sites, :, sites, :] += np.diag([-self.m, self.m])
        return h.reshape(2 * n, 2 * n)

    def sparse(self) -> sp.csc_matrix:
        n = self.n_sites
        rows, cols, vals = [], [], []
        for l in range(n):
            lm, lp = (l - 1) % n, (l + 1) % n
            for a in (0, 1):
                b = 1 - a
                rows.append(2 * l + a)
                cols.append(2 * lm + b)
                vals.append(0.5j / self.dx * self.c_minus[l])
                rows.append(2 * l + a)
                cols.append(2 * lp + b)
                vals.append(-0.5j / self.dx * self.c_plus[l])
            rows += [2 * l, 2 * l + 1]
            cols += [2 * l, 2 * l + 1]
            vals += [-self.m, +self.m]
        return sp.csc_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))


def lattice_hamiltonian_flat(N: int, dx: float, m: float, c: float) -> LatticeHamiltonian:
    """Homogeneous lattice Hamiltonian; momentum blocks have eigenvalues
    +- sqrt(c^2 sin^2(k dx)/dx^2 + m^2)."""
    return lattice_hamiltonian_curved(N, dx, m, CProfile.constant(c))


def lattice_hamiltonian_curved(
    N: int, dx: float, m: float, cprofile: CProfile, t0: float = 0.0
) -> LatticeHamiltonian:
    """Inhomogeneous lattice Hamiltonian with bond speeds c(t0, x_l +- dx/2)."""
    if N < 2:
        raise DomainError(f"need N >= 2 sites, got {N}")
    if dx <= 0:
        raise DomainError(f"dx must be positive, got {dx}")
    if m < 0:
        raise DomainError(f"mass must be nonnegative, got {m}")
    xs = np.arange(N) * dx
    c_minus = cprofile.sample(t0, xs - 0.5 * dx)
    c_plus = cprofile.sample(t0, xs + 0.5 * dx)
    return LatticeHamiltonian(c_minus=c_minus, c_plus=c_plus, dx=dx, m=m)


def evolve_exact(H: LatticeHamiltonian, psi0: SpinorField, T: float) -> SpinorField:
    """exp(-i H T) psi0 by dense diagonalization. Budget: 2N <= 4096."""
    if H.dim > DENSE_DIM_BUDGET:
        raise SizeError(f"dense evolution limited to dim {DENSE_DIM_BUDGET}, got {H.dim}")
    if H.n_sites != psi0.n_sites:
        raise DomainError("operator and field live on different grids")
    w, v = scipy.linalg.eigh(H.dense())
    out = (v * np.exp(-1j * w * T)) @ (v.conj().T @ psi0.data.reshape(-1))
    return psi0.with_data(out.reshape(-1, 2))


def evolve_crank_nicolson(
    H: LatticeHamiltonian, psi0: SpinorField, T: float, steps: int
) -> SpinorField:
    """Repeated Cayley steps (I + i H tau/2)^{-1} (I - i H tau/2), tau = T/steps.

    The rational factor is exactly unitary for Hermitian H, so the norm is
    conserved up to solver roundoff; the global error is O(tau^2). The
    periodic band matrix is LU-factorized once and reused for every step.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if H.n_sites != psi0.n_sites:
        raise DomainError("operator and field live on different grids")
    tau = T / steps
    hs = H.sparse()
    eye = sp.identity(H.dim, format="csc", dtype=np.complex128)
    a = (eye + 0.5j * tau * hs).tocsc()
    b = (eye - 0.5j * tau * hs).tocsc()
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        raise SolverError(f"factorization of the stepping matrix failed: {exc}") from exc
    v = psi0.data.reshape(-1)
    norm0 = np.linalg.norm(v)
    for _ in range(steps):
        v = lu.solve(b @ v)
    if not np.all(np.isfinite(v)):
        raise SolverError("Cayley stepping produced non-finite amplitudes")
    drift = abs(np.linalg.norm(v) - norm0) / max(norm0, 1e-300)
    if drift > 1e-8:
        raise SolverError(f"norm drift {drift:.3e} after {steps} Cayley steps")
    return psi0.with_data(v.reshape(-1, 2))


@dataclass
class DiracPropagator:
    """Momentum-resolved propagator of a translation-invariant operator.

    ``blocks[i]`` is exp(-i (c q_i sigma_x - m sigma_z) T) for the FFT-ordered
    ring momentum k_i and its effective momentum q_i; fields are propagated
    by transforming each component, applying the block, and transforming
    back.
    """

    ks: np.ndarray
    blocks: np.ndarray  # (N, 2, 2)
    m: float
    c: float
    T: float

    def apply(self, field: SpinorField) -> SpinorField:
        if len(self.ks) != field.n_sites:
            raise DomainError("propagator and field live on different grids")
        ph = np.fft.fft(field.data, axis=0)
        ph = np.einsum("kij,kj->ki", self.blocks, ph)
        return field.with_data(np.fft.ifft(ph, axis=0))


def dirac_block(q, c: float, m: float, T: float) -> np.ndarray:
    """Closed-form exp(-i (c q sigma_x - m sigma_z) T), vectorized over q.

    Returns one 2x2 block per entry of ``q`` (shape ``q.shape + (2, 2)``),
    so a scalar q gives a single 2x2 matrix.
    """
    q = np.asarray(q, dtype=float)
    e = np.hypot(c * q, m)
    zero = e == 0.0  # sin(e T)/e -> T; the block is the identity there
    sinc = np.where(zero, T, np.sin(e * T) / np.where(zero, 1.0, e))
    cos = np.cos(e * T)
    blocks = np.empty(q.shape + (2, 2), dtype=np.complex128)
    blocks[..., 0, 0] = cos + 1j * sinc * m
    blocks[..., 1, 1] = cos - 1j * sinc * m
    blocks[..., 0, 1] = blocks[..., 1, 0] = -1j * sinc * (c * q)
    return blocks


def _momentum_propagator(
    ks: np.ndarray, q: np.ndarray, m: float, c: float, T: float
) -> DiracPropagator:
    """Table of ``dirac_block(q_i)`` over the ring momenta k_i."""
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"c must lie in [0, 1], got {c}")
    if m < 0:
        raise DomainError(f"mass must be nonnegative, got {m}")
    return DiracPropagator(ks=ks, blocks=dirac_block(q, c, m, T), m=m, c=c, T=T)


def dirac_propagator(N: int, dx: float, m: float, c: float, T: float) -> DiracPropagator:
    """Continuum propagator over the N ring momenta (q = k)."""
    ks = ring_momenta(N, dx)
    return _momentum_propagator(ks, ks, m, c, T)


def lattice_propagator(N: int, dx: float, m: float, c: float, T: float) -> DiracPropagator:
    """exp(-i H T) for the homogeneous lattice Hamiltonian (q = sin(k dx)/dx).

    Equal to ``evolve_exact`` on ``lattice_hamiltonian_flat(N, dx, m, c)``
    up to roundoff, without a dense matrix or a size budget.
    """
    ks = ring_momenta(N, dx)
    return _momentum_propagator(ks, np.sin(ks * dx) / dx, m, c, T)


def trig_interpolate(field: SpinorField, refinement: int) -> SpinorField:
    """Spectral interpolation onto a grid refined by an integer factor.

    Exact for band-limited fields; the Nyquist mode of an even-length grid
    is split symmetrically to keep real data real.
    """
    if refinement < 1:
        raise DomainError(f"refinement must be >= 1, got {refinement}")
    if refinement == 1:
        return field.copy()
    n = field.n_sites
    nf = n * refinement
    spec = np.fft.fft(field.data, axis=0)
    out = np.zeros((nf, 2), dtype=np.complex128)
    h = n // 2
    if n % 2 == 0:
        out[:h] = spec[:h]
        out[nf - h + 1 :] = spec[h + 1 :]
        out[h] = 0.5 * spec[h]
        out[nf - h] = 0.5 * spec[h]
    else:
        out[: h + 1] = spec[: h + 1]
        out[nf - h :] = spec[h + 1 :]
    return SpinorField(np.fft.ifft(out, axis=0) * refinement, field.dx / refinement)


def restrict(field: SpinorField, refinement: int) -> SpinorField:
    """Pointwise restriction back to the coarse grid."""
    return SpinorField(field.data[::refinement].copy(), field.dx * refinement)


def curved_dirac_reference(
    psi0: SpinorField, cprofile: CProfile, m: float, T: float, refinement: int
) -> SpinorField:
    """Method-of-lines continuum reference for inhomogeneous speeds.

    The field is spectrally interpolated to a grid refined by the given
    factor, evolved under the curved lattice Hamiltonian there with Cayley
    steps of size tau <= dx_fine/4, and restricted back. On the fine grid
    the O(dx_fine^2) discretization error dominates the O(tau^2) stepping
    error, so the result converges to the curved continuum evolution.
    """
    fine = trig_interpolate(psi0, refinement)
    h = lattice_hamiltonian_curved(fine.n_sites, fine.dx, m, cprofile, t0=0.0)
    tau = fine.dx / 4.0
    steps = max(1, int(np.ceil(T / tau)))
    if T > 0:
        evolved = evolve_crank_nicolson(h, fine, T, steps)
    else:
        evolved = fine
    return restrict(evolved, refinement)
