"""Continuous-time reference evolutions for the walk's two limits.

The discrete-space references are nearest-neighbour lattice Hamiltonians

    (H psi)_l = (i / (2 dx)) * sigma_x * (c_{l-1/2} psi_{l-1} - c_{l+1/2} psi_{l+1})
                - m * sigma_z * psi_l

with the speed sampled at half-sites (bond midpoints), which makes H
Hermitian term by term.

Every lattice evolution, flat or inhomogeneous, is one Chebyshev expansion
of exp(-i H T) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) that
needs only H applied to a field (``evolve_exact``).

The constant-speed continuum operator is diagonal in ring momentum: mode k
evolves by the closed-form 2x2 block exp(-i (c k sigma_x - m sigma_z) T)
(``dirac_block``), applied as a ``walk.MomentumOperator``, the one form of
a per-momentum operator (``dirac_propagator``). The inhomogeneous
continuum reference is the Fourier pseudo-spectral operator
H = -(i/2) sigma_x (C D + D C) - m sigma_z, the continuum limit of the
bond-midpoint lattice H (C the speed on the grid, D the FFT derivative
without the even-N Nyquist mode), propagated by the same Chebyshev kernel.
Fields move between grids of the ring only by one spectral resampler
(``resample``), to any site count, finer or coarser; ``trig_interpolate``
is its integer-refinement form. Every reference runs on its input's own
grid; a caller that wants another grid resamples to it and back.
Cayley stepping (``evolve_crank_nicolson``) is a second-order integrator
with a dense step matrix, O(N^2) memory and an O(N^3) solve; no reference
runs it, and it stays only until the benchmark stops warming it up.

The package needs NumPy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, SolverError
from .fields import CProfile, SpinorField
from .walk import MomentumOperator, _entries, ring_momenta


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
        left = np.concatenate((data[-1:], data[:-1]))  # psi_{l-1}
        right = np.concatenate((data[1:], data[:1]))   # psi_{l+1}
        hop = (0.5j / self.dx) * (
            self.c_minus[:, None] * left[:, ::-1] - self.c_plus[:, None] * right[:, ::-1]
        )
        mass = np.empty_like(data)
        mass[:, 0] = -self.m * data[:, 0]
        mass[:, 1] = +self.m * data[:, 1]
        return hop + mass

    def dense(self) -> np.ndarray:
        """The (2N, 2N) matrix, site-major: row 2l + a is component a of site l.

        Entries at one position add up, as the two hops do on a two-site ring.
        """
        n = self.n_sites
        row = np.arange(2 * n)
        site, a = np.divmod(row, 2)
        rows = np.concatenate([row, row, row])
        cols = np.concatenate([2 * ((site - 1) % n) + 1 - a, 2 * ((site + 1) % n) + 1 - a, row])
        vals = np.concatenate([
            (0.5j / self.dx) * self.c_minus[site],
            (-0.5j / self.dx) * self.c_plus[site],
            np.where(a == 0, -self.m, self.m),
        ])
        out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        np.add.at(out, (rows, cols), vals)
        return out


def lattice_hamiltonian_flat(N: int, dx: float, m: float, c: float) -> LatticeHamiltonian:
    """Homogeneous lattice Hamiltonian; momentum blocks have eigenvalues
    +- sqrt(c^2 sin^2(k dx)/dx^2 + m^2)."""
    return lattice_hamiltonian_curved(N, dx, m, CProfile.constant(c))


def lattice_hamiltonian_curved(
    N: int, dx: float, m: float, cprofile: CProfile, t0: float = 0.0
) -> LatticeHamiltonian:
    """Inhomogeneous lattice Hamiltonian with bond speeds c(t0, x_l +- dx/2).

    Each bond's speed is sampled once, at its crossing x_l + dx/2, and both
    of its sites quote it; the seam bond between sites N-1 and 0 is sampled
    at L - dx/2, where the walk crosses it. So H is exactly Hermitian, also
    for a profile that is not periodic on the ring.
    """
    if N < 2:
        raise DomainError(f"need N >= 2 sites, got {N}")
    if not (np.isfinite(dx) and dx > 0):
        raise DomainError(f"dx must be finite and positive, got {dx}")
    if not (np.isfinite(m) and m >= 0):
        raise DomainError(f"mass must be finite and nonnegative, got {m}")
    xs = np.arange(N) * dx
    c_plus = cprofile.sample(t0, xs + 0.5 * dx)
    c_minus = np.roll(c_plus, 1)
    return LatticeHamiltonian(c_minus=c_minus, c_plus=c_plus, dx=dx, m=m)


def evolve_exact(H: LatticeHamiltonian, psi0: SpinorField, T: float) -> SpinorField:
    """exp(-i H T) psi0 by a Chebyshev expansion driven by ``H.apply``; no size limit.

    The series runs in H over its Gershgorin bound
    (max|c_minus| + max|c_plus|) / (2 dx) + |m|, which holds for any bond
    arrays. A non-Hermitian H (a hand-built one whose two sites quote
    different speeds for a bond) does not conserve the norm; the kernel
    raises ``SolverError`` once its drift exceeds 1e-8.
    """
    if H.n_sites != psi0.n_sites:
        raise DomainError("operator and field live on different grids")
    return psi0.with_data(_chebyshev_propagate(H.apply, psi0.data, T, _gershgorin_radius(H)))


def _gershgorin_radius(H: LatticeHamiltonian) -> float:
    """The bound on H's spectrum that ``evolve_exact`` runs its series with."""
    return float((np.max(np.abs(H.c_minus)) + np.max(np.abs(H.c_plus))) / (2.0 * H.dx) + abs(H.m))


def evolve_crank_nicolson(
    H: LatticeHamiltonian, psi0: SpinorField, T: float, steps: int
) -> SpinorField:
    """Repeated Cayley steps (I + i H tau/2)^{-1} (I - i H tau/2), tau = T/steps.

    The rational factor is exactly unitary for Hermitian H, so the norm is
    conserved up to roundoff; the global error is O(tau^2). The step matrix
    is formed once by one dense solve on ``H.dense()``, and each step is one
    matrix-vector product. That costs O(N^2) memory and an O(N^3) solve: at
    N = 1024 with 1000 steps it takes ~6 s and ~450 MB, against ~0.1 s for a
    sparse LU of the periodic band matrix (2-vCPU host). No reference runs it.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if H.n_sites != psi0.n_sites:
        raise DomainError("operator and field live on different grids")
    tau = T / steps
    h = H.dense()
    eye = np.eye(H.dim)
    try:
        step = np.linalg.solve(eye + 0.5j * tau * h, eye - 0.5j * tau * h)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"solve for the stepping matrix failed: {exc}") from exc
    v = psi0.data.reshape(-1)
    norm0 = np.linalg.norm(v)
    for _ in range(steps):
        v = step @ v
    if not np.all(np.isfinite(v)):
        raise SolverError("Cayley stepping produced non-finite amplitudes")
    drift = abs(np.linalg.norm(v) - norm0) / max(norm0, 1e-300)
    if drift > 1e-8:
        raise SolverError(f"norm drift {drift:.3e} after {steps} Cayley steps")
    return psi0.with_data(v.reshape(-1, 2))


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


def dirac_propagator(N: int, dx: float, m: float, c: float, T: float) -> MomentumOperator:
    """Continuum propagator: ``dirac_block(k_i)`` over the N FFT-ordered ring momenta k_i."""
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"c must lie in [0, 1], got {c}")
    if not (np.isfinite(m) and m >= 0):
        raise DomainError(f"mass must be finite and nonnegative, got {m}")
    if not (np.isfinite(dx) and dx > 0):
        raise DomainError(f"dx must be finite and positive, got {dx}")
    if not np.isfinite(T):
        raise DomainError(f"T must be finite, got {T}")
    return MomentumOperator(_entries(dirac_block(ring_momenta(N, dx), c, m, T)))


def resample(field: SpinorField, n_sites: int) -> SpinorField:
    """Spectral resampling onto ``n_sites`` sites of the same ring, finer or coarser.

    Modes both grids carry are copied. Going up, the Nyquist mode of an
    even-length grid is split symmetrically between +-N/2 to keep real data
    real; going down, the two modes that alias onto the coarse Nyquist mode
    are summed, so coarsening undoes refining, and modes beyond the coarse
    band are dropped. Exact for fields band-limited on both grids; the
    ratio of the grids need not be an integer.
    """
    n = field.n_sites
    if isinstance(n_sites, bool) or not isinstance(n_sites, (int, np.integer)) or n_sites < 2:
        raise DomainError(f"n_sites must be an integer >= 2, got {n_sites!r}")
    if n_sites == n:
        return field.copy()
    spec = np.fft.fft(field.data, axis=0)
    out = np.zeros((n_sites, 2), dtype=np.complex128)
    h, odd = divmod(min(n, n_sites), 2)
    out[: h + odd] = spec[: h + odd]  # k = 0 .. h - 1, and h if odd
    out[n_sites - h + 1 - odd :] = spec[n - h + 1 - odd :]  # k = -h .. -1 if odd, else 1 - h .. -1
    if not odd and n_sites > n:  # the Nyquist mode of the coarser grid, split
        out[h] = out[n_sites - h] = 0.5 * spec[h]
    elif not odd:  # the two fine modes that alias onto it, summed
        out[h] = spec[h] + spec[n - h]
    return SpinorField(np.fft.ifft(out, axis=0) * (n_sites / n), field.dx / (n_sites / n))


def trig_interpolate(field: SpinorField, refinement: int) -> SpinorField:
    """Spectral interpolation onto a grid refined by an integer factor (``resample``)."""
    if isinstance(refinement, bool) or not isinstance(refinement, (int, np.integer)) or refinement < 1:
        raise DomainError(f"refinement must be an integer >= 1, got {refinement!r}")
    return resample(field, field.n_sites * int(refinement))


_CHEBYSHEV_BUDGET = 10**6  # terms of one propagation, ~|z|; its FFT then holds at most 2^21 angles (32 MB)


def _check_term_budget(radius: float, T: float) -> None:
    """Refuse (BudgetError) a propagation over T in a spectrum bounded by ``radius`` past the term budget."""
    if not radius * T <= _CHEBYSHEV_BUDGET:
        raise BudgetError(f"spectral radius {radius:.3g} over T = {T} needs more than "
                          f"{_CHEBYSHEV_BUDGET:.0e} Chebyshev terms, the term budget")


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """Coefficients a_n of exp(-i z x) = sum_n a_n T_n(x) on [-1, 1], truncated at the Bessel tail.

    By Jacobi-Anger, a_0 = J_0(z) and a_n = 2 (-i)^n J_n(z), so the a_n are
    the cosine coefficients of exp(-i z cos theta), read off an FFT. The
    term count K >= 2 is the first n > |z| + 1 where Kapteyn's bound
    |J_n(z)| <= (x e^s / (1 + s))^n, x = |z|/n, s = sqrt(1 - x^2), summed over
    the tail, drops to 1e-16, below roundoff; the FFT has at least 2K angles,
    so aliasing adds at most that tail to each kept coefficient.
    """
    az = abs(z)
    n = np.arange(int(az) + 2, int(az + 30.0 * np.cbrt(az)) + 64)  # the bound is ~1e-60 at the end
    x = az / n
    s = np.sqrt(1.0 - x * x)
    bound = np.exp(n * (np.log(x) + s - np.log1p(s)))
    tail = 2.0 * np.cumsum(bound[::-1])[::-1]
    terms = int(n[np.argmax(tail <= 1e-16)])
    n_theta = 1 << int(np.ceil(np.log2(2 * terms)))
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    a = np.fft.fft(np.exp(-1j * z * np.cos(theta)))[:terms] / n_theta
    a[1:] *= 2.0
    return a


def _chebyshev_propagate(apply, data: np.ndarray, T: float, radius: float) -> np.ndarray:
    """exp(-i H T) data by a Chebyshev expansion, for Hermitian H given only as H.v.

    ``radius`` must bound the spectrum of H in absolute value; the series
    runs in H / radius. The result's norm is checked against the input's,
    which also catches a radius too small for H.
    """
    if not np.isfinite(T):
        raise DomainError(f"T must be finite, got {T}")
    if radius * T == 0.0:
        return data.copy()
    _check_term_budget(radius, T)
    a = _chebyshev_coefficients(radius * T)
    scale = 1.0 / radius
    prev, cur = data, scale * apply(data)
    out = a[0] * prev + a[1] * cur
    for coef in a[2:]:
        prev, cur = cur, 2.0 * scale * apply(cur) - prev
        out += coef * cur
    if not np.all(np.isfinite(out)):
        raise SolverError("Chebyshev propagation produced non-finite amplitudes")
    norm0 = np.linalg.norm(data)
    drift = abs(np.linalg.norm(out) - norm0) / max(norm0, 1e-300)
    if drift > 1e-8:
        raise SolverError(f"norm drift {drift:.3e} after {len(a)} Chebyshev terms")
    return out


def _spectral_dirac(cs: np.ndarray, dx: float, m: float):
    """H.v for H = -(i/2) sigma_x (C D + D C) - m sigma_z, and a bound on its spectrum.

    Acts on component-major (2, N) arrays, so every FFT runs along
    contiguous rows. D is the FFT derivative; the even-N Nyquist mode has no
    sign-symmetric wavenumber, so it is set to zero, which keeps D real. D is
    antisymmetric, so H is Hermitian; c' is never formed. The bound is
    ``_spectral_radius``'s.
    """
    n = len(cs)
    half_k = 0.5 * ring_momenta(n, dx)  # -(i/2) D is k/2 on mode k
    if n % 2 == 0:
        half_k[n // 2] = 0.0

    def apply(v: np.ndarray) -> np.ndarray:
        spec = np.fft.fft(np.concatenate((v, cs * v)), axis=-1)
        spec *= half_k
        d = np.fft.ifft(spec, axis=-1)  # -(i/2) D applied to (v, C v)
        d[:2] *= cs
        kin = d[:2] + d[2:]
        kin[1] -= m * v[0]
        kin[0] += m * v[1]
        return kin[::-1]  # sigma_x swaps the kinetic rows; the mass was added crosswise

    return apply, _spectral_radius(cs, dx, m)


def _spectral_radius(cs: np.ndarray, dx: float, m: float) -> float:
    """The bound on the spectrum of ``_spectral_dirac``'s operator: max c * pi / dx + m."""
    return float(np.max(cs)) * np.pi / dx + m


def curved_dirac_reference(psi0: SpinorField, cprofile: CProfile, m: float, T: float) -> SpinorField:
    """Pseudo-spectral continuum reference for inhomogeneous speeds, on psi0's own grid.

    The field is propagated under the pseudo-spectral curved Dirac operator
    with c frozen at t = 0 by a Chebyshev expansion; the result is C-ordered.
    The operator needs a periodic speed profile. For a field the grid
    resolves, the same propagation on a finer grid of the ring (through
    ``resample``) gives the same result to roundoff, so comparing the two
    measures the reference's own error.
    """
    if not (np.isfinite(m) and m >= 0):
        raise DomainError(f"mass must be finite and nonnegative, got {m}")
    apply, radius = _spectral_dirac(cprofile.sample(0.0, psi0.positions()), psi0.dx, m)
    evolved = _chebyshev_propagate(apply, psi0.data.T.copy(), T, radius)
    return psi0.with_data(np.ascontiguousarray(evolved.T))
