"""Partitioned-gate cellular automaton over occupation qubits.

Each of the N ring cells carries two qubits: a left-mover subcell and a
right-mover subcell. One automaton step applies four brickwork layers,
right to left: a crossing gate U on every pair (right subcell of cell l,
left subcell of cell l+1), the in-cell swap V, the conjugate crossing gate
U*, and V again. All gates conserve total occupation, so the evolution is
block-diagonal over particle-number sectors; the one-particle sector
reproduces the walk step (with the mixing power set to the identity) up to
the half-shift encoding checked by :func:`verify_encoding`.

Conventions: qubit 2l is the left-mover subcell of cell l, qubit 2l+1 the
right-mover; basis-state index bit q is the occupation of qubit q. In a
two-qubit gate basis |ab>, label a is the left-mover qubit of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from .errors import BudgetError, DomainError, OrthogonalityError, SectorError
from .fields import SpinorField
from .walk import coin_matrix, shift_minus, shift_plus

QUBIT_BUDGET = 24


def gate_V() -> np.ndarray:
    """In-cell swap |00><00| + |01><10| + |10><01| - |11><11|.

    The minus sign is the exchange phase picked up when two excitations
    permute.
    """
    v = np.zeros((4, 4), dtype=np.complex128)
    v[0, 0] = 1.0
    v[1, 2] = 1.0
    v[2, 1] = 1.0
    v[3, 3] = -1.0
    return v


def gate_U(theta: float, zeta: float, chiral_y: bool = False) -> np.ndarray:
    """Crossing gate; its one-particle block realizes the walk coin.

    With ``chiral_y`` the |10><10| entry changes sign, selecting the
    alternative convention whose massless lattice limit commutes with
    sigma_y instead of sigma_x; the |01><10| entry flips with it (the lone
    sign change would break column orthogonality, so the variant is the
    minimal unitary completion).
    """
    s, c = np.sin(theta), np.cos(theta)
    u = np.zeros((4, 4), dtype=np.complex128)
    u[0, 0] = 1.0
    u[1, 1] = np.exp(-1j * zeta) * s
    u[1, 2] = c if chiral_y else -c
    u[2, 1] = c
    u[2, 2] = (-1.0 if chiral_y else 1.0) * np.exp(1j * zeta) * s
    u[3, 3] = -1.0
    return u


@dataclass
class QcaState:
    """Statevector over 2N occupation qubits, cell 0 least significant."""

    amplitudes: np.ndarray
    n_cells: int

    def __post_init__(self):
        if 2 * self.n_cells > QUBIT_BUDGET:
            raise BudgetError(
                f"{2 * self.n_cells} qubits exceed the statevector budget of {QUBIT_BUDGET}"
            )
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (2 ** (2 * self.n_cells),):
            raise DomainError(
                f"amplitude vector has length {self.amplitudes.shape}, expected 2^{2 * self.n_cells}"
            )

    @classmethod
    def vacuum(cls, n_cells: int) -> "QcaState":
        amp = np.zeros(2 ** (2 * n_cells), dtype=np.complex128)
        amp[0] = 1.0
        return cls(amp, n_cells)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "QcaState":
        return QcaState(self.amplitudes.copy(), self.n_cells)

    def occupations(self) -> np.ndarray:
        """Expectation of the occupation of each qubit (mode)."""
        nq = 2 * self.n_cells
        probs = np.abs(self.amplitudes) ** 2
        idx = np.arange(len(probs))
        return np.array([probs[(idx >> q) & 1 == 1].sum() for q in range(nq)])


def _apply_two_qubit(amp: np.ndarray, gate: np.ndarray, q1: int, q2: int, nq: int) -> np.ndarray:
    """Apply a 4x4 gate; in the gate basis |ab>, a is qubit q1, b is q2."""
    psi = amp.reshape([2] * nq)
    # reshape axis for qubit q is nq-1-q (bit q of the index)
    a1, a2 = nq - 1 - q1, nq - 1 - q2
    psi = np.moveaxis(psi, (a1, a2), (0, 1))
    shape = psi.shape
    psi = (gate @ psi.reshape(4, -1)).reshape(shape)
    psi = np.moveaxis(psi, (0, 1), (a1, a2))
    return psi.reshape(-1)


def _as_crossing_arrays(n_cells: int, theta, zeta) -> tuple[np.ndarray, np.ndarray]:
    th = np.broadcast_to(np.asarray(theta, dtype=float), (n_cells,)).copy()
    ze = np.broadcast_to(np.asarray(zeta, dtype=float), (n_cells,)).copy()
    return th, ze


def qca_step(state: QcaState, theta, zeta, chiral_y: bool = False) -> QcaState:
    """Advance the automaton by one step (duration 2*dt).

    ``theta`` and ``zeta`` may be scalars or length-N arrays indexed by the
    crossing between cells l and l+1 (periodic).
    """
    n = state.n_cells
    nq = 2 * n
    th, ze = _as_crossing_arrays(n, theta, zeta)
    amp = state.amplitudes.copy()
    v = gate_V()

    def crossing_layer(a: np.ndarray, conj: bool) -> np.ndarray:
        for l in range(n):
            u = gate_U(th[l], ze[l], chiral_y)
            if conj:
                u = u.conj()
            q_left = (2 * l + 2) % nq   # left-mover subcell of cell l+1
            q_right = 2 * l + 1         # right-mover subcell of cell l
            a = _apply_two_qubit(a, u, q_left, q_right, nq)
        return a

    def swap_layer(a: np.ndarray) -> np.ndarray:
        for l in range(n):
            a = _apply_two_qubit(a, v, 2 * l, 2 * l + 1, nq)
        return a

    amp = crossing_layer(amp, conj=False)
    amp = swap_layer(amp)
    amp = crossing_layer(amp, conj=True)
    amp = swap_layer(amp)
    return QcaState(amp, n)


def embed_one_particle(psi: SpinorField) -> QcaState:
    """Map plus_l to cell l with the left-mover subcell occupied, minus_l
    to the right-mover subcell."""
    n = psi.n_sites
    amp = np.zeros(2 ** (2 * n), dtype=np.complex128)
    for l in range(n):
        amp[1 << (2 * l)] = psi.data[l, 0]
        amp[1 << (2 * l + 1)] = psi.data[l, 1]
    return QcaState(amp, n)


def extract_one_particle(state: QcaState, dx: float = 1.0, tol: float = 1e-10) -> SpinorField:
    """Inverse of :func:`embed_one_particle`.

    Raises SectorError if the squared weight outside the one-particle
    sector exceeds ``tol``.
    """
    n = state.n_cells
    data = np.zeros((n, 2), dtype=np.complex128)
    captured = 0.0
    for l in range(n):
        a_plus = state.amplitudes[1 << (2 * l)]
        a_minus = state.amplitudes[1 << (2 * l + 1)]
        data[l, 0] = a_plus
        data[l, 1] = a_minus
        captured += abs(a_plus) ** 2 + abs(a_minus) ** 2
    outside = state.norm() ** 2 - captured
    if outside > tol:
        raise SectorError(f"weight {outside:.3e} outside the one-particle sector")
    return SpinorField(data, dx)


def one_particle_matrix(n_cells: int, theta, zeta, chiral_y: bool = False) -> np.ndarray:
    """2N x 2N matrix of one automaton step on the one-particle sector.

    Mode index 2l is the left-mover (plus) at cell l, 2l+1 the right-mover.
    """
    dim = 2 * n_cells
    w1 = np.zeros((dim, dim), dtype=np.complex128)
    for mode in range(dim):
        psi = np.zeros((n_cells, 2), dtype=np.complex128)
        psi[mode // 2, mode % 2] = 1.0
        out = extract_one_particle(qca_step(embed_one_particle(SpinorField(psi, 1.0)), theta, zeta, chiral_y))
        w1[:, mode] = out.data.reshape(-1)
    return w1


def _walk_no_mixing(data: np.ndarray, theta: float, zeta: float) -> np.ndarray:
    """Walk step with the mixing power replaced by the identity."""
    c_p = coin_matrix(theta, zeta)
    c_m = coin_matrix(theta, -zeta)
    out = data @ c_p.T
    out = shift_minus(shift_plus(out))
    out = out @ c_m.T
    out = shift_minus(shift_plus(out))
    return out


def verify_encoding(theta: float, zeta: float, N: int) -> float:
    """Max residual of the one-particle sector identity over a full basis.

    The automaton restricted to one particle equals the composition of
    partial shifts and coins W' = (S^- C(-zeta) S^+)(S^- C(zeta) S^+),
    which is the walk step (mixing power set to the identity) conjugated
    by the encoding E = S^+. Residuals at roundoff certify the sector
    equivalence.
    """
    if N > 12:
        raise BudgetError(f"verify_encoding limited to 12 cells, got {N}")
    worst = 0.0
    for comp in range(2):
        for l in range(N):
            data = np.zeros((N, 2), dtype=np.complex128)
            data[l, comp] = 1.0
            psi = SpinorField(data, 1.0)
            via_qca = extract_one_particle(qca_step(embed_one_particle(psi), theta, zeta))
            # E^dag W E with E = S^+ (plus component advanced one site)
            encoded = shift_plus(psi.data)
            walked = _walk_no_mixing(encoded, theta, zeta)
            decoded = walked.copy()
            decoded[:, 0] = np.roll(walked[:, 0], +1)
            worst = max(worst, float(np.linalg.norm(via_qca.data - decoded)))
    return worst


@dataclass
class SlaterState:
    """Orthonormal single-particle orbitals, one column per particle.

    Row index is the mode 2l + s (s = 0 left-mover, 1 right-mover).
    """

    orbitals: np.ndarray
    reortho_count: int = dc_field(default=0)

    def __post_init__(self):
        self.orbitals = np.asarray(self.orbitals, dtype=np.complex128)
        if self.orbitals.ndim != 2:
            raise DomainError("orbitals must form a (modes, particles) matrix")

    @property
    def n_modes(self) -> int:
        return self.orbitals.shape[0]

    @property
    def n_particles(self) -> int:
        return self.orbitals.shape[1]

    def gram_deviation(self) -> float:
        g = self.orbitals.conj().T @ self.orbitals
        return float(np.max(np.abs(g - np.eye(self.n_particles))))

    def occupations(self) -> np.ndarray:
        return np.sum(np.abs(self.orbitals) ** 2, axis=1)


def slater_evolve(orbitals: SlaterState, one_particle_step, steps: int) -> SlaterState:
    """Evolve a determinant by applying the one-particle step to each orbital.

    Re-orthonormalizes (QR with positive diagonal) only when the Gram
    deviation exceeds 1e-10, and counts how often that happened. A Gram
    deviation above 1e-6 at any point raises OrthogonalityError.
    """
    dev = orbitals.gram_deviation()
    if dev > 1e-6:
        raise OrthogonalityError(f"input orbitals deviate from orthonormal by {dev:.3e}")
    n_cells = orbitals.n_modes // 2
    phi = orbitals.orbitals.copy()
    reortho = orbitals.reortho_count
    for _ in range(steps):
        for j in range(phi.shape[1]):
            fld = SpinorField(phi[:, j].reshape(n_cells, 2), 1.0)
            phi[:, j] = one_particle_step(fld).data.reshape(-1)
        g = phi.conj().T @ phi
        dev = float(np.max(np.abs(g - np.eye(phi.shape[1]))))
        if dev > 1e-6:
            raise OrthogonalityError(f"orbital drift {dev:.3e} exceeds 1e-6")
        if dev > 1e-10:
            q, r = np.linalg.qr(phi)
            phases = np.sign(np.real(np.diag(r)))
            phases[phases == 0] = 1.0
            phi = q * phases
            reortho += 1
    return SlaterState(phi, reortho_count=reortho)


def slater_determinant_state(orbitals: SlaterState, n_cells: int) -> QcaState:
    """Embed an n-particle determinant into the qubit statevector.

    Amplitudes follow the ordered-mode convention: the basis state with
    modes m_1 < ... < m_n occupied receives det of the corresponding
    orbital rows.
    """
    if orbitals.n_modes != 2 * n_cells:
        raise DomainError("orbital mode count does not match the cell count")
    amp = np.zeros(2 ** (2 * n_cells), dtype=np.complex128)
    n = orbitals.n_particles
    for modes in combinations(range(2 * n_cells), n):
        amp[sum(1 << m for m in modes)] = np.linalg.det(orbitals.orbitals[list(modes), :])
    nrm = np.linalg.norm(amp)
    if nrm == 0.0:
        raise DomainError("determinant vanishes; orbitals are linearly dependent")
    return QcaState(amp / nrm, n_cells)


def dense_step_operator(n_cells: int, theta, zeta, chiral_y: bool = False) -> np.ndarray:
    """Dense matrix of one automaton step (for sector-structure checks)."""
    if n_cells > 5:
        raise BudgetError("dense step operator limited to 5 cells")
    dim = 2 ** (2 * n_cells)
    g = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        amp = np.zeros(dim, dtype=np.complex128)
        amp[j] = 1.0
        g[:, j] = qca_step(QcaState(amp, n_cells), theta, zeta, chiral_y).amplitudes
    return g
