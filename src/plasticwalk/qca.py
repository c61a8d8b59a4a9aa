"""Partitioned-gate cellular automaton over occupation qubits.

Each of the N ring cells carries two qubits: a left-mover subcell and a
right-mover subcell. One automaton step applies four brickwork layers,
right to left: a crossing gate U on every pair (right subcell of cell l,
left subcell of cell l+1), the in-cell swap V, the conjugate crossing gate
U*, and V again. All gates conserve total occupation, so the evolution is
block-diagonal over particle-number sectors; the one-particle sector
reproduces the walk step (with the mixing power set to the identity) up to
the half-shift encoding checked by :func:`verify_encoding`, which runs the
walk's own step kernel.

The automaton is free-fermionic: every sector evolves as the determinant
(antisymmetrized tensor power) of the one-particle step, which gives it the
walk's continuous-time limit of lattice fermions. Two rules make this so.
Each gate's doubly occupied entry equals the determinant of its
one-particle block, so a gate on neighbouring modes is the second
quantization of that block. And the crossing between cell N-1 and cell 0,
whose qubits 2N-1 and 0 are not neighbours in the mode order, carries the
Jordan-Wigner sign (-1)^(occupation of modes 1..2N-2) on its hopping
entries.

A :class:`QcaState` holds only the number sectors it occupies, each as
the amplitudes at that sector's sorted basis indices, and every path
that steps the automaton acts on one sector at a time through one
kernel, :func:`_step_sector`, and a cached plan built from the sector's
own basis states. Each crossing gate's |01>/|10> block is the walk's
coin times sigma_x (:func:`gate_U` takes it from ``walk.coin_matrix``).
By the determinant rule a crossing gate acts on a doubly occupied pair
as the identity, so the kernel reads only that block, applies it with
the walk's own 2x2 kernel, ``walk._mix``, and a plan holds no |11>
positions. The plan applies each layer with as few array updates as the
sector allows: the swap layer V is one signed permutation (a gather and
one multiply) in every sector; a crossing layer is one gathered 2x2
update below two particles, where each mode sits in one gate, and one
update per gate above. One builder, :func:`_sector_plan`, makes every
plan, the one-particle plan of a ring of any size included, in a few
passes over the sector's whole mode array: :func:`_sector_modes` lists
the states by an array recursion on their top mode, and each layer's
updates come from slices of that array, with no loop over states. The
k-particle seam sign is the one scalar (-1)^(k-1), folded into the seam
gate's hopping entries, and the N crossing gates are built in one call.
The dense step operator is assembled block by block from the same plans,
and the one-particle matrix steps the modes as a few batched states
through the one-particle plan. Of the paths that take or return a state,
only the ``QcaState`` constructor and its ``amplitudes`` touch 4^N
entries; the dense step operator is kept for checks. Only the
constructor reads the 4^N popcount table.

Conventions: qubit 2l is the left-mover subcell of cell l, qubit 2l+1 the
right-mover. The crossing gate of cell l acts on the qubit pair
(q_a, q_b) = (2l+2 mod 2N, 2l+1), the last one being the ring seam, and
the swap of cell l on (2l, 2l+1). Basis-state index bit q is the
occupation of qubit q, which is also fermionic mode q of the ordered-mode
(Jordan-Wigner) encoding used by :func:`slater_determinant_state`. In a
two-qubit gate basis |ab>, label a is the left-mover qubit of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import comb, hypot

import numpy as np

from .errors import BudgetError, DomainError, OrthogonalityError, SectorError
from .fields import SpinorField
from .walk import _apply, _mix, _operators, _shift, coin_matrix

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


def gate_U(theta, zeta) -> np.ndarray:
    """Crossing gate; its one-particle block is the walk coin times sigma_x.

    The block [[e^{-iz} sin t, -cos t], [cos t, e^{iz} sin t]] is
    :func:`plasticwalk.walk.coin_matrix` with its columns swapped, stacked
    as the coin is: scalar angles give one 4x4 gate, an array of N
    crossing angles an (N, 4, 4) stack. The |11><11|
    entry is the determinant of the one-particle block (+1), so the gate is
    the second quantization of that block and two movers that meet pick up
    no phase beyond fermionic antisymmetry. At theta = pi/2, zeta = 0 the
    gate is the identity.
    """
    coin = coin_matrix(theta, zeta)
    u = np.zeros(coin.shape[:-2] + (4, 4), dtype=np.complex128)
    u[..., 0, 0] = u[..., 3, 3] = 1.0
    u[..., 1:3, 1:3] = coin[..., :, ::-1]  # the coin times sigma_x
    return u


def _check_budget(n_cells: int) -> None:
    if n_cells < 1:
        raise DomainError(f"the automaton needs at least 1 cell, got {n_cells}")
    if 2 * n_cells > QUBIT_BUDGET:
        raise BudgetError(f"{2 * n_cells} qubits exceed the statevector budget of {QUBIT_BUDGET}")


class QcaState:
    """A state of the 2N occupation qubits, held as its occupied number sectors.

    ``sectors`` maps each particle number k the state occupies to its
    amplitudes at the sector's sorted basis indices
    (``_sector_plan(n_cells, k).idx``, cell 0 least significant); a sector
    that is not held has zero amplitude. ``QcaState(amplitudes, n_cells)``
    reads a whole 4^N statevector once and keeps its nonzero sectors, and
    :attr:`amplitudes` scatters them back into a new one; every other
    operation touches only the held sectors.
    """

    sectors: dict[int, np.ndarray]
    n_cells: int

    def __init__(self, amplitudes, n_cells: int):
        _check_budget(n_cells)
        amp = np.asarray(amplitudes, dtype=np.complex128)
        if amp.shape != (2 ** (2 * n_cells),):
            raise DomainError(f"amplitude vector has length {amp.shape}, expected 2^{2 * n_cells}")
        weight = _popcount(2 * n_cells)
        self.n_cells = n_cells
        self.sectors = {k: amp[weight == k] for k in np.unique(weight[amp != 0]).tolist()}

    @classmethod
    def _from_sectors(cls, sectors: dict[int, np.ndarray], n_cells: int) -> "QcaState":
        _check_budget(n_cells)
        state = cls.__new__(cls)
        state.sectors, state.n_cells = sectors, n_cells
        return state

    @classmethod
    def vacuum(cls, n_cells: int) -> "QcaState":
        return cls._from_sectors({0: np.ones(1, dtype=np.complex128)}, n_cells)

    @property
    def amplitudes(self) -> np.ndarray:
        """The whole 4^N statevector, as a new array."""
        amp = np.zeros(2 ** (2 * self.n_cells), dtype=np.complex128)
        for k, x in self.sectors.items():
            amp[_sector_plan(self.n_cells, k).idx] = x
        return amp

    def norm(self) -> float:
        return hypot(*(np.linalg.norm(x) for x in self.sectors.values()))

    def occupations(self) -> np.ndarray:
        """Expectation of the occupation of each qubit (mode).

        Each state's weight is added to its k occupied modes, so the
        temporaries are the sector's (k, C) mode array, not a (C, 2N) bit table.
        """
        occ = np.zeros(2 * self.n_cells)
        for k, x in self.sectors.items():
            modes = _sector_modes(2 * self.n_cells, k).T  # row i: the i-th mode of every state
            occ += np.bincount(modes.ravel(), np.tile(np.abs(x) ** 2, k), minlength=2 * self.n_cells)
        return occ


@lru_cache(maxsize=None)
def _popcount(n_bits: int) -> np.ndarray:
    """popcount(j) for j = 0..2^n_bits-1, as a read-only int8 table.

    Built by doubling, so the table for fewer bits is its prefix.
    """
    count = np.zeros(1, dtype=np.int8)
    for _ in range(n_bits):
        count = np.concatenate([count, count + 1])
    count.setflags(write=False)
    return count


@dataclass(frozen=True)
class _SectorPlan:
    """The four layers of a step, as array updates on one sector's gathered amplitudes.

    Position p holds the sector's p-th basis state in basis-index order;
    ``idx`` lists those indices, or is None where they overflow int64 (the
    one-particle sector past 31 cells, whose position m is mode m).
    ``crossings`` is a crossing layer as updates (p01, p10, gate): the
    positions of |01> and of the |10> partner of each (label a is qubit
    q_a), and the crossing gate l = 0..N-1 that acts there. A gate leaves
    |00> and |11> as they are, so no update holds their positions. Below
    two particles each mode sits in one gate, so the layer is one update,
    with ``gate`` the index of each |01> row's gate; above, every gate is
    its own update, with ``gate`` its index. The swap layer V is a signed
    permutation: out[p] = swap_sign[p] * x[swap[p]].
    ``seam_sign`` is the Jordan-Wigner sign (-1)^(k-1) of every seam |01>
    entry of the k-particle sector: such an entry occupies qubit 2N-1 but
    not qubit 0, so its other k-1 particles all sit in the modes 1..2N-2
    between them.
    """

    idx: np.ndarray | None
    crossings: tuple
    swap: np.ndarray
    swap_sign: np.ndarray
    seam_sign: int


def _sector_modes(n_modes: int, k: int) -> np.ndarray:
    """Occupied modes m_0 < ... < m_(k-1) of every k-particle basis state, in basis-index order.

    Shaped (C(n_modes, k), k), each column contiguous. In basis-index order
    the j-particle states with top mode t follow every state of lower top
    mode, and are the first C(t, j - 1) states of j - 1 particles with t
    added. So level j, the j-particle states of the modes below
    n_modes - k + j, writes its top modes into column j - 1 and then, top
    mode descending, copies each block's lower modes from the first rows of
    level j - 1, which no block written before it has overwritten.
    """
    modes = np.empty((k, comb(n_modes, k)), dtype=np.intp)  # one row per column of the result
    size = np.ones(n_modes - k + 1, dtype=np.intp)  # C(t, j - 1) states in level j's block of top mode t
    for j in range(1, k + 1):
        end = np.cumsum(size)  # the block of top mode t ends at C(t + 1, j)
        modes[j - 1, : end[-1]] = np.repeat(np.arange(j - 1, n_modes - k + j), size)
        for b, c in zip(end[:0:-1].tolist(), size[:0:-1].tolist()) if j > 1 else ():  # level 1: no lower modes
            modes[: j - 1, b - c : b] = modes[: j - 1, :c]
        size = end
    return modes.T  # (1, 0) for no particles


@lru_cache(maxsize=QUBIT_BUDGET + 1)  # every sector of the largest ring the budget allows
def _sector_plan(n_cells: int, k: int) -> _SectorPlan:
    """Sector k's plan, from its basis states' modes; the one-particle sector of a ring of any size.

    Position p holds the state whose modes m_0 < ... < m_(k-1) have rank
    p = sum_i C(m_i, i + 1) (the combinatorial number system), so moving
    its mode m_i to an empty m_i + 1 moves it to p + C(m_i, i): no basis
    index is needed to find a partner. Crossing gate l has q_b = 2l + 1
    and q_a = 2l + 2 mod 2N, which a state holding both lists next,
    cyclically; only the seam's q_a = 0 reorders the modes. The plan keeps
    each gate's |01> states and their |10> partners and no |11> position,
    since the kernel leaves doubly occupied pairs as they are. The swaps of
    the N cells compose into one signed permutation: V moves the particle
    of every singly occupied cell to the cell's other mode, and its |11>
    entry -1 signs each doubly occupied cell. Each array comes from a pass
    over the whole (C(2N, k), k) mode array or its column slices: a mode's
    cyclic next mode is the next column's, and the first column's for the
    last. The |01> entries are found in state order and sorted by gate,
    stably, so gate l's updates are one slice.
    """
    n_modes = 2 * n_cells
    modes = _sector_modes(n_modes, k)
    binom = np.zeros((n_modes, k + 1), dtype=np.intp)  # C(m, i), by Pascal's rule down each column
    binom[:, 0] = 1
    for i in range(1, k + 1):
        np.cumsum(binom[:-1, i - 1], out=binom[1:, i])
    idx = np.sum(1 << modes, axis=1) if n_cells <= 31 else None  # 2^m fits int64 up to m = 62
    pair = (modes[:, 1:] ^ modes[:, :-1]) == 1  # neighbouring modes 2l, 2l + 1 of one cell
    single = np.ones_like(modes, dtype=bool)
    single[:, 1:] = ~pair
    single[:, :-1] &= ~pair
    moved = np.repeat(binom[::2, :k], 2, axis=0)  # V moves a single mode i 2l <-> 2l + 1: +-C(2l, i)
    moved[1::2] *= -1
    swap = np.arange(len(modes)) + np.sum(moved[modes, np.arange(k)], axis=1, where=single)
    swap_sign = np.where(np.logical_xor.reduce(pair, axis=1), gate_V()[3, 3].real, 1.0)  # an odd number of pairs
    alone = (modes & 1).astype(bool)  # odd mode m = q_b of gate m // 2; a |01> state's if q_a is empty
    alone[:, :-1] &= modes[:, 1:] != modes[:, :-1] + 1
    alone[:, -1:] &= modes[:, :1] != modes[:, -1:] + 1 - n_modes  # the last mode's next is the first
    row, col = np.nonzero(alone)
    q_b = modes[row, col]
    order = np.argsort(q_b.astype(np.min_scalar_type(n_modes)), kind="stable")  # by gate; a narrow key: radix
    row, col, q_b = row[order], col[order], q_b[order]
    p10 = row + binom[q_b, col]
    gate = q_b // 2
    bounds = np.searchsorted(gate, np.arange(n_cells + 1)).tolist()  # gate l's are bounds[l]:bounds[l + 1]
    seam = slice(bounds[-2], None)  # the partner lists mode 0 first and the others one column on
    p10[seam] = binom[modes[row[seam], :-1], np.arange(2, k + 1)].sum(axis=1)
    for arr in (idx, swap, swap_sign, row, p10, gate):
        if arr is not None:
            arr.setflags(write=False)
    if k <= 1:  # each mode in one gate: the layer is one update
        updates = ((row, p10, gate),)
    else:  # gates share positions: one update each
        updates = tuple((row[a:b], p10[a:b], l) for l, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])))
    return _SectorPlan(idx, updates, swap, swap_sign, 1 if k % 2 else -1)


def _step_sector(x: np.ndarray, gates: np.ndarray, plan: _SectorPlan) -> np.ndarray:
    """One automaton step of one sector's gathered amplitudes ``x`` = amp[plan.idx].

    ``x`` is one state, or a batch with one state per column; it is left as
    it is, and the stepped amplitudes are returned. ``gates`` is the
    (N, 4, 4) crossing-gate stack, of which only each gate's |01>/|10>
    block is read, once per call. Each of the four layers, U, V, U*, V, is
    the plan's few array updates: one gather and one multiply for V, and
    for U and U* one gathered 2x2 update per crossing run, which the walk's
    ``_mix`` computes as entry times amplitude.
    """
    column = (-1,) + (1,) * (x.ndim - 1)  # one factor per position, for a state or a batch
    b = gates[:, [1, 1, 2, 2], [1, 2, 1, 2]].T  # (4, N) entries of each |01>/|10> block, a copy
    b[1:3, -1] *= plan.seam_sign  # the seam gate's hopping entries take the sector's sign
    b = b.reshape((4, -1) + column[1:])
    y = x.copy()
    for layer in (b, b.conj()):
        for p01, p10, l in plan.crossings:
            y[p01], y[p10] = _mix(layer[:, l], y[p01], y[p10])
        y = y[plan.swap]
        y *= plan.swap_sign.reshape(column)
    return y


def _crossing_gates(n_cells: int, theta, zeta) -> np.ndarray:
    """The N crossing gates as an (N, 4, 4) stack; each angle is a scalar or one value per crossing."""
    if n_cells < 1:
        raise DomainError(f"the automaton needs at least 1 cell, got {n_cells}")
    angles = []
    for name, x in (("theta", theta), ("zeta", zeta)):
        x = np.asarray(x, dtype=float)
        if x.shape not in ((), (n_cells,)):
            raise DomainError(f"{name} has shape {x.shape}; expected a scalar or shape ({n_cells},)")
        angles.append(x)
    return np.broadcast_to(gate_U(*angles), (n_cells, 4, 4))


def qca_step(state: QcaState, theta, zeta) -> QcaState:
    """Advance the automaton by one step (duration 2*dt).

    ``theta`` and ``zeta`` may be scalars or length-N arrays indexed by the
    crossing between cells l and l+1 (periodic). The crossing between cell
    N-1 and cell 0 carries the Jordan-Wigner parity of the modes between
    its two qubits (see the module docstring); any other angle shape
    raises DomainError. The N gates are built in one call, and each held
    number sector is stepped on its own through its plan, so a
    one-particle or few-particle state costs its sectors' dimension, not
    4^N; a one-particle state takes a few array updates per layer.
    """
    n = state.n_cells
    gates = _crossing_gates(n, theta, zeta)
    sectors = {k: _step_sector(state.sectors[k], gates, _sector_plan(n, k)) for k in sorted(state.sectors)}
    return QcaState._from_sectors(sectors, n)


def embed_one_particle(psi: SpinorField) -> QcaState:
    """Map plus_l to cell l with the left-mover subcell occupied, minus_l
    to the right-mover subcell."""
    return QcaState._from_sectors({1: psi.data.reshape(-1).copy()}, psi.n_sites)


def extract_one_particle(state: QcaState, dx: float = 1.0, tol: float = 1e-10) -> SpinorField:
    """Inverse of :func:`embed_one_particle`.

    Raises SectorError if the squared weight outside the one-particle
    sector exceeds ``tol``.
    """
    n = state.n_cells
    outside = sum(float(np.vdot(x, x).real) for k, x in state.sectors.items() if k != 1)
    if outside > tol:
        raise SectorError(f"weight {outside:.3e} outside the one-particle sector")
    one = state.sectors.get(1, np.zeros(2 * n, dtype=np.complex128))
    return SpinorField(one.reshape(n, 2).copy(), dx)


def _probe(n_modes: int, step) -> tuple[np.ndarray, np.ndarray]:
    """The band of a linear ring map that moves no mode more than 4 modes: each column's rows and values.

    ``step`` applies the map to states held as columns. Mode j joins class
    j mod s, s = min(9, n_modes), except the last n_modes mod s modes, each
    a class of its own; two modes of one class are then 9 or more apart
    around the ring and never meet. Each class is stepped as one sum of
    unit states, and column j is read back from its own min(9, n_modes)
    distinct rows, which no other mode of its class reaches. ``step`` runs
    on at most 17 columns, not n_modes. Both arrays returned are (n_modes,
    min(9, n_modes)).
    """
    s = min(9, n_modes)
    bulk = n_modes - n_modes % s  # the modes in classes mod s
    modes = np.arange(n_modes)[:, None]
    group = np.where(modes < bulk, modes % s, modes - bulk + s)
    rows = (modes + (np.arange(-4, 5) if n_modes >= 9 else np.arange(n_modes))) % n_modes
    return rows, step((group == np.arange(s + n_modes - bulk)).astype(np.complex128))[rows, group]


def one_particle_matrix(n_cells: int, theta, zeta) -> np.ndarray:
    """2N x 2N matrix of one automaton step on the one-particle sector.

    Mode index 2l is the left-mover (plus) at cell l, 2l+1 the right-mover.
    Column j is mode j stepped by the sector kernel; the sector's seam sign
    is +1. Each of the four layers moves a
    particle by at most one mode around the ring, so :func:`_probe` reads
    the matrix from at most 17 classes of modes, each stepped as one
    state. No statevector and no qubit budget.
    """
    gates, plan, n = _crossing_gates(n_cells, theta, zeta), _sector_plan(n_cells, 1), 2 * n_cells
    rows, values = _probe(n, lambda x: _step_sector(x, gates, plan))
    out = np.zeros((n, n), dtype=np.complex128)
    out[rows, np.arange(n)[:, None]] = values
    return out


def verify_encoding(theta: float, zeta: float, N: int) -> float:
    """Max residual of the one-particle sector identity over a full basis.

    The automaton restricted to one particle equals the walk step with no
    mixing power, W = S C(-zeta) S C(zeta), conjugated by the encoding
    E = S^+ (the plus component pulled from the right neighbour): E^dag W E.
    That W is exactly the step the walk takes between its mixing powers,
    and the walk side is its own kernel, ``walk._apply`` with the ring's
    ``_shift`` (C(zeta), then the two-site taps of S C(-zeta) S). E^dag W E
    moves a mode at most 4 modes, as the automaton does, so the difference
    of the two kernels is read through the :func:`_probe` columns that
    read :func:`one_particle_matrix` (a walk side that moved a mode further
    would lose weight from the rows read, which the unitary automaton
    keeps). The residual is the largest column 2-norm of the difference
    over the rows read, and values at roundoff certify the sector
    equivalence.
    """
    gates, plan = _crossing_gates(N, theta, zeta), _sector_plan(N, 1)
    ops = _operators(None, coin_matrix(theta, zeta)[None])

    def difference(x):  # automaton minus E^dag W E on states held as columns; the walk's sites on axis 0
        p, m = x.reshape(N, 2, -1).transpose(1, 0, 2)
        p, m = _apply(ops, np.roll(p, -1, axis=0), m, _shift)
        walked = np.stack([np.roll(p, 1, axis=0), m], axis=1).reshape(2 * N, -1)  # E^dag: plus back one site
        return _step_sector(x, gates, plan) - walked

    return float(np.max(np.linalg.norm(_probe(2 * N, difference)[1], axis=1)))


def _gram_deviation(phi: np.ndarray) -> float:
    """Largest entry of |phi^dag phi - I|; 0.0 for no orbitals."""
    g = phi.conj().T @ phi
    return float(np.max(np.abs(g - np.eye(phi.shape[1])), initial=0.0))


@dataclass
class SlaterState:
    """Orthonormal single-particle orbitals, one column per particle.

    Row index is the mode 2l + s (s = 0 left-mover, 1 right-mover), so the
    modes come in cell pairs, and no more particles than modes.
    """

    orbitals: np.ndarray
    reortho_count: int = dc_field(default=0)

    def __post_init__(self):
        self.orbitals = np.asarray(self.orbitals, dtype=np.complex128)
        if self.orbitals.ndim != 2:
            raise DomainError("orbitals must form a (modes, particles) matrix")
        if self.n_modes % 2 or self.n_particles > self.n_modes:
            raise DomainError(f"orbitals of shape {self.orbitals.shape}: need two modes a cell, one a particle")

    @property
    def n_modes(self) -> int:
        return self.orbitals.shape[0]

    @property
    def n_particles(self) -> int:
        return self.orbitals.shape[1]

    def gram_deviation(self) -> float:
        return _gram_deviation(self.orbitals)

    def occupations(self) -> np.ndarray:
        return np.sum(np.abs(self.orbitals) ** 2, axis=1)


def slater_evolve(orbitals: SlaterState, one_particle_step, steps: int) -> SlaterState:
    """Evolve a determinant by applying the one-particle step to each orbital.

    Re-orthonormalizes (QR with positive diagonal) only when the Gram
    deviation exceeds 1e-10, and counts how often that happened. A Gram
    deviation above 1e-6 at any point raises OrthogonalityError.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise DomainError(f"steps must be a nonnegative integer, got {steps!r}")
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
        dev = _gram_deviation(phi)
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
    """Embed an n-particle determinant as the n-particle sector of a state.

    Amplitudes follow the ordered-mode convention: the basis state with
    modes m_1 < ... < m_n occupied receives det of the corresponding
    orbital rows.
    """
    if orbitals.n_modes != 2 * n_cells:
        raise DomainError("orbital mode count does not match the cell count")
    x = np.linalg.det(orbitals.orbitals[_sector_modes(2 * n_cells, orbitals.n_particles)])
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise DomainError("determinant vanishes; orbitals are linearly dependent")
    x /= nrm
    return QcaState._from_sectors({orbitals.n_particles: x}, n_cells)


def dense_step_operator(n_cells: int, theta, zeta) -> np.ndarray:
    """Dense matrix of one automaton step (for sector-structure checks).

    Assembled block by block: each number sector's block is that sector's
    identity stepped through its plan, and every entry between two sectors
    is zero. At the 5-cell limit the matrix is 1024 x 1024 complex (16 MB).
    """
    if n_cells > 5:
        raise BudgetError("dense step operator limited to 5 cells")
    gates = _crossing_gates(n_cells, theta, zeta)
    g = np.zeros((4 ** n_cells, 4 ** n_cells), dtype=np.complex128)
    for k in range(2 * n_cells + 1):
        plan = _sector_plan(n_cells, k)
        g[np.ix_(plan.idx, plan.idx)] = _step_sector(np.eye(len(plan.idx), dtype=np.complex128), gates, plan)
    return g
