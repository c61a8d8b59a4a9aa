"""Cellular-automaton gates, sectors, encoding identity, determinant dynamics."""

import numpy as np
import pytest

from plasticwalk import (
    BudgetError,
    CProfile,
    DomainError,
    OrthogonalityError,
    QcaState,
    ScalingParams,
    SectorError,
    SlaterState,
    SpinorField,
    embed_one_particle,
    extract_one_particle,
    gate_U,
    gate_V,
    lattice_hamiltonian_curved,
    one_particle_matrix,
    qca_step,
    slater_determinant_state,
    slater_evolve,
    verify_encoding,
)
from plasticwalk import qca
from plasticwalk.qca import dense_step_operator
from plasticwalk.scaling import derive_angle_arrays


def one_particle_step(theta, zeta):
    def step(field: SpinorField) -> SpinorField:
        return extract_one_particle(qca_step(embed_one_particle(field), theta, zeta))

    return step


def dense_step(amp, gates):
    """One automaton step in place on a dense (4^N,) or (4^N, B) array, with caller-given gates.

    ``gates[l]`` is the crossing gate between cells l and l+1; every number
    sector is gathered, stepped through its plan and scattered back.
    """
    n = len(gates)
    for k in range(2 * n + 1):
        plan = qca._sector_plan(n, k)
        amp[plan.idx] = qca._step_sector(amp[plan.idx], gates, plan)
    return amp


def _gate_pairs(n_cells: int) -> list[tuple[int, int]]:
    """Qubit pairs (q_a, q_b) of the crossing gates, cell l = 0..N-1, then of the swaps.

    The crossing pair of cell l is (left-mover subcell of cell l+1,
    right-mover subcell of cell l); the last one is the ring seam.
    """
    nq = 2 * n_cells
    crossings = [((2 * l + 2) % nq, 2 * l + 1) for l in range(n_cells)]
    return crossings + [(2 * l, 2 * l + 1) for l in range(n_cells)]


def _reference_mix(gate, a01, a10):
    """The |01>/|10> block of one 4x4 gate, in place: the per-gate arithmetic, entry times amplitude."""
    into_01 = gate[1, 1] * a01
    into_01 += gate[1, 2] * a10
    into_10 = gate[2, 1] * a01
    into_10 += gate[2, 2] * a10
    a01[...] = into_01
    a10[...] = into_10


def _reference_layers(gates, seam_sign):
    """(gate, q_a, q_b) of one step in application order: U, V, U*, V, one gate at a time."""
    n = len(gates)
    pairs = _gate_pairs(n)
    seam = gates[-1].copy()
    seam[[1, 2], [2, 1]] *= seam_sign
    crossings = [*gates[:-1], seam]
    v = gate_V()
    for conj in (False, True):
        for l, u in enumerate(crossings):
            yield (u.conj() if conj else u), *pairs[l]
        for l in range(n):
            yield v, *pairs[n + l]


def _reference_pairs(n, k):
    """Sorted basis indices of sector k, and the (p01, p10, p11) positions of every gate pair."""
    from itertools import combinations

    idx = np.array(sorted(sum(1 << m for m in modes) for modes in combinations(range(2 * n), k)))
    pairs = {}
    for q_a, q_b in _gate_pairs(n):
        bit_a, bit_b = (idx >> q_a) & 1, (idx >> q_b) & 1
        p01 = np.flatnonzero((bit_a == 0) & (bit_b == 1))
        p10 = np.searchsorted(idx, idx[p01] ^ ((1 << q_a) | (1 << q_b)))
        pairs[q_a, q_b] = (p01, p10, np.flatnonzero(bit_a & bit_b))
    return idx, pairs


def reference_step(x, gates, n, k):
    """One step of sector k's gathered amplitudes (a state or a batch of columns), gate by gate."""
    x = x.copy()
    pairs = _reference_pairs(n, k)[1]
    for gate, q_a, q_b in _reference_layers(list(gates), 1 if k % 2 else -1):
        p01, p10, p11 = pairs[q_a, q_b]
        a01, a10 = x[p01], x[p10]
        _reference_mix(gate, a01, a10)
        x[p01] = a01
        x[p10] = a10
        if gate[3, 3] != 1.0:
            x[p11] *= gate[3, 3]
    return x


# ---------------------------------------------------------------------------
# gates


def test_gate_v_involution_and_entries():
    v = gate_V()
    np.testing.assert_allclose(v @ v, np.eye(4), atol=1e-15)
    e01 = np.zeros(4)
    e01[1] = 1.0
    np.testing.assert_allclose(v @ e01, [0, 0, 1, 0], atol=0)  # |01> -> |10>
    e11 = np.zeros(4)
    e11[3] = 1.0
    np.testing.assert_allclose(v @ e11, [0, 0, 0, -1], atol=0)  # exchange phase


def test_gate_u_quarter_turn_is_diagonal():
    np.testing.assert_allclose(gate_U(np.pi / 2, 0.0), np.eye(4), atol=1e-15)


def test_gate_u_zero_theta_is_signed_swap():
    u = gate_U(0.0, 0.3)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 2] = -1.0
    expected[2, 1] = 1.0
    expected[3, 3] = 1.0
    np.testing.assert_allclose(u, expected, atol=1e-15)


def test_gate_u_unitary_number_conserving():
    rng = np.random.default_rng(31)
    occ = np.array([0, 1, 1, 2])
    for _ in range(25):
        theta, zeta = rng.uniform(-np.pi, np.pi, size=2)
        u = gate_U(theta, zeta)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-14)
        for i in range(4):
            for j in range(4):
                if occ[i] != occ[j]:
                    assert u[i, j] == 0.0


@pytest.mark.parametrize("conj", [False, True])
def test_gate_u_doubly_occupied_entry_is_block_determinant(conj):
    # the rule that makes each crossing gate the second quantization of its
    # one-particle block, for U and for the U* of the third layer
    rng = np.random.default_rng(37)
    for _ in range(25):
        theta, zeta = rng.uniform(-np.pi, np.pi, size=2)
        u = gate_U(theta, zeta).conj() if conj else gate_U(theta, zeta)
        assert abs(u[3, 3] - np.linalg.det(u[1:3, 1:3])) <= 1e-15


def test_gate_u_block_is_the_closed_form():
    # written out here, not taken from the coin the gate is built from
    rng = np.random.default_rng(43)
    theta, zeta = rng.uniform(-7, 7, size=(2, 200))

    def closed_form(t, z):
        return np.array([[np.exp(-1j * z) * np.sin(t), -np.cos(t)], [np.cos(t), np.exp(1j * z) * np.sin(t)]])

    expected = np.stack([closed_form(t, z) for t, z in zip(theta, zeta)])
    assert np.max(np.abs(gate_U(theta, zeta)[:, 1:3, 1:3] - expected)) <= 1e-15
    for t, z, block in zip(theta[:20], zeta[:20], expected):
        u = gate_U(float(t), float(z))
        assert np.max(np.abs(u[1:3, 1:3] - block)) <= 1e-15
        assert u[0, 0] == u[3, 3] == 1.0


@pytest.mark.parametrize("n", [2, 3, 10, 64, 512])
def test_gate_u_stacks_over_array_angles(n):
    # one call over the N crossing angles against the scalar calls, for a
    # scalar, for per-crossing angles and for a scalar theta with a
    # per-crossing zeta; vectorized sin/cos may take another SIMD path
    rng = np.random.default_rng(41 + n)
    theta, zeta = rng.uniform(-np.pi, np.pi, size=n), rng.uniform(-np.pi, np.pi, size=n)
    assert gate_U(float(theta[0]), float(zeta[0])).shape == (4, 4)
    for t, z in [(theta, zeta), (float(theta[0]), zeta), (theta, float(zeta[0]))]:
        tb, zb = np.broadcast_arrays(t, z)
        expected = np.stack([gate_U(a, b) for a, b in zip(tb, zb)])
        assert np.max(np.abs(gate_U(t, z) - expected)) <= 2e-16
        assert np.max(np.abs(qca._crossing_gates(n, t, z) - expected)) <= 2e-16


# ---------------------------------------------------------------------------
# statevector step


def test_vacuum_is_fixed():
    state = QcaState.vacuum(4)
    out = qca_step(state, 1.1, -0.4)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)


def test_number_conservation_per_basis_state():
    rng = np.random.default_rng(41)
    n = 3
    dim = 4 ** n
    for _ in range(10):
        idx = int(rng.integers(dim))
        amp = np.zeros(dim, dtype=complex)
        amp[idx] = 1.0
        out = qca_step(QcaState(amp, n), 0.9, 0.2)
        weights = np.array([bin(i).count("1") for i in range(dim)])
        sector = weights == bin(idx).count("1")
        assert np.linalg.norm(out.amplitudes[~sector]) == 0.0


def test_step_unitary_norm():
    rng = np.random.default_rng(43)
    n = 3
    amp = rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n)
    amp /= np.linalg.norm(amp)
    out = qca_step(QcaState(amp, n), 0.7, -0.1)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_occupations_match_bit_formula():
    rng = np.random.default_rng(45)
    n = 4
    amp = rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n)
    state = QcaState(amp / np.linalg.norm(amp), n)
    probs = np.abs(state.amplitudes) ** 2
    idx = np.arange(4 ** n)
    # every qubit, the lowest (q = 0) and the highest (q = 2n - 1) included
    expected = [np.sum(probs * ((idx >> q) & 1)) for q in range(2 * n)]
    np.testing.assert_allclose(state.occupations(), expected, rtol=0, atol=1e-14)


def test_budget_guard():
    with pytest.raises(BudgetError):
        QcaState.vacuum(13)


@pytest.mark.parametrize(
    "call",
    [
        lambda: QcaState.vacuum(0),
        lambda: QcaState(np.ones(1), 0),
        lambda: one_particle_matrix(0, 1.0, 0.3),
        lambda: verify_encoding(1.0, 0.3, 0),
        lambda: dense_step_operator(0, 1.0, 0.3),
        lambda: one_particle_matrix(-2, 1.0, 0.3),
    ],
    ids=["vacuum", "constructor", "one_particle_matrix", "verify_encoding", "dense_step_operator", "negative"],
)
def test_fewer_than_one_cell_raises_domain_error(call):
    with pytest.raises(DomainError, match="at least 1 cell"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda theta, zeta: qca_step(QcaState.vacuum(3), theta, zeta),
        lambda theta, zeta: one_particle_matrix(3, theta, zeta),
        lambda theta, zeta: dense_step_operator(3, theta, zeta),
    ],
    ids=["qca_step", "one_particle_matrix", "dense_step_operator"],
)
@pytest.mark.parametrize(
    "theta, zeta",
    [(np.ones(2), 0.3), (1.0, np.ones(4)), (np.ones((3, 1)), 0.3)],
    ids=["short_theta", "long_zeta", "column_theta"],
)
def test_angles_of_the_wrong_shape_raise_domain_error(call, theta, zeta):
    with pytest.raises(DomainError, match=r"expected a scalar or shape \(3,\)"):
        call(theta, zeta)


def test_sector_blocks_exact_dense():
    n = 3
    g = dense_step_operator(n, 1.0, 0.5)
    dim = 4 ** n
    weights = np.array([bin(i).count("1") for i in range(dim)])
    for n_val in range(2 * n + 1):
        cols = weights == n_val
        block = g[np.ix_(~cols, cols)]
        if block.size:
            assert np.max(np.abs(block)) == 0.0


# ---------------------------------------------------------------------------
# one-particle sector


def test_embed_delta_site():
    data = np.zeros((5, 2), dtype=complex)
    data[3, 0] = 1.0
    state = embed_one_particle(SpinorField(data, 1.0))
    assert state.amplitudes[1 << 6] == 1.0  # left-mover qubit of cell 3
    assert np.linalg.norm(state.amplitudes) == 1.0


def test_embed_extract_round_trip():
    rng = np.random.default_rng(47)
    data = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    data /= np.linalg.norm(data)
    f = SpinorField(data, 1.0)
    back = extract_one_particle(embed_one_particle(f))
    assert np.max(np.abs(back.data - f.data)) <= 1e-14


def test_extract_rejects_two_particle_state():
    n = 3
    amp = np.zeros(4 ** n, dtype=complex)
    amp[(1 << 0) | (1 << 3)] = 1.0
    with pytest.raises(SectorError):
        extract_one_particle(QcaState(amp, n))


def test_encoding_identity_grid():
    rng = np.random.default_rng(53)
    for theta, zeta in [(np.pi / 2, 0.0), (0.0, 0.0), (1.0, 0.3)] + [
        tuple(rng.uniform(-np.pi, np.pi, size=2)) for _ in range(3)
    ]:
        assert verify_encoding(float(theta), float(zeta), 6) <= 1e-12


@pytest.mark.parametrize("n", [6, 64])  # 64 cells probe 16 of the 128 modes at a time, 6 cells all 12
def test_encoding_check_runs_the_walks_shift(monkeypatch, n):
    # the walk side of the check is walk._apply with the walk's full shift,
    # so a shift the wrong way round must show in the residual
    def backward(p, m, k=1):
        return np.roll(p, k, axis=0), np.roll(m, -k, axis=0)

    assert verify_encoding(1.0, 0.3, n) <= 1e-12
    monkeypatch.setattr(qca, "_shift", backward)
    assert verify_encoding(1.0, 0.3, n) > 0.5


def test_encoding_beyond_twelve_cells():
    # the one-particle sector is stepped on its 2N modes, so neither check
    # has a cell limit
    assert verify_encoding(1.0, 0.3, 64) <= 1e-12
    rng = np.random.default_rng(55)
    n = 256
    w1 = one_particle_matrix(n, rng.uniform(0.3, 2.8, size=n), rng.uniform(-0.6, 0.6, size=n))
    assert np.max(np.abs(w1.conj().T @ w1 - np.eye(2 * n))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12, 64, 509, 512])
def test_encoding_is_exact_on_few_probe_columns(monkeypatch, n):
    # every probe entry is one mode's contribution plus exact zeros, so the
    # two kernels agree exactly; the probe classes stay few whatever the
    # divisors of 2N are (at most 9 + 8)
    columns, probe = [], qca._probe

    def counted(n_modes, step):
        return probe(n_modes, lambda x: columns.append(x.shape[1]) or step(x))

    monkeypatch.setattr(qca, "_probe", counted)
    rng = np.random.default_rng(61 + n)
    for theta, zeta in [(1.0, 0.3)] + [tuple(rng.uniform(-np.pi, np.pi, size=2)) for _ in range(2)]:
        assert verify_encoding(float(theta), float(zeta), n) == 0.0
    assert columns and max(columns) <= 17


def test_qca_step_agrees_with_one_particle_prediction():
    rng = np.random.default_rng(59)
    n, theta, zeta = 8, 0.9, 0.25
    data = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    data /= np.linalg.norm(data)
    f = SpinorField(data, 1.0)
    via_state = extract_one_particle(qca_step(embed_one_particle(f), theta, zeta))
    w1 = one_particle_matrix(n, theta, zeta)
    predicted = (w1 @ f.data.reshape(-1)).reshape(n, 2)
    assert np.max(np.abs(via_state.data - predicted)) <= 1e-12


# ---------------------------------------------------------------------------
# determinant dynamics


def test_slater_single_orbital_reduces_to_one_particle():
    rng = np.random.default_rng(61)
    n, theta, zeta = 6, 1.2, -0.4
    vec = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    vec /= np.linalg.norm(vec)
    orbitals = SlaterState(vec[:, None])
    out = slater_evolve(orbitals, one_particle_step(theta, zeta), steps=3)
    w1 = one_particle_matrix(n, theta, zeta)
    expected = np.linalg.matrix_power(w1, 3) @ vec
    assert np.max(np.abs(out.orbitals[:, 0] - expected)) <= 1e-12


def test_slater_rejects_nonorthonormal():
    vecs = np.ones((8, 2), dtype=complex)
    with pytest.raises(OrthogonalityError):
        slater_evolve(SlaterState(vecs), one_particle_step(1.0, 0.0), 1)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: QcaState(np.zeros(4 ** 3 - 1), 3), DomainError, "amplitude vector has length"),
        (lambda: SlaterState(np.ones(8)), DomainError, r"must form a \(modes, particles\) matrix"),
        (lambda: slater_determinant_state(SlaterState(np.eye(8, 2)), 3), DomainError,
         "does not match the cell count"),
        # both orbitals are mode 0: every minor is exactly 0
        (lambda: slater_determinant_state(SlaterState(np.eye(8, 1)[:, [0, 0]]), 4), DomainError,
         "linearly dependent"),
        (lambda: dense_step_operator(6, 1.0, 0.3), BudgetError, "limited to 5 cells"),
    ],
    ids=["qca_state_length", "slater_1d", "slater_cell_count", "slater_dependent", "dense_six_cells"],
)
def test_state_constructors_refuse_bad_shapes(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("steps", [-3, 2.5, True])
def test_slater_evolve_refuses_a_bad_step_count(steps):
    with pytest.raises(DomainError, match="steps must be a nonnegative integer"):
        slater_evolve(SlaterState(np.eye(8, 2, dtype=complex)), one_particle_step(1.0, 0.3), steps)


def test_orbitals_on_an_odd_number_of_modes_raise_domain_error():
    with pytest.raises(DomainError, match="two modes a cell"):
        slater_evolve(SlaterState(np.eye(5, 1)), one_particle_step(1.0, 0.3), 1)


def test_more_particles_than_modes_raise_domain_error():
    with pytest.raises(DomainError, match="one a particle"):
        slater_determinant_state(SlaterState(np.ones((4, 5))), 2)


def _scaled(step, factor):
    return lambda field: SpinorField(step(field).data * factor, field.dx)


def test_slater_evolve_reorthonormalizes_a_drifting_step():
    # a step that scales every orbital by 1 + 1e-9 moves the Gram matrix by
    # ~2e-9, past 1e-10, on every step; by 1 + 1e-6 it moves it past 1e-6
    rng = np.random.default_rng(71)
    phi = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))[0]
    step = one_particle_step(1.0, 0.3)
    out = slater_evolve(SlaterState(phi), _scaled(step, 1 + 1e-9), 5)
    assert out.reortho_count == 5
    assert out.gram_deviation() <= 1e-12
    with pytest.raises(OrthogonalityError, match="orbital drift"):
        slater_evolve(SlaterState(phi), _scaled(step, 1 + 1e-6), 1)


def test_zero_particle_determinant_evolves_as_the_vacuum():
    empty = SlaterState(np.zeros((6, 0), dtype=complex))
    assert empty.gram_deviation() == 0.0
    out = slater_evolve(empty, one_particle_step(1.0, 0.3), 3)
    assert out.orbitals.shape == (6, 0)
    assert out.gram_deviation() == 0.0 and out.reortho_count == 0
    state = slater_determinant_state(out, 3)
    np.testing.assert_array_equal(state.amplitudes, QcaState.vacuum(3).amplitudes)
    np.testing.assert_array_equal(qca_step(state, 1.0, 0.3).amplitudes, state.amplitudes)


def test_determinant_overlap_phase_invariance():
    rng = np.random.default_rng(67)
    a = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
    b = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
    base = abs(np.linalg.det(a.conj().T @ b))
    a_phased = a.copy()
    a_phased[:, 1] *= np.exp(0.77j)
    assert abs(np.linalg.det(a_phased.conj().T @ b)) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("n_particles", [0, 1, 3])
def test_slater_determinant_state_matches_per_combination_dets(n_particles):
    # the batched determinants against one det per occupied mode set
    from itertools import combinations

    rng = np.random.default_rng(101 + n_particles)
    n = 4
    raw = rng.normal(size=(2 * n, n_particles)) + 1j * rng.normal(size=(2 * n, n_particles))
    phi = np.linalg.qr(raw)[0] if n_particles else raw
    amp = np.zeros(4 ** n, dtype=complex)
    for modes in combinations(range(2 * n), n_particles):
        amp[sum(1 << m for m in modes)] = np.linalg.det(phi[list(modes), :])
    expected = amp / np.linalg.norm(amp)
    got = slater_determinant_state(SlaterState(phi), n).amplitudes
    assert np.max(np.abs(got - expected)) <= 1e-15


def _seam_twisted(u):
    """The gate with its hopping entries negated.

    Passed as the seam gate, it cancels the Jordan-Wigner sign that the
    stepper adds wherever that sign is -1. On a two-particle state it
    always is: when the seam moves one particle between qubits 0 and 2N-1,
    the other sits in one of the modes 1..2N-2 between them. On a
    one-particle state the sign is +1, so the twist acts unopposed.
    """
    twisted = u.copy()
    twisted[1, 2] *= -1.0
    twisted[2, 1] *= -1.0
    return twisted


def test_two_particle_dynamics_is_not_a_determinant_evolution():
    # A crossing gate that multiplies its doubly occupied state by -1 while
    # its one-particle block has determinant +1 carries a contact phase
    # between opposite movers: the multi-particle automaton is then not the
    # antisymmetrized tensor power of its one-particle sector, even with
    # the Jordan-Wigner seam parity in place. This is why the package kernel
    # reads only each gate's |01>/|10> block, leaving |11> as it is, and why
    # a contact variant would be another model; criterion 7 of the
    # acceptance suite checks the library's own steps.
    n, theta, zeta = 6, 1.0, 0.3
    contact = gate_U(theta, zeta)
    contact[3, 3] = -1.0
    phi = np.zeros((2 * n, 2), dtype=complex)
    phi[2 * 1 + 0, 0] = 1.0
    phi[2 * 4 + 1, 1] = 1.0
    x = slater_determinant_state(SlaterState(phi), n).sectors[2]
    for _ in range(4):  # the package kernel reads no |11> entry: step gate by gate
        x = reference_step(x, [contact] * n, n, 2)
    slater = slater_evolve(SlaterState(phi), one_particle_step(theta, zeta), 4)
    gap = np.max(np.abs(QcaState._from_sectors({2: x}, n).occupations() - slater.occupations()))
    assert gap > 0.1


def test_det_consistent_variant_with_seam_twist_is_free():
    # With the doubly-occupied phase matching the block determinant but the
    # ring-seam gate applied as a plain two-qubit gate, the two-particle
    # sector equals the determinant evolution of a one-particle operator
    # whose seam hopping is negated: the ordered-mode (Jordan-Wigner)
    # encoding turns an untwisted qubit seam into an antiperiodic fermion
    # seam for an even particle number. This is why qca_step multiplies the
    # seam gate's hopping entries by the parity of the modes between its
    # qubits. A twisted seam gate cancels that parity on two-particle states
    # (a plain seam) and acts alone on one-particle states (a twisted seam).
    n, theta, zeta = 6, 1.0, 0.3
    u = gate_U(theta, zeta)
    gates = np.array([u] * (n - 1) + [_seam_twisted(u)])

    phi = np.zeros((2 * n, 2), dtype=complex)
    phi[2 * 1 + 0, 0] = 1.0
    phi[2 * 4 + 1, 1] = 1.0
    amp = slater_determinant_state(SlaterState(phi), n).amplitudes
    # twisted one-particle operator: the same layers on the embedded modes
    one_particle = 1 << np.arange(2 * n)
    embedded = np.zeros((4 ** n, 2 * n), dtype=complex)
    embedded[one_particle, np.arange(2 * n)] = 1.0
    w1 = dense_step(embedded, gates)[one_particle]
    orb = phi.copy()
    for _ in range(4):
        dense_step(amp, gates)
        orb = w1 @ orb
    occ_slater = np.sum(np.abs(orb) ** 2, axis=1)
    assert np.max(np.abs(QcaState(amp, n).occupations() - occ_slater)) <= 1e-12


@pytest.mark.parametrize(
    "n_particles, n_cells, scalar_angles",
    [(2, 5, False), (2, 6, True), (3, 6, False), (3, 7, True), (4, 7, False), (4, 6, True)],
)
def test_many_particle_step_is_determinant_evolution(n_particles, n_cells, scalar_angles):
    # every particle-number sector evolves as the determinant of the
    # one-particle step: crossing-dependent and uniform angles, odd and even
    # particle numbers (the seam parity matters only for even)
    rng = np.random.default_rng(73 + 10 * n_particles + n_cells)
    theta = rng.uniform(0.3, 2.8, size=n_cells)
    zeta = rng.uniform(-0.6, 0.6, size=n_cells)
    if scalar_angles:
        theta, zeta = float(theta[0]), float(zeta[0])
    raw = rng.normal(size=(2 * n_cells, n_particles)) + 1j * rng.normal(size=(2 * n_cells, n_particles))
    phi = np.linalg.qr(raw)[0]
    state = slater_determinant_state(SlaterState(phi), n_cells)
    for _ in range(3):
        state = qca_step(state, theta, zeta)
    slater = slater_evolve(SlaterState(phi), one_particle_step(theta, zeta), 3)
    assert np.max(np.abs(state.occupations() - slater.occupations())) <= 1e-12
    predicted = slater_determinant_state(slater, n_cells).amplitudes
    overlap = np.vdot(predicted, state.amplitudes)
    assert abs(abs(overlap) - 1.0) <= 1e-12


def _dense_gate(gate, q_a, q_b, nq, seam):
    """A 4x4 gate on qubits (q_a, q_b) as a 2^nq matrix, by an index loop.

    The seam gate's hopping entries carry (-1)^popcount(bits 1..nq-2).
    """
    dim = 2 ** nq
    op = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        a, b = (idx >> q_a) & 1, (idx >> q_b) & 1
        rest = idx & ~((1 << q_a) | (1 << q_b))
        jw = (-1) ** bin(idx & ((1 << (nq - 1)) - 2)).count("1") if seam else 1
        for out in range(4):
            entry = gate[out, 2 * a + b]
            if seam and {out, 2 * a + b} == {1, 2}:
                entry = entry * jw
            op[rest | ((out >> 1) << q_a) | ((out & 1) << q_b), idx] = entry
    return op


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("scalar_angles", [False, True])
def test_dense_step_operator_matches_gate_by_gate_product(n, scalar_angles):
    # an independent reference for the whole stepper: the four layers as
    # products of dense gate matrices, right to left U, V, U*, V
    rng = np.random.default_rng(79 + n)
    theta = rng.uniform(0.3, 2.8, size=n)
    zeta = rng.uniform(-0.6, 0.6, size=n)
    if scalar_angles:
        theta, zeta = float(theta[0]), float(zeta[0])
    crossing_angles = np.broadcast_to(np.stack([theta, zeta], axis=-1), (n, 2))
    nq = 2 * n
    step = np.eye(4 ** n, dtype=complex)
    for conj in (False, True):
        for l in range(n):
            u = gate_U(*crossing_angles[l])
            u = u.conj() if conj else u
            step = _dense_gate(u, (2 * l + 2) % nq, 2 * l + 1, nq, l == n - 1) @ step
        for l in range(n):
            step = _dense_gate(gate_V(), 2 * l, 2 * l + 1, nq, False) @ step
    assert np.max(np.abs(dense_step_operator(n, theta, zeta) - step)) <= 1e-13


def _sector_state(n, sectors, rng):
    """A random normalized statevector supported on the union of number sectors."""
    weights = np.array([bin(i).count("1") for i in range(4 ** n)])
    amp = np.zeros(4 ** n, dtype=complex)
    inside = np.isin(weights, sectors)
    amp[inside] = rng.normal(size=inside.sum()) + 1j * rng.normal(size=inside.sum())
    return amp / np.linalg.norm(amp)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("array_angles", [False, True])
@pytest.mark.parametrize("batched", [False, True])
def test_gathered_step_matches_strided_dense_operator(n, array_angles, batched):
    # the dense operator is assembled from each sector's stepped identity;
    # qca_step, or dense_step on a batch of three states, must agree with it
    # on one sector, on unions of sectors and on full support
    rng = np.random.default_rng(83 + 10 * n + 2 * array_angles + batched)
    if array_angles:
        theta, zeta = rng.uniform(0.3, 2.8, size=n), rng.uniform(-0.6, 0.6, size=n)
    else:
        theta, zeta = float(rng.uniform(0.3, 2.8)), float(rng.uniform(-0.6, 0.6))
    g = dense_step_operator(n, theta, zeta)
    for sectors in [(1,), (2,), (1, 3), (0, 2 * n), range(2 * n + 1)]:
        if batched:
            amp = np.stack([_sector_state(n, sectors, rng) for _ in range(3)], axis=1)
            out = dense_step(amp.copy(), qca._crossing_gates(n, theta, zeta))
        else:
            amp = _sector_state(n, sectors, rng)
            out = qca_step(QcaState(amp, n), theta, zeta).amplitudes
        assert np.max(np.abs(out - g @ amp)) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("scalar_angles", [False, True])
def test_one_particle_matrix_is_block_of_dense_operator(n, scalar_angles):
    rng = np.random.default_rng(89 + n)
    theta, zeta = rng.uniform(0.3, 2.8, size=n), rng.uniform(-0.6, 0.6, size=n)
    if scalar_angles:
        theta, zeta = float(theta[0]), float(zeta[0])
    one = 1 << np.arange(2 * n)
    block = dense_step_operator(n, theta, zeta)[np.ix_(one, one)]
    assert np.max(np.abs(one_particle_matrix(n, theta, zeta) - block)) <= 1e-13


def test_sector_modes_list_every_state_in_basis_index_order():
    # every sector of up to 16 modes: the rows are the mode combinations in
    # ascending basis index, the order that slater_determinant_state's
    # amplitudes and every plan's positions follow; no particles is the one
    # empty row, shaped (1, 0)
    from itertools import combinations

    for n_modes in range(17):
        for k in range(n_modes + 1):
            states = sorted(combinations(range(n_modes), k), key=lambda modes: sum(1 << m for m in modes))
            got = qca._sector_modes(n_modes, k)
            assert got.dtype == np.intp and got.shape == (len(states), k)
            assert got.tolist() == [list(modes) for modes in states]


def _filtered_plan(n, sectors):
    """A sector plan by the definition: every basis index whose bit count is in ``sectors``."""
    nq = 2 * n
    idx = [i for i in range(4 ** n) if bin(i).count("1") in sectors]
    position = {i: p for p, i in enumerate(idx)}
    pairs = {}
    for q_a, q_b in _gate_pairs(n):
        p01 = [p for p, i in enumerate(idx) if not (i >> q_a) & 1 and (i >> q_b) & 1]
        p10 = [position[idx[p] ^ (1 << q_a) ^ (1 << q_b)] for p in p01]
        pairs[q_a, q_b] = (p01, p10)
    seam_sign = [(-1) ** bin(idx[p] & ((1 << (nq - 1)) - 2)).count("1") for p in pairs[0, nq - 1][0]]
    return idx, pairs, seam_sign


def _per_gate(plan):
    """Each crossing gate l's (p01, p10) positions, split out of the plan's updates."""
    out = {}
    for p01, p10, gate in plan.crossings:
        if np.ndim(gate) == 0:
            out[gate] = (p01, p10)
        else:
            out.update({l: (p01[gate == l], p10[gate == l]) for l in set(gate.tolist())})
    return out


def test_sector_plans_and_one_particle_matrix_read_no_popcount_table(monkeypatch):
    # a sector is reached through its own basis states, and the one-particle
    # sector through its 2N modes; only paths that read a whole statevector
    # may build the 4^N table. Every sector of rings of 1 to 8 cells matches
    # the definition, the vacuum and the filled sector (no |01> entry at
    # all) included. The per-entry Jordan-Wigner parity of every seam |01>
    # entry is the sector's one scalar (-1)^(k-1).
    n, theta, zeta = 5, 1.1, 0.35
    one = 1 << np.arange(2 * n)
    block = dense_step_operator(n, theta, zeta)[np.ix_(one, one)]

    def no_table(n_bits):
        raise AssertionError("the popcount table was read")

    monkeypatch.setattr(qca, "_popcount", no_table)
    assert np.max(np.abs(one_particle_matrix(n, theta, zeta) - block)) <= 1e-13
    none = (np.zeros(0, dtype=int),) * 2
    for n in range(1, 9):
        crossing_pairs = _gate_pairs(n)[:n]
        for k in range(2 * n + 1):
            plan = qca._sector_plan.__wrapped__(n, k)  # past the cache
            idx, pairs, seam_sign = _filtered_plan(n, (k,))
            assert plan.idx.tolist() == idx
            per_gate = _per_gate(plan)
            assert set(per_gate) <= set(range(n))
            assert {key: tuple(a.tolist() for a in per_gate.get(l, none)) for l, key in enumerate(crossing_pairs)} == {
                key: pairs[key] for key in crossing_pairs
            }
            assert bool(seam_sign) == (0 < k < 2 * n)
            assert all(s == plan.seam_sign == (-1) ** (k - 1) for s in seam_sign)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sector_plan_layers_are_few_array_updates(n):
    # every sector: the swap layer is one signed permutation, each crossing
    # update touches pairwise disjoint positions, and in the one-particle
    # sector the whole crossing layer is one update over all 2N modes once
    even = sum(1 << (2 * l) for l in range(n))
    for k in range(2 * n + 1):
        plan = qca._sector_plan(n, k)
        idx = plan.idx
        assert sorted(plan.swap.tolist()) == list(range(len(idx)))
        np.testing.assert_array_equal(idx[plan.swap], ((idx & even) << 1) | ((idx >> 1) & even))
        doubly = np.array([bin(i & (i >> 1) & even).count("1") for i in idx.tolist()])
        np.testing.assert_array_equal(plan.swap_sign, (-1.0) ** doubly)
        for p01, p10, gate in plan.crossings:
            touched = np.concatenate([p01, p10])
            assert len(np.unique(touched)) == len(touched)
            if np.ndim(gate):
                assert gate.shape == p01.shape
        assert sorted(_per_gate(plan)) == ([] if k == 0 else list(range(n)))  # the vacuum has no pairs
    (p01, p10, gate), = qca._sector_plan(n, 1).crossings
    assert sorted(np.concatenate([p01, p10]).tolist()) == list(range(2 * n))
    assert sorted(gate.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("array_angles", [False, True])
def test_step_matches_the_per_gate_loop(n, array_angles):
    # the plan's array updates against the loop over all 4N gates, on one
    # state and on a batch of three: equal where every update is one gate,
    # within roundoff in the one-particle sector, whose crossing layer is one
    # update with one gate per pair. Sector 2N - 1 holds 2N states, as the
    # one-particle sector does, but its gates share positions.
    rng = np.random.default_rng(127 + n + 50 * array_angles)
    if array_angles:
        theta, zeta = rng.uniform(0.3, 2.8, size=n), rng.uniform(-0.6, 0.6, size=n)
    else:
        theta, zeta = float(rng.uniform(0.3, 2.8)), float(rng.uniform(-0.6, 0.6))
    gates = qca._crossing_gates(n, theta, zeta)
    for k in (1, 2, 3, 2 * n - 1):
        dim = len(qca._sector_plan(n, k).idx)
        batch = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        batch /= np.linalg.norm(batch, axis=0)
        one = batch[:, 0].copy()
        got = qca_step(QcaState._from_sectors({k: one}, n), theta, zeta).sectors[k]
        got_batch = qca._step_sector(batch, gates, qca._sector_plan(n, k))
        expected, expected_batch = reference_step(one, gates, n, k), reference_step(batch, gates, n, k)
        if k == 1:
            assert np.max(np.abs(got - expected)) <= 1e-15
            assert np.max(np.abs(got_batch - expected_batch)) <= 1e-15
        else:
            assert np.array_equal(got, expected) and np.array_equal(got_batch, expected_batch)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_kernel_reads_only_each_gates_one_particle_block(n):
    # every entry of each crossing gate but its |01>/|10> block is NaN, the
    # |11> entry included: a step that read any of them would carry a NaN
    rng = np.random.default_rng(137 + n)
    gates = qca._crossing_gates(n, rng.uniform(0.3, 2.8, size=n), rng.uniform(-0.6, 0.6, size=n))
    blocks = np.full(gates.shape, np.nan, dtype=complex)
    blocks[:, 1:3, 1:3] = gates[:, 1:3, 1:3]
    for k in range(2 * n + 1):
        plan = qca._sector_plan(n, k)
        x = rng.normal(size=(len(plan.idx), 2)) + 1j * rng.normal(size=(len(plan.idx), 2))
        assert np.array_equal(qca._step_sector(x, blocks, plan), qca._step_sector(x, gates, plan))
        assert np.array_equal(qca._step_sector(x[:, 0], blocks, plan), qca._step_sector(x[:, 0], gates, plan))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 9, 11, 64, 509, 512])
def test_one_particle_matrix_matches_the_per_gate_loop(n):
    # the one-particle matrix steps each class of modes as one state; it
    # must equal the identity stepped gate by gate (each gate mixing two of
    # its rows) to roundoff: 2N below 9, and 2N from 14 up with remainders
    # 0, 1, 2, 4, 5 and 7 mod 9, the last 2N mod 9 modes each a class alone
    rng = np.random.default_rng(131 + n)
    theta, zeta = rng.uniform(0.3, 2.8, size=n), rng.uniform(-0.6, 0.6, size=n)
    w = one_particle_matrix(n, theta, zeta)
    eye = np.eye(2 * n, dtype=complex)
    for gate, q_a, q_b in _reference_layers(list(qca._crossing_gates(n, theta, zeta)), 1):
        _reference_mix(gate, eye[q_b], eye[q_a])
    assert np.max(np.abs(w - eye)) <= 1e-15


def test_step_path_follows_occupied_sectors(monkeypatch):
    # a step requests the plan of every sector its input occupies, and no other
    requested = []
    plan = qca._sector_plan
    monkeypatch.setattr(qca, "_sector_plan", lambda n, k: requested.append(k) or plan(n, k))
    rng = np.random.default_rng(97)
    n = 7
    data = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    qca_step(embed_one_particle(SpinorField(data / np.linalg.norm(data), 1.0)), 1.1, 0.2)
    assert requested == [1]
    requested.clear()
    qca_step(QcaState(_sector_state(n, (0, 2 * n), rng), n), 1.1, 0.2)
    assert requested == [0, 2 * n]
    requested.clear()
    qca_step(QcaState(_sector_state(3, range(7), rng), 3), 1.1, 0.2)
    assert requested == list(range(7))


def test_two_particle_step_approaches_identity_in_continuous_time_limit():
    # alpha = 1: theta -> pi/2 and zeta -> 0 as epsilon -> 0, where every
    # crossing gate is the identity and the two swap layers cancel
    n = 3
    weights = np.array([bin(i).count("1") for i in range(4 ** n)])
    two = weights == 2
    for eps in (0.1, 0.01, 0.001):
        params = ScalingParams(m=0.2, cprofile=CProfile.constant(0.5), epsilon=eps, alpha=1.0)
        theta, zeta = derive_angle_arrays(params, 0.0, 0.0)
        block = dense_step_operator(n, theta, zeta)[np.ix_(two, two)]
        assert np.linalg.norm(block - np.eye(block.shape[0]), 2) <= 2.0 * eps


# ---------------------------------------------------------------------------
# quadratic correspondence


def _jw_lowering(mode, nq):
    """c_mode as a dense matrix with string over lower modes."""
    dim = 2 ** nq
    op = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        if (idx >> mode) & 1:
            sign = (-1) ** bin(idx & ((1 << mode) - 1)).count("1")
            op[idx ^ (1 << mode), idx] = sign
    return op


def _fock_quadratic(h_single, nq):
    dim = 2 ** nq
    ops = [_jw_lowering(m, nq) for m in range(nq)]
    h = np.zeros((dim, dim), dtype=complex)
    for a in range(nq):
        for b in range(nq):
            if h_single[a, b] != 0:
                h += h_single[a, b] * (ops[a].conj().T @ ops[b])
    return h


def test_continuous_time_two_particle_matches_orbital_evolution():
    # dense second-quantized evolution of the quadratic form against the
    # determinant built from exp(-i h t)-evolved orbitals
    import scipy.linalg

    n = 4
    # mode 2l is the plus component at site l, matching the walk layout
    h_field = lattice_hamiltonian_curved(n, 1.0, 0.4, CProfile.constant(0.7))
    h_single = np.zeros((2 * n, 2 * n), dtype=complex)
    for mode in range(2 * n):
        e = np.zeros((n, 2), dtype=complex)
        e[mode // 2, mode % 2] = 1.0
        h_single[:, mode] = h_field.apply(e).reshape(-1)

    rng = np.random.default_rng(71)
    raw = rng.normal(size=(2 * n, 2)) + 1j * rng.normal(size=(2 * n, 2))
    phi = np.linalg.qr(raw)[0]
    t = 0.9

    big = _fock_quadratic(h_single, 2 * n)
    state0 = slater_determinant_state(SlaterState(phi), n)
    evolved = scipy.linalg.expm(-1j * big * t) @ state0.amplitudes

    phi_t = scipy.linalg.expm(-1j * h_single * t) @ phi
    predicted = slater_determinant_state(SlaterState(phi_t), n)
    overlap = np.vdot(predicted.amplitudes, evolved)
    residual = np.linalg.norm(evolved - overlap / abs(overlap) * predicted.amplitudes)
    assert abs(abs(overlap) - 1.0) <= 1e-8
    assert residual <= 1e-8
    occ_full = np.array(
        [
            np.sum(np.abs(evolved) ** 2 * (((np.arange(4 ** n) >> q) & 1) == 1))
            for q in range(2 * n)
        ]
    )
    np.testing.assert_allclose(occ_full, np.sum(np.abs(phi_t) ** 2, axis=1), atol=1e-8)


# ---------------------------------------------------------------------------
# sector-held state against the dense statevector


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sector_held_norm_and_occupations_match_dense_formulas(n):
    rng = np.random.default_rng(103 + n)
    idx = np.arange(4 ** n)
    for sectors in [(1,), (2, 3), (0, n, 2 * n), range(2 * n + 1)]:
        amp = _sector_state(n, sectors, rng) * rng.uniform(0.5, 2.0)
        state = QcaState(amp, n)
        assert sorted(state.sectors) == sorted(sectors)
        assert abs(state.norm() - np.linalg.norm(amp)) <= 1e-14
        expected = [np.sum(np.abs(amp) ** 2 * ((idx >> q) & 1)) for q in range(2 * n)]
        np.testing.assert_allclose(state.occupations(), expected, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(state.amplitudes, amp)


@pytest.mark.parametrize("sectors, raises", [((1,), False), ((2,), True), ((0, 1), True), ((1, 3), True)])
def test_extract_raises_where_the_dense_outside_weight_exceeds_tol(sectors, raises):
    # the outside weight summed over the other held sectors, against the
    # dense norm^2 - |one-particle entries|^2
    rng = np.random.default_rng(107)
    n = 4
    one = 1 << np.arange(2 * n)
    for scale in (1e-6, 1e-4, 1.0):
        amp = _sector_state(n, sectors, rng)
        amp[np.setdiff1d(np.arange(4 ** n), one)] *= scale
        dense_outside = np.linalg.norm(amp) ** 2 - np.sum(np.abs(amp[one]) ** 2)
        assert (dense_outside > 1e-10) == (raises and scale > 1e-6)
        if dense_outside > 1e-10:
            with pytest.raises(SectorError):
                extract_one_particle(QcaState(amp, n))
        else:
            np.testing.assert_array_equal(extract_one_particle(QcaState(amp, n)).data.reshape(-1), amp[one])


@pytest.mark.parametrize("n", [2, 5])
def test_amplitudes_round_trip_through_the_sectors(n):
    rng = np.random.default_rng(109 + n)
    full = rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n)
    for amp in (np.zeros(4 ** n, dtype=complex), QcaState.vacuum(n).amplitudes, full):
        state = QcaState(amp, n)
        np.testing.assert_array_equal(state.amplitudes, amp)
        stepped = qca_step(state, 1.0, 0.3).amplitudes
        assert np.max(np.abs(stepped - dense_step_operator(n, 1.0, 0.3) @ amp), initial=0.0) <= 1e-13
    zero = QcaState(np.zeros(4 ** n), n)
    assert zero.sectors == {} and zero.norm() == 0.0
    assert list(QcaState.vacuum(n).sectors) == [0]
    assert sorted(QcaState(full, n).sectors) == list(range(2 * n + 1))


def test_ten_cell_determinant_path_allocates_no_statevector():
    # criterion 7's path at 20 qubits (the size the benchmark runs): one
    # 2^20 complex vector is 16 MB, and the three-particle sector holds 1140
    # amplitudes
    import tracemalloc

    n, theta, zeta = 10, 1.0, 0.3
    rng = np.random.default_rng(113)
    phi = np.linalg.qr(rng.normal(size=(2 * n, 3)) + 1j * rng.normal(size=(2 * n, 3)))[0]
    tracemalloc.start()
    try:
        state = slater_determinant_state(SlaterState(phi), n)
        for _ in range(4):
            state = qca_step(state, theta, zeta)
            state.occupations()
            state.norm()
        field = SpinorField(phi[:, 0].reshape(n, 2), 1.0)
        extract_one_particle(qca_step(embed_one_particle(field), theta, zeta))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert list(state.sectors) == [3] and state.sectors[3].shape == (1140,)
