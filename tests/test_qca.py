"""Cellular-automaton gates, sectors, encoding identity, determinant dynamics."""

import numpy as np
import pytest

from plasticwalk import (
    BudgetError,
    CProfile,
    OrthogonalityError,
    QcaState,
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
from plasticwalk.qca import dense_step_operator


def one_particle_step(theta, zeta):
    def step(field: SpinorField) -> SpinorField:
        return extract_one_particle(qca_step(embed_one_particle(field), theta, zeta))

    return step


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
    np.testing.assert_allclose(gate_U(np.pi / 2, 0.0), np.diag([1, 1, 1, -1]), atol=1e-15)


def test_gate_u_zero_theta_is_signed_swap():
    u = gate_U(0.0, 0.3)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 2] = -1.0
    expected[2, 1] = 1.0
    expected[3, 3] = -1.0
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


def test_gate_u_chiral_variant_unitary():
    u = gate_U(0.8, 0.2, chiral_y=True)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-14)
    assert u[2, 2] == pytest.approx(-np.exp(0.2j) * np.sin(0.8), abs=1e-15)


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


def test_budget_guard():
    with pytest.raises(BudgetError):
        QcaState.vacuum(13)


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


def test_encoding_cell_budget():
    with pytest.raises(BudgetError):
        verify_encoding(1.0, 0.0, 13)


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


def test_determinant_overlap_phase_invariance():
    rng = np.random.default_rng(67)
    a = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
    b = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
    base = abs(np.linalg.det(a.conj().T @ b))
    a_phased = a.copy()
    a_phased[:, 1] *= np.exp(0.77j)
    assert abs(np.linalg.det(a_phased.conj().T @ b)) == pytest.approx(base, abs=1e-12)


def test_two_particle_dynamics_is_not_a_determinant_evolution():
    # The crossing gate multiplies its doubly occupied state by -1 while its
    # one-particle block has determinant +1. That sign is a contact phase
    # between opposite movers, so the multi-particle automaton is not the
    # antisymmetrized tensor power of its one-particle sector; pinned here
    # as a behavioural fact (see also the acceptance suite).
    n, theta, zeta = 6, 1.0, 0.3
    phi = np.zeros((2 * n, 2), dtype=complex)
    phi[2 * 1 + 0, 0] = 1.0
    phi[2 * 4 + 1, 1] = 1.0
    state = slater_determinant_state(SlaterState(phi), n)
    for _ in range(4):
        state = qca_step(state, theta, zeta)
    slater = slater_evolve(SlaterState(phi), one_particle_step(theta, zeta), 4)
    gap = np.max(np.abs(state.occupations() - slater.occupations()))
    assert gap > 0.1


def _det_consistent_gate(theta, zeta):
    u = gate_U(theta, zeta)
    u[3, 3] = 1.0  # det of the one-particle block
    return u


def _apply_two_qubit(amp, gate, q1, q2, nq):
    psi = amp.reshape([2] * nq)
    a1, a2 = nq - 1 - q1, nq - 1 - q2
    psi = np.moveaxis(psi, (a1, a2), (0, 1))
    shape = psi.shape
    psi = (gate @ psi.reshape(4, -1)).reshape(shape)
    return np.moveaxis(psi, (0, 1), (a1, a2)).reshape(-1)


def _step_with_gates(amp, n, u_bulk, u_boundary, v):
    nq = 2 * n
    for conj in (False, True):
        for l in range(n):
            u = u_boundary if l == n - 1 else u_bulk
            g = u.conj() if conj else u
            amp = _apply_two_qubit(amp, g, (2 * l + 2) % nq, 2 * l + 1, nq)
        for l in range(n):
            amp = _apply_two_qubit(amp, v, 2 * l, 2 * l + 1, nq)
    return amp


def test_det_consistent_variant_with_seam_twist_is_free():
    # With the doubly-occupied phase matching the block determinant, the
    # automaton is a nearest-neighbour matchgate circuit: its two-particle
    # sector equals the determinant evolution of a one-particle operator,
    # provided the operator carries the ring-seam parity twist that the
    # ordered-mode encoding induces for a two-particle state.
    n, theta, zeta = 6, 1.0, 0.3
    u = _det_consistent_gate(theta, zeta)
    u_seam = u.copy()
    u_seam[1, 2] *= -1.0
    u_seam[2, 1] *= -1.0
    v = gate_V()

    phi = np.zeros((2 * n, 2), dtype=complex)
    phi[2 * 1 + 0, 0] = 1.0
    phi[2 * 4 + 1, 1] = 1.0
    state = slater_determinant_state(SlaterState(phi), n)
    amp = state.amplitudes.copy()
    # twisted one-particle operator: same layers acting on mode vectors
    w1 = np.zeros((2 * n, 2 * n), dtype=complex)
    for mode in range(2 * n):
        e = np.zeros(4 ** n, dtype=complex)
        e[1 << mode] = 1.0
        out = _step_with_gates(e, n, u, u_seam, v)
        for target in range(2 * n):
            w1[target, mode] = out[1 << target]
    orb = phi.copy()
    for _ in range(4):
        amp = _step_with_gates(amp, n, u, u, v)
        orb = w1 @ orb
    probs = np.abs(amp) ** 2
    idx = np.arange(len(probs))
    occ_full = np.array([probs[(idx >> q) & 1 == 1].sum() for q in range(2 * n)])
    occ_slater = np.sum(np.abs(orb) ** 2, axis=1)
    assert np.max(np.abs(occ_full - occ_slater)) <= 1e-12


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
