"""Reference Hamiltonians, exact/Cayley/Chebyshev integrators, continuum propagators."""

import numpy as np
import pytest
import scipy.linalg

from plasticwalk import (
    CProfile,
    DomainError,
    LatticeHamiltonian,
    SolverError,
    SpinorField,
    curved_dirac_reference,
    dirac_propagator,
    evolve_crank_nicolson,
    evolve_exact,
    lattice_hamiltonian_curved,
    lattice_hamiltonian_flat,
    make_wavepacket,
    ring_momenta,
    trig_interpolate,
)
from plasticwalk.hamiltonians import _chebyshev_propagate, _spectral_dirac, resample

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_field(n, rng, dx=1.0):
    data = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return SpinorField(data / np.linalg.norm(data), dx)


def sine_profile(length, c0=0.5, a=0.3):
    return CProfile.sine_bump(c0, a, length)


# ---------------------------------------------------------------------------
# construction


def test_flat_zero_speed_is_pure_mass():
    h = lattice_hamiltonian_flat(8, 1.0, 0.5, 0.0)
    w = np.linalg.eigvalsh(h.dense())
    np.testing.assert_allclose(np.sort(w), [-0.5] * 8 + [0.5] * 8, atol=1e-14)


def test_flat_massless_unit_speed_spectrum_n4():
    # ring momenta {0, pi/2, pi, 3pi/2} at dx = 1: energies +-sin(k)
    h = lattice_hamiltonian_flat(4, 1.0, 0.0, 1.0)
    w = np.sort(np.linalg.eigvalsh(h.dense()))
    expected = np.sort(
        np.concatenate([[-abs(np.sin(k)), abs(np.sin(k))] for k in ring_momenta(4, 1.0)])
    )
    np.testing.assert_allclose(w, expected, atol=1e-13)


def test_flat_hermiticity_random_pairing():
    rng = np.random.default_rng(2)
    h = lattice_hamiltonian_flat(16, 0.5, 0.7, 0.9)
    dense = h.dense()
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-13
    for _ in range(10):
        phi, psi = random_field(16, rng, 0.5), random_field(16, rng, 0.5)
        lhs = np.vdot(phi.data.reshape(-1), h.apply(psi.data).reshape(-1))
        rhs = np.conj(np.vdot(psi.data.reshape(-1), h.apply(phi.data).reshape(-1)))
        assert abs(lhs - rhs) <= 1e-12


def test_flat_dispersion_all_ring_momenta():
    n, dx, c, m = 32, 0.5, 0.8, 0.3
    h = lattice_hamiltonian_flat(n, dx, m, c)
    w = np.sort(np.linalg.eigvalsh(h.dense()))
    energies = np.sqrt((c * np.sin(ring_momenta(n, dx) * dx) / dx) ** 2 + m ** 2)
    expected = np.sort(np.concatenate([-energies, energies]))
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_fermion_doubling_zero_modes():
    n, dx = 16, 1.0
    c = 0.9
    for k in (0.0, np.pi / dx, -np.pi / dx):
        e = np.sqrt((c * np.sin(k * dx) / dx) ** 2)
        assert e <= 1e-12


def test_flat_domain_checks():
    with pytest.raises(DomainError):
        lattice_hamiltonian_flat(1, 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        lattice_hamiltonian_flat(8, -1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        lattice_hamiltonian_flat(8, 1.0, 0.0, 1.5)
    with pytest.raises(DomainError):
        lattice_hamiltonian_flat(8, 1.0, -0.2, 0.5)


_BUMP = CProfile.sine_bump(0.5, 0.3, 8.0)
_PSI = make_wavepacket(8, 1.0, 4.0, 4.0, 0.3)


@pytest.mark.parametrize("build, named", [
    (lambda v: evolve_exact(lattice_hamiltonian_curved(8, 1.0, 0.2, _BUMP), _PSI, v), "T"),
    (lambda v: lattice_hamiltonian_curved(8, 1.0, v, _BUMP), "mass"),
    (lambda v: lattice_hamiltonian_curved(8, v, 0.2, _BUMP), "dx"),
    (lambda v: curved_dirac_reference(_PSI, _BUMP, v, 1.0), "mass"),
    (lambda v: curved_dirac_reference(_PSI, _BUMP, 0.2, v), "T"),
    (lambda v: dirac_propagator(8, 1.0, v, 0.5, 1.0), "mass"),
    (lambda v: dirac_propagator(8, v, 0.2, 0.5, 1.0), "dx"),
    (lambda v: dirac_propagator(8, 1.0, 0.2, 0.5, v), "T"),
], ids=["evolve_exact-T", "lattice-m", "lattice-dx", "curved-m", "curved-T", "dirac-m", "dirac-dx", "dirac-T"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_references_refuse_non_finite_inputs(build, named, value):
    with pytest.raises(DomainError, match=rf"^{named} must be finite.*, got {value}$"):
        build(value)


def _dense_by_site_loop(h):
    n = h.n_sites
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for l in range(n):
        lm, lp = (l - 1) % n, (l + 1) % n
        out[2 * l : 2 * l + 2, 2 * lm : 2 * lm + 2] += (0.5j / h.dx) * h.c_minus[l] * SX.real
        out[2 * l : 2 * l + 2, 2 * lp : 2 * lp + 2] += (-0.5j / h.dx) * h.c_plus[l] * SX.real
        out[2 * l, 2 * l] += -h.m
        out[2 * l + 1, 2 * l + 1] += +h.m
    return out


@pytest.mark.parametrize("n", [2, 3, 16])
def test_dense_matches_per_site_loop(n):
    # on a two-site ring both hops of a site land on the same block and add up
    h = lattice_hamiltonian_curved(n, 0.7, 0.3, sine_profile(0.7 * n))
    assert np.max(np.abs(h.dense() - _dense_by_site_loop(h))) <= 1e-15


def test_curved_homogeneous_equals_flat_exactly():
    flat = lattice_hamiltonian_flat(12, 0.5, 0.3, 0.6)
    curved = lattice_hamiltonian_curved(12, 0.5, 0.3, CProfile.constant(0.6))
    assert np.array_equal(flat.dense(), curved.dense())


def test_curved_hermiticity():
    length = 32 * 1.0
    h = lattice_hamiltonian_curved(32, 1.0, 0.1, sine_profile(length))
    dense = h.dense()
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-13


def test_curved_seam_bond_hermitian_for_nonperiodic_profile():
    # a sine-bump of length 48 on a ring of 64 is not periodic on the ring:
    # c(-dx/2) != c(64 - dx/2), and site 0 must quote the seam bond the way
    # site N-1 (and the walk's crossing) does
    h = lattice_hamiltonian_curved(64, 1.0, 0.1, sine_profile(48.0))
    dense = h.dense()
    assert np.array_equal(dense, dense.conj().T)
    assert h.c_minus[0] == h.c_plus[-1] == sine_profile(48.0).sample(0.0, np.array([63.5]))[0]


@pytest.mark.parametrize("n, dx", [(16, 1.0), (64, 0.5), (33, 0.3)])
def test_curved_bond_speeds_match_two_sided_sampling_on_periodic_profiles(n, dx):
    profile = sine_profile(n * dx)
    h = lattice_hamiltonian_curved(n, dx, 0.2, profile)
    xs = np.arange(n) * dx
    assert np.max(np.abs(h.c_minus - profile.sample(0.0, xs - 0.5 * dx))) <= 1e-15
    assert np.max(np.abs(h.c_plus - profile.sample(0.0, xs + 0.5 * dx))) <= 1e-15


def _analytic_test_field(n, dx, length):
    x = np.arange(n) * dx
    data = np.empty((n, 2), dtype=complex)
    data[:, 0] = np.exp(1j * 2 * np.pi * 3 * x / length) * (1.2 + np.cos(2 * np.pi * x / length))
    data[:, 1] = np.exp(-1j * 2 * np.pi * 2 * x / length) * (0.7 + np.sin(2 * np.pi * x / length))
    return SpinorField(data, dx)


def _curved_target(field, cprofile_params, m, length):
    c0, a = cprofile_params
    x = field.positions()
    c = c0 + a * np.sin(2 * np.pi * x / length)
    dc = a * (2 * np.pi / length) * np.cos(2 * np.pi * x / length)
    psi = field.data
    k_plus = 2 * np.pi * 3 / length
    k_minus = -2 * np.pi * 2 / length
    dpsi = np.empty_like(psi)
    dpsi[:, 0] = (
        1j * k_plus * psi[:, 0]
        + np.exp(1j * k_plus * x) * (-np.sin(2 * np.pi * x / length)) * 2 * np.pi / length
    )
    dpsi[:, 1] = (
        1j * k_minus * psi[:, 1]
        + np.exp(1j * k_minus * x) * (np.cos(2 * np.pi * x / length)) * 2 * np.pi / length
    )
    out = np.empty_like(psi)
    # c sx (-i d_x) psi - (i/2) sx (dc) psi - m sz psi
    out[:, 0] = -1j * c * dpsi[:, 1] - 0.5j * dc * psi[:, 1] - m * psi[:, 0]
    out[:, 1] = -1j * c * dpsi[:, 0] - 0.5j * dc * psi[:, 0] + m * psi[:, 1]
    return out


@pytest.mark.parametrize("curved", [True, False])
def test_continuum_consistency_second_order(curved):
    # applying H to smooth samples converges at order >= 2 to the continuum action
    length, m = 16.0, 0.25
    c0, a = (0.5, 0.3) if curved else (0.6, 0.0)
    errs, dxs = [], []
    for n in (64, 128, 256):
        dx = length / n
        field = _analytic_test_field(n, dx, length)
        if curved:
            h = lattice_hamiltonian_curved(n, dx, m, sine_profile(length, c0, a))
        else:
            h = lattice_hamiltonian_flat(n, dx, m, c0)
        target = _curved_target(field, (c0, a), m, length)
        errs.append(np.max(np.abs(h.apply(field.data) - target)))
        dxs.append(dx)
    order = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert order >= 2.0 - 0.1


# ---------------------------------------------------------------------------
# exact evolution


def test_evolve_exact_time_zero():
    rng = np.random.default_rng(4)
    h = lattice_hamiltonian_flat(8, 1.0, 0.2, 0.5)
    f = random_field(8, rng)
    np.testing.assert_allclose(evolve_exact(h, f, 0.0).data, f.data, atol=1e-14)


def test_evolve_exact_pure_mass_phase():
    # plus component has energy -m, so it gains phase e^{+imT}
    h = lattice_hamiltonian_flat(6, 1.0, 0.5, 0.0)
    data = np.zeros((6, 2), dtype=complex)
    data[2, 0] = 1.0
    out = evolve_exact(h, SpinorField(data, 1.0), 2.0)
    expected = np.zeros_like(data)
    expected[2, 0] = 0.54030230586813972 + 0.84147098480789651j
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_evolve_exact_norm():
    rng = np.random.default_rng(6)
    h = lattice_hamiltonian_curved(32, 0.5, 0.4, sine_profile(16.0))
    f = random_field(32, rng, 0.5)
    out = evolve_exact(h, f, 3.7)
    assert abs(out.norm() - 1.0) <= 1e-11


def test_evolve_exact_refuses_non_hermitian_hamiltonian():
    # a hand-built H whose two sites quote different speeds for one bond
    rng = np.random.default_rng(14)
    h = lattice_hamiltonian_curved(16, 1.0, 0.2, sine_profile(16.0))
    h = LatticeHamiltonian(c_minus=h.c_minus[::-1].copy(), c_plus=h.c_plus, dx=h.dx, m=h.m)
    assert np.max(np.abs(h.dense() - h.dense().conj().T)) > 0.1
    with pytest.raises(SolverError):
        evolve_exact(h, random_field(16, rng), 4.0)


def test_evolve_exact_refuses_a_field_on_another_grid():
    h = lattice_hamiltonian_flat(16, 1.0, 0.2, 0.5)
    with pytest.raises(DomainError, match="different grids"):
        evolve_exact(h, random_field(32, np.random.default_rng(15)), 1.0)


# ---------------------------------------------------------------------------
# Cayley stepping


def test_cn_matches_exact():
    rng = np.random.default_rng(8)
    h = lattice_hamiltonian_curved(32, 1.0, 0.3, sine_profile(32.0))
    f = random_field(32, rng)
    exact = evolve_exact(h, f, 1.0)
    stepped = evolve_crank_nicolson(h, f, 1.0, 2048)
    assert np.max(np.abs(exact.data - stepped.data)) <= 1e-6


def test_cn_norm_drift_long_run():
    rng = np.random.default_rng(10)
    h = lattice_hamiltonian_flat(16, 1.0, 0.2, 0.8)
    f = random_field(16, rng)
    out = evolve_crank_nicolson(h, f, 10.0, 10_000)
    assert abs(out.norm() - 1.0) <= 1e-9


def test_cn_second_order():
    rng = np.random.default_rng(12)
    h = lattice_hamiltonian_flat(24, 1.0, 0.4, 0.7)
    f = random_field(24, rng)
    exact = evolve_exact(h, f, 2.0)
    errs = []
    step_counts = [32, 64, 128]
    for steps in step_counts:
        out = evolve_crank_nicolson(h, f, 2.0, steps)
        errs.append(np.max(np.abs(out.data - exact.data)))
    taus = 2.0 / np.array(step_counts)
    order = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert 1.8 <= order <= 2.2


@pytest.mark.parametrize("n", [2, 3, 16])
def test_cn_is_the_cayley_factor_on_each_eigenmode(n):
    # oracle shares no code with the solve: the per-site loop's eigenbasis,
    # where each step multiplies mode lambda by r = (1 - i tau lambda/2)/(1 + i tau lambda/2)
    h = lattice_hamiltonian_curved(n, 0.7, 0.3, sine_profile(0.7 * n))
    f = random_field(n, np.random.default_rng(n), 0.7)
    T, steps = 1.3, 40
    tau = T / steps
    lam, vec = np.linalg.eigh(_dense_by_site_loop(h))
    r = (1.0 - 0.5j * tau * lam) / (1.0 + 0.5j * tau * lam)
    expected = vec @ (r ** steps * (vec.conj().T @ f.data.reshape(-1)))
    out = evolve_crank_nicolson(h, f, T, steps)
    assert np.max(np.abs(out.data.reshape(-1) - expected)) <= 1e-12


def test_cn_rejects_bad_steps():
    h = lattice_hamiltonian_flat(8, 1.0, 0.0, 0.5)
    f = random_field(8, np.random.default_rng(0))
    with pytest.raises(DomainError):
        evolve_crank_nicolson(h, f, 1.0, 0)


# ---------------------------------------------------------------------------
# continuum propagator


def test_dirac_propagator_zero_momentum_block():
    prop = dirac_propagator(8, 1.0, 0.7, 0.5, T=1.3)
    block = np.array([e[0] for e in prop.entries]).reshape(2, 2)  # FFT bin 0 is k = 0
    expected = np.diag([np.exp(1j * 0.7 * 1.3), np.exp(-1j * 0.7 * 1.3)])
    np.testing.assert_allclose(block, expected, atol=1e-13)


@pytest.mark.parametrize(
    "n, dx, m, c",
    [(64, 1.0, 0.2, 0.5), (33, 0.5, 0.0, 1.0), (128, 0.25, 0.7, 0.3), (16, 2.0, 0.0, 0.0)],
)
def test_lattice_propagator_matches_dense_evolution(n, dx, m, c):
    # the flat lattice through evolve_exact; odd N and m = 0 included: there
    # the k = 0 mode has zero energy, and c = 0 leaves only the mass
    rng = np.random.default_rng(n)
    f = random_field(n, rng, dx)
    h = lattice_hamiltonian_flat(n, dx, m, c)
    dense = (scipy.linalg.expm(-2.3j * h.dense()) @ f.data.reshape(-1)).reshape(n, 2)
    out = evolve_exact(h, f, 2.3)
    assert np.max(np.abs(out.data - dense)) <= 1e-13


def test_dirac_block_vectorizes_scalar_blocks():
    from plasticwalk.hamiltonians import dirac_block

    qs = np.array([-1.3, 0.0, 0.4, 2.0])
    blocks = dirac_block(qs, 0.6, 0.2, 1.7)
    assert blocks.shape == (4, 2, 2)
    for q, b in zip(qs, blocks):
        assert np.array_equal(dirac_block(float(q), 0.6, 0.2, 1.7), b)
    np.testing.assert_array_equal(dirac_block(0.0, 0.6, 0.0, 1.7), np.eye(2))


def test_dirac_propagator_blocks_unitary():
    prop = dirac_propagator(32, 0.5, 0.3, 0.9, T=2.0)
    for b in np.stack(prop.entries, axis=-1).reshape(-1, 2, 2):
        np.testing.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-13)


def test_momentum_operator_refuses_a_field_on_another_grid():
    prop = dirac_propagator(8, 1.0, 0.2, 0.5, 0.5)
    assert prop.apply(_PSI).n_sites == 8
    for n in (7, 16):
        with pytest.raises(DomainError, match="different grids"):
            prop.apply(random_field(n, np.random.default_rng(n)))


def test_dirac_massless_packet_translates():
    n, dx, T = 128, 0.5, 8.0
    packet = make_wavepacket(n, dx, x0=24.0, w=4.0, k0=0.8, chirality_mix=0.5)
    # components along (1, 1)/sqrt(2) move right by exactly T when c = 1, m = 0
    data = np.empty((n, 2), dtype=complex)
    env = packet.data[:, 0] * np.sqrt(2)
    data[:, 0] = env / np.sqrt(2)
    data[:, 1] = env / np.sqrt(2)
    f = SpinorField(data / np.linalg.norm(data), dx)
    out = dirac_propagator(n, dx, 0.0, 1.0, T).apply(f)
    shifted = np.roll(f.data, int(T / dx), axis=0)
    np.testing.assert_allclose(out.data, shifted, atol=1e-12)


def test_zitterbewegung_frequency():
    # a packet at rest with equal-phase components (zero-momentum eigenbasis
    # is the mass basis, so this mixes both energy branches maximally): the
    # position expectation oscillates at 2m on top of a slow drift
    n, dx, m = 256, 0.25, 1.0
    length = n * dx
    packet = make_wavepacket(n, dx, x0=length / 2, w=2.0, k0=0.0, chirality_mix=0.5)
    window = 4 * np.pi
    samples = 128
    ts = np.linspace(0.0, window, samples, endpoint=False)
    xs = packet.positions()
    means = []
    for t in ts:
        out = dirac_propagator(n, dx, m, 1.0, float(t)).apply(packet)
        dens = out.density()
        means.append(float(np.sum(xs * dens)))
    sig = np.array(means)
    sig -= np.polyval(np.polyfit(ts, sig, 1), ts)
    spec = np.abs(np.fft.rfft(sig))
    freqs = 2 * np.pi * np.fft.rfftfreq(samples, d=window / samples)
    peak = int(np.argmax(spec[1:])) + 1
    # parabolic refinement of the peak
    if 1 <= peak < len(spec) - 1:
        a, b, c = spec[peak - 1], spec[peak], spec[peak + 1]
        shift = 0.5 * (a - c) / (a - 2 * b + c)
    else:
        shift = 0.0
    freq = freqs[peak] + shift * (freqs[1] - freqs[0])
    assert abs(freq - 2 * m) / (2 * m) <= 0.05


# ---------------------------------------------------------------------------
# curved continuum reference


def test_curved_reference_matches_momentum_propagator_for_flat_profile():
    n, dx, m, T = 64, 1.0, 0.2, 1.0
    packet = make_wavepacket(n, dx, x0=32.0, w=6.0, k0=0.4)
    # propagated on a grid refined 8x, and resampled back
    ref = resample(curved_dirac_reference(resample(packet, 8 * n), CProfile.constant(0.5), m, T), n)
    prop = dirac_propagator(n, dx, m, 0.5, T).apply(packet)
    assert np.max(np.abs(ref.data - prop.data)) <= 1e-4


def test_curved_reference_self_convergence():
    # the pseudo-spectral reference is converged on the walk's own grid: a
    # packet that is periodic on the ring (k0 a ring momentum) gives the same
    # evolution on grids refined 1x, 2x and 4x
    n, dx, m, T = 64, 1.0, 0.1, 1.0
    length = n * dx
    packet = make_wavepacket(n, dx, x0=32.0, w=6.0, k0=2 * np.pi * 3 / length)
    prof = sine_profile(length)
    sols = {r: resample(curved_dirac_reference(resample(packet, r * n), prof, m, T), n) for r in (1, 2, 4)}
    assert np.max(np.abs(sols[1].data - sols[2].data)) <= 1e-12
    assert np.max(np.abs(sols[1].data - sols[4].data)) <= 1e-12


def test_curved_reference_norm_preserved():
    n, dx, T = 48, 0.5, 1.5
    packet = make_wavepacket(n, dx, x0=12.0, w=2.5, k0=0.5)
    prof = CProfile.gaussian_well(0.8, 0.3, center=12.0, width=3.0)
    out = curved_dirac_reference(packet, prof, 0.0, T)
    assert abs(out.norm() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Chebyshev propagation


def _component_major_dense(apply, n):
    """Dense matrix of an operator on (2, n) arrays, in the flattened (2n,) basis."""
    eye = np.eye(2 * n, dtype=complex)
    return np.stack([apply(eye[j].reshape(2, n)).reshape(-1) for j in range(2 * n)], axis=1)


# (n, dx, T): radius * T from 0.3 to about 600
CHEBYSHEV_CASES = [(64, 1.0, 0.1), (33, 1.0, 3.0), (64, 0.25, 10.0), (64, 0.25, 30.0), (48, 0.125, 30.0)]


@pytest.mark.parametrize("n, dx, T", CHEBYSHEV_CASES)
def test_chebyshev_matches_expm_of_spectral_matrix(n, dx, T):
    rng = np.random.default_rng(n)
    cs = sine_profile(n * dx).sample(0.0, np.arange(n) * dx)
    apply, radius = _spectral_dirac(cs, dx, 0.2)
    h = _component_major_dense(apply, n)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-14
    # D is real (an even grid drops its Nyquist wavenumber), so only the mass is real
    mass = np.kron(np.diag([-0.2, 0.2]), np.eye(n))
    assert np.max(np.abs(h.real - mass)) <= 1e-14
    assert np.max(np.abs(np.linalg.eigvalsh(h))) <= radius
    v = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    expected = (scipy.linalg.expm(-1j * T * h) @ v.reshape(-1)).reshape(2, n)
    out = _chebyshev_propagate(apply, v, T, radius)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("n, dx, T", CHEBYSHEV_CASES)
def test_chebyshev_matches_dense_lattice_evolution(n, dx, T):
    # the kernel only needs H.v, so the lattice operator's own apply drives it
    rng = np.random.default_rng(n + 1)
    h = lattice_hamiltonian_curved(n, dx, 0.2, sine_profile(n * dx))
    f = random_field(n, rng, dx)
    radius = float(np.max(h.c_plus)) / dx + h.m
    out = _chebyshev_propagate(h.apply, f.data, T, radius)
    expected = (scipy.linalg.expm(-1j * T * h.dense()) @ f.data.reshape(-1)).reshape(n, 2)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_chebyshev_time_zero_returns_input():
    rng = np.random.default_rng(20)
    h = lattice_hamiltonian_curved(16, 1.0, 0.3, sine_profile(16.0))
    f = random_field(16, rng)
    out = _chebyshev_propagate(h.apply, f.data, 0.0, 1.1)
    assert np.array_equal(out, f.data)
    assert out is not f.data


def test_chebyshev_radius_below_spectrum_raises():
    # a radius that does not bound the spectrum makes the series diverge;
    # the norm check turns that into an error instead of a wrong field
    rng = np.random.default_rng(22)
    h = lattice_hamiltonian_curved(32, 0.25, 0.2, sine_profile(8.0))
    f = random_field(32, rng, 0.25)
    with pytest.raises(SolverError):
        _chebyshev_propagate(h.apply, f.data, 10.0, 0.3 * (0.8 / 0.25 + 0.2))


@pytest.mark.parametrize("curved", [True, False])
def test_spectral_operator_matches_continuum_action(curved):
    # on a band-limited field and speed the pseudo-spectral H is the continuum
    # operator c sx (-i d_x) - (i/2) sx c' - m sz to roundoff, c' included
    length, m, n = 16.0, 0.25, 64
    c0, a = (0.5, 0.3) if curved else (0.6, 0.0)
    dx = length / n
    field = _analytic_test_field(n, dx, length)
    cs = sine_profile(length, c0, a).sample(0.0, field.positions())
    apply, _ = _spectral_dirac(cs, dx, m)
    target = _curved_target(field, (c0, a), m, length)
    assert np.max(np.abs(apply(field.data.T.copy()).T - target)) <= 1e-12


def test_trig_interpolation_exact_on_band_limited():
    n, dx = 16, 1.0
    x = np.arange(n) * dx
    data = np.stack(
        [np.exp(1j * 2 * np.pi * 2 * x / (n * dx)), np.cos(2 * np.pi * 3 * x / (n * dx))], axis=1
    ).astype(complex)
    f = SpinorField(data, dx)
    fine = trig_interpolate(f, 4)
    xf = fine.positions()
    expected = np.stack(
        [np.exp(1j * 2 * np.pi * 2 * xf / (n * dx)), np.cos(2 * np.pi * 3 * xf / (n * dx))], axis=1
    )
    np.testing.assert_allclose(fine.data, expected, atol=1e-12)


def test_trig_interpolation_refuses_a_refinement_that_is_not_an_integer():
    f = random_field(8, np.random.default_rng(15))
    for refinement in (2.5, True, 0, -2):
        with pytest.raises(DomainError, match="refinement must be an integer >= 1"):
            trig_interpolate(f, refinement)
    assert trig_interpolate(f, np.int64(2)).n_sites == 16


def test_restrict_inverts_interpolation_on_grid_points():
    rng = np.random.default_rng(14)
    f = random_field(24, rng, dx=0.5)
    for r in (2, 3, 4):
        back = resample(trig_interpolate(f, r), f.n_sites)
        np.testing.assert_allclose(back.data, f.data, atol=1e-13)
        assert back.dx == pytest.approx(f.dx)


def _interpolate_by_refinement(field, refinement):
    """Integer-refinement interpolation written out on its own, as it stood before ``resample``."""
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


@pytest.mark.parametrize("n", [2, 3, 8, 15, 24])
def test_trig_interpolate_is_bitwise_the_integer_refinement_rule(n):
    f = random_field(n, np.random.default_rng(n), dx=0.37)
    for r in (1, 2, 3, 8):
        got, want = trig_interpolate(f, r), _interpolate_by_refinement(f, r)
        assert got.dx == want.dx
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("coarse, fine", [(7, 21), (9, 20), (8, 24), (8, 20), (10, 15), (128, 1024)],
                         ids=["odd", "odd_to_even", "even", "even_non_integer", "even_to_odd", "benchmark"])
def test_resample_restricts_and_interpolates_a_band_limited_field_back(coarse, fine):
    # a field band-limited on the coarse grid, Nyquist mode included where it is even
    rng = np.random.default_rng(coarse * fine)
    for _ in range(5):
        f = resample(random_field(coarse, rng, dx=64.0 / coarse), fine)
        restricted = resample(f, coarse)
        assert restricted.n_sites == coarse and restricted.dx == pytest.approx(64.0 / coarse, rel=1e-15)
        back = resample(restricted, fine)
        assert np.linalg.norm(back.data - f.data) / np.linalg.norm(f.data) <= 1e-15


def test_resample_drops_the_modes_beyond_the_coarse_band():
    n, coarse = 24, 10
    x = np.arange(n) * (2 * np.pi / n)
    inside, outside = np.exp(3j * x), np.exp(7j * x)  # 7 > coarse // 2
    f = SpinorField(np.stack([inside + outside, inside], axis=1), 1.0)
    back = resample(resample(f, coarse), n)
    np.testing.assert_allclose(back.data, np.stack([inside, inside], axis=1), atol=1e-14)


def test_resample_refuses_a_site_count_that_is_not_an_integer():
    f = random_field(8, np.random.default_rng(16))
    for n_sites in (12.0, True, 1, 0):
        with pytest.raises(DomainError, match="n_sites must be an integer >= 2"):
            resample(f, n_sites)
