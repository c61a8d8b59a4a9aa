"""Walk-operator construction and single-step behaviour."""

import numpy as np
import pytest

from plasticwalk import (
    CProfile,
    DomainError,
    InhomogeneousError,
    ScalingParams,
    SpinorField,
    coin_matrix,
    evolve_walk,
    lambda_matrix,
    lambda_power,
    momentum_block,
    qw_step,
    ring_momenta,
)
from plasticwalk.scaling import derive_angle_arrays
from plasticwalk.walk import _apply, _operators, _shift, _step_operators

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_field(n, rng, dx=1.0):
    data = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return SpinorField(data / np.linalg.norm(data), dx)


def params_for(c, m, eps, alpha):
    return ScalingParams(m=m, cprofile=CProfile.constant(c), epsilon=eps, alpha=alpha)


def step_loop(f, p, steps):
    """``steps`` bare qw_steps with the trajectory's operators: the position-space oracle."""
    ops = _step_operators(p, 0.0, f.positions())
    for _ in range(steps):
        f = qw_step(f, p, ops=ops)
    return f


# ---------------------------------------------------------------------------
# derive_angle_arrays


def test_angles_massless_unit_speed_kappa_one():
    p = params_for(1.0, 0.0, 1.0, 0.5)  # kappa = 1
    theta, zeta = derive_angle_arrays(p, 0.0, 0.0)
    assert theta == 0.0
    assert zeta == 0.0


def test_angles_zero_speed_kappa_one_mass_sign():
    # at kappa = 1 the alternating factor equals cos(pi) = -1
    p = params_for(0.0, 0.5, 1.0, 1.0)
    theta, zeta = derive_angle_arrays(p, 0.0, 0.0)
    assert theta == pytest.approx(np.pi / 2, abs=1e-15)
    assert zeta == pytest.approx(-0.5, abs=1e-15)


def test_angles_high_precision_fixture():
    # frozen from a 40-digit evaluation of the closed forms
    p = params_for(0.5, 0.2, 0.01, 1.0)
    theta, zeta = derive_angle_arrays(p, 0.0, 0.0)
    assert theta == pytest.approx(1.5657963059613289, abs=1e-15)
    assert zeta == pytest.approx(0.0019990381088640007, abs=1e-17)


def test_angles_singular_mass():
    p = params_for(1.0, 0.3, 1.0, 0.5)  # c*kappa = 1 and m > 0
    with pytest.raises(DomainError, match=r"epsilon = 1\.0: sin\(theta\) = 0 .* with m = 0\.3"):
        derive_angle_arrays(p, 0.0, 0.0)


def test_angle_errors_name_the_position():
    prof = CProfile.from_function(lambda t, x: np.where(x == 2.0, 1.0, 0.5))
    p = ScalingParams(m=0.3, cprofile=prof, epsilon=1.0, alpha=0.5)  # kappa = 1
    with pytest.raises(DomainError, match=r"x=2\.0\)"):
        derive_angle_arrays(p, 0.0, np.arange(4.0))


# ---------------------------------------------------------------------------
# coin


def test_coin_is_sigma_x_at_quarter_turn():
    np.testing.assert_allclose(coin_matrix(np.pi / 2, 0.0), SX, atol=1e-15)


def test_coin_at_zero_theta_ignores_zeta():
    expected = np.diag([-1.0, 1.0])
    for zeta in (0.0, 0.7, -3.0):
        np.testing.assert_allclose(coin_matrix(0.0, zeta), expected, atol=1e-15)


def test_coin_fixture_third_pi():
    c = coin_matrix(np.pi / 3, 0.7)
    assert c[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert c[0, 1] == pytest.approx(0.66237276407442234 - 0.5579088827150986j, abs=1e-15)
    assert c[1, 0] == pytest.approx(0.66237276407442234 + 0.5579088827150986j, abs=1e-15)
    assert c[1, 1] == pytest.approx(0.5, abs=1e-15)


def test_coin_unitary_det_minus_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta, zeta = rng.uniform(-np.pi, np.pi, size=2)
        c = coin_matrix(theta, zeta)
        np.testing.assert_allclose(c.conj().T @ c, np.eye(2), atol=1e-14)
        assert np.linalg.det(c) == pytest.approx(-1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# mixing matrix and its powers


def test_lambda_endpoints():
    np.testing.assert_allclose(lambda_matrix(0.0), SX, atol=1e-15)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(lambda_matrix(1.0), hadamard, atol=1e-15)


def test_lambda_involution_random():
    rng = np.random.default_rng(11)
    for c in rng.uniform(0.0, 1.0, size=100):
        lam = lambda_matrix(c)
        np.testing.assert_allclose(lam @ lam, np.eye(2), atol=1e-14)


def test_lambda_domain():
    with pytest.raises(DomainError):
        lambda_matrix(1.5)
    with pytest.raises(DomainError):
        lambda_matrix(-0.1)


def test_lambda_power_endpoints():
    np.testing.assert_allclose(lambda_power(0.3, 1.0), lambda_matrix(0.3), atol=1e-15)
    np.testing.assert_allclose(lambda_power(0.3, 0.0), np.eye(2), atol=1e-15)


def test_lambda_power_sqrt_sigma_x():
    expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    np.testing.assert_allclose(lambda_power(0.0, 0.5), expected, atol=1e-15)


def test_lambda_power_group_law_and_adjoint():
    rng = np.random.default_rng(3)
    for _ in range(40):
        c = rng.uniform(0.0, 1.0)
        k1, k2 = rng.uniform(-2.0, 2.0, size=2)
        lhs = lambda_power(c, k1) @ lambda_power(c, k2)
        np.testing.assert_allclose(lhs, lambda_power(c, k1 + k2), atol=1e-12)
        np.testing.assert_allclose(
            lambda_power(c, -k1), lambda_power(c, k1).conj().T, atol=1e-14
        )
        m = lambda_power(c, k1)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-14)


def test_walk_builders_vectorize_scalar_calls():
    rng = np.random.default_rng(41)
    theta, zeta = rng.uniform(-np.pi, np.pi, size=(2, 3, 4))
    stacked = np.array([[coin_matrix(t, z) for t, z in zip(*row)] for row in zip(theta, zeta)])
    assert np.array_equal(coin_matrix(theta, zeta), stacked)
    cs = rng.uniform(0.0, 1.0, size=7)
    assert np.array_equal(lambda_power(cs, 0.3), np.array([lambda_power(c, 0.3) for c in cs]))
    prof = CProfile.from_function(lambda t, x: 0.5 + 0.3 * np.sin(x + t))
    p = ScalingParams(m=0.2, cprofile=prof, epsilon=0.05, alpha=0.5)
    xs = rng.uniform(0.0, 10.0, size=9)
    scalar = np.array([derive_angle_arrays(p, 0.7, x) for x in xs])
    assert np.array_equal(np.stack(derive_angle_arrays(p, 0.7, xs), axis=1), scalar)


# ---------------------------------------------------------------------------
# shifts


def full_shift(data):
    """The walk's full shift S = S^- S^+ on an (N, 2) array."""
    return np.stack(_shift(data[:, 0], data[:, 1]), axis=1)


def test_shift_two_sites():
    f = SpinorField(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), 1.0)
    out = full_shift(f.data)
    np.testing.assert_allclose(out, [[0.0, 0.0], [1.0, 0.0]], atol=0)


def test_shift_plane_wave_eigenvector():
    n, dx = 16, 0.5
    k = 2 * np.pi * 3 / (n * dx)
    x = np.arange(n) * dx
    data = np.zeros((n, 2), dtype=complex)
    data[:, 0] = np.exp(1j * k * x)
    data[:, 1] = np.exp(1j * k * x)
    out = full_shift(data)
    np.testing.assert_allclose(out[:, 0], np.exp(1j * k * dx) * data[:, 0], atol=1e-14)
    np.testing.assert_allclose(out[:, 1], np.exp(-1j * k * dx) * data[:, 1], atol=1e-14)


def test_shift_periodicity():
    rng = np.random.default_rng(5)
    f = random_field(7, rng)
    g = f.data
    for _ in range(7):
        g = full_shift(g)
    np.testing.assert_allclose(g, f.data, atol=0)


# ---------------------------------------------------------------------------
# full step


def test_step_identity_case():
    # zero speed, zero mass, kappa = 1: both shifts are undone by the coins
    p = params_for(0.0, 0.0, 0.3, 0.0)
    rng = np.random.default_rng(9)
    f = random_field(32, rng, dx=p.dx)
    out = qw_step(f, p)
    assert np.max(np.abs(out.data - f.data)) < 1e-12


def test_step_norm_preservation_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        alpha = rng.uniform(0.0, 1.0)
        eps = rng.choice([1.0, 0.1, 0.01])
        m = rng.uniform(0.0, 1.0)
        if rng.uniform() < 0.5:
            prof = CProfile.constant(rng.uniform(0.0, 1.0))
        else:
            c0 = rng.uniform(0.2, 0.8)
            a = rng.uniform(0.0, min(c0, 1.0 - c0) * 0.99)
            prof = CProfile.sine_bump(c0, a, 32 * eps ** (1 - alpha))
        p = ScalingParams(m=m, cprofile=prof, epsilon=float(eps), alpha=float(alpha))
        f = random_field(32, rng, dx=p.dx)
        out = qw_step(f, p, t=0.0)
        assert abs(out.norm() - f.norm()) / f.norm() < 1e-12


def test_step_rejects_wrong_spacing():
    p = params_for(0.5, 0.1, 0.25, 0.5)  # dx = 0.5
    f = random_field(8, np.random.default_rng(1), dx=1.0)
    with pytest.raises(DomainError):
        qw_step(f, p)


def explicit_momentum_block(p, k):
    """Lambda^(-kappa) D C(-zeta) D C(zeta) Lambda^kappa, each factor from its own scalar call."""
    c = p.cprofile(0.0, 0.0)
    theta, zeta = derive_angle_arrays(p, 0.0, 0.0)
    d = np.diag([np.exp(1j * k * p.dx), np.exp(-1j * k * p.dx)])
    return (
        lambda_power(c, -p.kappa)
        @ d
        @ coin_matrix(theta, -zeta)
        @ d
        @ coin_matrix(theta, zeta)
        @ lambda_power(c, p.kappa)
    )


def test_step_matches_momentum_block_on_every_ring_mode():
    p = params_for(0.5, 0.2, 0.05, 1.0)
    n = 16
    x = np.arange(n) * p.dx
    rng = np.random.default_rng(21)
    for k in ring_momenta(n, p.dx):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        data = np.exp(1j * k * x)[:, None] * u[None, :]
        f = SpinorField(data / np.linalg.norm(data), p.dx)
        stepped = qw_step(f, p)
        expected = f.data @ momentum_block(p, float(k)).T
        np.testing.assert_allclose(momentum_block(p, float(k)), explicit_momentum_block(p, k), atol=1e-14)
        np.testing.assert_allclose(stepped.data, expected, atol=1e-12)


def test_uniform_profile_steps_like_homogeneous():
    # one point broadcast over the ring gives the bits of a per-site build
    flat = ScalingParams(m=0.3, cprofile=CProfile.constant(0.5), epsilon=0.0625, alpha=0.5)
    uniform = ScalingParams(
        m=0.3, cprofile=CProfile.from_function(lambda t, x: 0.5), epsilon=0.0625, alpha=0.5
    )
    f = random_field(32, np.random.default_rng(43), dx=flat.dx)
    assert np.array_equal(step_loop(f, flat, 20).data, step_loop(f, uniform, 20).data)


def test_step_translation_covariance():
    p = params_for(0.7, 0.4, 0.1, 0.5)
    rng = np.random.default_rng(17)
    f = random_field(24, rng, dx=p.dx)
    rotated = SpinorField(np.roll(f.data, 5, axis=0), p.dx)
    lhs = qw_step(rotated, p).data
    rhs = np.roll(qw_step(f, p).data, 5, axis=0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_step_inhomogeneous_unitary_and_time_frozen():
    prof = CProfile.from_function(lambda t, x: 0.5 + 0.2 * np.sin(2 * np.pi * x / 16.0 + t))
    p = ScalingParams(m=0.3, cprofile=prof, epsilon=0.25, alpha=0.5)
    rng = np.random.default_rng(23)
    f = random_field(int(round(16.0 / p.dx)), rng, dx=p.dx)
    out0 = qw_step(f, p, t=0.0)
    out1 = qw_step(f, p, t=1.0)
    assert abs(out0.norm() - 1.0) < 1e-12
    assert abs(out1.norm() - 1.0) < 1e-12
    assert np.max(np.abs(out0.data - out1.data)) > 1e-6  # profile time actually enters


@pytest.mark.parametrize(
    "prof",
    [
        CProfile.gaussian_well(0.8, 0.3, center=4.0, width=1.5),
        CProfile.from_function(lambda t, x: 0.5 + 0.2 * np.sin(2 * np.pi * x / 8.0 + t)),
    ],
    ids=["gaussian-well", "time-dependent"],
)
def test_step_is_the_shared_kernel_on_a_new_field(prof):
    p = ScalingParams(m=0.3, cprofile=prof, epsilon=0.0625, alpha=0.5)
    rng = np.random.default_rng(31)
    f = random_field(int(round(8.0 / p.dx)), rng, dx=p.dx)
    before = f.data.copy()
    t = 0.75
    plus, minus = _apply(_step_operators(p, t, f.positions()), f.plus, f.minus, _shift)
    out = qw_step(f, p, t=t)
    assert isinstance(out, SpinorField) and out.dx == f.dx
    assert out.data.shape == (f.n_sites, 2) and out.data.dtype == np.complex128
    assert np.array_equal(out.plus, plus) and np.array_equal(out.minus, minus)
    assert np.array_equal(f.data, before)  # the input field is left as it was


@pytest.mark.parametrize("frame", ["mixing-frame", "full"])
def test_step_is_bitwise_the_same_in_either_memory_order(frame):
    # an F-ordered field without Lambda^(-kappa) takes _apply's out path, every other step the copy
    well = CProfile.gaussian_well(0.8, 0.3, center=4.0, width=1.5)
    p = ScalingParams(m=0.3, cprofile=well, epsilon=0.0625, alpha=0.5)
    f = random_field(int(round(8.0 / p.dx)), np.random.default_rng(37), dx=p.dx)
    ops = _step_operators(p, 0.0, f.positions())
    if frame == "mixing-frame":
        ops = (None, *ops[1:3], None)
    c, fo = (SpinorField(np.array(f.data, order=order), f.dx) for order in "CF")
    out_c, out_f = qw_step(c, p, ops=ops), qw_step(fo, p, ops=ops)
    assert np.array_equal(out_c.data, out_f.data)
    assert out_c.data.flags.c_contiguous and out_f.data.flags.f_contiguous
    plus, minus = _apply(ops, f.plus, f.minus, _shift)
    assert np.array_equal(out_f.plus, plus) and np.array_equal(out_f.minus, minus)


# ---------------------------------------------------------------------------
# momentum block


@pytest.mark.parametrize("m", [0.0, 0.3])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_every_alpha_is_the_alpha_zero_walk_in_other_coordinates(alpha, m):
    # W_alpha = Lambda(c)^-kappa Lambda(kappa c) . W_0 . Lambda(kappa c)^-1 Lambda(c)^kappa, with W_0
    # the alpha = 0 walk on the same sites, read as x' = eps^alpha x at spacing eps: its speed is
    # c'(x') = kappa c(x), its kappa is eps^0 = 1, so its theta = arccos(kappa c) is the alpha walk's,
    # and its mass -m cos(pi kappa) gives the alpha walk's zeta. That mass is negative for m > 0 and
    # kappa < 1/2, which ScalingParams refuses, so W_0 is built here from its angles
    n, eps = 64, 0.05
    kappa, dx = eps ** alpha, eps ** (1.0 - alpha)
    bump = CProfile.sine_bump(0.5, 0.3, n * dx)
    field = random_field(n, np.random.default_rng(97), dx)
    xs = field.positions()
    c_sites, theta = bump.sample(0.0, xs), np.arccos(kappa * bump.sample(0.0, xs + 0.5 * dx))
    zeta = -m * np.cos(np.pi * kappa) * np.cos(np.pi * 1.0) * eps / np.sin(theta)
    w0 = _operators(lambda_power(kappa * c_sites, 1.0), coin_matrix(theta, zeta))
    lam_kappa, lam_fast = lambda_power(c_sites, kappa), lambda_matrix(kappa * c_sites)  # Lambda(kc)^-1 = itself
    p, q = _apply(w0, *(lam_fast @ lam_kappa @ field.data[..., None])[..., 0].T, _shift)
    expected = (lam_kappa.conj() @ lam_fast @ np.stack([p, q], axis=1)[..., None])[..., 0]
    stepped = qw_step(field, ScalingParams(m=m, cprofile=bump, epsilon=eps, alpha=alpha))
    assert np.max(np.abs(stepped.data - expected)) <= 1e-15


def test_momentum_block_zero_momentum_massless():
    p = params_for(0.8, 0.0, 0.1, 1.0)
    phases = np.angle(np.linalg.eigvals(momentum_block(p, 0.0)))
    np.testing.assert_allclose(np.sort(phases), [0.0, 0.0], atol=1e-13)


def test_momentum_block_zero_speed_massless_is_identity():
    p = params_for(0.0, 0.0, 0.2, 0.5)
    for k in ring_momenta(12, p.dx):
        np.testing.assert_allclose(momentum_block(p, float(k)), np.eye(2), atol=1e-13)


def test_momentum_block_requires_homogeneous():
    prof = CProfile.sine_bump(0.5, 0.2, 16.0)
    p = ScalingParams(m=0.0, cprofile=prof, epsilon=0.1, alpha=1.0)
    with pytest.raises(InhomogeneousError):
        momentum_block(p, 0.1)


def test_momentum_block_vectorizes_scalar_blocks():
    p = params_for(0.6, 0.3, 0.05, 0.5)
    ks = ring_momenta(16, p.dx)
    blocks = momentum_block(p, ks)
    assert blocks.shape == (16, 2, 2)
    assert momentum_block(p, float(ks[3])).shape == (2, 2)
    scalar = np.array([momentum_block(p, float(k)) for k in ks])
    assert np.max(np.abs(blocks - scalar)) <= 1e-15


def test_momentum_block_eigenphase_expansion_halving():
    # phases approach -+2 eps sqrt(c^2 sin^2(k dx) + m^2); residual is O(eps^2)
    c, m, k = 0.5, 0.2, 0.9
    resid = []
    eps_seq = [0.02, 0.01, 0.005, 0.0025]
    for eps in eps_seq:
        p = params_for(c, m, eps, 1.0)
        phases = np.sort(np.angle(np.linalg.eigvals(momentum_block(p, k))))
        e = np.sqrt(c ** 2 * np.sin(k * p.dx) ** 2 + m ** 2)
        resid.append(np.max(np.abs(phases - np.sort([-2 * eps * e, 2 * eps * e]))))
    fit = np.polyfit(np.log(eps_seq), np.log(resid), 1)[0]
    assert fit >= 1.8


@pytest.mark.parametrize(
    "prof",
    [
        CProfile.from_function(lambda t, x: 0.4 + 0.2 * np.sin(t)),
        CProfile.gaussian_well(0.8, 0.3, center=2.0, width=1.0),
        CProfile.sine_bump(0.5, 0.3, 4.0),
    ],
    ids=["inhomogeneous", "gaussian-well", "sine-bump"],
)
def test_evolve_walk_threads_step_start_times(prof):
    # evolve_walk builds a static profile's operators once; each bare qw_step builds its own.
    # A static profile is stepped between one Lambda^kappa and one Lambda^-kappa, so it
    # matches the product of full steps to roundoff; a time-dependent one takes full steps.
    p = ScalingParams(m=0.1, cprofile=prof, epsilon=0.25, alpha=0.5)
    rng = np.random.default_rng(29)
    f = random_field(8, rng, dx=p.dx)
    manual = qw_step(qw_step(f, p, t=0.0), p, t=2 * p.epsilon)
    auto = evolve_walk(f, p, steps=2)
    if prof.static:
        assert np.linalg.norm(auto.data - manual.data) <= 1e-14
    else:
        assert np.array_equal(auto.data, manual.data)


def test_step_matches_momentum_block_intermediate_scaling():
    p = params_for(0.7, 0.3, 0.0625, 0.4)
    n = 12
    x = np.arange(n) * p.dx
    rng = np.random.default_rng(37)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    u /= np.linalg.norm(u)
    for k in ring_momenta(n, p.dx):
        data = np.exp(1j * k * x)[:, None] * u[None, :]
        f = SpinorField(data / np.linalg.norm(data), p.dx)
        expected = f.data @ momentum_block(p, float(k)).T
        np.testing.assert_allclose(momentum_block(p, float(k)), explicit_momentum_block(p, k), atol=1e-14)
        np.testing.assert_allclose(qw_step(f, p).data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# operators built once per trajectory


def test_static_profile_builds_operators_once_per_trajectory(monkeypatch):
    from plasticwalk import walk

    builds = []
    real = walk._step_operators

    def counting(params, t, xs):
        builds.append(t)
        return real(params, t, xs)

    monkeypatch.setattr(walk, "_step_operators", counting)
    well = CProfile.gaussian_well(0.8, 0.3, center=8.0, width=2.0)
    static = ScalingParams(m=0.2, cprofile=well, epsilon=0.0625, alpha=0.5)
    f = random_field(64, np.random.default_rng(53), dx=static.dx)
    evolve_walk(f, static, 7)
    assert builds == [0.0]
    builds.clear()
    moving = ScalingParams(
        m=0.2, cprofile=CProfile.from_function(lambda t, x: 0.5 + 0.2 * np.sin(x + t)),
        epsilon=0.0625, alpha=0.5,
    )
    evolve_walk(f, moving, 7)
    assert builds == [2.0 * 0.0625 * j for j in range(7)]


# ---------------------------------------------------------------------------
# a static inhomogeneous trajectory in the mixing-power frame


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("profile", ["gaussian-well", "sine-bump"])
def test_static_walk_matches_the_full_step_product(alpha, profile):
    # Lambda^kappa once, frame-free steps, Lambda^-kappa once: the bare full steps to roundoff
    n, eps = 64, 0.25
    length = n * eps ** (1.0 - alpha)
    prof = {"sine-bump": CProfile.sine_bump(0.5, 0.3, length),
            "gaussian-well": CProfile.gaussian_well(0.8, 0.3, length / 2, length / 8)}[profile]
    p = ScalingParams(m=0.2, cprofile=prof, epsilon=eps, alpha=alpha)
    f = random_field(n, np.random.default_rng(101), dx=p.dx)
    walked = evolve_walk(f, p, 1024)
    full = step_loop(f, p, 1024)
    assert np.linalg.norm(walked.data - full.data) <= 1e-12 * np.linalg.norm(full.data)


def test_static_walk_steps_without_mixing_powers(monkeypatch):
    # one qw_step per step, each handed C(zeta) and the taps only
    from plasticwalk import walk

    seen = []
    real = walk.qw_step

    def spy(field, params, t=0.0, *, ops=None):
        seen.append((ops[0], ops[3]))
        return real(field, params, t, ops=ops)

    monkeypatch.setattr(walk, "qw_step", spy)
    well = CProfile.gaussian_well(0.8, 0.3, center=8.0, width=2.0)
    p = ScalingParams(m=0.2, cprofile=well, epsilon=0.0625, alpha=0.5)
    f = random_field(64, np.random.default_rng(103), dx=p.dx)
    evolve_walk(f, p, 5)
    assert seen == [(None, None)] * 5


# ---------------------------------------------------------------------------
# a homogeneous trajectory as one Fourier multiplier


def eigen_oracle(f, p, steps):
    """Each ring momentum's block, eigen-decomposed and raised to ``steps``, between FFTs."""
    w, v = np.linalg.eig(momentum_block(p, ring_momenta(f.n_sites, p.dx)))
    power = v @ (w[:, :, None] ** steps * np.linalg.inv(v))
    return np.fft.ifft(np.einsum("kij,kj->ki", power, np.fft.fft(f.data, axis=0)), axis=0)


@pytest.mark.parametrize("steps", [0, 1, 7, 256])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_homogeneous_walk_matches_step_loop_and_eigen_oracle(alpha, steps):
    p = params_for(0.5, 0.2, 0.1, alpha)
    f = random_field(33, np.random.default_rng(59), dx=p.dx)
    out = evolve_walk(f, p, steps)
    assert np.linalg.norm(out.data - step_loop(f, p, steps).data) <= 1e-13
    assert np.linalg.norm(out.data - eigen_oracle(f, p, steps)) <= 1e-13
    assert abs(out.norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_homogeneous_walk_rounding_does_not_grow_with_steps(alpha):
    # blocks raised in double would drift from the loop by ~n * 1e-16 (~4e-13 here)
    p = params_for(0.5, 0.2, 0.1, alpha)
    f = random_field(33, np.random.default_rng(97), dx=p.dx)
    assert np.linalg.norm(evolve_walk(f, p, 2048).data - step_loop(f, p, 2048).data) <= 5e-14


def test_homogeneous_walk_takes_no_qw_step(monkeypatch):
    from plasticwalk import walk

    def refuse(*args, **kwargs):
        raise AssertionError("qw_step called on a homogeneous trajectory")

    monkeypatch.setattr(walk, "qw_step", refuse)
    p = params_for(0.5, 0.2, 0.0625, 0.5)
    f = random_field(64, np.random.default_rng(61), dx=p.dx)
    assert abs(evolve_walk(f, p, 100).norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("prof", [CProfile.constant(0.5), CProfile.sine_bump(0.5, 0.2, 4.0)],
                         ids=["homogeneous", "sine-bump"])
@pytest.mark.parametrize("steps", [-3, 2.5, True])
def test_evolve_walk_refuses_a_bad_step_count(prof, steps):
    p = ScalingParams(m=0.2, cprofile=prof, epsilon=0.25, alpha=0.5)
    f = random_field(8, np.random.default_rng(71), dx=p.dx)
    with pytest.raises(DomainError):
        evolve_walk(f, p, steps)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("profile", ["flat", "sine-bump", "gaussian-well"])
def test_even_and_odd_sites_decouple_on_an_even_ring(alpha, profile):
    # every step taps only sites x +- 2, so an odd-sites-only field never reaches an even site
    n, eps = 64, 0.25
    length = n * eps ** (1.0 - alpha)
    prof = {"flat": CProfile.constant(0.5), "sine-bump": CProfile.sine_bump(0.5, 0.3, length),
            "gaussian-well": CProfile.gaussian_well(0.8, 0.3, length / 2, length / 16)}[profile]
    p = ScalingParams(m=0.2, cprofile=prof, epsilon=eps, alpha=alpha)
    f = random_field(n, np.random.default_rng(97), dx=p.dx)
    f.data[::2] = 0.0
    out = evolve_walk(f, p, 500)
    assert np.sum(np.abs(out.data[::2]) ** 2) <= 1e-28


def test_evolve_walk_accepts_a_numpy_step_count():
    p = params_for(0.5, 0.2, 0.25, 0.5)
    f = random_field(8, np.random.default_rng(73), dx=p.dx)
    assert np.array_equal(evolve_walk(f, p, np.int64(5)).data, evolve_walk(f, p, 5).data)


def test_homogeneous_walk_rejects_wrong_spacing():
    p = params_for(0.5, 0.1, 0.25, 0.5)  # dx = 0.5
    f = random_field(8, np.random.default_rng(79), dx=1.0)
    with pytest.raises(DomainError, match="does not match"):
        evolve_walk(f, p, 3)


def test_homogeneous_walk_raises_on_a_singular_coin():
    p = params_for(1.0, 0.2, 0.25, 0.0)  # c * kappa = 1 with m > 0
    f = random_field(8, np.random.default_rng(83), dx=p.dx)
    with pytest.raises(DomainError, match=r"sin\(theta\) = 0"):
        evolve_walk(f, p, 3)


def test_homogeneous_walk_refuses_a_non_finite_result():
    p = params_for(0.5, 0.2, 0.25, 0.5)
    f = random_field(8, np.random.default_rng(89), dx=p.dx)
    f.data[3, 1] = np.nan  # written past the constructor's check
    with pytest.raises(DomainError, match="non-finite"):
        evolve_walk(f, p, 3)
