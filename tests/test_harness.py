"""Wavepackets, order fitting, sweeps, dispersion tables."""

import platform
import warnings
from dataclasses import replace

import numpy as np
import pytest

import plasticwalk
from plasticwalk import harness
from plasticwalk import (
    CProfile,
    DomainError,
    ExperimentSpec,
    ResolutionError,
    ScalingParams,
    curved_dirac_reference,
    dispersion_scan,
    estimate_order,
    make_wavepacket,
    run_convergence_sweep,
)
from plasticwalk.hamiltonians import resample


# ---------------------------------------------------------------------------
# wavepacket


def test_wavepacket_pure_plus():
    f = make_wavepacket(64, 1.0, 32.0, 8.0, 0.3, chirality_mix=1.0)
    assert np.max(np.abs(f.minus)) == 0.0
    assert abs(f.norm() - 1.0) <= 1e-13


def test_wavepacket_norm_random_params():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(32, 200))
        dx = rng.uniform(0.1, 1.0)
        w = rng.uniform(4 * dx, n * dx / 6)
        f = make_wavepacket(n, dx, rng.uniform(0, n * dx), w, rng.uniform(-1, 1), rng.uniform(0, 1))
        assert abs(f.norm() - 1.0) <= 1e-13


def test_wavepacket_mean_momentum():
    n, dx = 128, 0.5
    length = n * dx
    k0 = 2 * np.pi * 5 / length
    f = make_wavepacket(n, dx, length / 2, length / 16, k0, 0.5)
    spec = np.abs(np.fft.fft(f.data, axis=0)) ** 2
    ks = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    mean_k = float(np.sum(ks[:, None] * spec) / np.sum(spec))
    assert abs(mean_k - k0) <= 2 * np.pi / length


def test_wavepacket_is_periodic_for_any_momentum():
    # moving the centre by one site rolls the packet by one site, times the
    # phase e^{i k0 dx}, also when the packet straddles the seam and k0 is
    # not a ring momentum
    n, dx, k0 = 64, 1.0, np.pi / 8 * 1.03
    f = make_wavepacket(n, dx, 0.0, 8.0, k0, 0.5)
    moved = make_wavepacket(n, dx, dx, 8.0, k0, 0.5)
    assert np.max(np.abs(moved.data - np.exp(1j * k0 * dx) * np.roll(f.data, 1, axis=0))) <= 1e-13


@pytest.mark.parametrize("j", [-3, 2, 3, 10])
def test_wavepacket_rings_away_is_the_packet_on_the_ring_rephased(j):
    # x0 + j L is x0 on the ring; the periodized wave e^{i k0 x} carries the phase e^{i k0 j L}
    n, dx, k0 = 64, 1.0, np.pi / 8 * 1.03
    f = make_wavepacket(n, dx, 8.0, 8.0, k0, 0.3)
    moved = make_wavepacket(n, dx, 8.0 + j * n * dx, 8.0, k0, 0.3)
    assert np.max(np.abs(moved.data - np.exp(1j * k0 * j * n * dx) * f.data)) <= 1e-14


def test_wide_wavepacket_sums_every_image_that_counts():
    # at w = L/2 the images up to |s| = 7 carry weight above 2^-53; compare with 121 images
    n, dx, x0, k0 = 64, 1.0, 20.0, 0.3
    length, w = n * dx, n * dx / 2
    x = np.arange(n) * dx
    wave = sum(np.exp(1j * k0 * (x + s * length) - (x - x0 + s * length) ** 2 / (4 * w ** 2)) for s in range(-60, 61))
    data = np.stack([wave, wave], axis=1) / (np.sqrt(2.0) * np.linalg.norm(wave))
    assert np.max(np.abs(make_wavepacket(n, dx, x0, w, k0).data - data)) <= 1e-15


def test_wavepacket_as_wide_as_the_ring_builds_on_a_snapped_grid():
    # at alpha = 0.25, epsilon = 0.2 the snapped grid's N dx sits an ulp below the length, 64
    params, n, *_ = harness._grid(0.2, CProfile.constant(0.5), 0.25, 64.0, 1.0, 0.2)
    assert n * params.dx < 64.0
    assert abs(make_wavepacket(n, params.dx, 32.0, 64.0, 0.3).norm() - 1.0) <= 1e-13


def test_wavepacket_resolution_guard():
    with pytest.raises(ResolutionError):
        make_wavepacket(64, 1.0, 32.0, 3.9, 0.0)


@pytest.mark.parametrize(
    "n, dx, x0, w, k0",
    [
        (64, 1.0, 32.0, 8.0, 1e308),  # k0 s length at s = 2
        (64, 1.0, 1e308, 8.0, 10.0),  # k0 j length, j = floor(x0 / length)
        (64, 0.01 / 64, 0.0, 0.002, 1e308),  # k0 s = 3e308 on a ring shorter than 1
        (64, 0.01 / 64, 1e308, 0.002, 0.0),  # x0 / length overflows, and 0 * inf is NaN
    ],
    ids=["k0", "x0_k0", "short_ring_k0", "short_ring_x0"],
)
def test_wavepacket_refuses_a_phase_past_the_float_range(n, dx, x0, w, k0):
    # refused by _check_packet, which every packet passes through, before NumPy overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="k0 = .* phase past the float range"):
            make_wavepacket(n, dx, x0, w, k0)


def test_wavepacket_far_away_with_a_moderate_k0_still_builds():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = make_wavepacket(64, 1.0, 1e308, 8.0, np.pi / 8)
    assert np.all(np.isfinite(f.data)) and abs(f.norm() - 1.0) <= 1e-13


# ---------------------------------------------------------------------------
# order estimation


def test_estimate_order_exact_geometric():
    p, ci = estimate_order([(0.02, 2e-3), (0.01, 1e-3), (0.005, 5e-4)])
    assert p == pytest.approx(1.0, abs=1e-12)
    assert ci == pytest.approx(0.0, abs=1e-10)


def test_estimate_order_exact_second():
    p, _ = estimate_order([(0.04, 4e-4), (0.02, 1e-4), (0.01, 2.5e-5)])
    assert p == pytest.approx(2.0, abs=1e-12)


def test_estimate_order_noisy_synthetic():
    rng = np.random.default_rng(5)
    eps = np.geomspace(0.1, 0.001, 9)
    errs = 0.3 * eps * (1.0 + 0.05 * rng.standard_normal(9))
    p, _ = estimate_order(list(zip(eps, errs)))
    assert 0.9 <= p <= 1.1


def test_estimate_order_degenerate_and_domain():
    with pytest.raises(DomainError, match="noise floor"):  # an error at roundoff has no order
        estimate_order([(0.02, 1e-3), (0.01, 1e-15), (0.005, 1e-16)])
    with pytest.raises(DomainError):
        estimate_order([(0.02, 1e-3), (0.01, 1e-4)])
    with pytest.raises(DomainError):
        estimate_order([(0.01, 1e-3), (0.02, 1e-4), (0.005, 1e-5)])
    with pytest.raises(DomainError):  # a negative error is not at the noise floor
        estimate_order([(0.02, 1e-3), (0.01, -1e-4), (0.005, 1e-5)])


@pytest.mark.parametrize(
    "eps",
    [(0.4, np.nan, 0.1), (0.4, 0.2, np.nan), (np.inf, 0.2, 0.1), (0.4, 0.2, 0.0), (0.4, 0.0, -0.1)],
    ids=["nan_middle", "nan_last", "inf_first", "zero_last", "zero_and_negative"],
)
def test_estimate_order_refuses_an_epsilon_that_is_not_finite_and_positive(eps):
    # a NaN compares false in the decrease check, and log(0) or log(-x) would fit NaNs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite and positive"):
            estimate_order(list(zip(eps, (0.1, 0.05, 0.01))))


# ---------------------------------------------------------------------------
# sweeps


def _spec(alpha, profile, eps_list, m=0.2, reference="auto", length=32.0, T=2.0, k0=np.pi / 8):
    return ExperimentSpec(
        alpha=alpha,
        m=m,
        cprofile=profile,
        length=length,
        T=T,
        epsilon_list=eps_list,
        x0=length / 2,
        w=length / 8,
        k0=k0,
        chirality_mix=0.5,
        reference=reference,
    )


def test_sweep_identity_case_reports_exact():
    spec = _spec(0.0, CProfile.constant(0.0), [0.5, 0.25, 0.125], m=0.0)
    report = run_convergence_sweep(spec)
    assert report.exact
    assert report.fitted_order is None
    for row in report.rows:
        assert row.error_l2 <= 1e-12
    # the cross-validation gap sits at roundoff too: the gate's floor, not error/10, bounds it
    assert min(r.error_l2 for r in report.rows) / 10 < report.crossval_gap <= harness.NOISE_FLOOR
    assert not report.flags
    assert all(c["passed"] for c in report.checks)


def _sweep_with_errors(monkeypatch, errors, min_order=None):
    """A sweep at alpha = 1 whose rows report the given errors, in order."""
    queue = iter(errors)
    monkeypatch.setattr(harness, "_run_row", lambda spec, params, row, kind: (
        replace(row, error_l2=next(queue)), None, None))
    spec = _spec(1.0, CProfile.constant(0.5), [0.5, 0.25, 0.125][:len(errors)])
    return run_convergence_sweep(spec, min_order)


@pytest.mark.parametrize("errors, exact", [
    ([1e-13, 1e-13], False), ([1e-13, 1e-13, 1e-13], False),
    ([1e-16], True), ([1e-16, 1e-16], True), ([1e-16, 1e-16, 1e-16], True),
], ids=["above_floor_2", "above_floor_3", "at_floor_1", "at_floor_2", "at_floor_3"])
def test_one_exactness_rule_for_any_row_count(monkeypatch, errors, exact):
    # exact iff every completed error is at or below NOISE_FLOOR, however many rows ran
    report = _sweep_with_errors(monkeypatch, errors, min_order=0.9)
    assert report.exact is exact
    assert report.checks[-1] == {"name": "min_order", "passed": exact,
                                 "detail": "exact" if exact else f"fitted {report.fitted_order}"}


def test_partial_noise_floor_is_neither_exact_nor_fitted(monkeypatch):
    # a converging sweep whose finest error reaches roundoff must not pass a min_order as exact
    report = _sweep_with_errors(monkeypatch, [0.1, 0.01, 1e-15], min_order=0.9)
    assert not report.exact and report.fitted_order is None and report.fitted_ci is None
    assert "1 of 3 completed errors at or below the noise floor (1e-14); no order fitted" in report.flags
    assert report.checks[-1] == {"name": "min_order", "passed": False, "detail": "fitted None"}
    assert [c["name"] for c in report.checks if not c["passed"]] == ["min_order"]


def test_gate_flag_names_the_noise_floor_when_it_sets_the_bound(monkeypatch):
    # the identity sweep's errors sit near 1e-16, so the floor, not smallest error/10, bounds the gap
    monkeypatch.setattr(harness, "_cross_validate_references", lambda *args: 1e-13)
    report = run_convergence_sweep(_spec(0.0, CProfile.constant(0.0), [0.5, 0.25, 0.125], m=0.0))
    assert min(r.error_l2 for r in report.rows) / 10 < harness.NOISE_FLOOR
    assert report.flags == [
        "reference cross-validation gap 1.000e-13 exceeds the noise floor (1.000e-14); sweep flagged invalid"]


def test_cross_validation_equals_the_flat_formula():
    # the lattice side through the spec's profile and the continuum side through
    # _reference_evolution are bitwise the flat Hamiltonian and the Dirac propagator
    from plasticwalk.hamiltonians import (
        dirac_propagator, evolve_exact, lattice_hamiltonian_flat, resample, trig_interpolate)

    spec = _spec(0.0, CProfile.constant(0.5), [0.5, 0.25, 0.125], m=0.2)
    params, row, _ = spec._planned[0]
    psi0 = make_wavepacket(row.N, row.dx, spec.x0, spec.w, spec.k0, spec.chirality_mix)
    fine = trig_interpolate(psi0, 8)
    lattice = resample(evolve_exact(lattice_hamiltonian_flat(fine.n_sites, fine.dx, 0.2, 0.5), fine,
                                    row.time_reached), row.N)
    dirac = dirac_propagator(row.N, row.dx, 0.2, 0.5, row.time_reached).apply(psi0)
    gap = harness._cross_validate_references(spec, params, row, "dirac_momentum")
    assert gap == float(np.linalg.norm(lattice.data - dirac.data))
    assert run_convergence_sweep(spec).crossval_gap == gap


def test_cross_validation_moves_grids_only_through_the_reference_runner(monkeypatch):
    # the 8x lattice is _reference_evolution's resample to 8 N and back; the gap is the one
    # test_cross_validation_equals_the_flat_formula pins, and trig_interpolate runs nowhere
    from plasticwalk import hamiltonians

    def refuse(*args):
        raise AssertionError("trig_interpolate called")

    spec = _spec(0.0, CProfile.constant(0.5), [0.5, 0.25, 0.125], m=0.2)
    gap = run_convergence_sweep(spec).crossval_gap
    for owner in (harness, hamiltonians):
        monkeypatch.setattr(owner, "trig_interpolate", refuse)
    report = run_convergence_sweep(spec)
    assert report.crossval_gap == gap
    assert all(c["passed"] for c in report.checks)


def test_spec_with_no_epsilon_is_refused():
    with pytest.raises(DomainError, match="epsilon_list must not be empty"):
        _spec(1.0, CProfile.constant(0.5), [])


def test_spec_plans_its_rows_once(monkeypatch):
    # the spec plans on construction; the sweep reads that plan
    plan, calls = ExperimentSpec._plan, []
    monkeypatch.setattr(ExperimentSpec, "_plan", lambda self: calls.append(self) or plan(self))
    for alpha, profile, eps_list in ((1.0, CProfile.constant(0.5), [0.2, 0.1, 0.05]),
                                     (0.0, CProfile.sine_bump(0.5, 0.3, 32.0), [0.5, 0.25, 0.125])):
        calls.clear()
        spec = _spec(alpha, profile, eps_list)
        report = run_convergence_sweep(spec)
        assert calls == [spec] and len(report.rows) == 3


def test_sweep_alpha_one_first_order():
    spec = _spec(1.0, CProfile.constant(0.5), [0.2, 0.1, 0.05, 0.025])
    report = run_convergence_sweep(spec)
    assert report.reference == "lattice_exact"
    assert report.frame == "dressed-encoding"
    assert report.fitted_order is not None and report.fitted_order >= 0.9
    errs = [r.error_l2 for r in report.rows]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert not report.flags
    assert report.crossval_gap is None  # cross-validation runs at alpha = 0 only
    assert report.reference_error is None  # curved_fine_grid sweeps only


def test_sweep_alpha_one_beyond_dense_budget():
    # the lattice reference is a matrix-free Chebyshev propagation, so a
    # 3000-site ring (2N = 6000) completes every row
    spec = ExperimentSpec(
        alpha=1.0,
        m=0.2,
        cprofile=CProfile.constant(0.5),
        length=3000.0,
        T=2.0,
        epsilon_list=[0.2, 0.1, 0.05],
        x0=1500.0,
        w=8.0,
        k0=float(np.pi / 8),
    )
    report = run_convergence_sweep(spec)
    assert all(r.failure is None for r in report.rows)
    assert [r.N for r in report.rows] == [3000] * 3
    assert report.fitted_order is not None and report.fitted_order >= 0.9


def test_sweep_curved_alpha_one_beyond_dense_budget():
    # the curved lattice reference takes the same matrix-free path: a
    # 2560-site sine-bump ring (2N = 5120) completes every row at first order
    spec = ExperimentSpec(
        alpha=1.0,
        m=0.2,
        cprofile=CProfile.sine_bump(0.5, 0.2, 64.0),
        length=2560.0,
        T=2.0,
        epsilon_list=[0.2, 0.1, 0.05],
        x0=1280.0,
        w=8.0,
        k0=float(np.pi / 8),
    )
    report = run_convergence_sweep(spec)
    assert report.reference == "lattice_exact"
    assert all(r.failure is None for r in report.rows)
    assert [r.N for r in report.rows] == [2560] * 3
    assert report.fitted_order is not None and report.fitted_order >= 0.9


def test_sweep_alpha_half_against_continuum():
    # harness workhorse: intermediate scaling against the momentum propagator
    eps_list = [(32.0 / n) ** 2 for n in (64, 128, 256, 512)]
    spec = _spec(0.5, CProfile.constant(0.8), eps_list, m=0.1)
    report = run_convergence_sweep(spec)
    assert report.reference == "dirac_momentum"
    assert report.fitted_order is not None and report.fitted_order >= 0.9


def test_sweep_alpha_zero_polarization_frame():
    spec = _spec(0.0, CProfile.constant(0.5), [0.5, 0.25, 0.125, 0.0625])
    report = run_convergence_sweep(spec)
    assert report.frame == "polarization-rotation"
    assert report.fitted_order is not None and report.fitted_order >= 0.9
    # cross-validation of the two references ran and did not flag
    assert not any("cross-validation" in f for f in report.flags)
    assert isinstance(report.crossval_gap, float)
    assert report.crossval_gap <= min(r.error_l2 for r in report.rows) / 10.0
    assert report.to_json_dict()["crossval_gap"] == report.crossval_gap


def test_sweep_determinism_bit_identical_rows():
    spec = _spec(0.5, CProfile.constant(0.6), [(32.0 / n) ** 2 for n in (64, 128, 256)])
    a = run_convergence_sweep(spec)
    b = run_convergence_sweep(spec)
    assert a.spec_hash == b.spec_hash
    # walltime varies; every numerical column must not
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.epsilon, ra.dx, ra.N, ra.steps, ra.error_l2, ra.error_max) == (
            rb.epsilon,
            rb.dx,
            rb.N,
            rb.steps,
            rb.error_l2,
            rb.error_max,
        )


def test_sweep_records_epsilon_snapping():
    spec = _spec(0.5, CProfile.constant(0.5), [0.21, 0.052])  # incompatible with L = 32
    report = run_convergence_sweep(spec)
    assert any("snapped" in note for note in report.adjustments)
    for row in report.rows:
        assert abs(row.N * row.dx - 32.0) < 1e-9


def test_sweep_curved_inhomogeneous_reference_selected():
    prof = CProfile.sine_bump(0.5, 0.3, 32.0)
    spec = _spec(0.0, prof, [0.5, 0.25], m=0.1)
    report = run_convergence_sweep(spec)
    assert report.reference == "curved_fine_grid"
    assert all(r.failure is None for r in report.rows)


def test_curved_sweep_records_the_reference_error():
    # the criterion-5 alpha = 0 input: the reference on the coarsest grid against
    # its 2x refined twin, far below the walk's smallest error
    spec = _spec(0.0, CProfile.sine_bump(0.5, 0.3, 64.0), [0.5, 0.25, 0.125, 0.0625],
                 m=0.1, length=64.0, T=4.0)
    report = run_convergence_sweep(spec)
    assert report.reference == "curved_fine_grid"
    assert isinstance(report.reference_error, float)
    assert report.reference_error < min(r.error_l2 for r in report.rows) / 10.0
    assert not report.flags
    payload = report.to_json_dict()
    assert payload["reference_error"] == report.reference_error
    assert all("reference_error" not in row for row in payload["rows"])
    assert report.to_csv().splitlines()[0] == "epsilon,dt,dx,N,steps,error_l2,error_max,walltime_s"


def test_curved_reference_error_is_roundoff_off_the_ring_momenta():
    # k0 as the benchmark draws it, not a ring momentum: the packet is still
    # periodic, so the pseudo-spectral reference is exact on the walk's grid
    spec = _spec(0.0, CProfile.sine_bump(0.5, 0.3, 64.0), [0.5, 0.25], m=0.1, length=64.0, T=4.0,
                 k0=np.pi / 8 * 1.03)
    report = run_convergence_sweep(spec)
    assert report.reference == "curved_fine_grid"
    assert report.reference_error <= 1e-12


def _bump_alpha0_spec(profile, x0=32.0, w=8.0, k0=np.pi / 8 * 1.03):
    # the benchmark's curved alpha = 0 sweep, with the profile and packet open
    return ExperimentSpec(alpha=0.0, m=0.1, cprofile=profile, length=64.0, T=4.0,
                          epsilon_list=[0.5, 0.25, 0.125, 0.0625], x0=x0, w=w, k0=k0, chirality_mix=0.5)


def _framed_rows(spec):
    """Each planned row with its params, packet, comparison frame and frame-mapped initial field."""
    for params, row, _ in spec._plan():
        psi0 = make_wavepacket(row.N, params.dx, spec.x0, spec.w, spec.k0, spec.chirality_mix)
        frame = harness.comparison_frame(params, psi0.positions())
        yield params, row, psi0, frame, psi0.with_data(frame.apply_adjoint(psi0.data))


def _own_twin_errors(spec):
    """Each row's reference against its own 2x refined twin, computed row by row."""
    errors = []
    for params, row, _, _, initial in _framed_rows(spec):
        ref, twin = (resample(curved_dirac_reference(resample(initial, r * row.N), params.cprofile, params.m,
                                                     row.time_reached), row.N)
                     for r in (1, 2))
        errors.append(float(np.linalg.norm(twin.data - ref.data) / np.linalg.norm(ref.data)))
    return errors


@pytest.mark.parametrize(
    "spec, flagged",
    [
        (_bump_alpha0_spec(CProfile.sine_bump(0.5, 0.3, 64.0), w=4.0, k0=5.0), False),
        (_bump_alpha0_spec(CProfile.gaussian_well(0.9, 0.5, 32.0, 0.4)), True),
    ],
    ids=["sine_bump_k0_5", "narrow_well"],
)
def test_coarsest_row_reference_error_bounds_every_rows_twin(spec, flagged):
    # a packet near the coarse grid's Nyquist momentum, or a well narrower than
    # the coarse spacing: the coarsest row's twin is the largest of all rows'
    report = run_convergence_sweep(spec)
    own = _own_twin_errors(spec)
    assert own[0] == max(own)
    assert report.reference_error >= 1e-3
    assert report.reference_error >= max(own) - 1e-12
    # the flag compares it with the walk's smallest error, which at k0 = 5 is
    # more than ten times larger still
    smallest = min(r.error_l2 for r in report.rows)
    flag = (f"reference error {report.reference_error:.3e} exceeds smallest error/10 "
            f"({smallest / 10.0:.3e}); reference under-resolved")
    assert (flag in report.flags) is flagged
    assert (report.reference_error > smallest / 10.0) is flagged


def test_reference_error_is_measured_on_the_first_completed_row(monkeypatch):
    # a row that fails leaves the twin to the next row; later rows run none
    real_run_row, real_evolution = harness._run_row, harness._reference_evolution
    attempts, twins = [], []

    def first_row_fails(spec, params, row, kind):
        attempts.append(row.N)
        if len(attempts) == 1:
            raise RuntimeError("row failed")
        return real_run_row(spec, params, row, kind)

    def recording(params, field, t_reach, kind, n=None):
        if n is not None and n > field.n_sites:  # a propagation on a finer grid: the twin
            twins.append((field.n_sites, n))
        return real_evolution(params, field, t_reach, kind, n)

    monkeypatch.setattr(harness, "_run_row", first_row_fails)
    monkeypatch.setattr(harness, "_reference_evolution", recording)
    spec = _spec(0.0, CProfile.sine_bump(0.5, 0.3, 64.0), [0.5, 0.25, 0.125], m=0.1, length=64.0, T=4.0)
    report = run_convergence_sweep(spec)
    assert attempts == [128, 256, 512]
    assert twins == [(256, 512)]
    assert report.rows[0].failure == "RuntimeError: row failed"
    assert report.reference_error <= 1e-12


_EPS_ALPHA_HALF = [(64.0 / n) ** 2 for n in (128, 256, 512, 1024)]


def _curved_5c_spec(alpha=0.0, eps_list=(0.5, 0.25, 0.125, 0.0625), profile=CProfile.sine_bump(0.5, 0.3, 64.0)):
    # criterion 5c, the sine bump at alpha = 0 against curved_fine_grid; alpha, epsilons and profile open
    return ExperimentSpec(alpha=alpha, m=0.1, cprofile=profile,
                          length=64.0, T=4.0, epsilon_list=list(eps_list), x0=32.0, w=8.0, k0=np.pi / 8,
                          chirality_mix=0.5)


def _own_grid_errors(spec):
    """Each row's error against the curved reference propagated on the row's own grid."""
    errors = []
    for params, row, psi0, frame, initial in _framed_rows(spec):
        walked = frame.apply_adjoint(harness.evolve_walk(psi0, params, row.steps).data)
        ref = curved_dirac_reference(initial, params.cprofile, params.m, row.time_reached)
        errors.append(float(np.linalg.norm(walked - ref.data) / np.linalg.norm(ref.data)))
    return errors


def test_curved_rows_propagate_on_the_coarsest_grid_once_its_twin_is_at_the_floor(monkeypatch):
    sizes = []

    def recording(psi0, cprofile, m, T):
        sizes.append(psi0.n_sites)
        return curved_dirac_reference(psi0, cprofile, m, T)

    monkeypatch.setattr(harness, "curved_dirac_reference", recording)
    report = run_convergence_sweep(_curved_5c_spec())
    assert report.reference_error <= harness.NOISE_FLOOR
    assert [r.N for r in report.rows] == [128, 256, 512, 1024]
    # the first row's reference and its twin on the 2x grid, then one reference a row
    assert sizes == [128, 256, 128, 128, 128]
    assert [r.reference_N for r in report.rows] == [128] * 4
    assert [row["reference_N"] for row in report.to_json_dict()["rows"]] == [128] * 4
    assert "reference_N" not in report.to_csv().splitlines()[0]


def test_each_later_row_restricts_its_field_to_the_reference_grid_once(monkeypatch):
    # _reference_evolution restricts once, then both checks the round trip and propagates that field
    restrictions = []

    def recording(field, n_sites):
        if n_sites == 128 and field.n_sites > 128:
            restrictions.append(field.n_sites)
        return resample(field, n_sites)

    monkeypatch.setattr(harness, "resample", recording)
    report = run_convergence_sweep(_curved_5c_spec())
    assert [r.reference_N for r in report.rows] == [128] * 4
    # the first row's 2x twin brings its result back from 256 sites; each later row restricts once
    assert restrictions == [256, 256, 512, 1024]


@pytest.mark.parametrize(
    "spec",
    [_curved_5c_spec(), _curved_5c_spec(0.5, _EPS_ALPHA_HALF), _curved_5c_spec(eps_list=[0.4, 0.3, 0.2])],
    ids=["bump_alpha0", "bump_alpha_half", "non_integer_ratios"],
)
def test_reference_grid_moves_each_rows_error_by_roundoff_only(spec):
    report = run_convergence_sweep(spec)
    n0 = report.rows[0].N
    assert report.reference_error <= harness.NOISE_FLOOR
    assert [r.reference_N for r in report.rows] == [n0] * len(report.rows)
    own = _own_grid_errors(spec)
    assert max(abs(r.error_l2 - e) for r, e in zip(report.rows, own)) <= 1e-13


@pytest.mark.parametrize(
    "spec",
    [_bump_alpha0_spec(CProfile.gaussian_well(0.9, 0.5, 32.0, 0.4)),
     _curved_5c_spec(0.5, _EPS_ALPHA_HALF, CProfile.gaussian_well(0.9, 0.5, 32.0, 3.0))],
    ids=["narrow_well", "alpha_half_well"],
)
def test_curved_sweep_above_the_floor_keeps_each_rows_own_grid_bitwise(spec):
    # the coarsest row's twin reads 2.6e-2 and 2.8e-8: no row shares its grid, although the
    # alpha = 0.5 well's initial fields restrict to 128 sites within the floor
    report = run_convergence_sweep(spec)
    assert report.reference_error > harness.NOISE_FLOOR
    assert [r.reference_N for r in report.rows] == [r.N for r in report.rows]
    assert [r.error_l2 for r in report.rows] == _own_grid_errors(spec)


def test_row_whose_field_the_reference_grid_does_not_resolve_keeps_its_own_grid():
    # restricted to 32 sites (dx = 2) the w = 8 packet loses 1.1e-8 of its norm, above the
    # floor: the row's reference runs on its own grid, as it does with no reference grid
    spec = _curved_5c_spec()
    params, planned, _ = spec._planned[1]
    own, _, _ = harness._run_row(spec, params, planned, "curved_fine_grid")
    coarse, _, _ = harness._run_row(spec, params, replace(planned, reference_N=32), "curved_fine_grid")
    assert own.reference_N == coarse.reference_N == planned.N == 256
    assert (coarse.error_l2, coarse.error_max) == (own.error_l2, own.error_max)
    assert own.error_l2 == _own_grid_errors(spec)[1]


def test_sweep_curved_alpha_half_first_order():
    # intermediate scaling on a curved profile, against the pseudo-spectral reference
    eps_list = [(64.0 / n) ** 2 for n in (128, 256, 512, 1024)]
    spec = _spec(0.5, CProfile.sine_bump(0.5, 0.3, 64.0), eps_list, m=0.1, length=64.0, T=4.0)
    report = run_convergence_sweep(spec)
    assert report.reference == "curved_fine_grid"
    assert all(r.failure is None for r in report.rows)
    assert report.fitted_order is not None and report.fitted_order >= 0.9


def test_predicted_order_from_the_scaling():
    orders = [harness._predicted_order(a) for a in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)]
    assert orders == [None, 0.2, 0.5, 1.0, 0.5, pytest.approx(0.2), None]


def _local_orders(rows):
    return [np.log(a.error_l2 / b.error_l2) / np.log(a.epsilon / b.epsilon) for a, b in zip(rows, rows[1:])]


def test_predicted_order_flag_spares_a_converging_sweep():
    # alpha = 1/2 predicts first order; the fit sits below it by more than
    # its CI, pulled down by the coarse row, but the finest local order is
    # within 0.1 of it, so the sweep is not flagged
    spec = _spec(0.5, CProfile.constant(0.5), [(32.0 / n) ** 2 for n in (128, 256, 512)])
    report = run_convergence_sweep(spec)
    assert report.predicted_order == 1.0
    assert report.kappa_range == [32.0 / 512, 32.0 / 128]
    assert 1.0 - report.fitted_order > report.fitted_ci
    assert 0.9 < _local_orders(report.rows)[-1] < 1.0
    assert not [f for f in report.flags if "below the predicted" in f]


def test_predicted_order_flag_fires_on_a_low_finest_order(monkeypatch):
    # alpha = 1/4 converges at order ~0.4 under the cos(pi kappa) mass rule;
    # against a predicted first order its finest local order is far too low
    monkeypatch.setattr(harness, "_predicted_order", lambda alpha: 1.0)
    spec = _spec(0.25, CProfile.constant(0.5), [(64.0 / n) ** (4 / 3) for n in (256, 512, 1024, 2048)],
                 length=64.0, T=4.0)
    report = run_convergence_sweep(spec)
    local = _local_orders(report.rows)
    assert report.predicted_order == 1.0 and local[-1] < 0.5
    below = [f for f in report.flags if "below the predicted" in f]
    assert below == [
        f"local order {local[-1]:.4g} of the two finest rows is below the predicted 1 by more than 0.1"]


def test_sweep_csv_shape():
    spec = _spec(1.0, CProfile.constant(0.5), [0.2, 0.1, 0.05])
    report = run_convergence_sweep(spec)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "epsilon,dt,dx,N,steps,error_l2,error_max,walltime_s"
    assert len(lines) == 1 + len(report.rows)
    payload = report.to_json_dict()
    assert payload["reference"] == "lattice_exact"
    assert payload["crossval_gap"] is None
    assert payload["rows"][0]["N"] == 32


def test_sweep_csv_bytes_equal_the_per_value_format():
    report = run_convergence_sweep(_spec(1.0, CProfile.constant(0.5), [0.2, 0.1, 0.05]))
    report.rows[1] = replace(report.rows[1], error_l2=float("nan"), error_max=float("nan"), failure="x")
    lines = ["epsilon,dt,dx,N,steps,error_l2,error_max,walltime_s"]
    for r in report.rows:
        values = (r.epsilon, r.dt, r.dx, r.N, r.steps, r.error_l2, r.error_max, r.walltime_s)
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in values))
    assert report.to_csv() == "\n".join(lines) + "\n"
    assert "nan" in report.to_csv().splitlines()[2]


def test_report_records_its_environment(monkeypatch):
    spec = _spec(1.0, CProfile.constant(0.5), [0.2, 0.1])
    a = run_convergence_sweep(spec)
    assert a.environment == {
        "plasticwalk": plasticwalk.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": a.environment["blas"],
        "commit": harness._git_commit(harness._CHECKOUT),
    }
    assert isinstance(a.environment["blas"], str) and a.environment["blas"]
    payload = a.to_json_dict()
    assert payload["environment"] == a.environment
    assert payload["code_version"] == plasticwalk.__version__
    assert a.to_csv().splitlines()[0] == "epsilon,dt,dx,N,steps,error_l2,error_max,walltime_s"
    assert "environment" not in spec.canonical_dict()

    # read once per process: a second report does not ask NumPy again, and gets its own copy
    def no_second_read(**kwargs):
        raise AssertionError("environment read twice")

    monkeypatch.setattr(np, "show_config", no_second_read)
    b = run_convergence_sweep(spec)
    assert b.environment == a.environment and b.environment is not a.environment
    assert b.spec_hash == a.spec_hash


def test_environment_commit_stays_out_of_the_spec_hash(monkeypatch):
    spec = _spec(1.0, CProfile.constant(0.5), [0.2, 0.1])
    a = run_convergence_sweep(spec)
    assert "commit" in a.to_json_dict()["environment"]
    monkeypatch.setattr(harness, "_git_commit", lambda checkout: "0" * 40)
    harness._environment.cache_clear()
    try:
        b = run_convergence_sweep(spec)
    finally:
        harness._environment.cache_clear()
    assert b.environment["commit"] == "0" * 40
    assert b.spec_hash == a.spec_hash


def test_git_commit_read_from_the_checkout_files(tmp_path):
    sha, other = "1" * 40, "2" * 40
    assert harness._git_commit(tmp_path) is None  # not a git checkout
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert harness._git_commit(tmp_path) is None  # unborn branch
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{other} refs/heads/mainline\n{sha} refs/heads/main\n")
    assert harness._git_commit(tmp_path) == sha
    (git / "refs" / "heads" / "main").write_text(other + "\n")  # a loose ref wins over packed-refs
    assert harness._git_commit(tmp_path) == other
    (git / "HEAD").write_text(sha + "\n")  # detached
    assert harness._git_commit(tmp_path) == sha


def test_environment_blas_unknown_without_config_dicts(monkeypatch):
    def old_show_config():  # NumPy < 1.25 takes no mode argument
        return None

    monkeypatch.setattr(np, "show_config", old_show_config)
    harness._environment.cache_clear()
    try:
        assert dict(harness._environment())["blas"] == "unknown"
    finally:
        harness._environment.cache_clear()


@pytest.mark.parametrize(
    "field, value",
    [("T", -1.0), ("T", 0.0), ("T", float("nan")), ("T", float("inf")),
     ("length", 0.0), ("length", -32.0), ("length", float("inf"))],
)
def test_spec_refuses_a_time_or_length_that_is_not_finite_and_positive(field, value):
    # a nonpositive T used to pass every row at t = 2 epsilon, a nonpositive
    # length failed every row, and T = NaN raised a bare ValueError
    kwargs = {"length": 32.0, "T": 2.0, field: value}
    with pytest.raises(DomainError, match=f"{field} must be finite and positive"):
        _spec(0.5, CProfile.constant(0.5), [0.25, 0.0625, 0.015625], **kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("m", float("nan")), ("m", float("inf")), ("x0", float("nan")), ("x0", float("inf")),
     ("w", float("inf")), ("w", float("nan")), ("w", 0.0), ("k0", float("nan")), ("k0", -float("inf"))],
)
def test_spec_refuses_non_finite_physics_inputs(field, value):
    # m = NaN and a NaN x0 or k0 used to fail every row with non-finite
    # amplitudes, and w = inf ran to completion
    kwargs = dict(alpha=0.5, m=0.2, cprofile=CProfile.constant(0.5), length=32.0, T=2.0,
                  epsilon_list=[0.25, 0.0625], x0=16.0, w=4.0, k0=0.4)
    kwargs[field] = value
    with pytest.raises(DomainError, match="must be finite"):
        ExperimentSpec(**kwargs)
    if field == "m":
        with pytest.raises(DomainError, match="must be finite"):
            ScalingParams(m=value, cprofile=kwargs["cprofile"], epsilon=0.25, alpha=0.5)


def test_spec_validation():
    with pytest.raises(DomainError):
        _spec(1.5, CProfile.constant(0.5), [0.1])
    with pytest.raises(DomainError):
        _spec(1.0, CProfile.constant(0.5), [0.05, 0.1])  # ascending
    with pytest.raises(DomainError):
        ExperimentSpec(
            alpha=1.0, m=0.1, cprofile=CProfile.constant(0.5), length=32.0, T=1.0,
            epsilon_list=[0.1], x0=0.0, w=8.0, k0=0.0, reference="bogus",
        )
    with pytest.raises(DomainError):  # the continuum propagator needs a constant speed
        _spec(0.0, CProfile.sine_bump(0.5, 0.3, 32.0), [0.5], reference="dirac_momentum")
    with pytest.raises(DomainError):  # at alpha = 1 the limit is the lattice, not the continuum
        _spec(1.0, CProfile.constant(0.5), [0.2, 0.1, 0.05], reference="dirac_momentum")
    with pytest.raises(DomainError, match="'lattice_exact'"):  # nor the curved continuum
        _spec(1.0, CProfile.sine_bump(0.5, 0.3, 32.0), [0.2, 0.1, 0.05], reference="curved_fine_grid")
    with pytest.raises(DomainError, match="'dirac_momentum'"):  # below alpha = 1 the grid refines
        _spec(0.5, CProfile.constant(0.5), [0.25, 0.0625], reference="lattice_exact")
    with pytest.raises(DomainError, match="'dirac_momentum'"):  # a flat speed has the flat limit
        _spec(0.5, CProfile.constant(0.5), [0.25, 0.0625], reference="curved_fine_grid")
    with pytest.raises(DomainError):  # the mass rule of ScalingParams
        _spec(1.0, CProfile.constant(0.5), [0.2, 0.1, 0.05], m=-0.1)
    with pytest.raises(DomainError):
        ExperimentSpec(
            alpha=1.0, m=0.1, cprofile=CProfile.constant(0.5), length=32.0, T=1.0,
            epsilon_list=[0.1], x0=16.0, w=8.0, k0=0.0, chirality_mix=1.5,
        )
    with pytest.raises(DomainError):  # equal entries
        _spec(1.0, CProfile.constant(0.5), [0.1, 0.1, 0.05])
    with pytest.raises(DomainError):  # 0.1 and 0.0999 snap to one grid (N = 101)
        _spec(0.5, CProfile.constant(0.5), [0.1, 0.0999, 0.05])
    with pytest.raises(DomainError):  # epsilon above 1 that would snap back inside (0, 1]
        _spec(0.5, CProfile.constant(0.5), [1.01, 0.5, 0.25])
    with pytest.raises(DomainError):  # c * kappa = 1 with m > 0: every coin is singular
        _spec(0.0, CProfile.constant(1.0), [0.5, 0.25, 0.125], m=0.1)
    with pytest.raises(DomainError):  # c * kappa > 1 has no coin angle, massless or not
        _spec(1.0, CProfile.from_function(lambda t, x: 1.2 + 0.0 * x, static=True), [0.2, 0.1], m=0.0)
    # without mass c * kappa = 1 is a bare swap, which the walk can step
    _spec(0.0, CProfile.constant(1.0), [0.5, 0.25, 0.125], m=0.0)
    with pytest.raises(DomainError):  # the pseudo-spectral reference needs a periodic speed
        _spec(0.5, CProfile.sine_bump(0.5, 0.3, 48.0), [0.25, 0.0625], length=64.0)


def test_derived_reference_name_equals_auto():
    eps_list = [(32.0 / n) ** 2 for n in (64, 128, 256)]
    auto = run_convergence_sweep(_spec(0.5, CProfile.constant(0.6), eps_list))
    named = run_convergence_sweep(_spec(0.5, CProfile.constant(0.6), eps_list, reference="dirac_momentum"))
    assert auto.reference == named.reference == "dirac_momentum"
    assert [r.error_l2 for r in auto.rows] == [r.error_l2 for r in named.rows]
    assert [r.error_max for r in auto.rows] == [r.error_max for r in named.rows]
    assert (auto.fitted_order, auto.fitted_ci, auto.flags, auto.spec_hash) == (
        named.fitted_order, named.fitted_ci, named.flags, named.spec_hash
    )


def test_spec_refuses_time_dependent_profile():
    # every reference and the comparison frame freeze c at t = 0
    breathing = CProfile.from_function(lambda t, x: 0.5 + 0.3 * np.sin(0.8 * t) + 0.0 * x)
    for alpha in (1.0, 0.5, 0.0):
        with pytest.raises(DomainError, match="not static"):
            _spec(alpha, breathing, [0.2, 0.1, 0.05])
    # the same callable shape, declared static because it ignores t, is swept
    frozen = CProfile.from_function(lambda t, x: 0.5 + 0.3 * np.sin(2 * np.pi * x / 32.0), static=True)
    assert _spec(1.0, frozen, [0.2, 0.1, 0.05]).resolved_reference() == "lattice_exact"


def test_spec_refuses_a_profile_the_sites_leave():
    # the walk samples c at the sites (its mixing powers) as well as at the
    # crossings (its coins); a value that only a site sees is refused by the
    # spec, not by every row that would step it
    spike = CProfile.from_function(lambda t, x: np.where(x == 2.0, 1.5, 0.5), static=True)
    with pytest.raises(DomainError, match=r"c\(0\.0, 2\.0\)"):
        _spec(1.0, spike, [0.2, 0.1, 0.05])


def test_rows_split_their_walltime():
    spec = _spec(1.0, CProfile.constant(0.5), [0.2, 0.1, 0.05])
    report = run_convergence_sweep(spec)
    for row in report.rows:
        parts = (row.walk_s, row.frame_s, row.reference_s)
        assert all(s > 0.0 for s in parts)
        assert sum(parts) <= row.walltime_s
        assert row.norm_drift <= 1e-12
    payload = report.to_json_dict()["rows"][0]
    assert {"walk_s", "frame_s", "reference_s", "norm_drift"} <= set(payload)
    assert report.to_csv().splitlines()[0] == "epsilon,dt,dx,N,steps,error_l2,error_max,walltime_s"


def test_failed_row_keeps_its_grid_and_frame():
    # a packet narrower than 4 dx on every grid: every row fails to build it
    spec = ExperimentSpec(
        alpha=0.0, m=0.1, cprofile=CProfile.constant(0.5), length=32.0, T=2.0,
        epsilon_list=[0.5, 0.25, 0.125], x0=16.0, w=0.4, k0=float(np.pi / 8),
    )
    report = run_convergence_sweep(spec)
    assert all(r.failure and r.failure.startswith("ResolutionError") for r in report.rows)
    assert [(r.N, r.steps) for r in report.rows] == [(64, 2), (128, 4), (256, 8)]
    assert report.frame == "polarization-rotation"
    assert report.fitted_order is None and not report.exact
    assert report.crossval_gap is None  # with no completed row neither reference gate has a value
    assert [(c["name"], c["passed"], c["detail"]) for c in report.checks] == [
        ("rows_completed", False, "0/3 rows"), ("monotone_errors", True, ""),
        ("reference_cross_validation", True, ""), ("reference_resolution", True, "")]
    rows = report.to_json_dict()["rows"]
    assert [r["epsilon"] for r in rows] == [0.5, 0.25, 0.125]
    assert all(np.isnan(r["error_l2"]) for r in rows)


def test_grid_admits_the_site_budget_and_refuses_one_site_more():
    # alpha = 1 fixes dx = 1, so the length is the site count; a flat coin is sampled at one crossing
    flat = CProfile.constant(0.5)
    assert harness._grid(0.2, flat, 1.0, float(harness.SITE_BUDGET), 1.0, 0.05)[1] == harness.SITE_BUDGET
    with pytest.raises(plasticwalk.BudgetError, match="the site budget"):
        harness._grid(0.2, flat, 1.0, float(harness.SITE_BUDGET + 1), 1.0, 0.05)


def test_spec_refuses_a_sweep_only_when_every_reference_is_over_the_term_budget(monkeypatch):
    # alpha = 1 fixes dx = 1, so both rows propagate one lattice, whose Gershgorin bound is
    # (0.5 + 0.5) / 2 + 0.2 = 0.7: to t = 1 at epsilon 0.5 and to t = 0.5 at epsilon 0.25
    from plasticwalk import hamiltonians

    flat = CProfile.constant(0.5)
    monkeypatch.setattr(hamiltonians, "_CHEBYSHEV_BUDGET", 0.75 * 0.7)  # only the finer row fits
    spec = _spec(1.0, flat, [0.5, 0.25], T=0.5)
    assert [row.time_reached for _, row, _ in spec._planned] == [1.0, 0.5]
    rows = run_convergence_sweep(spec).rows
    assert "the term budget" in rows[0].failure and rows[1].failure is None
    monkeypatch.setattr(hamiltonians, "_CHEBYSHEV_BUDGET", 0.25 * 0.7)
    with pytest.raises(plasticwalk.BudgetError, match="the term budget"):
        _spec(1.0, flat, [0.5, 0.25], T=0.5)


@pytest.mark.parametrize(
    "profile, refused, admitted",
    [
        # the coarsest row (dx 0.5, t 2) runs 2 (0.8 pi / 0.5 + 0.2) = 10.5 terms, its 2x twin 20.5
        (CProfile.sine_bump(0.5, 0.3, 32.0), 15.0, 25.0),
        # the rows run no series; the cross-validation's 8x lattice runs 2 (1 / (2 / 16) + 0.2) = 16.4 terms
        (CProfile.constant(0.5), 10.0, 20.0),
    ],
    ids=["curved-twin", "flat-cross-validation"],
)
def test_spec_refuses_a_sweep_whose_coarsest_row_extra_propagation_is_over_the_term_budget(
    monkeypatch, profile, refused, admitted
):
    from plasticwalk import hamiltonians

    monkeypatch.setattr(hamiltonians, "_CHEBYSHEV_BUDGET", refused)
    with pytest.raises(plasticwalk.BudgetError, match="the term budget"):
        _spec(0.0, profile, [0.5, 0.25])
    monkeypatch.setattr(hamiltonians, "_CHEBYSHEV_BUDGET", admitted)
    _spec(0.0, profile, [0.5, 0.25])


def test_a_twin_past_the_term_budget_fails_its_check_not_its_row(monkeypatch):
    # the 32-site row fails on its packet (w < 4 dx), so the twin runs on the 64-site row:
    # to t = 1 at dx / 2 = 0.125 it runs 0.8 pi / 0.125 + 0.1 = 20.2 terms, past the budget of 15, where the
    # row's own reference runs 10.2
    from plasticwalk import hamiltonians

    monkeypatch.setattr(hamiltonians, "_CHEBYSHEV_BUDGET", 15)
    spec = ExperimentSpec(alpha=0.0, m=0.1, cprofile=CProfile.sine_bump(0.5, 0.3, 16.0), length=16.0, T=1.0,
                          epsilon_list=[0.5, 0.25, 0.125], x0=8.0, w=1.5, k0=0.3)
    report = run_convergence_sweep(spec)
    assert [r.N for r in report.rows] == [32, 64, 128]
    assert "ResolutionError" in report.rows[0].failure
    assert report.rows[1].failure is None and abs(report.rows[1].error_l2 - 0.0431) < 5e-4
    assert report.reference_error is None
    checks = {c["name"]: c for c in report.checks}
    assert [c["name"] for c in report.checks if not c["passed"]] == ["rows_completed", "reference_resolution"]
    detail = checks["reference_resolution"]["detail"]
    assert detail.startswith("BudgetError") and "the term budget" in detail
    assert f"reference 2x twin could not run: {detail}; sweep flagged invalid" in report.flags


def test_a_flat_continuum_sweep_is_not_refused_by_the_term_budget():
    # alpha = 0.5 on a flat profile propagates each ring momentum in closed form and
    # cross-validates nothing, so it runs no Chebyshev series: m = 1e300 runs every row
    spec = ExperimentSpec(alpha=0.5, m=1e300, cprofile=CProfile.constant(0.5), length=8.0, T=0.5,
                          epsilon_list=[0.25, 0.125], x0=4.0, w=2.0, k0=0.0)
    report = run_convergence_sweep(spec)
    assert report.reference == "dirac_momentum" and report.crossval_gap is None
    assert [row.failure for row in report.rows] == [None, None]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("profile", [CProfile.gaussian_well(0.8, 0.3, 32.0, 8.0), CProfile.constant(0.5)],
                         ids=["gaussian-well", "flat"])
def test_grid_checks_the_coins_the_walk_builds(monkeypatch, profile, alpha):
    # below alpha = 1 the ring has 300 sites, dx ~ 64/300, where (j + 0.5) dx and j dx + dx/2 differ
    from plasticwalk import walk

    seen = {}
    for module in (harness, walk):
        def record(params, t, xs, module=module, real=module.derive_angle_arrays):
            seen.setdefault(module, np.array(xs, copy=True))
            return real(params, t, xs)

        monkeypatch.setattr(module, "derive_angle_arrays", record)
    eps = 0.5 if alpha == 1.0 else (64.0 / 300) ** (1.0 / (1.0 - alpha))
    params, n, _, _, _ = harness._grid(0.2, profile, alpha, 64.0, 1.0, eps)
    assert n == (64 if alpha == 1.0 else 300)
    harness.evolve_walk(make_wavepacket(n, params.dx, 32.0, 8.0, 0.3), params, 1)
    assert np.array_equal(seen[harness], seen[walk])


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_zero_momentum_massless():
    params = ScalingParams(m=0.0, cprofile=CProfile.constant(0.7), epsilon=0.01, alpha=1.0)
    table = dispersion_scan(params, 16)
    i0 = int(np.argmin(np.abs(table.ks)))
    assert abs(table.lattice_energy[i0]) <= 1e-14
    assert abs(table.continuum_energy[i0]) <= 1e-14
    np.testing.assert_allclose(table.walk_phases[i0], [0.0, 0.0], atol=1e-13)


def test_dispersion_doubling_exhibit():
    params = ScalingParams(m=0.0, cprofile=CProfile.constant(1.0), epsilon=0.01, alpha=1.0)
    table = dispersion_scan(params, 32)
    edge = int(np.argmin(np.abs(table.ks + np.pi / params.dx)))
    assert table.lattice_energy[edge] <= 1e-12
    assert table.continuum_energy[edge] == pytest.approx(np.pi / params.dx, rel=1e-12)


def test_dispersion_phase_residual_quadratic_with_bounded_constant():
    c, m = 0.5, 0.2
    eps_seq = [0.008, 0.004, 0.002, 0.001]
    resid = []
    for eps in eps_seq:
        params = ScalingParams(m=m, cprofile=CProfile.constant(c), epsilon=eps, alpha=1.0)
        table = dispersion_scan(params, 32)
        target = np.stack(
            [-2 * eps * table.lattice_energy, 2 * eps * table.lattice_energy], axis=1
        )
        resid.append(float(np.max(np.abs(table.walk_phases - target))))
    slope = np.polyfit(np.log(eps_seq), np.log(resid), 1)[0]
    assert slope >= 1.8
    assert resid[-1] / eps_seq[-1] ** 2 <= 10.0 * (c ** 2 + m ** 2)


@pytest.mark.parametrize("k_count", [0, -3])
def test_dispersion_scan_refuses_fewer_than_one_momentum(k_count):
    params = ScalingParams(m=0.1, cprofile=CProfile.constant(0.5), epsilon=0.05, alpha=1.0)
    with pytest.raises(DomainError, match="k_count"):
        dispersion_scan(params, k_count)


def test_dispersion_csv():
    params = ScalingParams(m=0.1, cprofile=CProfile.constant(0.5), epsilon=0.05, alpha=1.0)
    table = dispersion_scan(params, 8)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "k,walk_phase_minus,walk_phase_plus,lattice_energy,continuum_energy"
    assert len(lines) == 9


@pytest.mark.parametrize("c, m", [(1.0, 0.0), (0.5, 0.2), (0.8, 1.0)])
def test_dispersion_csv_bytes_equal_the_per_value_format(c, m):
    # criterion 4's scans: the array formatter writes the bytes of f"{v:.17g}" on each value
    params = ScalingParams(m=m, cprofile=CProfile.constant(c), epsilon=0.01, alpha=1.0)
    table = dispersion_scan(params, 64)
    lines = ["k,walk_phase_minus,walk_phase_plus,lattice_energy,continuum_energy"]
    for i, k in enumerate(table.ks):
        values = (k, *table.walk_phases[i], table.lattice_energy[i], table.continuum_energy[i])
        lines.append(",".join(f"{v:.17g}" for v in values))
    assert table.to_csv() == "\n".join(lines) + "\n"


def _mode_frame_residual(alpha, c, m, eps, length, T, k_band=None):
    """Max over ring momenta of |W(k)^n - G(k) exp(-i H(k) T) G(k)^dag|.

    For alpha < 1 the continuum reference can only be matched on a fixed
    momentum band (smooth-field content): at the zone edge the lattice
    dispersion deviates from c*k at order one, which is the doubling
    phenomenon, not a frame defect. alpha = 1 compares against the lattice
    generator and is certified over the whole zone.
    """
    from plasticwalk import comparison_frame, momentum_block
    from plasticwalk.hamiltonians import dirac_block

    params = ScalingParams(m=m, cprofile=CProfile.constant(c), epsilon=eps, alpha=alpha)
    n = int(round(length / params.dx))
    steps = int(round(T / (2 * eps)))
    t_reach = 2 * eps * steps
    frame = comparison_frame(params, np.arange(n) * params.dx)
    pw = np.array([e[0] for e in frame.adjoint]).reshape(2, 2).conj().T  # homogeneous: the same G at every site
    worst = 0.0
    ks = 2 * np.pi * np.fft.fftfreq(n, d=params.dx)
    if k_band is not None:
        ks = ks[np.abs(ks) <= k_band]
    for k in ks:
        wn = np.linalg.matrix_power(momentum_block(params, float(k)), steps)
        if alpha == 1.0:
            e_lat = np.sqrt((c * np.sin(k * params.dx) / params.dx) ** 2 + m ** 2)
            h = np.array(
                [[-m, 0], [0, m]], dtype=complex
            ) + (c * np.sin(k * params.dx) / params.dx) * np.array([[0, 1], [1, 0]])
            w_ref, v_ref = np.linalg.eigh(h)
            u_ref = (v_ref * np.exp(-1j * w_ref * t_reach)) @ v_ref.conj().T
        else:
            u_ref = dirac_block(float(k), c, m, t_reach)
        g = pw.copy()
        if frame.with_encoding:
            g = g @ np.diag([np.exp(1j * k * params.dx), 1.0])
        worst = max(worst, float(np.max(np.abs(wn - g @ u_ref @ g.conj().T))))
    return worst


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0])
def test_frame_certifies_modes(alpha):
    # basis-independent: the framed reference matches the stepped walk block
    # mode by mode, shrinking with epsilon (whole zone at alpha = 1, a fixed
    # smooth-field band for the continuum references)
    length, T, c, m = 32.0, 2.0, 0.5, 0.2
    if alpha == 1.0:
        eps_pair, band = [0.1, 0.05], None
    elif alpha == 0.5:
        eps_pair, band = [(length / n) ** 2 for n in (256, 512)], 2.0
    else:
        eps_pair, band = [0.125, 0.0625], 2.0
    r_coarse = _mode_frame_residual(alpha, c, m, eps_pair[0], length, T, band)
    r_fine = _mode_frame_residual(alpha, c, m, eps_pair[1], length, T, band)
    assert r_fine < r_coarse
    assert r_fine < 0.2
    assert r_fine / r_coarse < 0.75  # genuinely shrinking, not a plateau


def test_raw_comparison_plateaus_without_frame():
    # pins the need for the comparison frame: removing it leaves an
    # epsilon-independent error floor in the lattice-limit comparison
    from plasticwalk import evolve_walk, lattice_hamiltonian_flat, evolve_exact

    length, T, c, m = 32.0, 2.0, 0.5, 0.2
    raw_errors = []
    for eps in (0.1, 0.025):
        params = ScalingParams(m=m, cprofile=CProfile.constant(c), epsilon=eps, alpha=1.0)
        n = int(round(length))
        psi0 = make_wavepacket(n, 1.0, length / 2, 4.0, np.pi / 8, 0.5)
        steps = int(round(T / (2 * eps)))
        walked = evolve_walk(psi0, params, steps)
        h = lattice_hamiltonian_flat(n, 1.0, m, c)
        ref = evolve_exact(h, psi0, 2 * eps * steps)
        raw_errors.append(float(np.linalg.norm(walked.data - ref.data)))
    assert raw_errors[1] > 0.1  # does not converge
    assert raw_errors[1] > 0.5 * raw_errors[0]  # no first-order decay
