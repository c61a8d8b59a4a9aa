"""Field containers and speed profiles."""

import math

import numpy as np
import pytest

from plasticwalk import CProfile, DomainError, ScalingParams, SpinorField


def test_field_validation():
    with pytest.raises(DomainError):
        SpinorField(np.zeros((1, 2)), 1.0)
    with pytest.raises(DomainError):
        SpinorField(np.zeros((4, 3)), 1.0)
    with pytest.raises(DomainError):
        SpinorField(np.zeros((4, 2)), -1.0)
    bad = np.zeros((4, 2), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(DomainError):
        SpinorField(bad, 1.0)


def test_field_accessors():
    data = np.arange(8, dtype=float).reshape(4, 2) + 0j
    f = SpinorField(data, 0.5)
    assert f.n_sites == 4
    assert f.length == 2.0
    assert f.norm_sq() == pytest.approx(np.sum(np.abs(data) ** 2))
    np.testing.assert_allclose(f.density(), np.sum(np.abs(data) ** 2, axis=1))


def test_profile_constant():
    p = CProfile.constant(0.4)
    assert p.homogeneous
    assert p(0.0, 123.0) == 0.4
    with pytest.raises(DomainError):
        CProfile.constant(1.2)


def test_profile_sine_bump_range_check():
    with pytest.raises(DomainError):
        CProfile.sine_bump(0.9, 0.3, 16.0)
    for length in (0.0, -16.0, float("nan")):
        with pytest.raises(DomainError, match="length must be positive"):
            CProfile.sine_bump(0.5, 0.3, length)
    p = CProfile.sine_bump(0.5, 0.3, 16.0)
    assert not p.homogeneous
    xs = np.linspace(0, 16, 33)
    cs = p.sample(0.0, xs)
    assert cs.min() >= 0.0 and cs.max() <= 1.0


def test_profile_gaussian_well():
    p = CProfile.gaussian_well(0.8, 0.3, center=8.0, width=2.0)
    assert p(0.0, 8.0) == pytest.approx(0.5)
    assert p(0.0, 0.0) == pytest.approx(0.8, abs=1e-3)
    with pytest.raises(DomainError):
        CProfile.gaussian_well(0.2, 0.5, 8.0, 2.0)
    # a well of no width used to be flat wherever no site hits its center
    for width in (0.0, -2.0, float("nan")):
        with pytest.raises(DomainError, match="width must be positive"):
            CProfile.gaussian_well(0.8, 0.3, 8.0, width)


def test_profile_out_of_range_at_sample_time():
    p = CProfile.from_function(lambda t, x: 0.5 + x)
    with pytest.raises(DomainError):
        p(0.0, 10.0)
    with pytest.raises(DomainError):
        p.sample(0.0, np.array([0.0, 10.0]))
    # one range check, through sample, refuses a non-finite value at a point and on an array
    for bad in (float("nan"), float("inf")):
        p = CProfile.from_function(lambda t, x: np.where(x > 1.0, bad, 0.5))
        assert p(0.0, 0.0) == 0.5
        with pytest.raises(DomainError, match="outside"):
            p(0.0, 2.0)
        with pytest.raises(DomainError, match="outside"):
            p.sample(0.0, np.array([0.0, 2.0]))


def test_profile_static_flags():
    assert CProfile.constant(0.4).static
    assert CProfile.sine_bump(0.5, 0.3, 16.0).static
    assert CProfile.gaussian_well(0.8, 0.3, center=8.0, width=2.0).static
    assert not CProfile.from_function(lambda t, x: 0.5 + 0.1 * np.sin(t)).static
    assert CProfile.from_function(lambda t, x: 0.5 + 0.0 * x, static=True).static
    # homogeneous means uniform in x and static in t
    assert CProfile(fn=lambda t, x: 0.5, homogeneous=True).static


def test_profile_sample_scalar_only_callable():
    # math.sin refuses an array: sample falls back to one call per point
    xs = np.linspace(0.0, 20.0, 201)
    scalar = CProfile.from_function(lambda t, x: 0.5 + 0.1 * math.sin(x)).sample(0.0, xs)
    vector = CProfile.from_function(lambda t, x: 0.5 + 0.1 * np.sin(x)).sample(0.0, xs)
    assert np.array_equal(scalar, vector)
    with pytest.raises(DomainError):  # the one range check covers the fallback too
        CProfile.from_function(lambda t, x: 0.5 + math.sin(x)).sample(0.0, xs)


def test_profile_sample_constant_callable_broadcasts():
    calls = []

    def fn(t, x):
        calls.append(x)
        return 0.5

    xs = np.linspace(0.0, 20.0, 201)
    cs = CProfile.from_function(fn).sample(0.0, xs)
    assert len(calls) == 1  # one array call, no per-point loop
    assert cs.shape == xs.shape and np.array_equal(cs, np.full(xs.shape, 0.5))
    assert np.array_equal(CProfile.constant(0.5).sample(0.0, xs), cs)


def test_scaling_params_derived_quantities():
    sp = ScalingParams(m=0.1, cprofile=CProfile.constant(0.5), epsilon=0.04, alpha=0.5)
    assert sp.dt == 0.04
    assert sp.dx == pytest.approx(0.2)
    assert sp.kappa == pytest.approx(0.2)
    with pytest.raises(DomainError):
        ScalingParams(m=-0.1, cprofile=CProfile.constant(0.5), epsilon=0.1, alpha=0.5)
    with pytest.raises(DomainError):
        ScalingParams(m=0.1, cprofile=CProfile.constant(0.5), epsilon=1.5, alpha=0.5)
    with pytest.raises(DomainError):
        ScalingParams(m=0.1, cprofile=CProfile.constant(0.5), epsilon=0.1, alpha=1.5)
