"""Tests for path generation, phase tracking, Maslov lifting and the suite."""

import json

import numpy as np
import pytest
import scipy.linalg

from spcausal import (
    CausalPath,
    ConeStatus,
    cone_status,
    geodesic_path,
    is_positively_elliptic,
    is_symplectic,
    mu_along_path,
    mu_elliptic,
    random_causal_path,
    random_cone_element,
    random_elliptic,
    random_elliptic_banded,
    random_symplectic,
    random_torus_pair,
    standard_J,
    track_phases,
    verify_suite,
)


# -- generators -------------------------------------------------------------

def test_random_cone_element_interior_and_deterministic():
    for seed in range(20):
        X = random_cone_element(seed, 2)
        assert cone_status(X) is ConeStatus.INTERIOR
        np.testing.assert_array_equal(X, random_cone_element(seed, 2))


def test_random_cone_element_rejects_scale():
    with pytest.raises(ValueError):
        random_cone_element(0, 1, scale=0.0)


def test_random_symplectic_is_symplectic():
    for seed in range(10):
        W = random_symplectic(seed, 3, scale=0.5)
        assert is_symplectic(W, tol=1e-9)


def test_random_elliptic_is_elliptic():
    for seed in range(20):
        for n in (1, 2, 3):
            assert is_positively_elliptic(random_elliptic(seed, n))


def test_random_elliptic_banded_angles():
    from spcausal import elliptic_angles
    for seed in range(10):
        th = elliptic_angles(random_elliptic_banded(seed, 3, lo=0.5, hi=2.5))
        assert np.all(th >= 0.5 - 1e-9) and np.all(th <= 2.5 + 1e-9)


def test_random_torus_pair_commutes():
    W0, X, angles, speeds = random_torus_pair(3, 3)
    np.testing.assert_allclose(W0 @ X, X @ W0, atol=1e-10)
    assert cone_status(X) is ConeStatus.INTERIOR
    assert is_positively_elliptic(W0)


# -- paths ------------------------------------------------------------------

def test_geodesic_path_half_turn():
    W0 = random_symplectic(5, 1, scale=0.3)
    path = geodesic_path(np.pi * standard_J(1), W0, 0.0, 1.0, 8)
    np.testing.assert_allclose(path.endpoint, -W0, atol=1e-10)
    path.validate()


def test_random_causal_path_invariants():
    for seed in range(5):
        path = random_causal_path(seed, 2, steps=12, step_size=0.05)
        path.validate()
        assert path.steps == 12
        assert len(path.matrices) == 13
        # determinism
        other = random_causal_path(seed, 2, steps=12, step_size=0.05)
        np.testing.assert_array_equal(path.endpoint, other.endpoint)


def test_confined_path_stays_elliptic():
    for seed in range(5):
        W0 = random_elliptic_banded(seed, 2, lo=0.3, hi=1.8)
        path = random_causal_path(
            seed, 2, steps=20, W_start=W0, step_size=0.1, confine=True
        )
        for W in path.matrices:
            assert is_positively_elliptic(W)


def test_confined_path_halves_near_boundary():
    # start close to the boundary: full steps must be rejected at least once
    W0 = scipy.linalg.expm((np.pi - 0.05) * standard_J(1))
    path = random_causal_path(
        1, 1, steps=3, W_start=W0, step_size=0.2, confine=True
    )
    assert np.all(np.diff(path.grid) <= 0.2 + 1e-15)
    assert np.min(np.diff(path.grid)) < 0.2


# -- phase tracking ---------------------------------------------------------

def test_track_phases_rotation():
    path = geodesic_path(standard_J(1), np.eye(2), 0.05, 0.9 * np.pi, 32)
    track = track_phases(path)
    np.testing.assert_allclose(track.plus[:, 0], path.grid, atol=1e-9)
    np.testing.assert_allclose(track.minus[:, 0], -path.grid, atol=1e-9)
    assert not np.any(track.off_circle)


def test_track_phases_constant_path():
    W = random_elliptic(9, 2, margin=0.3)
    path = CausalPath(grid=np.array([0.0]), tangents=(), matrices=(W,))
    track = track_phases(path)
    assert track.plus.shape == (1, 2)
    assert np.all(np.isfinite(track.plus))


def test_track_phases_crossing_recorded():
    # rotation through -1: the Krein-positive phase crosses pi
    path = geodesic_path(standard_J(1), scipy.linalg.expm(0.3 * standard_J(1)),
                         0.0, np.pi, 16)
    track = track_phases(path)
    assert any(abs(val - np.pi) < 1e-12 and lab == "+"
               for _, lab, val in track.crossings)


# -- Maslov lifting ---------------------------------------------------------

def test_mu_lift_full_rotation():
    path = geodesic_path(standard_J(1), np.eye(2), 0.0, 2 * np.pi, 64)
    mu = mu_along_path(path)
    np.testing.assert_allclose(mu, path.grid / (2 * np.pi), atol=1e-8)
    # passes 1/2 at t = pi (the eigenvalue -1 crossing)
    assert abs(mu[32] - 0.5) < 1e-8


def test_mu_lift_matches_closed_form():
    for seed in range(10):
        path = random_causal_path(seed, 1, steps=20, step_size=0.05, confine=True)
        mu = mu_along_path(path, start=0.0)
        assert abs(mu[-1] - mu_elliptic(path.endpoint)) < 1e-6


def test_mu_lift_reversed_path():
    path = geodesic_path(standard_J(1), np.eye(2), 0.0, 1.5, 16)
    mu = mu_along_path(path)
    rev = CausalPath(
        grid=path.grid,
        tangents=tuple(-X for X in path.tangents[::-1]),
        matrices=path.matrices[::-1],
    )
    mu_rev = mu_along_path(rev)
    np.testing.assert_allclose(np.diff(mu_rev), -np.diff(mu)[::-1], atol=1e-9)


# -- suite ------------------------------------------------------------------

def test_verify_suite_passes():
    report = verify_suite(42, 1, 10)
    assert report["all_passed"]
    assert report["provenance"]["seed"] == 42
    names = set(report["properties"])
    assert {"tau_monotone", "phase_monotone", "endpoint_connect",
            "broken_geodesic_max", "exit_times", "angle_complement",
            "diamond_bounded", "closed_timelike_loop",
            "quasimorphism_defect"} <= names


def test_verify_suite_deterministic():
    report = verify_suite(7, 2, 5)
    assert report["all_passed"]
    a = json.dumps(report, sort_keys=True)
    b = json.dumps(verify_suite(7, 2, 5), sort_keys=True)
    assert a == b


def test_verify_suite_rejects_zero_trials():
    with pytest.raises(ValueError):
        verify_suite(0, 1, 0)
