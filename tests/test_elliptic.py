"""Tests for the positively elliptic region: membership, splitting, log,
time function, Maslov value and the -W^{-1} involution."""

import numpy as np
import pytest
import scipy.linalg

from spcausal import (
    ConeStatus,
    block_rotation,
    block_rotation_generator,
    cone_status,
    dist_formula,
    elliptic_angles,
    elliptic_splitting,
    is_positively_elliptic,
    log_elliptic,
    minus_inverse,
    mu_elliptic,
    omega_matrix,
    random_cone_element,
    random_elliptic,
    random_symplectic,
    standard_J,
    symplectic_inverse,
    tau,
)
from spcausal.elliptic import _check_from_spectrum
from spcausal.exceptions import IllConditionedWarning, NotEllipticError
from spcausal.krein import krein_spectrum


def rot(theta, n=1):
    return scipy.linalg.expm(theta * standard_J(n))


# -- membership -------------------------------------------------------------

def test_membership_rotation():
    assert is_positively_elliptic(rot(np.pi / 3))


def test_membership_hyperbolic():
    chk = is_positively_elliptic(np.diag([2.0, 0.5]))
    assert not chk
    assert chk.reason == "off-circle eigenvalue"


def test_membership_minus_id():
    chk = is_positively_elliptic(-np.eye(2))
    assert not chk
    assert chk.reason == "eigenvalue -1"


def test_membership_id():
    chk = is_positively_elliptic(np.eye(4))
    assert not chk
    assert chk.reason == "eigenvalue +1"


def test_membership_indefinite():
    chk = is_positively_elliptic(block_rotation([0.7, -0.7]))
    assert not chk
    assert chk.reason == "indefinite Krein signature"


def test_membership_boundary_angles():
    for theta in (0.0, np.pi):
        assert not is_positively_elliptic(rot(theta))


def test_region_exp_of_cone_generator():
    # exp of X in sp+ with spectrum in i(0, pi) lands in the region
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        X = -omega_matrix(n) @ (A.T @ A + 1e-3 * np.eye(2 * n))
        rho = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
        X = X * rng.uniform(0.05, np.pi - 0.05) / rho
        assert is_positively_elliptic(scipy.linalg.expm(X))


def _differential_sample(i: int) -> np.ndarray:
    """Seeded mixed input for the differential test, inside and outside
    the region."""
    rng = np.random.default_rng([67, i])
    n = 1 + i % 3
    kind = (i // 3) % 6
    if kind == 0:
        return random_symplectic(rng, n, scale=rng.uniform(0.2, 2.0))
    if kind == 1:
        return random_elliptic(rng, n, margin=0.01)
    if kind == 2:
        # signed angles: a negative one makes the Krein signature indefinite
        th = rng.uniform(0.01, np.pi - 0.01, n) * rng.choice([-1.0, 1.0], n)
        S = random_symplectic(rng, n, scale=0.4)
        return S @ block_rotation(th) @ symplectic_inverse(S)
    if kind == 3:
        # a cone flow through a region element, carried past its exit times
        W = random_elliptic(rng, n, margin=0.05)
        X = random_cone_element(rng, n)
        rho = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
        return scipy.linalg.expm(rng.uniform(-2 * np.pi, 2 * np.pi) / rho * X) @ W
    if kind == 4:
        return minus_inverse(
            random_elliptic(rng, n, margin=0.01)
            if rng.random() < 0.5
            else random_symplectic(rng, n, scale=rng.uniform(0.2, 1.0))
        )
    th = rng.uniform(0.01, np.pi - 0.01, n)
    th[0] *= rng.choice([-1.0, 1.0])
    S = random_symplectic(rng, n, scale=1.2)
    return S @ block_rotation(th) @ symplectic_inverse(S)


def test_normal_form_matches_krein_spectrum():
    # the normal form's verdict and angles against the Krein spectrum
    members = 0
    for i in range(3000):
        W = _differential_sample(i)
        spec = krein_spectrum(W, on_degenerate="mark")
        want = bool(_check_from_spectrum(spec))
        assert bool(is_positively_elliptic(W)) is want, i
        if not want:
            continue
        members += 1
        ref = np.sort([c.angle for c in spec.clusters
                       for _ in range(c.alg_mult) if c.value.imag > 0])
        if np.all(np.diff(ref) > 1e-5):
            np.testing.assert_allclose(elliptic_angles(W), ref, rtol=0, atol=1e-9)
    assert 1000 < members < 2500


# -- splitting --------------------------------------------------------------

def test_splitting_quarter_rotation():
    split = elliptic_splitting(rot(np.pi / 2))
    np.testing.assert_allclose(split.angles, [np.pi / 2], atol=1e-12)


def test_splitting_block_diagonal():
    W = block_rotation([0.4, 2.0])
    split = elliptic_splitting(W)
    np.testing.assert_allclose(split.angles, [0.4, 2.0], atol=1e-10)


def test_splitting_conjugated():
    W = block_rotation([0.4, 2.0])
    S = random_symplectic(19, 2, scale=0.4)
    Wc = S @ W @ symplectic_inverse(S)
    split = elliptic_splitting(Wc)
    np.testing.assert_allclose(split.angles, [0.4, 2.0], atol=1e-9)
    assert np.linalg.norm(split.basis - np.eye(4)) > 1e-3


def test_splitting_basis_invariants():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.1)
        split = elliptic_splitting(W)
        O = omega_matrix(n)
        B = split.basis
        # basis symplectic
        np.testing.assert_allclose(B.T @ O @ B, O, atol=1e-8)
        # B^{-1} W B is the block rotation by the angles
        np.testing.assert_allclose(
            np.linalg.solve(B, W @ B), block_rotation(split.angles), atol=1e-7
        )
        # angles match the positive-imaginary eigenvalue arguments
        args = np.sort(np.angle(np.linalg.eigvals(W)))
        np.testing.assert_allclose(np.sort(split.angles), args[n:], atol=1e-8)


def test_splitting_complex_structure():
    split = elliptic_splitting(block_rotation([0.4, 2.0]))
    for k in range(2):
        Jk = split.complex_structure(k)
        # acts as a complex structure on its plane, zero elsewhere
        np.testing.assert_allclose(Jk @ Jk @ Jk, -Jk, atol=1e-10)


def test_splitting_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        elliptic_splitting(np.diag([2.0, 0.5]))


def test_splitting_repeated_angles():
    W = block_rotation([1.1, 1.1, 1.1])
    split = elliptic_splitting(W)
    np.testing.assert_allclose(split.angles, [1.1, 1.1, 1.1], atol=1e-9)
    O = omega_matrix(3)
    np.testing.assert_allclose(split.basis.T @ O @ split.basis, O, atol=1e-8)


def test_clustered_angles_exact():
    # angles 1e-7 apart come back to roundoff, not as the cluster mean
    th = np.array([1.0, 1.0 + 1e-7, 1.0 + 2e-7])
    S = random_symplectic(5, 3, scale=1.2)
    W = S @ block_rotation(th) @ symplectic_inverse(S)
    np.testing.assert_allclose(elliptic_angles(W), th, rtol=0, atol=1e-12)
    np.testing.assert_allclose(elliptic_splitting(W).angles, th, rtol=0, atol=1e-12)
    assert abs(dist_formula(W) - np.exp(np.mean(np.log(th)))) <= 1e-12


# -- logarithm --------------------------------------------------------------

def test_log_rotation():
    X = log_elliptic(rot(0.5))
    np.testing.assert_allclose(X, 0.5 * standard_J(1), atol=1e-10)


def test_log_block():
    W = block_rotation([0.4, 2.0])
    np.testing.assert_allclose(
        log_elliptic(W), block_rotation_generator([0.4, 2.0]), atol=1e-10
    )


def test_log_roundtrip_random():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.05)
        X = log_elliptic(W)
        assert cone_status(X) is ConeStatus.INTERIOR
        assert float(np.max(np.abs(np.linalg.eigvals(X).imag))) < np.pi
        err = np.linalg.norm(scipy.linalg.expm(X) - W)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(W))


def test_log_warns_near_pi():
    with pytest.warns(IllConditionedWarning):
        log_elliptic(rot(np.pi - 1e-7))


def test_log_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        log_elliptic(-np.eye(2))


# -- time function ----------------------------------------------------------

def test_tau_symmetry_point():
    assert abs(tau(rot(np.pi / 2))) < 1e-12


def test_tau_pi_3():
    np.testing.assert_allclose(tau(rot(np.pi / 3)), -np.log(2), atol=1e-12)


def test_tau_additive():
    W = block_rotation([np.pi / 2, np.pi / 3])
    np.testing.assert_allclose(tau(W), -np.log(2), atol=1e-12)


def test_tau_divergence():
    assert tau(block_rotation(1e-6)) < -13
    assert tau(block_rotation(np.pi - 1e-6)) > 13


def test_tau_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        tau(np.diag([2.0, 0.5]))


# -- Maslov value -----------------------------------------------------------

def test_mu_pi_3():
    np.testing.assert_allclose(mu_elliptic(rot(np.pi / 3)), 1 / 6, atol=1e-12)


def test_mu_block():
    np.testing.assert_allclose(
        mu_elliptic(block_rotation([0.4, 2.0])), 2.4 / (2 * np.pi), atol=1e-12
    )


def test_mu_conjugation_invariant():
    W = block_rotation([0.4, 2.0])
    S = random_symplectic(53, 2, scale=0.4)
    np.testing.assert_allclose(
        mu_elliptic(S @ W @ symplectic_inverse(S)), mu_elliptic(W), atol=1e-9
    )


# -- minus_inverse ----------------------------------------------------------

def test_minus_inverse_rotation():
    np.testing.assert_allclose(minus_inverse(rot(0.3)), rot(np.pi - 0.3), atol=1e-12)


def test_minus_inverse_involution():
    W = random_symplectic(59, 2, scale=0.5)
    np.testing.assert_allclose(minus_inverse(minus_inverse(W)), W, atol=1e-10)


def test_minus_inverse_angle_complement():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.05)
        th = elliptic_angles(W)
        th_m = elliptic_angles(minus_inverse(W))
        np.testing.assert_allclose(th_m, np.pi - th[::-1], atol=1e-8)
        # tau antisymmetry and the mu complement identity
        np.testing.assert_allclose(tau(minus_inverse(W)), -tau(W), atol=1e-8)
        np.testing.assert_allclose(
            mu_elliptic(W) + mu_elliptic(minus_inverse(W)), n / 2, atol=1e-8
        )
