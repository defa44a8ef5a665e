"""Tests for conventions, predicates and cone classification."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from spcausal import (
    CheckResult,
    ConeStatus,
    block_rotation,
    block_rotation_generator,
    cone_membership_tangent,
    cone_status,
    elliptic_angles,
    is_hamiltonian,
    is_positively_elliptic,
    is_symplectic,
    krein_spectrum,
    omega_matrix,
    standard_J,
    symplectic_inverse,
)
from spcausal.exceptions import (
    DimensionMismatchError,
    NotHamiltonianError,
    NotSymplecticError,
    OddDimensionError,
)


def test_omega_n1():
    np.testing.assert_array_equal(omega_matrix(1), [[0, 1], [-1, 0]])


def test_omega_n2():
    expected = [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ]
    np.testing.assert_array_equal(omega_matrix(2), expected)


def test_omega_squares_to_minus_id():
    for n in (1, 2, 3, 5):
        O = omega_matrix(n)
        np.testing.assert_array_equal(O @ O, -np.eye(2 * n))


def test_omega_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        omega_matrix(0)


def test_standard_J_n1():
    np.testing.assert_array_equal(standard_J(1), [[0, -1], [1, 0]])


def test_omega_J_is_identity():
    for n in (1, 2, 4):
        np.testing.assert_array_equal(omega_matrix(n) @ standard_J(n), np.eye(2 * n))


def test_standard_J_is_interior():
    assert cone_status(standard_J(3)) is ConeStatus.INTERIOR


def test_J_squares_to_minus_id():
    J = standard_J(2)
    np.testing.assert_array_equal(J @ J, -np.eye(4))


def test_block_rotation_is_exp_of_generator():
    angles = [0.4, 2.0, 1.1]
    W = block_rotation(angles)
    np.testing.assert_allclose(
        W, scipy.linalg.expm(block_rotation_generator(angles)), atol=1e-13
    )


def test_rotation_is_symplectic():
    for theta in (0.0, 0.5, np.pi / 2, 3.0, 7.5):
        W = scipy.linalg.expm(theta * standard_J(1))
        assert is_symplectic(W)


def test_diag_2_half_is_symplectic():
    assert is_symplectic(np.diag([2.0, 0.5]))


def test_diag_2_2_is_not_symplectic():
    chk = is_symplectic(np.diag([2.0, 2.0]))
    assert not chk
    assert chk.residual > 1.0


def test_odd_dimension_rejected():
    with pytest.raises(OddDimensionError):
        is_symplectic(np.eye(3))


def test_symplectic_inverse_matches_numpy():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        A = rng.standard_normal((2 * n, 2 * n))
        S = (A + A.T) / 2
        W = scipy.linalg.expm(-omega_matrix(n) @ S)
        np.testing.assert_allclose(symplectic_inverse(W), np.linalg.inv(W), atol=1e-10)


def test_is_hamiltonian():
    assert is_hamiltonian(standard_J(2))
    assert not is_hamiltonian(np.eye(2))


def test_cone_status_J_interior():
    assert cone_status(standard_J(1)) is ConeStatus.INTERIOR


def test_cone_status_boundary():
    X = np.array([[0.0, -1.0], [0.0, 0.0]])
    assert cone_status(X) is ConeStatus.BOUNDARY


def test_cone_status_outside():
    assert cone_status(np.diag([1.0, -1.0])) is ConeStatus.OUTSIDE


def test_cone_status_negative_and_zero():
    assert cone_status(-standard_J(1)) is ConeStatus.NEGATIVE_INTERIOR
    assert cone_status(np.zeros((2, 2))) is ConeStatus.ZERO
    X = np.array([[0.0, -1.0], [0.0, 0.0]])
    assert cone_status(-X) is ConeStatus.NEGATIVE_BOUNDARY


def test_cone_status_rejects_non_hamiltonian():
    with pytest.raises(NotHamiltonianError):
        cone_status(np.eye(2))


def test_cone_status_mirror():
    rng = np.random.default_rng(11)
    mirror = {
        ConeStatus.INTERIOR: ConeStatus.NEGATIVE_INTERIOR,
        ConeStatus.BOUNDARY: ConeStatus.NEGATIVE_BOUNDARY,
        ConeStatus.OUTSIDE: ConeStatus.OUTSIDE,
        ConeStatus.NEGATIVE_INTERIOR: ConeStatus.INTERIOR,
        ConeStatus.NEGATIVE_BOUNDARY: ConeStatus.BOUNDARY,
        ConeStatus.ZERO: ConeStatus.ZERO,
    }
    for _ in range(50):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        X = -omega_matrix(n) @ ((A + A.T) / 2)
        assert cone_status(-X) is mirror[cone_status(X)]


def test_random_cone_construction_interior():
    # S = A^T A + eps I makes Omega X = S positive definite by construction
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        S = A.T @ A + 1e-3 * np.eye(2 * n)
        X = -omega_matrix(n) @ S
        assert cone_status(X) is ConeStatus.INTERIOR


def test_cone_conjugation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        X = -omega_matrix(n) @ (A.T @ A + 1e-3 * np.eye(2 * n))
        B = rng.standard_normal((2 * n, 2 * n))
        W = scipy.linalg.expm(-omega_matrix(n) @ ((B + B.T) / 2) * 0.3)
        conj = W @ X @ symplectic_inverse(W)
        assert cone_status(conj) is ConeStatus.INTERIOR


def test_tangent_classification_right_invariance():
    J = standard_J(1)
    W = scipy.linalg.expm(0.3 * J)
    assert cone_membership_tangent(W, J @ W) is ConeStatus.INTERIOR


def test_tangent_of_rotation_flow():
    # derivative of t -> e^{tJ} W at t=0 is J W
    J = standard_J(1)
    W = scipy.linalg.expm(0.3 * J)
    h = 1e-7
    A = (scipy.linalg.expm(h * J) @ W - W) / h
    assert cone_membership_tangent(W, A, tol=1e-5) is ConeStatus.INTERIOR


def test_tangent_identity_not_hamiltonian():
    # A = W means X = id, which is not in sp(2) since Omega is antisymmetric
    W = scipy.linalg.expm(0.3 * standard_J(1))
    with pytest.raises(NotHamiltonianError):
        cone_membership_tangent(W, W)


def test_tangent_shape_mismatch():
    W = np.eye(2)
    with pytest.raises(DimensionMismatchError):
        cone_membership_tangent(W, np.eye(4))


def test_non_finite_input_typed_error_without_warning():
    for bad in (np.nan, np.inf, -np.inf):
        M = np.eye(4)
        M[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_symplectic(M) == CheckResult(False, float("inf"))
            for f in (is_positively_elliptic, elliptic_angles, krein_spectrum):
                with pytest.raises(
                    NotSymplecticError, match=r"non-finite entries at \[\(1, 2\)\]"
                ):
                    f(M)
