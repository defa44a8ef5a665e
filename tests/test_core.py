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
    finsler_G,
    half_dim,
    is_hamiltonian,
    is_positively_elliptic,
    is_symplectic,
    krein_spectrum,
    omega_matrix,
    random_cone_element,
    standard_J,
    symplectic_inverse,
    tau,
)
from spcausal.core import _real, require_symplectic, symmetrized_form
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


def test_standard_J_is_the_transpose_of_omega():
    for n in range(1, 7):
        J = standard_J(n)
        assert J.flags.c_contiguous and J.flags.writeable
        assert J.tobytes() == np.ascontiguousarray(omega_matrix(n).T).tobytes()
    with pytest.raises(ValueError, match="positive integer"):
        standard_J(0)


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


def _reference_is_hamiltonian(X, tol=1e-9):
    # the membership test without the norm rule: the differential reference
    X = np.asarray(X, dtype=float)
    S = omega_matrix(X.shape[0] // 2) @ X
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(S - S.T))
    return r <= tol * max(float(np.linalg.norm(X)), 1e-300), r


def test_is_hamiltonian_matches_the_reference_below_the_overflow_rule():
    rng = np.random.default_rng(19)
    for k in range(600):
        n = 1 + k % 3
        X = random_cone_element(rng, n) if k % 2 else rng.standard_normal((2 * n, 2 * n))
        X = X * (10.0 ** rng.uniform(-300, 153.99) / np.linalg.norm(X))
        for tol in (1e-9, 1e-7):
            chk = is_hamiltonian(X, tol)
            ok, r = _reference_is_hamiltonian(X, tol)
            assert (chk.ok, repr(chk.residual)) == (ok, repr(r)), k


def test_is_hamiltonian_fails_huge_and_non_finite_inputs_without_warnings():
    X = random_cone_element(4, 2)
    X /= np.linalg.norm(X)
    inf_entry, nan_entry = X.copy(), X.copy()
    inf_entry[0, 2], nan_entry[1, 3] = np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cone_status(X * 1e153) is ConeStatus.INTERIOR
        for bad in (X * 1e154, X * 1e200, -X * 1e300, inf_entry, nan_entry):
            chk = is_hamiltonian(bad)
            assert (chk.ok, chk.residual) == (False, np.inf)
            for entry in (cone_status, finsler_G):
                with pytest.raises(NotHamiltonianError, match="residual inf"):
                    entry(bad)


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
    non_finite = r"non-finite entries at \[\(1, 2\)\]"
    for bad, message in ((np.nan, non_finite), (np.inf, non_finite),
                         (-np.inf, non_finite), (1e160, "residual inf")):
        M = np.eye(4)
        M[1, 2] = bad  # 1e160 is finite, but its square overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_symplectic(M) == CheckResult(False, float("inf"))
            for f in (is_positively_elliptic, elliptic_angles, krein_spectrum):
                with pytest.raises(NotSymplecticError, match=message):
                    f(M)


def test_cone_tests_reject_a_negative_nan_or_infinite_tol():
    # before any other check: -J, 0 and diag(1, -1) read INTERIOR at
    # tol = -1, and every direction ZERO at tol = inf
    J = standard_J(1)
    for tol in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
        for call in (lambda: cone_status(J, tol),
                     lambda: cone_status(np.diag([1.0, -1.0]), tol),
                     lambda: cone_membership_tangent(np.eye(2), -J, tol),
                     lambda: finsler_G(-J, tol)):
            with pytest.raises(ValueError, match="tol must be non-negative and finite") as exc:
                call()
            assert type(exc.value) is ValueError
    assert cone_status(J, 0.0) is ConeStatus.INTERIOR
    assert cone_status(-J, 0.0) is ConeStatus.NEGATIVE_INTERIOR
    assert cone_status(np.zeros((2, 2)), 0.0) is ConeStatus.ZERO
    assert cone_membership_tangent(np.eye(2), J, 0.0) is ConeStatus.INTERIOR


def test_complex_inputs_with_an_imaginary_part_are_rejected_without_warning():
    R, J = block_rotation([0.4, 1.1]), standard_J(2)
    W, X = R + 1e-3j * np.eye(4), J + 1j * J
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_symplectic(W) == CheckResult(False, float("inf"))
        assert is_hamiltonian(X) == CheckResult(False, float("inf"))
        for call in (lambda: is_positively_elliptic(W), lambda: tau(W),
                     lambda: elliptic_angles(W), lambda: krein_spectrum(W),
                     lambda: symplectic_inverse(W),
                     lambda: cone_membership_tangent(W, J)):
            with pytest.raises(NotSymplecticError, match="nonzero imaginary part"):
                call()
        for call in (lambda: cone_status(X), lambda: symmetrized_form(X),
                     lambda: cone_membership_tangent(R, X @ R)):
            with pytest.raises(NotHamiltonianError, match="nonzero imaginary part"):
                call()
        # a complex dtype with zero imaginary parts reads as the real matrix
        assert is_symplectic(R.astype(complex)) == is_symplectic(R)
        assert tau(R.astype(complex)) == tau(R)
        assert cone_status(J.astype(complex)) is ConeStatus.INTERIOR
        assert np.array_equal(symplectic_inverse(R.astype(complex)), symplectic_inverse(R))


def test_an_empty_matrix_raises_a_dimension_mismatch():
    E = np.zeros((0, 0))
    for f in (half_dim, is_symplectic, is_hamiltonian, cone_status,
              krein_spectrum, is_positively_elliptic):
        with pytest.raises(DimensionMismatchError, match="expected a 2n x 2n matrix"):
            f(E)


def test_a_shape_error_does_not_depend_on_the_entries():
    # a 2 x 3 or 3 x 3 matrix raises its shape error, whether its entries are
    # finite, NaN or too large to square, before any norm screen
    for shape, error, message in (((2, 3), DimensionMismatchError,
                                   r"^expected a 2n x 2n matrix, got shape \(2, 3\)$"),
                                  ((3, 3), OddDimensionError, r"^dimension 3 is odd$")):
        for value in (1.0, np.nan, 1e200):
            M = np.full(shape, value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for f in (is_symplectic, require_symplectic, is_positively_elliptic,
                          tau, krein_spectrum):
                    with pytest.raises(error, match=message) as exc:
                        f(M)
                    assert type(exc.value) is error, (shape, value, f)


def _asarray_real(M, error=None):
    """`core._real` spelt out: asarray, then a float64 view or the real part."""
    M = np.asarray(M)
    if M.dtype.kind != "c":
        return M.astype(float, copy=False)
    if error is not None and M.imag.any():
        raise error("complex entries with a nonzero imaginary part")
    return np.where(M.imag == 0, M.real.astype(float), np.nan)


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_real_returns_a_float_array_itself_and_converts_the_rest():
    W = np.eye(2)
    assert _real(W) is W and _real(W, NotSymplecticError) is W
    inputs = [W, W.T, [[0, 1], [-1, 0]], 3, 2.5, np.matrix(W), W.astype(np.float32),
              W.astype(">f8"), W.astype(complex), W + 1e-3j, np.eye(2, dtype=int)]
    for M in inputs:
        for error in (None, NotSymplecticError):
            try:
                want = _asarray_real(M, error)
            except NotSymplecticError as exc:
                with pytest.raises(NotSymplecticError, match=str(exc)):
                    _real(M, error)
                continue
            got = _real(M, error)
            assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
            assert got.tobytes() == want.tobytes() and (got is M) == (want is M)
