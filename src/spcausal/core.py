"""Ground conventions, matrix predicates and the causal cone classification.

Coordinates on R^{2n} are ordered (x_1..x_n, y_1..y_n).  The symplectic form
is represented by ``Omega = [[0, I], [-I, 0]]`` with ``omega(v, w) = v^T Omega w``,
and the standard compatible complex structure is ``J = [[0, -I], [I, 0]]``.
With these signs ``Omega @ J = I``, so cone membership reduces to a plain
positive-semidefiniteness test on the symmetrised ``Omega @ X``, and the
rotations ``e^{theta J}`` for ``theta in (0, pi)`` land in the positively
elliptic region (the calibration requirement of the Krein module).

Tangent vectors at a group element W are right-trivialized throughout:
a tangent A at W is classified through ``X = A @ W^{-1}``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NotHamiltonianError,
    NotSymplecticError,
    OddDimensionError,
)

#: Default relative tolerance for the symplectic relation.
TOL_SYMP = 1e-9
#: Default relative tolerance for membership in sp(2n).
TOL_HAM = 1e-9
#: Default relative width of the cone boundary band.
TOL_CONE = 1e-9

_TINY = 1e-300


class ConeStatus(Enum):
    """Position of a Hamiltonian matrix relative to the causal cone."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"
    NEGATIVE_INTERIOR = "negative-interior"
    NEGATIVE_BOUNDARY = "negative-boundary"
    ZERO = "zero"

    @property
    def causal(self) -> bool:
        """True for directions in the closed forward cone."""
        return self in (ConeStatus.INTERIOR, ConeStatus.BOUNDARY)


@dataclass(frozen=True)
class CheckResult:
    """Boolean predicate outcome together with the measured residual."""

    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def half_dim(M: np.ndarray) -> int:
    """Half-dimension n of a 2n x 2n matrix; raises on odd or non-square."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] % 2:
        raise OddDimensionError(f"dimension {M.shape[0]} is odd")
    return M.shape[0] // 2


def omega_matrix(n: int) -> np.ndarray:
    """Matrix of the canonical symplectic form in (x, y) coordinate order."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    O = np.zeros((2 * n, 2 * n))
    O[:n, n:] = np.eye(n)
    O[n:, :n] = -np.eye(n)
    return O


@functools.lru_cache(maxsize=16)
def _omega(n: int) -> np.ndarray:
    """Read-only `omega_matrix(n)`, built once per n for internal callers."""
    O = omega_matrix(n)
    O.setflags(write=False)
    return O


def _content_memo(fn):
    """Memoise fn(W, *args) by (W's shape, the bytes of W as C-ordered
    float64, args); a miss calls fn on the read-only array rebuilt from the
    bytes.  The last 4 records are kept and shared by every caller, enough
    for the questions asked about one matrix; exceptions are never stored."""
    @functools.lru_cache(maxsize=4)
    def record(shape, data, *args):
        return fn(np.frombuffer(data).reshape(shape), *args)

    @functools.wraps(fn)
    def memo(W, *args):
        W = np.asarray(W, dtype=float)
        return record(W.shape, W.tobytes(), *args)

    memo.cache_info, memo.cache_clear = record.cache_info, record.cache_clear
    return memo


def standard_J(n: int) -> np.ndarray:
    """Standard omega-compatible complex structure; Omega @ J = I."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def block_rotation_generator(angles) -> np.ndarray:
    """Hamiltonian generator of plane rotations with the given angles.

    Plane k is span(x_k, y_k); the generator is [[0, -Theta], [Theta, 0]]
    with Theta = diag(angles).  Its exponential is `block_rotation`.
    """
    th = np.atleast_1d(np.asarray(angles, dtype=float))
    n = th.size
    X = np.zeros((2 * n, 2 * n))
    X[:n, n:] = -np.diag(th)
    X[n:, :n] = np.diag(th)
    return X


def block_rotation(angles) -> np.ndarray:
    """Symplectic rotation by angles theta_k in the planes (x_k, y_k)."""
    th = np.atleast_1d(np.asarray(angles, dtype=float))
    n = th.size
    W = np.zeros((2 * n, 2 * n))
    c, s = np.cos(th), np.sin(th)
    W[:n, :n] = np.diag(c)
    W[:n, n:] = -np.diag(s)
    W[n:, :n] = np.diag(s)
    W[n:, n:] = np.diag(c)
    return W


def symplectic_residual(M: np.ndarray) -> float:
    """Frobenius norm of M^T Omega M - Omega."""
    M = np.asarray(M, dtype=float)
    O = _omega(half_dim(M))
    return float(np.linalg.norm(M.T @ O @ M - O))


def is_symplectic(M: np.ndarray, tol: float = TOL_SYMP) -> CheckResult:
    """Test the symplectic relation; residual is compared to tol * ||M||_F^2.

    Non-finite entries, and entries so large that a norm overflows, fail
    with residual inf and no numpy warning.
    """
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
        if not norm < 1e154:  # non-finite, or too large to square safely
            return CheckResult(False, float("inf"))
        r = symplectic_residual(M)
    scale = max(norm**2, _TINY)
    return CheckResult(r <= tol * scale, r)


def require_symplectic(M: np.ndarray, tol: float = TOL_SYMP) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    chk = is_symplectic(M, tol)
    if not chk:
        if not np.isfinite(M).all():
            bad = [tuple(ij) for ij in np.argwhere(~np.isfinite(M)).tolist()]
            raise NotSymplecticError(f"non-finite entries at {bad}")
        raise NotSymplecticError(
            f"symplectic residual {chk.residual:.3e} exceeds tolerance"
        )
    return M


def symplectic_inverse(W: np.ndarray) -> np.ndarray:
    """Exact group inverse W^{-1} = Omega^{-1} W^T Omega of a symplectic W."""
    W = np.asarray(W, dtype=float)
    O = _omega(half_dim(W))
    return -O @ W.T @ O


def hamiltonian_asymmetry(X: np.ndarray) -> float:
    """Frobenius norm of the antisymmetric part of Omega @ X (doubled)."""
    X = np.asarray(X, dtype=float)
    S = _omega(half_dim(X)) @ X
    return float(np.linalg.norm(S - S.T))


def is_hamiltonian(X: np.ndarray, tol: float = TOL_HAM) -> CheckResult:
    """Test membership in sp(2n); residual compared to tol * ||X||_F."""
    X = np.asarray(X, dtype=float)
    r = hamiltonian_asymmetry(X)
    scale = max(float(np.linalg.norm(X)), _TINY)
    return CheckResult(r <= tol * scale, r)


def require_hamiltonian(X: np.ndarray, tol: float = TOL_HAM) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    chk = is_hamiltonian(X, tol)
    if not chk:
        raise NotHamiltonianError(
            f"Omega @ X asymmetry {chk.residual:.3e} exceeds tolerance"
        )
    return X


def symmetrized_form(X: np.ndarray) -> np.ndarray:
    """Symmetric part of Omega @ X, the quadratic form omega(., X .)."""
    X = np.asarray(X, dtype=float)
    S = _omega(half_dim(X)) @ X
    return (S + S.T) / 2


def cone_status(X: np.ndarray, tol: float = TOL_CONE) -> ConeStatus:
    """Classify X relative to the causal cone C(id).

    The classification reads the eigenvalues of the symmetrised Omega @ X
    against a band of width tol * max(1, ||X||_F).  The asymmetric part is
    checked first and reported separately as NotHamiltonianError, so "not in
    the Lie algebra" is never conflated with "not in the cone".
    """
    X = require_hamiltonian(X, tol=max(tol, TOL_HAM))
    norm_x = float(np.linalg.norm(X))
    if norm_x <= tol:
        return ConeStatus.ZERO
    w = np.linalg.eigvalsh(symmetrized_form(X))
    band = tol * max(1.0, norm_x)
    lo, hi = float(w[0]), float(w[-1])
    if lo > band:
        return ConeStatus.INTERIOR
    if lo >= -band:
        return ConeStatus.BOUNDARY
    if hi < -band:
        return ConeStatus.NEGATIVE_INTERIOR
    if hi <= band:
        return ConeStatus.NEGATIVE_BOUNDARY
    return ConeStatus.OUTSIDE


def cone_membership_tangent(
    W: np.ndarray, A: np.ndarray, tol: float = TOL_CONE
) -> ConeStatus:
    """Classify a tangent A at the group element W via X = A @ W^{-1}."""
    W = require_symplectic(W, tol=max(tol, 1e-7))
    A = np.asarray(A, dtype=float)
    if A.shape != W.shape:
        raise DimensionMismatchError(
            f"tangent shape {A.shape} does not match {W.shape}"
        )
    return cone_status(A @ symplectic_inverse(W), tol)
