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
import math
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
#: Relative tolerance of the symplectic relation for every entry that takes
#: a group element: the region entries, the Krein spectrum, geodesics, the
#: tangent cone test and the drift bound of generated paths.
TOL_GROUP = 1e-7
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
    """Half-dimension n >= 1 of a 2n x 2n matrix; raises on any other shape."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise DimensionMismatchError(f"expected a 2n x 2n matrix, got shape {M.shape}")
    if M.shape[0] % 2:
        raise OddDimensionError(f"dimension {M.shape[0]} is odd")
    return M.shape[0] // 2


def _real(M, error: type[Exception] | None = None) -> np.ndarray:
    """A caller's matrix M as float64.  An entry with a nonzero imaginary
    part raises ``error``, or without one reads as NaN, which the predicates
    fail as a non-finite entry."""
    M = np.asarray(M)
    if M.dtype.kind != "c":
        return M.astype(float, copy=False)
    if error is not None and M.imag.any():
        raise error("complex entries with a nonzero imaginary part")
    return np.where(M.imag == 0, M.real.astype(float), np.nan)


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


def _content_memo(maxsize: int):
    """Decorator: memoise fn(W) by (W's shape, the bytes of W as C-ordered
    float64); a miss calls fn on the read-only array rebuilt from the bytes.
    The last ``maxsize`` records are kept and shared by every caller;
    exceptions are never stored.  ``memo.prime(W, value)`` stores a value
    the caller computed as fn(W) would, without calling fn, unless W has a
    record; it counts as a miss."""
    def decorate(fn):
        primed = {}

        @functools.lru_cache(maxsize=maxsize)
        def record(shape, data):
            if (shape, data) in primed:
                return primed.pop((shape, data))
            return fn(np.frombuffer(data).reshape(shape))

        @functools.wraps(fn)
        def memo(W):
            W = _real(W, NotSymplecticError)
            return record(W.shape, W.tobytes())

        def prime(W, value):
            W = _real(W, NotSymplecticError)
            key = W.shape, W.tobytes()
            primed[key] = value
            record(*key)
            primed.pop(key, None)  # W had a record

        memo.cache_info, memo.cache_clear = record.cache_info, record.cache_clear
        memo.prime = prime
        return memo
    return decorate


def _optimize():
    """`scipy.optimize`, imported on first use: the package's slowest import."""
    import scipy.optimize
    return scipy.optimize


def _not_converged(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh(A: np.ndarray, vectors: bool = True):
    """`np.linalg.eigh(A)`, or (`np.linalg.eigvalsh(A)`, None), of a float64
    or complex128 A: the package's one Hermitian eigensolver entry.  A single
    matrix calls their LAPACK kernel (?syevd or ?heevd on the lower
    triangle) without the wrapper's per-call checks, under the wrapper's
    error state, so its results and warnings are numpy's; a failed solve,
    which raises the invalid flag, raises LinAlgError as in the wrapper."""
    if A.ndim > 2:
        return np.linalg.eigh(A) if vectors else (np.linalg.eigvalsh(A), None)
    kernels = np.linalg._umath_linalg
    with np.errstate(call=_not_converged, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return kernels.eigh_lo(A) if vectors else (kernels.eigvalsh_lo(A), None)


def standard_J(n: int) -> np.ndarray:
    """Standard omega-compatible complex structure J = Omega^T; Omega @ J = I."""
    return omega_matrix(n).T.copy()


def block_rotation_generator(angles) -> np.ndarray:
    """Hamiltonian generator of plane rotations with the given angles.

    Plane k is span(x_k, y_k); the generator is [[0, -Theta], [Theta, 0]]
    with Theta = diag(angles).  Its exponential is `block_rotation`.
    """
    th = np.atleast_1d(np.asarray(angles, dtype=float))
    n = th.size
    X = np.zeros((2 * n, 2 * n))
    X.flat[n:2 * n * n:2 * n + 1] = -th  # at (k, n + k)
    X.flat[2 * n * n::2 * n + 1] = th    # at (n + k, k)
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


def _symplectic_check(M: np.ndarray, tol: float, stack: bool = False):
    """The symplectic rule for a float M, one matrix or, with ``stack``, an
    (N, 2n, 2n) stack: ok when |M|_F < 1e154 and r = |M^T Omega M - Omega|_F
    <= tol |M|_F^2.  (ok, r) as (bool, float), norms as `np.linalg.norm`
    computes them and r inf for |M|_F >= 1e154, or as (N,) arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        if stack:
            O = _omega(M.shape[-1] // 2)
            norm = np.linalg.norm(M, axis=(1, 2))
            r = np.linalg.norm(np.swapaxes(M, 1, 2) @ O @ M - O, axis=(1, 2))
            return (norm < 1e154) & (r <= tol * np.maximum(norm**2, _TINY)), r
        x = M.ravel(order="K")
        norm = math.sqrt(x.dot(x))
        if not norm < 1e154:  # non-finite, or too large to square safely
            return False, math.inf
        O = _omega(half_dim(M))
        D = (M.T @ O @ M - O).ravel()
        r = math.sqrt(D.dot(D))
    return r <= tol * max(norm**2, _TINY), r


def is_symplectic(M: np.ndarray, tol: float = TOL_SYMP) -> CheckResult:
    """Test the symplectic relation; residual is compared to tol * ||M||_F^2.
    Non-finite or non-real entries, or a norm of 1e154 or more, fail with
    residual inf and no numpy warning."""
    return CheckResult(*_symplectic_check(_real(M), tol))


def require_symplectic(M: np.ndarray, tol: float = TOL_SYMP) -> np.ndarray:
    M = _real(M, NotSymplecticError)
    ok, residual = _symplectic_check(M, tol)
    if not ok:
        if not np.isfinite(M).all():
            bad = [tuple(ij) for ij in np.argwhere(~np.isfinite(M)).tolist()]
            raise NotSymplecticError(f"non-finite entries at {bad}")
        raise NotSymplecticError(
            f"symplectic residual {residual:.3e} exceeds tolerance"
        )
    return M


def symplectic_inverse(W: np.ndarray) -> np.ndarray:
    """Exact group inverse W^{-1} = Omega^{-1} W^T Omega of a symplectic W."""
    W = _real(W, NotSymplecticError)
    O = _omega(half_dim(W))
    return -O @ W.T @ O


def is_hamiltonian(X: np.ndarray, tol: float = TOL_HAM) -> CheckResult:
    """Test membership in sp(2n); |Omega X - (Omega X)^T|_F <= tol ||X||_F.
    Non-finite or non-real entries, or a norm of 1e154 or more, fail with
    residual inf and no numpy warning, as in `is_symplectic`."""
    X = _real(X)
    O = _omega(half_dim(X))
    with np.errstate(over="ignore", invalid="ignore"):
        S = O @ X
        norm, r = float(np.linalg.norm(X)), float(np.linalg.norm(S - S.T))
    if not norm < 1e154:  # the norm rule of `_symplectic_check`
        return CheckResult(False, math.inf)
    return CheckResult(r <= tol * max(norm, _TINY), r)


def require_hamiltonian(X: np.ndarray, tol: float = TOL_HAM) -> np.ndarray:
    X = _real(X, NotHamiltonianError)
    chk = is_hamiltonian(X, tol)
    if not chk:
        raise NotHamiltonianError(
            f"Hamiltonian residual {chk.residual:.3e} exceeds tolerance"
        )
    return X


def symmetrized_form(X: np.ndarray) -> np.ndarray:
    """Symmetric part of Omega @ X, the quadratic form omega(., X .)."""
    X = _real(X, NotHamiltonianError)
    S = _omega(half_dim(X)) @ X
    return (S + S.T) / 2


def cone_status(X: np.ndarray, tol: float = TOL_CONE) -> ConeStatus:
    """Classify X relative to the causal cone C(id).

    The classification reads the eigenvalues of the symmetrised Omega @ X
    against a band of width tol * max(1, ||X||_F).  The asymmetric part is
    checked first and reported separately as NotHamiltonianError, so "not in
    the Lie algebra" is never conflated with "not in the cone".  Raises
    ValueError unless 0 <= tol < inf.
    """
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be non-negative and finite")
    X = require_hamiltonian(X, tol=max(tol, TOL_HAM))
    norm_x = float(np.linalg.norm(X))
    if norm_x <= tol:
        return ConeStatus.ZERO
    w = _eigh(symmetrized_form(X), vectors=False)[0]
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
    """Classify a tangent A at the group element W via X = A @ W^{-1}.
    Raises ValueError unless 0 <= tol < inf."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be non-negative and finite")
    W = require_symplectic(W, tol=max(tol, TOL_GROUP))
    A = _real(A, NotHamiltonianError)
    if A.shape != W.shape:
        raise DimensionMismatchError(
            f"tangent shape {A.shape} does not match {W.shape}"
        )
    return cone_status(A @ symplectic_inverse(W), tol)
