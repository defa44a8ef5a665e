"""The positively elliptic region: membership, normal form, logarithm,
time function and Maslov value.

A symplectic W is positively elliptic when its whole spectrum lies on the
unit circle away from +-1 and the Krein form is positive definite exactly on
the eigenspaces with positive imaginary part.  Such W splits R^{2n} into
symplectic planes on which it rotates by angles theta_k in (0, pi); every
quantity in this module is a function of those angles and of the adapted
basis realising the splitting.  W is positively elliptic exactly when
sym(Omega W) is positive definite, and one congruence normal form of that
matrix (`_normal_form`), for a single matrix or a stack, gives the verdict,
the angles and the basis; a caller that needs only verdicts asks
`_stack_verdicts`, which settles each row by a Cholesky certificate on either
side of the region and forms only the rows neither settles.  The form's
Hermitian eigensolves call numpy's LAPACK kernel (?syevd/?heevd) directly
(`core._eigh`): the bits of `np.linalg.eigh` without the wrapper's overhead.
The Krein spectrum names the reason for a rejection and serves general spectra.
Every single-matrix entry reads the checked form from one memo
(`_checked_form`; README, "The two memos").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    TOL_GROUP,
    _content_memo,
    _eigh,
    _omega,
    _real,
    _row_norms,
    _symplectic_check,
    block_rotation_generator,
    half_dim,
    require_symplectic,
    symmetrized_form,
    symplectic_inverse,
)
from .exceptions import IllConditionedWarning, NotEllipticError, NotSymplecticError
# krein_spectrum stays importable from this module, which the benchmark's
# tracer rebinds; the rejection diagnosis of a checked W reads the memo _spectrum
from .krein import _phases, _spectrum, krein_spectrum  # noqa: F401

#: Angles within this band of {0, pi} are classified as boundary.
ANGLE_BOUNDARY_BAND = 1e-8
#: lambda_max(i Omega') = 1 / (2 sin theta) at the edge of the angle band.
_BAND_EIGENVALUE = 1 / (2 * np.sin(ANGLE_BOUNDARY_BAND))
#: Relative working-precision noise of the eigenvalues of sym(Omega W).
_GRAM_NOISE = 4 * np.finfo(float).eps
_SQRT2 = np.sqrt(2)


@dataclass(frozen=True)
class EllipticCheck:
    """Membership verdict with the first violated condition, if any, and
    the margins to the region boundary read off the normal form.

    ``gram_margin`` is lambda_min(P) over the largest |eigenvalue| of
    P = 2 sym(Omega W), 0.0 where P vanishes: lambda_min / lambda_max on
    members, and positive exactly when P > 0, the region up to the angle
    band.  For members, ``min_angle`` is theta_1 and ``min_pi_gap`` is
    pi - theta_n.
    """

    elliptic: bool
    reason: str | None = None
    gram_margin: float | None = None
    min_angle: float | None = None
    min_pi_gap: float | None = None

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
        """The logarithm X with exp(X) = W, `log_elliptic(W)` to the bit."""
        return self._ambient(block_rotation_generator(self.angles))[0]

    def complex_structure(self, k: int) -> np.ndarray:
        """Ambient matrix acting as the compatible complex structure on V_k
        and as zero on the other planes."""
        return self._ambient(block_rotation_generator(np.eye(self.n)[k]))[0]

    def _ambient(self, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B K B^{-1} for the basis B, projected onto sp(2n) as
        -Omega sym(Omega B K B^{-1}), with B^{-1}."""
        B_inv = np.linalg.inv(self.basis)
        return -_omega(self.n) @ symmetrized_form(self.basis @ K @ B_inv), B_inv


def _rejection_reason(W: np.ndarray) -> str:
    """The first condition the Krein labelling of a checked non-member W
    finds violated, in the order of `is_positively_elliptic`; "boundary"
    when it finds none."""
    ph = _phases(_spectrum(W)[0])
    if ph.off_circle:
        return "off-circle eigenvalue"
    if ph.plus_one:
        return "eigenvalue +1"
    if ph.minus_one:
        return "eigenvalue -1"
    lo, hi = ANGLE_BOUNDARY_BAND, np.pi - ANGLE_BOUNDARY_BAND
    if ph.degenerate or not all(lo <= abs(a) <= hi for a in ph.plus):
        return "boundary"
    if any(a < 0 for a in ph.plus):
        return "indefinite Krein signature"
    return "boundary"


class _Form(NamedTuple):
    """Normal form of one checked symplectic W or of a stack (see
    `_normal_form`); ``p_min`` and ``p_max`` are the extreme eigenvalues of
    P = 2 sym(Omega W)."""

    inside: np.ndarray
    theta: np.ndarray
    E: np.ndarray
    Y: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray


def _normal_form(W: np.ndarray) -> _Form:
    """Verdicts, ascending angles, eigenvectors and Gram extremes of a
    checked symplectic W, one (2n, 2n) matrix or a stack along leading axes:
    ``inside`` (of W's leading shape), ``theta`` (..., n), ``E`` (..., 2n, n)
    and ``Y`` (..., n, n) such that column k of E Y is an eigenvector for
    exp(i theta_k), with (E Y)* Omega (E Y) = -i diag(1 / (2 sin theta)),
    and ``p_min`` and ``p_max``, the extreme eigenvalues of P below.
    ``theta``, ``E`` and ``Y`` are meaningful only where ``inside`` holds,
    and read-only, as every reader of a stored form shares them.

    W is positively elliptic exactly when P = 2 sym(Omega W) = M + M^T, with
    M = Omega W, is positive definite (Krein's strong-stability theory, see
    Yakubovich and Starzhinskii 1975), and W^T P W = P.  For P = Q diag(lam) Q^T
    and G = Q diag(lam)^{-1/2}, W' = G^{-1} W G is orthogonal and commutes with
    the skew Omega' = G^T Omega G, which it preserves, and the symmetric part
    of G^T M G = Omega' W' is I/2.  On a common eigenvector with
    W' v = exp(i theta) v, i Omega' then has the eigenvalue 1 / (2 sin theta)
    and i G^T (M - M^T) G the eigenvalue cot theta (Williamson 1936).  So
    E = G U, with U the positive eigenspace of i Omega', spans the
    Krein-positive subspace, and the eigenvalues c_k of the Hermitian
    i E* (M - M^T) E give theta_k = arctan2(1, c_k): one angle kernel, run
    on c in the solver's order and then reversed, so that a matrix and a
    stack take numpy's same arctan2 loop and agree to the bit.  Membership
    asks lam_min > 4 eps lam_max, the working-precision noise of P, and
    every angle inside the boundary band, which is read from the eigenvalues
    of i Omega' alone: the angles lie in [band, pi - band] exactly when
    lambda_max(i Omega') = 1 / (2 sin theta) is at most 1 / (2 sin band).
    Every region verdict of the package is this one, or a certificate of
    `_stack_verdicts` that implies it.
    """
    n = W.shape[-1] // 2
    O = _omega(n)
    M = O @ W
    lam, Q = _eigh(M + M.swapaxes(-1, -2))
    positive = lam[..., 0] > _GRAM_NOISE * lam[..., -1]
    # a non-member is carried along with its eigenvalues set to 1
    G = Q / np.sqrt(np.where(positive[..., None], lam, 1.0))[..., None, :]
    w, U = _eigh(1j * (G.swapaxes(-1, -2) @ O @ G))
    inside = positive & (w[..., -1] <= _BAND_EIGENVALUE)
    E = G @ U[..., n:]
    A = 1j * (M - M.swapaxes(-1, -2))
    c, Y = _eigh(E.conj().swapaxes(-1, -2) @ A @ E)
    # the largest c_k gives the smallest angle, so theta is ascending; copied
    # contiguous, as numpy's log too picks its loop by stride (tau, dist)
    theta = np.arctan2(1.0, c)[..., ::-1].copy()
    Y = Y[..., ::-1]
    for a in (theta, E, Y):
        a.setflags(write=False)
    return _Form(inside, theta, E, Y, lam[..., 0], lam[..., -1])


@_content_memo(64)
def _checked_form(W: np.ndarray) -> _Form:
    """`_normal_form` of one matrix W after `require_symplectic(W, TOL_GROUP)`,
    memoised by content.  `random_causal_path` stores the forms of its steps
    here (``prime``), and the path readers take stored forms before they
    compute any (``peek``)."""
    require_symplectic(W, TOL_GROUP)
    return _normal_form(W)


def _symplectic_stack(Ws) -> np.ndarray:
    """An (N, 2n, 2n) stack as floats after the symplectic check at TOL_GROUP;
    rows that are not 2n x 2n raise `half_dim`'s error before any product,
    and the first matrix that fails raises with the single-matrix message."""
    Ws = _real(Ws, NotSymplecticError)
    half_dim(Ws[0])
    for W in Ws[~_symplectic_check(Ws, TOL_GROUP, stack=True)[0]]:
        require_symplectic(W, TOL_GROUP)
    return Ws


def _stack_verdicts(Ws: np.ndarray) -> np.ndarray:
    """The normal form's verdicts, a boolean (N,) array, of a stack that
    passed `_symplectic_stack`, each row settled by itself.  With
    P = 2 sym(Omega W) and s = 1e-6 max(1, |P|_F), by Demmel's bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002, Thm 10.7)
    a Cholesky factor of P - s I proves lambda_min(P) >= s - O(n^2 eps |P|)
    > 4 eps lambda_max(P) and lambda_max(i Omega') <= 1 / lambda_min(P) <~ 1e6
    < 1 / (2 sin ANGLE_BOUNDARY_BAND) ~ 5e7, so the form accepts the row, and
    a failed factor of P + s I proves lambda_min(P) <= -s + O(n^2 eps |P|)
    < 0, so the form rejects it.  Only the rows neither settles are formed."""
    M = _omega(Ws.shape[-1] // 2) @ Ws
    P = M + M.swapaxes(-1, -2)
    sI = (1e-6 * np.maximum(1.0, _row_norms(P)))[:, None, None] * np.eye(P.shape[-1])
    chol = np.linalg._umath_linalg.cholesky_lo
    with np.errstate(all="ignore"):  # the kernel returns a failed factor as NaN
        inside = np.isfinite(chol(P - sI)[:, 0, 0])
        if len(rest := np.flatnonzero(~inside)):  # formed unless P + s I fails
            rest = rest[np.isfinite(chol(P[rest] + sI[rest])[:, 0, 0])]
    if len(rest):
        inside[rest] = _normal_form(Ws[rest]).inside
    return inside


def _region_form(W: np.ndarray) -> _Form:
    """The memoised form of a region element.  A non-member raises
    NotEllipticError naming the first condition the Krein spectrum finds
    violated, or "boundary" when it finds none."""
    form = _checked_form(W)
    if not form.inside:
        raise NotEllipticError(_rejection_reason(W))
    return form


def is_positively_elliptic(W: np.ndarray, tol: float = TOL_GROUP) -> EllipticCheck:
    """Membership test for the positively elliptic region with diagnosis.

    The normal form gives the verdict and the margins of `EllipticCheck`.
    The diagnosis names the first violated condition: "off-circle
    eigenvalue", "eigenvalue +1" / "eigenvalue -1", "boundary" (an angle or
    the Krein Gram within the boundary band, or sym(Omega W) singular to
    working precision) or "indefinite Krein signature".

    The symplectic relation is checked at min(tol, TOL_GROUP), so ``tol``
    can only tighten that check, never loosen it.
    """
    if not tol >= TOL_GROUP:  # a NaN tol takes the check, and fails it
        require_symplectic(W, tol)
    form = _checked_form(W)
    p_min, p_max = float(form.p_min), float(form.p_max)
    scale = max(p_max, -p_min)
    margin = p_min / scale if scale > 0 else 0.0
    if not form.inside:
        return EllipticCheck(False, _rejection_reason(W), gram_margin=margin)
    th = form.theta
    return EllipticCheck(True, None, margin, float(th[0]), float(np.pi - th[-1]))


def elliptic_angles(W: np.ndarray) -> np.ndarray:
    """Sorted rotation angles theta_1 <= ... <= theta_n in (0, pi)."""
    return _region_form(W).theta.copy()


def elliptic_splitting(W: np.ndarray) -> EllipticSplitting:
    """Adapted symplectic basis and angles realising the plane splitting.

    The normal form's eigenvector of the angle theta, column k of E Y,
    scaled to the kappa-normalised v = sqrt(2 sin theta) E Y e_k, spans the
    plane with p = sqrt(2) Re v and q = -sqrt(2) Im v, which makes the basis
    symplectic by construction up to roundoff.  Within a repeated angle the
    splitting is non-unique; the Hermitian eigensolver breaks the tie.
    """
    form = _region_form(W)
    angles = form.theta.copy()
    V = form.E @ form.Y * np.sqrt(2 * np.sin(angles))
    B = _SQRT2 * np.concatenate((V.real, -V.imag), axis=1)
    # |B|_F^2 >= 2n for a symplectic B, so a tolerance relative to it alone
    # decides as one relative to max(1, |B|_F^2) would
    ok, residual = _symplectic_check(B, 1e-6)
    if not ok:
        raise RuntimeError(f"splitting basis lost symplecticity: {residual:.3e}")
    return EllipticSplitting(n=angles.size, angles=angles, basis=B)


def _log_and_splitting(
    W: np.ndarray,
) -> tuple[np.ndarray, EllipticSplitting, np.ndarray]:
    """`log_elliptic(W)` with the splitting it is assembled from and the
    inverse of the splitting's basis, for callers that also need the flow
    exp(s X) = B R(s theta) B^{-1} (see `causal.connect`)."""
    split = elliptic_splitting(W)
    if np.pi - split.angles[-1] < 1e-6:  # the largest angle is the last
        warnings.warn(
            "angle within 1e-6 of pi; logarithm is ill-conditioned",
            IllConditionedWarning,
        )
    X, B_inv = split._ambient(block_rotation_generator(split.angles))
    return X, split, B_inv


def log_elliptic(W: np.ndarray) -> np.ndarray:
    """Principal logarithm of a positively elliptic W.

    The result is the unique X in the positive cone with spectrum in
    i(-pi, pi) and exp(X) = W.  Assembled from the plane splitting, then
    symmetry-cleaned by projecting Omega @ X onto its symmetric part.
    Emits IllConditionedWarning when an angle is within 1e-6 of pi.
    """
    return _log_and_splitting(W)[0]


def _tau_of(theta: np.ndarray) -> np.ndarray:
    """The time function of angles (..., n), summed over the last axis."""
    return np.add.reduce(np.log(theta) - np.log(np.pi - theta), axis=-1)


def tau(W: np.ndarray) -> float:
    """Time function: sum of ln(theta_k) - ln(pi - theta_k) over the angles."""
    return float(_tau_of(_region_form(W).theta))


def mu_elliptic(W: np.ndarray) -> float:
    """Maslov value (theta_1 + ... + theta_n) / (2 pi) of the canonical lift."""
    return float(np.add.reduce(_region_form(W).theta) / (2 * np.pi))


def minus_inverse(W: np.ndarray) -> np.ndarray:
    """The involution W -> -W^{-1}; maps angles theta to pi - theta."""
    W = require_symplectic(W, TOL_GROUP)
    return -symplectic_inverse(W)
