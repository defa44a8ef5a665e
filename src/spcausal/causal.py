"""Lorentz-Finsler metric, geodesics, the distance formula, causal
connection inside the elliptic region, and exit times.

Geodesics of the bi-invariant cone structure are the one-parameter flows
t -> exp(t X) W with X in the closed cone.  The metric on the cone interior
is G(X) = det(X)^{1/2n}; it is computed from the Cholesky factor of the
symmetrised Omega @ X (det Omega = 1), which guarantees positivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .core import (
    TOL_GROUP,
    ConeStatus,
    _cone_class,
    _eigh,
    _omega,
    _optimize,
    cone_status,
    require_hamiltonian,
    require_symplectic,
    symplectic_inverse,
    symmetrized_form,
)
from .elliptic import (
    _checked_form,
    _log_and_splitting,
    _rejection_reason,
    _stack_verdicts,
    _symplectic_stack,
)
from .exceptions import (
    DimensionMismatchError,
    NotCausalError,
    NotConnectableError,
    NotEllipticError,
    OutsideConeError,
    ZeroDirectionError,
)
# krein_spectrum stays importable here: the benchmark's tracer rebinds it;
# the closure branch of a checked W reads the memo _spectrum
from .krein import _phases, _spectrum, krein_spectrum  # noqa: F401

#: Condition number of an eigenbasis at and above which a flow is no longer
#: assembled from it.
_BASIS_COND_MAX = 1e8


class ExitReason(Enum):
    """Eigenvalue through which a geodesic leaves the elliptic region.

    Inside the region the eigenvalues on the upper half circle are
    Krein-positive and their conjugates Krein-negative.  An eigenvalue can
    leave the circle, or change its Krein signature, only by colliding with
    one of opposite signature (Krein's strong-stability theory, see
    Yakubovich and Starzhinskii 1975), which is first possible at +1 or -1.
    So an off-circle pair or an indefinite signature is never the first
    boundary feature reached from inside.
    """

    EIGENVALUE_MINUS_ONE = "eigenvalue -1"
    EIGENVALUE_ONE = "eigenvalue +1"


@dataclass(frozen=True)
class ExitTimes:
    """Exit parameters of t -> exp(t X) W0 from the elliptic region.

    The flow stays in the region for t in (-c1, c2); a start on the boundary
    to working precision is not positively elliptic, so an accepted start is
    never on it.  An exit within brentq's xtol = 1e-10 of the start reads
    exactly 0.0: the root is that close, not at the start.  Infinite
    entries flag that no exit was bracketed before t_max (the region theory
    guarantees a finite exit for nonzero causal X, so the flag means t_max
    was too small).
    """

    c1: float
    c2: float
    backward_reason: ExitReason | None
    forward_reason: ExitReason | None

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.c1) and np.isfinite(self.c2))


@dataclass(frozen=True)
class GeodesicConnection:
    """Connecting direction returned by `connect` with its cone status."""

    tangent: np.ndarray
    status: ConeStatus


def finsler_G(X: np.ndarray) -> float:
    """Lorentz-Finsler Lagrangian det(X)^{1/2n} on the closed cone.

    Exactly zero on the TOL_CONE boundary band; raises OutsideConeError elsewhere.
    """
    status = cone_status(X)
    if status is ConeStatus.BOUNDARY:
        return 0.0
    if status is not ConeStatus.INTERIOR:
        raise OutsideConeError(f"direction has cone status {status.value}")
    L = np.linalg.cholesky(symmetrized_form(X))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(np.exp(logdet / len(L)))


def geodesic_flow(X: np.ndarray, W0: np.ndarray):
    """Return a callable t -> exp(t X) @ W0, diagonalising X once.

    A scalar t gives the point; a 1-D array of N values gives the
    (N, 2n, 2n) stack of points.  Falls back to scipy.linalg.expm when the
    eigenbasis of X is ill-conditioned.  Raises NotSymplecticError unless
    W0 is symplectic at TOL_GROUP, and DimensionMismatchError when X and W0
    differ in shape.
    """
    return _flow(*_direction(X, W0))[0]


def _direction(X: np.ndarray, W0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X after `require_hamiltonian` and W0 after `require_symplectic` at
    TOL_GROUP; DimensionMismatchError unless X has W0's shape."""
    W0, X = require_symplectic(W0, TOL_GROUP), require_hamiltonian(X)
    if X.shape != W0.shape:
        raise DimensionMismatchError(f"direction has shape {X.shape}, "
                                     f"expected {W0.shape}")
    return X, W0


def _flow(X: np.ndarray, W0: np.ndarray):
    """(flow, eigen): flow is t -> exp(t X) @ W0 from X = V diag(d) V^{-1},
    eigen (d, V, V^{-1} W0), or from expm, eigen None, when the eigenbasis
    of X is ill-conditioned (cond(V) >= _BASIS_COND_MAX) or eig fails."""
    try:
        d, V = np.linalg.eig(X)
        if np.linalg.cond(V) < _BASIS_COND_MAX:
            VW = np.linalg.inv(V) @ W0.astype(complex)
            return lambda t: np.real(
                (V * np.exp(np.multiply.outer(t, d)[..., None, :])) @ VW
            ), (d, V, VW)
    except np.linalg.LinAlgError:
        pass
    return lambda t: scipy.linalg.expm(np.multiply.outer(t, X)) @ W0, None


def dist_formula(W: np.ndarray) -> float:
    """Lorentzian distance from id to the elliptic-sheet lift of W.

    Geometric mean of the rotation angles, valid on the closure of the
    region (angles in [0, pi]; eigenvalues +-1 contribute 0 and pi).  A
    member's angles come from its normal form, any other W's from its Krein
    labelling.  The closure is where P = 2 sym(Omega W) is positive
    semidefinite, so a W whose labelling passes but whose lambda_min(P) is
    below -1e-8 max(1, lambda_max(P)), a Jordan shear at +-1 of the wrong
    sign, raises NotEllipticError("outside the closure of the region").
    """
    form = _checked_form(W)
    if form.inside:
        return float(np.exp(np.mean(np.log(form.theta))))
    # closure points with eigenvalues +-1, where sym(Omega W) is singular
    ph = _phases(_spectrum(W)[0])
    if ph.off_circle:
        raise NotEllipticError("off-circle eigenvalue")
    if any(a < 0 for a in ph.plus):
        raise NotEllipticError("indefinite Krein signature")
    if len(ph.plus) != form.theta.size:
        raise NotEllipticError("angle count is not n")
    if form.p_min < -1e-8 * max(1.0, form.p_max):
        raise NotEllipticError("outside the closure of the region")
    if 0.0 in ph.plus:
        return 0.0
    return float(np.exp(np.mean(np.log(sorted(ph.plus)))))


def path_length(path) -> float:
    """Left Riemann sum of the Finsler Lagrangian over a causal path.

    Accepts any object with `grid` and `tangents` attributes (see
    pathlab.CausalPath).  Raises OutsideConeError naming the offending grid
    index if a tangent is not cone-admissible, and DimensionMismatchError
    unless the grid has at least steps + 1 entries.
    """
    grid = np.asarray(path.grid, dtype=float)
    if len(grid) <= len(path.tangents):
        raise DimensionMismatchError(f"{len(path.tangents)} steps need steps + 1 "
                                     f"grid points, got {len(grid)}")
    total = 0.0
    for i, X in enumerate(path.tangents):
        dt = grid[i + 1] - grid[i]
        try:
            total += finsler_G(X) * dt
        except OutsideConeError as exc:
            raise OutsideConeError(f"tangent at grid index {i}: {exc}") from exc
    return total


def connect(
    W0: np.ndarray, W1: np.ndarray, samples: int = 64
) -> GeodesicConnection:
    """Geodesic direction X with exp(X) @ W0 = W1 inside the elliptic region.

    Valid only when the quotient W1 @ W0^{-1} is positively elliptic; the
    caller reads ConeStatus.INTERIOR as a chronological relation and
    BOUNDARY as causal-null.  X is the logarithm of the quotient.  `samples`
    equally spaced interior points of the connecting geodesic are checked
    as one stack of membership verdicts to stay in the region; the first
    that leaves it is named in the error (0 disables the check; a count
    that is negative, a bool or not an integer raises ValueError).  The
    points come from the splitting the logarithm is assembled from: with
    Q = B R(theta) B^{-1}, exp(s X) W0 = B R(s theta) B^{-1} W0, which needs
    no second eigensolve.
    Raises DimensionMismatchError when W0 and W1 differ in shape.
    """
    integer = isinstance(samples, (int, np.integer)) and not isinstance(samples, bool)
    if not integer or samples < 0:
        raise ValueError("samples must be a non-negative integer")
    W0 = require_symplectic(W0, TOL_GROUP)
    W1 = require_symplectic(W1, TOL_GROUP)
    if W1.shape != W0.shape:
        raise DimensionMismatchError(f"W1 has shape {W1.shape}, expected {W0.shape}")
    Q = W1 @ symplectic_inverse(W0)
    try:
        X, split, B_inv = _log_and_splitting(Q)
    except NotEllipticError as exc:
        raise NotConnectableError(f"quotient not positively elliptic: "
                                  f"{exc.reason}") from exc
    status = _cone_class(X)  # X = -Omega S with S symmetric: Hamiltonian
    if not status.causal:
        raise NotCausalError(f"connecting direction has cone status {status.value}")
    if samples > 0:
        # the samples, then the endpoint s = 1
        s = np.linspace(0.0, 1.0, samples + 2)[1:]
        # R(s theta) rotates the rows (p_k, q_k) of B^{-1} W0
        Y, n = B_inv @ W0, split.n
        st = np.multiply.outer(s, split.angles)[..., None]
        c, sn = np.cos(st), np.sin(st)
        points = split.basis @ np.concatenate(
            [c * Y[:n] - sn * Y[n:], sn * Y[:n] + c * Y[n:]], axis=-2
        )
        endpoint_err = np.linalg.norm(points[-1] - W1)
        if endpoint_err > 1e-6 * max(1.0, np.linalg.norm(W1)):
            raise NotConnectableError(f"endpoint mismatch {endpoint_err:.3e} "
                                      "after logarithm")
        s, points = s[:-1], points[:-1]
        inside = _stack_verdicts(_symplectic_stack(points))
        if not inside.all():
            k = int(np.argmin(inside))
            raise NotConnectableError(f"geodesic leaves the region at "
                                      f"s={s[k]:.4f}: {_rejection_reason(points[k])}")
    return GeodesicConnection(tangent=X, status=status)


def exit_times(
    W0: np.ndarray,
    X: np.ndarray,
    t_max: float = 1e3,
) -> ExitTimes:
    """Locate the exit parameters of exp(t X) W0 from the elliptic region.

    W is in the region exactly when sym(Omega W) is positive definite (see
    `elliptic._normal_form`).  Each exit is the first root of
    g(t) = lambda_min(sym(M)), M = Omega exp(+-t X) W0, one values-only
    LAPACK solve per evaluation; M is Re((Omega V e^{td}) V^{-1} W0) on
    `geodesic_flow`'s eigenbasis X = V diag(d) V^{-1}, with Omega V and
    V^{-1} W0 formed once, else Omega times the expm flow.  Each direction
    scans s, 2s, 4s, ... <= t_max from s = min(1, t_max) and stops at the
    first g <= 0, which brackets the root with the point before it (0 for
    the first); brentq locates it on the same g to xtol = 1e-10, starting
    from the two scanned ends.  The start's verdict
    (`elliptic._stack_verdicts`) puts g(0) above its roundoff, 4 eps
    |sym(Omega W0)|, so an accepted start is never on the boundary; an
    exit within xtol of it reads exactly 0.0.  By Krein continuity (see
    ExitReason) the flow leaves backward through +1 and forward through -1,
    as Krein-positive eigenvalues turn counterclockwise along a causal flow.
    Raises ValueError unless 0 < t_max < inf, NotSymplecticError unless W0
    is symplectic at TOL_GROUP, DimensionMismatchError when X and W0 differ
    in shape, and NotEllipticError when W0 fails `is_positively_elliptic`.
    """
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    X, W0 = _direction(X, W0)
    status = _cone_class(X)
    if status is ConeStatus.ZERO:
        raise ZeroDirectionError("direction is numerically zero")
    if not status.causal:
        raise OutsideConeError(f"direction has cone status {status.value}")
    if not _stack_verdicts(W0[None])[0]:
        raise NotEllipticError("starting point is not positively elliptic")
    flow, eigen = _flow(X, W0)
    O = _omega(W0.shape[0] // 2)
    if eigen is not None:
        d, OV, VW = eigen[0], O @ eigen[1], eigen[2]

    def gap(t: float):
        M = O @ flow(t) if eigen is None else ((OV * np.exp(t * d)) @ VW).real
        return _eigh(M + M.T, vectors=False)[0][0]

    g0 = gap(0.0)  # > 0 at an accepted start

    def locate(sign: float) -> float:
        a, g_a, b = 0.0, g0, min(1.0, t_max)
        while not (g_b := gap(sign * b)) <= 0:
            if 2.0 * b > t_max:
                return float("inf")
            a, g_a, b = b, g_b, 2.0 * b
        # brentq evaluates the bracket ends first; the scan already holds them
        ends = {a: g_a, b: g_b}
        return _optimize().brentq(lambda t: ends[t] if t in ends else gap(sign * t),
                                  a, b, xtol=1e-10)

    c1, c2 = locate(-1.0), locate(1.0)
    bwd = ExitReason.EIGENVALUE_ONE if c1 < np.inf else None
    fwd = ExitReason.EIGENVALUE_MINUS_ONE if c2 < np.inf else None
    return ExitTimes(c1=c1, c2=c2, backward_reason=bwd, forward_reason=fwd)
