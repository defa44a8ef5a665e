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
import scipy.optimize

from .core import (
    ConeStatus,
    _omega,
    cone_status,
    half_dim,
    require_hamiltonian,
    require_symplectic,
    symplectic_inverse,
    symmetrized_form,
)
from .elliptic import (
    _checked_form,
    _stack_normal_form,
    is_positively_elliptic,
    log_elliptic,
)
from .exceptions import (
    NotCausalError,
    NotConnectableError,
    NotEllipticError,
    OutsideConeError,
    ZeroDirectionError,
)
# krein_spectrum stays importable here: the benchmark's tracer rebinds it;
# the closure branch of a checked W reads the memo _spectrum
from .krein import _phases, _spectrum, krein_spectrum  # noqa: F401


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
    never on it.  An exit within brentq's xtol = min(tol, 1e-10) of the start
    reads exactly 0.0: the root is that close, not at the start.  Infinite
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


def finsler_G(X: np.ndarray, tol: float = 1e-9) -> float:
    """Lorentz-Finsler Lagrangian det(X)^{1/2n} on the closed cone.

    Exactly zero on the cone boundary; raises OutsideConeError elsewhere.
    """
    X = np.asarray(X, dtype=float)
    n = half_dim(X)
    status = cone_status(X, tol)
    if status is ConeStatus.BOUNDARY:
        return 0.0
    if status is not ConeStatus.INTERIOR:
        raise OutsideConeError(f"direction has cone status {status.value}")
    L = np.linalg.cholesky(symmetrized_form(X))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(np.exp(logdet / (2 * n)))


def geodesic_flow(X: np.ndarray, W0: np.ndarray):
    """Return a callable t -> exp(t X) @ W0, diagonalising X once.

    A scalar t gives the point; a 1-D array of N values gives the
    (N, 2n, 2n) stack of points.  Falls back to scipy.linalg.expm when the
    eigenbasis of X is ill-conditioned.
    """
    X = require_hamiltonian(X)
    W0 = np.asarray(W0, dtype=float)
    try:
        d, V = np.linalg.eig(X)
        if np.linalg.cond(V) < 1e8:
            Vi = np.linalg.inv(V)
            VW = Vi @ W0.astype(complex)
            return lambda t: np.real(
                (V * np.exp(np.multiply.outer(t, d)[..., None, :])) @ VW
            )
    except np.linalg.LinAlgError:
        pass
    return lambda t: scipy.linalg.expm(np.multiply.outer(t, X)) @ W0


def dist_formula(W: np.ndarray) -> float:
    """Lorentzian distance from id to the elliptic-sheet lift of W.

    Geometric mean of the rotation angles, valid on the closure of the
    region (angles in [0, pi]; eigenvalues +-1 contribute 0 and pi).  A
    member's angles come from the normal form that the region entries share
    (`elliptic._checked_form`); any other W goes through its Krein
    labelling.  The closure is where P = 2 sym(Omega W) is positive
    semidefinite, so a W whose labelling passes but whose lambda_min(P) is
    below -1e-8 max(1, lambda_max(P)), a Jordan shear at +-1 of the wrong
    sign, raises NotEllipticError("outside the closure of the region").
    """
    W = np.asarray(W, dtype=float)
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
    index if a tangent is not cone-admissible.
    """
    grid = np.asarray(path.grid, dtype=float)
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
    as one stack to stay in the region; the first that leaves it is named
    in the error (0 disables the check, a negative count raises ValueError).
    """
    if samples < 0:
        raise ValueError("samples must be a non-negative integer")
    W0 = require_symplectic(W0, tol=1e-7)
    W1 = require_symplectic(W1, tol=1e-7)
    Q = W1 @ symplectic_inverse(W0)
    try:
        X = log_elliptic(Q)
    except NotEllipticError as exc:
        raise NotConnectableError(
            f"quotient not positively elliptic: {exc.reason}"
        ) from exc
    status = cone_status(X)
    if not status.causal:
        raise NotCausalError(f"connecting direction has cone status {status.value}")
    if samples > 0:
        flow = geodesic_flow(X, W0)
        endpoint_err = np.linalg.norm(flow(1.0) - W1)
        if endpoint_err > 1e-6 * max(1.0, np.linalg.norm(W1)):
            raise NotConnectableError(
                f"endpoint mismatch {endpoint_err:.3e} after logarithm"
            )
        s = np.linspace(0.0, 1.0, samples + 2)[1:-1]
        points = flow(s)
        inside, _ = _stack_normal_form(points)
        if not inside.all():
            k = int(np.argmin(inside))
            reason = is_positively_elliptic(points[k]).reason
            raise NotConnectableError(
                f"geodesic leaves the region at s={s[k]:.4f}: {reason}"
            )
    return GeodesicConnection(tangent=X, status=status)


def exit_times(
    W0: np.ndarray,
    X: np.ndarray,
    t_max: float = 1e3,
    tol: float = 1e-8,
) -> ExitTimes:
    """Locate the exit parameters of exp(t X) W0 from the elliptic region.

    W is in the region exactly when sym(Omega W) is positive definite (see
    `elliptic._normal_form`).  Each exit is the first root of
    g(t) = lambda_min(sym(Omega exp(+-t X) W0)): g is evaluated as one stack
    on 0 and the doubling sequence 1, 2, 4, ... <= t_max, the first grid
    point with g <= 0 brackets the root, and brentq locates it to
    xtol = min(tol, 1e-10).  The start check puts g(0) above its roundoff,
    4 eps |sym(Omega W0)|, so an accepted start is never on the boundary;
    an exit within xtol of it reads exactly 0.0.  By Krein continuity (see
    ExitReason) the flow leaves backward through +1 and forward through -1,
    as Krein-positive eigenvalues turn counterclockwise along a causal flow.
    Raises ValueError unless 0 < t_max < inf and 0 < tol < inf, and
    NotEllipticError when W0 fails `is_positively_elliptic`.
    """
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    W0 = np.asarray(W0, dtype=float)
    start = _checked_form(W0)
    X = require_hamiltonian(X)
    status = cone_status(X)
    if status is ConeStatus.ZERO:
        raise ZeroDirectionError("direction is numerically zero")
    if not status.causal:
        raise OutsideConeError(f"direction has cone status {status.value}")
    if not start.inside:
        raise NotEllipticError("starting point is not positively elliptic")
    flow = geodesic_flow(X, W0)
    O = _omega(half_dim(W0))

    def gap(t):
        M = O @ flow(t)
        return np.linalg.eigvalsh(M + np.swapaxes(M, -1, -2))[..., 0]

    ts = [0.0, min(1.0, t_max)]
    while 2.0 * ts[-1] <= t_max:
        ts.append(2.0 * ts[-1])
    ts = np.array(ts)

    def locate(sign: float) -> float:
        g = gap(sign * ts)
        k = 1 + int(np.argmax(g[1:] <= 0))  # g(0) > 0 at an accepted start
        if g[k] > 0:
            return float("inf")
        return scipy.optimize.brentq(
            lambda t: gap(sign * t), ts[k - 1], ts[k], xtol=min(tol, 1e-10)
        )

    c1, c2 = locate(-1.0), locate(1.0)
    bwd = ExitReason.EIGENVALUE_ONE if c1 < np.inf else None
    fwd = ExitReason.EIGENVALUE_MINUS_ONE if c2 < np.inf else None
    return ExitTimes(c1=c1, c2=c2, backward_reason=bwd, forward_reason=fwd)
