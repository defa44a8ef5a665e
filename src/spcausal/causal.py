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
    cone_status,
    half_dim,
    require_hamiltonian,
    require_symplectic,
    symplectic_inverse,
    symmetrized_form,
)
from .elliptic import (
    _normal_form,
    _stack_membership,
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
from .krein import Location, _spectrum, krein_spectrum

#: Interior points of each stacked narrowing round of `exit_times`; seven
#: equally spaced points shrink the bracket eightfold, three bisection steps.
_NARROW_POINTS = 7


class ExitReason(Enum):
    """Boundary feature reached when a geodesic leaves the elliptic region."""

    EIGENVALUE_MINUS_ONE = "eigenvalue -1"
    EIGENVALUE_ONE = "eigenvalue +1"
    KREIN_DEGENERACY = "krein degeneracy"
    OFF_CIRCLE = "off-circle"


@dataclass(frozen=True)
class ExitTimes:
    """Exit parameters of t -> exp(t X) W0 from the elliptic region.

    The flow stays in the region for t in (-c1, c2).  Infinite entries flag
    that no exit was bracketed before t_max (the region theory guarantees a
    finite exit for nonzero causal X, so the flag means t_max was too small).
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
    region (angles in [0, pi]; eigenvalues +-1 contribute 0 and pi).
    """
    W = require_symplectic(W, tol=1e-7)
    nf = _normal_form(W)
    if nf is not None:
        return float(np.exp(np.mean(np.log(nf[0]))))
    # closure points with eigenvalues +-1, out of the Cayley transform's reach
    spec = _spectrum(W, on_degenerate="mark")
    angles: list[float] = []
    for c in spec.clusters:
        if c.location is Location.OFF_CIRCLE:
            raise NotEllipticError("off-circle eigenvalue")
        if c.location is Location.PLUS_ONE:
            angles.extend([0.0] * (c.alg_mult // 2))
        elif c.location is Location.MINUS_ONE:
            angles.extend([np.pi] * (c.alg_mult // 2))
        elif c.value.imag > 0:
            if c.krein_signature is not None and c.krein_signature[1] > 0:
                raise NotEllipticError("indefinite Krein signature")
            angles.extend([c.angle] * c.alg_mult)
    th = np.array(sorted(angles))
    if th.size != spec.n:
        raise NotEllipticError("angle count is not n")
    if np.any(th == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(th))))


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
    in the error (0 disables the check).
    """
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
        inside = _stack_membership(points)
        if not inside.all():
            k = int(np.argmin(inside))
            reason = is_positively_elliptic(points[k]).reason
            raise NotConnectableError(
                f"geodesic leaves the region at s={s[k]:.4f}: {reason}"
            )
    return GeodesicConnection(tangent=X, status=status)


def _exit_reason(W: np.ndarray) -> ExitReason:
    # W sits just past the exit, so the offending eigenvalue pair is still
    # near the boundary feature it crossed; spectral proximity to +-1 is a
    # more reliable witness than the membership diagnosis (a hyperbolic
    # pair reads as "off-circle" immediately after a -1 collision).
    evals = np.linalg.eigvals(W)
    d_minus = float(np.min(np.abs(evals + 1.0)))
    d_plus = float(np.min(np.abs(evals - 1.0)))
    if min(d_minus, d_plus) <= 0.1:
        if d_minus <= d_plus:
            return ExitReason.EIGENVALUE_MINUS_ONE
        return ExitReason.EIGENVALUE_ONE
    chk = is_positively_elliptic(W)
    if chk.reason == "off-circle eigenvalue":
        return ExitReason.OFF_CIRCLE
    return ExitReason.KREIN_DEGENERACY


def _boundary_gap(W: np.ndarray, pi_crossing: bool) -> float:
    """Signed distance-like indicator of the elliptic boundary.

    Positive strictly inside the region, negative past an exit.  For a
    pi-crossing (eigenvalue -1) the indicator is pi minus the largest
    Krein-positive phase taken mod 2 pi; for a 0-crossing (eigenvalue +1)
    it is the smallest Krein-positive phase in (-pi, pi].  Off-circle
    eigenvalues subtract their radial deviation, which keeps the sign
    correct when the exiting pair turns hyperbolic.
    """
    spec = krein_spectrum(W, on_degenerate="mark")
    phases: list[float] = []
    off = 0.0
    for c in spec.clusters:
        if c.location is Location.OFF_CIRCLE:
            off = max(off, abs(float(np.log(abs(c.value)))))
        elif c.location is Location.MINUS_ONE:
            phases.append(np.pi)
        elif c.location is Location.PLUS_ONE:
            phases.append(0.0)
        elif c.krein_signature is not None and c.krein_signature[0] > 0:
            phases.append(c.angle)
    if not phases:
        return -off
    if pi_crossing:
        phi = max(a % (2 * np.pi) for a in phases)
        return (np.pi - phi) - off
    return min(phases) - off


def exit_times(
    W0: np.ndarray,
    X: np.ndarray,
    t_max: float = 1e3,
    tol: float = 1e-8,
) -> ExitTimes:
    """Locate the exit parameters of exp(t X) W0 from the elliptic region.

    Brackets each exit between the last member and the first non-member of
    the doubling sequence 1, 2, 4, ... <= t_max, evaluated as one stack,
    then narrows the bracket with stacked membership verdicts on a grid of
    interior points, to width 1e-6 (or tol, if larger).  Exits through an
    eigenvalue +-1 (the generic case for causal directions) are refined by
    root-finding on a signed boundary indicator, which removes the bias of
    the membership detection bands; other exits are narrowed to width tol.
    Raises ValueError unless 0 < t_max < inf and 0 < tol < inf.
    """
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    W0 = require_symplectic(W0, tol=1e-7)
    X = require_hamiltonian(X)
    status = cone_status(X)
    if status is ConeStatus.ZERO:
        raise ZeroDirectionError("direction is numerically zero")
    if not status.causal:
        raise OutsideConeError(f"direction has cone status {status.value}")
    if not is_positively_elliptic(W0):
        raise NotEllipticError("starting point is not positively elliptic")
    flow = geodesic_flow(X, W0)

    def bracket(t_lo: float, ts: np.ndarray, sign: float):
        # [last member, first non-member] of t_lo < ts[0] < ts[1] < ...,
        # where t_lo is a member; None when every ts is a member
        inside = _stack_membership(flow(sign * ts))
        if inside.all():
            return None
        k = int(np.argmin(inside))
        return (float(ts[k - 1]) if k else t_lo), float(ts[k])

    def narrow(t_lo: float, t_hi: float, sign: float, width: float):
        while t_hi - t_lo > width:
            grid = np.linspace(t_lo, t_hi, _NARROW_POINTS + 2)
            lo, hi = bracket(t_lo, grid[1:-1], sign) or (float(grid[-2]), t_hi)
            if hi - lo >= t_hi - t_lo:  # the grid no longer resolves the bracket
                break
            t_lo, t_hi = lo, hi
        return t_lo, t_hi

    def locate(sign: float) -> tuple[float, ExitReason | None]:
        ts = [min(1.0, t_max)]
        while 2.0 * ts[-1] <= t_max:
            ts.append(2.0 * ts[-1])
        found = bracket(0.0, np.array(ts), sign)
        if found is None:
            return float("inf"), None
        t_lo, t_hi = narrow(*found, sign, max(tol, 1e-6))
        reason = _exit_reason(flow(sign * t_hi))
        if reason in (ExitReason.EIGENVALUE_MINUS_ONE, ExitReason.EIGENVALUE_ONE):
            pi_crossing = reason is ExitReason.EIGENVALUE_MINUS_ONE

            def gap(t: float) -> float:
                return _boundary_gap(flow(sign * t), pi_crossing)

            pad = 10 * (t_hi - t_lo)
            a, b = max(t_lo - pad, 0.0), t_hi + pad
            if gap(a) > 0 > gap(b):
                t_star = scipy.optimize.brentq(gap, a, b, xtol=min(tol, 1e-10))
                return float(t_star), reason
        t_lo, t_hi = narrow(t_lo, t_hi, sign, tol)
        return 0.5 * (t_lo + t_hi), reason

    c2, fwd = locate(1.0)
    c1, bwd = locate(-1.0)
    return ExitTimes(c1=c1, c2=c2, backward_reason=bwd, forward_reason=fwd)
