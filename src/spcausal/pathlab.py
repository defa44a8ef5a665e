"""Seeded Monte-Carlo generation of causal paths, eigenphase tracking,
Maslov lifting along paths, and the desk-scale verification harness.

Paths are piecewise exponentials W_{i+1} = exp(dt_i X_i) W_i with
right-trivialized cone tangents X_i, which keeps every grid matrix
symplectic to the accuracy of the matrix exponential.  All randomness is
derived deterministically from a single seed.
"""

from __future__ import annotations

import copy
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._version import __version__
from .core import (
    TOL_GROUP,
    ConeStatus,
    _omega,
    _optimize,
    _real,
    _row_norms,
    _symplectic_check,
    block_rotation,
    block_rotation_generator,
    cone_status,
    is_symplectic,
    require_symplectic,
    standard_J,
    symplectic_inverse,
)
from .causal import (
    ExitReason,
    connect,
    dist_formula,
    exit_times,
    finsler_G,
    geodesic_flow,
)
from .elliptic import (
    _checked_form,
    _normal_form,
    _stack_verdicts,
    _symplectic_stack,
    _tau_of,
    elliptic_angles,
    is_positively_elliptic,
    log_elliptic,
    minus_inverse,
    mu_elliptic,
    tau,
)
from .exceptions import (
    DimensionMismatchError,
    DriftExceededError,
    MatchingAmbiguousError,
    NotConnectableError,
    NotSymplecticError,
    OutsideConeError,
    SignatureDegenerateError,
)
from .krein import _phases, krein_spectrum, nu

#: Symplecticity drift bound for generated paths: the group tolerance.
DRIFT_TOL = TOL_GROUP
#: Per-step phase jump bound before adaptive refinement kicks in.
PHASE_JUMP = np.pi / 4
_MAX_REFINE = 20


@dataclass(frozen=True)
class CausalPath:
    """Discrete causal path: grid, right-trivialized tangents, matrices."""

    grid: np.ndarray
    tangents: tuple[np.ndarray, ...]
    matrices: tuple[np.ndarray, ...]

    @property
    def steps(self) -> int:
        return len(self.tangents)

    @property
    def endpoint(self) -> np.ndarray:
        return self.matrices[-1]

    def validate(self, drift_tol: float = DRIFT_TOL) -> None:
        """Check the CausalPath invariants; raises on violation."""
        if not len(self.grid) == len(self.matrices) == len(self.tangents) + 1:
            raise DimensionMismatchError("grid/tangent/matrix counts are inconsistent")
        for i, W in enumerate(self.matrices):
            chk = is_symplectic(W, tol=drift_tol)
            if not chk:
                raise DriftExceededError(
                    f"symplectic residual {chk.residual:.3e} at grid index {i}"
                )
        for i, X in enumerate(self.tangents):
            if not cone_status(X).causal:
                raise OutsideConeError(
                    f"tangent at grid index {i} is not cone-admissible"
                )


@dataclass(frozen=True)
class PhaseTrack:
    """Continuous unit-circle eigenphases along a path with Krein labels."""

    grid: np.ndarray
    plus: np.ndarray   # (N+1, n) continuous Krein-positive phases
    minus: np.ndarray  # (N+1, n) continuous Krein-negative phases
    crossings: tuple[tuple[int, str, float], ...] = field(default_factory=tuple)
    off_circle: np.ndarray | None = None


def random_cone_element(seed, n: int, scale: float = 1.0) -> np.ndarray:
    """Seeded interior cone element X = Omega^{-1} (A^T A + eps I) * scale.
    Raises ValueError unless 0 < scale < inf."""
    if not 0 < scale < np.inf:
        raise ValueError("scale must be positive and finite")
    return _cone_draws(np.random.default_rng(seed), n) * scale


def _cone_draws(rng, n: int, shape: tuple = ()) -> np.ndarray:
    """Omega^{-1} (A^T A + eps I) for standard normal A of shape (*shape, 2n, 2n)."""
    A = rng.standard_normal((*shape, 2 * n, 2 * n))
    return -_omega(n) @ (A.swapaxes(-1, -2) @ A + 1e-3 * np.eye(2 * n))


def random_symplectic(seed, n: int, scale: float = 1.0) -> np.ndarray:
    """Seeded symplectic matrix exp(X) for a random Hamiltonian X.
    Raises ValueError unless scale is finite."""
    if not -np.inf < scale < np.inf:
        raise ValueError("scale must be finite")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, 2 * n))
    S = (A + A.T) / 2
    O = _omega(n)
    return scipy.linalg.expm(-O @ S * scale)


def random_elliptic(seed, n: int, margin: float = 0.05) -> np.ndarray:
    """Seeded positively elliptic matrix with largest angle in
    (margin, pi - margin).  Raises ValueError unless 0 < margin < pi / 2."""
    if not 0 < margin < np.pi / 2:
        raise ValueError("margin must satisfy 0 < margin < pi / 2")
    rng = np.random.default_rng(seed)
    X = random_cone_element(rng, n)
    rho = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
    target = rng.uniform(margin, np.pi - margin)
    return scipy.linalg.expm(X * (target / rho))


def random_elliptic_banded(
    seed, n: int, lo: float = 0.5, hi: float = 2.5
) -> np.ndarray:
    """Seeded elliptic matrix with every angle in [lo, hi].

    A conjugated block rotation; useful where quantities like the time
    function must be kept away from the region boundary at the start.
    Raises ValueError unless 0 < lo <= hi < pi.
    """
    if not 0 < lo <= hi < np.pi:
        raise ValueError("lo and hi must satisfy 0 < lo <= hi < pi")
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(lo, hi, n))
    S = random_symplectic(rng, n, scale=0.4)
    return S @ block_rotation(angles) @ symplectic_inverse(S)


def random_torus_pair(seed, n: int):
    """Seeded commuting pair (W0, X) in a conjugated maximal torus.

    Returns (W0, X, angles, speeds) with W0 = S R(angles) S^{-1} and
    X = S gen(speeds) S^{-1} for a common random symplectic S, so the
    eigenphases of exp(t X) W0 are angles + t * speeds: the flow stays on
    the unit circle and the exit times are available in closed form,
    c1 = min(angles / speeds) and c2 = min((pi - angles) / speeds).
    Angles sit in [0.7, 2.2] and speeds in [0.5, 1.0], which keeps the
    non-exiting terms of the time function from masking its divergence.
    """
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.7, 2.2, n))
    speeds = rng.uniform(0.5, 1.0, n)
    S = random_symplectic(rng, n, scale=0.4)
    Si = symplectic_inverse(S)
    W0 = S @ block_rotation(angles) @ Si
    X = S @ block_rotation_generator(speeds) @ Si
    return W0, X, angles, speeds


def _require_count(value, name: str) -> None:
    """Raise ValueError unless value is an integer >= 1 (numpy's too; not a bool)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < 1:
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")


def geodesic_path(
    X: np.ndarray, W0: np.ndarray, t0: float, t1: float, steps: int
) -> CausalPath:
    """Uniform-grid discretisation of the geodesic t -> exp(t X) W0.
    Raises ValueError unless steps is an integer >= 1 and t0, t1 are finite,
    and `geodesic_flow`'s errors for X and W0."""
    _require_count(steps, "steps")
    for name, t in (("t0", t0), ("t1", t1)):
        if not -np.inf < t < np.inf:
            raise ValueError(f"{name} must be finite, got {t!r}")
    grid = np.linspace(t0, t1, steps + 1)
    flow = geodesic_flow(X, W0)
    matrices = tuple(flow(grid))
    tangents = tuple(X.copy() for _ in range(steps))
    return CausalPath(grid=grid, tangents=tangents, matrices=matrices)


def random_causal_path(
    seed,
    n: int,
    steps: int,
    W_start: np.ndarray | None = None,
    step_size: float = 0.05,
    confine: bool = False,
) -> CausalPath:
    """Piecewise-exponential causal path with fresh random cone tangents.

    Tangents are normalised to unit Frobenius norm.  With ``confine=True``
    steps that would leave the positively elliptic region are retried with
    halved step size (up to 20 halvings).  Symplecticity drift beyond
    DRIFT_TOL raises DriftExceededError; it is checked before membership.
    Attempts are checked a window at a time, each check as one stack, with
    the path, error and Generator draws of trying them one by one: a chain of
    at most as many steps as the form memo holds, restarting at one after a
    reject and doubling while all are accepted, or after a reject the ladder
    of the step's halvings.  Accepted forms are stored in the memo (README,
    "The two memos").  Raises ValueError unless n and steps are integers >= 1
    and 0 < step_size < inf, DimensionMismatchError unless W_start has shape
    (2n, 2n), and NotSymplecticError unless it is symplectic at TOL_GROUP.
    """
    _require_count(n, "n")
    _require_count(steps, "steps")
    if not 0 < step_size < np.inf:
        raise ValueError("step_size must be positive and finite")
    rng = caller = np.random.default_rng(seed)
    if rng is seed or isinstance(seed, np.random.BitGenerator):
        rng = copy.deepcopy(caller)  # the caller's advances by the draws tried
    W = np.eye(2 * n) if W_start is None else _real(W_start, NotSymplecticError)
    if W.shape != (2 * n, 2 * n):
        raise DimensionMismatchError(
            f"W_start has shape {W.shape}, expected {(2 * n, 2 * n)}"
        )
    require_symplectic(W, TOL_GROUP)
    dts = [step_size]
    for _ in range(_MAX_REFINE):
        dts.append(dts[-1] / 2)
    window = _checked_form.cache_info().maxsize
    grid, tangents, matrices = [0.0], [], [W]
    drawn = np.empty((0, 2 * n, 2 * n))  # unit tangents not yet tried
    chain = steps  # the next chain's length; 0 for a ladder
    while len(tangents) < steps:
        k = min(chain, steps - len(tangents), window) if chain else _MAX_REFINE
        if len(drawn) < k:
            X = _cone_draws(rng, n, (k - len(drawn),))
            X /= _row_norms(X)[:, None, None]
            drawn = np.concatenate((drawn, X))
        X, W = drawn[:k], matrices[-1]
        E = scipy.linalg.expm(
            (step_size if chain else np.array(dts[1:])[:, None, None]) * X)
        with np.errstate(over="ignore", invalid="ignore"):  # rows past a drift too
            Ws = np.empty_like(E) if chain else E @ W
            for j in range(k if chain else 0):  # a chain's steps, each from the last
                np.matmul(E[j], Ws[j - 1] if j else W, out=Ws[j])
        passed = _symplectic_check(Ws, DRIFT_TOL, stack=True)[0].tolist()
        ok = passed.index(False) if False in passed else k  # before a drift
        form = _normal_form(Ws[:ok]) if confine else None
        inside = form.inside.tolist() if confine else [True] * ok
        # a window ends at a reject in a chain, at the step in a ladder
        event = inside.index(not chain) if (not chain) in inside else ok
        tried = min(event + 1, k)  # the attempts the one-by-one walk makes
        drawn = drawn[tried:]
        if caller is not rng:
            caller.standard_normal((tried, 2 * n, 2 * n))
        if event == ok < k:
            r = _symplectic_check(Ws[ok], DRIFT_TOL)[1]
            raise DriftExceededError(f"symplectic drift {r:.3e} exceeds {DRIFT_TOL}")
        if chain:
            take, dt = range(event), step_size
            # a chain restarts short after a ladder: near the boundary a
            # full window would mostly compute attempts past the next reject
            chain = 2 * chain if event == k else 0
        elif event < k:
            take, dt, chain = (event,), dts[event + 1], 1
        else:
            raise DriftExceededError("could not confine step to the elliptic region")
        for j in take:  # copies, so a path never holds a window's stacks
            tangents.append(X[j].copy())
            grid.append(grid[-1] + dt)
            matrices.append(Ws[j].copy())
            if confine:  # each field as in a single form: p_min and p_max 0-d
                _checked_form.prime(Ws[j], form._make(
                    (form.inside[j], *(a[j, ...] for a in form[1:]))))
    return CausalPath(
        grid=np.array(grid), tangents=tuple(tangents), matrices=tuple(matrices)
    )


def _wrap(a: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles to (-pi, pi]; a float stays a float."""
    return -((-a + np.pi) % (2 * np.pi) - np.pi)


def _labeled_args(W: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Raw unit-circle eigenphases split by Krein label (see `krein._phases`),
    or None off circle."""
    spec = krein_spectrum(W, on_degenerate="mark")
    ph = _phases(spec)
    if ph.off_circle:
        return None
    if ph.degenerate:
        raise SignatureDegenerateError("degenerate Krein signature on the unit circle")
    if len(ph.plus) != spec.n or len(ph.minus) != spec.n:
        return None
    return np.array(ph.plus), np.array(ph.minus)


def _match(prev: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, float]:
    """Continuous continuation of prev onto the raw phases (mod 2 pi)."""
    diff = _wrap(raw[None, :] - prev[:, None])
    # unlike |diff|, the squared cost never ties phases that move together
    rows, cols = _optimize().linear_sum_assignment(diff**2)
    d = diff[rows, cols]  # the cost is square: rows are every row, in order
    return prev + d, max(map(abs, d.tolist()), default=0.0)


def _grid_readings(path: CausalPath, members: Callable, read: Callable) -> list:
    """One reading per grid matrix: ``members(theta)`` reads the region
    members off the rows of the stacked angles, and `read` every other
    matrix.  Stored forms are read first (``peek``); only the rest are checked
    and formed, as one stack.  Raises DimensionMismatchError unless the grid
    and the matrices have at least steps + 1 entries and the matrices one
    shape, even when their forms are stored."""
    if min(len(path.grid), len(path.matrices)) <= path.steps:
        raise DimensionMismatchError(
            f"{path.steps} steps need steps + 1 grid points and matrices, "
            f"got {len(path.grid)} and {len(path.matrices)}")
    if len({W.shape for W in map(np.asarray, path.matrices)}) > 1:
        raise DimensionMismatchError("path matrices differ in shape")
    # each a stored form (inside, theta, ...) or None, then the misses' rows
    found = [_checked_form.peek(W) for W in path.matrices]
    miss = [i for i, f in enumerate(found) if f is None]
    if miss:
        form = _normal_form(_symplectic_stack([path.matrices[i] for i in miss]))
        for i, row in zip(miss, zip(form.inside, form.theta)):
            found[i] = row
    theta = np.array([f[1] for f in found])
    return [m if f[0] else read(W) for W, f, m in
            zip(path.matrices, found, members(theta))]


def _walker(read: Callable, step: Callable, limit: float, message: str) -> Callable:
    """``walk(state, W_from, X, dt, reading)`` over one path step: the end
    state and the signed jumps of ``step(state, reading)``, summed as the
    halvings nest; a None state ends the walk.  A jump above `limit` in size
    halves the step through the tangent X and reads the midpoint and the end
    with `read`; past _MAX_REFINE halvings it raises MatchingAmbiguousError."""
    def walk(state, W_from, X, dt, reading, depth=0):
        new, jump = step(state, reading)
        if not abs(jump) > limit:
            return new, jump
        if depth >= _MAX_REFINE:
            raise MatchingAmbiguousError(message)
        half = scipy.linalg.expm((dt / 2) * X)
        W_mid = half @ W_from
        mid, j1 = walk(state, W_from, X, dt / 2, read(W_mid), depth + 1)
        if mid is None:
            return None, j1
        end, j2 = walk(mid, W_mid, X, dt / 2, read(half @ W_mid), depth + 1)
        return end, j1 + j2

    return walk


def track_phases(path: CausalPath) -> PhaseTrack:
    """Continuous-argument eigenphases with Krein labels along a path.

    The grid points' phases are read from the stored matrices
    (`_grid_readings`; a member with angles theta has the raw phases
    (theta, -theta)) and joined by nearest-angle assignment per label, a
    step whose phase jump exceeds pi/4 refined (`_walker`).  Off-circle grid
    points are flagged and their phases set to NaN.  The crossings of
    multiples of pi are read off the tracked phases after the walk.
    """
    def match(state, labeled):
        if labeled is None:
            return None, 0.0
        (p, j1), (m, j2) = map(_match, state, labeled)
        return (p, m), max(j1, j2)

    walk = _walker(_labeled_args, match, PHASE_JUMP,
                   "phase jump above pi/4 after refinement is exhausted")
    raw = _grid_readings(path, lambda th: zip(th, -th), _labeled_args)
    N = path.steps
    n = np.shape(path.matrices[0])[0] // 2
    plus = np.full((N + 1, n), np.nan)
    minus = np.full((N + 1, n), np.nan)
    off = np.zeros(N + 1, dtype=bool)
    for i in range(N + 1):
        if i == 0 or off[i - 1]:  # a start: the raw phases, sorted
            result = raw[i] and (np.sort(raw[i][0]), np.sort(raw[i][1]))
        else:
            result = walk((plus[i - 1], minus[i - 1]), path.matrices[i - 1],
                          path.tangents[i - 1], path.grid[i] - path.grid[i - 1],
                          raw[i])[0]
        if result is None:
            off[i] = True
        else:
            plus[i], minus[i] = result
    # on a step between on-circle points, a phase whose floor(phase / pi)
    # moves from k0 to k1 crosses k pi for each k in (min, max] of the two
    F = np.floor(np.hstack([plus, minus]) / np.pi)
    moved = ~off[:-1] & ~off[1:] & (F[1:] != F[:-1]).any(axis=1)
    crossings = [(i + 1, "+-"[j // n], k * np.pi)
                 for i in np.flatnonzero(moved).tolist()
                 for j, (k0, k1) in enumerate(zip(F[i].tolist(), F[i + 1].tolist()))
                 for k in range(int(min(k0, k1)) + 1, int(max(k0, k1)) + 1)]
    return PhaseTrack(grid=path.grid, plus=plus, minus=minus,
                      crossings=tuple(crossings), off_circle=off)


def mu_along_path(path: CausalPath, start: float | None = None) -> np.ndarray:
    """Continuous real lift of arg(nu) / 2 pi along the path.

    arg(nu) at the grid points is read from the stored matrices
    (`_grid_readings`; a member has nu = exp(i sum theta_k)).  A step on
    which arg(nu) turns by more than pi/2 is refined (`_walker`).  Anchored
    at ``start`` when given; otherwise at the wrapped argument of nu at the
    first grid point, which is 0 for paths starting at id.  Raises
    ValueError unless ``start`` is None or a finite real number.
    """
    if start is not None and not (isinstance(start, numbers.Real)
                                  and -np.inf < start < np.inf):
        raise ValueError(f"start must be None or finite, got {start!r}")

    def nu_arg(W):
        return float(np.angle(nu(W)))

    walk = _walker(nu_arg, lambda a_prev, a: (a, _wrap(a - a_prev)), np.pi / 2,
                   "nu winds too fast for the grid")
    args = _grid_readings(path, lambda th: th.sum(axis=1).tolist(), nu_arg)
    cont, a = [_wrap(args[0])], args[0]
    for i in range(path.steps):
        a, d = walk(a, path.matrices[i], path.tangents[i],
                    path.grid[i + 1] - path.grid[i], args[i + 1])
        cont.append(cont[-1] + d)
    mu = np.array(cont) / (2 * np.pi)
    if start is not None:
        mu += start - mu[0]
    return mu


def _spawn(seed, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _schedule(dims, trials):
    """Trial indices k with their half-dimension, cycling through dims."""
    return ((k, dims[k % len(dims)]) for k in range(trials))


def _confined_trial(seed, index, n, steps, step_size, from_id=False):
    """Starting point and region-confined path, redrawn together on creep.

    Ill-conditioned starting points amplify the eigenphase speed, and the
    resulting walks can creep into the region boundary until the halving
    budget of `random_causal_path` is exhausted; redrawing the whole trial
    (starting point and path) with a fresh derived seed keeps the sample
    honest.
    """
    for r in range(50):
        key = index + 900_000 * r
        W0 = np.eye(2 * n) if from_id else random_elliptic_banded(
            _spawn(seed, key), n, lo=0.3, hi=1.8
        )
        try:
            path = random_causal_path(
                _spawn(seed, key + 450_000), n, steps=steps, W_start=W0,
                step_size=step_size, confine=True,
            )
            return W0, path
        except DriftExceededError:
            continue
    raise DriftExceededError("confined path generation failed 50 times")


def _dist_formula(seed, dims, trials):
    # the i-th draw at half-dimension n has spawn key 1000 n + i
    worst = 0.0
    for k, n in _schedule(dims, trials):
        W = random_elliptic(_spawn(seed, 1000 * n + k // len(dims)), n, margin=0.02)
        d = dist_formula(W)
        worst = max(worst, abs(d - finsler_G(log_elliptic(W))) / (1e-9 * (1 + d)))
    return worst <= 1.0, worst, "max |dist - G(log)| in units of 1e-9 (1 + dist)"


def _broken_geodesic_max(seed, dims, trials):
    # id -> M -> W through a perturbed midpoint M never beats dist(W)
    rng = np.random.default_rng(_spawn(seed, 20_000))
    worst_excess = -np.inf
    pairs = guard = 0
    while pairs < trials and guard < 50 * trials:
        guard += 1
        n = dims[int(rng.integers(len(dims)))]
        W = random_elliptic_banded(rng, n, lo=0.4, hi=2.6)
        X = log_elliptic(W)
        a = float(rng.uniform(0.2, 0.8))
        Y = random_cone_element(rng, n)
        M = scipy.linalg.expm(a * X + 0.05 * Y / np.linalg.norm(Y))
        try:  # connect's quotients, M and W M^{-1}, decide the candidate
            conn_in = connect(np.eye(2 * n), M, samples=0)
            conn_out = connect(M, W, samples=0)
        except NotConnectableError:
            continue
        broken = finsler_G(conn_in.tangent) + finsler_G(conn_out.tangent)
        worst_excess = max(worst_excess, broken - dist_formula(W))
        pairs += 1
    # collinear midpoints achieve equality
    worst_eq = 0.0
    for k, n in _schedule(dims, 50):
        W = random_elliptic_banded(_spawn(seed, 21_000 + k), n, lo=0.4, hi=2.6)
        X = log_elliptic(W)
        a = 0.2 + 0.012 * k
        broken = finsler_G(a * X) + finsler_G((1 - a) * X)
        worst_eq = max(worst_eq, abs(broken - dist_formula(W)))
    margin = max(worst_excess, worst_eq)
    return (pairs == trials and margin <= 1e-9, margin,
            f"max excess of broken over dist: {pairs} perturbed, 50 collinear")


def _tau_monotone(seed, dims, trials):
    min_dtau = np.inf
    for k, n in _schedule(dims, trials):
        _, path = _confined_trial(seed, 30_000 + k, n, steps=50, step_size=0.02)
        # a non-member reads NaN, which fails the check
        taus = _grid_readings(path, lambda th: _tau_of(th).tolist(), lambda W: np.nan)
        min_dtau = np.minimum(min_dtau, np.min(np.diff(taus)))
    return min_dtau > 0, min_dtau, "min per-step increment of tau on confined paths"


def _exit_times(seed, dims, trials):
    # closed form: e^{tJ} from angle pi/4 exits at t = -pi/4 through +1
    # and at t = 3 pi/4 through -1
    J = standard_J(1)
    et = exit_times(scipy.linalg.expm(np.pi / 4 * J), J)
    ok = (
        abs(et.c1 - np.pi / 4) <= 1e-8
        and abs(et.c2 - 3 * np.pi / 4) <= 1e-8
        and et.forward_reason is ExitReason.EIGENVALUE_MINUS_ONE
        and et.backward_reason is ExitReason.EIGENVALUE_ONE
    )
    # tau divergence is probed on commuting torus pairs, whose eigenphases
    # pass the boundary linearly; a generic hyperbolic exit approaches like
    # sqrt(c2 - t), which caps |tau| at a fixed offset inside regardless of
    # the starting point, so generic directions are checked for finiteness
    min_abs_tau = np.inf
    for k, n in _schedule(dims, trials):
        W0, X, _, _ = random_torus_pair(_spawn(seed, 40_000 + k), n)
        Xg = random_cone_element(_spawn(seed, 140_000 + k), n)
        et = exit_times(W0, X, t_max=5e3)
        ok = ok and et.finite
        ok = ok and exit_times(W0, Xg / np.linalg.norm(Xg), t_max=5e3).finite
        if not et.finite:
            continue
        flow = geodesic_flow(X, W0)
        min_abs_tau = min(
            min_abs_tau,
            abs(tau(flow(et.c2 - 1e-6))),
            abs(tau(flow(-et.c1 + 1e-6))),
        )
    return (ok and min_abs_tau > 10, min_abs_tau,
            "closed-form and finite exits; min |tau| 1e-6 inside torus-flow exits")


def _endpoint_connect(seed, dims, trials):
    ok = True
    for k, n in _schedule(dims, trials):
        W0, path = _confined_trial(seed, 50_000 + k, n, steps=10, step_size=0.05)
        try:  # connect raises rather than return a non-causal status
            connect(W0, path.endpoint, samples=64)
        except NotConnectableError:
            ok = False
    return ok, 0.0, "connect succeeds on region-confined path endpoints"


def _angle_complement(seed, dims, trials):
    # the shadow of Theorem 2: W and -W^{-1} have interior logarithms
    ok = True
    worst = 0.0
    for k, n in _schedule(dims, trials):
        W = random_elliptic(_spawn(seed, 60_000 + k), n, margin=0.02)
        Wm = minus_inverse(W)
        X = log_elliptic(W)
        ok = ok and cone_status(X) is ConeStatus.INTERIOR
        ok = ok and cone_status(log_elliptic(Wm)) is ConeStatus.INTERIOR
        ok = ok and float(np.max(np.abs(np.linalg.eigvals(X).imag))) < np.pi
        th = elliptic_angles(W)
        th_m = elliptic_angles(Wm)
        worst = max(worst, float(np.max(np.abs(th_m - (np.pi - th[::-1])))))
    return ok and worst <= 1e-8, worst, "angles of -W^{-1} vs pi - angles of W"


def _krein_calibration(seed, dims, trials):
    # e^{theta J} is in the region exactly for theta in (0, pi)
    J = standard_J(1)
    ok = all(
        bool(is_positively_elliptic(scipy.linalg.expm(theta * J))) is inside
        for theta, inside in ((0.1, True), (np.pi / 3, True), (np.pi / 2, True),
                              (3.0, True), (0.0, False), (np.pi, False))
    )
    chk = is_positively_elliptic(block_rotation([0.7, -0.7]))
    ok = ok and not chk and chk.reason == "indefinite Krein signature"
    return ok, 0.0, "rotations e^{theta J} and one indefinite rotation pair"


def _maslov_consistency(seed, dims, trials):
    worst = 0.0
    for k, n in _schedule(dims, trials):
        _, path = _confined_trial(
            seed, 80_000 + k, n, steps=20, step_size=0.05, from_id=True
        )
        mu = mu_along_path(path, start=0.0)
        worst = max(worst, abs(mu[-1] - mu_elliptic(path.endpoint)))
    # closed form: the lift along e^{tJ}, t in [0, 2 pi], is t / 2 pi
    loop = geodesic_path(standard_J(1), np.eye(2), 0.0, 2 * np.pi, 128)
    lift_err = float(np.max(np.abs(mu_along_path(loop) - loop.grid / (2 * np.pi))))
    return (worst <= 1e-6 and lift_err <= 1e-8, max(worst, lift_err),
            "mu lift at path ends vs mu_elliptic; full-turn lift vs t / 2 pi")


def _diamond_base(n: int) -> np.ndarray:
    return block_rotation((2 + np.arange(n)) / 10)


def _diamond_bounded(seed, dims, trials):
    # boundedness evidence for the causal diamond between W0 and W1
    rng = np.random.default_rng(_spawn(seed, 90_000))
    ends = {}
    for n in dims:
        W0 = _diamond_base(n)
        Z = random_cone_element(rng, n)
        Z = Z / np.linalg.norm(Z)
        ends[n] = W0, scipy.linalg.expm(0.8 * Z) @ W0
    max_norm = 0.0
    accepted = guard = 0
    while accepted < trials and guard < 100 * trials:
        guard += 1
        n = dims[accepted % len(dims)]
        W0, W1 = ends[n]
        Y = random_cone_element(rng, n)
        Y = Y / np.linalg.norm(Y)
        M = scipy.linalg.expm(float(rng.uniform(0.0, 0.5)) * Y) @ W0
        # W1 M^{-1} is connect's quotient
        pair = _symplectic_stack([M, W1 @ symplectic_inverse(M)])
        if not _stack_verdicts(pair).all():
            continue
        connect(M, W1, samples=0)
        max_norm = max(max_norm, float(np.linalg.norm(M)))
        accepted += 1
    return (accepted == trials and np.isfinite(max_norm), max_norm,
            f"max Frobenius norm over {accepted} sampled diamond midpoints")


def _closed_timelike_loop(seed, dims, trials):
    # group-level total viciousness: e^{tJ} W closes along interior tangents
    closure = 0.0
    interior = True
    for n in dims:
        loop = geodesic_path(standard_J(n), _diamond_base(n), 0.0, 2 * np.pi, 64)
        closure = max(closure, float(np.linalg.norm(loop.endpoint - loop.matrices[0])))
        interior = interior and all(
            cone_status(X) is ConeStatus.INTERIOR for X in loop.tangents
        )
    return closure <= 1e-9 and interior, closure, "closure of e^{tJ} W over 2 pi"


def _phase_monotone(seed, dims, trials):
    # Krein-positive phases never decrease, negative ones never increase
    worst = np.inf
    for k, n in _schedule(dims, trials):
        _, path = _confined_trial(seed, 170_000 + k, n, steps=15, step_size=0.05)
        trk = track_phases(path)
        worst = min(worst, float(np.min(np.diff(trk.plus, axis=0))),
                    -float(np.max(np.diff(trk.minus, axis=0))))
    return worst > -1e-9, worst, "min phase step in the direction of time"


def _quasimorphism_defect(seed, dims, trials):
    # recorded, not asserted
    defect = 0.0
    rng = np.random.default_rng(_spawn(seed, 160_000))
    pairs = guard = 0
    while pairs < trials and guard < 50 * trials:
        guard += 1
        n = dims[pairs % len(dims)]
        V = random_elliptic(rng, n)
        W = random_elliptic(rng, n)
        VW = V @ W
        if not _stack_verdicts(_symplectic_stack([VW])).all():
            continue
        defect = max(defect, abs(mu_elliptic(VW) - mu_elliptic(V) - mu_elliptic(W)))
        pairs += 1
    return True, defect, f"max |mu(VW) - mu(V) - mu(W)| over {pairs} pairs"


#: Property registry: name -> check(seed, dims, trials), which returns
#: (passed, worst_margin, detail).  Trial k runs at half-dimension
#: dims[k % len(dims)]; closed-form cases run once per call.  Each property
#: draws from its own block of spawn keys.  `verify_suite` runs every entry
#: at dims=(n,); the acceptance tests run them at their own sizes.
PROPERTIES: dict[str, Callable[..., tuple[bool, float, str]]] = {
    "dist_formula": _dist_formula,
    "broken_geodesic_max": _broken_geodesic_max,
    "tau_monotone": _tau_monotone,
    "exit_times": _exit_times,
    "endpoint_connect": _endpoint_connect,
    "angle_complement": _angle_complement,
    "krein_calibration": _krein_calibration,
    "maslov_consistency": _maslov_consistency,
    "diamond_bounded": _diamond_bounded,
    "closed_timelike_loop": _closed_timelike_loop,
    "phase_monotone": _phase_monotone,
    "quasimorphism_defect": _quasimorphism_defect,
}


def verify_suite(seed: int, n: int, trials: int) -> dict:
    """Run every registered property at half-dimension n and return a
    machine-readable report.

    Every property records a pass flag and its worst-case margin; failures
    are reported, never thrown.  The report is deterministic per seed.
    Raises ValueError unless n and trials are integers >= 1.
    """
    _require_count(n, "n")
    _require_count(trials, "trials")
    props = {}
    for name, check in PROPERTIES.items():
        passed, margin, detail = check(seed, (n,), trials)
        props[name] = {
            "passed": bool(passed),
            "worst_margin": float(margin),
            "detail": detail,
        }
    return {
        "provenance": {
            "seed": int(seed),
            "n": int(n),
            "trials": int(trials),
            "version": __version__,
        },
        "properties": props,
        "all_passed": all(p["passed"] for p in props.values()),
    }
