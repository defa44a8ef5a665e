"""Tests for path generation, phase tracking, Maslov lifting and the suite."""

import hashlib
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from spcausal import (
    CausalPath,
    ConeStatus,
    block_rotation,
    cone_status,
    connect,
    dist_formula,
    elliptic_angles,
    finsler_G,
    geodesic_path,
    is_positively_elliptic,
    is_symplectic,
    log_elliptic,
    mu_along_path,
    mu_elliptic,
    path_length,
    random_causal_path,
    random_cone_element,
    random_elliptic,
    random_elliptic_banded,
    random_symplectic,
    random_torus_pair,
    standard_J,
    symplectic_inverse,
    track_phases,
    verify_suite,
)
from spcausal import pathlab
from spcausal.core import require_symplectic
from spcausal.elliptic import _checked_form, _normal_form, _symplectic_stack
from spcausal.exceptions import (
    DimensionMismatchError,
    DriftExceededError,
    MatchingAmbiguousError,
    NotConnectableError,
    NotEllipticError,
    NotSymplecticError,
)
from spcausal.krein import _spectrum, nu
from spcausal.pathlab import (
    _MAX_REFINE,
    DRIFT_TOL,
    PHASE_JUMP,
    PROPERTIES,
    _diamond_base,
    _labeled_args,
    _match,
    _schedule,
    _spawn,
    _wrap,
)

from labelling_reference import reference_labeled_args, reference_nu


# -- generators -------------------------------------------------------------

def test_random_cone_element_interior_and_deterministic():
    for seed in range(20):
        X = random_cone_element(seed, 2)
        assert cone_status(X) is ConeStatus.INTERIOR
        np.testing.assert_array_equal(X, random_cone_element(seed, 2))


def test_random_cone_element_rejects_scale():
    for scale in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="scale"):
            random_cone_element(0, 1, scale=scale)


def test_random_symplectic_rejects_a_non_finite_scale():
    for scale in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="scale"):
            random_symplectic(0, 1, scale=scale)
    assert is_symplectic(random_symplectic(0, 2, scale=-0.5))


def test_random_elliptic_banded_rejects_bounds_outside_zero_to_pi():
    for lo, hi in ((-1.0, 4.0), (0.0, 1.0), (1.0, np.pi), (2.0, 1.0), (np.nan, 1.0),
                   (0.5, np.nan), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="lo and hi"):
            random_elliptic_banded(0, 2, lo=lo, hi=hi)
    W = random_elliptic_banded(0, 2, lo=1.2, hi=1.2)
    np.testing.assert_allclose(elliptic_angles(W), [1.2, 1.2], rtol=0, atol=1e-8)


def test_random_elliptic_rejects_a_margin_outside_zero_to_half_pi():
    for margin in (-1.0, 0.0, np.pi / 2, 2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="margin"):
            random_elliptic(0, 2, margin=margin)
    # a valid margin draws as before: the check consumes no random numbers
    rng = np.random.default_rng(3)
    X = random_cone_element(rng, 2)
    rho = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
    want = scipy.linalg.expm(X * (rng.uniform(1.5, np.pi - 1.5) / rho))
    assert random_elliptic(3, 2, margin=1.5).tobytes() == want.tobytes()


def test_random_symplectic_is_symplectic():
    for seed in range(10):
        W = random_symplectic(seed, 3, scale=0.5)
        assert is_symplectic(W, tol=1e-9)


def test_random_elliptic_is_elliptic():
    for seed in range(20):
        for n in (1, 2, 3):
            assert is_positively_elliptic(random_elliptic(seed, n))


def test_random_elliptic_banded_angles():
    for seed in range(10):
        th = elliptic_angles(random_elliptic_banded(seed, 3, lo=0.5, hi=2.5))
        assert np.all(th >= 0.5 - 1e-9) and np.all(th <= 2.5 + 1e-9)


def test_random_torus_pair_commutes():
    W0, X, angles, speeds = random_torus_pair(3, 3)
    np.testing.assert_allclose(W0 @ X, X @ W0, atol=1e-10)
    assert cone_status(X) is ConeStatus.INTERIOR
    assert is_positively_elliptic(W0)


# -- paths ------------------------------------------------------------------

def test_geodesic_path_half_turn():
    W0 = random_symplectic(5, 1, scale=0.3)
    path = geodesic_path(np.pi * standard_J(1), W0, 0.0, 1.0, 8)
    np.testing.assert_allclose(path.endpoint, -W0, atol=1e-10)
    path.validate()


def test_geodesic_path_rejects_steps_below_one():
    for steps in (0, -1):
        with pytest.raises(ValueError, match="steps"):
            geodesic_path(standard_J(1), np.eye(2), 0.0, 1.0, steps)
    assert geodesic_path(standard_J(1), np.eye(2), 0.0, 1.0, 1).steps == 1


def test_random_causal_path_invariants():
    for seed in range(5):
        path = random_causal_path(seed, 2, steps=12, step_size=0.05)
        path.validate()
        assert path.steps == 12
        assert len(path.matrices) == 13
        # determinism
        other = random_causal_path(seed, 2, steps=12, step_size=0.05)
        np.testing.assert_array_equal(path.endpoint, other.endpoint)


def test_random_causal_path_rejects_steps_and_step_size():
    with pytest.raises(ValueError, match="steps must be >= 1"):
        random_causal_path(0, 1, steps=0)
    # a non-positive step runs backward in time, a non-finite one is no step
    for step_size in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="step_size must be positive"):
            random_causal_path(0, 1, steps=3, step_size=step_size)


def test_confined_path_stays_elliptic():
    for seed in range(5):
        W0 = random_elliptic_banded(seed, 2, lo=0.3, hi=1.8)
        path = random_causal_path(
            seed, 2, steps=20, W_start=W0, step_size=0.1, confine=True
        )
        for W in path.matrices:
            assert is_positively_elliptic(W)


def test_confined_step_drift_raises_drift_exceeded(monkeypatch):
    # drift in a confined step is the documented DriftExceededError, which
    # the redraw loops catch, and not the NotSymplecticError of a membership
    # test
    W0 = random_elliptic_banded(0, 2, lo=0.3, hi=1.8)
    expm = scipy.linalg.expm

    def drifting(A):
        E = expm(A)
        E[0, 1] += 1e-5
        return E

    monkeypatch.setattr(scipy.linalg, "expm", drifting)
    with pytest.raises(DriftExceededError):
        random_causal_path(0, 2, steps=3, W_start=W0, step_size=0.05, confine=True)


def test_validate_rejects_a_short_grid():
    path = random_causal_path(0, 1, steps=4, step_size=0.05)
    short = CausalPath(grid=path.grid[:-1], tangents=path.tangents,
                       matrices=path.matrices)
    with pytest.raises(DimensionMismatchError):
        short.validate()


def test_confined_path_halves_near_boundary():
    # start close to the boundary: full steps must be rejected at least once
    W0 = scipy.linalg.expm((np.pi - 0.05) * standard_J(1))
    path = random_causal_path(
        1, 1, steps=3, W_start=W0, step_size=0.2, confine=True
    )
    assert np.all(np.diff(path.grid) <= 0.2 + 1e-15)
    assert np.min(np.diff(path.grid)) < 0.2


def _parent_causal_path(seed, n, steps, W_start, step_size, confine):
    """The generator loop as it was before the confine check read the form
    memo: its own drift check, then an unchecked normal form."""
    rng = np.random.default_rng(seed)
    W = np.eye(2 * n) if W_start is None else np.asarray(W_start, dtype=float)
    grid, tangents, matrices = [0.0], [], [W]
    for _ in range(steps):
        dt = step_size
        for _attempt in range(_MAX_REFINE + 1):
            X = random_cone_element(rng, n)
            X = X / np.linalg.norm(X)
            W_next = scipy.linalg.expm(dt * X) @ W
            chk = is_symplectic(W_next, tol=DRIFT_TOL)
            if not chk:
                raise DriftExceededError(
                    f"symplectic drift {chk.residual:.3e} exceeds {DRIFT_TOL}"
                )
            if not confine or _normal_form(W_next)[0]:
                break
            dt /= 2
        else:
            raise DriftExceededError("could not confine step to the elliptic region")
        tangents.append(X)
        grid.append(grid[-1] + dt)
        matrices.append(W_next)
        W = W_next
    return CausalPath(grid=np.array(grid), tangents=tuple(tangents),
                      matrices=tuple(matrices))


def _path_hash(path):
    """sha256 over a path's grid, tangents and matrices."""
    h = hashlib.sha256(path.grid.tobytes())
    for a in path.tangents + path.matrices:
        h.update(a.tobytes())
    return h.hexdigest()


def _path_outcome(make, *args):
    """`_path_hash` of the path made, or the error raised."""
    try:
        path = make(*args)
    except DriftExceededError as exc:
        return "raised", str(exc)
    return _path_hash(path)


def test_confined_paths_match_the_parent_loop_byte_for_byte(monkeypatch):
    # the path_lab recipe; at seed 13, n = 1 the confinement is exhausted,
    # and seeds 14 (n = 1), 12 (n = 2) and 8 (n = 3) make 100 to 182
    # attempts, more than a window holds.  The parent loop makes one form
    # per confine attempt, so its forms count the attempts
    attempts = []
    monkeypatch.setitem(globals(), "_normal_form",
                        lambda W, form=_normal_form: attempts.append(W) or form(W))
    most = 0
    for n in (1, 2, 3):
        for seed in range(16):
            W0 = random_elliptic_banded(seed, n, lo=0.3, hi=1.8)
            for confine in (True, False):
                args = (seed, n, 50, W0, 0.02, confine)
                got = _path_outcome(random_causal_path, *args)
                attempts.clear()
                assert got == _path_outcome(_parent_causal_path, *args), args
                most = max(most, len(attempts))
    assert most > _checked_form.cache_info().maxsize


def test_criterion_3_trials_match_the_parent_loop_byte_for_byte(monkeypatch):
    # tau_monotone's trials at seed 42: 103 (n = 2), 204 (n = 1) and 815
    # (n = 3) redraw the whole trial after an exhausted ladder; 251 (n = 3)
    # accepts a step at its 20th halving, 50, 447 and 815 at their 17th or
    # 18th
    ks = (0, 1, 2, 50, 103, 204, 251, 447, 815)

    def trials():
        out = []
        for k in ks:
            n = 1 + k % 3
            W0, path = pathlab._confined_trial(42, 30_000 + k, n, steps=50,
                                               step_size=0.02)
            first = random_elliptic_banded(_spawn(42, 30_000 + k), n, lo=0.3, hi=1.8)
            depth = int(np.max(np.round(np.log2(0.02 / np.diff(path.grid)))))
            out.append((W0.tobytes() != first.tobytes(), depth, _path_hash(path)))
        return out

    got = trials()
    monkeypatch.setattr(pathlab, "random_causal_path", _parent_causal_path)
    assert got == trials()
    assert [redrawn for redrawn, _, _ in got] == [k in (103, 204, 815) for k in ks]
    assert max(depth for _, depth, _ in got) == _MAX_REFINE


def test_a_drift_raises_only_where_the_one_by_one_walk_reaches_it(monkeypatch):
    # each exponential the walk takes drifts in turn, through an expm
    # patched per slice, so a stacked call and a single one drift the same
    # matrix.  From near the boundary a chain's first step is rejected and
    # a ladder's first member is not its last rung: a drift after either
    # is never reached one by one, and must not raise
    args = (1, 1, 3, scipy.linalg.expm((np.pi - 0.05) * standard_J(1)), 0.2, True)
    expm = scipy.linalg.expm
    taken = []
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda A: taken.extend(A.reshape(-1, 2, 2)) or expm(A))
    clean = _path_outcome(random_causal_path, *args)

    def drifting(A):
        E = expm(A)
        for a, e in zip(A.reshape(-1, 2, 2), E.reshape(-1, 2, 2)):
            if a.tobytes() == target:
                e[0, 1] += 1e-5
        return E

    monkeypatch.setattr(scipy.linalg, "expm", drifting)
    outcomes = []
    for target in [a.tobytes() for a in taken]:
        got = _path_outcome(random_causal_path, *args)
        assert got == _path_outcome(_parent_causal_path, *args)
        outcomes.append(got)
    raised = [got for got in outcomes if got[0] == "raised"]
    assert raised and all("symplectic drift" in msg for _, msg in raised)
    assert outcomes.count(clean) > 1


def test_an_exhausted_ladder_raises_as_the_parent_loop():
    # a start 2e-8 inside the region edge: even the 20th halving leaves it
    edge = block_rotation([np.pi - 2e-8])
    for steps in (1, 4):
        args = (3, 1, steps, edge, 0.2, True)
        got = _path_outcome(random_causal_path, *args)
        assert got == ("raised", "could not confine step to the elliptic region")
        assert got == _path_outcome(_parent_causal_path, *args)


def test_a_generator_passed_as_seed_advances_by_the_draws_tried():
    # the walk draws a window ahead; a caller's Generator or BitGenerator
    # still ends where the one-by-one walk leaves it, also on an error
    def state(g):
        return (g if isinstance(g, np.random.BitGenerator) else g.bit_generator).state

    cases = ((1, 50, random_elliptic_banded(8, 1, lo=0.3, hi=1.8), 0.02, True),
             (1, 3, scipy.linalg.expm((np.pi - 0.05) * standard_J(1)), 0.2, True),
             (2, 20, None, 0.05, False),
             (1, 2, block_rotation([np.pi - 2e-8]), 0.2, True))
    for args in cases:
        for make in (np.random.default_rng, np.random.PCG64):
            mine, theirs = make(7), make(7)
            got = _path_outcome(random_causal_path, mine, *args)
            assert got == _path_outcome(_parent_causal_path, theirs, *args)
            assert state(mine) == state(theirs)


def test_a_window_stacks_at_most_as_many_attempts_as_the_form_memo_holds(monkeypatch):
    W0 = random_elliptic_banded(0, 2, lo=0.3, hi=1.8)
    expm, form = scipy.linalg.expm, pathlab._normal_form
    rows = {"expm": [], "form": []}
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda A: rows["expm"].append(len(A)) or expm(A))
    monkeypatch.setattr(pathlab, "_normal_form",
                        lambda W: rows["form"].append(len(W)) or form(W))
    for confine in (True, False):
        path = random_causal_path(0, 2, 500, W_start=W0, step_size=2e-3,
                                  confine=confine)
        assert path.steps == 500
    cap = _checked_form.cache_info().maxsize
    assert max(rows["expm"]) == max(rows["form"]) == cap
    assert sum(rows["expm"]) >= 1000


def test_the_walk_stores_the_forms_of_its_steps_as_a_fresh_check_would():
    # every grid matrix after the start reads a stored record, equal in
    # every field, dtype, stride and write flag to the one a fresh check
    # stores
    def fields(form):
        return [(type(a), a.dtype, a.shape, a.strides, a.flags.writeable, a.tobytes())
                for a in form]

    for seed in range(1, 9):
        for path in _path_lab_confined(seed):
            made = _checked_form.cache_info()
            stored = [fields(_checked_form(W)) for W in path.matrices[1:]]
            assert _checked_form.cache_info().hits == made.hits + path.steps
            _checked_form.cache_clear()
            assert stored == [fields(_checked_form(W)) for W in path.matrices[1:]]


def test_a_path_owns_each_matrix_and_tangent_it_holds():
    # a step taken from a ladder, or from a chain cut short by a reject,
    # holds no view of its window's stacks, so a kept path is no larger
    # than the one-by-one walk's
    near_edge = scipy.linalg.expm((np.pi - 0.05) * standard_J(1))
    cases = ((1, 1, 10, near_edge, 0.2, True),
             (14, 1, 50, random_elliptic_banded(14, 1, lo=0.3, hi=1.8), 0.02, True),
             (0, 2, 100, None, 0.05, False))
    for seed, n, steps, W0, dt, confine in cases:
        path = random_causal_path(seed, n, steps, W_start=W0, step_size=dt,
                                  confine=confine)
        assert (np.min(np.diff(path.grid)) < dt / 1.5) == confine  # halved
        assert all(a.base is None for a in path.tangents + path.matrices[1:])


def test_a_non_symplectic_start_raises_not_symplectic_confined_or_not():
    # the start is checked at TOL_GROUP before the first step, so a bad
    # start is named as such rather than as the drift of a step
    W0 = random_elliptic_banded(0, 2, lo=0.3, hi=1.8)
    off = W0.copy()
    off[0, 1] += 1e-3
    nonfinite = W0.copy()
    nonfinite[1, 0] = np.nan
    for bad in (off, nonfinite, 2 * np.eye(4), W0 + 1e-3j):
        with pytest.raises(NotSymplecticError) as want:
            require_symplectic(bad, DRIFT_TOL)
        for confine in (True, False):
            with pytest.raises(NotSymplecticError) as got:
                random_causal_path(0, 2, 5, W_start=bad, step_size=0.02, confine=confine)
            assert str(got.value) == str(want.value)


def test_random_causal_path_rejects_a_start_of_another_shape():
    for n, W_start in ((1, np.eye(4)), (2, np.eye(2)), (2, np.ones((4, 3))),
                       (1, np.ones(2))):
        with pytest.raises(DimensionMismatchError, match="W_start has shape"):
            random_causal_path(0, n, 3, W_start=W_start)


# -- phase tracking ---------------------------------------------------------

def test_track_phases_rotation():
    path = geodesic_path(standard_J(1), np.eye(2), 0.05, 0.9 * np.pi, 32)
    track = track_phases(path)
    np.testing.assert_allclose(track.plus[:, 0], path.grid, atol=1e-9)
    np.testing.assert_allclose(track.minus[:, 0], -path.grid, atol=1e-9)
    assert not np.any(track.off_circle)


def test_track_phases_constant_path():
    W = random_elliptic(9, 2, margin=0.3)
    path = CausalPath(grid=np.array([0.0]), tangents=(), matrices=(W,))
    track = track_phases(path)
    assert track.plus.shape == (1, 2)
    assert np.all(np.isfinite(track.plus))


def test_track_phases_crossing_recorded():
    # rotation through -1: the Krein-positive phase crosses pi
    path = geodesic_path(standard_J(1), scipy.linalg.expm(0.3 * standard_J(1)),
                         0.0, np.pi, 16)
    track = track_phases(path)
    assert any(abs(val - np.pi) < 1e-12 and lab == "+"
               for _, lab, val in track.crossings)


# -- Maslov lifting ---------------------------------------------------------

def test_mu_lift_full_rotation():
    path = geodesic_path(standard_J(1), np.eye(2), 0.0, 2 * np.pi, 64)
    mu = mu_along_path(path)
    np.testing.assert_allclose(mu, path.grid / (2 * np.pi), atol=1e-8)
    # passes 1/2 at t = pi (the eigenvalue -1 crossing)
    assert abs(mu[32] - 0.5) < 1e-8


def test_mu_lift_matches_closed_form():
    for seed in range(10):
        path = random_causal_path(seed, 1, steps=20, step_size=0.05, confine=True)
        mu = mu_along_path(path, start=0.0)
        assert abs(mu[-1] - mu_elliptic(path.endpoint)) < 1e-6


def test_mu_lift_reversed_path():
    path = geodesic_path(standard_J(1), np.eye(2), 0.0, 1.5, 16)
    mu = mu_along_path(path)
    rev = CausalPath(
        grid=path.grid,
        tangents=tuple(-X for X in path.tangents[::-1]),
        matrices=path.matrices[::-1],
    )
    mu_rev = mu_along_path(rev)
    np.testing.assert_allclose(np.diff(mu_rev), -np.diff(mu)[::-1], atol=1e-9)


# -- differential: stored matrices against per-matrix recomputation ---------

def _reference_track_phases(path):
    """track_phases as it recomputed every grid matrix from its predecessor
    and labelled each spectrum by its own walk over the Krein clusters;
    returns (plus, minus, crossings, off_circle)."""
    N = path.steps
    n = path.matrices[0].shape[0] // 2
    plus = np.full((N + 1, n), np.nan)
    minus = np.full((N + 1, n), np.nan)
    off = np.zeros(N + 1, dtype=bool)
    crossings = []
    first = reference_labeled_args(path.matrices[0])
    if first is None:
        off[0] = True
    else:
        plus[0], minus[0] = np.sort(first[0]), np.sort(first[1])

    def advance(p, m, W_from, X, dt, depth):
        W_to = scipy.linalg.expm(dt * X) @ W_from
        labeled = reference_labeled_args(W_to)
        if labeled is None:
            return None
        new_p, j1 = _match(p, labeled[0])
        new_m, j2 = _match(m, labeled[1])
        if max(j1, j2) > PHASE_JUMP:
            assert depth < _MAX_REFINE
            half = advance(p, m, W_from, X, dt / 2, depth + 1)
            if half is None:
                return None
            W_mid = scipy.linalg.expm((dt / 2) * X) @ W_from
            return advance(half[0], half[1], W_mid, X, dt / 2, depth + 1)
        return new_p, new_m

    for i in range(N):
        if off[i]:
            nxt = reference_labeled_args(path.matrices[i + 1])
            if nxt is None:
                off[i + 1] = True
            else:
                plus[i + 1], minus[i + 1] = np.sort(nxt[0]), np.sort(nxt[1])
            continue
        dt = path.grid[i + 1] - path.grid[i]
        result = advance(plus[i], minus[i], path.matrices[i], path.tangents[i], dt, 0)
        if result is None:
            off[i + 1] = True
            continue
        plus[i + 1], minus[i + 1] = result
        for label, old, new in (("+", plus[i], plus[i + 1]),
                                ("-", minus[i], minus[i + 1])):
            for a, b in zip(old, new):
                k0, k1 = np.floor(a / np.pi), np.floor(b / np.pi)
                for k in range(int(min(k0, k1)) + 1, int(max(k0, k1)) + 1):
                    crossings.append((i + 1, label, k * np.pi))
    return plus, minus, crossings, off


def _reference_mu_along_path(path, start=None):
    """mu_along_path as it recomputed every grid matrix and took nu as a
    product over the Krein clusters."""
    def nu_arg(W):
        return float(np.angle(reference_nu(W)))

    def lift_segment(a_prev, W_from, X, dt, depth):
        a_next = nu_arg(scipy.linalg.expm(dt * X) @ W_from)
        d = float(_wrap(a_next - a_prev))
        if abs(d) > np.pi / 2:
            assert depth < _MAX_REFINE
            d1, a_mid = lift_segment(a_prev, W_from, X, dt / 2, depth + 1)
            W_mid = scipy.linalg.expm((dt / 2) * X) @ W_from
            d2, a_end = lift_segment(a_mid, W_mid, X, dt / 2, depth + 1)
            return d1 + d2, a_end
        return d, a_next

    a_prev = nu_arg(path.matrices[0])
    cont = [float(_wrap(a_prev))]
    for i in range(path.steps):
        dt = path.grid[i + 1] - path.grid[i]
        d, a_prev = lift_segment(a_prev, path.matrices[i], path.tangents[i], dt, 0)
        cont.append(cont[-1] + d)
    mu = np.array(cont) / (2 * np.pi)
    if start is not None:
        mu += start - mu[0]
    return mu


def _differential_paths():
    confined = [
        random_causal_path(
            seed, n, steps=30, step_size=0.05, confine=True,
            W_start=random_elliptic_banded(seed, n, lo=0.3, hi=1.8),
        )
        for n in (1, 2, 3) for seed in range(4)
    ]
    free = [random_causal_path(seed, n, steps=25, step_size=0.4)
            for n in (1, 2, 3) for seed in range(3)]
    through_minus_one = [
        geodesic_path(standard_J(n), block_rotation(0.3 + 0.1 * np.arange(n)),
                      0.0, np.pi, 16)
        for n in (1, 2)
    ]
    # steps of 2 pi / 3 refine both the phase match and the lift
    coarse = geodesic_path(standard_J(1), np.eye(2), 0.0, 2 * np.pi, 3)
    path = geodesic_path(standard_J(1), np.eye(2), 0.0, 1.5, 16)
    reversed_path = CausalPath(
        grid=path.grid,
        tangents=tuple(-X for X in path.tangents[::-1]),
        matrices=path.matrices[::-1],
    )
    return confined, free, through_minus_one + [coarse, reversed_path]


def test_track_phases_and_mu_match_the_per_matrix_reference():
    confined, free, special = _differential_paths()
    off_points = crossing_count = 0
    for path in confined + free + special:
        got = track_phases(path)
        plus, minus, crossings, off = _reference_track_phases(path)
        # with interleaved same-label phases moving forward, the nearest-angle
        # assignment ties and roundoff picks the column: compare each grid
        # point's phases as a set
        for new, ref in ((got.plus, plus), (got.minus, minus)):
            np.testing.assert_allclose(np.sort(new, axis=1), np.sort(ref, axis=1),
                                       rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got.off_circle, off)
        assert sorted(got.crossings) == sorted(crossings)
        off_points += int(off.sum())
        crossing_count += len(crossings)
        for start in (None, 0.0):
            np.testing.assert_allclose(mu_along_path(path, start=start),
                                       _reference_mu_along_path(path, start=start),
                                       rtol=0, atol=1e-12)
    # the sample leaves the circle and crosses -1
    assert off_points > 0 and crossing_count > 0


# -- differential: the tracking loop against its per-step predecessor --------

def _loop_wrap(a):
    return -((-np.asarray(a) + np.pi) % (2 * np.pi) - np.pi)


def _loop_match(prev, raw):
    diff = _loop_wrap(raw[None, :] - prev[:, None])
    rows, cols = scipy.optimize.linear_sum_assignment(diff**2)
    new = prev.copy()
    new[rows] = prev[rows] + diff[rows, cols]
    jump = float(np.max(np.abs(diff[rows, cols]))) if rows.size else 0.0
    return new, jump


def _loop_track_phases(path):
    """track_phases as it matched through copies and scatters and scanned
    for crossings per step and angle on numpy scalars; returns (plus, minus,
    crossings, off_circle)."""
    N = path.steps
    n = path.matrices[0].shape[0] // 2
    plus = np.full((N + 1, n), np.nan)
    minus = np.full((N + 1, n), np.nan)
    off = np.zeros(N + 1, dtype=bool)
    crossings = []
    form = _normal_form(_symplectic_stack(path.matrices))
    raw = [(th, -th) if inside else _labeled_args(W)
           for W, inside, th in zip(path.matrices, form.inside, form.theta)]
    if raw[0] is None:
        off[0] = True
    else:
        plus[0], minus[0] = np.sort(raw[0][0]), np.sort(raw[0][1])

    def advance(p, m, W_from, X, dt, labeled, depth):
        if labeled is None:
            return None
        new_p, j1 = _loop_match(p, labeled[0])
        new_m, j2 = _loop_match(m, labeled[1])
        if max(j1, j2) > PHASE_JUMP:
            if depth >= _MAX_REFINE:
                raise MatchingAmbiguousError("refinement exhausted")
            step = scipy.linalg.expm((dt / 2) * X)
            W_mid = step @ W_from
            half = advance(p, m, W_from, X, dt / 2, _labeled_args(W_mid), depth + 1)
            if half is None:
                return None
            return advance(*half, W_mid, X, dt / 2, _labeled_args(step @ W_mid),
                           depth + 1)
        return new_p, new_m

    for i in range(N):
        if off[i]:
            nxt = raw[i + 1]
            if nxt is None:
                off[i + 1] = True
            else:
                plus[i + 1], minus[i + 1] = np.sort(nxt[0]), np.sort(nxt[1])
            continue
        dt = path.grid[i + 1] - path.grid[i]
        result = advance(plus[i], minus[i], path.matrices[i], path.tangents[i], dt,
                         raw[i + 1], 0)
        if result is None:
            off[i + 1] = True
            continue
        plus[i + 1], minus[i + 1] = result
        for label, old, new in (("+", plus[i], plus[i + 1]),
                                ("-", minus[i], minus[i + 1])):
            for a, b in zip(old, new):
                k0, k1 = np.floor(a / np.pi), np.floor(b / np.pi)
                for k in range(int(min(k0, k1)) + 1, int(max(k0, k1)) + 1):
                    crossings.append((i + 1, label, k * np.pi))
    return plus, minus, crossings, off


def _loop_mu_along_path(path, start=None):
    """mu_along_path as it lifted on 0-d arrays and summed each member's
    angles apart."""
    def nu_arg(W):
        return float(np.angle(nu(W)))

    def lift_segment(a_prev, W_from, X, dt, a_next, depth):
        d = float(_loop_wrap(a_next - a_prev))
        if abs(d) > np.pi / 2:
            if depth >= _MAX_REFINE:
                raise MatchingAmbiguousError("nu winds too fast for the grid")
            step = scipy.linalg.expm((dt / 2) * X)
            W_mid = step @ W_from
            d1, a_mid = lift_segment(a_prev, W_from, X, dt / 2, nu_arg(W_mid), depth + 1)
            d2, a_end = lift_segment(a_mid, W_mid, X, dt / 2, nu_arg(step @ W_mid),
                                     depth + 1)
            return d1 + d2, a_end
        return d, a_next

    form = _normal_form(_symplectic_stack(path.matrices))
    args = [float(np.sum(th)) if inside else nu_arg(W)
            for W, inside, th in zip(path.matrices, form.inside, form.theta)]
    cont = [float(_loop_wrap(args[0]))]
    a_prev = args[0]
    for i in range(path.steps):
        dt = path.grid[i + 1] - path.grid[i]
        d, a_prev = lift_segment(
            a_prev, path.matrices[i], path.tangents[i], dt, args[i + 1], 0
        )
        cont.append(cont[-1] + d)
    mu = np.array(cont) / (2 * np.pi)
    if start is not None:
        mu += start - mu[0]
    return mu


def _path_lab_seq(seed, *key):
    return np.random.SeedSequence(entropy=seed, spawn_key=(4, *key))


def _path_lab_confined(seed):
    """The confined path of each op of the path_lab benchmark recipe at
    seed, yielded as it is made."""
    for i in range(60):
        n = 1 + i % 3
        for r in range(50):
            W0 = random_elliptic_banded(_path_lab_seq(seed, i, r, 0), n, lo=0.3, hi=1.8)
            try:
                yield random_causal_path(_path_lab_seq(seed, i, r, 1), n, steps=50,
                                         W_start=W0, step_size=0.02, confine=True)
                break
            except DriftExceededError:
                continue


def _path_lab_paths(seed):
    """The confined and the free paths of the path_lab benchmark recipe at
    seed."""
    return list(_path_lab_confined(seed)) + [
        random_causal_path(_path_lab_seq(seed, i, 0, 2), 1 + i % 3, steps=20,
                           step_size=0.05) for i in range(60)]


def test_path_tracking_matches_the_per_step_loop_bit_for_bit():
    confined, free, special = _differential_paths()
    # a path with one tangent fewer than its matrices is tracked over its steps
    backwards = geodesic_path(-standard_J(1), np.eye(2), 0.0, 1.0, 4)
    short = CausalPath(backwards.grid, backwards.tangents[:-1], backwards.matrices)
    paths = (confined + free + special + [backwards, short] + _path_lab_paths(1)
             + _path_lab_paths(3))
    crossing_count = off_points = 0
    for k, path in enumerate(paths):
        got = track_phases(path)
        plus, minus, crossings, off = _loop_track_phases(path)
        assert got.plus.tobytes() == plus.tobytes(), k
        assert got.minus.tobytes() == minus.tobytes(), k
        assert got.off_circle.tobytes() == off.tobytes(), k
        assert got.crossings == tuple(crossings), k
        crossing_count += len(crossings)
        off_points += int(off.sum())
        for start in (None, 0.0):
            want = _loop_mu_along_path(path, start=start)
            assert mu_along_path(path, start=start).tobytes() == want.tobytes(), k
    assert crossing_count > 0 and off_points > 0


def _deep_refinement_paths():
    """Torus-flow paths, whose phases are angles + t * speeds, with the turn
    of arg(nu) per step, dt * sum(speeds), in 1.05-1.45 pi or 2.55-2.95 pi:
    each step of the lift then refines two or three levels deep on both
    halves."""
    out = []
    for k in range(24):
        n = 1 + k % 3
        rng = np.random.default_rng((223, k))
        W0, X, _, speeds = random_torus_pair(rng, n)
        turn = np.pi * rng.uniform(*((1.05, 1.45), (2.55, 2.95))[k % 2])
        steps = 4 + k % 3
        path = geodesic_path(X, W0, 0.0, steps * turn / speeds.sum(), steps)
        out.append((path, turn))
    return out


def test_lifts_refined_two_or_more_levels_deep_match_the_per_step_loop(monkeypatch):
    expm = scipy.linalg.expm
    for k, (path, turn) in enumerate(_deep_refinement_paths()):
        calls = []
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "expm", lambda A: calls.append(A) or expm(A))
            mu = mu_along_path(path)
        # a step refined two levels deep on both halves computes 3 matrices
        assert len(calls) >= 3 * path.steps, k
        for start in (None, 0.0):
            want = _loop_mu_along_path(path, start=start)
            assert mu_along_path(path, start=start).tobytes() == want.tobytes(), k
        np.testing.assert_allclose(np.diff(mu), turn / (2 * np.pi), rtol=0, atol=1e-9)
        plus, minus, crossings, off = _loop_track_phases(path)
        got = track_phases(path)
        assert got.plus.tobytes() == plus.tobytes(), k
        assert got.minus.tobytes() == minus.tobytes(), k
        assert got.crossings == tuple(crossings), k


def test_exhausted_refinement_raises_matching_ambiguous(monkeypatch):
    # one step of e^{tJ} over 2^20 * 2 pi / 3: every halving still turns by
    # 2 pi / 3, past both entries' limits, until refinement is exhausted.
    # The halvings' rotations are taken in closed form: at t ~ 1e6, expm's
    # eigenvalues leave the circle by 2e-8, which would end the walks early
    J = standard_J(1)
    path = geodesic_path(J, np.eye(2), 0.0, 2 ** _MAX_REFINE * 2 * np.pi / 3, 1)
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: block_rotation([A[1, 0]]))
    with pytest.raises(MatchingAmbiguousError,
                       match=r"^phase jump above pi/4 after refinement is exhausted$"):
        track_phases(path)
    with pytest.raises(MatchingAmbiguousError, match=r"^nu winds too fast for the grid$"):
        mu_along_path(path)


def test_a_malformed_path_raises_dimension_mismatch():
    p = geodesic_path(standard_J(1), np.eye(2), 0.0, 1.0, 4)
    short_matrices = CausalPath(p.grid, p.tangents, p.matrices[:-1])
    short_grid = CausalPath(p.grid[:-1], p.tangents, p.matrices)
    empty = CausalPath(np.array([]), (), ())
    for path in (short_matrices, short_grid, empty):
        for along in (track_phases, mu_along_path):
            with pytest.raises(DimensionMismatchError, match="steps need steps \\+ 1"):
                along(path)
    for path in (short_grid, empty):
        with pytest.raises(DimensionMismatchError, match="steps need steps \\+ 1"):
            path_length(path)
    assert path_length(short_matrices) == path_length(p)


def test_counts_must_be_integers_and_times_finite():
    J, I = standard_J(1), np.eye(2)
    cases = [
        (lambda: geodesic_path(J, I, 0.0, 1.0, 2.5), "steps must be >= 1"),
        (lambda: random_causal_path(0, 1, 2.5), "steps must be >= 1"),
        (lambda: random_causal_path(0, 1.5, 3), "n must be >= 1"),
        (lambda: random_causal_path(0, 0, 3), "n must be >= 1"),
        (lambda: verify_suite(42, 1, 2.5), "trials must be >= 1"),
        (lambda: verify_suite(42, 1.5, 1), "n must be >= 1"),
    ] + [
        (lambda t=t: geodesic_path(J, I, 0.0, t, 2), "t1 must be finite")
        for t in (np.nan, np.inf, -np.inf)
    ] + [(lambda: geodesic_path(J, I, np.nan, 1.0, 2), "t0 must be finite")]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            make()
    # numpy integers are counts
    assert geodesic_path(J, I, 0.0, 1.0, np.int64(2)).steps == 2
    assert random_causal_path(0, np.int32(1), np.uint8(3)).steps == 3


def test_wrap_of_a_float_matches_the_array_form_to_the_bit():
    for a in (0.0, -0.0, np.pi, -np.pi, 3 * np.pi, 1e300, -1e300, np.nan,
              0.5, -2.5, 7.0, float(np.nextafter(np.pi, 0.0)),
              float(np.nextafter(-np.pi, 0.0))):
        got = _wrap(a)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_loop_wrap(a)).tobytes(), a


def test_track_phases_keeps_columns_on_equal_speed_geodesics():
    # exp(t S J S^-1) S R(theta) S^-1 turns every angle at unit speed: the
    # Krein-positive phases interleave and move together, and each column
    # must follow its own angle theta_k + t
    for seed in range(40):
        n = 2 + seed % 2
        rng = np.random.default_rng((131, seed))
        S = random_symplectic(rng, n)
        Si = symplectic_inverse(S)
        theta = np.sort(rng.uniform(0.1, np.pi - 0.1, n))
        path = geodesic_path(S @ standard_J(n) @ Si,
                             S @ block_rotation(theta) @ Si, 0.0, 3.0, 60)
        want = theta[None, :] + path.grid[:, None]
        np.testing.assert_allclose(track_phases(path).plus, want, rtol=0,
                                   atol=1e-9, err_msg=str(seed))


def test_grid_matrices_are_checked_as_a_stack():
    path = random_causal_path(3, 2, steps=6, step_size=0.05)
    bad = path.matrices[4].copy()
    bad[0, 1] += 1e-3
    broken = CausalPath(grid=path.grid, tangents=path.tangents,
                        matrices=path.matrices[:4] + (bad,) + path.matrices[5:])
    with pytest.raises(NotSymplecticError) as single:
        require_symplectic(bad, tol=1e-7)
    for along in (track_phases, mu_along_path):
        with pytest.raises(NotSymplecticError) as stacked:
            along(broken)
        assert str(stacked.value) == str(single.value)


# -- registry samplers -------------------------------------------------------

# The three samplers as they decided acceptance before they read the form
# memo's verdict: through is_positively_elliptic, whose rejection names a
# reason from the Krein spectrum, and through connect and mu_elliptic, whose
# rejections raise; kept as the differential reference.
def _diagnosing_broken_geodesic_max(seed, dims, trials):
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
        try:
            if not is_positively_elliptic(M):
                continue
            conn_in = connect(np.eye(2 * n), M, samples=0)
            conn_out = connect(M, W, samples=0)
        except (NotConnectableError, NotEllipticError):
            continue
        if not (conn_in.status.causal and conn_out.status.causal):
            continue
        broken = finsler_G(conn_in.tangent) + finsler_G(conn_out.tangent)
        worst_excess = max(worst_excess, broken - dist_formula(W))
        pairs += 1
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


def _diagnosing_diamond_bounded(seed, dims, trials):
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
        try:
            if not is_positively_elliptic(M):
                continue
            connect(M, W1, samples=0)
        except (NotConnectableError, NotEllipticError):
            continue
        max_norm = max(max_norm, float(np.linalg.norm(M)))
        accepted += 1
    return (accepted == trials and np.isfinite(max_norm), max_norm,
            f"max Frobenius norm over {accepted} sampled diamond midpoints")


def _diagnosing_quasimorphism_defect(seed, dims, trials):
    defect = 0.0
    rng = np.random.default_rng(_spawn(seed, 160_000))
    pairs = guard = 0
    while pairs < trials and guard < 50 * trials:
        guard += 1
        n = dims[pairs % len(dims)]
        V = random_elliptic(rng, n)
        W = random_elliptic(rng, n)
        try:
            VW = mu_elliptic(V @ W)
        except NotEllipticError:
            continue
        defect = max(defect, abs(VW - mu_elliptic(V) - mu_elliptic(W)))
        pairs += 1
    return True, defect, f"max |mu(VW) - mu(V) - mu(W)| over {pairs} pairs"


_VERDICT_SAMPLERS = {
    "broken_geodesic_max": (_diagnosing_broken_geodesic_max, 20),
    "diamond_bounded": (_diagnosing_diamond_bounded, 12),
    "quasimorphism_defect": (_diagnosing_quasimorphism_defect, 20),
}


@pytest.mark.parametrize("name", sorted(_VERDICT_SAMPLERS))
def test_registry_samplers_match_the_diagnosing_reference(name):
    reference, trials = _VERDICT_SAMPLERS[name]
    for seed in (42, 7):
        for dims in ((1, 2, 3), (2,)):
            passed, margin, detail = PROPERTIES[name](seed, dims, trials)
            want = reference(seed, dims, trials)
            assert (passed, repr(margin), detail) == (want[0], repr(want[1]), want[2])


@pytest.mark.parametrize("name", sorted(_VERDICT_SAMPLERS))
def test_registry_samplers_compute_no_krein_spectrum(name):
    # a rejected candidate needs its verdict, not the reason for it
    trials = _VERDICT_SAMPLERS[name][1]
    _spectrum.cache_clear()
    PROPERTIES[name](42, (2,), trials)
    assert _spectrum.cache_info().misses == 0


# -- suite ------------------------------------------------------------------

def test_verify_suite_passes():
    report = verify_suite(42, 1, 10)
    assert report["all_passed"]
    assert report["provenance"]["seed"] == 42
    names = set(report["properties"])
    assert {"tau_monotone", "phase_monotone", "endpoint_connect",
            "broken_geodesic_max", "exit_times", "angle_complement",
            "diamond_bounded", "closed_timelike_loop",
            "quasimorphism_defect"} <= names


def test_verify_suite_deterministic():
    report = verify_suite(7, 2, 5)
    assert report["all_passed"]
    a = json.dumps(report, sort_keys=True)
    b = json.dumps(verify_suite(7, 2, 5), sort_keys=True)
    assert a == b


def test_verify_suite_rejects_zero_trials():
    with pytest.raises(ValueError):
        verify_suite(0, 1, 0)
