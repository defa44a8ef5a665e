"""Tests for the Finsler metric, geodesics, distance, connection and exits."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from spcausal import (
    ConeStatus,
    ExitReason,
    Location,
    block_rotation,
    block_rotation_generator,
    cone_status,
    connect,
    dist_formula,
    elliptic_splitting,
    exit_times,
    finsler_G,
    geodesic_flow,
    geodesic_path,
    is_positively_elliptic,
    krein_spectrum,
    log_elliptic,
    omega_matrix,
    path_length,
    random_causal_path,
    random_cone_element,
    random_elliptic,
    random_elliptic_banded,
    random_symplectic,
    random_torus_pair,
    standard_J,
    symplectic_inverse,
    tau,
)
from spcausal import causal, core, elliptic
from spcausal.core import TOL_GROUP, _eigh, _omega, _symplectic_check, is_hamiltonian
from spcausal.elliptic import _checked_form
from spcausal.exceptions import (
    DimensionMismatchError,
    DriftExceededError,
    NotConnectableError,
    NotEllipticError,
    NotHamiltonianError,
    NotSymplecticError,
    OutsideConeError,
    ZeroDirectionError,
)


def rot(theta, n=1):
    return scipy.linalg.expm(theta * standard_J(n))


# -- metric -----------------------------------------------------------------

def test_G_of_J():
    for n in (1, 2, 3):
        np.testing.assert_allclose(finsler_G(standard_J(n)), 1.0, atol=1e-12)


def test_G_scaled_rotation():
    for theta in (0.3, 1.0, 2.5):
        np.testing.assert_allclose(finsler_G(theta * standard_J(1)), theta, atol=1e-12)


def test_G_block():
    X = block_rotation_generator([0.5, 2.0])
    np.testing.assert_allclose(finsler_G(X), np.sqrt(1.0), atol=1e-12)
    X = block_rotation_generator([0.9, 1.6])
    np.testing.assert_allclose(finsler_G(X), np.sqrt(0.9 * 1.6), atol=1e-12)


def test_G_boundary_is_zero():
    X = np.array([[0.0, -1.0], [0.0, 0.0]])
    assert finsler_G(X) == 0.0


def test_G_outside_raises():
    with pytest.raises(OutsideConeError):
        finsler_G(np.diag([1.0, -1.0]))
    with pytest.raises(OutsideConeError):
        finsler_G(-standard_J(1))


def test_G_homogeneous():
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        X = -omega_matrix(n) @ (A.T @ A + 1e-3 * np.eye(2 * n))
        lam = float(rng.uniform(0.1, 5.0))
        np.testing.assert_allclose(
            finsler_G(lam * X), lam * finsler_G(X), rtol=1e-10
        )


# -- geodesics --------------------------------------------------------------

def test_geodesic_half_turn():
    np.testing.assert_allclose(
        geodesic_flow(standard_J(1), np.eye(2))(np.pi), -np.eye(2), atol=1e-12
    )


def test_geodesic_at_zero():
    W0 = rot(0.4)
    np.testing.assert_allclose(
        geodesic_flow(standard_J(1), W0)(0.0), W0, atol=1e-14
    )


def test_geodesic_flow_property():
    X = block_rotation_generator([0.5, 1.2])
    a = geodesic_flow(X, np.eye(4))(0.7)
    b = geodesic_flow(X, geodesic_flow(X, np.eye(4))(0.3))(0.4)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_geodesic_flow_matches_expm():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        X = -omega_matrix(n) @ (A.T @ A + 1e-3 * np.eye(2 * n))
        W0 = random_symplectic(rng, n, scale=0.3)
        flow = geodesic_flow(X, W0)
        for t in (-1.3, 0.0, 0.4, 2.1):
            np.testing.assert_allclose(
                flow(t), scipy.linalg.expm(t * X) @ W0, atol=1e-9
            )
    # an array of t gives the stack of points, on the eigenbasis path and on
    # the expm fallback of a nilpotent X
    ts = np.array([-1.3, 0.0, 0.4, 2.1])
    for X, W0 in ((block_rotation_generator([0.5, 1.2]), random_symplectic(5, 2)),
                  (np.array([[0.0, -1.0], [0.0, 0.0]]), rot(0.4))):
        flow = geodesic_flow(X, W0)
        points = flow(ts)
        assert points.shape == (ts.size, *W0.shape)
        np.testing.assert_allclose(
            points, [flow(t) for t in ts], rtol=0, atol=1e-14
        )


# -- distance ---------------------------------------------------------------

def test_dist_quarter_turn():
    np.testing.assert_allclose(dist_formula(rot(np.pi / 2)), np.pi / 2, atol=1e-12)


def test_dist_two_angles():
    W = block_rotation([np.pi / 2, np.pi / 3])
    np.testing.assert_allclose(dist_formula(W), np.sqrt(np.pi**2 / 6), atol=1e-12)


def test_dist_closure():
    np.testing.assert_allclose(dist_formula(-np.eye(2)), np.pi, atol=1e-12)
    assert dist_formula(np.eye(2)) == 0.0


def test_dist_closure_rejects_shears_of_the_wrong_sign():
    # sym(Omega W) of a 2x2 shear at +-1 is semidefinite for one sign of the
    # shear and indefinite, with eigenvalues (-1.4, 0), for the other
    def up(s):
        return np.array([[1.0, s], [0.0, 1.0]])

    def low(s):
        return np.array([[1.0, 0.0], [s, 1.0]])

    for W in (up(0.7), -low(0.7)):
        with pytest.raises(NotEllipticError, match="outside the closure"):
            dist_formula(W)
    assert dist_formula(up(-0.7)) == 0.0
    assert dist_formula(-low(-0.7)) == np.pi


def test_dist_equals_G_of_log():
    rng = np.random.default_rng(73)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.05)
        d = dist_formula(W)
        assert abs(d - finsler_G(log_elliptic(W))) <= 1e-9 * (1 + d)


def test_dist_conjugation_invariant():
    W = block_rotation([0.8, 1.9])
    S = random_symplectic(79, 2, scale=0.4)
    np.testing.assert_allclose(
        dist_formula(S @ W @ symplectic_inverse(S)), dist_formula(W), atol=1e-9
    )


def test_dist_rejects_hyperbolic():
    with pytest.raises(NotEllipticError):
        dist_formula(np.diag([2.0, 0.5]))


# -- path length ------------------------------------------------------------

class _StubPath:
    def __init__(self, grid, tangents):
        self.grid = np.asarray(grid, dtype=float)
        self.tangents = tangents


def test_path_length_rotation_exact():
    theta = 1.3
    grid = np.linspace(0.0, 1.0, 17)
    tangents = [theta * standard_J(1)] * 16
    np.testing.assert_allclose(
        path_length(_StubPath(grid, tangents)), theta, atol=1e-12
    )


def test_path_length_null_path():
    X = np.array([[0.0, -1.0], [0.0, 0.0]])
    assert path_length(_StubPath([0.0, 0.5, 1.0], [X, X])) == 0.0


def test_path_length_refinement():
    # integrand G((1+t) J) = 1 + t; left Riemann sum error is O(dt)
    for steps in (20, 40, 80):
        grid = np.linspace(0.0, 1.0, steps + 1)
        tangents = [(1 + t) * standard_J(1) for t in grid[:-1]]
        err = abs(path_length(_StubPath(grid, tangents)) - 1.5)
        assert err < 1.0 / steps


def test_path_length_names_offending_index():
    tangents = [standard_J(1), np.diag([1.0, -1.0])]
    with pytest.raises(OutsideConeError, match="index 1"):
        path_length(_StubPath([0.0, 0.5, 1.0], tangents))


# -- connect ----------------------------------------------------------------

def test_connect_one_parameter():
    conn = connect(rot(0.3), rot(1.0))
    np.testing.assert_allclose(conn.tangent, 0.7 * standard_J(1), atol=1e-10)
    assert conn.status is ConeStatus.INTERIOR


def test_connect_same_point():
    W = rot(0.5)
    with pytest.raises(NotConnectableError):
        connect(W, W)


def test_connect_endpoint_and_interior_samples():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        W0 = random_elliptic(rng, n, margin=0.4)
        X = log_elliptic(W0)
        W1 = scipy.linalg.expm(0.6 * X) @ W0
        if not is_positively_elliptic(W1):
            continue
        conn = connect(W0, W1, samples=16)
        np.testing.assert_allclose(
            geodesic_flow(conn.tangent, W0)(1.0), W1, atol=1e-8 * np.linalg.norm(W1)
        )


def test_connect_rejects_non_elliptic_quotient():
    with pytest.raises(
        NotConnectableError,
        match="^quotient not positively elliptic: off-circle eigenvalue$",
    ):
        connect(rot(0.3), np.diag([2.0, 0.5]) @ rot(0.3))


def test_connect_rejects_a_negative_sample_count():
    # the geodesic leaves the region, which samples=0 does not check and a
    # negative count must not skip silently
    assert connect(rot(2.5), rot(3.5), samples=0).status is ConeStatus.INTERIOR
    with pytest.raises(ValueError, match="samples"):
        connect(rot(2.5), rot(3.5), samples=-5)


def test_connect_names_the_first_sample_outside():
    # the quotient is elliptic, but the geodesic from W0 leaves the region;
    # the message is the one a sample-by-sample check gives
    cases = [(rot(2.5), rot(3.5)),
             (block_rotation([2.0, 0.3]), block_rotation([3.5, 0.5])),
             (np.diag([2.0, 0.5]), rot(0.6) @ np.diag([2.0, 0.5]))]
    for W0, W1 in cases:
        X = log_elliptic(W1 @ symplectic_inverse(W0))
        flow = geodesic_flow(X, W0)
        s = next(s for s in np.linspace(0.0, 1.0, 66)[1:-1]
                 if not is_positively_elliptic(flow(float(s))))
        reason = is_positively_elliptic(flow(float(s))).reason
        with pytest.raises(NotConnectableError) as exc:
            connect(W0, W1, samples=64)
        assert str(exc.value) == f"geodesic leaves the region at s={s:.4f}: {reason}"


def test_connect_rejects_a_non_integral_sample_count():
    for bad in (2.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="^samples must be a non-negative integer$"):
            connect(rot(0.3), rot(1.0), samples=bad)
    for good in (np.int64(8), np.uint8(3)):
        assert connect(rot(0.3), rot(1.0), samples=good).status is ConeStatus.INTERIOR


def test_connect_rejects_a_bool_sample_count():
    for bad in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="^samples must be a non-negative integer$"):
            connect(rot(0.3), rot(1.0), samples=bad)


def test_connect_rejects_endpoints_of_different_shapes():
    with pytest.raises(DimensionMismatchError, match="W1 has shape"):
        connect(rot(0.3), block_rotation([0.5, 1.0]))


def _connectable_pairs(seed, count):
    """(W0, W1) pairs at n = 1, 2, 3 whose geodesic stays in the region."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(20 * count):
        if len(pairs) == count:
            break
        n = 1 + len(pairs) % 3
        W0 = random_elliptic(rng, n, margin=0.3)
        Y = random_cone_element(rng, n)
        Y *= 1.2 / np.max(np.abs(np.linalg.eigvals(Y).imag))
        W1 = scipy.linalg.expm(Y) @ W0
        try:
            connect(W0, W1)
        except NotConnectableError:
            continue
        pairs.append((W0, W1))
    assert len(pairs) == count
    return pairs


def test_connect_samples_follow_the_geodesic_flow(monkeypatch):
    # the tangent is the logarithm of the quotient to the bit, and the samples
    # taken from its splitting lie on exp(s X) W0 as geodesic_flow gives it
    seen = []
    verdicts = causal._stack_verdicts
    monkeypatch.setattr(causal, "_stack_verdicts",
                        lambda Ws: seen.append(Ws) or verdicts(Ws))
    s = np.linspace(0.0, 1.0, 66)[1:-1]
    for W0, W1 in _connectable_pairs(113, 30):
        seen.clear()
        conn = connect(W0, W1, samples=64)
        assert np.array_equal(conn.tangent, log_elliptic(W1 @ symplectic_inverse(W0)))
        ref = geodesic_flow(conn.tangent, W0)(s)
        err = np.linalg.norm(seen[0] - ref, axis=(1, 2))
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=(1, 2)))


def _geodesics_pool():
    """(W0, W1) of each input of the causal_geodesics benchmark recipe at
    seed 1: a banded start and the end of a confined 10-step path from it."""
    for i in range(60):
        n = 1 + i % 3
        for r in range(50):
            def seq(k):
                return np.random.SeedSequence(entropy=1, spawn_key=(3, i, r, k))

            W0 = random_elliptic_banded(seq(0), n, lo=0.3, hi=1.8)
            try:
                path = random_causal_path(seq(1), n, steps=10, W_start=W0,
                                          step_size=0.05, confine=True)
            except DriftExceededError:
                continue
            yield W0, path.endpoint
            break


def test_stack_verdicts_on_the_geodesics_pool_are_the_single_checks(monkeypatch):
    # connect's samples: the stacked drift check, whose norms are summed as
    # the single check sums them, passes every sample that the stack of
    # np.linalg.norm norms passed, and the verdicts are the memo's
    seen = []
    verdicts = causal._stack_verdicts
    monkeypatch.setattr(causal, "_stack_verdicts",
                        lambda Ws: seen.append(Ws) or verdicts(Ws))
    for W0, W1 in _geodesics_pool():
        connect(W0, W1, samples=64)
    assert len(seen) == 60
    for P in seen:
        O = _omega(P.shape[-1] // 2)
        norm = np.linalg.norm(P, axis=(1, 2))
        r = np.linalg.norm(P.swapaxes(1, 2) @ O @ P - O, axis=(1, 2))
        assert (r <= TOL_GROUP * norm**2).all()
        assert _symplectic_check(P, TOL_GROUP, stack=True)[0].all()
        assert verdicts(P).tolist() == [bool(_checked_form(W).inside) for W in P]


def test_connect_samples_on_the_geodesics_pool_pass_the_certificate(monkeypatch):
    # the Cholesky certificates settle the samples of every connect of the
    # causal_geodesics pool, so the stacked normal form never runs; a clear
    # non-member among the samples is settled out by itself, and a member
    # within s of the boundary, which neither certificate settles, is the
    # only row formed
    stages = []
    form = elliptic._normal_form
    monkeypatch.setattr(elliptic, "_normal_form", lambda W: (
        stages.append(W.shape) if W.ndim == 3 else None) or form(W))
    for W0, W1 in _geodesics_pool():
        connect(W0, W1, samples=64)
    assert stages == []
    W0, W1 = rot(0.3), rot(1.0)
    s = np.linspace(0.0, 1.0, 66)[1:-1]
    points = geodesic_flow(log_elliptic(W1 @ symplectic_inverse(W0)), W0)(s)
    assert causal._stack_verdicts(points).all() and stages == []
    points[40] = np.diag([2.0, 0.5])
    assert causal._stack_verdicts(points).tolist() == [k != 40 for k in range(64)]
    assert stages == []
    points[40] = rot(1e-7)
    assert causal._stack_verdicts(points).all()
    assert stages == [(1, 2, 2)]


def test_a_direction_is_checked_as_hamiltonian_once(monkeypatch):
    # exit_times checks X in _direction and classifies it without a second
    # check; connect classifies the logarithm it assembles without one
    checks = []
    monkeypatch.setattr(core, "is_hamiltonian",
                        lambda X, tol: checks.append(tol) or is_hamiltonian(X, tol))
    exit_times(rot(0.5), standard_J(1))
    assert len(checks) == 1
    checks.clear()
    connect(rot(0.3), rot(1.0))
    assert checks == []
    assert cone_status(-standard_J(1)) is ConeStatus.NEGATIVE_INTERIOR
    assert len(checks) == 1


def test_an_accepted_quotient_has_a_well_conditioned_splitting_basis():
    # connect samples its geodesic as B R(s theta) B^{-1} W0 on the
    # splitting basis B alone.  Membership asks lambda_min(P) > 4 eps
    # lambda_max(P), P = 2 sym(Omega W), so cond(P) < 1 / (4 eps); an
    # accepted element has cond_2(B)^2 <= 1.1 cond(P), which keeps B below
    # _BASIS_COND_MAX, the condition at which a flow leaves its basis
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(400):
        n = 2 + i % 2
        S = random_symplectic(rng, n, scale=rng.uniform(2.0, 12.0))
        theta = np.sort(rng.uniform(1e-3, np.pi - 1e-3, n))
        if i % 3 == 0:
            theta[0] = 10 ** rng.uniform(-3, -1)
        elif i % 3 == 1:
            theta[-1] = np.pi - 10 ** rng.uniform(-3, -1)
        W = S @ block_rotation(theta) @ symplectic_inverse(S)
        if not is_positively_elliptic(W):
            continue
        B = elliptic_splitting(W).basis
        cond_F = np.linalg.norm(B) * np.linalg.norm(np.linalg.inv(B))
        P = _omega(n) @ W
        p = np.linalg.eigvalsh(P + P.T)
        assert cond_F < causal._BASIS_COND_MAX
        assert np.linalg.cond(B) ** 2 <= 1.1 * p[-1] / p[0]
        worst = max(worst, cond_F)
    assert worst > 1e7  # the sample reaches within a decade of the bound


# -- exit times -------------------------------------------------------------

def test_exit_times_quarter_start():
    et = exit_times(rot(np.pi / 4), standard_J(1))
    assert abs(et.c1 - np.pi / 4) <= 1e-8
    assert abs(et.c2 - 3 * np.pi / 4) <= 1e-8
    assert et.forward_reason is ExitReason.EIGENVALUE_MINUS_ONE
    assert et.backward_reason is ExitReason.EIGENVALUE_ONE


def test_exit_times_half_start():
    et = exit_times(rot(np.pi / 2), standard_J(1))
    assert abs(et.c1 - np.pi / 2) <= 1e-8
    assert abs(et.c2 - np.pi / 2) <= 1e-8
    assert et.forward_reason is ExitReason.EIGENVALUE_MINUS_ONE
    assert et.backward_reason is ExitReason.EIGENVALUE_ONE


def test_exit_times_membership_band():
    # inside strictly before the exits, outside strictly after
    et = exit_times(rot(np.pi / 4), standard_J(1))
    flow = geodesic_flow(standard_J(1), rot(np.pi / 4))
    eps = 1e-6
    assert is_positively_elliptic(flow(et.c2 - eps))
    assert not is_positively_elliptic(flow(et.c2 + eps))
    assert is_positively_elliptic(flow(-et.c1 + eps))
    assert not is_positively_elliptic(flow(-et.c1 - eps))


def test_exit_times_torus_closed_form():
    for k in range(10):
        for n in (1, 2, 3):
            W0, X, angles, speeds = random_torus_pair((k, n), n)
            et = exit_times(W0, X)
            assert et.finite
            assert abs(et.c1 - float(np.min(angles / speeds))) <= 1e-8
            assert abs(et.c2 - float(np.min((np.pi - angles) / speeds))) <= 1e-8


def test_exit_tau_divergence():
    W0, X = rot(np.pi / 4), standard_J(1)
    et = exit_times(W0, X)
    flow = geodesic_flow(X, W0)
    assert tau(flow(et.c2 - 1e-6)) > 10
    assert tau(flow(-et.c1 + 1e-6)) < -10


def test_exit_times_generic_interior_finite():
    # interior cone directions, then cone-boundary ones -Omega B B^T with
    # rank(B) < 2n; by Krein continuity every exit is through +1 or -1, and
    # as Krein-positive eigenvalues turn counterclockwise along a causal
    # flow, backward through +1 and forward through -1
    rng = np.random.default_rng(89)
    cases = []
    for k in range(10):
        n = int(rng.integers(1, 4))
        cases.append((random_elliptic(rng, n, margin=0.2), random_cone_element(rng, n)))
    for k in range(12):
        n = 1 + k % 3
        B = rng.standard_normal((2 * n, 1 + k % (2 * n - 1)))
        X = -omega_matrix(n) @ B @ B.T
        assert cone_status(X) is ConeStatus.BOUNDARY
        cases.append((random_elliptic(rng, n, margin=0.2), X))
    for W0, X in cases:
        et = exit_times(W0, X / np.linalg.norm(X), t_max=5e3)
        assert et.finite
        assert et.backward_reason is ExitReason.EIGENVALUE_ONE
        assert et.forward_reason is ExitReason.EIGENVALUE_MINUS_ONE


def test_exit_times_errors():
    with pytest.raises(ZeroDirectionError):
        exit_times(rot(0.5), np.zeros((2, 2)))
    with pytest.raises(OutsideConeError):
        exit_times(rot(0.5), -standard_J(1))
    with pytest.raises(NotEllipticError):
        exit_times(np.diag([2.0, 0.5]), standard_J(1))
    for kwargs in ({"t_max": -1.0}, {"t_max": 0.0}, {"t_max": np.inf},
                   {"t_max": np.nan}):
        with pytest.raises(ValueError, match="must be positive and finite"):
            exit_times(rot(0.5), standard_J(1), **kwargs)


def _exit_reason(W):
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
        return "off-circle"
    return "krein degeneracy"


def _boundary_gap(W, pi_crossing):
    """Signed distance-like indicator of the elliptic boundary.

    Positive strictly inside the region, negative past an exit.  For a
    pi-crossing (eigenvalue -1) the indicator is pi minus the largest
    Krein-positive phase taken mod 2 pi; for a 0-crossing (eigenvalue +1)
    it is the smallest Krein-positive phase in (-pi, pi].  Off-circle
    eigenvalues subtract their radial deviation, which keeps the sign
    correct when the exiting pair turns hyperbolic.
    """
    spec = krein_spectrum(W, on_degenerate="mark")
    phases = []
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


def _sequential_exit_times(W0, X, t_max=1e3, tol=1e-8):
    """Reference: exit_times as it was before stacked membership, doubling
    and bisecting with one membership test per point, then root-finding on
    the Krein-phase indicator `_boundary_gap` (a `krein_spectrum` per
    evaluation) with the reason read from the eigenvalues past the exit."""
    flow = geodesic_flow(X, W0)

    def member(t):
        return bool(is_positively_elliptic(flow(t)))

    def bisect(t_lo, t_hi, sign, width):
        while t_hi - t_lo > width:
            mid = 0.5 * (t_lo + t_hi)
            if member(sign * mid):
                t_lo = mid
            else:
                t_hi = mid
        return t_lo, t_hi

    def locate(sign):
        t_lo, t_hi = 0.0, min(1.0, t_max)
        while member(sign * t_hi):
            t_lo = t_hi
            t_hi *= 2.0
            if t_hi > t_max:
                return float("inf"), None
        t_lo, t_hi = bisect(t_lo, t_hi, sign, max(tol, 1e-6))
        reason = _exit_reason(flow(sign * t_hi))
        if reason in (ExitReason.EIGENVALUE_MINUS_ONE, ExitReason.EIGENVALUE_ONE):
            pi_crossing = reason is ExitReason.EIGENVALUE_MINUS_ONE

            def gap(t):
                return _boundary_gap(flow(sign * t), pi_crossing)

            pad = 10 * (t_hi - t_lo)
            a, b = max(t_lo - pad, 0.0), t_hi + pad
            if gap(a) > 0 > gap(b):
                return scipy.optimize.brentq(gap, a, b, xtol=min(tol, 1e-10)), reason
        t_lo, t_hi = bisect(t_lo, t_hi, sign, tol)
        return 0.5 * (t_lo + t_hi), reason

    c2, fwd = locate(1.0)
    c1, bwd = locate(-1.0)
    return c1, c2, bwd, fwd


def _positive_definite(W):
    M = omega_matrix(W.shape[0] // 2) @ W
    try:
        np.linalg.cholesky(M + M.T)
    except np.linalg.LinAlgError:
        return False
    return True


def _reference_cases():
    """9 torus pairs and 36 generic unit directions from elliptic starts."""
    cases = [random_torus_pair((101, k, n), n)[:2] for k in range(3) for n in (1, 2, 3)]
    rng = np.random.default_rng(103)
    for k in range(36):
        n = 1 + k % 3
        X = random_cone_element(rng, n)
        cases.append((random_elliptic(rng, n, margin=0.2), X / np.linalg.norm(X)))
    return cases


def test_exit_times_match_sequential_reference():
    for W0, X in _reference_cases():
        et = exit_times(W0, X, t_max=5e3)
        c1, c2, bwd, fwd = _sequential_exit_times(W0, X, t_max=5e3)
        assert et.finite
        assert abs(et.c1 - c1) <= 1e-8 and abs(et.c2 - c2) <= 1e-8
        assert (et.backward_reason, et.forward_reason) == (bwd, fwd)
        # sym(Omega W) is positive definite exactly inside the region; each
        # exit must sit within 1e-9 of where it stops being so
        flow = geodesic_flow(X, W0)
        for t in (et.c2, -et.c1):
            inward = -1e-9 * np.sign(t)
            assert _positive_definite(flow(t + inward))
            assert not _positive_definite(flow(t - inward))


def test_exit_times_ill_conditioned_start():
    # starts within 1e-6 of an angle 0 or pi under conjugations of condition
    # up to about 1e8, where sym(Omega W0) can be singular to roundoff: such a
    # start is rejected, as "boundary" unless the Krein spectrum names a
    # violated condition first (most split off the circle under roundoff),
    # and exit_times refuses it; at every accepted start g(0) > 0, so each
    # exit brackets the sign change from the inside (a start whose root lies
    # within brentq's 1e-10 of 0 may report 0 for it)
    singular = boundary = accepted = 0
    for seed in range(24):
        rng = np.random.default_rng((107, seed))
        n = 1 + seed % 3
        S = random_symplectic(rng, n, scale=4.0 + seed % 2)
        Si = symplectic_inverse(S)
        angles = np.sort(rng.uniform(0.5, 2.5, n))
        for theta in (3e-8, 1e-6):
            for a in (theta, np.pi - theta):
                W0 = S @ block_rotation(np.r_[a, angles[1:]]) @ Si
                X = random_cone_element(rng, n)
                X = X / np.linalg.norm(X)
                M = omega_matrix(n) @ W0
                P = M + M.T
                noise = 4 * np.finfo(float).eps * np.linalg.norm(P, 2)
                chk = is_positively_elliptic(W0)
                if np.linalg.eigvalsh(P)[0] <= noise:
                    singular += 1
                    boundary += chk.reason == "boundary"
                    assert chk.reason in ("boundary", "off-circle eigenvalue",
                                          "eigenvalue +1", "eigenvalue -1")
                    with pytest.raises(NotEllipticError):
                        exit_times(W0, X, t_max=5e3)
                    continue
                if not chk:
                    continue
                accepted += 1
                et = exit_times(W0, X, t_max=5e3)
                assert et.finite and et.c1 >= 0 and et.c2 >= 0
                flow = geodesic_flow(X, W0)
                for sign, c in ((1.0, et.c2), (-1.0, et.c1)):
                    assert not _positive_definite(flow(sign * (c + 1e-9)))
                    assert _positive_definite(flow(sign * (c - 1e-9)))
    assert singular > 10 and boundary > 0 and accepted > 10


def _reference_exit_times(W0, X, t_max=1e3, tol=1e-8):
    """exit_times before its brentq evaluations read Omega V and dsyevd:
    every evaluation of g goes through geodesic_flow and np.linalg.eigvalsh,
    one doubling grid per direction."""
    flow = geodesic_flow(X, W0)
    O = omega_matrix(W0.shape[0] // 2)

    def gap(t):
        M = O @ flow(t)
        return np.linalg.eigvalsh(M + np.swapaxes(M, -1, -2))[..., 0]

    ts = [0.0, min(1.0, t_max)]
    while 2.0 * ts[-1] <= t_max:
        ts.append(2.0 * ts[-1])
    ts = np.array(ts)

    def locate(sign):
        g = gap(sign * ts)
        k = 1 + int(np.argmax(g[1:] <= 0))
        if g[k] > 0:
            return float("inf")
        return scipy.optimize.brentq(
            lambda t: gap(sign * t), ts[k - 1], ts[k], xtol=min(tol, 1e-10)
        )

    return locate(-1.0), locate(1.0)


def test_exit_times_match_the_eigvalsh_reference():
    # the 45 cases of test_exit_times_match_sequential_reference and the
    # causal_geodesics pool of the benchmark at seed 1 (a torus pair and a
    # unit generic direction per input): exits within 1e-12 relative
    cases = _reference_cases()
    for i in range(60):
        n = 1 + i % 3
        Wt, Xt, _, _ = random_torus_pair(np.random.SeedSequence(1, spawn_key=(3, i, 0, 2)), n)
        Xg = random_cone_element(np.random.SeedSequence(1, spawn_key=(3, i, 0, 3)), n)
        cases += [(Wt, Xt), (Wt, Xg / np.linalg.norm(Xg))]
    for W0, X in cases:
        et = exit_times(W0, X, t_max=5e3)
        c1, c2 = _reference_exit_times(W0, X, t_max=5e3)
        assert abs(et.c1 - c1) <= 1e-12 * c1 and abs(et.c2 - c2) <= 1e-12 * c2
        assert et.backward_reason is ExitReason.EIGENVALUE_ONE
        assert et.forward_reason is ExitReason.EIGENVALUE_MINUS_ONE


def test_exit_times_along_a_jordan_block_take_the_expm_gap(monkeypatch):
    # X = [[0, 0], [A, 0]] with A >= 0 is a causal boundary direction with
    # X^2 = 0, whose eigenbasis is singular, so every evaluation of g takes
    # the expm flow; the exits agree with the sequential reference
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: calls.append(1) or expm(A))
    rng = np.random.default_rng(127)
    for k in range(6):
        n = 1 + k % 3
        A = rng.standard_normal((n, n))
        A = A @ A.T if k >= 3 else np.outer(A[0], A[0])
        X = np.zeros((2 * n, 2 * n))
        X[n:, :n] = A / np.linalg.norm(A)
        assert cone_status(X) is ConeStatus.BOUNDARY
        W0 = random_elliptic(rng, n, margin=0.2)
        calls.clear()
        et = exit_times(W0, X, t_max=5e3)
        assert len(calls) > 2
        c1, c2, bwd, fwd = _sequential_exit_times(W0, X, t_max=5e3)
        assert abs(et.c1 - c1) <= 1e-8 and abs(et.c2 - c2) <= 1e-8
        assert (et.backward_reason, et.forward_reason) == (bwd, fwd)


def test_exit_times_rejects_a_direction_of_another_shape():
    with pytest.raises(DimensionMismatchError, match="direction has shape"):
        exit_times(rot(0.5), standard_J(2))


def test_geodesic_flow_rejects_a_start_of_another_shape():
    for X, W0 in ((standard_J(1), np.eye(4)), (standard_J(2), rot(0.5))):
        with pytest.raises(DimensionMismatchError, match="direction has shape"):
            geodesic_flow(X, W0)


def test_geodesic_flow_checks_its_start():
    # a start that is not symplectic at TOL_GROUP, or not finite, raises
    # before the direction is read, in geodesic_flow and geodesic_path as in
    # exit_times; a direction of another shape that is not Hamiltonian comes
    # second
    sheared, nan = np.array([[1.0, 5.0], [0.0, 3.0]]), np.full((2, 2), np.nan)
    for W0, message in ((sheared, "symplectic residual"), (nan, "non-finite entries")):
        for X in (standard_J(1), np.ones((4, 4))):
            for call in (lambda: geodesic_flow(X, W0), lambda: exit_times(W0, X),
                         lambda: geodesic_path(X, W0, 0.0, 1.0, 4)):
                with pytest.raises(NotSymplecticError, match=message):
                    call()


def test_exit_times_t_max_flag():
    et = exit_times(rot(np.pi / 2), standard_J(1), t_max=0.5)
    assert not et.finite
    assert et.forward_reason is None


# -- the one-gap exit scan against the stacked grid it replaced -------------

def _grid_flow(X, W0):
    """geodesic_flow as it was assembled from a separate eigen record:
    (d, V, V^{-1} W0), or None for the expm flow."""
    eigen = None
    try:
        d, V = np.linalg.eig(X)
        if np.linalg.cond(V) < causal._BASIS_COND_MAX:
            eigen = d, V, np.linalg.inv(V) @ W0.astype(complex)
    except np.linalg.LinAlgError:
        pass
    if eigen is None:
        return lambda t: scipy.linalg.expm(np.multiply.outer(t, X)) @ W0, None
    d, V, VW = eigen
    return (lambda t: np.real((V * np.exp(np.multiply.outer(t, d)[..., None, :])) @ VW),
            eigen)


def _grid_exit_times(W0, X, t_max=1e3, tol=1e-8):
    """exit_times as it was with a stacked grid: g on 0 and the doubling
    sequence of both directions as one stack, the bracket ends read from the
    stack, and every other brentq evaluation one complex product with
    Omega V (the stacked g on the expm flow)."""
    W0 = np.asarray(W0, dtype=float)
    flow, eigen = _grid_flow(X, W0)
    O = omega_matrix(W0.shape[0] // 2)

    def gap(t):
        M = O @ flow(t)
        return np.linalg.eigvalsh(M + np.swapaxes(M, -1, -2))[..., 0]

    scalar_gap = gap
    if eigen is not None:
        d, V, VW = eigen
        OV = O @ V

        def scalar_gap(t):
            M = ((OV * np.exp(t * d)) @ VW).real
            return np.linalg.eigvalsh(M + M.T)[0]

    ts = [0.0, min(1.0, t_max)]
    while 2.0 * ts[-1] <= t_max:
        ts.append(2.0 * ts[-1])
    ts = np.array(ts)
    g_both = gap(np.concatenate([ts, -ts[1:]]))

    def locate(sign, g):
        k = 1 + int(np.argmax(g[1:] <= 0))
        if g[k] > 0:
            return float("inf")
        ends = {ts[k - 1]: g[k - 1], ts[k]: g[k]}
        return scipy.optimize.brentq(
            lambda t: ends[t] if t in ends else scalar_gap(sign * t),
            ts[k - 1], ts[k], xtol=min(tol, 1e-10),
        )

    c1 = locate(-1.0, np.r_[g_both[0], g_both[ts.size:]])
    c2 = locate(1.0, g_both[:ts.size])
    bwd = ExitReason.EIGENVALUE_ONE if c1 < np.inf else None
    fwd = ExitReason.EIGENVALUE_MINUS_ONE if c2 < np.inf else None
    return c1, c2, bwd, fwd


def _assert_exits_equal(cases, t_maxes=(0.5, 1e3, 5e3),
                        reference=_grid_exit_times):
    """Byte-equal c1, c2 and reasons of exit_times and the reference on
    every case and t_max; returns the number of exits found past t_max (the
    infinite flags)."""
    unbracketed = 0
    for W0, X in cases:
        for t_max in t_maxes:
            et = exit_times(W0, X, t_max=t_max)
            c1, c2, bwd, fwd = reference(W0, X, t_max=t_max)
            assert et.c1 == c1 and et.c2 == c2
            assert np.float64(et.c1).tobytes() == np.float64(c1).tobytes()
            assert np.float64(et.c2).tobytes() == np.float64(c2).tobytes()
            assert (et.backward_reason, et.forward_reason) == (bwd, fwd)
            unbracketed += (c1 == np.inf) + (c2 == np.inf)
    return unbracketed


def _bench_exit_cases(seed):
    """The exit-time inputs of the causal_geodesics benchmark pool: a torus
    pair and a unit generic direction from its start, at n = 1, 2, 3."""
    cases = []
    for i in range(60):
        n = 1 + i % 3
        Wt, Xt, _, _ = random_torus_pair(np.random.SeedSequence(seed, spawn_key=(3, i, 0, 2)), n)
        Xg = random_cone_element(np.random.SeedSequence(seed, spawn_key=(3, i, 0, 3)), n)
        cases += [(Wt, Xt), (Wt, Xg / np.linalg.norm(Xg))]
    return cases


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_exit_times_equal_the_stacked_grid_on_the_bench_pool(seed):
    # 120 calls per seed, each at t_max 0.5 (no exit bracketed for most),
    # 1e3 and 5e3
    assert _assert_exits_equal(_bench_exit_cases(seed)) > 0


def _adversarial_exit_cases():
    """The reference cases, and the starts of
    test_exit_times_ill_conditioned_start that exit_times accepts."""
    cases = _reference_cases()
    for seed in range(24):
        rng = np.random.default_rng((107, seed))
        n = 1 + seed % 3
        S = random_symplectic(rng, n, scale=4.0 + seed % 2)
        Si = symplectic_inverse(S)
        angles = np.sort(rng.uniform(0.5, 2.5, n))
        for theta in (3e-8, 1e-6):
            for a in (theta, np.pi - theta):
                W0 = S @ block_rotation(np.r_[a, angles[1:]]) @ Si
                X = random_cone_element(rng, n)
                if is_positively_elliptic(W0):
                    cases.append((W0, X / np.linalg.norm(X)))
    assert len(cases) > 60
    return cases


def test_exit_times_equal_the_stacked_grid_on_adversarial_starts():
    _assert_exits_equal(_adversarial_exit_cases())


def _jordan_cases():
    """Causal boundary directions X = [[0, 0], [A, 0]] with A >= 0, whose
    eigenbasis is singular, from elliptic starts."""
    rng = np.random.default_rng(127)
    cases = []
    for k in range(6):
        n = 1 + k % 3
        A = rng.standard_normal((n, n))
        A = A @ A.T if k >= 3 else np.outer(A[0], A[0])
        X = np.zeros((2 * n, 2 * n))
        X[n:, :n] = A / np.linalg.norm(A)
        cases.append((random_elliptic(rng, n, margin=0.2), X))
    return cases


def test_exit_times_equal_the_stacked_grid_on_the_expm_flow(monkeypatch):
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: calls.append(1) or expm(A))
    _assert_exits_equal(_jordan_cases())
    assert len(calls) > 0


def _per_point_exit_times(W0, X, t_max=1e3, tol=1e-8):
    """exit_times with every evaluation of g one point of geodesic_flow:
    M = Omega exp(t X) W0 formed from that point, and one values-only
    `_eigh` of M + M^T."""
    flow = geodesic_flow(X, W0)
    O = omega_matrix(W0.shape[0] // 2)

    def gap(t):
        M = O @ flow(t)
        return _eigh(M + M.T, vectors=False)[0][0]

    g0 = gap(0.0)

    def locate(sign):
        a, g_a, b = 0.0, g0, min(1.0, t_max)
        while not (g_b := gap(sign * b)) <= 0:
            if 2.0 * b > t_max:
                return float("inf")
            a, g_a, b = b, g_b, 2.0 * b
        ends = {a: g_a, b: g_b}
        return scipy.optimize.brentq(lambda t: ends[t] if t in ends else gap(sign * t),
                                     a, b, xtol=min(tol, 1e-10))

    c1, c2 = locate(-1.0), locate(1.0)
    return (c1, c2, ExitReason.EIGENVALUE_ONE if c1 < np.inf else None,
            ExitReason.EIGENVALUE_MINUS_ONE if c2 < np.inf else None)


def test_exit_times_equal_the_per_point_gap(monkeypatch):
    # the gap on the precomputed eigenbasis, Re((Omega V e^{td}) V^{-1} W0),
    # against one point of geodesic_flow per evaluation, byte for byte: the
    # bench pool at seeds 1 and 2, the adversarial starts, and the Jordan
    # directions, whose every evaluation takes the expm flow
    cases = _bench_exit_cases(1) + _bench_exit_cases(2) + _adversarial_exit_cases()
    jordan = _jordan_cases()
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: calls.append(1) or expm(A))
    assert _assert_exits_equal(cases, (0.5, 5e3), _per_point_exit_times) > 0
    assert not calls
    _assert_exits_equal(jordan, (0.5, 5e3), _per_point_exit_times)
    assert len(calls) > 0


def test_exit_times_solve_no_stack(monkeypatch):
    # the scan evaluates g one point at a time and stops at the first
    # bracket, on the eigenbasis flow and on the expm flow
    shapes = []
    eigh = causal._eigh
    monkeypatch.setattr(causal, "_eigh",
                        lambda A, vectors=True: shapes.append(A.shape) or eigh(A, vectors))
    for W0, X in _bench_exit_cases(1)[:30] + _jordan_cases():
        shapes.clear()
        exit_times(W0, X, t_max=5e3)
        assert shapes and all(len(s) == 2 for s in shapes)


def test_geodesic_flow_is_bit_identical_to_the_eigen_record_flow():
    ts = np.array([-1.3, 0.0, 0.4, 2.1])
    rng = np.random.default_rng(131)
    cases = [(X, W0) for W0, X in _jordan_cases()]
    for _ in range(12):
        n = int(rng.integers(1, 4))
        cases.append((random_cone_element(rng, n), random_symplectic(rng, n, scale=0.3)))
    paths = set()
    for X, W0 in cases:
        flow = geodesic_flow(X, W0)
        ref, eigen = _grid_flow(X, W0)
        paths.add(eigen is None)
        assert flow(ts).tobytes() == ref(ts).tobytes()
        for t in ts:
            assert flow(t).tobytes() == ref(t).tobytes()
    assert paths == {True, False}


def test_geodesic_entries_reject_a_complex_start():
    W0, X = rot(0.5) + 1e-3j * np.eye(2), standard_J(1)
    for call in (lambda: geodesic_flow(X, W0), lambda: exit_times(W0, X),
                 lambda: dist_formula(W0), lambda: connect(W0, rot(0.7))):
        with pytest.raises(NotSymplecticError, match="nonzero imaginary part"):
            call()
    with pytest.raises(NotHamiltonianError, match="nonzero imaginary part"):
        exit_times(rot(0.5), X + 1e-3j * X)
