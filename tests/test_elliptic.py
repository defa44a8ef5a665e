"""Tests for the positively elliptic region: membership, splitting, log,
time function, Maslov value and the -W^{-1} involution."""

import contextlib
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spcausal import (
    ConeStatus,
    EllipticCheck,
    block_rotation,
    block_rotation_generator,
    cone_status,
    dist_formula,
    elliptic_angles,
    elliptic_splitting,
    exit_times,
    is_positively_elliptic,
    log_elliptic,
    minus_inverse,
    mu_elliptic,
    omega_matrix,
    random_cone_element,
    random_elliptic,
    random_elliptic_banded,
    random_symplectic,
    standard_J,
    symplectic_inverse,
    tau,
)
from spcausal import causal, elliptic, pathlab
from spcausal.core import TOL_GROUP, _omega, is_symplectic, require_symplectic
from spcausal.elliptic import (
    _GRAM_NOISE,
    ANGLE_BOUNDARY_BAND,
    _checked_form,
    _normal_form,
    _stack_verdicts,
    _symplectic_stack,
)
from spcausal.exceptions import (
    IllConditionedWarning,
    NotEllipticError,
    NotSymplecticError,
    SymplecticDomainError,
)
from spcausal.krein import krein_spectrum

from labelling_reference import differential_sample, reference_reason


def rot(theta, n=1):
    return scipy.linalg.expm(theta * standard_J(n))


# -- membership -------------------------------------------------------------

def test_membership_rotation():
    assert is_positively_elliptic(rot(np.pi / 3))


def test_membership_hyperbolic():
    chk = is_positively_elliptic(np.diag([2.0, 0.5]))
    assert not chk
    assert chk.reason == "off-circle eigenvalue"


def test_membership_minus_id():
    chk = is_positively_elliptic(-np.eye(2))
    assert not chk
    assert chk.reason == "eigenvalue -1"


def test_membership_id():
    chk = is_positively_elliptic(np.eye(4))
    assert not chk
    assert chk.reason == "eigenvalue +1"


def test_membership_indefinite():
    chk = is_positively_elliptic(block_rotation([0.7, -0.7]))
    assert not chk
    assert chk.reason == "indefinite Krein signature"


def test_membership_boundary_angles():
    for theta in (0.0, np.pi):
        assert not is_positively_elliptic(rot(theta))


def test_region_exp_of_cone_generator():
    # exp of X in sp+ with spectrum in i(0, pi) lands in the region
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((2 * n, 2 * n))
        X = -omega_matrix(n) @ (A.T @ A + 1e-3 * np.eye(2 * n))
        rho = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
        X = X * rng.uniform(0.05, np.pi - 0.05) / rho
        assert is_positively_elliptic(scipy.linalg.expm(X))


def test_normal_form_matches_krein_spectrum():
    # the normal form's verdict and angles against the Krein spectrum, and
    # the stacked verdicts, one stack per n, against the single-matrix ones
    members = 0
    by_n: dict[int, tuple[list, list]] = {1: ([], []), 2: ([], []), 3: ([], [])}
    for i in range(3000):
        W = differential_sample(i)
        spec = krein_spectrum(W, on_degenerate="mark")
        want = reference_reason(spec) is None
        assert bool(is_positively_elliptic(W)) is want, i
        stack, verdicts = by_n[W.shape[0] // 2]
        stack.append(W)
        verdicts.append(want)
        if not want:
            continue
        members += 1
        ref = np.sort([c.angle for c in spec.clusters
                       for _ in range(c.alg_mult) if c.value.imag > 0])
        if np.all(np.diff(ref) > 1e-5):
            np.testing.assert_allclose(elliptic_angles(W), ref, rtol=0, atol=1e-9)
    assert 1000 < members < 2500
    for n, (stack, verdicts) in by_n.items():
        got = _normal_form(_symplectic_stack(stack)).inside
        assert got.dtype == bool and got.tolist() == verdicts, n


def test_stack_membership_along_a_flow_across_both_exits():
    rng = np.random.default_rng(97)
    for n in (1, 2, 3):
        W0 = random_elliptic(rng, n, margin=0.3)
        X = random_cone_element(rng, n)
        rho = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
        ts = np.linspace(-np.pi, np.pi, 401) / rho
        Ws = np.array([scipy.linalg.expm(t * X) @ W0 for t in ts])
        want = [bool(is_positively_elliptic(W)) for W in Ws]
        assert _normal_form(_symplectic_stack(Ws)).inside.tolist() == want
        # the flow starts inside and leaves on both sides
        assert want[200] and not want[0] and not want[-1]


def test_stack_normal_form_matches_the_single_matrix_form():
    # I, -I, a shear at +1, a hyperbolic matrix, a rotation through -1 and
    # a general symplectic matrix among members: the stacked kernel against
    # the same kernel on each matrix alone
    B = np.array([[1.0, 0.3], [0.3, 2.0]])
    shear = np.block([[np.eye(2), B], [np.zeros((2, 2)), np.eye(2)]])
    outside = [np.eye(4), -np.eye(4), shear, np.diag([2.0, 3.0, 0.5, 1 / 3]),
               block_rotation([np.pi, 0.5]), random_symplectic(1, 2)]
    members = [random_elliptic(s, 2) for s in range(8)] + [rot(0.7, 2)]
    Ws = np.array(outside[:3] + members[:4] + outside[3:] + members[4:])
    inside, theta = _normal_form(_symplectic_stack(Ws))[:2]
    assert inside.dtype == bool and theta.shape == (len(Ws), 2)
    for W, ok, th in zip(Ws, inside, theta):
        one, th_one = _normal_form(W)[:2]
        assert bool(ok) is bool(one)
        if ok:
            assert th.tobytes() == th_one.tobytes()
    assert inside.sum() == len(members)


def _misaligned(W: np.ndarray) -> np.ndarray:
    """A copy of W whose data starts 3 bytes into its buffer."""
    buf = np.zeros(W.nbytes + 3, dtype=np.uint8)
    out = np.ndarray(W.shape, dtype=W.dtype, buffer=buf, offset=3)
    out[...] = W
    return out


def test_stacked_angles_equal_the_memo_form_to_the_bit():
    # one angle kernel: the angles of a stack and of its matrices one at a
    # time, read from the form memo, are the same bits, on the grids of the
    # first 60 criterion-3 paths (seed 42) and on the mixed sample; they do
    # not depend on the input's alignment
    grids = [pathlab._confined_trial(42, 30_000 + k, n, steps=50, step_size=0.02)[1]
             .matrices for k, n in pathlab._schedule((1, 2, 3), 60)]
    by_n: dict[int, list] = {1: [], 2: [], 3: []}
    for i in range(3000):
        by_n[1 + i % 3].append(differential_sample(i))
    stacks = [np.array(Ws) for Ws in grids + list(by_n.values())]
    assert sum(map(len, stacks)) == 3060 + 3000
    for Ws in stacks:
        theta = _normal_form(_symplectic_stack(Ws)).theta
        for k, (W, th) in enumerate(zip(Ws, theta)):
            one = _checked_form(W).theta
            assert one.tobytes() == th.tobytes(), k
            # a reversed view would send the angles' log to another loop
            assert one.flags.c_contiguous and th.flags.c_contiguous, k
    for W in stacks[-1][:100]:
        assert (_normal_form(_misaligned(W)).theta.tobytes()
                == _normal_form(W).theta.tobytes())


def _verdict_edge_stack(rng, k: int) -> tuple[list, bool | None]:
    """Case k of the values-only verdict test at n = 1 + k % 3: a matrix with
    an angle within 1e-6 relative of the band edge 1e-8 or of pi - 1e-8
    (unconjugated for k % 5 == 0, when its side of the edge is returned),
    two Jordan shears at +1 or -1 of either sign and a hyperbolic matrix."""
    n = 1 + k % 3
    S = np.eye(2 * n) if k % 5 == 0 else random_symplectic(rng, n, scale=0.4)
    Si = symplectic_inverse(S)
    theta = np.sort(rng.uniform(0.3, np.pi - 0.3, n))
    rel = 1e-6 if k % 2 else -1e-6
    if (k // 2) % 2:
        theta[0] = ANGLE_BOUNDARY_BAND * (1 + rel)
    else:
        theta[-1] = np.pi - ANGLE_BOUNDARY_BAND * (1 + rel)
    C = rng.standard_normal((n, n))
    C = C @ C.T + 0.1 * np.eye(n)
    sign = 1.0 if k % 2 else -1.0
    Z, I = np.zeros((n, n)), np.eye(n)
    A = np.diag(np.exp(rng.uniform(0.1, 1.0, n)))
    Ws = [S @ block_rotation(theta) @ Si,
          sign * S @ np.block([[I, C], [Z, I]]) @ Si,
          sign * S @ np.block([[I, -C], [Z, I]]) @ Si,
          S @ np.block([[A, Z], [Z, np.linalg.inv(A)]]) @ Si]
    return Ws, (rel > 0 if k % 5 == 0 else None)


def test_stack_verdicts_match_the_checked_form():
    # the values-only verdicts of connect's samples against the single-matrix
    # form's, and against the verdict read off the form's angles, on the
    # mixed sample, the outside matrices of
    # test_stack_normal_form_matches_the_single_matrix_form with three
    # members, and 300 cases at the edges
    # of the verdict: angles within 1e-6 relative of the band, Jordan shears
    # at +-1 and hyperbolic matrices, 4209 matrices in all
    B = np.array([[1.0, 0.3], [0.3, 2.0]])
    shear = np.block([[np.eye(2), B], [np.zeros((2, 2)), np.eye(2)]])
    by_n: dict[int, list] = {1: [], 2: [], 3: []}
    by_n[2] += [np.eye(4), -np.eye(4), shear, np.diag([2.0, 3.0, 0.5, 1 / 3]),
                block_rotation([np.pi, 0.5]), random_symplectic(1, 2), rot(0.7, 2)]
    by_n[2] += [random_elliptic(s, 2) for s in range(2)]
    for i in range(3000):
        W = differential_sample(i)
        by_n[W.shape[0] // 2].append(W)
    rng = np.random.default_rng(131)
    for k in range(300):
        Ws, side = _verdict_edge_stack(rng, k)
        by_n[1 + k % 3] += Ws
        if side is not None:
            assert bool(is_positively_elliptic(Ws[0])) is side, k
    members = 0
    for n, Ws in by_n.items():
        got = _stack_verdicts(np.array(Ws))
        assert got.dtype == bool and got.shape == (len(Ws),)
        for W, inside in zip(Ws, got):
            form = _checked_form(W)
            assert bool(inside) is bool(form.inside)
            by_angles = (form.p_min > _GRAM_NOISE * form.p_max
                         and ANGLE_BOUNDARY_BAND <= form.theta[0]
                         and form.theta[-1] <= np.pi - ANGLE_BOUNDARY_BAND)
            assert bool(inside) is bool(by_angles)
        members += int(got.sum())
    assert sum(map(len, by_n.values())) == 4209 and 1000 < members < 3000


# The Cayley-Williamson normal form the library used before the congruence
# form, kept as the differential reference
def _cayley_normal_form(W: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
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


def test_normal_form_matches_the_cayley_reference():
    # on the mixed sample, where both forms accept, the angles agree
    both = 0
    for i in range(3000):
        W = differential_sample(i)
        inside, theta = _normal_form(W)[:2]
        ref = _cayley_normal_form(W)
        if inside and ref is not None:
            both += 1
            np.testing.assert_allclose(theta, ref[0], rtol=0, atol=1e-9)
    assert both > 1000


def test_normal_form_near_a_zero_angle_under_conjugation():
    # an angle from 1e-3 down to 3e-8 next to 0 or pi under conjugations of
    # condition up to about 380: every member is accepted and its angles
    # are exact to 1e-8
    for seed in (7, 11, 3, 5):
        S = random_symplectic(seed, 3, scale=1.2)
        Si = symplectic_inverse(S)
        for t1 in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 3e-8):
            for angles in ((t1, 1.0, np.pi - t1), (t1, 1.0, 2.0),
                           (1.0, 2.0, np.pi - t1)):
                W = S @ block_rotation(np.array(angles)) @ Si
                assert is_positively_elliptic(W), (seed, angles)
                np.testing.assert_allclose(
                    elliptic_angles(W), np.sort(angles), rtol=0, atol=1e-8
                )


def test_stack_membership_rejects_a_bad_matrix_without_warning():
    good = np.array([rot(0.5 + 0.1 * k, 2) for k in range(5)])
    for bad in (np.nan, np.inf, 1e160, 2.0):
        Ws = good.copy()
        Ws[3, 1, 2] = bad
        with pytest.raises(NotSymplecticError) as single:
            require_symplectic(Ws[3], tol=1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymplecticError) as stacked:
                _normal_form(_symplectic_stack(Ws))
        assert str(stacked.value) == str(single.value)


# -- splitting --------------------------------------------------------------

def test_splitting_quarter_rotation():
    split = elliptic_splitting(rot(np.pi / 2))
    np.testing.assert_allclose(split.angles, [np.pi / 2], atol=1e-12)


def test_splitting_block_diagonal():
    W = block_rotation([0.4, 2.0])
    split = elliptic_splitting(W)
    np.testing.assert_allclose(split.angles, [0.4, 2.0], atol=1e-10)


def test_splitting_conjugated():
    W = block_rotation([0.4, 2.0])
    S = random_symplectic(19, 2, scale=0.4)
    Wc = S @ W @ symplectic_inverse(S)
    split = elliptic_splitting(Wc)
    np.testing.assert_allclose(split.angles, [0.4, 2.0], atol=1e-9)
    assert np.linalg.norm(split.basis - np.eye(4)) > 1e-3


def test_splitting_basis_invariants():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.1)
        split = elliptic_splitting(W)
        O = omega_matrix(n)
        B = split.basis
        # basis symplectic
        np.testing.assert_allclose(B.T @ O @ B, O, atol=1e-8)
        # B^{-1} W B is the block rotation by the angles
        np.testing.assert_allclose(
            np.linalg.solve(B, W @ B), block_rotation(split.angles), atol=1e-7
        )
        # angles match the positive-imaginary eigenvalue arguments
        args = np.sort(np.angle(np.linalg.eigvals(W)))
        np.testing.assert_allclose(np.sort(split.angles), args[n:], atol=1e-8)


def test_splitting_complex_structure():
    split = elliptic_splitting(block_rotation([0.4, 2.0]))
    for k in range(2):
        Jk = split.complex_structure(k)
        # acts as a complex structure on its plane, zero elsewhere
        np.testing.assert_allclose(Jk @ Jk @ Jk, -Jk, atol=1e-10)


def test_splitting_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        elliptic_splitting(np.diag([2.0, 0.5]))


def test_splitting_repeated_angles():
    W = block_rotation([1.1, 1.1, 1.1])
    split = elliptic_splitting(W)
    np.testing.assert_allclose(split.angles, [1.1, 1.1, 1.1], atol=1e-9)
    O = omega_matrix(3)
    np.testing.assert_allclose(split.basis.T @ O @ split.basis, O, atol=1e-8)


def test_clustered_angles_exact():
    # angles 1e-7 apart come back to roundoff, not as the cluster mean
    th = np.array([1.0, 1.0 + 1e-7, 1.0 + 2e-7])
    S = random_symplectic(5, 3, scale=1.2)
    W = S @ block_rotation(th) @ symplectic_inverse(S)
    np.testing.assert_allclose(elliptic_angles(W), th, rtol=0, atol=1e-12)
    np.testing.assert_allclose(elliptic_splitting(W).angles, th, rtol=0, atol=1e-12)
    assert abs(dist_formula(W) - np.exp(np.mean(np.log(th)))) <= 1e-12


# -- logarithm --------------------------------------------------------------

def test_log_rotation():
    X = log_elliptic(rot(0.5))
    np.testing.assert_allclose(X, 0.5 * standard_J(1), atol=1e-10)


def test_log_block():
    W = block_rotation([0.4, 2.0])
    np.testing.assert_allclose(
        log_elliptic(W), block_rotation_generator([0.4, 2.0]), atol=1e-10
    )


def test_log_roundtrip_random():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.05)
        X = log_elliptic(W)
        assert cone_status(X) is ConeStatus.INTERIOR
        assert float(np.max(np.abs(np.linalg.eigvals(X).imag))) < np.pi
        err = np.linalg.norm(scipy.linalg.expm(X) - W)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(W))


def test_log_warns_near_pi():
    with pytest.warns(IllConditionedWarning):
        log_elliptic(rot(np.pi - 1e-7))


def test_log_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        log_elliptic(-np.eye(2))


# -- time function ----------------------------------------------------------

def test_tau_symmetry_point():
    assert abs(tau(rot(np.pi / 2))) < 1e-12


def test_tau_pi_3():
    np.testing.assert_allclose(tau(rot(np.pi / 3)), -np.log(2), atol=1e-12)


def test_tau_additive():
    W = block_rotation([np.pi / 2, np.pi / 3])
    np.testing.assert_allclose(tau(W), -np.log(2), atol=1e-12)


def test_tau_divergence():
    assert tau(block_rotation(1e-6)) < -13
    assert tau(block_rotation(np.pi - 1e-6)) > 13


def test_tau_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        tau(np.diag([2.0, 0.5]))


# -- Maslov value -----------------------------------------------------------

def test_mu_pi_3():
    np.testing.assert_allclose(mu_elliptic(rot(np.pi / 3)), 1 / 6, atol=1e-12)


def test_mu_block():
    np.testing.assert_allclose(
        mu_elliptic(block_rotation([0.4, 2.0])), 2.4 / (2 * np.pi), atol=1e-12
    )


def test_mu_conjugation_invariant():
    W = block_rotation([0.4, 2.0])
    S = random_symplectic(53, 2, scale=0.4)
    np.testing.assert_allclose(
        mu_elliptic(S @ W @ symplectic_inverse(S)), mu_elliptic(W), atol=1e-9
    )


# -- minus_inverse ----------------------------------------------------------

def test_minus_inverse_rotation():
    np.testing.assert_allclose(minus_inverse(rot(0.3)), rot(np.pi - 0.3), atol=1e-12)


def test_minus_inverse_involution():
    W = random_symplectic(59, 2, scale=0.5)
    np.testing.assert_allclose(minus_inverse(minus_inverse(W)), W, atol=1e-10)


def test_minus_inverse_angle_complement():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.05)
        th = elliptic_angles(W)
        th_m = elliptic_angles(minus_inverse(W))
        np.testing.assert_allclose(th_m, np.pi - th[::-1], atol=1e-8)
        # tau antisymmetry and the mu complement identity
        np.testing.assert_allclose(tau(minus_inverse(W)), -tau(W), atol=1e-8)
        np.testing.assert_allclose(
            mu_elliptic(W) + mu_elliptic(minus_inverse(W)), n / 2, atol=1e-8
        )


# -- the memoised normal form -----------------------------------------------

@contextlib.contextmanager
def _uncached():
    """Route every entry through a test-local, uncached require_symplectic
    and _normal_form in place of the memo."""
    def form(W):
        return _normal_form(require_symplectic(W, TOL_GROUP))

    saved = elliptic._checked_form
    elliptic._checked_form = causal._checked_form = pathlab._checked_form = form
    try:
        yield
    finally:
        elliptic._checked_form = causal._checked_form = pathlab._checked_form = saved


def _exits(W):
    n = np.shape(W)[0] // 2
    return exit_times(W, standard_J(n), t_max=10.0)


#: Every single-matrix entry that reads the memo.
ROUTED = (is_positively_elliptic, elliptic_angles, tau, mu_elliptic,
          dist_formula, elliptic_splitting, log_elliptic, _exits)


def _bits(result):
    """A result exact to the bit: arrays by their bytes, the rest by repr
    (floats print round-trip exact)."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, elliptic.EllipticSplitting):
        return result.n, _bits(result.angles), _bits(result.basis)
    return repr(result)


def _outcome(f, W):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            return _bits(f(W))
    except (SymplecticDomainError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _variants(W):
    """W as other inputs with the same entries, or as another symplectic
    matrix: F-ordered, a strided view, its transposed view, a nested list
    and float32."""
    return [np.asfortranarray(W), np.pad(W, 1)[1:-1, 1:-1], W.T, W.tolist(),
            W.astype(np.float32)]


def test_memo_matches_the_uncached_form_on_the_mixed_sample():
    samples = [differential_sample(i) for i in range(3000)]
    structured = [block_rotation([0.4, 2.0]), np.eye(2), -np.eye(4), rot(np.pi / 2),
                  np.array([[1.0, 0.7], [0.0, 1.0]]), np.diag([2.0, 0.5])]
    # -0.0 entries, and integer matrices: a quarter turn, -I, a shear, a
    # hyperbolic matrix and one that is not symplectic
    signed_zeros = [np.where(W == 0, -0.0, W) for W in structured]
    ints = [np.array(W) for W in ([[0, -1], [1, 0]], [[-1, 0], [0, -1]],
                                  [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[2, 0], [0, 1]])]
    inputs = list(samples)
    inputs += [_variants(W)[i % 5] for i, W in enumerate(samples[:300])]
    inputs += structured + signed_zeros + ints
    # every entry on members; on the rest the region entries share one
    # rejection path, which tau stands for; exit times on every tenth input
    calls = []
    for k, W in enumerate(inputs):
        try:
            inside = _normal_form(require_symplectic(W, tol=1e-7)).inside
        except SymplecticDomainError:
            inside = False
        entries = ROUTED[:-1] if inside else (is_positively_elliptic, tau, dist_formula)
        calls.append(entries + ROUTED[-1:] * (k % 10 == 0))
    _checked_form.cache_clear()
    got = [[_outcome(f, W) for f in entries] for W, entries in zip(inputs, calls)]
    with _uncached():
        want = [[_outcome(f, W) for f in entries] for W, entries in zip(inputs, calls)]
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, k
    info = _checked_form.cache_info()
    assert info.maxsize == info.currsize == 64 and info.hits > 2 * len(samples)
    assert sum(len(c) >= len(ROUTED) - 1 for c in calls) > 1000   # members


def test_memo_results_are_copies_of_read_only_forms():
    W = random_elliptic(3, 2)
    th = elliptic_angles(W)
    want = th.tobytes()
    th[:] = 0.0
    split = elliptic_splitting(W)
    split.angles[:] = 0.0
    assert elliptic_angles(W).tobytes() == want
    assert elliptic_splitting(W).angles.tobytes() == want
    t = tau(W)
    with _uncached():
        assert repr(tau(W)) == repr(t)
    form = _checked_form(W)
    for a in (form.theta, form.E, form.Y):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_memo_never_stores_an_error():
    off = rot(0.5)
    off[0, 1] += 1e-3
    nonfinite = rot(0.5)
    nonfinite[1, 0] = np.nan
    for W in (off, nonfinite):
        with pytest.raises(NotSymplecticError) as ref:
            require_symplectic(W, tol=1e-7)
        for f in (elliptic_angles, tau, is_positively_elliptic, dist_formula):
            for _ in range(3):
                with pytest.raises(NotSymplecticError) as exc:
                    f(W)
                assert str(exc.value) == str(ref.value)
    # a non-member is stored, its rejection raises every time
    for _ in range(3):
        with pytest.raises(NotEllipticError, match="off-circle eigenvalue"):
            tau(np.diag([2.0, 0.5]))


def test_memo_holds_the_last_64_forms():
    _checked_form.cache_clear()
    for k in range(100):
        tau(rot(0.01 + 0.03 * k))
    info = _checked_form.cache_info()
    assert info.maxsize == 64 and info.misses == 100 and info.currsize == 64
    tau(rot(0.01 + 0.03 * 36))   # the oldest kept
    assert _checked_form.cache_info().hits == info.hits + 1
    tau(rot(0.01 + 0.03 * 35))   # the newest evicted
    assert _checked_form.cache_info().misses == info.misses + 1


def test_a_primed_record_is_stored_without_a_form_and_never_replaces_one():
    _checked_form.cache_clear()
    W, V = rot(0.5), rot(0.7)
    form = _checked_form(V)
    _checked_form.prime(W, form)   # the memo takes the value on trust
    assert _checked_form(W) is form
    _checked_form.prime(V, None)   # V has a record, which stays
    assert _checked_form(V) is form
    info = _checked_form.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 3, 2)


def test_tau_along_a_fresh_confined_path_reads_the_forms_of_its_confine_check():
    # the path_lab recipe; W_0 is the one grid matrix the generator never
    # checks, so it is the one miss
    for n in (1, 2, 3):
        W0 = random_elliptic_banded(n, n, lo=0.3, hi=1.8)
        _checked_form.cache_clear()
        path = pathlab.random_causal_path(n, n, steps=50, W_start=W0,
                                          step_size=0.02, confine=True)
        made = _checked_form.cache_info()
        assert made.hits == 0 and 50 <= made.misses < 64
        got = [tau(W) for W in path.matrices]
        info = _checked_form.cache_info()
        assert info.misses == made.misses + 1 and info.hits == 50
        with _uncached():
            want = [tau(W) for W in path.matrices]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_a_tightened_membership_check_shares_the_one_record():
    W = random_elliptic(5, 2)
    _checked_form.cache_clear()
    assert is_positively_elliptic(W, tol=1e-9)
    tau(W), elliptic_angles(W), dist_formula(W)
    info = _checked_form.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def _reference_check(W, tol):
    """`is_positively_elliptic(W, tol)` from an uncached form checked at
    min(tol, TOL_GROUP)."""
    W = np.asarray(W, dtype=float)
    form = _normal_form(require_symplectic(W, min(tol, TOL_GROUP)))
    scale = max(float(form.p_max), -float(form.p_min))
    margin = float(form.p_min) / scale if scale > 0 else 0.0
    if not form.inside:
        return EllipticCheck(False, elliptic._rejection_reason(W), gram_margin=margin)
    th = form.theta
    return EllipticCheck(True, None, margin, float(th[0]), float(np.pi - th[-1]))


def test_membership_tolerance_only_tightens_the_group_check():
    # a member whose relative residual lies between 1e-9 and 1e-7
    drifted = rot(0.5)
    drifted[0, 1] += 2e-8
    rel = is_symplectic(drifted, tol=1.0).residual / np.linalg.norm(drifted) ** 2
    assert 1e-9 < rel < TOL_GROUP
    nonfinite = rot(0.5)
    nonfinite[1, 0] = np.nan
    inputs = [rot(0.5), random_elliptic(2, 2), random_elliptic(3, 3),
              np.diag([2.0, 0.5]), -np.eye(4), block_rotation([0.7, -0.7]),
              random_symplectic(4, 2), drifted, nonfinite]
    tols = [-1.0, 0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1.0, np.inf, np.nan]
    _checked_form.cache_clear()
    # both orders, so that a tight tol meets a record a loose one stored
    for tol in tols + tols[::-1]:
        for W in inputs:
            got = _outcome(lambda W: is_positively_elliptic(W, tol), W)
            assert got == _outcome(lambda W: _reference_check(W, tol), W), (tol, W)
    assert _checked_form.cache_info().hits > 0
    assert is_positively_elliptic(drifted, tol=1e-5)
    with pytest.raises(NotSymplecticError, match="exceeds tolerance"):
        is_positively_elliptic(drifted, tol=1e-9)


@st.composite
def _interleavings(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(2):
        n = int(rng.integers(1, 4))
        member = random_elliptic(rng, n, margin=0.01)
        other = random_symplectic(rng, n, scale=rng.uniform(0.2, 1.5))
        pool += [member, minus_inverse(member), other, minus_inverse(other)]
    off = pool[0].copy()
    off[0, 0] += 1e-3   # not symplectic
    pool.append(off)
    calls = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(0, len(ROUTED) - 1)),
                          min_size=1, max_size=40))
    return pool, calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_interleavings())
def test_memo_interleavings_match_the_uncached_form(case):
    pool, calls = case
    got = [_outcome(ROUTED[f], pool[w]) for w, f in calls]
    with _uncached():
        want = [_outcome(ROUTED[f], pool[w]) for w, f in calls]
    assert got == want


# -- margins ----------------------------------------------------------------

def test_elliptic_check_margins():
    # P = 2 sym(Omega W) of block_rotation(theta) is diag(2 sin theta) twice
    chk = is_positively_elliptic(block_rotation([0.3, 2.5]))
    assert chk.elliptic and chk.reason is None
    assert chk.gram_margin == pytest.approx(np.sin(0.3) / np.sin(2.5), rel=1e-12)
    assert chk.min_angle == pytest.approx(0.3, abs=1e-12)
    assert chk.min_pi_gap == pytest.approx(np.pi - 2.5, abs=1e-12)
    S = random_symplectic(5, 2, scale=0.6)
    conj = is_positively_elliptic(S @ block_rotation([0.3, 2.5]) @ symplectic_inverse(S))
    assert 0 < conj.gram_margin < chk.gram_margin
    assert conj.min_angle == pytest.approx(0.3, abs=1e-9)
    # non-members carry the Gram margin alone: negative off the closure, 0
    # where P vanishes
    for W, sign in ((np.diag([2.0, 0.5]), -1), (np.eye(2), 0), (-np.eye(4), 0),
                    (block_rotation([0.7, -0.7]), -1)):
        chk = is_positively_elliptic(W)
        assert not chk and np.sign(chk.gram_margin) == sign
        assert -1 <= chk.gram_margin <= 1
        assert chk.min_angle is None and chk.min_pi_gap is None
    assert EllipticCheck(False, "boundary") == EllipticCheck(False, "boundary", None)

