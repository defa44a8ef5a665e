"""Hermitian solves that call numpy's LAPACK kernels directly, for a matrix
or a stack (`core._eigh`), the Cholesky kernel of the verdict certificates
(`elliptic._stack_verdicts`) and the one symplectic rule
(`core._symplectic_check`), pinned bit for bit to the numpy paths they
replaced, kept here as differential references."""

import functools
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from spcausal import (
    CausalPath,
    block_rotation,
    block_rotation_generator,
    is_hamiltonian,
    is_symplectic,
    pathlab,
    random_symplectic,
    symplectic_inverse,
)
from spcausal.core import (
    TOL_HAM,
    _eigh,
    _omega,
    _row_norms,
    _symplectic_check,
    require_symplectic,
    symmetrized_form,
)
from spcausal.elliptic import (
    _BAND_EIGENVALUE,
    _GRAM_NOISE,
    _normal_form,
    _stack_verdicts,
    _symplectic_stack,
    elliptic_splitting,
    is_positively_elliptic,
    log_elliptic,
)
from spcausal.exceptions import SymplecticDomainError
from spcausal.krein import krein_gram

from labelling_reference import differential_sample


# The normal form, the symplectic check and the log assembly as the library
# computed them with every eigensolve through np.linalg.eigh, kept as the
# differential reference
def _numpy_normal_form(W: np.ndarray) -> tuple:
    """(inside, theta, E, Y, p_min, p_max) of a float W, one matrix or a
    stack."""
    n = W.shape[-1] // 2
    O = _omega(n)
    M = O @ W
    lam, Q = np.linalg.eigh(M + M.swapaxes(-1, -2))
    positive = lam[..., 0] > _GRAM_NOISE * lam[..., -1]
    G = Q / np.sqrt(np.where(positive[..., None], lam, 1.0))[..., None, :]
    w, U = np.linalg.eigh(1j * (G.swapaxes(-1, -2) @ O @ G))
    inside = positive & (w[..., -1] <= _BAND_EIGENVALUE)
    E = G @ U[..., n:]
    A = 1j * (M - M.swapaxes(-1, -2))
    c, Y = np.linalg.eigh(E.conj().swapaxes(-1, -2) @ A @ E)
    return (inside, np.arctan2(1.0, c)[..., ::-1], E, Y[..., ::-1],
            lam[..., 0], lam[..., -1])


def _numpy_is_symplectic(M, tol: float = 1e-9) -> tuple[bool, float]:
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
        if not norm < 1e154:
            return False, float("inf")
        O = _omega(M.shape[0] // 2)
        r = float(np.linalg.norm(M.T @ O @ M - O))
    return r <= tol * max(norm**2, 1e-300), r


def _projected(X: np.ndarray) -> np.ndarray:
    """X projected onto sp(2n) as -Omega sym(Omega X)."""
    return -_omega(X.shape[0] // 2) @ symmetrized_form(X)


def _numpy_log(W) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The logarithm of a member W, its splitting basis and the unprojected
    generator B K B^{-1}, which the splitting's generator once returned."""
    theta, E, Y = _numpy_normal_form(np.asarray(W, dtype=float))[1:4]
    V = E @ Y * np.sqrt(2 * np.sin(theta))
    B = np.sqrt(2) * np.hstack([V.real, -V.imag])
    X = B @ block_rotation_generator(theta) @ np.linalg.inv(B)
    return _projected(X), B, X


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@functools.cache
def _inputs() -> list:
    """The mixed sample, its first 300 matrices as F-ordered, strided,
    transposed and float32 arrays, -0.0 entries and integer matrices."""
    samples = [differential_sample(i) for i in range(3000)]
    variants = [np.asfortranarray, lambda W: np.pad(W, 1)[1:-1, 1:-1],
                lambda W: W.T, lambda W: W.astype(np.float32)]
    out = samples + [variants[i % 4](W) for i, W in enumerate(samples[:300])]
    structured = [block_rotation([0.4, 2.0]), np.eye(2), -np.eye(4),
                  block_rotation([1.1, 1.1, 1.1]), np.array([[1.0, 0.7], [0.0, 1.0]])]
    out += [np.where(W == 0, -0.0, W) for W in structured + samples[:30]]
    out += [np.array(W) for W in ([[0, -1], [1, 0]], [[-1, 0], [0, -1]],
                                  [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[2, 0], [0, 1]])]
    return out


def test_normal_form_matches_the_numpy_eigh_reference_to_the_bit():
    by_n: dict[int, list] = {1: [], 2: [], 3: []}
    for k, W in enumerate(_inputs()):
        W = np.asarray(W, dtype=float)
        got, want = _normal_form(W), _numpy_normal_form(W)
        assert [_bits(a) for a in got] == [_bits(a) for a in want], k
        by_n[W.shape[0] // 2].append(W)
    for Ws in by_n.values():
        Ws = np.array(Ws)
        got, want = _normal_form(Ws), _numpy_normal_form(Ws)
        assert [_bits(a) for a in got] == [_bits(a) for a in want]


def test_is_symplectic_matches_the_numpy_norm_reference_to_the_bit():
    extreme = []
    for k, value in enumerate((np.inf, -np.inf, np.nan, 1e153, 1e155)):
        W = np.array(differential_sample(k), dtype=float)
        W[0, -1] = value
        extreme += [W, differential_sample(k) * value]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, W in enumerate(_inputs() + extreme):
            for tol in (1e-9, 1e-7):
                chk = is_symplectic(W, tol)
                assert type(chk.ok) is bool and type(chk.residual) is float
                ok, r = _numpy_is_symplectic(W, tol)
                assert (chk.ok, repr(chk.residual)) == (ok, repr(r)), k


def test_a_stacked_check_matches_the_single_check_row_by_row():
    # the mixed sample, each matrix also perturbed in one entry by 1e-12 to
    # 1e-5 relative, and with a NaN entry, an infinite one or a scale past
    # 1e154 in turn: 12000 rows, the verdict of each and the residual of each
    # that passes to the bit
    rng = np.random.default_rng(23)
    by_n: dict[int, list] = {1: [], 2: [], 3: []}
    for k, W in enumerate(_inputs()[:3000]):
        nudged = W.copy()
        nudged.flat[rng.integers(W.size)] += 10 ** rng.uniform(-12, -5) * np.abs(W).max()
        odd = W.copy()
        if k % 3 == 2:
            odd *= 10 ** rng.uniform(154.1, 160)
        else:
            odd.flat[rng.integers(W.size)] = (np.nan, np.inf)[k % 3]
        by_n[W.shape[0] // 2] += [W, nudged, W * (1 + 10 ** rng.uniform(-12, -5)), odd]
    passed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Ws in by_n.values():
            Ws = np.array(Ws)
            for tol in (1e-9, 1e-7):
                ok, r = _symplectic_check(Ws, tol, stack=True)
                for k, W in enumerate(Ws):
                    want_ok, want_r = _symplectic_check(W, tol)
                    assert bool(ok[k]) is want_ok, k
                    if want_ok:
                        assert repr(float(r[k])) == repr(want_r), k
                    passed += want_ok
    assert 8000 < passed < 16000  # of 24000 checks


def test_row_norms_match_numpy_norm_per_matrix_to_the_bit():
    # the walk's unit tangents and the mixed sample
    rng = np.random.default_rng(29)
    stacks = [pathlab._cone_draws(rng, n, (2000,)) for n in (1, 2, 3)]
    stacks += [np.array([W for W in _inputs()[:3000] if W.shape[0] == 2 * n])
               for n in (1, 2, 3)]
    for Ws in stacks:
        want = np.array([np.linalg.norm(W) for W in Ws])
        assert _bits(_row_norms(Ws)) == _bits(want)
        assert _bits(Ws / _row_norms(Ws)[:, None, None]) == _bits(
            np.array([W / np.linalg.norm(W) for W in Ws]))


def test_require_symplectic_keeps_its_messages():
    off = block_rotation([0.5])
    off[0, 1] += 1e-3
    nonfinite = block_rotation([0.5, 1.0])
    nonfinite[1, 2] = np.nan
    residual = _numpy_is_symplectic(off)[1]
    with pytest.raises(SymplecticDomainError) as exc:
        require_symplectic(off, tol=1e-7)
    assert str(exc.value) == f"symplectic residual {residual:.3e} exceeds tolerance"
    with pytest.raises(SymplecticDomainError, match=r"^non-finite entries at \[\(1, 2\)\]$"):
        require_symplectic(nonfinite)


def test_log_splitting_and_generator_match_the_numpy_reference_to_the_bit():
    members = 0
    for k, W in enumerate(_inputs()):
        try:
            if not is_positively_elliptic(W):
                continue
        except SymplecticDomainError:
            continue
        members += 1
        want_log, want_basis, unprojected = _numpy_log(W)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _bits(log_elliptic(W)) == _bits(want_log), k
        split = elliptic_splitting(W)
        assert _bits(split.basis) == _bits(want_basis), k
        # the generator is B K B^{-1} projected onto sp(2n): the logarithm
        assert _bits(split.generator()) == _bits(_projected(unprojected)), k
        S = np.zeros((2 * split.n, 2 * split.n))
        S[split.n, 0], S[0, split.n] = 1.0, -1.0
        want = _projected(split.basis @ S @ np.linalg.inv(split.basis))
        assert _bits(split.complex_structure(0)) == _bits(want), k
    assert members > 1000


def _conjugated_rotations():
    """S R(theta) S^{-1} for random symplectic S of scale 0.4 to 3.0, angles
    in (0.2, pi - 0.2): ill-conditioned splittings of region elements."""
    rng = np.random.default_rng(5)
    for scale in (0.4, 0.8, 1.2, 1.6, 2.0, 3.0):
        for k in range(300):
            n = 1 + k % 3
            theta = np.sort(rng.uniform(0.2, np.pi - 0.2, n))
            S = random_symplectic(rng, n, scale)
            yield S @ block_rotation(theta) @ symplectic_inverse(S)


def test_the_splitting_generator_is_the_logarithm_and_hamiltonian():
    # the unprojected B K B^{-1} fails the Hamiltonian check at TOL_HAM on
    # 34 of these members, each with cond(B) >= 1.67e4, so that
    # cone_status(generator()) raised on them; the projected generator is
    # the logarithm and exactly Hamiltonian
    members = unprojected_fails = 0
    for k, W in enumerate(itertools.chain(_inputs()[:3000], _conjugated_rotations())):
        if not is_positively_elliptic(W):
            continue
        members += 1
        split = elliptic_splitting(W)
        X = split.generator()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _bits(X) == _bits(log_elliptic(W)), k
        assert is_hamiltonian(X, tol=0), k
        for j in range(split.n):
            assert is_hamiltonian(split.complex_structure(j), tol=0), (k, j)
        unprojected_fails += not is_hamiltonian(_numpy_log(W)[2], TOL_HAM)
    assert members == 1206 + 1796 and unprojected_fails == 34


def test_single_matrix_solves_match_numpy_at_every_size():
    # from 33 rows a workspace smaller than numpy's would change LAPACK's
    # tridiagonal reduction; a (k, N, N) stack, F-ordered too, loops the
    # same kernel
    rng = np.random.default_rng(5)
    for N in (1, 2, 5, 6, 32, 33, 40):
        A = rng.standard_normal((N, N))
        C = A + 1j * rng.standard_normal((N, N))
        As = rng.standard_normal((3, N, N))
        Cs = As + 1j * rng.standard_normal((3, N, N))
        Hs = As + As.swapaxes(1, 2)
        for H in (A + A.T, C + C.conj().T, np.asfortranarray(A + A.T),
                  Hs, Cs + Cs.conj().swapaxes(1, 2), np.asfortranarray(Hs)):
            w, v = _eigh(H)
            want_w, want_v = np.linalg.eigh(H)
            assert _bits(w) == _bits(want_w) and _bits(v) == _bits(want_v), N
            w, none = _eigh(H, vectors=False)
            assert none is None and _bits(w) == _bits(np.linalg.eigvalsh(H)), N


def test_a_failed_solve_raises_linalg_error():
    # LAPACK does not converge on NaN entries (info != 0)
    nan = np.full((4, 4), np.nan)
    for A in (nan, nan + 0j, np.array([nan, nan]), np.array([nan, nan]) + 0j):
        for vectors in (True, False):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                    _eigh(A, vectors)
    with pytest.raises(np.linalg.LinAlgError):
        _normal_form(nan)


def test_values_only_solves_of_the_cone_and_krein_grams_match_numpy():
    # the values-only solves of cone_status and of the Krein Gram of a
    # clustered eigenvalue
    for k, W in enumerate(_inputs()):
        W = np.asarray(W, dtype=float)
        for H in (symmetrized_form(W), krein_gram(W.T + 0.5j * W.T[::-1])):
            w, none = _eigh(H, vectors=False)
            assert none is None and _bits(w) == _bits(np.linalg.eigvalsh(H)), k


def test_a_single_matrix_solve_warns_as_numpy_does():
    # LAPACK's scaling of an infinite entry divides by zero, a flag numpy's
    # wrapper ignores; the solve then fails to converge or returns NaN
    def outcome(solve):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return _bits(solve()[0])
            except (np.linalg.LinAlgError, RuntimeWarning) as exc:
                return type(exc)

    inf_pair = np.eye(4)
    inf_pair[0, 1] = inf_pair[1, 0] = np.inf
    stacks = [np.array([np.eye(4), A, 2 * np.eye(4)])
              for A in (np.full((4, 4), np.inf), inf_pair, np.full((4, 4), np.nan))]
    for A in [np.full((4, 4), np.inf), inf_pair] + stacks:
        for H in (A, A + 0j):
            want = outcome(lambda: np.linalg.eigh(H))
            assert want is not RuntimeWarning
            assert outcome(lambda: _eigh(H)) == want
            want = outcome(lambda: (np.linalg.eigvalsh(H),))
            assert outcome(lambda: _eigh(H, vectors=False)) == want


def test_the_cholesky_kernel_matches_numpy_row_by_row():
    # _stack_verdicts' kernel on P -+ s I of the mixed sample, as stacks per
    # n, and on random (3, N, N) stacks of definite and indefinite rows: a
    # row that factors has the bits of np.linalg.cholesky, a row that fails
    # is all NaN, and under _stack_verdicts' error state no warning escapes
    chol = np.linalg._umath_linalg.cholesky_lo
    rng = np.random.default_rng(41)
    stacks = []
    for n in (1, 2, 3):
        Ws = np.array([W for W in _inputs()[:3000] if W.shape[0] == 2 * n])
        M = _omega(n) @ Ws
        P = M + M.swapaxes(1, 2)
        sI = (1e-6 * np.maximum(1.0, _row_norms(P)))[:, None, None] * np.eye(2 * n)
        stacks += [P - sI, P + sI]
    for N in (1, 2, 5, 6, 32, 33, 40):
        A = rng.standard_normal((3, N, N))
        H = A @ A.swapaxes(1, 2)
        stacks += [H + np.eye(N), H - np.eye(N), np.asfortranarray(H) + 1e-3 * np.eye(N)]
    failed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in stacks:
            with np.errstate(all="ignore"):
                L = chol(H)
            for k, A in enumerate(H):
                try:
                    want = np.linalg.cholesky(A)
                except np.linalg.LinAlgError:
                    assert np.isnan(L[k]).all(), k
                    failed += 1
                    continue
                assert _bits(L[k]) == _bits(want), k
        for n in (1, 2, 3):
            Ws = np.array([W for W in _inputs()[:3000] if W.shape[0] == 2 * n])
            Ws = _symplectic_stack(Ws[_symplectic_check(Ws, 1e-7, stack=True)[0]])
            assert _stack_verdicts(Ws).tolist() == _normal_form(Ws).inside.tolist()
    assert 2000 < failed < 5000


def test_tau_monotone_fails_on_a_path_through_a_non_member(monkeypatch):
    # the stacked form's verdicts, not NaN angles, fail the criterion
    members = [block_rotation([0.3 + 0.1 * k, 1.0 + 0.1 * k]) for k in range(4)]
    trial = SimpleNamespace(matrices=members[:2] + [block_rotation([0.5, -1.0])]
                            + members[2:])

    def confined_trial(*args, **kw):  # a path over the trial's matrices
        steps = len(trial.matrices) - 1
        return None, CausalPath(np.arange(steps + 1.0), (np.zeros((4, 4)),) * steps,
                                tuple(trial.matrices))

    monkeypatch.setattr(pathlab, "_confined_trial", confined_trial)
    ok, margin, _ = pathlab._tau_monotone(42, (2,), 1)
    assert not ok and np.isnan(margin)
    trial.matrices = members
    ok, margin, _ = pathlab._tau_monotone(42, (2,), 1)
    assert ok and margin > 0
    assert _normal_form(_symplectic_stack(members)).inside.all()
