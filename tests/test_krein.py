"""Tests for the Krein spectrum: calibration, signatures, nu."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from spcausal import (
    Location,
    block_rotation,
    dist_formula,
    krein_gram,
    krein_spectrum,
    minus_inverse,
    nu,
    random_elliptic,
    random_symplectic,
    standard_J,
    symplectic_inverse,
)
from spcausal import krein
from spcausal.exceptions import (
    DimensionMismatchError,
    SignatureDegenerateError,
    SymplecticDomainError,
)
from spcausal.krein import SIGMA_REL, _phases


def rot(theta, n=1):
    return scipy.linalg.expm(theta * standard_J(n))


def test_calibration_positive():
    # unit eigenvector of J for +i must have kappa(v, v) = +1
    v = np.array([1j, 1.0]) / np.sqrt(2)
    K = krein_gram([v])
    np.testing.assert_allclose(K, [[1.0]], atol=1e-14)


def test_calibration_negative():
    v = np.array([-1j, 1.0]) / np.sqrt(2)
    K = krein_gram([v])
    np.testing.assert_allclose(K, [[-1.0]], atol=1e-14)


def test_gram_hermitian_and_orthogonality():
    vp = np.array([1j, 1.0]) / np.sqrt(2)
    vm = np.array([-1j, 1.0]) / np.sqrt(2)
    K = krein_gram([vp, vm])
    np.testing.assert_allclose(K, K.conj().T, atol=1e-14)
    assert abs(K[0, 1]) < 1e-12
    assert abs(K[1, 0]) < 1e-12


def test_gram_rejects_odd_vectors():
    with pytest.raises(DimensionMismatchError):
        krein_gram([np.array([1.0, 0.0, 0.0])])


def test_spectrum_rotation_pi_3():
    spec = krein_spectrum(rot(np.pi / 3))
    assert spec.n == 1
    by_sign = {c.krein_signature: c for c in spec.clusters}
    cp = by_sign[(1, 0)]
    cm = by_sign[(0, 1)]
    np.testing.assert_allclose(cp.value, np.exp(1j * np.pi / 3), atol=1e-12)
    np.testing.assert_allclose(cm.value, np.exp(-1j * np.pi / 3), atol=1e-12)
    assert cp.location is Location.UNIT_CIRCLE_NONREAL


def test_spectrum_hyperbolic():
    spec = krein_spectrum(np.diag([2.0, 0.5]))
    assert all(c.location is Location.OFF_CIRCLE for c in spec.clusters)
    assert all(c.krein_signature is None for c in spec.clusters)
    values = sorted(abs(c.value) for c in spec.clusters)
    np.testing.assert_allclose(values, [0.5, 2.0], atol=1e-12)


def test_spectrum_mixed_signature():
    # blockdiag(R(theta), R(-theta)) in interleaved plane coordinates
    W = block_rotation([0.7, -0.7])
    spec = krein_spectrum(W)
    pos = [c for c in spec.clusters if c.value.imag > 0]
    assert len(pos) == 1
    c = pos[0]
    np.testing.assert_allclose(c.value, np.exp(0.7j), atol=1e-10)
    assert c.alg_mult == 2
    assert c.krein_signature == (1, 1)


def test_spectrum_minus_one():
    spec = krein_spectrum(-np.eye(2))
    assert len(spec.clusters) == 1
    c = spec.clusters[0]
    assert c.location is Location.MINUS_ONE
    assert c.alg_mult == 2


def test_total_multiplicity_and_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        W = random_symplectic(rng, n, scale=0.5)
        spec = krein_spectrum(W, on_degenerate="mark")
        assert spec.total_multiplicity == 2 * n
        values = [c.value for c in spec.clusters for _ in range(c.alg_mult)]
        for lam in values:
            # eigenvalues occur in lambda, 1/lambda, conj(lambda) families
            assert min(abs(lam - 1 / m) for m in values) < 1e-8 * max(1, abs(lam))
            assert min(abs(lam - np.conj(m)) for m in values) < 1e-8 * max(1, abs(lam))


def test_conjugate_cluster_signature_swaps():
    rng = np.random.default_rng(23)
    for k in range(100):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.1)
        spec = krein_spectrum(W)
        for c in spec.clusters:
            if c.value.imag > 0:
                assert c.krein_signature == (c.alg_mult, 0)
                partner = min(
                    spec.clusters, key=lambda d: abs(d.value - np.conj(c.value))
                )
                assert partner.krein_signature == (0, c.alg_mult)


def _mixed_sample(rng):
    """Region elements, general symplectic matrices, conjugated Krein
    collisions (exact and split) and minus_inverse images, n = 1..3."""
    for k in range(240):
        n = 1 + k % 3
        kind = (k // 3) % 4
        if kind == 0:
            yield random_elliptic(rng, n, margin=0.05)
        elif kind == 1:
            yield random_symplectic(rng, n, scale=float(rng.uniform(0.2, 1.5)))
        elif kind == 2:
            a = float(rng.uniform(0.3, 2.8))
            th = [a, -a - 0.05 * (k % 2), float(rng.uniform(0.3, 2.8))][: max(n, 2)]
            S = random_symplectic(rng, len(th), scale=0.3)
            yield S @ block_rotation(th) @ np.linalg.inv(S)
        else:
            yield minus_inverse(random_elliptic(rng, n, margin=0.05))


def test_simple_cluster_signature_matches_gram():
    # a simple on-circle cluster's signature and degenerate flag must agree
    # with the 1 x 1 Krein Gram matrix of its normalised eigenvector
    rng = np.random.default_rng(41)
    seen = {(1, 0): 0, (0, 1): 0}
    for W in _mixed_sample(rng):
        spec = krein_spectrum(W, on_degenerate="mark")
        evals, evecs = np.linalg.eig(W)
        for c in spec.clusters:
            if c.alg_mult != 1 or not c.location.on_circle:
                continue
            v = evecs[:, np.argmin(np.abs(evals - c.value))]
            ew = np.linalg.eigvalsh(krein_gram([v / np.linalg.norm(v)]))
            sig_tol = SIGMA_REL * max(float(np.max(np.abs(ew))), np.finfo(float).eps)
            degenerate = bool(np.any(np.abs(ew) <= sig_tol))
            assert c.degenerate == degenerate
            if not degenerate:
                expected = (int(np.sum(ew > sig_tol)), int(np.sum(ew < -sig_tol)))
                assert c.krein_signature == expected
                seen[expected] += 1
    assert min(seen.values()) >= 100


def test_nu_rotation():
    np.testing.assert_allclose(nu(rot(0.5)), np.exp(0.5j), atol=1e-12)


def test_nu_minus_id():
    np.testing.assert_allclose(nu(-np.eye(2)), -1.0, atol=1e-12)


def test_nu_hyperbolic():
    np.testing.assert_allclose(nu(np.diag([2.0, 0.5])), 1.0, atol=1e-12)


def test_nu_unit_modulus():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        W = random_elliptic(rng, n, margin=0.1)
        assert abs(abs(nu(W)) - 1.0) < 1e-12


def test_nu_multiplicative_on_commuting_blocks():
    W = block_rotation([0.4, 2.0])
    np.testing.assert_allclose(nu(W), np.exp(1j * 2.4), atol=1e-10)


def test_on_degenerate_validation():
    with pytest.raises(ValueError):
        krein_spectrum(np.eye(2), on_degenerate="ignore")


# -- the Krein labelling at +-1 and on repeated angles ------------------------

def test_widened_selection_keeps_the_multiplicity_and_marks_degenerate(monkeypatch):
    # conjugated n = 2 Jordan shears at +1, drawn like the n = 2 shear
    # inputs of the benchmark's spectrum screen at seeds 0-2: where the
    # ordered Schur selection of a cluster comes back wider than the
    # cluster, the cluster keeps its multiplicity and counts as
    # Krein-degenerate
    dims = {}

    def spy(W, rep, radius):
        U = subspace(W, rep, radius)
        dims[rep] = U.shape[1]
        return U

    subspace = krein._invariant_subspace
    monkeypatch.setattr(krein, "_invariant_subspace", spy)
    # the spy sees only spectra the memo has not stored yet
    krein._spectrum.cache_clear()
    widened = 0
    for seed, i in itertools.product((0, 1, 2), (13, 31, 49, 67, 85)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, i)))
        S = random_symplectic(rng, 2, scale=0.4)
        rng.uniform(0.3, np.pi - 0.3, 2)
        B = rng.standard_normal((2, 2))
        D = np.eye(4)
        D[:2, 2:] = B @ B.T + 0.5 * np.eye(2)
        W = S @ D @ symplectic_inverse(S)
        dims.clear()
        spec = krein_spectrum(W, on_degenerate="mark")
        assert spec.total_multiplicity == 4
        wide = [c for c in spec.clusters if dims.get(c.value, c.alg_mult) != c.alg_mult]
        assert all(c.degenerate and c.krein_signature is None for c in wide)
        if wide:
            widened += 1
            with pytest.raises(SignatureDegenerateError):
                krein_spectrum(W)
    assert widened >= 3


def _edge_sample(rng, k):
    """Seeded input on the spectral edge with its construction: (W, angles,
    closure, jordan), where ``angles`` are the signed Krein-positive phases,
    0 at +1 and pi at -1, and ``closure`` says W is in the closure of the
    region.  Kinds: a conjugated Jordan block at +1 or -1; repeated angles
    (theta, theta, theta'); rotations with planes at +1 and -1."""
    n = 1 + k % 3
    kind = (k // 3) % 3
    S = random_symplectic(rng, n, scale=0.4)
    if kind == 0:
        B = rng.standard_normal((n, n))
        D = np.eye(2 * n)
        lower, at_minus_one = rng.random(2) < 0.5
        # a shear below the diagonal at +1, or above it at -1, is causal
        if lower:
            D[n:, :n] = B @ B.T + 0.5 * np.eye(n)
        else:
            D[:n, n:] = B @ B.T + 0.5 * np.eye(n)
        angles = np.full(n, np.pi if at_minus_one else 0.0)
        return (S @ (-D if at_minus_one else D) @ symplectic_inverse(S), angles,
                bool(lower != at_minus_one), True)
    if kind == 1:
        a, b = rng.uniform(0.1, np.pi - 0.1, 2)
        angles = np.array([a, a, b])[:n]
        if rng.random() < 0.5:
            angles *= rng.choice([-1.0, 1.0], n)
    else:
        angles = rng.uniform(0.1, np.pi - 0.1, n)
        edge = rng.random(n) < 0.6
        angles[edge] = rng.choice([0.0, np.pi], int(edge.sum()))
    W = S @ block_rotation(angles) @ symplectic_inverse(S)
    return W, angles, bool(np.all(angles >= 0)), False


def test_labelling_on_plus_minus_one_and_repeated_angles():
    # each input either raises a typed error or has multiplicities summing to
    # 2n; then nu is (-1)^(m/2) exp(i sum plus), and a closure point has n
    # phases per label and dist_formula the geometric mean of its angles.  A
    # Jordan block splits by about sqrt(eps) under roundoff, which bounds its
    # phases to 1e-6 rather than to roundoff
    rng = np.random.default_rng(2026)
    raised = closure_points = 0
    for k in range(450):
        W, angles, closure, jordan = _edge_sample(rng, k)
        n = angles.size
        try:
            spec = krein_spectrum(W)
        except SymplecticDomainError:
            raised += 1
            continue
        assert spec.total_multiplicity == 2 * n, k
        ph = _phases(spec)
        sign = -1.0 if (ph.negative_real // 2) % 2 else 1.0
        assert abs(nu(W) - sign * np.exp(1j * sum(ph.plus))) <= 1e-12, k
        tol = 1e-6 if jordan else 1e-12
        assert abs(nu(W) - np.exp(1j * np.sum(angles))) <= tol, k
        if not closure:
            continue
        closure_points += 1
        assert len(ph.plus) == len(ph.minus) == n, k
        want = 0.0 if np.any(angles == 0) else float(np.exp(np.mean(np.log(angles))))
        assert abs(dist_formula(W) - want) <= tol, k
    assert raised < 150 and closure_points > 200
