"""Differential test of the one Krein labelling, `krein._phases`, against
the four cluster walks it replaced: the membership diagnosis, nu, the
closure branch of dist_formula and the labelled phases of path tracking."""

import numpy as np
import scipy.optimize

from spcausal import (
    block_rotation,
    dist_formula,
    is_positively_elliptic,
    nu,
    omega_matrix,
    random_symplectic,
)
from spcausal.elliptic import _normal_form
from spcausal.exceptions import SymplecticDomainError
from spcausal.krein import Location, krein_spectrum
from spcausal.pathlab import _labeled_args

from labelling_reference import (
    differential_sample,
    reference_closure_dist,
    reference_labeled_args,
    reference_nu,
    reference_reason,
)


def _conjugate(S, D):
    O = omega_matrix(S.shape[0] // 2)
    return S @ D @ (-O @ S.T @ O)


def _closure_points():
    """Conjugated block rotations with angles 0 and pi among (0, pi)."""
    rng = np.random.default_rng(5)
    for k in range(600):
        n = 1 + k % 3
        th = rng.uniform(0.1, np.pi - 0.1, n)
        th[rng.random(n) < 0.4] = 0.0
        th[rng.random(n) < 0.3] = np.pi
        yield _conjugate(random_symplectic(rng, n, scale=0.4), block_rotation(th))


def _shears():
    """Conjugated Jordan shears at +1 by the shear recipe of the benchmark's
    spectrum screen, seeds 0-2, which lie outside the closure of the region,
    and their negatives at -1, which lie in it."""
    for seed in (0, 1, 2):
        for i in range(100):
            n = 1 + i % 3
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(2, i))
            )
            S = random_symplectic(rng, n, scale=0.4)
            rng.uniform(0.3, np.pi - 0.3, n)
            B = rng.standard_normal((n, n))
            D = np.eye(2 * n)
            D[:n, n:] = B @ B.T + 0.5 * np.eye(n)
            W = _conjugate(S, D)
            yield W
            yield -W


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except SymplecticDomainError as exc:
        return type(exc).__name__, str(exc)


def _chord(a, b):
    """Largest distance between matched points exp(i a) and exp(i b)."""
    za, zb = np.exp(1j * np.asarray(a)), np.exp(1j * np.asarray(b))
    C = np.abs(za[:, None] - zb[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    return float(C[rows, cols].max()) if rows.size else 0.0


def _has_indefinite_cluster(spec):
    return any(c.value.imag > 0 and c.krein_signature is not None
               and c.krein_signature[1] > 0 for c in spec.clusters)


def test_one_labelling_matches_the_four_cluster_walks():
    samples = {
        "mix": [differential_sample(i) for i in range(3000)],
        "closure": list(_closure_points()),
        "shear": list(_shears()),
    }
    precedence = 0
    outside_closure = labelling_rejected = 0
    for kind, Ws in samples.items():
        for i, W in enumerate(Ws):
            spec = krein_spectrum(W, on_degenerate="mark")
            inside = bool(_normal_form(W)[0])
            if not inside:
                # the diagnosis names "boundary" when the walk finds nothing
                want = reference_reason(spec) or "boundary"
                assert is_positively_elliptic(W).reason == want, kind

            got, ref = _outcome(_labeled_args, W), _outcome(reference_labeled_args, W)
            assert got[0] == ref[0] and (got[1] is None) == (ref[1] is None), kind
            if got[0] == "ok" and got[1] is not None:
                for new, old in zip(got[1], ref[1]):
                    assert _chord(new, old) <= 1e-14, kind

            got, ref = _outcome(nu, W), _outcome(reference_nu, W)
            assert got[0] == ref[0], kind
            if got[0] == "ok":
                assert abs(got[1] - ref[1]) <= 1e-14, kind

            if inside:
                continue
            got, ref = _outcome(dist_formula, W), _outcome(reference_closure_dist, spec)
            if kind == "shear" and i % 2 == 0:
                # a Jordan shear at +1 lies outside the closure, where P =
                # 2 sym(Omega W) is indefinite: the walk returned 0.0 for it
                # unless it already raised; an eigenvalue split off the axis
                # keeps the labelling's error (the Jordan-shear defect)
                assert got[0] == "NotEllipticError", got
                if ref[0] == "ok":
                    assert got[1].endswith("outside the closure of the region")
                    outside_closure += 1
                else:
                    assert got == ref
                    labelling_rejected += 1
                continue
            if got != ref and ref[0] != "ok" and "indefinite" in ref[1]:
                # an off-circle pair next to an indefinite cluster: the walk
                # named whichever it met first in the cluster order, the
                # labelling names the off-circle pair as the diagnosis does
                assert got[1].endswith("off-circle eigenvalue"), kind
                assert any(c.location is Location.OFF_CIRCLE for c in spec.clusters)
                assert _has_indefinite_cluster(spec)
                precedence += 1
                continue
            assert got[0] == ref[0], (kind, got, ref)
            if got[0] == "ok":
                assert abs(got[1] - ref[1]) <= 1e-14 * (1 + ref[1]), kind
            else:
                assert got[1] == ref[1], kind
    assert precedence > 0
    assert outside_closure + labelling_rejected == 300 and outside_closure > 0
