"""Complex eigenstructure of symplectic matrices with Krein signatures.

The Krein form is the Hermitian form on C^{2n} obtained from the complexified
symplectic form.  The conjugation-slot convention is pinned by calibration:
with ``kappa(v, w) = -i v^T Omega conj(w)`` the unit eigenvector of the
standard complex structure J for eigenvalue +i has ``kappa(v, v) = +1``, which
is what makes ``e^{theta J}`` positively elliptic for theta in (0, pi).

Invariant subspaces of eigenvalue clusters are taken from eigenvectors for
simple clusters and from an ordered complex Schur reduction when a cluster has
algebraic multiplicity greater than one (stable for clustered or defective
eigenvalues).  Degenerate Gram matrices are reported, never silently resolved.
`krein_spectrum`, `nu`, the membership diagnosis and the closure branch of
`dist_formula` read one spectrum per matrix from a memo keyed by its content
(`_spectrum`; README, "The two memos").
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .core import TOL_GROUP, _content_memo, _eigh, _omega, require_symplectic
from .exceptions import DimensionMismatchError, SignatureDegenerateError

#: Relative gap below which eigenvalues are merged into one cluster.
DELTA_CLUSTER = 1e-6
#: Tolerance on | |lambda| - 1 | for unit-circle detection.
DELTA_CIRCLE = 1e-8
#: Tolerance on |lambda -+ 1| for detection of the eigenvalues +-1.
DELTA_REAL = 1e-8
#: Gram eigenvalues within this fraction of ||K|| of zero count as degenerate.
SIGMA_REL = 1e-8
#: Floor of ||K|| in the degeneracy tolerance.
_EPS = float(np.finfo(float).eps)


class Location(Enum):
    """Where an eigenvalue cluster sits relative to the unit circle."""

    UNIT_CIRCLE_NONREAL = "unit-circle"
    PLUS_ONE = "+1"
    MINUS_ONE = "-1"
    OFF_CIRCLE = "off-circle"

    @property
    def on_circle(self) -> bool:
        return self is not Location.OFF_CIRCLE


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue cluster with multiplicity and optional Krein signature."""

    value: complex
    alg_mult: int
    location: Location
    krein_signature: tuple[int, int] | None = None
    degenerate: bool = False

    @property
    def angle(self) -> float:
        """Argument of the representative in (-pi, pi]."""
        return cmath.phase(self.value)


@dataclass(frozen=True)
class KreinSpectrum:
    """Clustered spectrum of a 2n x 2n symplectic matrix."""

    n: int
    clusters: tuple[EigenCluster, ...] = field(default_factory=tuple)

    @property
    def total_multiplicity(self) -> int:
        return sum(c.alg_mult for c in self.clusters)


def krein_gram(vectors) -> np.ndarray:
    """Gram matrix K_{jk} = -i u_j^T Omega conj(u_k) of complex 2n-vectors.

    K is Hermitian by construction; its signature is the Krein signature of
    the span of the vectors.
    """
    U = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    if U.shape[0] % 2:
        raise DimensionMismatchError(f"vectors of odd length {U.shape[0]}")
    O = _omega(U.shape[0] // 2)
    K = -1j * (U.T @ O @ U.conj())
    return (K + K.conj().T) / 2


def _cluster_indices(evals: list) -> list[list[int]]:
    """Union-find clustering of eigenvalues with relative gap DELTA_CLUSTER.

    Eigenvalues on opposite sides of the real axis are never merged: a
    conjugate pair approaching -1 stays two clusters until each member is
    within DELTA_REAL of the axis, so membership tests resolve the boundary
    to DELTA_REAL rather than to the (coarser) clustering gap.  ``evals`` is
    a list of Python scalars; groups come out in order of their first member.
    """
    m = len(evals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    side = [(z.imag > DELTA_REAL) - (z.imag < -DELTA_REAL) for z in evals]
    for i in range(m):
        for j in range(i + 1, m):
            if side[i] != side[j]:
                continue
            gap = DELTA_CLUSTER * max(1.0, abs(evals[i]), abs(evals[j]))
            if abs(evals[i] - evals[j]) <= gap:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _classify(rep: complex) -> Location:
    if abs(rep - 1.0) <= DELTA_REAL:
        return Location.PLUS_ONE
    if abs(rep + 1.0) <= DELTA_REAL:
        return Location.MINUS_ONE
    if abs(abs(rep) - 1.0) <= DELTA_CIRCLE and abs(rep.imag) > DELTA_REAL:
        return Location.UNIT_CIRCLE_NONREAL
    return Location.OFF_CIRCLE


def _invariant_subspace(W: np.ndarray, rep: complex, radius: float) -> np.ndarray:
    """Orthonormal basis of the invariant subspace for eigenvalues near rep."""
    for r in (radius, 10 * radius, 100 * radius):
        T, Z, sdim = scipy.linalg.schur(
            W.astype(complex), output="complex", sort=lambda z, r=r: abs(z - rep) <= r
        )
        if sdim > 0:
            return Z[:, :sdim]
    raise RuntimeError("ordered Schur reduction selected an empty subspace")


def krein_spectrum(W: np.ndarray, on_degenerate: str = "raise") -> KreinSpectrum:
    """Clustered eigenvalues of W with Krein signatures on on-circle clusters.

    Parameters
    ----------
    W : symplectic 2n x 2n matrix.
    on_degenerate : "raise" to signal SignatureDegenerateError when a Gram
        eigenvalue lies within tolerance of zero, or when the invariant
        subspace of a cluster has another dimension than its multiplicity;
        "mark" to record the degeneracy on the cluster instead.
    """
    if on_degenerate not in ("raise", "mark"):
        raise ValueError("on_degenerate must be 'raise' or 'mark'")
    W = require_symplectic(W, TOL_GROUP)
    spec, degenerate_at = _spectrum(W)
    if on_degenerate == "raise" and degenerate_at is not None:
        raise SignatureDegenerateError(
            f"Krein Gram matrix degenerate at eigenvalue {degenerate_at:.6g}"
        )
    return spec


@_content_memo(4)
def _spectrum(W: np.ndarray) -> tuple[KreinSpectrum, complex | None]:
    """The Krein spectrum of a float matrix its caller has checked to be
    symplectic, with degenerate clusters marked, and the representative of
    the first degenerate cluster in computation order (None if there is
    none), memoised by content."""
    n = W.shape[0] // 2
    evals, evecs = np.linalg.eig(W)
    ev = evals.tolist()
    groups = _cluster_indices(ev)
    reps = [
        complex(ev[g[0]]) if len(g) == 1 else complex(evals[g].mean())
        for g in groups
    ]
    locs = [_classify(rep) for rep in reps]
    # The 1 x 1 Krein Gram matrix of a normalised eigenvector v = x + iy is
    # kappa(v, v) / |v|^2 = 2 (y_top . x_bot - x_top . y_bot) / |v|^2; simple
    # clusters read it from this one product over all eigenvectors.
    kappa = (
        2 * (evecs[:n] * evecs[n:].conj()).imag.sum(axis=0)
        / (evecs.real**2 + evecs.imag**2).sum(axis=0)
    ).tolist()
    clusters: list[EigenCluster] = []
    degenerate_at = None
    for g, rep, loc in zip(groups, reps, locs):
        mult = len(g)
        signature, degenerate = None, False
        if loc.on_circle:
            if mult == 1:
                ew, widened = [kappa[g[0]]], False
            else:
                spread = float(np.max(np.abs(evals[g] - rep)))
                radius = 2 * spread + DELTA_CLUSTER * max(1.0, abs(rep))
                U = _invariant_subspace(W, rep, radius)
                # a selection of another dimension cannot label the cluster
                widened = U.shape[1] != mult
                ew = _eigh(krein_gram(U.T), vectors=False)[0].tolist()
            sig_tol = SIGMA_REL * max(max(abs(e) for e in ew), _EPS)
            degenerate = widened or any(abs(e) <= sig_tol for e in ew)
            if not degenerate:
                signature = sum(e > sig_tol for e in ew), sum(e < -sig_tol for e in ew)
            elif degenerate_at is None:
                degenerate_at = rep
        clusters.append(EigenCluster(rep, mult, loc, signature, degenerate))
    angles = np.round(np.angle(np.array(reps)), 12).tolist()
    order = sorted(range(len(clusters)), key=lambda i: (angles[i], abs(reps[i])))
    return KreinSpectrum(n, tuple(clusters[i] for i in order)), degenerate_at


@dataclass(frozen=True)
class KreinPhases:
    """Eigenphases of a clustered spectrum by Krein label (see `_phases`)."""

    plus: tuple[float, ...]
    minus: tuple[float, ...]
    off_circle: int
    negative_real: int
    plus_one: int
    minus_one: int
    degenerate: bool


def _phases(spec: KreinSpectrum) -> KreinPhases:
    """The Krein labelling of the unit-circle eigenphases of a spectrum.

    A non-real unit-circle cluster of signature (p, q) gives its angle p
    times to ``plus`` and q times to ``minus``; a cluster at +1 or -1 gives
    0.0 or pi, alg_mult // 2 times, to each label, and a degenerate non-real
    cluster is labelled as in the region, + above the real axis.  W is
    positively elliptic exactly when ``plus`` holds n phases in (0, pi); on
    its closure, +-1 supply the phases 0 and pi.  The counts are algebraic
    multiplicities; ``negative_real`` counts off-circle negative reals.
    """
    plus: list[float] = []
    minus: list[float] = []
    off_circle = negative_real = plus_one = minus_one = 0
    for c in spec.clusters:
        if c.location is Location.OFF_CIRCLE:
            off_circle += c.alg_mult
            if abs(c.value.imag) <= DELTA_REAL and c.value.real < 0:
                negative_real += c.alg_mult
        elif c.location is Location.UNIT_CIRCLE_NONREAL:
            # a degenerate cluster is labelled as in the region
            p, q = c.krein_signature or (
                (c.alg_mult, 0) if c.value.imag > 0 else (0, c.alg_mult)
            )
            plus += [c.angle] * p
            minus += [c.angle] * q
        else:
            if c.location is Location.PLUS_ONE:
                plus_one += c.alg_mult
                angle = 0.0
            else:
                minus_one += c.alg_mult
                angle = np.pi
            plus += [angle] * (c.alg_mult // 2)
            minus += [angle] * (c.alg_mult // 2)
    return KreinPhases(
        tuple(plus), tuple(minus), off_circle, negative_real, plus_one, minus_one,
        any(c.degenerate for c in spec.clusters),
    )


def nu(W: np.ndarray) -> complex:
    """Unit-circle spectral invariant underlying the Maslov quasimorphism.

    nu(W) = (-1)^(m/2) exp(i sum of the Krein-positive phases), where m is
    the multiplicity of the off-circle negative real eigenvalues; the phase
    pi of each Krein-positive half of the eigenvalue -1 supplies its sign.
    Raises SignatureDegenerateError on a degenerate Krein signature.
    """
    ph = _phases(krein_spectrum(W, on_degenerate="raise"))
    sign = -1.0 if (ph.negative_real // 2) % 2 else 1.0
    return sign * cmath.exp(1j * sum(ph.plus))
