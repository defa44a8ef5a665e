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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .core import _omega, require_symplectic
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
        return float(np.angle(self.value))


@dataclass(frozen=True)
class KreinSpectrum:
    """Clustered spectrum of a 2n x 2n symplectic matrix."""

    n: int
    clusters: tuple[EigenCluster, ...] = field(default_factory=tuple)

    @property
    def total_multiplicity(self) -> int:
        return sum(c.alg_mult for c in self.clusters)

    def select(self, location: Location) -> list[EigenCluster]:
        return [c for c in self.clusters if c.location is location]

    @property
    def all_on_circle(self) -> bool:
        return all(c.location.on_circle for c in self.clusters)


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


def _cluster_indices(
    evals: list, delta: float, delta_real: float = DELTA_REAL
) -> list[list[int]]:
    """Union-find clustering of eigenvalues with relative gap delta.

    Eigenvalues on opposite sides of the real axis are never merged: a
    conjugate pair approaching -1 stays two clusters until each member is
    within delta_real of the axis, so membership tests resolve the boundary
    to delta_real rather than to the (coarser) clustering gap.  ``evals`` is
    a list of Python scalars; groups come out in order of their first member.
    """
    m = len(evals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    side = [(z.imag > delta_real) - (z.imag < -delta_real) for z in evals]
    for i in range(m):
        for j in range(i + 1, m):
            if side[i] != side[j]:
                continue
            gap = delta * max(1.0, abs(evals[i]), abs(evals[j]))
            if abs(evals[i] - evals[j]) <= gap:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _classify(rep: complex, delta_circle: float, delta_real: float) -> Location:
    if abs(rep - 1.0) <= delta_real:
        return Location.PLUS_ONE
    if abs(rep + 1.0) <= delta_real:
        return Location.MINUS_ONE
    if abs(abs(rep) - 1.0) <= delta_circle and abs(rep.imag) > delta_real:
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


def krein_spectrum(
    W: np.ndarray,
    delta_circle: float = DELTA_CIRCLE,
    delta_real: float = DELTA_REAL,
    on_degenerate: str = "raise",
) -> KreinSpectrum:
    """Clustered eigenvalues of W with Krein signatures on on-circle clusters.

    Parameters
    ----------
    W : symplectic 2n x 2n matrix.
    delta_circle, delta_real : detection tolerances for the unit circle and
        for the eigenvalues +-1.
    on_degenerate : "raise" to signal SignatureDegenerateError when a Gram
        eigenvalue lies within tolerance of zero, "mark" to record the
        degeneracy on the cluster instead.
    """
    if on_degenerate not in ("raise", "mark"):
        raise ValueError("on_degenerate must be 'raise' or 'mark'")
    W = require_symplectic(W, tol=1e-7)
    return _spectrum(W, delta_circle, delta_real, on_degenerate)


def _spectrum(
    W: np.ndarray,
    delta_circle: float = DELTA_CIRCLE,
    delta_real: float = DELTA_REAL,
    on_degenerate: str = "raise",
) -> KreinSpectrum:
    """krein_spectrum of a float matrix its caller has checked to be symplectic."""
    n = W.shape[0] // 2
    evals, evecs = np.linalg.eig(W)
    ev = evals.tolist()
    groups = _cluster_indices(ev, DELTA_CLUSTER)
    reps = [
        complex(ev[g[0]]) if len(g) == 1 else complex(evals[g].mean())
        for g in groups
    ]
    locs = [_classify(rep, delta_circle, delta_real) for rep in reps]
    # The 1 x 1 Krein Gram matrix of a normalised eigenvector v = x + iy is
    # kappa(v, v) / |v|^2 = 2 (y_top . x_bot - x_top . y_bot) / |v|^2; simple
    # clusters read it from this one product over all eigenvectors.
    kappa = (
        2 * (evecs[:n] * evecs[n:].conj()).imag.sum(axis=0)
        / (evecs.real**2 + evecs.imag**2).sum(axis=0)
    ).tolist()
    clusters: list[EigenCluster] = []
    for g, rep, loc in zip(groups, reps, locs):
        mult = len(g)
        signature = None
        degenerate = False
        if loc.on_circle:
            if mult == 1:
                ew = [kappa[g[0]]]
            else:
                spread = float(np.max(np.abs(evals[g] - rep)))
                radius = 2 * spread + DELTA_CLUSTER * max(1.0, abs(rep))
                U = _invariant_subspace(W, rep, radius)
                if U.shape[1] != mult:
                    # widened selection; fall back to the selected dimension
                    mult = U.shape[1]
                ew = np.linalg.eigvalsh(krein_gram(U.T)).tolist()
            sig_tol = SIGMA_REL * max(max(abs(e) for e in ew), _EPS)
            degenerate = any(abs(e) <= sig_tol for e in ew)
            if degenerate:
                if on_degenerate == "raise":
                    raise SignatureDegenerateError(
                        f"Krein Gram matrix degenerate at eigenvalue {rep:.6g}"
                    )
            else:
                signature = (
                    sum(e > sig_tol for e in ew),
                    sum(e < -sig_tol for e in ew),
                )
        clusters.append(
            EigenCluster(
                value=rep,
                alg_mult=mult,
                location=loc,
                krein_signature=signature,
                degenerate=degenerate,
            )
        )
    angles = np.round(np.angle(np.array(reps)), 12).tolist()
    order = sorted(range(len(clusters)), key=lambda i: (angles[i], abs(reps[i])))
    return KreinSpectrum(n=n, clusters=tuple(clusters[i] for i in order))


def nu(W: np.ndarray, delta_real: float = DELTA_REAL) -> complex:
    """Unit-circle spectral invariant underlying the Maslov quasimorphism.

    nu(W) = (-1)^m * prod over unit-circle non-real eigenvalue clusters of
    lambda^p(lambda), where 2m is the total algebraic multiplicity of the
    negative real eigenvalues and p the positive part of the Krein signature.
    The result is normalised to unit modulus.
    """
    spec = krein_spectrum(W, on_degenerate="raise")
    m2 = 0
    for c in spec.clusters:
        if c.location is Location.MINUS_ONE:
            m2 += c.alg_mult
        elif (
            c.location is Location.OFF_CIRCLE
            and abs(c.value.imag) <= delta_real
            and c.value.real < 0
        ):
            m2 += c.alg_mult
    result = complex(-1.0 if (m2 // 2) % 2 else 1.0)
    for c in spec.select(Location.UNIT_CIRCLE_NONREAL):
        p = c.krein_signature[0]
        if p:
            result *= c.value**p
    return result / abs(result)
