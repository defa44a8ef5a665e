"""The four walks over Krein clusters that the library ran before one
labelling (`krein._phases`) served them all, kept as differential
references: the membership diagnosis, nu, the closure branch of
dist_formula and the labelled phases of path tracking.  Also the mixed
sample of region elements and non-members that the differential tests
share."""

import numpy as np
import scipy.linalg

from spcausal import (
    block_rotation,
    minus_inverse,
    random_cone_element,
    random_elliptic,
    random_symplectic,
    symplectic_inverse,
)
from spcausal.elliptic import ANGLE_BOUNDARY_BAND
from spcausal.exceptions import NotEllipticError, SignatureDegenerateError
from spcausal.krein import DELTA_REAL, Location, krein_spectrum


def reference_reason(spec) -> str | None:
    """First violated membership condition of a spectrum, None for a member
    (formerly `elliptic._check_from_spectrum`)."""
    for c in spec.clusters:
        if c.location is Location.OFF_CIRCLE:
            return "off-circle eigenvalue"
    for c in spec.clusters:
        if c.location is Location.PLUS_ONE:
            return "eigenvalue +1"
        if c.location is Location.MINUS_ONE:
            return "eigenvalue -1"
    for c in spec.clusters:
        th = abs(c.angle)
        if th < ANGLE_BOUNDARY_BAND or th > np.pi - ANGLE_BOUNDARY_BAND:
            return "boundary"
        if c.degenerate:
            return "boundary"
    for c in spec.clusters:
        if c.value.imag > 0 and c.krein_signature[1] > 0:
            return "indefinite Krein signature"
    return None


def reference_closure_dist(spec) -> float:
    """The closure branch of dist_formula on a spectrum; raises
    NotEllipticError like it did."""
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


def reference_labeled_args(W):
    """Raw unit-circle eigenphases split by Krein label, or None off circle
    (formerly `pathlab._labeled_args`)."""
    spec = krein_spectrum(W, on_degenerate="mark")
    plus: list[float] = []
    minus: list[float] = []
    for c in spec.clusters:
        if c.location is Location.OFF_CIRCLE:
            return None
        if c.degenerate:
            raise SignatureDegenerateError(
                f"degenerate Krein signature at eigenvalue {c.value:.6g}"
            )
        p, q = c.krein_signature
        if c.location is Location.PLUS_ONE or c.location is Location.MINUS_ONE:
            half = c.alg_mult // 2
            plus.extend([c.angle] * half)
            minus.extend([c.angle] * half)
        else:
            plus.extend([c.angle] * p)
            minus.extend([c.angle] * q)
    if len(plus) != spec.n or len(minus) != spec.n:
        return None
    return np.array(plus), np.array(minus)


def reference_nu(W) -> complex:
    """nu as a product over clusters (formerly `krein.nu`)."""
    spec = krein_spectrum(W, on_degenerate="raise")
    m2 = 0
    for c in spec.clusters:
        if c.location is Location.MINUS_ONE:
            m2 += c.alg_mult
        elif (
            c.location is Location.OFF_CIRCLE
            and abs(c.value.imag) <= DELTA_REAL
            and c.value.real < 0
        ):
            m2 += c.alg_mult
    result = complex(-1.0 if (m2 // 2) % 2 else 1.0)
    for c in spec.clusters:
        if c.location is not Location.UNIT_CIRCLE_NONREAL:
            continue
        p = c.krein_signature[0]
        if p:
            result *= c.value**p
    return result / abs(result)


def differential_sample(i: int) -> np.ndarray:
    """Seeded mixed input for the differential tests, inside and outside
    the region."""
    rng = np.random.default_rng([67, i])
    n = 1 + i % 3
    kind = (i // 3) % 6
    if kind == 0:
        return random_symplectic(rng, n, scale=rng.uniform(0.2, 2.0))
    if kind == 1:
        return random_elliptic(rng, n, margin=0.01)
    if kind == 2:
        # signed angles: a negative one makes the Krein signature indefinite
        th = rng.uniform(0.01, np.pi - 0.01, n) * rng.choice([-1.0, 1.0], n)
        S = random_symplectic(rng, n, scale=0.4)
        return S @ block_rotation(th) @ symplectic_inverse(S)
    if kind == 3:
        # a cone flow through a region element, carried past its exit times
        W = random_elliptic(rng, n, margin=0.05)
        X = random_cone_element(rng, n)
        rho = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
        return scipy.linalg.expm(rng.uniform(-2 * np.pi, 2 * np.pi) / rho * X) @ W
    if kind == 4:
        return minus_inverse(
            random_elliptic(rng, n, margin=0.01)
            if rng.random() < 0.5
            else random_symplectic(rng, n, scale=rng.uniform(0.2, 1.0))
        )
    th = rng.uniform(0.01, np.pi - 0.01, n)
    th[0] *= rng.choice([-1.0, 1.0])
    S = random_symplectic(rng, n, scale=1.2)
    return S @ block_rotation(th) @ symplectic_inverse(S)
