"""The benchmark's four workloads: seeded inputs, one op each, and its oracle.

Every workload cycles n = 1, 2, 3 across its inputs.  An op calls the
library through the package or module namespace at call time, so the traced
run sees the calls.  ``check`` compares the op's outputs with a reference
computed from how the input was built (closed forms wherever one exists) and
returns the names of the failed checks and the largest reference error seen.
``known_defect`` names a documented seed defect that explains a failure; any
other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

import spcausal as sp
from spcausal import cli
from spcausal.core import block_rotation, block_rotation_generator, omega_matrix
from spcausal.exceptions import DriftExceededError

#: Margin of the acceptance tests; an output further than this from its
#: reference is a failed op.
MARGIN = 1e-9
#: Margin for the Maslov lift along a path against the endpoint value.
MU_MARGIN = 1e-6
#: Seed of the spectrum_screen shear inputs, which are the same in every run.
SHEAR_SEED = 0


def _seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def _conjugate(S: np.ndarray, D: np.ndarray) -> np.ndarray:
    O = omega_matrix(S.shape[0] // 2)
    return S @ D @ (-O @ S.T @ O)


def _rel(err: float, scale: float) -> float:
    return err / (1.0 + scale)


def digest(outputs) -> str:
    """Hash of an op's outputs, exact to the bit."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        else:
            h.update(repr(x).encode())

    feed(outputs)
    return h.hexdigest()


@dataclass
class Input:
    n: int
    category: str
    data: dict = field(default_factory=dict)


@dataclass
class Check:
    failed: list[str] = field(default_factory=list)
    err: float = 0.0

    def close(self, name: str, err: float, margin: float = MARGIN) -> None:
        """Record a numeric reference error; over the margin it fails."""
        if not err <= margin:
            self.failed.append(name)
        elif err > self.err:
            self.err = err

    def true(self, name: str, ok) -> None:
        if not ok:
            self.failed.append(name)


# ---------------------------------------------------------------------------
# region_queries


class RegionQueries:
    """One region element S R(theta) S^-1 with known angles per op."""

    name = "region_queries"
    categories = ("generic", "near_zero", "near_pi", "clustered", "ill_conditioned")
    pool = 300

    def make(self, seed: int) -> list[Input]:
        out = []
        for i in range(self.pool):
            n = 1 + i % 3
            cat = self.categories[(i // 3) % len(self.categories)]
            rng = np.random.default_rng(_seq(seed, 1, i))
            th = np.sort(rng.uniform(0.2, np.pi - 0.2, n))
            scale = 0.4
            if cat == "near_zero":
                th[0] = rng.uniform(1e-4, 1e-3)
            elif cat == "near_pi":
                th[-1] = np.pi - rng.uniform(1e-4, 1e-3)
            elif cat == "clustered":
                th = rng.uniform(0.5, 2.5) + 1e-7 * np.arange(n)
            elif cat == "ill_conditioned":
                scale = 1.2
            th = np.sort(th)
            S = sp.random_symplectic(rng, n, scale=scale)
            W = _conjugate(S, block_rotation(th))
            X = _conjugate(S, block_rotation_generator(th))
            out.append(Input(n, cat, {"W": W, "theta": th, "log": X}))
        return out

    def run(self, inp: Input):
        W = inp.data["W"]
        return (
            bool(sp.is_positively_elliptic(W)),
            sp.elliptic_angles(W),
            sp.tau(W),
            sp.mu_elliptic(W),
            sp.dist_formula(W),
            sp.log_elliptic(W),
            sp.elliptic_angles(sp.minus_inverse(W)),
        )

    def check(self, inp: Input, out) -> Check:
        member, th, t, mu, d, X, thm = out
        ref = inp.data["theta"]
        c = Check()
        c.true("verdict", member)
        c.close("angles", float(np.max(np.abs(th - ref))))
        c.close("minus_inverse_angles", float(np.max(np.abs(thm - (np.pi - ref[::-1])))))
        t_ref = float(np.sum(np.log(ref) - np.log(np.pi - ref)))
        c.close("tau", _rel(abs(t - t_ref), abs(t_ref)))
        mu_ref = float(np.sum(ref) / (2 * np.pi))
        c.close("mu", _rel(abs(mu - mu_ref), abs(mu_ref)))
        d_ref = float(np.exp(np.mean(np.log(ref))))
        c.close("dist", _rel(abs(d - d_ref), d_ref))
        X_ref = inp.data["log"]
        c.close("log", _rel(float(np.linalg.norm(X - X_ref)), float(np.linalg.norm(X_ref))))
        return c

    def known_defect(self, inp: Input, out, c: Check) -> str | None:
        # elliptic_angles reports every angle of a cluster as the cluster's
        # mean; what misses the margin is a consequence of that alone
        th, ref = out[1], inp.data["theta"]
        if (
            inp.category == "clustered"
            and np.allclose(th, np.mean(ref), rtol=0, atol=1e-12)
            and set(c.failed) <= {"angles", "minus_inverse_angles", "tau"}
        ):
            return "clustered angles returned as the cluster mean"
        return None


# ---------------------------------------------------------------------------
# spectrum_screen


def _rotation_eigs(phi: np.ndarray):
    """Eigenvalues and Krein-positive eigenvalues of block_rotation(phi)."""
    z = np.exp(1j * phi)
    return np.concatenate([z, z.conj()]), z


class SpectrumScreen:
    """One general symplectic matrix per op through the in-process CLI."""

    name = "spectrum_screen"
    categories = ("hyperbolic", "loxodromic", "indefinite", "minus_one", "shear", "member")
    pool = 300
    commands = (["check", "--elliptic"], ["spectrum"], ["nu"])

    def make(self, seed: int) -> list[Input]:
        out = []
        for i in range(self.pool):
            n = 1 + i % 3
            cat = self.categories[(i // 3) % len(self.categories)]
            if cat == "loxodromic" and n == 1:
                cat = "hyperbolic"
            # which shears hit the known +1 defect depends on the draw; drawing
            # them alike for every seed keeps the failed count seed-independent
            rng = np.random.default_rng(_seq(SHEAR_SEED if cat == "shear" else seed, 2, i))
            S = sp.random_symplectic(rng, n, scale=0.4)
            phi = np.sort(rng.uniform(0.3, np.pi - 0.3, n))
            positive = np.array([], dtype=complex)
            elliptic, reason = False, None
            if cat in ("hyperbolic", "loxodromic"):
                a = rng.uniform(0.2, 1.0, n)
                A = np.diag(np.exp(a))
                if cat == "loxodromic":
                    r, ang = np.exp(a[0]), phi[0]
                    A[:2, :2] = r * np.array([[np.cos(ang), -np.sin(ang)],
                                              [np.sin(ang), np.cos(ang)]])
                D = scipy.linalg.block_diag(A, np.linalg.inv(A).T)
                eigs = np.linalg.eigvals(A).astype(complex)
                eigs = np.concatenate([eigs, 1 / eigs])
                nu_ref = 1.0 + 0j
                reason = "off-circle eigenvalue"
            elif cat == "shear":
                B = rng.standard_normal((n, n))
                D = np.eye(2 * n)
                D[:n, n:] = B @ B.T + 0.5 * np.eye(n)
                eigs = np.ones(2 * n, dtype=complex)
                nu_ref = 1.0 + 0j
                reason = "eigenvalue +1"
            else:
                if cat == "indefinite":
                    phi[-1] = -phi[-1]
                    reason = "indefinite Krein signature"
                elif cat == "minus_one":
                    phi[-1] = np.pi
                    reason = "eigenvalue -1"
                else:
                    elliptic = True
                D = block_rotation(phi)
                eigs, positive = _rotation_eigs(phi)
                on_circle = np.abs(np.abs(phi) - np.pi) > 1e-12
                positive = positive[on_circle]
                nu_ref = np.exp(1j * np.sum(phi[on_circle]))
                if cat == "minus_one":
                    nu_ref = -nu_ref
            W = _conjugate(S, D)
            doc = json.dumps({"n": n, "matrix": W.tolist()})
            out.append(Input(n, cat, {
                "doc": doc, "eigs": eigs, "positive": positive, "nu": nu_ref,
                "elliptic": elliptic, "reason": reason,
            }))
        return out

    def run(self, inp: Input):
        results = []
        for argv in self.commands:
            buf = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(inp.data["doc"])
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
            finally:
                sys.stdin = saved
            results.append((code, buf.getvalue()))
        return tuple(results)

    def check(self, inp: Input, out) -> Check:
        ref = inp.data
        c = Check()
        docs = []
        for (code, text), argv in zip(out, self.commands):
            c.true(f"exit_code:{argv[0]}", code == 0)
            docs.append(json.loads(text).get("result", {}))
        chk, spec, nu_doc = docs
        c.true("verdict", chk.get("elliptic") is ref["elliptic"])
        c.true("reason", chk.get("reason") == ref["reason"])

        clusters = spec.get("clusters", [])
        total = sum(cl["alg_mult"] for cl in clusters)
        c.true("multiplicity", total == 2 * inp.n)
        if total == 2 * inp.n:
            got = np.array([complex(cl["value"]["re"], cl["value"]["im"])
                            for cl in clusters for _ in range(cl["alg_mult"])])
            want = ref["eigs"]
            cost = np.abs(got[:, None] - want[None, :])
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            scale = np.maximum(1.0, np.abs(want[cols]))
            c.close("eigenvalues", float(np.max(cost[rows, cols] / scale)))
        for cl in clusters:
            if cl["location"] != "unit-circle":
                continue
            z = complex(cl["value"]["re"], cl["value"]["im"])
            p = int(np.sum(np.abs(ref["positive"] - z) <= 1e-6))
            c.true("krein_signature", cl.get("krein_signature") == [p, cl["alg_mult"] - p])
        if "nu" in nu_doc:
            got_nu = complex(nu_doc["nu"]["re"], nu_doc["nu"]["im"])
            c.close("nu", abs(got_nu - ref["nu"]))
        else:
            c.true("nu", False)
        return c

    def known_defect(self, inp: Input, out, c: Check) -> str | None:
        # krein_spectrum resets a cluster's multiplicity to the dimension the
        # widened Schur selection returned, so Jordan blocks at +1 can stop
        # summing to 2n
        if inp.category != "shear":
            return None
        if "multiplicity" in c.failed:
            return "Jordan shear at +1: total multiplicity != 2n"
        # the defective eigenvalue +1 splits by ~sqrt(eps) under roundoff;
        # past the +-1 detection band the pieces read as a unit-circle pair
        # with a Krein signature
        clusters = json.loads(out[1][1]).get("result", {}).get("clusters", [])
        if any(cl["location"] == "unit-circle"
               and abs(complex(cl["value"]["re"], cl["value"]["im"]) - 1) <= 1e-6
               for cl in clusters):
            return "Jordan shear at +1: split off the axis into a unit-circle pair"
        return None


# ---------------------------------------------------------------------------
# causal_geodesics


class CausalGeodesics:
    """Geodesic connection plus two exit-time searches per op."""

    name = "causal_geodesics"
    categories = ("all",)
    pool = 60

    def make(self, seed: int) -> list[Input]:
        out = []
        for i in range(self.pool):
            n = 1 + i % 3
            for r in range(50):
                W0 = sp.random_elliptic_banded(_seq(seed, 3, i, r, 0), n, lo=0.3, hi=1.8)
                try:
                    path = sp.random_causal_path(
                        _seq(seed, 3, i, r, 1), n, steps=10, W_start=W0,
                        step_size=0.05, confine=True,
                    )
                    break
                except DriftExceededError:
                    continue
            else:
                raise DriftExceededError("confined path generation failed 50 times")
            Wt, Xt, angles, speeds = sp.random_torus_pair(_seq(seed, 3, i, 0, 2), n)
            Xg = sp.random_cone_element(_seq(seed, 3, i, 0, 3), n)
            out.append(Input(n, "all", {
                "W0": W0, "W1": path.endpoint, "Wt": Wt, "Xt": Xt,
                "Xg": Xg / np.linalg.norm(Xg),
                "c1": float(np.min(angles / speeds)),
                "c2": float(np.min((np.pi - angles) / speeds)),
            }))
        return out

    def run(self, inp: Input):
        d = inp.data
        conn = sp.connect(d["W0"], d["W1"], samples=64)
        torus = sp.exit_times(d["Wt"], d["Xt"], t_max=5e3)
        generic = sp.exit_times(d["Wt"], d["Xg"], t_max=5e3)
        return (
            conn.tangent, conn.status.value,
            torus.c1, torus.c2, str(torus.backward_reason), str(torus.forward_reason),
            generic.c1, generic.c2,
        )

    def check(self, inp: Input, out) -> Check:
        X, status, c1, c2, bwd, fwd, g1, g2 = out
        d = inp.data
        c = Check()
        c.true("connect_status", status == "interior")
        W1 = d["W1"]
        end = scipy.linalg.expm(X) @ d["W0"]
        c.close("connect_endpoint",
                _rel(float(np.linalg.norm(end - W1)), float(np.linalg.norm(W1))))
        c.close("exit_c1", _rel(abs(c1 - d["c1"]), d["c1"]))
        c.close("exit_c2", _rel(abs(c2 - d["c2"]), d["c2"]))
        c.true("exit_reasons", bwd == str(sp.ExitReason.EIGENVALUE_ONE)
               and fwd == str(sp.ExitReason.EIGENVALUE_MINUS_ONE))
        c.true("generic_exit_finite", np.isfinite(g1) and np.isfinite(g2))
        return c

    def known_defect(self, inp: Input, out, c: Check) -> str | None:
        return None


# ---------------------------------------------------------------------------
# path_lab


class PathLab:
    """A confined path with tau and phase tracking, and a Maslov lift, per op."""

    name = "path_lab"
    categories = ("all",)
    pool = 60
    #: Whole-trial redraws an op may make when a confined walk creeps into
    #: the boundary (DriftExceededError, documented for confined paths).
    max_trials = 50

    def make(self, seed: int) -> list[Input]:
        return [
            Input(1 + i % 3, "all", {"key": (seed, 4, i)})
            for i in range(self.pool)
        ]

    def run(self, inp: Input):
        seed, w, i = inp.data["key"]
        n = inp.n
        for r in range(self.max_trials):
            W0 = sp.random_elliptic_banded(_seq(seed, w, i, r, 0), n, lo=0.3, hi=1.8)
            try:
                path = sp.random_causal_path(
                    _seq(seed, w, i, r, 1), n, steps=50, W_start=W0,
                    step_size=0.02, confine=True,
                )
                break
            except DriftExceededError:
                continue
        else:
            raise DriftExceededError("confined path generation failed")
        taus = np.array([sp.tau(W) for W in path.matrices])
        track = sp.track_phases(path)
        free = sp.random_causal_path(_seq(seed, w, i, 0, 2), n, steps=20, step_size=0.05)
        mu = sp.mu_along_path(free, start=0.0)
        return (np.array(path.matrices), taus, track.plus, track.minus,
                track.off_circle, free.endpoint, mu)

    def check(self, inp: Input, out) -> Check:
        _, taus, plus, minus, off, end, mu = out
        c = Check()
        c.true("tau_increasing", np.all(np.diff(taus) > 0))
        c.true("on_circle", not np.any(off))
        c.true("phase_monotone", np.all(np.diff(plus, axis=0) > -MARGIN)
               and np.all(np.diff(minus, axis=0) < MARGIN))
        c.close("mu_lift", abs(mu[-1] - sp.mu_elliptic(end)), MU_MARGIN)
        return c

    def known_defect(self, inp: Input, out, c: Check) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (RegionQueries(), SpectrumScreen(),
                                  CausalGeodesics(), PathLab())}
