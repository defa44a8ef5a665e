"""Command-line front end.

Matrices enter as JSON documents {"n": ..., "matrix": [[...], ...],
"label": optional} on file paths or standard input; lists of matrices are
JSON arrays of such documents.  Results leave as a single JSON object on
standard output with the numeric results, diagnostics, the tolerances in
force and provenance.  Exit codes: 0 success (including a negative answer
to a query), 1 domain error, 2 malformed input.  All floating-point output
is printed with 17 significant digits so doubles round-trip losslessly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from ._version import __version__
from .core import (
    TOL_CONE,
    TOL_GROUP,
    TOL_HAM,
    TOL_SYMP,
    cone_status,
    is_hamiltonian,
    is_symplectic,
)
from .causal import connect, dist_formula, exit_times, geodesic_flow
from .elliptic import (
    elliptic_splitting,
    is_positively_elliptic,
    log_elliptic,
    mu_elliptic,
    tau,
)
from .exceptions import (
    DriftExceededError,
    MatchingAmbiguousError,
    SymplecticDomainError,
)
from .krein import krein_spectrum, nu
from .pathlab import random_causal_path, track_phases, verify_suite


class MalformedInput(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats

_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """JSON text of obj, floats with 17 significant digits, non-finite as null.

    Strings and keys are escaped as `json.dumps` escapes them; numpy
    scalars and arrays and complex numbers are written as their Python
    values, a complex as {"re": ..., "im": ...}.
    """
    if isinstance(obj, dict):
        items = [f"{_encode_str(str(k))}: {_dumps(v)}" for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return f"{x:.17g}" if math.isfinite(x) else "null"
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_dumps(v) for v in obj]) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return _dumps(obj.tolist())
    if isinstance(obj, complex):
        return _dumps({"re": obj.real, "im": obj.imag})
    return json.dumps(obj)


def _emit(doc: dict) -> None:
    sys.stdout.write(_dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# input handling

def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _parse_matrix_doc(data) -> np.ndarray:
    if not isinstance(data, dict):
        raise MalformedInput("matrix document must be a JSON object")
    if "n" not in data or "matrix" not in data:
        raise MalformedInput("matrix document needs fields 'n' and 'matrix'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MalformedInput("'n' must be a positive integer")
    try:
        M = np.array(data["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"'matrix' is not a numeric array: {exc}") from exc
    if M.shape != (2 * n, 2 * n):
        raise MalformedInput(
            f"'matrix' has shape {M.shape}, expected {(2 * n, 2 * n)}"
        )
    if not np.all(np.isfinite(M)):
        raise MalformedInput("'matrix' contains non-finite entries")
    return M


def _load_docs(paths: list[str], expected: int) -> list[np.ndarray]:
    """Load `expected` matrix documents from paths or stdin.

    A single source may hold one document or a JSON array of documents.
    """
    raw: list = []
    sources = paths if paths else [None]
    for p in sources:
        try:
            data = json.loads(_read_text(p))
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from exc
        if isinstance(data, list):
            raw.extend(data)
        else:
            raw.append(data)
    if len(raw) != expected:
        raise MalformedInput(f"expected {expected} matrix document(s), got {len(raw)}")
    return [_parse_matrix_doc(d) for d in raw]


def _bounded(convert, ok, what: str):
    """argparse type: convert(text), rejected at parse time unless ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    # argparse names the type in its "invalid float value" message
    parse.__name__ = convert.__name__
    return parse


_finite = _bounded(float, math.isfinite, "finite")
_positive_finite = _bounded(float, lambda x: 0 < x < math.inf, "positive and finite")
_nonnegative_finite = _bounded(
    float, lambda x: 0 <= x < math.inf, "non-negative and finite"
)
_positive_int = _bounded(int, lambda k: k >= 1, "a positive integer")
_nonnegative_int = _bounded(int, lambda k: k >= 0, "a non-negative integer")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the result dict

def _cmd_check(args) -> dict:
    (W,) = _load_docs(args.files, 1)
    tol = args.tol
    if args.symplectic:
        chk = is_symplectic(W, tol if tol is not None else TOL_SYMP)
        return {"symplectic": chk.ok, "residual": chk.residual}
    if args.hamiltonian:
        chk = is_hamiltonian(W, tol if tol is not None else TOL_HAM)
        return {"hamiltonian": chk.ok, "residual": chk.residual}
    if args.cone:
        status = cone_status(W, tol if tol is not None else TOL_CONE)
        return {"cone_status": status.value}
    chk = is_positively_elliptic(W, tol if tol is not None else TOL_GROUP)
    out = {"elliptic": chk.elliptic}
    if chk.reason is not None:
        out["reason"] = chk.reason
    return out


def _cmd_spectrum(args) -> dict:
    (W,) = _load_docs(args.files, 1)
    spec = krein_spectrum(W, on_degenerate="mark")
    clusters = []
    for c in spec.clusters:
        entry = {
            "value": {"re": c.value.real, "im": c.value.imag},
            "alg_mult": c.alg_mult,
            "location": c.location.value,
            "degenerate": c.degenerate,
        }
        if c.krein_signature is not None:
            entry["krein_signature"] = list(c.krein_signature)
        clusters.append(entry)
    return {"n": spec.n, "clusters": clusters}


def _cmd_splitting(args) -> dict:
    (W,) = _load_docs(args.files, 1)
    split = elliptic_splitting(W)
    return {"angles": split.angles, "basis": split.basis}


def _cmd_log(args) -> dict:
    (W,) = _load_docs(args.files, 1)
    X = log_elliptic(W)
    return {"log": X, "cone_status": cone_status(X).value}


#: The single-value subcommands: the value each prints under its own name,
#: and its help text.  The lambdas look the library function up per call, so
#: one rebound on this module (the benchmark's tracer does so) is the one run.
_VALUES = {
    "tau": (lambda W: tau(W), "time function value"),
    "mu": (lambda W: mu_elliptic(W), "Maslov value of the canonical lift"),
    "nu": (lambda W: nu(W), "unit-circle spectral invariant"),
    "dist": (lambda W: dist_formula(W), "Lorentzian distance from id"),
}


def _cmd_value(args) -> dict:
    (W,) = _load_docs(args.files, 1)
    return {args.command: _VALUES[args.command][0](W)}


def _cmd_connect(args) -> dict:
    W0, W1 = _load_docs(args.files, 2)
    conn = connect(W0, W1, samples=args.samples)
    return {"tangent": conn.tangent, "cone_status": conn.status.value}


def _cmd_exit_times(args) -> dict:
    W0, X = _load_docs(args.files, 2)
    et = exit_times(W0, X, t_max=args.t_max)
    return {
        "c1": et.c1 if np.isfinite(et.c1) else None,
        "c1_infinite": not np.isfinite(et.c1),
        "c2": et.c2 if np.isfinite(et.c2) else None,
        "c2_infinite": not np.isfinite(et.c2),
        "backward_reason": et.backward_reason.value if et.backward_reason else None,
        "forward_reason": et.forward_reason.value if et.forward_reason else None,
    }


def _cmd_geodesic(args) -> dict:
    X, W0 = _load_docs(args.files, 2)
    return {"point": geodesic_flow(X, W0)(args.t), "t": args.t}


def _cmd_path_verify(args) -> dict:
    path = random_causal_path(
        args.seed, args.n, steps=args.steps, step_size=args.step_size,
        confine=False,
    )
    try:
        path.validate()
        violation = None
    except (SymplecticDomainError, DriftExceededError) as exc:
        violation = str(exc)
    track = track_phases(path)
    return {
        "steps": path.steps,
        "grid_end": float(path.grid[-1]),
        "max_symplectic_residual": max(
            is_symplectic(W, tol=1.0).residual for W in path.matrices
        ),
        "off_circle_points": int(np.sum(track.off_circle)),
        "invariants_ok": violation is None,
        "violation": violation,
    }


def _cmd_suite(args) -> dict:
    return verify_suite(args.seed, args.n, args.trials)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A fresh, independent parser; `main` builds one per process."""
    p = argparse.ArgumentParser(
        prog="spcausal",
        description="Causal geometry of the linear symplectic group.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, nfiles=0, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler, tol=None)
        if nfiles:
            sp.add_argument(
                "files", nargs="*",
                help="matrix document file(s); omit or '-' for stdin",
            )
        return sp

    sp = add("check", _cmd_check, nfiles=1, help="predicate checks on a matrix")
    sp.add_argument("--tol", type=_nonnegative_finite, default=None,
                    help="override the default tolerance")
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--symplectic", action="store_true")
    grp.add_argument("--hamiltonian", action="store_true")
    grp.add_argument("--cone", action="store_true")
    grp.add_argument("--elliptic", action="store_true")

    add("spectrum", _cmd_spectrum, nfiles=1,
        help="Krein spectrum of a symplectic matrix")
    add("splitting", _cmd_splitting, nfiles=1,
        help="elliptic plane splitting (angles and adapted basis)")
    add("log", _cmd_log, nfiles=1, help="principal logarithm on the region")
    for name, (_, text) in _VALUES.items():
        add(name, _cmd_value, nfiles=1, help=text)

    sp = add("connect", _cmd_connect, nfiles=2,
             help="geodesic connection between two region elements")
    sp.add_argument("--samples", type=_nonnegative_int, default=64,
                    help="interior samples verified to stay in the region")

    sp = add("exit-times", _cmd_exit_times, nfiles=2,
             help="exit parameters of exp(tX) W0 from the region")
    sp.add_argument("--t-max", type=_positive_finite, default=1e3)

    sp = add("geodesic", _cmd_geodesic, nfiles=2, help="evaluate exp(tX) W0")
    sp.add_argument("--t", type=_finite, required=True)

    sp = add("path-verify", _cmd_path_verify,
             help="generate a seeded causal path and verify its invariants")
    sp.add_argument("--seed", type=_nonnegative_int, default=0)
    sp.add_argument("--n", type=_positive_int, default=1)
    sp.add_argument("--steps", type=_positive_int, default=50)
    sp.add_argument("--step-size", type=_positive_finite, default=0.05)

    sp = add("suite", _cmd_suite,
             help="run the verification suite")
    sp.add_argument("--seed", type=_nonnegative_int, default=42)
    sp.add_argument("--n", type=_positive_int, default=1)
    sp.add_argument("--trials", type=_positive_int, default=100)

    return p


def _tolerances(args) -> dict:
    if args.command == "check" and (args.symplectic or args.hamiltonian or args.cone):
        tol_symp = TOL_SYMP if args.tol is None else args.tol
    else:
        # every group element is checked at TOL_GROUP; only check's elliptic
        # mode takes --tol, and checks at min(tol, TOL_GROUP)
        tol_symp = TOL_GROUP if args.tol is None else min(args.tol, TOL_GROUP)
    return {
        "tol_symp": tol_symp,
        "tol_ham": TOL_HAM if args.tol is None else args.tol,
        "tol_cone": TOL_CONE if args.tol is None else args.tol,
    }


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses for every call in this process.

    parse_args keeps no state between calls, and argparse looks up
    sys.stdout, sys.stderr and the terminal width when it prints.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    provenance = {
        "subcommand": args.command,
        "version": __version__,
    }
    if hasattr(args, "seed"):
        provenance["seed"] = args.seed
    try:
        result = args.handler(args)
    except MalformedInput as exc:
        _emit({"error": str(exc), "provenance": provenance})
        return 2
    except (SymplecticDomainError, DriftExceededError, MatchingAmbiguousError) as exc:
        _emit({"error": str(exc), "provenance": provenance})
        return 1
    _emit({
        "result": result,
        "tolerances": _tolerances(args),
        "provenance": provenance,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
