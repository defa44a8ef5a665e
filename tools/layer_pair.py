"""Layer-level before/after pair: microseconds per call of the region
kernels, of the Krein-spectrum entries, of the spectrum-screen CLI calls,
of the path rows and of the geodesic rows, for two source trees timed in
one process.

    python3 tools/layer_pair.py --pair BEFORE_SRC AFTER_SRC --out BENCH.json

The "after" tree is imported as ``spcausal`` and the "before" tree under the
package name ``spcausal_before``, so both run in one interpreter on the same
inputs.  Each row at n = 1, 2, 3 is timed in BLOCKS interleaved blocks: a
block times about REPEAT_SECONDS of calls of one tree and then of the other,
alternating which goes first.  A row reports the median us per call of
each tree and the median and quartiles of the per-block ratio after/before,
with BLAS pinned to one thread.

The region rows use region elements S R(theta) S^{-1} of the benchmark's
region_queries recipe: "_normal_form miss" is `elliptic._normal_form` on a
float matrix (no memo), "require_symplectic" is `core.require_symplectic`
at 1e-7, "log_elliptic hit" is `log_elliptic` on one matrix whose form is
stored, and "region_queries op" is that workload's op (membership, angles,
tau, mu, dist, log and the angles of -W^{-1}).

The Krein rows use conjugated rotations with one negative angle
(non-members with a simple unit-circle spectrum, the "indefinite" kind of
the spectrum screen), made from a fixed seed.  Mode "cycle" calls
round-robin over 128 distinct matrices, more than either content memo holds
(64 normal forms, 4 Krein spectra), so no memo ever hits; mode "repeat"
calls on one matrix.  The CLI rows run `cli.main` in process with the
matrix document on stdin, and "screen" is `check --elliptic`, `spectrum`
and `nu` on one matrix in a row.

The path rows follow the benchmark's path_lab recipe: "path + tau" is a
confined 50-step `random_causal_path` from a banded elliptic start followed
by `tau` on every grid matrix, and "track_phases" tracks the phases of that
path.  Both cycle over 16 seeds whose confinement succeeds, so no path's
forms are still stored when its seed comes round again, and "track_phases"
times the reader with every form to compute.  "track_phases warm" tracks the
first of those paths, made again just before its row so that the memo holds
the forms its walk stored, as in the path_lab op; it repeats on that one
path, since the memo (64 forms) holds one path's 51 grid matrices but not
two.  Its start, which the walk only checks, is formed on every call, as in
the op.  "free path + mu" is the
recipe's unconfined 20-step path of step 0.05 from id followed by
`mu_along_path` from 0, cycling over 16 seeds.  "path_lab op" is the whole
op of the recipe in its order, over the same 16 seeds: the confined path,
`tau` on each grid matrix, `track_phases` of that path while its forms are
stored, the free path and `mu_along_path`.

The geodesic rows follow the benchmark's causal_geodesics recipe at seed 1:
a banded elliptic W0 and the endpoint W1 of a confined 10-step path from it,
a torus pair (Wt, Xt) and a unit generic cone direction Xg.  "connect" is
`connect(W0, W1, samples=64)`, "exit_times torus" and "exit_times generic"
are `exit_times(Wt, X, t_max=5e3)` for the two directions, "causal_geodesics
op" is the workload's op, connect and then both exit_times calls in that
order, and "stack verdict" is `elliptic._stack_verdicts` of connect's 64
samples of the geodesic from W0 to W1.  Since the stacked Cholesky
certificate, `_stack_verdicts` takes a stack `_symplectic_stack` has
checked, and that check is no longer in the row (it is in "connect").
Each cycles over GEODESICS inputs per n, more than the form memo holds.

The registry sampler rows time one call of the rejection samplers
`diamond_bounded` and `broken_geodesic_max` of `pathlab.PROPERTIES` at
seed 42, dims (n,) and SAMPLER_TRIALS accepted candidates, each call
after clearing the form memo, so that no call reads forms an earlier one
stored.  The cost of a call depends on its seed, so every call takes the
same one.  Most of a `diamond_bounded` call is the membership verdicts of
the candidates it rejects; `broken_geodesic_max` accepts nearly every
candidate.
"""

from __future__ import annotations

import os

# before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import platform
import sys
import timeit

#: Interleaved blocks per row.
BLOCKS = 15
#: Distinct matrices per n in the "cycle" mode.
POOL = 128
#: Distinct paths per n in the path rows.
PATHS = 16
#: Distinct inputs per n in the geodesic rows.
GEODESICS = 96
#: Accepted candidates per call in the registry sampler rows.
SAMPLER_TRIALS = 10
#: Target seconds of calls per tree and block.
REPEAT_SECONDS = 0.02
SCREEN = (["check", "--elliptic"], ["spectrum"], ["nu"])
SIDES = ("before", "after")


def _import_tree(src: str, name: str):
    """The spcausal package under src, imported as the package ``name``."""
    path = os.path.join(os.path.abspath(src), "spcausal")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _region_inputs(sp, np, n):
    """POOL region elements at n: the region_queries categories in turn."""
    rng = np.random.default_rng([17, n])
    out = []
    for i in range(POOL):
        th = np.sort(rng.uniform(0.2, np.pi - 0.2, n))
        cat, scale = i % 5, 0.4
        if cat == 1:
            th[0] = rng.uniform(1e-4, 1e-3)
        elif cat == 2:
            th[-1] = np.pi - rng.uniform(1e-4, 1e-3)
        elif cat == 3:
            th = rng.uniform(0.5, 2.5) + 1e-7 * np.arange(n)
        elif cat == 4:
            scale = 1.2
        S = sp.random_symplectic(rng, n, scale=scale)
        out.append(S @ sp.block_rotation(np.sort(th)) @ sp.symplectic_inverse(S))
    return out


def _indefinite_inputs(sp, np, n):
    rng = np.random.default_rng([13, n])
    out = []
    for _ in range(POOL):
        th = np.sort(rng.uniform(0.3, np.pi - 0.3, n))
        th[-1] = -th[-1]
        S = sp.random_symplectic(rng, n, scale=0.4)
        out.append(S @ sp.block_rotation(th) @ sp.symplectic_inverse(S))
    return out


def _paths(sp, n):
    """The first PATHS (seed, start) pairs of the path_lab recipe at n whose
    confined path succeeds, with their paths."""
    out = []
    for seed in range(10 * PATHS):
        W0 = sp.random_elliptic_banded(seed, n, lo=0.3, hi=1.8)
        try:
            out.append((seed, W0, _path(sp, n, seed, W0)))
        except sp.exceptions.DriftExceededError:
            continue
        if len(out) == PATHS:
            return out
    raise RuntimeError(f"fewer than {PATHS} confined paths at n = {n}")


def _path(sp, n, seed, W0):
    return sp.random_causal_path(seed, n, steps=50, W_start=W0,
                                 step_size=0.02, confine=True)


def _geodesic_inputs(sp, np, n):
    """GEODESICS inputs at n of the causal_geodesics recipe at seed 1:
    (W0, W1, Wt, Xt, Xg) with Xg of unit norm."""
    def seq(*key):
        return np.random.SeedSequence(entropy=1, spawn_key=key)

    out = []
    for i in range(n - 1, 3 * GEODESICS, 3):
        for r in range(50):
            W0 = sp.random_elliptic_banded(seq(3, i, r, 0), n, lo=0.3, hi=1.8)
            try:
                path = sp.random_causal_path(seq(3, i, r, 1), n, steps=10, W_start=W0,
                                             step_size=0.05, confine=True)
                break
            except sp.exceptions.DriftExceededError:
                continue
        else:
            raise RuntimeError(f"no confined path for input {i}")
        Wt, Xt, _, _ = sp.random_torus_pair(seq(3, i, 0, 2), n)
        Xg = sp.random_cone_element(seq(3, i, 0, 3), n)
        out.append((W0, path.endpoint, Wt, Xt, Xg / np.linalg.norm(Xg)))
    return out


def _cli_call(cli, argv, doc):
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))
    finally:
        sys.stdin = saved


def _region_op(sp, W):
    return (bool(sp.is_positively_elliptic(W)), sp.elliptic_angles(W), sp.tau(W),
            sp.mu_elliptic(W), sp.dist_formula(W), sp.log_elliptic(W),
            sp.elliptic_angles(sp.minus_inverse(W)))


def _interleave(np, calls) -> dict:
    """Time calls["before"] and calls["after"], each a function of no
    arguments, in BLOCKS interleaved blocks; the median us per call of each
    and the quartiles of the per-block ratio after/before."""
    timers = {side: timeit.Timer(calls[side]) for side in SIDES}
    timers["before"].timeit(1)
    timers["after"].timeit(1)
    number = 1
    # calibrated on "before", with "after" making as many calls, so that a
    # cycling row gives both sides the same inputs in every block
    while (t := timers["before"].timeit(number)) < REPEAT_SECONDS / 8:
        timers["after"].timeit(number)
        number *= 2
    timers["after"].timeit(number)
    number = max(1, round(number * REPEAT_SECONDS / t))
    us: dict = {side: [] for side in SIDES}
    for b in range(BLOCKS):
        for side in (SIDES if b % 2 == 0 else SIDES[::-1]):
            us[side].append(timers[side].timeit(number) / number * 1e6)
    ratio = np.array(us["after"]) / np.array(us["before"])
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    return {"before_us": round(float(np.median(us["before"])), 2),
            "after_us": round(float(np.median(us["after"])), 2),
            "ratio_median": round(float(med), 3),
            "ratio_q1": round(float(q1), 3), "ratio_q3": round(float(q3), 3)}


def _row(np, trees, table, call, mode, n, make):
    """Time make(tree) for both trees and append the row."""
    calls = {side: make(tree) for side, tree in trees.items()}
    table.append({"call": call, "mode": mode, "n": n, **_interleave(np, calls)})
    print(f"{call:24s} {mode:6s} n={n}  {table[-1]}", file=sys.stderr)


def _cycled(f, args):
    pool = itertools.cycle(args)
    return lambda: f(*next(pool))


def measure(np, trees: dict) -> list:
    """The rows for trees["before"] and trees["after"]."""
    table: list = []
    region = {
        "_normal_form miss": lambda sp, W: sp.elliptic._normal_form(W),
        "require_symplectic": lambda sp, W: sp.core.require_symplectic(W, 1e-7),
        "log_elliptic hit": lambda sp, W: sp.log_elliptic(W),
        "region_queries op": _region_op,
    }
    for name, f in region.items():
        for n in (1, 2, 3):
            mats = _region_inputs(trees["after"], np, n)
            if name == "log_elliptic hit":
                _row(np, trees, table, name, "repeat", n,
                     lambda sp: lambda: f(sp, mats[0]))
            else:
                _row(np, trees, table, name, "cycle", n,
                     lambda sp: _cycled(lambda W: f(sp, W), [(W,) for W in mats]))
    krein = {
        "krein_spectrum": lambda sp, W, doc: sp.krein_spectrum(W, on_degenerate="mark"),
        "nu": lambda sp, W, doc: sp.nu(W),
        "is_positively_elliptic": lambda sp, W, doc: sp.is_positively_elliptic(W),
        "cli check --elliptic": lambda sp, W, doc: _cli_call(sp.cli, SCREEN[0], doc),
        "cli spectrum": lambda sp, W, doc: _cli_call(sp.cli, SCREEN[1], doc),
        "cli nu": lambda sp, W, doc: _cli_call(sp.cli, SCREEN[2], doc),
        "cli screen": lambda sp, W, doc: [_cli_call(sp.cli, a, doc) for a in SCREEN],
    }
    for n in (1, 2, 3):
        mats = _indefinite_inputs(trees["after"], np, n)
        docs = [json.dumps({"n": n, "matrix": W.tolist()}) for W in mats]
        for name, f in krein.items():
            _row(np, trees, table, name, "cycle", n,
                 lambda sp: _cycled(lambda W, doc: f(sp, W, doc), list(zip(mats, docs))))
            _row(np, trees, table, name, "repeat", n,
                 lambda sp: lambda: f(sp, mats[0], docs[0]))
    for n in (1, 2, 3):
        paths = {tree.__name__: _paths(tree, n) for tree in trees.values()}

        def path_tau(sp, seed, W0, path):
            return [sp.tau(W) for W in _path(sp, n, seed, W0).matrices]

        _row(np, trees, table, "path + tau", "cycle", n,
             lambda sp: _cycled(lambda *a: path_tau(sp, *a), paths[sp.__name__]))
        _row(np, trees, table, "track_phases", "cycle", n,
             lambda sp: _cycled(lambda s, W0, p: sp.track_phases(p), paths[sp.__name__]))

        def warm_track(sp):
            seed, W0, _ = paths[sp.__name__][0]
            path = _path(sp, n, seed, W0)
            return lambda: sp.track_phases(path)

        _row(np, trees, table, "track_phases warm", "repeat", n, warm_track)

        def free_mu(sp, seed):
            free = sp.random_causal_path(seed, n, steps=20, step_size=0.05)
            return sp.mu_along_path(free, start=0.0)

        _row(np, trees, table, "free path + mu", "cycle", n,
             lambda sp: _cycled(lambda s: free_mu(sp, s), [(s,) for s in range(PATHS)]))

        def path_lab_op(sp, seed, W0):
            path = _path(sp, n, seed, W0)
            return ([sp.tau(W) for W in path.matrices], sp.track_phases(path),
                    free_mu(sp, seed))

        _row(np, trees, table, "path_lab op", "cycle", n,
             lambda sp: _cycled(lambda s, W0, p: path_lab_op(sp, s, W0),
                                paths[sp.__name__]))
    geodesic = {
        "connect": lambda sp, W0, W1, Wt, Xt, Xg, P: sp.connect(W0, W1, samples=64),
        "exit_times torus": lambda sp, W0, W1, Wt, Xt, Xg, P: sp.exit_times(Wt, Xt, t_max=5e3),
        "exit_times generic": lambda sp, W0, W1, Wt, Xt, Xg, P: sp.exit_times(Wt, Xg, t_max=5e3),
        "causal_geodesics op": lambda sp, W0, W1, Wt, Xt, Xg, P: (
            sp.connect(W0, W1, samples=64), sp.exit_times(Wt, Xt, t_max=5e3),
            sp.exit_times(Wt, Xg, t_max=5e3)),
        "stack verdict": lambda sp, W0, W1, Wt, Xt, Xg, P: sp.elliptic._stack_verdicts(P),
    }
    after = trees["after"]
    s = np.linspace(0.0, 1.0, 66)[1:-1]
    for n in (1, 2, 3):
        cases = []
        for W0, W1, Wt, Xt, Xg in _geodesic_inputs(after, np, n):
            X = after.log_elliptic(W1 @ after.symplectic_inverse(W0))
            cases.append((W0, W1, Wt, Xt, Xg, after.geodesic_flow(X, W0)(s)))
        for name, f in geodesic.items():
            _row(np, trees, table, name, "cycle", n,
                 lambda sp: _cycled(lambda *a: f(sp, *a), cases))
    for name in ("diamond_bounded", "broken_geodesic_max"):
        for n in (1, 2, 3):
            def sampler(sp):
                sp.elliptic._checked_form.cache_clear()
                return sp.pathlab.PROPERTIES[name](42, (n,), SAMPLER_TRIALS)

            _row(np, trees, table, name, "repeat", n, lambda sp: lambda: sampler(sp))
    return table


def _metadata() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blocks": BLOCKS,
        "block_seconds": REPEAT_SECONDS,
        "statistic": "median us per call over interleaved blocks in one process; "
                     "median and quartiles of the per-block ratio after/before",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pair", nargs=2, metavar=("BEFORE_SRC", "AFTER_SRC"), required=True)
    p.add_argument("--out", help="file for the result (default: stdout)")
    args = p.parse_args(argv)
    before, after = args.pair
    trees = {"before": _import_tree(before, "spcausal_before")}
    sys.path.insert(0, os.path.abspath(after))
    import numpy as np

    import spcausal

    trees["after"] = spcausal
    for tree in trees.values():
        for sub in ("cli", "core", "elliptic", "exceptions", "pathlab"):
            importlib.import_module(f"{tree.__name__}.{sub}")
    text = json.dumps({"meta": _metadata(), "rows": measure(np, trees)}, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
