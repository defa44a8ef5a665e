"""Layer-level before/after pair: microseconds per call of the Krein-spectrum
entries, of the spectrum-screen CLI calls, of the path rows and of the
geodesic rows, for two source trees.

    python3 tools/layer_pair.py --src path/to/src
    python3 tools/layer_pair.py --pair BEFORE_SRC AFTER_SRC --out BENCH.json

With --src, one tree is imported in this process and measured; the rows are
printed as one JSON object.  With --pair, the two trees are measured in
fresh processes, alternating which goes first in each of 5 rounds, and
the per-row minimum over the rounds is written with the host, Python, numpy,
scipy and BLAS metadata.

Each row is the best of 5 `timeit` repeats, in us per call, with BLAS pinned
to one thread, at n = 1, 2, 3.  The inputs are conjugated rotations with one
negative angle (non-members with a simple unit-circle spectrum, the
"indefinite" kind of the spectrum screen), made from a fixed seed.  Mode
"cycle" calls round-robin over 128 distinct matrices, more than either
content memo holds (64 normal forms, 4 Krein spectra), so no memo ever
hits; mode "repeat" calls on one matrix.  The CLI rows run `cli.main` in
process with the matrix document on stdin, and "screen" is
`check --elliptic`, `spectrum` and `nu` on one matrix in a row.

The path rows follow the benchmark's path_lab recipe: "path + tau" is a
confined 50-step `random_causal_path` from a banded elliptic start followed
by `tau` on every grid matrix, and "track_phases" tracks the phases of that
path.  Both run in mode "cycle" over 16 seeds whose confinement succeeds,
so no path's forms are still stored when its seed comes round again.

The geodesic rows follow the benchmark's causal_geodesics recipe at seed 1:
a banded elliptic W0 and the endpoint W1 of a confined 10-step path from it,
a torus pair (Wt, Xt) and a unit generic cone direction Xg.  "connect" is
`connect(W0, W1, samples=64)`, "exit_times torus" and "exit_times generic"
are `exit_times(Wt, X, t_max=5e3)` for the two directions, and "stack
verdict" is the membership verdict of connect's 64 samples of the geodesic
from W0 to W1 as one stack (`elliptic._stack_verdicts`, or the verdicts of
`_stack_normal_form` in a tree without it).  Each cycles over GEODESICS
inputs per n, more than the form memo holds.
"""

from __future__ import annotations

import os

# before numpy is imported, here or in child processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import platform
import subprocess
import sys
import timeit

#: Rounds of a --pair, each measuring both trees.
ROUNDS = 5
#: Distinct matrices per n in the "cycle" mode.
POOL = 128
#: Distinct paths per n in the path rows.
PATHS = 16
#: Distinct inputs per n in the geodesic rows.
GEODESICS = 96
#: Target seconds per timeit repeat.
REPEAT_SECONDS = 0.04
SCREEN = (["check", "--elliptic"], ["spectrum"], ["nu"])


def _inputs(sp, np, n):
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
    from spcausal.exceptions import DriftExceededError

    out = []
    for seed in range(10 * PATHS):
        W0 = sp.random_elliptic_banded(seed, n, lo=0.3, hi=1.8)
        try:
            out.append((seed, W0, _path(sp, n, seed, W0)))
        except DriftExceededError:
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
    from spcausal.exceptions import DriftExceededError

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
            except DriftExceededError:
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


def _us_per_call(call) -> float:
    timer = timeit.Timer(call)
    number = 1
    while (t := timer.timeit(number)) < REPEAT_SECONDS / 8:
        number *= 2
    number = max(1, round(number * REPEAT_SECONDS / t))
    return min(timer.repeat(repeat=5, number=number)) / number * 1e6


def measure(src: str) -> dict:
    """Rows {call: {mode: {n: us}}} for the spcausal tree under src."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    import spcausal as sp
    from spcausal import cli

    calls = {
        "krein_spectrum": lambda W, doc: sp.krein_spectrum(W, on_degenerate="mark"),
        "nu": lambda W, doc: sp.nu(W),
        "is_positively_elliptic": lambda W, doc: sp.is_positively_elliptic(W),
        "cli check --elliptic": lambda W, doc: _cli_call(cli, SCREEN[0], doc),
        "cli spectrum": lambda W, doc: _cli_call(cli, SCREEN[1], doc),
        "cli nu": lambda W, doc: _cli_call(cli, SCREEN[2], doc),
        "cli screen": lambda W, doc: [_cli_call(cli, a, doc) for a in SCREEN],
    }
    rows: dict = {name: {"cycle": {}, "repeat": {}} for name in calls}
    for n in (1, 2, 3):
        mats = _inputs(sp, np, n)
        assert not any(sp.is_positively_elliptic(W) for W in mats)
        docs = [json.dumps({"n": n, "matrix": W.tolist()}) for W in mats]
        for name, f in calls.items():
            pool = itertools.cycle(list(zip(mats, docs)))
            rows[name]["cycle"][n] = _us_per_call(lambda: f(*next(pool)))
            W, doc = mats[0], docs[0]
            rows[name]["repeat"][n] = _us_per_call(lambda: f(W, doc))
    rows["path + tau"] = {"cycle": {}}
    rows["track_phases"] = {"cycle": {}}
    for n in (1, 2, 3):
        paths = itertools.cycle(_paths(sp, n))

        def path_tau():
            seed, W0, _ = next(paths)
            return [sp.tau(W) for W in _path(sp, n, seed, W0).matrices]

        rows["path + tau"]["cycle"][n] = _us_per_call(path_tau)
        rows["track_phases"]["cycle"][n] = _us_per_call(
            lambda: sp.track_phases(next(paths)[2]))
    from spcausal import elliptic

    verdicts = getattr(elliptic, "_stack_verdicts", None) or (
        lambda Ws: elliptic._stack_normal_form(Ws)[0])
    geodesic = {
        "connect": lambda W0, W1, Wt, Xt, Xg, P: sp.connect(W0, W1, samples=64),
        "exit_times torus": lambda W0, W1, Wt, Xt, Xg, P: sp.exit_times(Wt, Xt, t_max=5e3),
        "exit_times generic": lambda W0, W1, Wt, Xt, Xg, P: sp.exit_times(Wt, Xg, t_max=5e3),
        "stack verdict": lambda W0, W1, Wt, Xt, Xg, P: verdicts(P),
    }
    for name in geodesic:
        rows[name] = {"cycle": {}}
    s = np.linspace(0.0, 1.0, 66)[1:-1]
    for n in (1, 2, 3):
        cases = []
        for W0, W1, Wt, Xt, Xg in _geodesic_inputs(sp, np, n):
            X = sp.log_elliptic(W1 @ sp.symplectic_inverse(W0))
            cases.append((W0, W1, Wt, Xt, Xg, sp.geodesic_flow(X, W0)(s)))
        for name, f in geodesic.items():
            pool = itertools.cycle(cases)
            rows[name]["cycle"][n] = _us_per_call(lambda: f(*next(pool)))
    return rows


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
        "repeats": 5,
        "statistic": "us per call, best of 5 timeit repeats, minimum over rounds",
    }


def _run_tree(src: str) -> dict:
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def pair(before: str, after: str) -> dict:
    runs: dict = {"before": [], "after": []}
    order = []
    for r in range(ROUNDS):
        sides = ("before", "after") if r % 2 == 0 else ("after", "before")
        order.append(list(sides))
        for side in sides:
            runs[side].append(_run_tree(before if side == "before" else after))
    table = []
    for name, modes in runs["before"][0].items():
        for mode, per_n in modes.items():
            for n in per_n:
                b = min(run[name][mode][n] for run in runs["before"])
                a = min(run[name][mode][n] for run in runs["after"])
                table.append({"call": name, "mode": mode, "n": int(n),
                              "before_us": round(b, 2), "after_us": round(a, 2),
                              "after_over_before": round(a / b, 3)})
    return {"meta": {**_metadata(), "rounds": ROUNDS, "order": order},
            "rows": table, "runs": runs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", help="measure the spcausal tree under this src directory")
    p.add_argument("--pair", nargs=2, metavar=("BEFORE_SRC", "AFTER_SRC"))
    p.add_argument("--out", help="file for the --pair result (default: stdout)")
    args = p.parse_args(argv)
    if (args.src is None) == (args.pair is None):
        p.error("give exactly one of --src and --pair")
    if args.src is not None:
        print(json.dumps(measure(args.src)))
        return 0
    text = json.dumps(pair(*args.pair), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
