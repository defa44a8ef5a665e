"""Layer-level before/after pair: microseconds per call of the Krein-spectrum
entries and of the spectrum-screen CLI calls, for two source trees.

    python3 tools/layer_pair.py --src path/to/src
    python3 tools/layer_pair.py --pair BEFORE_SRC AFTER_SRC --out BENCH.json

With --src, one tree is imported in this process and measured; the rows are
printed as one JSON object.  With --pair, the two trees are measured in
fresh processes, alternating which goes first in each of 3 rounds, and
the per-row minimum over the rounds is written with the host, Python, numpy,
scipy and BLAS metadata.

Each row is the best of 5 `timeit` repeats, in us per call, with BLAS pinned
to one thread, at n = 1, 2, 3.  The inputs are conjugated rotations with one
negative angle (non-members with a simple unit-circle spectrum, the
"indefinite" kind of the spectrum screen), made from a fixed seed.  Mode
"cycle" calls round-robin over 16 distinct matrices, so a memo holding a
few records never hits; mode "repeat" calls on one matrix.  The CLI rows
run `cli.main` in process with the matrix document on stdin, and "screen"
is `check --elliptic`, `spectrum` and `nu` on one matrix in a row.
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
ROUNDS = 3
#: Distinct matrices per n in the "cycle" mode.
POOL = 16
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
