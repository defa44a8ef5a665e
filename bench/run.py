"""spcausal benchmark: one workload as a closed loop, checked op by op.

    python3 bench/run.py --workload region_queries --seed 1 --seconds 18 --trace 0

One caller in one process sends the next op when the previous one returns;
BLAS is pinned to one thread.  Inputs are made from --seed during set-up,
outside the timed loop.  Every op is checked against a reference (see
workloads.py); the timed loop runs until the ops have taken --seconds and
every input has run at least once.  The attempted and failed counts are
over the workload's distinct inputs: an input fails if its outputs miss the
reference, and it must give the same verdict on every pass, so the counts
depend on the inputs alone and not on how many passes fit in a run.

Times are reported at reference machine speed: after each op, and after
each set-up, a fixed numpy kernel is timed and the op's latency scaled by
the kernel's reference time over its measured time, taken as a median over
the ops around it (see calib.py), which cancels the slowdowns other tenants
of a shared host impose.  The raw figures are printed alongside.  The loop
makes repeated passes over the workload's inputs, and each input's latency
is the median of its passes; ops_per_s is the reciprocal of the mean of
these, and the latency percentiles are taken over them.

With --trace 0 the end-to-end metrics are printed; set-up (import of
spcausal, input generation and warm-up) is repeated in fresh processes and
its median reported.  With --trace 1 the library's public functions and the
numpy/scipy kernels are wrapped (tracing.py) and per-layer metrics printed;
the same ops run untraced first and traced second, their outputs must be
bit-identical, and the time ratio gives the tracing overhead.  Spans are
written to .bench_out/ at the end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it record the
machine, the sample counts and the failures by cause.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere, here or in child processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("region_queries", "spectrum_screen", "causal_geodesics", "path_lab")
#: Warm-up ops, covering n = 1, 2, 3 twice; their time counts as set-up.
WARMUP_OPS = 6
#: Set-up runs per benchmark run: this process plus SETUP_PROBES fresh ones.
SETUP_PROBES = 3
#: Share of --seconds the traced run spends on its untraced reference ops.
UNTRACED_SHARE = 0.3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import spcausal from this checkout, make the inputs and warm up.

    Returns the loop, and the set-up time scaled to reference speed and raw.
    """
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import spcausal

    if not os.path.abspath(spcausal.__file__).startswith(SRC + os.sep):
        raise ImportError(f"spcausal imported from {spcausal.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    pool = wl.make(seed)
    for i in range(WARMUP_OPS):
        wl.run(pool[i % len(pool)])
    elapsed = time.perf_counter() - t0
    import calib

    return Loop(wl, pool, workloads.digest), elapsed * calib.scale(elapsed), elapsed


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process, which imports everything anew."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("set-up probe failed")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["raw_s"]


class Loop:
    """Runs and checks ops; accumulates latencies, failures and digests.

    ``raw`` are the latencies as measured and ``units`` the kernel unit time
    measured right after each op; ``latencies`` are scaled to reference speed
    and ``scales`` maps an op id to the factor applied to it.
    """

    def __init__(self, wl, pool, digest):
        # imported only after set-up has begun, so numpy's import is timed
        import calib

        self.wl, self.pool, self.digest, self.calib = wl, pool, digest, calib
        self.raw: list[float] = []
        self.units: list[float] = []
        self.ids: list[int] = []
        self.inputs: list[int] = []
        #: per pool input: None if it passed, else (cause, known defect)
        self.verdicts: dict[int, tuple[str, bool] | None] = {}
        self.err_max = 0.0
        self.digests: list[str] = []

    def op(self, i: int, tracer=None, keep_digest=False) -> float:
        """Run, time and check op i; returns its raw latency."""
        wl, inp = self.wl, self.pool[i % len(self.pool)]
        exc = out = None
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as e:  # any raise is a failed op, recorded by type
            exc = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        self.units.append(self.calib.unit_time(self.calib.SHARE * dt))
        self.raw.append(dt)
        self.ids.append(i)
        self.inputs.append(i % len(self.pool))
        verdict = None
        if exc is not None:
            verdict = (f"{inp.category}: raised {type(exc).__name__}: {exc}", False)
        else:
            chk = wl.check(inp, out)
            if keep_digest:
                self.digests.append(self.digest(out))
            if chk.failed:
                known = wl.known_defect(inp, out, chk)
                verdict = (known or f"{inp.category}: failed {','.join(chk.failed)}",
                           known is not None)
            else:
                self.err_max = max(self.err_max, chk.err)
        self.record(i % len(self.pool), verdict)
        return dt

    def record(self, k: int, verdict) -> None:
        """Keep input k's verdict; one that changes between passes is an
        unexpected failure, since the same input must give the same output."""
        if k in self.verdicts and self.verdicts[k] != verdict:
            verdict = ("verdict differs between passes over the same input", False)
        self.verdicts[k] = verdict

    def merge(self, other: "Loop") -> None:
        """Fold in the verdicts of another loop over the same inputs."""
        for k, verdict in other.verdicts.items():
            self.record(k, verdict)

    @property
    def scales(self) -> dict[int, float]:
        return dict(zip(self.ids, self.calib.window_scales(self.raw, self.units)))

    @property
    def latencies(self) -> list[float]:
        return [dt * k for dt, k in
                zip(self.raw, self.calib.window_scales(self.raw, self.units))]

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(v is not None for v in self.verdicts.values())

    @property
    def unexpected(self) -> int:
        return sum(v is not None and not v[1] for v in self.verdicts.values())

    def causes(self) -> Counter:
        """Failed inputs by cause."""
        return Counter(("known defect: " if known else "unexpected: ") + cause
                       for cause, known in filter(None, self.verdicts.values()))

    def run_for(self, seconds: float, start: int = 0, **kw) -> int:
        """Run ops from index start until they have taken `seconds` and every
        input has run at least once; returns the next index."""
        busy, i = 0.0, start
        while busy < seconds or i < len(self.pool):
            busy += self.op(i, **kw)
            i += 1
        return i


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }


def percentile_ms(values, q: float) -> float:
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(args, loop: Loop, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the same timings unscaled for the report."""
    loop.run_for(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    ops = len(loop.raw)

    def timings(values):
        by_input: dict[int, list[float]] = {}
        for i, v in zip(loop.inputs, values):
            by_input.setdefault(i, []).append(v)
        lat = [statistics.median(v) for v in by_input.values()]
        samples = f"{len(lat)} inputs x {ops / len(lat):.1f} passes"
        return {
            "ops_per_s": (len(lat) / sum(lat), "1/s", samples),
            "latency_p50_ms": (percentile_ms(lat, 50), "ms", samples),
            "latency_p90_ms": (percentile_ms(lat, 90), "ms", samples),
        }

    metrics = timings(loop.latencies) | {
        "setup_s": (setup_s, "s", SETUP_PROBES + 1),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    return metrics, timings(loop.raw)


def traced(args, plain: Loop) -> tuple[dict, Loop, bool]:
    """Untraced reference ops, the same ops traced, then traced ops until
    --seconds is used up; returns the per-layer metrics, the traced loop and
    whether the traced outputs were bit-identical."""
    import tracing

    end = plain.run_for(UNTRACED_SHARE * args.seconds, keep_digest=True)
    loop = Loop(plain.wl, plain.pool, plain.digest)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(end):
            loop.op(i, tracer=tracer, keep_digest=True)
        loop.run_for((1 - UNTRACED_SHARE) * args.seconds - sum(loop.raw),
                     end, tracer=tracer)
    finally:
        tracer.uninstall()
    identical = loop.digests == plain.digests
    loop.merge(plain)

    metrics = {k: (v, _layer_unit(k), len(loop.raw))
               for k, v in tracing.layer_metrics(tracer, len(loop.raw), loop.scales).items()}
    overhead = sum(loop.latencies[:end]) / sum(plain.latencies) - 1
    metrics["trace_overhead_frac"] = (overhead, "frac", end)
    metrics["ref_err_max"] = (loop.err_max, "abs", len(loop.raw))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl.gz"))
    return metrics, loop, identical


def _layer_unit(name: str) -> str:
    if name.endswith("self_share"):
        return "frac"
    if "us_per_call" in name:
        return "us"
    return "count/op"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _, scaled, raw = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": scaled, "raw_s": raw}))
        return 0
    setups = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    loop, scaled, raw = setup(args.workload, args.seed)
    setups.append((scaled, raw))
    unscaled = {}
    if args.trace:
        metrics, loop, identical = traced(args, loop)
    else:
        metrics, unscaled = untraced(args, loop, statistics.median(s for s, _ in setups))
        unscaled["setup_s"] = (statistics.median(r for _, r in setups), "s", len(setups))
        identical = True

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (samples: {samples})")
    for name, (value, unit, samples) in unscaled.items():
        print(f"{name} unscaled = {value:.6g} {unit} (samples: {samples})")
    # an op is one pool input, checked on every pass; the failed count is
    # then a function of the inputs alone, not of how many passes fit
    print(f"failed_frac = {loop.failed / loop.attempted:.6g} frac "
          f"(samples: {loop.attempted} inputs, {len(loop.raw)} checked ops)")
    causes = loop.causes()
    if not identical:
        causes["unexpected: traced outputs differ from untraced"] += 1
    print(json.dumps({"failures_by_cause": dict(causes)}))
    print(json.dumps({
        "correct": loop.unexpected == 0 and identical,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
