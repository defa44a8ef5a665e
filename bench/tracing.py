"""Span tracing from outside the library, for the benchmark's traced run.

`Tracer.install` rebinds every public function of the spcausal modules in
every module namespace that holds it (and in the package namespace), and the
numpy/scipy kernels the library calls, to wrappers that record one span per
call.  Nothing under ``src/`` changes; `Tracer.uninstall` restores the
original bindings.  Spans are recorded only while an op is open
(`Tracer.begin_op` .. `Tracer.end_op`), so input generation and reference
checks made by the benchmark itself leave no spans.

A span is a list ``[func_index, parent, op, n, size, start, end, flag]``:

* ``func_index`` indexes `Tracer.funcs`, a list of ``(layer, name)``;
* ``parent`` is the index of the enclosing span, or -1 for the op span;
* ``n`` is the half-dimension of the first matrix argument (0 if none);
* ``size`` is the step count of a path argument (0 if none);
* ``flag`` is the truth value of a membership verdict, or the exception
  type name if the call raised, else None.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

import spcausal

LAYERS = ("core", "krein", "elliptic", "causal", "pathlab", "cli")
#: numpy/scipy kernels wrapped as the ``linalg`` layer: (module, attribute).
KERNELS = (
    ("numpy.linalg", "eig"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "eigvalsh"),
    ("scipy.linalg", "expm"),
    ("scipy.linalg", "schur"),
)
#: Functions whose verdict is recorded in the span flag.
_VERDICT = {"is_positively_elliptic"}

FUNC, PARENT, OP, N, SIZE, START, END, FLAG = range(8)


def _shape_info(args) -> tuple[int, int]:
    if not args:
        return 0, 0
    a = args[0]
    shape = getattr(a, "shape", None)
    if shape is not None:
        return (shape[0] // 2 if len(shape) == 2 else 0), 0
    tangents = getattr(a, "tangents", None)
    if tangents is not None and tangents:
        return tangents[0].shape[0] // 2, len(tangents)
    return 0, 0


class Tracer:
    """In-memory span recorder.  ``clock`` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.funcs: list[tuple[str, str]] = [("bench", "op")]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        """Return a wrapper of fn that records a span while an op is open."""
        index = len(self.funcs)
        self.funcs.append((layer, name))
        verdict = name in _VERDICT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            n, size = _shape_info(args)
            span = [index, stack[-1], tracer._op, n, size, 0.0, 0.0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[FLAG] = type(exc).__name__
                raise
            finally:
                span[END] = tracer.clock()
                stack.pop()
            if verdict:
                span[FLAG] = bool(result)
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append([0, -1, op, 0, 0, self.clock(), 0.0, None])

    def end_op(self) -> None:
        self.spans[self._stack[0]][END] = self.clock()
        self._op = None
        self._stack = []

    # -- installation ------------------------------------------------------

    def _rebind(self, namespace, name: str, value) -> None:
        self._saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def install(self) -> None:
        """Rebind library functions and kernels to span-recording wrappers."""
        modules = [importlib.import_module(f"spcausal.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("spcausal.")
                ):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self.wrap(obj, layer, obj.__name__)
        for ns in [spcausal, *modules]:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._rebind(ns, name, wrappers[id(obj)])
        for modname, attr in KERNELS:
            mod = importlib.import_module(modname)
            self._rebind(mod, attr, self.wrap(getattr(mod, attr), "linalg", attr))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._saved):
            setattr(namespace, name, original)
        self._saved = []

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write all spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"funcs": self.funcs}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Children are clipped to their parent and overlapping children are
    merged, so a covered instant is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


#: Per-op call counts: metric name -> (layer, function) spans counted.
CALL_COUNTS = {
    "core.require_symplectic.calls": [("core", "require_symplectic")],
    "core.is_symplectic.calls": [("core", "is_symplectic")],
    "core.cone_status.calls": [("core", "cone_status")],
    "krein.krein_spectrum.calls": [("krein", "krein_spectrum")],
    "krein.nu.calls": [("krein", "nu")],
    "elliptic.is_positively_elliptic.calls": [("elliptic", "is_positively_elliptic")],
    "elliptic.elliptic_angles.calls": [("elliptic", "elliptic_angles")],
    "elliptic.elliptic_splitting.calls": [("elliptic", "elliptic_splitting")],
    "causal.geodesic_flow.calls": [("causal", "geodesic_flow")],
    "linalg.eig.calls": [("linalg", "eig"), ("linalg", "eigvals")],
    "linalg.expm.calls": [("linalg", "expm")],
    "linalg.schur.calls": [("linalg", "schur")],
}
#: Mean microseconds per call split by n: metric stem -> (layer, function, self-time?).
PER_CALL_BY_N = {
    "krein.krein_spectrum.self_us_per_call": ("krein", "krein_spectrum", True),
    "elliptic.tau.us_per_call": ("elliptic", "tau", False),
    "elliptic.log_elliptic.us_per_call": ("elliptic", "log_elliptic", False),
}
#: Mean microseconds per call over every n.
PER_CALL = {
    "causal.connect.us_per_call": ("causal", "connect"),
    "causal.exit_times.us_per_call": ("causal", "exit_times"),
    "cli.main.us_per_call": ("cli", "main"),
}
SELF_SHARE_LAYERS = LAYERS + ("linalg",)

# ancestor bits, for "spans of f under g" counts
_ANCESTORS = ("connect", "exit_times", "is_positively_elliptic",
              "random_causal_path", "track_phases", "mu_along_path")
_BIT = {name: 1 << i for i, name in enumerate(_ANCESTORS)}


def layer_metrics(tracer: Tracer, ops: int, scales=None) -> dict[str, float]:
    """Per-layer metrics over all recorded ops; counts are per op.

    ``scales`` maps an op id to the factor that brings its times to reference
    speed (see calib.py); times of ops not in it are used as recorded.

    * ``<layer>.self_share``: the layer's self time over the total op time.
    * ``causal.*.membership_probes``: is_positively_elliptic spans under the
      named call; ``causal.exit_times.gap_evals``: krein_spectrum spans under
      exit_times outside any membership span (the root-finder's evaluations).
    * ``pathlab.random_causal_path.confine_probes``: membership spans under
      random_causal_path; ``pathlab.redraws``: those that rejected the step,
      each of which redraws the tangent with a halved step.
    * ``pathlab.track_phases.extra_spectra`` / ``pathlab.mu_along_path.extra_nu``:
      krein_spectrum / nu spans under the call beyond steps + 1 per call, the
      work of adaptive refinement.
    """
    spans, funcs = tracer.spans, tracer.funcs
    scales = scales or {}
    selfs = self_times(spans)
    key = {f: i for i, f in enumerate(funcs)}
    bit = [_BIT.get(name, 0) if layer != "linalg" else 0 for layer, name in funcs]
    names = [name for _, name in funcs]

    count = [0] * len(funcs)
    dur = [0.0] * len(funcs)
    by_n: dict[tuple[int, int], list[float]] = {}
    layer_self = dict.fromkeys(SELF_SHARE_LAYERS, 0.0)
    op_total = 0.0
    under = dict.fromkeys(
        ["connect_probes", "exit_probes", "gap_evals", "confine_probes",
         "redraws", "track_spectra", "track_base", "mu_nu", "mu_base"], 0
    )
    anc = [0] * len(spans)
    for i, s in enumerate(spans):
        f = s[FUNC]
        k = scales.get(s[OP], 1.0)
        d = k * (s[END] - s[START])
        if f == 0:
            op_total += d
            continue
        p = s[PARENT]
        a = anc[p] | bit[spans[p][FUNC]]
        anc[i] = a
        count[f] += 1
        dur[f] += d
        acc = by_n.setdefault((f, s[N]), [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += d
        acc[2] += k * selfs[i]
        layer = funcs[f][0]
        if layer in layer_self:
            layer_self[layer] += k * selfs[i]
        name = names[f]
        if name == "is_positively_elliptic":
            under["connect_probes"] += bool(a & _BIT["connect"])
            under["exit_probes"] += bool(a & _BIT["exit_times"])
            if a & _BIT["random_causal_path"]:
                under["confine_probes"] += 1
                under["redraws"] += s[FLAG] is False
        elif name == "krein_spectrum":
            ex, memb = a & _BIT["exit_times"], a & _BIT["is_positively_elliptic"]
            under["gap_evals"] += bool(ex and not memb)
            under["track_spectra"] += bool(a & _BIT["track_phases"])
        elif name == "nu":
            under["mu_nu"] += bool(a & _BIT["mu_along_path"])
        elif name == "track_phases":
            under["track_base"] += s[SIZE] + 1
        elif name == "mu_along_path":
            under["mu_base"] += s[SIZE] + 1

    ops = max(ops, 1)

    def idx(layer, name):
        return key.get((layer, name), -1)

    out: dict[str, float] = {}
    for metric, targets in CALL_COUNTS.items():
        out[metric] = sum(count[idx(*t)] for t in targets if idx(*t) >= 0) / ops
    for stem, (layer, name, use_self) in PER_CALL_BY_N.items():
        f = idx(layer, name)
        for n in (1, 2, 3):
            c, d, o = by_n.get((f, n), (0, 0.0, 0.0))
            out[f"{stem}.n{n}"] = 1e6 * (o if use_self else d) / c if c else 0.0
    for metric, (layer, name) in PER_CALL.items():
        f = idx(layer, name)
        c = count[f] if f >= 0 else 0
        out[metric] = 1e6 * dur[f] / c if c else 0.0
    out["causal.connect.membership_probes"] = under["connect_probes"] / ops
    out["causal.exit_times.membership_probes"] = under["exit_probes"] / ops
    out["causal.exit_times.gap_evals"] = under["gap_evals"] / ops
    out["pathlab.random_causal_path.confine_probes"] = under["confine_probes"] / ops
    out["pathlab.redraws"] = under["redraws"] / ops
    out["pathlab.track_phases.extra_spectra"] = (
        under["track_spectra"] - under["track_base"]) / ops
    out["pathlab.mu_along_path.extra_nu"] = (under["mu_nu"] - under["mu_base"]) / ops
    for layer in SELF_SHARE_LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / op_total if op_total else 0.0
    return out
