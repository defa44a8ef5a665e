"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import spcausal  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TickClock:
    """Fake clock that advances by one on every reading."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_of_a_synthetic_nested_call():
    tr = tracing.Tracer(clock=TickClock())
    leaf = tr.wrap(lambda: None, "krein", "leaf")
    inner = tr.wrap(lambda: (leaf(), leaf()), "elliptic", "inner")
    outer = tr.wrap(lambda: inner(), "causal", "outer")

    tr.begin_op(0)            # op 0 .. 9
    outer()                   # outer 1 .. 8, inner 2 .. 7, leaves 3..4, 5..6
    tr.end_op()

    names = [tr.funcs[s[tracing.FUNC]][1] for s in tr.spans]
    assert names == ["op", "outer", "inner", "leaf", "leaf"]
    assert tracing.self_times(tr.spans) == [2.0, 2.0, 3.0, 1.0, 1.0]
    assert sum(tracing.self_times(tr.spans)) == 9.0   # the op's duration


def test_self_time_merges_overlapping_children_and_clips_them():
    def span(parent, start, end):
        return [0, parent, 0, 0, 0, start, end, None]

    spans = [span(-1, 0.0, 10.0), span(0, 1.0, 4.0), span(0, 3.0, 6.0), span(0, 8.0, 12.0)]
    # covered: [1, 6] and [8, 10]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_probe_and_gap_counts_follow_the_span_tree():
    tr = tracing.Tracer(clock=TickClock())
    spectrum = tr.wrap(lambda: None, "krein", "krein_spectrum")
    member = tr.wrap(lambda: spectrum() or True, "elliptic", "is_positively_elliptic")
    exits = tr.wrap(lambda: (member(), member(), spectrum()), "causal", "exit_times")

    for op in range(2):
        tr.begin_op(op)
        exits()
        tr.end_op()

    m = tracing.layer_metrics(tr, 2)
    assert m["causal.exit_times.membership_probes"] == 2
    assert m["causal.exit_times.gap_evals"] == 1
    assert m["krein.krein_spectrum.calls"] == 3
    shares = sum(m[f"{layer}.self_share"] for layer in tracing.SELF_SHARE_LAYERS)
    assert 0 < shares < 1   # the op span's own glue is the rest


def test_install_covers_every_namespace_and_uninstall_restores():
    original = spcausal.krein.krein_spectrum
    tr = tracing.Tracer()
    tr.install()
    try:
        for mod in ("krein", "elliptic", "causal", "pathlab", "cli"):
            wrapped = getattr(getattr(spcausal, mod), "krein_spectrum")
            assert wrapped is not original and wrapped.__wrapped__ is original
        assert spcausal.krein_spectrum is spcausal.causal.krein_spectrum
    finally:
        tr.uninstall()
    for mod in ("krein", "elliptic", "causal", "pathlab", "cli"):
        assert getattr(getattr(spcausal, mod), "krein_spectrum") is original
    assert spcausal.krein_spectrum is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_are_bit_identical_and_checked(name):
    wl = workloads.WORKLOADS[name]
    pool = wl.make(7)[:3]
    plain = [workloads.digest(wl.run(inp)) for inp in pool]

    tr = tracing.Tracer()
    tr.install()
    try:
        traced = []
        for i, inp in enumerate(pool):
            tr.begin_op(i)
            out = wl.run(inp)
            tr.end_op()
            traced.append(workloads.digest(out))
    finally:
        tr.uninstall()
    assert traced == plain
    assert len(tr.spans) > 3 * 10

    for inp in pool:
        out = wl.run(inp)
        chk = wl.check(inp, out)
        assert not chk.failed or wl.known_defect(inp, out, chk), chk.failed


class OddFails:
    """Fake workload whose odd inputs always miss their reference."""

    def run(self, inp):
        return inp.data["k"]

    def check(self, inp, out):
        return workloads.Check(failed=["odd"] if out % 2 else [])

    def known_defect(self, inp, out, chk):
        return "odd input" if out < 4 else None


def test_failed_count_is_per_input_not_per_pass():
    import run

    pool = [workloads.Input(1, "fake", {"k": k}) for k in range(6)]
    loop = run.Loop(OddFails(), pool, workloads.digest)
    end = loop.run_for(0.0)              # one whole pass even with no time
    assert end == len(pool)
    for i in range(end, end + 9):        # and a pass and a half more
        loop.op(i)
    assert (loop.attempted, loop.failed, loop.unexpected) == (6, 3, 1)
    assert loop.causes() == {"known defect: odd input": 2,
                             "unexpected: fake: failed odd": 1}


def test_window_scales_follow_slowdowns_and_smooth_single_readings():
    import calib

    latencies = [0.1] * 40                # 4 s of ops; windows span 11 ops
    units = [1.0] * 20 + [2.0] * 20       # the machine halves its speed at 2 s
    units[5] = 10.0                       # one noisy kernel reading
    k = [x / calib.REFERENCE_S for x in calib.window_scales(latencies, units)]
    assert k[0] == k[5] == 1.0
    assert k[-1] == 0.5
