"""The content-keyed memo of the Krein spectrum (`krein._spectrum`):
a differential test against the uncached kernel it replaced, its own
properties, and the work it saves the CLI."""

import contextlib
import dataclasses
import io
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcausal import (
    block_rotation,
    minus_inverse,
    random_elliptic,
    random_symplectic,
    symplectic_inverse,
)
from spcausal import causal, cli, elliptic, krein, pathlab
from spcausal.causal import dist_formula
from spcausal.core import require_symplectic
from spcausal.elliptic import _checked_form, is_positively_elliptic
from spcausal.exceptions import (
    NotSymplecticError,
    SignatureDegenerateError,
    SymplecticDomainError,
)
from spcausal.krein import _spectrum, nu

from labelling_reference import (
    differential_sample,
    reference_krein_spectrum,
    reference_spectrum,
)


@contextlib.contextmanager
def _parent_kernel():
    """Route every Krein spectrum through the test-local uncached kernel, as
    the library did before the memo: `krein_spectrum` (so `nu`, the CLI and
    `pathlab._labeled_args`) checks and solves on every call and raises at
    the first degenerate cluster, and the membership diagnosis and the
    closure branch of `dist_formula` run the unchecked kernel in "mark"
    mode.  Asserts that the memo is not consulted meanwhile."""
    def marked(W):
        # the memo converts its argument before the kernel reads it
        return reference_spectrum(np.asarray(W, dtype=float), "mark"), None

    bindings = [(m, "krein_spectrum", reference_krein_spectrum)
                for m in (krein, pathlab, cli)]
    bindings += [(m, "_spectrum", marked) for m in (elliptic, causal)]
    saved = [(m, name, getattr(m, name)) for m, name, _ in bindings]
    before = _spectrum.cache_info()
    for m, name, value in bindings:
        setattr(m, name, value)
    try:
        yield
    finally:
        for m, name, value in saved:
            setattr(m, name, value)
    after = _spectrum.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def _mark(W):
    return krein.krein_spectrum(W, on_degenerate="mark")


def _raise(W):
    return krein.krein_spectrum(W, on_degenerate="raise")


def _reason(W):
    return is_positively_elliptic(W).reason


#: Every entry that reads the Krein spectrum memo.
ENTRIES = (_mark, _raise, nu, _reason, dist_formula, pathlab._labeled_args)


def _bits(result):
    """A result exact to the bit: arrays by their bytes, the rest by repr
    (floats and complex numbers print round-trip exact)."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    return repr(result)


def _outcome(f, W):
    try:
        return _bits(f(W))
    except (SymplecticDomainError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _clear():
    _spectrum.cache_clear()
    _checked_form.cache_clear()


def _conjugated(rng, n, D):
    S = random_symplectic(rng, n, scale=0.4)
    return S @ D @ symplectic_inverse(S)


def _shear_recipe(seed, i):
    """A conjugated n = 2 Jordan shear at +1 drawn like the benchmark's
    shear inputs; some of these widen the ordered Schur selection and are
    Krein-degenerate, at seed 1, i = 85 in two clusters."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, i)))
    S = random_symplectic(rng, 2, scale=0.4)
    rng.uniform(0.3, np.pi - 0.3, 2)
    B = rng.standard_normal((2, 2))
    D = np.eye(4)
    D[:2, 2:] = B @ B.T + 0.5 * np.eye(2)
    return S @ D @ symplectic_inverse(S)


def _edge_inputs():
    """Jordan shears at +1 and -1 of both shear signs, rotations with
    repeated angles (signed or not), and the widened shear recipe."""
    out = []
    for seed, n in itertools.product(range(4), (1, 2, 3)):
        rng = np.random.default_rng([71, seed, n])
        B = rng.standard_normal((n, n))
        for block in ((slice(None, n), slice(n, None)), (slice(n, None), slice(None, n))):
            D = np.eye(2 * n)
            D[block] = B @ B.T + 0.5 * np.eye(n)
            W = _conjugated(rng, n, D)
            out += [W, -W]
        th = rng.uniform(0.1, np.pi - 0.1, 2)
        for angles in ([th[0], th[0]], [th[0], th[0], th[1]], [th[0], -th[0]],
                       [th[0], th[0], -th[0]], [th[0]] * n):
            R = block_rotation(angles)
            out += [R, _conjugated(rng, len(angles), R)]
    for seed, i in itertools.product((0, 1, 2), (13, 31, 49, 67, 85)):
        W = _shear_recipe(seed, i)
        out += [W, -W]
    return out


def _variants(W):
    """W as other inputs with the same entries: F-ordered, a strided view, a
    nested list and float32."""
    return [np.asfortranarray(W), np.pad(W, 1)[1:-1, 1:-1], W.tolist(),
            W.astype(np.float32)]


def _inputs():
    samples = [differential_sample(i) for i in range(600)]
    variants = [_variants(W)[i % 4] for i, W in enumerate(samples[:200])]
    # not symplectic, and not finite
    broken = [W + 1e-3 * np.eye(len(W)) for W in samples[:6]]
    broken += [np.where(np.eye(len(W)) > 0, np.nan, W) for W in samples[6:12]]
    return samples + variants + _edge_inputs() + broken


def test_memo_matches_the_uncached_kernel():
    inputs = _inputs()
    with _parent_kernel():
        want = [[_outcome(f, W) for f in ENTRIES] for W in inputs]
    # every entry on a cold memo
    for k, W in enumerate(inputs):
        for f, w in zip(ENTRIES, want[k]):
            _clear()
            assert _outcome(f, W) == w, (k, f.__name__)
    # all entries in a row on one matrix, in three orders: mark -> raise,
    # raise -> mark and nu -> check -> spectrum among them
    orders = [range(6), range(5, -1, -1), (2, 3, 0, 4, 1, 5)]
    for k, W in enumerate(inputs):
        _clear()
        for j in orders[k % 3]:
            assert _outcome(ENTRIES[j], W) == want[k][j], (k, ENTRIES[j].__name__)
    # the sample reaches every outcome the memo has to reproduce
    flat = [w for row in want for w in row]
    for name in ("SignatureDegenerateError", "NotEllipticError", "NotSymplecticError"):
        assert any(w[0] == name for w in flat), name
    assert sum(r[0] == "NotSymplecticError" for r in want) < 50


def test_raise_names_the_first_degenerate_cluster_in_computation_order():
    # two degenerate clusters whose computation order is not their sorted
    # order: the message names the one the uncached kernel raised at
    W = _shear_recipe(1, 85)
    spec, degenerate_at = _spectrum(W)
    degenerate = [c.value for c in spec.clusters if c.degenerate]
    assert len(degenerate) == 2 and degenerate_at == degenerate[1]
    assert f"{degenerate[0]:.6g}" != f"{degenerate[1]:.6g}"
    with pytest.raises(SignatureDegenerateError) as ref:
        reference_krein_spectrum(W)
    with pytest.raises(SignatureDegenerateError) as exc:
        krein.krein_spectrum(W)
    assert str(exc.value) == str(ref.value)
    assert str(ref.value).endswith(f"{degenerate_at:.6g}")


@st.composite
def _interleavings(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(2):
        n = int(rng.integers(1, 4))
        member = random_elliptic(rng, n, margin=0.01)
        other = random_symplectic(rng, n, scale=rng.uniform(0.2, 1.5))
        pool += [member, minus_inverse(member), other, minus_inverse(other)]
    th = rng.uniform(0.1, np.pi - 0.1)
    pool.append(_conjugated(rng, 2, block_rotation([th, -th])))
    degenerate = _shear_recipe(*[(1, 85), (2, 13), (0, 31)][seed % 3])
    pool += [degenerate, -degenerate]
    off = pool[0].copy()
    off[0, 0] += 1e-3   # not symplectic
    pool.append(off)
    calls = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(0, len(ENTRIES) - 1)),
                          min_size=1, max_size=40))
    return pool, calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_interleavings())
def test_memo_interleavings_match_the_uncached_kernel(case):
    pool, calls = case
    got = [_outcome(ENTRIES[f], pool[w]) for w, f in calls]
    with _parent_kernel():
        want = [_outcome(ENTRIES[f], pool[w]) for w, f in calls]
    assert got == want


def test_memo_never_stores_an_error():
    off = block_rotation([0.5])
    off[0, 1] += 1e-3
    nonfinite = block_rotation([0.5, 1.0])
    nonfinite[1, 0] = np.inf
    for W in (off, nonfinite):
        with pytest.raises(NotSymplecticError) as ref:
            require_symplectic(W, tol=1e-7)
        _clear()
        for _ in range(3):
            for f in ENTRIES:
                with pytest.raises(NotSymplecticError) as exc:
                    f(W)
                assert str(exc.value) == str(ref.value)
        assert _spectrum.cache_info().currsize == 0


def test_a_miss_repeats_no_check(monkeypatch):
    # krein_spectrum checks W on every call before the lookup; the diagnosis
    # and the closure branch read the memo for a W their entry has checked
    check = krein.require_symplectic
    calls = []
    monkeypatch.setattr(krein, "require_symplectic",
                        lambda W, tol: (calls.append(tol), check(W, tol))[1])
    W = random_symplectic(np.random.default_rng(3), 2, scale=1.0)
    _clear()
    assert not is_positively_elliptic(W)
    with pytest.raises(SymplecticDomainError):
        dist_formula(W)
    info = _spectrum.cache_info()
    assert (info.misses, info.hits, calls) == (1, 1, [])
    krein.krein_spectrum(W, on_degenerate="mark")
    nu(W)
    info = _spectrum.cache_info()
    assert (info.misses, info.hits, calls) == (1, 3, [1e-7, 1e-7])


@pytest.mark.parametrize("seed, i", [(1, 85), (2, 13), (0, 31)])
def test_raise_reads_the_degenerate_record_on_every_call(seed, i):
    W = _shear_recipe(seed, i)
    with pytest.raises(SignatureDegenerateError) as ref:
        reference_krein_spectrum(W)
    marked = reference_krein_spectrum(W, on_degenerate="mark")
    for first in ("raise", "mark"):
        _clear()
        for mode in (first, "raise", "mark", "raise"):
            if mode == "raise":
                with pytest.raises(SignatureDegenerateError) as exc:
                    krein.krein_spectrum(W)
                assert str(exc.value) == str(ref.value)
            else:
                assert repr(krein.krein_spectrum(W, on_degenerate="mark")) == repr(marked)
        info = _spectrum.cache_info()
        assert (info.misses, info.hits) == (1, 3)


def test_bogus_mode_raises_before_any_lookup():
    off = block_rotation([0.5])
    off[0, 1] += 1e-3
    _clear()
    for W in (block_rotation([0.5]), off):
        with pytest.raises(ValueError, match="on_degenerate must be"):
            krein.krein_spectrum(W, on_degenerate="bogus")
    info = _spectrum.cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_memo_holds_at_most_four_records():
    _clear()
    for k in range(100):
        nu(block_rotation([0.01 + 0.03 * k]))
    info = _spectrum.cache_info()
    assert info.maxsize == 4 and info.misses == 100 and info.currsize == 4
    nu(block_rotation([0.01 + 0.03 * 99]))
    assert _spectrum.cache_info().hits == info.hits + 1


def test_the_shared_spectrum_is_frozen():
    W = _conjugated(np.random.default_rng(5), 2, block_rotation([0.7, -2.0]))
    spec = krein.krein_spectrum(W)
    assert krein.krein_spectrum(W, on_degenerate="mark") is spec
    want = repr(spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.n = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.clusters = ()
    with pytest.raises(TypeError):
        spec.clusters[0] = spec.clusters[1]
    for c in spec.clusters:
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.krein_signature = (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.value = 0j
    assert repr(krein.krein_spectrum(W)) == want


# -- the spectrum screen: check --elliptic, spectrum and nu on one matrix -----

SCREEN = (["check", "--elliptic"], ["spectrum"], ["nu"])


def _screen(W):
    """Exit codes and stdout of the three CLI calls on one matrix document
    read from stdin."""
    doc = json.dumps({"n": len(W) // 2, "matrix": np.asarray(W).tolist()})
    out = []
    for argv in SCREEN:
        buf = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(doc)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        finally:
            sys.stdin = saved
        out.append((code, buf.getvalue()))
    return out


def test_screen_solves_one_spectrum_per_matrix(monkeypatch):
    eig = np.linalg.eig
    count = []
    monkeypatch.setattr(np.linalg, "eig", lambda W: (count.append(1), eig(W))[1])
    rng = np.random.default_rng(9)
    member = random_elliptic(rng, 2, margin=0.05)
    hyperbolic = _conjugated(rng, 2, np.diag([2.0, 3.0, 0.5, 1 / 3]))
    indefinite = _conjugated(rng, 3, block_rotation([0.4, -1.1, 2.0]))
    # the member's check reads the normal form alone, so its spectrum misses
    # in "spectrum" and hits in "nu"; a non-member's misses in the diagnosis
    for W, hits in ((member, 1), (hyperbolic, 2), (indefinite, 2)):
        _clear()
        count.clear()
        out = _screen(W)
        info = _spectrum.cache_info()
        assert (info.misses, info.hits, len(count)) == (1, hits, 1)
        assert [code for code, _ in out] == [0, 0, 0]
        verdict = json.loads(out[0][1])["result"]["elliptic"]
        assert verdict is (W is member)


def test_screen_output_matches_the_uncached_kernel():
    inputs = [differential_sample(i) for i in range(90)] + _edge_inputs()[::3]
    got = [_screen(W) for W in inputs]
    with _parent_kernel():
        want = [_screen(W) for W in inputs]
    assert got == want
    codes = {code for out in got for code, _ in out}
    assert codes == {0, 1}
