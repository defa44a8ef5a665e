"""Tests for the command-line interface: subcommands, JSON I/O, exit codes."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from spcausal import (
    CausalPath,
    geodesic_flow,
    geodesic_path,
    is_symplectic,
    random_elliptic,
    random_symplectic,
    standard_J,
)
from spcausal import cli
from spcausal.cli import build_parser, main
from spcausal.core import TOL_CONE, TOL_HAM
from spcausal.exceptions import (
    DimensionMismatchError,
    DriftExceededError,
    OutsideConeError,
)


def rot(theta, n=1):
    return scipy.linalg.expm(theta * standard_J(n))


def write_doc(tmp_path, name, M, n=None, label=None):
    M = np.asarray(M, dtype=float)
    doc = {"n": n if n is not None else M.shape[0] // 2, "matrix": M.tolist()}
    if label is not None:
        doc["label"] = label
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_elliptic_true(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", rot(np.pi / 3))
    code, out = run_cli(capsys, ["check", "--elliptic", f])
    assert code == 0
    assert out["result"]["elliptic"] is True


def test_check_elliptic_false_off_circle(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", np.diag([2.0, 0.5]))
    code, out = run_cli(capsys, ["check", "--elliptic", f])
    assert code == 0
    assert out["result"]["elliptic"] is False
    assert out["result"]["reason"] == "off-circle eigenvalue"


def test_check_symplectic_and_cone(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", rot(0.4))
    code, out = run_cli(capsys, ["check", "--symplectic", f])
    assert code == 0 and out["result"]["symplectic"] is True

    g = write_doc(tmp_path, "x.json", standard_J(1))
    code, out = run_cli(capsys, ["check", "--cone", g])
    assert code == 0 and out["result"]["cone_status"] == "interior"


def test_dist_quarter_turn(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", rot(np.pi / 2))
    code, out = run_cli(capsys, ["dist", f])
    assert code == 0
    # 17 significant digits round-trip losslessly
    assert out["result"]["dist"] == np.pi / 2


def test_tau_mu_nu(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", rot(np.pi / 3))
    code, out = run_cli(capsys, ["tau", f])
    assert code == 0
    np.testing.assert_allclose(out["result"]["tau"], -np.log(2), atol=1e-12)

    code, out = run_cli(capsys, ["mu", f])
    assert code == 0
    np.testing.assert_allclose(out["result"]["mu"], 1 / 6, atol=1e-12)

    code, out = run_cli(capsys, ["nu", f])
    assert code == 0
    np.testing.assert_allclose(
        out["result"]["nu"]["re"] + 1j * out["result"]["nu"]["im"],
        np.exp(1j * np.pi / 3), atol=1e-12,
    )


def test_spectrum_and_splitting(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", rot(np.pi / 3))
    code, out = run_cli(capsys, ["spectrum", f])
    assert code == 0
    sigs = sorted(tuple(c["krein_signature"]) for c in out["result"]["clusters"])
    assert sigs == [(0, 1), (1, 0)]

    code, out = run_cli(capsys, ["splitting", f])
    assert code == 0
    np.testing.assert_allclose(out["result"]["angles"], [np.pi / 3], atol=1e-12)


def test_log_geodesic_roundtrip(tmp_path, capsys):
    W = rot(1.1)
    f = write_doc(tmp_path, "w.json", W)
    code, out = run_cli(capsys, ["log", f])
    assert code == 0
    assert out["result"]["cone_status"] == "interior"
    X = np.array(out["result"]["log"])

    # geodesic takes (X, W0); here W0 = id
    g = write_doc(tmp_path, "x.json", X)
    h = write_doc(tmp_path, "id.json", np.eye(2))
    code, out = run_cli(capsys, ["geodesic", "--t", "1.0", g, h])
    assert code == 0
    np.testing.assert_allclose(np.array(out["result"]["point"]), W, atol=1e-10)


def test_geodesic_rejects_non_symplectic_start(tmp_path, capsys):
    g = write_doc(tmp_path, "x.json", standard_J(1))
    h = write_doc(tmp_path, "w.json", 2 * np.eye(2))
    code, out = run_cli(capsys, ["geodesic", "--t", "0.5", g, h])
    assert code == 1
    assert "symplectic residual" in out["error"]


def test_geodesic_checks_its_start_at_the_group_tolerance(tmp_path, capsys):
    # a start whose relative residual lies between 1e-9 and 1e-7 is accepted,
    # as connect and exit_times accept it
    drifted = rot(0.5)
    drifted[0, 1] += 2e-8
    rel = is_symplectic(drifted, tol=1.0).residual / np.linalg.norm(drifted) ** 2
    assert 1e-9 < rel < 1e-7
    g = write_doc(tmp_path, "x.json", standard_J(1))
    h = write_doc(tmp_path, "w.json", drifted)
    code, out = run_cli(capsys, ["geodesic", "--t", "0.5", g, h])
    assert code == 0
    np.testing.assert_array_equal(out["result"]["point"],
                                  geodesic_flow(standard_J(1), drifted)(0.5))
    assert out["tolerances"]["tol_symp"] == 1e-7


def test_geodesic_rejects_a_start_of_another_shape(tmp_path, capsys):
    g = write_doc(tmp_path, "x.json", standard_J(1))
    h = write_doc(tmp_path, "w.json", np.eye(4))
    code, out = run_cli(capsys, ["geodesic", "--t", "0.5", g, h])
    assert code == 1
    assert "direction has shape" in out["error"]


def test_connect_and_exit_times(tmp_path, capsys):
    f = write_doc(tmp_path, "a.json", rot(0.3))
    g = write_doc(tmp_path, "b.json", rot(1.0))
    code, out = run_cli(capsys, ["connect", f, g])
    assert code == 0
    np.testing.assert_allclose(
        np.array(out["result"]["tangent"]), 0.7 * standard_J(1), atol=1e-10
    )

    w = write_doc(tmp_path, "w.json", rot(np.pi / 4))
    x = write_doc(tmp_path, "x.json", standard_J(1))
    code, out = run_cli(capsys, ["exit-times", w, x])
    assert code == 0
    assert abs(out["result"]["c1"] - np.pi / 4) <= 1e-8
    assert abs(out["result"]["c2"] - 3 * np.pi / 4) <= 1e-8
    assert out["result"]["forward_reason"] == "eigenvalue -1"
    assert out["result"]["backward_reason"] == "eigenvalue +1"
    # --t-max outside (0, inf) is rejected at parse time
    for t_max in ("0", "-1", "inf", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["exit-times", "--t-max", t_max, w, x])
        assert exc.value.code == 2
        assert "must be positive and finite" in capsys.readouterr().err


def test_tol_only_on_check_and_reported_as_in_force(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", rot(np.pi / 3))
    x = write_doc(tmp_path, "x.json", standard_J(1))
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--tol", "1e-5", f])
    assert exc.value.code == 2
    capsys.readouterr()
    cases = [
        (["tau", f], 1e-7),
        (["spectrum", f], 1e-7),
        (["check", "--elliptic", f], 1e-7),
        (["check", f], 1e-7),
        (["check", "--elliptic", "--tol", "1e-9", f], 1e-9),
        (["check", "--elliptic", "--tol", "1e-5", f], 1e-7),
        (["check", "--symplectic", f], 1e-9),
        (["geodesic", "--t", "0.5", x, f], 1e-7),
        # verify_suite's library calls check at 1e-7
        (["suite", "--seed", "1", "--n", "1", "--trials", "1"], 1e-7),
    ]
    for argv, tol_symp in cases:
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert out["tolerances"]["tol_symp"] == tol_symp, argv


def test_domain_error_exit_code_1(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", np.diag([2.0, 0.5]))
    code, out = run_cli(capsys, ["tau", f])
    assert code == 1
    assert "error" in out


def test_malformed_input_exit_code_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, out = run_cli(capsys, ["dist", str(p)])
    assert code == 2

    q = tmp_path / "shape.json"
    q.write_text(json.dumps({"n": 2, "matrix": [[1, 0], [0, 1]]}))
    code, out = run_cli(capsys, ["dist", str(q)])
    assert code == 2

    r = tmp_path / "nan.json"
    r.write_text(json.dumps({"n": 1, "matrix": [[1, 0], [0, "oops"]]}))
    code, out = run_cli(capsys, ["dist", str(r)])
    assert code == 2


def test_malformed_documents_name_their_fault(tmp_path, capsys):
    # each exits 2 with the exact error text
    one = json.dumps({"n": 1, "matrix": rot(0.3).tolist()})
    cases = (
        (["dist"], '"abc"', "matrix document must be a JSON object"),
        (["dist"], "[42]", "matrix document must be a JSON object"),
        (["dist"], '{"n": 1}', "matrix document needs fields 'n' and 'matrix'"),
        (["dist"], '{"n": 1, "matrix": [[1, 0], [0, NaN]]}',
         "'matrix' contains non-finite entries"),
        (["connect"], one, "expected 2 matrix document(s), got 1"),
    )
    for argv, text, error in cases:
        p = tmp_path / "doc.json"
        p.write_text(text)
        code, out = run_cli(capsys, [*argv, str(p)])
        assert (code, out["error"]) == (2, error), text


def test_a_bool_n_is_malformed(tmp_path, capsys):
    # JSON true is not the count 1, as 1.0 is not
    for n in (True, 1.0):
        p = tmp_path / "bool.json"
        p.write_text(json.dumps({"n": n, "matrix": rot(0.3).tolist()}))
        code, out = run_cli(capsys, ["check", "--elliptic", str(p)])
        assert code == 2 and "'n' must be a positive integer" in out["error"]


def test_missing_file_exit_code_2(capsys):
    code, out = run_cli(capsys, ["dist", "/nonexistent/file.json"])
    assert code == 2


def test_doc_array_input(tmp_path, capsys):
    docs = [
        {"n": 1, "matrix": rot(0.3).tolist()},
        {"n": 1, "matrix": rot(1.0).tolist()},
    ]
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(docs))
    code, out = run_cli(capsys, ["connect", str(p)])
    assert code == 0


def test_path_verify_and_suite(capsys):
    code, out = run_cli(capsys, ["path-verify", "--seed", "3", "--n", "1",
                                 "--steps", "10"])
    assert code == 0
    assert out["result"]["invariants_ok"] is True
    assert out["result"]["violation"] is None
    assert out["provenance"]["seed"] == 3

    code, out = run_cli(capsys, ["suite", "--seed", "11", "--n", "1",
                                 "--trials", "3"])
    assert code == 0
    assert out["result"]["all_passed"] is True


def test_path_verify_reports_violation(monkeypatch, capsys):
    # e^{-tJ} runs backwards in time, so its tangents leave the cone; a
    # matrix moved by 1e-5 drifts past DRIFT_TOL at its grid index
    backwards = geodesic_path(-standard_J(1), np.eye(2), 0.0, 1.0, 4)
    short = CausalPath(backwards.grid, backwards.tangents[:-1], backwards.matrices)
    forward = geodesic_path(standard_J(1), np.eye(2), 0.0, 1.0, 4)
    moved = list(forward.matrices)
    moved[2] = moved[2] + 1e-5
    drifted = CausalPath(forward.grid, forward.tangents, tuple(moved))
    for path, error, message in (
        (backwards, OutsideConeError, "not cone-admissible"),
        (short, DimensionMismatchError, "counts are inconsistent"),
        (drifted, DriftExceededError, "at grid index 2"),
    ):
        with pytest.raises(error, match=message):
            path.validate()
        monkeypatch.setattr("spcausal.cli.random_causal_path",
                            lambda *args, path=path, **kw: path)
        code, out = run_cli(capsys, ["path-verify"])
        assert code == 0
        assert out["result"]["invariants_ok"] is False
        assert message in out["result"]["violation"]
        # a drifted matrix cannot be phase-tracked, so its points are not counted
        drift = error is DriftExceededError
        assert (out["result"]["off_circle_points"] is None) is drift


def test_determinism(tmp_path, capsys):
    args = ["suite", "--seed", "5", "--n", "1", "--trials", "3"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_stdin_subprocess():
    doc = json.dumps({"n": 1, "matrix": rot(np.pi / 2).tolist()})
    proc = subprocess.run(
        [sys.executable, "-m", "spcausal.cli", "dist"],
        input=doc, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["result"]["dist"] == np.pi / 2


def test_import_defers_scipy_optimize_to_its_first_use():
    code = ("import sys, spcausal, spcausal.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "spcausal.core._optimize()\n"
            "print('scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# one parser per process, and the exact-type JSON writer


def _dumps(obj) -> str:
    # Moved code: the isinstance-chain writer that `spcausal.cli._dumps`
    # replaced, kept unchanged as the reference of the differential tests.
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return json.dumps(None)
        return f"{x:.17g}"
    if isinstance(obj, np.ndarray):
        return _dumps(obj.tolist())
    if isinstance(obj, complex):
        return _dumps({"re": obj.real, "im": obj.imag})
    return json.dumps(obj)


def _outcome(write, obj):
    """write(obj), or the type and message of the exception it raised."""
    try:
        return write(obj)
    except Exception as exc:
        return type(exc), str(exc)


def _subcommand_files(tmp_path):
    return {
        "w": write_doc(tmp_path, "w.json", rot(np.pi / 3)),
        "a": write_doc(tmp_path, "a.json", rot(0.3)),
        "b": write_doc(tmp_path, "b.json", rot(1.0)),
        "x": write_doc(tmp_path, "x.json", standard_J(1)),
        "e3": write_doc(tmp_path, "e3.json", random_elliptic(3, 3)),
        "g3": write_doc(tmp_path, "g3.json", random_symplectic(3, 3)),
    }


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    f = _subcommand_files(tmp_path)
    sequence = [
        ["check", "--tol", "1e-5", f["w"]],
        ["check", "--elliptic", f["w"]],
        ["spectrum", f["g3"]],
        ["exit-times", "--t-max", "0", f["w"], f["x"]],
        ["exit-times", f["w"], f["x"]],
        ["connect", "--samples", "8", f["a"], f["b"]],
        ["connect", f["a"], f["b"]],
        ["path-verify", "--seed", "3", "--steps", "5"],
        ["nu", f["e3"]],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out

    # the reference: a fresh parser for every call
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(argv))

    built, seen = [], []

    def counting_build_parser():
        parser = build_parser()
        parse = parser.parse_args

        def recording(args=None, namespace=None):
            ns = parse(args, namespace)
            seen.append(vars(ns))
            return ns

        parser.parse_args = recording
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        reused = [run(argv) for argv in sequence]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert reused == fresh
    assert reused[3] == (("exit", 2), "")

    expected = []
    for argv in sequence:
        try:
            expected.append(vars(build_parser().parse_args(argv)))
        except SystemExit:
            pass
    capsys.readouterr()
    assert seen == expected

    # an option set in one call is back at its default in the next; the
    # parse failure left no namespace, so seen[3:] are sequence[4:]
    assert seen[0]["tol"] == 1e-5 and seen[1]["tol"] is None
    assert seen[4]["samples"] == 8 and seen[5]["samples"] == 64
    assert json.loads(reused[1][1])["tolerances"] == {
        "tol_symp": 1e-7, "tol_ham": TOL_HAM, "tol_cone": TOL_CONE,
    }
    for code, out in reused[:3] + reused[4:]:
        assert code == 0 and "result" in json.loads(out)


def test_help_and_version_match_a_fresh_parser(capsys):
    fresh = build_parser()
    assert fresh is not build_parser()
    check = next(
        a for a in fresh._actions if isinstance(a, argparse._SubParsersAction)
    ).choices["check"]
    for argv, text in (
        (["--help"], fresh.format_help()),
        (["check", "--help"], check.format_help()),
        (["--version"], cli.__version__ + "\n"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == text


class _Tag(str):
    pass


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e300, 5e-324, 2**70,
    np.float64(np.nan), np.float64(np.inf), np.float64(-np.inf), np.float64(0.1),
    np.float32(0.1), np.int64(-7), np.int32(3), np.bool_(True),
    1 + 2j, complex(np.nan, -np.inf), np.complex128(3 - 0.5j),
    np.array(2.5), np.array(7), np.array(np.nan),
    np.arange(6.0).reshape(2, 3), np.array([[np.inf, 1.0]]), np.array([1 + 1j]),
    ((1, (2.5, (None, "x"))), ()), [(), [[]], {}],
    [True, 1, False, 0, 1.0], {"a": True, "b": 1, 1: "one", None: None},
    "é ∞ 😀", 'say "hi"\\ \n\t ', {'k"ey': "vál", "ünï": ['"', _Tag("t")]},
    _Tag('"'), {_Tag("k"): [np.float64(1.5), np.int64(2)]},
    [np.bool_(False)], object(),
], ids=lambda value: type(value).__name__)
def test_writer_matches_the_reference(value):
    # numpy booleans and arbitrary objects raise the same TypeError in both
    for obj in (value, {"v": value}, [value, value]):
        assert _outcome(cli._dumps, obj) == _outcome(_dumps, obj)


def test_writer_matches_the_reference_on_every_result_document(
    tmp_path, capsys, monkeypatch
):
    f = _subcommand_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    commands = [
        ["check", f["w"]],
        ["check", "--elliptic", f["g3"]],
        ["check", "--symplectic", "--tol", "1e-12", f["w"]],
        ["check", "--hamiltonian", f["x"]],
        ["check", "--cone", f["x"]],
        ["spectrum", f["w"]],
        ["spectrum", f["g3"]],
        ["splitting", f["e3"]],
        ["log", f["e3"]],
        ["tau", f["w"]],
        ["mu", f["e3"]],
        ["nu", f["g3"]],
        ["dist", f["w"]],
        ["connect", f["a"], f["b"]],
        ["exit-times", f["w"], f["x"]],
        ["geodesic", "--t", "0.5", f["x"], f["w"]],
        ["path-verify", "--seed", "3", "--n", "2", "--steps", "5"],
        ["suite", "--seed", "1", "--trials", "1"],
        ["tau", f["g3"]],
        ["dist", str(bad)],
    ]
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc: (docs.append(doc), emit(doc)))
    for argv in commands:
        main(argv)
        out = capsys.readouterr().out
        assert out == _dumps(docs[-1]) + "\n", argv
    assert len(docs) == len(commands)


def test_numeric_arguments_are_checked_at_parse_time(tmp_path, capsys):
    f = _subcommand_files(tmp_path)
    cases = [
        (["geodesic", f"--t={value}", f["x"], f["w"]], "must be finite")
        for value in ("nan", "inf", "-inf")
    ] + [
        (["check", "--tol", value, f["w"]], "must be non-negative and finite")
        for value in ("nan", "inf", "-0.5")
    ] + [
        (["suite", "--trials", "0"], "must be a positive integer"),
        (["suite", "--n", "0", "--trials", "1"], "must be a positive integer"),
        (["suite", "--seed", "-1", "--trials", "1"], "must be a non-negative integer"),
        (["path-verify", "--steps", "0"], "must be a positive integer"),
        (["path-verify", "--n", "0"], "must be a positive integer"),
        (["path-verify", "--seed", "-3"], "must be a non-negative integer"),
        (["connect", "--samples", "-5", f["a"], f["b"]], "must be a non-negative integer"),
    ] + [
        (["path-verify", "--step-size", value], "must be positive and finite")
        for value in ("-1", "0", "inf", "nan")
    ] + [
        # text that is no number keeps argparse's own message
        (["path-verify", "--steps", "ten"], "invalid int value: 'ten'"),
        (["geodesic", "--t", "half", f["x"], f["w"]], "invalid float value: 'half'"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert message in captured.err, argv
        assert captured.out == "", argv
    # the bounds themselves are accepted; --tol 0 is an exact check
    for argv in (
        ["check", "--symplectic", "--tol", "0", f["w"]],
        ["connect", "--samples", "0", f["a"], f["b"]],
        ["geodesic", "--t", "-2.5", f["x"], f["w"]],
        ["suite", "--seed", "0", "--trials", "1"],
    ):
        assert run_cli(capsys, argv)[0] == 0, argv
