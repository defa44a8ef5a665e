"""Tests for the command-line interface: subcommands, JSON I/O, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from spcausal import standard_J
from spcausal.cli import main


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


def test_tol_only_on_check_and_reported_as_in_force(tmp_path, capsys):
    f = write_doc(tmp_path, "w.json", rot(np.pi / 3))
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
    assert out["provenance"]["seed"] == 3

    code, out = run_cli(capsys, ["suite", "--seed", "11", "--n", "1",
                                 "--trials", "3"])
    assert code == 0
    assert out["result"]["all_passed"] is True


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
