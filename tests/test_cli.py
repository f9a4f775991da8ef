"""Command-line surface: file format, commands, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import psdsim as ps
from psdsim.cli import main
from psdsim.matrixio import format_matrix, parse_matrix_text
from helpers import EXAMPLE_A, EXAMPLE_B, rand_frame, rand_pd


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, M):
    path.write_text(format_matrix(np.asarray(M, dtype=float)))
    return str(path)


def test_format_parse_round_trip_real():
    rng = np.random.default_rng(0)
    M = rand_pd(rng, 3)
    back, field = parse_matrix_text(format_matrix(M))
    assert field == "real"
    assert np.array_equal(back, M)  # 17 significant digits round-trip exactly


def test_format_parse_round_trip_complex():
    rng = np.random.default_rng(1)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    M = G @ G.conj().T
    back, field = parse_matrix_text(format_matrix(M))
    assert field == "complex"
    assert np.array_equal(back, M)


def test_format_parse_rectangular_frame():
    rng = np.random.default_rng(2)
    F = rand_frame(rng, 5, 2)
    back, _ = parse_matrix_text(format_matrix(F))
    assert back.shape == (5, 2)
    assert np.array_equal(back, F)


def test_parse_errors():
    for text in ("", "psdm real x\n1", "psdm real 2\n1 2", "psdm real 2\n1 2\n3",
                 "psdm imaginary 1\n1", "other real 1\n1", "psdm real 1\none"):
        with pytest.raises(ps.ParseError):
            parse_matrix_text(text)


def test_parse_rejects_non_finite_entries():
    for token in ("nan", "inf", "-inf"):
        with pytest.raises(ps.ParseError, match="non-finite"):
            parse_matrix_text(f"psdm real 2\n{token} 0\n0 1")
    with pytest.raises(ps.ParseError, match="non-finite"):
        parse_matrix_text("psdm complex 1\n1 nan")


def test_dist_non_finite_file_exits_2(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", [[math.nan, 0.0], [0.0, 1.0]])
    b = write_matrix(tmp_path / "b.psdm", np.eye(2))
    code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b)
    assert code == 2 and out == "" and "non-finite" in err


def test_dist_self_is_zero(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", np.diag([2.0, 1.0, 0.0]))
    code, out, _ = run_cli(capsys, "dist", "--a", a, "--b", a)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 0.0
    assert doc["stratum_index"] == 0
    assert doc["mode"] == "closedForm"


def test_dist_worked_example_faithful(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", EXAMPLE_A)
    b = write_matrix(tmp_path / "b.psdm", EXAMPLE_B)
    code, out, _ = run_cli(
        capsys, "dist", "--a", a, "--b", b,
        "--grassmann", "geodesic", "--fiber", "geo",
        "--hausdorff", "faithful", "--samples", "400000",
    )
    assert code == 0
    doc = json.loads(out)
    want = math.sqrt(math.pi**2 / 2 + 2 * math.log(2) ** 2)
    assert abs(doc["total"] - want) <= 1e-3
    assert doc["stratum_index"] == 2


def test_dist_projector_pair_reduces_to_base_metric(tmp_path, capsys):
    rng = np.random.default_rng(3)
    F, G = rand_frame(rng, 6, 2), rand_frame(rng, 6, 2)
    a = write_matrix(tmp_path / "a.psdm", F @ F.T)
    b = write_matrix(tmp_path / "b.psdm", G @ G.T)
    code, out, _ = run_cli(capsys, "dist", "--a", a, "--b", b,
                           "--grassmann", "chordal", "--fiber", "kl")
    assert code == 0
    doc = json.loads(out)
    theta = ps.principal_system(ps.Subspace(F), ps.Subspace(G)).theta
    assert abs(doc["total"] - ps.grassmann_distance(ps.GrassmannMetric.CHORDAL, theta)) <= 1e-10
    assert abs(doc["fiber_term"]) <= 1e-10


def test_dist_deterministic_output(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", EXAMPLE_A)
    b = write_matrix(tmp_path / "b.psdm", EXAMPLE_B)
    args = ["dist", "--a", a, "--b", b, "--hausdorff", "faithful",
            "--seed", "7", "--samples", "20000"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_exit_codes(tmp_path, capsys):
    ok = write_matrix(tmp_path / "ok.psdm", np.eye(2))
    bad = tmp_path / "bad.psdm"
    bad.write_text("psdm real 2\n1 0\n")
    notpsd = write_matrix(tmp_path / "notpsd.psdm", np.diag([1.0, -1.0]))
    code, _, err = run_cli(capsys, "dist", "--a", str(bad), "--b", ok)
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "dist", "--a", str(tmp_path / "absent.psdm"), "--b", ok)
    assert code == 2
    code, _, err = run_cli(capsys, "dist", "--a", ok, "--b", ok, "--fiber", "nope")
    assert code == 2
    code, _, err = run_cli(capsys, "dist", "--a", notpsd, "--b", ok)
    assert code == 3 and "error" in err
    big = write_matrix(tmp_path / "c.psdm", np.eye(3))
    code, _, err = run_cli(capsys, "project-lift", "--c", big,
                           "--d", ok, "--which", "minus")
    assert code == 3


def test_budget_and_samples_below_one_exit_3(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", EXAMPLE_A)
    b = write_matrix(tmp_path / "b.psdm", EXAMPLE_B)
    for flags in (["--hausdorff", "faithful", "--samples", "0"], ["--samples", "-5"],
                  ["--budget", "0"]):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, *flags)
        assert code == 3 and out == "" and ">= 1" in err, flags
    code, out, err = run_cli(capsys, "pairwise", "--inputs", f"{a},{b}", "--samples", "0")
    assert code == 3 and out == "" and ">= 1" in err


def test_negative_tolerance_exits_3(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", EXAMPLE_A)
    b = write_matrix(tmp_path / "b.psdm", EXAMPLE_B)
    for flag in ("--tol", "--tol-psd"):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, flag, "-1")
        assert code == 3 and out == "" and ">= 0" in err, flag


def test_zero_tolerance_is_honoured(tmp_path, capsys):
    # at the default tol_rank 1e-12 is below the rank cut; at --tol 0 it counts
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 1e-12]))
    counts = []
    for flags in ([], ["--tol", "0"], ["--tol", "0", "--tol-psd", "0"]):
        code, out, _ = run_cli(capsys, "dist", "--a", a, "--b", a, *flags)
        assert code == 0
        counts.append(len(json.loads(out)["angles"]))
    assert counts == [1, 2, 2]


def test_complex_requires_flag(tmp_path, capsys):
    M = np.eye(2) + 0j
    a = write_matrix(tmp_path / "a.psdm", np.eye(2))
    c = tmp_path / "c.psdm"
    c.write_text(format_matrix(M))
    code, _, err = run_cli(capsys, "dist", "--a", str(c), "--b", a)
    assert code == 2 and "complex" in err
    code, out, _ = run_cli(capsys, "dist", "--a", str(c), "--b", a, "--field", "complex")
    assert code == 0
    assert json.loads(out)["total"] == 0.0


def test_dist_complex_degenerate_pair(tmp_path, capsys):
    # the worked pair under a complex unitary congruence, as complex files
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    a, b = tmp_path / "a.psdm", tmp_path / "b.psdm"
    a.write_text(format_matrix(Q @ EXAMPLE_A @ Q.conj().T))
    b.write_text(format_matrix(Q @ EXAMPLE_B @ Q.conj().T))
    code, out, err = run_cli(capsys, "dist", "--a", str(a), "--b", str(b), "--field", "complex")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["stratum_index"] == 2 and doc["mode"] == "optimizedDegenerate"
    assert abs(doc["fiber_term"] ** 2 - 4 * math.log(2) ** 2) <= 1e-8


def test_dist_optimizer_failure_exits_4(tmp_path, capsys, monkeypatch):
    a = write_matrix(tmp_path / "a.psdm", EXAMPLE_A)
    b = write_matrix(tmp_path / "b.psdm", EXAMPLE_B)
    monkeypatch.setattr(ps.geodist, "_ASCENT_MAX_ITER", 0)
    code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b)
    assert code == 4 and out == "" and "error" in err


def test_pairwise_single_file(tmp_path, capsys):
    a = write_matrix(tmp_path / "only.psdm", np.eye(2))
    code, out, _ = run_cli(capsys, "pairwise", "--inputs", a)
    assert code == 0
    assert out == "only\n0.0\n"


def test_pairwise_directory_symmetric_csv(tmp_path, capsys):
    rng = np.random.default_rng(4)
    d = tmp_path / "mats"
    d.mkdir()
    for i in range(3):
        F = rand_frame(rng, 5, 2)
        write_matrix(d / f"m{i}.psdm", F @ F.T)
    out_path = tmp_path / "gram.csv"
    code, _, _ = run_cli(capsys, "pairwise", "--inputs", str(d),
                         "--grassmann", "chordal", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "m0,m1,m2"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.abs(rows - rows.T).max() <= 1e-10
    assert np.allclose(np.diag(rows), 0.0)


def test_pairwise_triangle_violation(tmp_path, capsys):
    write_matrix(tmp_path / "a.psdm", np.eye(2))
    write_matrix(tmp_path / "b.psdm", np.eye(1))
    write_matrix(tmp_path / "c.psdm", np.diag([1.0, 4.0, 1.0]))
    files = ",".join(str(tmp_path / f"{n}.psdm") for n in "abc")
    code, out, _ = run_cli(capsys, "pairwise", "--inputs", files)
    assert code == 0
    rows = [[float(v) for v in ln.split(",")] for ln in out.strip().split("\n")[1:]]
    dab, dbc, dac = rows[0][1], rows[1][2], rows[0][2]
    assert dac > dab + dbc + 1.0
    assert abs(dac - math.log(4.0)) <= 1e-10


def test_project_lift_minus_copies_corner(tmp_path, capsys):
    c = write_matrix(tmp_path / "c.psdm", np.eye(2))
    D = np.diag([4.0, 2.0, 1.0])
    d = write_matrix(tmp_path / "d.psdm", D)
    code, out, _ = run_cli(capsys, "project-lift", "--c", c, "--d", d, "--which", "minus")
    assert code == 0
    block, tail = out.rsplit("\n", 2)[0], out.strip().split("\n")[-1]
    W, _ = parse_matrix_text(block)
    assert np.array_equal(W, D[:2, :2])
    doc = json.loads(tail)
    want = math.sqrt(math.log(4.0) ** 2 + math.log(2.0) ** 2)
    assert doc["side"] == "minus"
    assert abs(doc["value"] - want) <= 1e-12


def test_project_lift_plus_copies_target(tmp_path, capsys):
    c = write_matrix(tmp_path / "c.psdm", 4.0 * np.eye(2))
    D = np.diag([1.0, 2.0, 3.0])
    d = write_matrix(tmp_path / "d.psdm", D)
    code, out, _ = run_cli(capsys, "project-lift", "--c", c, "--d", d, "--which", "plus")
    assert code == 0
    W, _ = parse_matrix_text(out.rsplit("\n", 2)[0])
    assert np.array_equal(W, D)
    doc = json.loads(out.strip().split("\n")[-1])
    assert doc["value"] == 0.0


def test_transport_constant_target(tmp_path, capsys):
    rng = np.random.default_rng(5)
    F = rand_frame(rng, 5, 2)
    A = (F * [2.0, 1.0]) @ F.T
    a = write_matrix(tmp_path / "a.psdm", A)
    U, _ = ps.PsdMatrix(A).compact_factors()
    t = write_matrix(tmp_path / "t.psdm", U)
    code, out, _ = run_cli(capsys, "transport", "--a", a, "--target", t, "--steps", "2")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 3
    for b in blocks:
        M, _ = parse_matrix_text(b)
        assert np.abs(M - A).max() <= 1e-10


def test_transport_endpoints_and_rank(tmp_path, capsys):
    rng = np.random.default_rng(6)
    Q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    qa, extra = Q[:, :2], Q[:, 2:4]
    theta = np.array([0.4, 0.9])
    qb = qa * np.cos(theta) + extra * np.sin(theta)
    A = (qa * [3.0, 1.0]) @ qa.T
    a = write_matrix(tmp_path / "a.psdm", A)
    t = write_matrix(tmp_path / "t.psdm", qb)
    code, out, _ = run_cli(capsys, "transport", "--a", a, "--target", t, "--steps", "1")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    first, _ = parse_matrix_text(blocks[0])
    assert np.abs(first - A).max() <= 1e-10
    last, _ = parse_matrix_text(blocks[1])
    P = ps.PsdMatrix(last)
    assert P.rank == 2
    sys_ = ps.principal_system(ps.range_subspace(P), ps.Subspace(qb))
    assert sys_.theta.max() <= 1e-8


def test_transport_right_angle_needs_flag(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0, 0.0]))
    frame = np.zeros((4, 2))
    frame[2, 0] = 1.0
    frame[3, 1] = 1.0
    t = write_matrix(tmp_path / "t.psdm", frame)
    code, _, _ = run_cli(capsys, "transport", "--a", a, "--target", t)
    assert code == 3
    code, _, _ = run_cli(capsys, "transport", "--a", a, "--target", t,
                         "--steps", "2", "--force-completion")
    assert code == 0


def test_import_and_oracle_leave_scipy_unloaded():
    # the package, the CLI and both sides of the verification oracle run on NumPy alone
    code = ("import sys, numpy as np, psdsim, psdsim.cli\n"
            "C, D = np.diag([1.0, 2.0]), np.diag([1.5, 0.5, 1.0])\n"
            "for side in ('minus', 'plus'):\n"
            "    psdsim.oracle_min_over_omega(psdsim.FiberDivergence.kl(), C, D, side, budget=2)\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(ps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.strip() == "False"


def test_project_lift_complex_requires_flag(tmp_path, capsys):
    c = tmp_path / "c.psdm"
    c.write_text(format_matrix(np.eye(2) + 0j))
    d = write_matrix(tmp_path / "d.psdm", np.eye(3))
    code, out, err = run_cli(capsys, "project-lift", "--c", str(c), "--d", d, "--which", "minus")
    assert code == 2 and out == "" and "complex" in err
    code, _, err = run_cli(capsys, "project-lift", "--c", str(c), "--d", d, "--which", "minus",
                           "--field", "complex")
    assert code == 0, err


def test_project_lift_singular_c_exits_3(tmp_path, capsys):
    c = write_matrix(tmp_path / "c.psdm", np.diag([1.0, 0.0]))
    d = write_matrix(tmp_path / "d.psdm", np.eye(3))
    for which in ("minus", "plus"):
        code, out, err = run_cli(capsys, "project-lift", "--c", c, "--d", d, "--which", which)
        assert code == 3 and out == "" and "C is not positive definite" in err
