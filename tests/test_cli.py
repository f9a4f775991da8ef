"""Command-line surface: file format, commands, exit codes."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import psdsim as ps
import psdsim.cli
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


@pytest.mark.parametrize("call, message", [
    (lambda: format_matrix(np.ones(3)), "can only serialize 2-d arrays"),
    (lambda: parse_matrix_text("psdm real 0\n"), "matrix dimensions must be positive"),
])
def test_matrixio_typed_errors(call, message):
    with pytest.raises(ps.ParseError) as e:
        call()
    assert str(e.value) == message


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


def test_dist_outside_the_divergence_domain_exits_3(tmp_path, capsys):
    # an l = 2 pair whose every fiber pencil has eigenvalues 9 and 18 > e
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 1.0, 0.5, 0.0, 0.0]))
    b = write_matrix(tmp_path / "b.psdm", np.diag([1.0, 0.0, 0.0, 9.0, 18.0]))
    for mode in ("algorithm1", "faithful"):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, "--fiber", "is:1",
                                 "--hausdorff", mode, "--budget", "2", "--samples", "64")
        assert code == 3 and out == "" and "itakurasaito divergence is undefined" in err, mode


def test_non_finite_clamp_threshold_exits_2(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0]))
    b = write_matrix(tmp_path / "b.psdm", np.diag([3.0, 1.0, 0.0]))
    for fiber in ("kl+clamp=nan", "kl+clamp=-1"):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, "--fiber", fiber)
        assert code == 2 and out == "" and "bad clamp threshold" in err, fiber


def test_two_parameter_fiber_outside_its_region_exits_3(tmp_path, capsys):
    # the r = 2 pencil needs beta > -alpha/2
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0]))
    b = write_matrix(tmp_path / "b.psdm", np.diag([3.0, 1.0, 0.0]))
    code, out, _ = run_cli(capsys, "dist", "--a", a, "--b", b, "--fiber", "geoab:1,-0.3")
    assert code == 0 and json.loads(out)["total"] == 0.83047282945580592
    for fiber in ("geoab:1,-0.5", "geoab:1,-0.9"):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, "--fiber", fiber)
        assert code == 3 and out == "" and "outside the region beta > -alpha/m" in err, fiber


def test_non_finite_divergence_parameter_exits_2(tmp_path, capsys):
    # r = 2 < s = 4, so an accepted parameter would reach the closed form's
    # quadratic program; it must be refused while parsing instead
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0, 0.0]))
    b = write_matrix(tmp_path / "b.psdm", np.diag([3.0, 0.5, 1.0, 2.0]))
    for fiber in ("geoab:1,inf", "geoab:inf,1"):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, "--fiber", fiber)
        assert code == 2 and out == "" and "must be finite" in err, fiber


def test_finite_large_beta_is_evaluated(tmp_path, capsys):
    # beta = 1e308 overflowed alpha + r*beta inside the quadratic program
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0, 0.0]))
    b = write_matrix(tmp_path / "b.psdm", np.diag([3.0, 0.5, 1.0, 2.0]))
    totals = []
    for fiber in ("geoab:1,1e12", "geoab:1,1e308"):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, "--fiber", fiber)
        assert code == 0, err
        totals.append(json.loads(out)["total"])
    assert abs(totals[1] - totals[0]) <= 1e-9 * totals[0]


def test_degenerate_ascent_at_huge_beta_exits_0(tmp_path, capsys):
    # l = 1: the ascent works at parameters of size at most 1 at any beta
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0, 0.0, 0.0]))
    b = write_matrix(tmp_path / "b.psdm", np.diag([3.0, 0.0, 1.0, 2.0, 0.5]))
    for beta, root in (("1e30", 1e15), ("1e308", 1e154)):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, "--fiber", f"geoab:1,{beta}")
        assert code == 0, err
        res = json.loads(out)
        assert res["stratum_index"] == 1
        assert abs(res["fiber_term"] / root - 1.098612288668) <= 1e-9


def test_budget_and_samples_below_one_exit_3(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", EXAMPLE_A)
    b = write_matrix(tmp_path / "b.psdm", EXAMPLE_B)
    for flags in (["--hausdorff", "faithful", "--samples", "0"], ["--samples", "-5"],
                  ["--budget", "0"]):
        code, out, err = run_cli(capsys, "dist", "--a", a, "--b", b, *flags)
        assert code == 3 and out == "" and ">= 1" in err, flags
    code, out, err = run_cli(capsys, "pairwise", "--inputs", f"{a},{b}", "--samples", "0")
    assert code == 3 and out == "" and ">= 1" in err


def test_negative_seed_exits_3(tmp_path, capsys):
    # on the worked (degenerate) pair and on a generic one, in both modes
    a = write_matrix(tmp_path / "a.psdm", EXAMPLE_A)
    b = write_matrix(tmp_path / "b.psdm", EXAMPLE_B)
    g = write_matrix(tmp_path / "g.psdm", np.diag([2.0, 1.0, 0.5, 0.0, 0.0]))
    for other in (b, g):
        for mode in ("algorithm1", "faithful"):
            code, out, err = run_cli(capsys, "dist", "--a", a, "--b", other, "--seed", "-1",
                                     "--hausdorff", mode)
            assert code == 3 and out == "" and "seed must be an integer >= 0, got -1" in err
    code, out, err = run_cli(capsys, "pairwise", "--inputs", f"{a},{b}", "--seed", "-1")
    assert code == 3 and out == "" and "seed" in err


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


def test_pairwise_unwritable_out_exits_2(tmp_path, capsys):
    # like an unreadable input: a one-line error, no traceback, nothing on stdout
    a = write_matrix(tmp_path / "a.psdm", np.eye(2))
    target = tmp_path / "missing" / "gram.csv"
    code, out, err = run_cli(capsys, "pairwise", "--inputs", a, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_martin_infinity_in_json_and_csv(tmp_path, capsys):
    # a right principal angle: dist writes bare Infinity, pairwise writes inf
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 1.0, 0.0]))
    b = write_matrix(tmp_path / "b.psdm", np.diag([1.0, 0.0, 1.0]))
    code, out, _ = run_cli(capsys, "dist", "--a", a, "--b", b, "--grassmann", "martin")
    assert code == 0 and '"total": Infinity' in out
    assert json.loads(out)["total"] == math.inf
    out_path = tmp_path / "gram.csv"
    code, _, _ = run_cli(capsys, "pairwise", "--inputs", f"{a},{b}", "--grassmann", "martin",
                         "--out", str(out_path))
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b"]
    gram = [[float(v) for v in row] for row in rows[1:]]
    assert gram == [[0.0, math.inf], [math.inf, 0.0]]


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


def test_project_lift_prints_the_public_representative_and_value(tmp_path, capsys):
    # a non-diagonal pair, where neither side's representative is a copy of its input
    C = np.array([[1.0, 0.3], [0.3, 2.0]])
    D = np.array([[4.0, 0.5, 0.0], [0.5, 2.0, 0.1], [0.0, 0.1, 1.0]])
    c, d = write_matrix(tmp_path / "c.psdm", C), write_matrix(tmp_path / "d.psdm", D)
    value = ps.pointset_minus(ps.FiberDivergence.kl(), C, D).value
    for which, W in (("minus", ps.project_minus(C, D).dminus),
                     ("plus", ps.lift_plus(C, D).cplus)):
        code, out, _ = run_cli(capsys, "project-lift", "--c", c, "--d", d,
                               "--which", which, "--fiber", "kl")
        assert code == 0
        assert out == format_matrix(W) + '{"side": "%s", "value": %.17g}\n' % (which, value)


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


def test_transport_right_angle_exits_3(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0, 0.0]))
    frame = np.zeros((4, 2))
    frame[2, 0] = 1.0
    frame[3, 1] = 1.0
    t = write_matrix(tmp_path / "t.psdm", frame)
    code, out, err = run_cli(capsys, "transport", "--a", a, "--target", t)
    assert code == 3 and out == "" and "right principal angle (l = 2)" in err


def test_transport_right_angles_follow_tol(tmp_path, capsys):
    # principal cosines (1, 1e-9): gd's l is 0 at the default --tol and 1 at
    # --tol 1e-6, and transport accepts and rejects the range pair alike
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0]))
    t = write_matrix(tmp_path / "t.psdm", [[1.0, 0.0], [0.0, 1e-9], [0.0, 1.0]])
    b = write_matrix(tmp_path / "b.psdm", np.diag([3.0, 0.0, 0.0]) + 2.0 * np.outer(
        [0.0, 1e-9, 1.0], [0.0, 1e-9, 1.0]))
    for flags, code_want, l in (([], 0, 0), (["--tol", "1e-6"], 3, 1)):
        code, out, _ = run_cli(capsys, "dist", "--a", a, "--b", b, *flags)
        assert code == 0 and json.loads(out)["stratum_index"] == l
        code, out, err = run_cli(capsys, "transport", "--a", a, "--target", t, "--steps", "1",
                                 *flags)
        assert code == code_want, err
    assert out == "" and "right principal angle (l = 1)" in err


def test_transport_target_dimension_must_match_rank(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0]))
    t = write_matrix(tmp_path / "t.psdm", np.eye(3)[:, :1])
    code, out, err = run_cli(capsys, "transport", "--a", a, "--target", t)
    assert code == 3 and out == "" and "dimensions differ: 2 vs 1" in err


@pytest.mark.parametrize("command, code, message", [
    (["transport", "--a", "{a}", "--target", "{t}", "--steps", "0"], 3, "--steps must be >= 1"),
    (["pairwise", "--inputs", "{empty}"], 2, "no input files found in '{empty}'"),
    (["pairwise", "--inputs", " , ,"], 2, "no input files found in ' , ,'"),
])
def test_cli_typed_errors(tmp_path, capsys, command, code, message):
    paths = {"a": write_matrix(tmp_path / "a.psdm", np.diag([1.0, 2.0, 0.0])),
             "t": write_matrix(tmp_path / "t.psdm", np.eye(3)[:, :2]),
             "empty": str(tmp_path / "empty")}
    os.mkdir(paths["empty"])
    got, out, err = run_cli(capsys, *(arg.format(**paths) for arg in command))
    assert (got, out, err) == (code, "", f"error: {message.format(**paths)}\n")


def test_import_and_gd_leave_scipy_unloaded():
    # the package, the CLI and a gd call on a degenerate stratum run on NumPy alone
    code = ("import sys, numpy as np, psdsim as ps, psdsim.cli\n"
            "A, B = (ps.PsdMatrix(np.diag(d)) for d in ([1, 2, 0, 0], [3, 0, 1, 2]))\n"
            "spec = ps.MetricSpec(ps.GrassmannMetric.GEODESIC, ps.FiberDivergence.kl())\n"
            "assert ps.gd(A, B, spec, budget=2).mode == 'optimizedDegenerate'\n"
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


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            self.__dict__.setdefault("_read", set()).add(name)
        return super().__getattribute__(name)


def test_every_parsed_option_is_read(tmp_path, capsys, monkeypatch):
    # complex inputs, so that each command also reads --field
    build, parsed = psdsim.cli.build_parser, []

    def recording_parser():
        ap = build()
        parse = ap.parse_args

        def parse_args(argv):
            ns = parse(argv, namespace=_ReadRecorder())
            ns.__dict__["_read"] = set()  # forget the reads of the parser itself
            parsed.append(ns)
            return ns

        ap.parse_args = parse_args
        return ap

    monkeypatch.setattr(psdsim.cli, "build_parser", recording_parser)

    def cfile(name, M):
        path = tmp_path / name
        path.write_text(format_matrix(np.asarray(M, dtype=complex)))
        return str(path)

    a = cfile("a.psdm", np.diag([2.0, 1.0, 0.0]))
    b = cfile("b.psdm", np.diag([1.0, 3.0, 0.5]))
    frame = cfile("t.psdm", np.eye(3)[:, :2] * 1j)
    commands = (
        ["dist", "--a", a, "--b", b],
        ["pairwise", "--inputs", f"{a},{b}", "--out", str(tmp_path / "g.csv")],
        ["project-lift", "--c", cfile("c.psdm", np.eye(2)), "--d", b, "--which", "minus"],
        ["transport", "--a", a, "--target", frame, "--steps", "1"],
    )
    for argv in commands:
        code, _, err = run_cli(capsys, *argv, "--field", "complex")
        assert code == 0, (argv[0], err)
        ns = parsed[-1]
        unread = set(vars(ns)) - ns.__dict__["_read"] - {"_read", "command", "func"}
        assert not unread, (argv[0], sorted(unread))
