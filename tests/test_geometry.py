"""Horizontal lifts, parallel transport, quasi-geodesics."""

import math

import numpy as np
import pytest

import psdsim as ps
from psdsim import FiberDivergence as FD, GrassmannMetric as GM
from helpers import (
    count_calls,
    rand_frame,
    rand_orthogonal,
    rand_pd,
    rand_psd_rank,
    rotated_containment_pair,
)


def make_safe_pair(rng, n, r, max_angle=1.2):
    """Two frames whose principal angles stay below a right angle."""
    F = rand_orthogonal(rng, n)
    qa, extra = F[:, :r], F[:, r : 2 * r]
    theta = np.sort(rng.uniform(0.05, max_angle, size=r))
    qb = qa * np.cos(theta) + extra * np.sin(theta)
    return ps.Subspace(qa), ps.Subspace(qb), theta


def test_constant_geodesic():
    rng = np.random.default_rng(0)
    F = rand_frame(rng, 5, 2)
    geo = ps.subspace_geodesic(ps.Subspace(F), ps.Subspace(F))
    for t in (0.0, 0.4, 1.0):
        assert np.abs(geo.evaluator(t) - geo.evaluator(0.0)).max() <= 1e-12


def test_planar_rotation_line():
    th = 0.9
    U = ps.Subspace(np.array([[1.0], [0.0]]))
    V = ps.Subspace(np.array([[math.cos(th)], [math.sin(th)]]))
    geo = ps.subspace_geodesic(U, V)
    for t in np.linspace(0, 1, 7):
        c = geo.evaluator(t)
        ang = math.atan2(abs(c[1, 0]), abs(c[0, 0]))
        assert abs(ang - th * t) <= 1e-10


def test_geodesic_is_equiangular():
    rng = np.random.default_rng(1)
    U, V, theta = make_safe_pair(rng, 8, 3)
    geo = ps.subspace_geodesic(U, V)
    # endpoint reaches the target subspace
    endsys = ps.principal_system(ps.Subspace(geo.evaluator(1.0)), V)
    assert endsys.theta.max() <= 1e-8
    for t in (0.25, 0.5, 0.75):
        c = geo.evaluator(t)
        assert np.abs(c.T @ c - np.eye(3)).max() <= 1e-9
        sys = ps.principal_system(ps.Subspace(c), U)
        assert np.abs(np.sort(sys.theta) - np.sort(t * theta)).max() <= 1e-6


def test_geodesic_horizontality():
    rng = np.random.default_rng(2)
    U, V, _ = make_safe_pair(rng, 7, 3)
    geo = ps.subspace_geodesic(U, V)
    h = 1e-6
    for t in (0.2, 0.6):
        c = geo.evaluator(t)
        dc = (geo.evaluator(t + h) - geo.evaluator(t - h)) / (2 * h)
        assert np.abs(c.T @ dc).max() <= 1e-6


def test_right_angle_rejected_unless_forced():
    E = np.eye(4)
    U = ps.Subspace(E[:, :2])
    V = ps.Subspace(E[:, 2:])
    with pytest.raises(ps.DomainError):
        ps.subspace_geodesic(U, V)
    geo = ps.subspace_geodesic(U, V, allow_completion=True)
    sys = ps.principal_system(ps.Subspace(geo.evaluator(1.0)), V)
    assert sys.theta.max() <= 1e-8


def test_transport_constant_curve():
    rng = np.random.default_rng(3)
    A = rand_psd_rank(rng, 5, 2)
    F, _ = A.compact_factors()
    geo = ps.subspace_geodesic(ps.Subspace(F), ps.Subspace(F))
    for t in (0.0, 0.5, 1.0):
        assert np.abs(ps.parallel_transport(A, geo, t).entries - A.entries).max() <= 1e-10


def test_transport_starts_at_the_input():
    rng = np.random.default_rng(4)
    U, V, _ = make_safe_pair(rng, 6, 2)
    w = rng.uniform(0.5, 2.0, size=2)
    A = ps.PsdMatrix((U.frame * w) @ U.frame.T)
    geo = ps.subspace_geodesic(U, V)
    assert np.abs(ps.parallel_transport(A, geo, 0.0).entries - A.entries).max() <= 1e-10


def test_transport_projects_to_base_curve():
    rng = np.random.default_rng(5)
    U, V, _ = make_safe_pair(rng, 7, 3)
    A = ps.PsdMatrix((U.frame * [2.0, 1.0, 0.5]) @ U.frame.T)
    geo = ps.subspace_geodesic(U, V)
    for t in np.linspace(0, 1, 11):
        P = ps.parallel_transport(A, geo, t)
        assert P.rank == 3
        sys = ps.principal_system(ps.range_subspace(P), ps.Subspace(geo.evaluator(t)))
        assert sys.theta.max() <= 1e-8


def test_transport_preserves_fiber_spectrum():
    rng = np.random.default_rng(6)
    U, V, _ = make_safe_pair(rng, 6, 2)
    M = rand_pd(rng, 2)
    A = ps.PsdMatrix(U.frame @ M @ U.frame.T)
    geo = ps.subspace_geodesic(U, V)
    w0 = np.sort(np.linalg.eigvalsh(M))
    for t in (0.3, 0.8, 1.0):
        P = ps.parallel_transport(A, geo, t)
        w, _ = P.eigensystem()
        assert np.abs(np.sort(w[:2]) - w0).max() <= 1e-10


def test_transport_velocity_has_no_vertical_part():
    rng = np.random.default_rng(7)
    U, V, _ = make_safe_pair(rng, 6, 2)
    A = ps.PsdMatrix((U.frame * [2.0, 1.0]) @ U.frame.T)
    geo = ps.subspace_geodesic(U, V)
    h = 1e-5
    for t in (0.3, 0.7):
        c = geo.evaluator(t)
        dP = (ps.parallel_transport(A, geo, t + h).entries
              - ps.parallel_transport(A, geo, t - h).entries) / (2 * h)
        vertical = c @ (c.T @ dP @ c) @ c.T
        assert np.abs(vertical).max() <= 1e-5 * max(1.0, np.abs(dP).max())


def test_transport_independent_of_frame_choice():
    rng = np.random.default_rng(8)
    U, V, _ = make_safe_pair(rng, 6, 2)
    A = ps.PsdMatrix(U.frame @ rand_pd(rng, 2) @ U.frame.T)
    geo1 = ps.subspace_geodesic(U, V)
    # same subspaces presented by rotated frames
    U2 = ps.Subspace(U.frame @ rand_orthogonal(rng, 2))
    V2 = ps.Subspace(V.frame @ rand_orthogonal(rng, 2))
    geo2 = ps.subspace_geodesic(U2, V2)
    for t in (0.25, 0.9):
        P1 = ps.parallel_transport(A, geo1, t).entries
        P2 = ps.parallel_transport(A, geo2, t).entries
        assert np.abs(P1 - P2).max() <= 1e-9


def test_quasi_geodesic_endpoints():
    rng = np.random.default_rng(9)
    for _ in range(5):
        A, B = rotated_containment_pair(rng, 6, 2, pencil_lo=0.5, pencil_hi=3.0)
        assert np.abs(ps.quasi_geodesic(A, B, 0.0).entries - A.entries).max() <= 1e-9
        assert np.abs(ps.quasi_geodesic(A, B, 1.0).entries - B.entries).max() <= 1e-9


def test_quasi_geodesic_fixed_range_is_matrix_geodesic():
    rng = np.random.default_rng(10)
    F = rand_frame(rng, 5, 2)
    C = rand_pd(rng, 2)
    D = rand_pd(rng, 2)
    A = ps.PsdMatrix(F @ C @ F.T)
    B = ps.PsdMatrix(F @ D @ F.T)
    t = 0.37
    mid = ps.quasi_geodesic(A, B, t)
    M = ps.fiber_representation(mid, F)
    Ch = ps.psd_power(C, 0.5)
    Cih = ps.psd_power(C, -0.5)
    want = Ch @ ps.psd_power(Cih @ D @ Cih, t) @ Ch
    assert np.abs(M - want).max() <= 1e-9


def test_quasi_geodesic_curve_constant_rank():
    rng = np.random.default_rng(11)
    A, B = rotated_containment_pair(rng, 6, 2)
    curve = ps.quasi_geodesic_curve(A, B)
    assert curve.kind == "quasiGeodesic"
    for P in curve.sample(7):
        assert P.rank == 2


def test_length_zero_and_scaling():
    rng = np.random.default_rng(12)
    A, B = rotated_containment_pair(rng, 6, 2)
    assert ps.quasi_geodesic_length(A, A, 1.0) <= 1e-7
    L1 = ps.quasi_geodesic_length(A, B, 1.0)
    L2 = ps.quasi_geodesic_length(A, B, 2.0)
    d2 = float(np.sum(ps.principal_system(ps.range_subspace(A),
                                          ps.range_subspace(B)).theta ** 2))
    f2 = L1**2 - d2
    assert abs(L2**2 - (d2 + 2 * f2)) <= 1e-8
    with pytest.raises(ps.DomainError):
        ps.quasi_geodesic_length(A, B, 0.0)


def test_length_one_equals_distance_on_dominating_pairs():
    rng = np.random.default_rng(13)
    spec = ps.MetricSpec(GM.GEODESIC, FD.geodesic())
    for _ in range(5):
        A, B = rotated_containment_pair(rng, 6, 2)
        L = ps.quasi_geodesic_length(A, B, 1.0)
        assert abs(ps.gd(A, B, spec).total - L) <= 1e-8


def test_transport_then_compare_matches_distance():
    rng = np.random.default_rng(14)
    spec = ps.MetricSpec(GM.GEODESIC, FD.geodesic())
    for _ in range(5):
        A, B = rotated_containment_pair(rng, 6, 2)
        geo = ps.subspace_geodesic(ps.range_subspace(A), ps.range_subspace(B))
        P1 = ps.parallel_transport(A, geo, 1.0)
        u1 = geo.evaluator(1.0)
        M1 = ps.fiber_representation(P1, u1)
        N1 = ps.fiber_representation(B, u1)
        d2 = float(np.sum(geo.principal.theta**2))
        delta2 = float(np.sum(np.log(ps.pencil_eigenvalues(M1, N1)) ** 2))
        assert abs(ps.gd(A, B, spec).total**2 - (d2 + delta2)) <= 1e-8


def test_curves_factor_their_fixed_matrices_once(monkeypatch):
    # a quasi-geodesic decomposes C and C^-1/2 D' C^-1/2 once per curve and
    # each point's PsdMatrix once; a transport curve represents A once
    rng = np.random.default_rng(15)
    A, B = rand_psd_rank(rng, 6, 3), rand_psd_rank(rng, 6, 3)
    geo = ps.subspace_geodesic(ps.range_subspace(A), ps.range_subspace(B))
    eig = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
    ps.quasi_geodesic(A, B, 0.4)
    assert eig["n"] == 3
    eig["n"] = 0
    assert len(ps.quasi_geodesic_curve(A, B).sample(11)) == 11
    assert eig["n"] == 13
    fibers = count_calls(monkeypatch, ps.geometry, "fiber_representation")
    ps.transport_curve(A, geo).sample(11)
    assert fibers["n"] == 1
