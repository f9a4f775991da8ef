"""End-to-end acceptance checks: oracle equivalence, worked values,
structural theorems, and performance budgets. Each check prints one
summary line."""

import math
import time

import numpy as np

import psdsim as ps
from psdsim import FiberDivergence as FD, GrassmannMetric as GM
from helpers import (
    displayed_left_fiber,
    displayed_right_fiber,
    example_pair,
    family_specs,
    rand_frame,
    rand_orthogonal,
    rand_pd,
    rand_psd_rank,
    rotated_containment_pair,
)
from reference import oracle_min_over_omega

GEO_GEO = ps.MetricSpec(GM.GEODESIC, FD.geodesic())


def _random_cd(rng, lo=0.5, hi=2.5):
    r = int(rng.integers(1, 4))
    s = int(rng.integers(r, 5))
    return rand_pd(rng, r, lo, hi), rand_pd(rng, s, lo, hi)


def test_acceptance_1_pointset_matches_oracle():
    # 100 instances x 9 divergence specs: the two closed-form sides agree
    # exactly and match the 32-restart brute-force minimizer within 1e-5
    # relative; under 60 s total
    rng = np.random.default_rng(20260823)
    specs = family_specs()
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        C, D = _random_cd(rng)
        for spec in specs:
            a = ps.pointset_minus(spec, C, D).value
            b = ps.pointset_plus(spec, C, D).value
            assert a == b
            o = oracle_min_over_omega(spec, C, D, side="minus", budget=32, seed=i)
            err = abs(a - o) / (1.0 + abs(o))
            worst = max(worst, err)
            assert err <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS: 100x9 point-set values = oracle "
          f"(worst rel err {worst:.2e}, {elapsed:.1f}s < 60s)")


def test_acceptance_2_two_parameter_ordering():
    # the coupled quadratic program: plus side never exceeds minus side;
    # the sides agree within 1e-8 when beta = 0 or r = s; a seeded
    # r=1, s=2, beta=1 instance exhibits a gap above 1e-3
    rng = np.random.default_rng(2)
    for _ in range(40):
        C, D = _random_cd(rng)
        s = D.shape[0]
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(-0.9 * alpha / s, 2.0))
        mi = ps.alpha_beta_pointset(C, D, alpha, beta, side="minus")
        pl = ps.alpha_beta_pointset(C, D, alpha, beta, side="plus")
        assert pl <= mi + 1e-10
        if beta == 0.0 or C.shape[0] == s:
            assert abs(mi - pl) <= 1e-8
    for _ in range(10):
        C, D = _random_cd(rng)
        mi = ps.alpha_beta_pointset(C, D, 1.3, 0.0, side="minus")
        pl = ps.alpha_beta_pointset(C, D, 1.3, 0.0, side="plus")
        assert abs(mi - pl) <= 1e-8
        r = C.shape[0]
        Ds = rand_pd(rng, r)
        mi = ps.alpha_beta_pointset(C, Ds, 1.0, 0.7, side="minus")
        pl = ps.alpha_beta_pointset(C, Ds, 1.0, 0.7, side="plus")
        assert abs(mi - pl) <= 1e-8
    C = np.eye(1)
    D = np.diag([math.e, 1.0])
    gap = (ps.alpha_beta_pointset(C, D, 1.0, 1.0, side="minus")
           - ps.alpha_beta_pointset(C, D, 1.0, 1.0, side="plus"))
    assert gap > 1e-3
    print(f"ACCEPTANCE 2 PASS: plus <= minus, equality when decoupled, "
          f"seeded gap {gap:.3f} > 1e-3")


def test_acceptance_3_projection_and_lift_witnesses():
    # 100 instances: witnesses satisfy containment/spectrum invariants at
    # 1e-9 and achieve the closed-form values at 1e-10; the corner matrix
    # is copied exactly whenever the pencil spectrum stays above one
    rng = np.random.default_rng(3)
    specs = family_specs()
    for i in range(100):
        C, D = _random_cd(rng)
        r, s = C.shape[0], D.shape[0]
        w = ps.project_minus(C, D)
        assert np.linalg.eigvalsh(w.dminus - D[:r, :r]).min() >= -1e-9
        Cih = ps.psd_power(C, -0.5)
        spec_w = np.sort(np.linalg.eigvalsh(Cih @ w.dminus @ Cih))[::-1]
        assert np.abs(spec_w - w.lam).max() <= 1e-9
        lw = ps.lift_plus(C, D)
        assert np.abs(lw.Z @ D @ lw.Z.T - np.eye(s)).max() <= 1e-9
        assert np.abs(lw.Z @ lw.cplus @ lw.Z.T - np.diag(lw.lam)).max() <= 1e-9
        assert np.linalg.eigvalsh(C - lw.cplus[:r, :r]).min() >= -1e-9
        for spec in specs:
            want = ps.pointset_minus(spec, C, D).value
            assert abs(ps.divergence(spec, C, w.dminus) - want) <= 1e-10 * (1 + abs(want))
            assert abs(ps.divergence(spec, lw.cplus, D) - want) <= 1e-10 * (1 + abs(want))
    # exact copies on spectra bounded away from one
    for _ in range(10):
        r = int(rng.integers(1, 4))
        s = r + int(rng.integers(0, 2))
        C = rand_pd(rng, r)
        Ch = ps.psd_power(C, 0.5)
        corner = Ch @ rand_pd(rng, r, 1.1, 3.0) @ Ch  # pencil >= 1.1
        D = np.zeros((s, s))
        D[:r, :r] = corner
        for j in range(r, s):
            D[j, j] = 1.0
        D = 0.5 * (D + D.T)
        assert np.array_equal(ps.project_minus(C, D).dminus, D[:r, :r])
        Dh = ps.psd_power(D[:r, :r], 0.5)
        Cbig = Dh @ rand_pd(rng, r, 1.1, 3.0) @ Dh  # dominates the corner
        assert np.array_equal(ps.lift_plus(0.5 * (Cbig + Cbig.T), D).cplus, D)
    print("ACCEPTANCE 3 PASS: 100 projection/lift witnesses feasible (1e-9), "
          "optimal (1e-10), exact corner copies when dominated")


def test_acceptance_4_closed_form_vs_sampled_definition():
    # 50 generic pairs: the closed-form fast path agrees with the sampled
    # max-min evaluation (>= 1e4 ambiguity samples) within 1e-4 for all
    # 9 base metrics x 3 fiber choices; under 120 s
    rng = np.random.default_rng(4)
    fibers = [FD.geodesic(), FD.kl(), FD.bhattacharyya()]
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(4, 9))
        r = int(rng.integers(1, min(n, 5)))
        s = int(rng.integers(1, min(m, 5)))
        A = rand_psd_rank(rng, n, r)
        B = rand_psd_rank(rng, m, s)
        for fiber in fibers:
            for metric in GM:
                closed = ps.gd(A, B, ps.MetricSpec(metric, fiber)).total
                sampled = ps.gd(A, B, ps.MetricSpec(metric, fiber, "faithful"),
                                seed=i, samples=10000).total
                diff = abs(closed - sampled)
                worst = max(worst, diff)
                assert diff <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4 PASS: 50 pairs x 27 specs, closed form = sampled "
          f"definition (worst diff {worst:.2e}, {elapsed:.1f}s < 120s)")


def test_acceptance_5_worked_example_regression():
    # pre-validate the target values by a dense grid over the displayed
    # one-parameter fiber families, then check both evaluation modes
    want_min = 2 * math.log(2.0) ** 2
    want_max = 4 * math.log(2.0) ** 2
    psis = np.linspace(0.0, 2 * np.pi, 1201, endpoint=False)
    lefts = np.stack([displayed_left_fiber(p) for p in psis])
    rights = np.stack([displayed_right_fiber(t) for t in psis])
    vals = np.empty((len(psis), len(psis)))
    for i, X in enumerate(lefts):
        w, V = np.linalg.eigh(X)
        Xih = (V / np.sqrt(w)) @ V.T
        W = Xih @ rights @ Xih
        lam = np.linalg.eigvalsh(0.5 * (W + np.swapaxes(W, -1, -2)))
        vals[i] = np.sum(np.log(lam) ** 2, axis=-1)
    brute_min = max(vals.min(axis=1).max(), vals.min(axis=0).max())
    brute_max = vals.max()
    assert abs(brute_min - want_min) <= 1e-4
    assert abs(brute_max - want_max) <= 1e-4

    A, B = example_pair()
    faith = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful"),
                  seed=0, samples=4_000_000)
    assert abs(faith.fiber_term**2 - want_min) <= 1e-4
    want_total = math.sqrt(math.pi**2 / 2 + want_min)
    assert abs(faith.total - want_total) <= 1e-4
    alg = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "algorithm1"),
                seed=0, budget=16)
    assert abs(alg.fiber_term**2 - want_max) <= 1e-4
    print(f"ACCEPTANCE 5 PASS: worked 5x5 pair, sampled fiber^2 = "
          f"{faith.fiber_term**2:.6f} (2 ln^2 2), sup-mode fiber^2 = "
          f"{alg.fiber_term**2:.6f} (4 ln^2 2), grid pre-validated")


def test_acceptance_6_restriction_properties():
    # projector pairs reduce to the base metric and block-diagonal pairs
    # reduce to the extended fiber divergence, both exactly (1e-10)
    rng = np.random.default_rng(6)
    for _ in range(10):
        F = rand_frame(rng, 7, 3)
        G = rand_frame(rng, 7, 3)
        A = ps.PsdMatrix(F @ F.T)
        B = ps.PsdMatrix(G @ G.T)
        theta = ps.principal_system(ps.Subspace(F), ps.Subspace(G)).theta
        for metric in GM:
            res = ps.gd(A, B, ps.MetricSpec(metric, FD.kl()))
            assert abs(res.total - ps.grassmann_distance(metric, theta)) <= 1e-10
    for _ in range(10):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(r, 5))
        X = rand_pd(rng, r)
        Y = rand_pd(rng, s)
        A = ps.embed_pad(ps.PsdMatrix(X), 6)
        B = ps.embed_pad(ps.PsdMatrix(Y), 6)
        for spec in family_specs():
            res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, spec))
            want = ps.pointset_minus(spec, X, Y).value
            assert abs(res.total - want) <= 1e-10 * (1 + abs(want))
        res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic_ab(1.0, 0.25)))
        want = ps.alpha_beta_pointset(X, Y, 1.0, 0.25, side="minus")
        assert abs(res.total - want) <= 1e-10 * (1 + abs(want))
    print("ACCEPTANCE 6 PASS: projector pairs recover all 9 base metrics, "
          "block pairs recover all fiber divergences (1e-10)")


def test_acceptance_7_distance_properties():
    # unequal-rank symmetry, constructive zero characterization, and the
    # documented triangle-inequality failure
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rand_psd_rank(rng, 6, int(rng.integers(1, 3)))
        B = rand_psd_rank(rng, 6, int(rng.integers(3, 5)))
        assert abs(ps.gd(A, B, GEO_GEO).total - ps.gd(B, A, GEO_GEO).total) <= 1e-10
    for _ in range(10):
        F = rand_orthogonal(rng, 6)[:, :4]
        B = ps.PsdMatrix(F @ rand_pd(rng, 4) @ F.T)
        sub = F[:, :2]
        comp = sub.T @ B.entries @ sub
        for scale in (1.0, 1.5):  # domination, not just equality, gives zero
            A = ps.PsdMatrix(scale * sub @ comp @ sub.T)
            assert ps.gd(A, B, GEO_GEO).total <= 1e-7
            # and the witness predicate holds: contained range, dominating fiber
            theta = ps.principal_system(ps.range_subspace(A),
                                        ps.range_subspace(B)).theta[:2]
            assert theta.max() <= 1e-7
            assert np.linalg.eigvalsh(scale * comp - comp).min() >= -1e-9
        # breaking the domination half of the predicate breaks the zero
        assert ps.gd(ps.PsdMatrix(0.5 * sub @ comp @ sub.T), B,
                     GEO_GEO).total > 1e-6
        # breaking the containment half does too
        assert ps.gd(rand_psd_rank(rng, 6, 2), B, GEO_GEO).total > 1e-6
    A = ps.PsdMatrix(np.eye(2))
    B = ps.PsdMatrix(np.eye(1))
    C = ps.PsdMatrix(np.diag([1.0, 4.0, 1.0]))
    dac = ps.gd(A, C, GEO_GEO).total
    assert abs(dac - math.log(4.0)) <= 1e-10
    dab = ps.gd(A, B, GEO_GEO).total
    dbc = ps.gd(B, C, GEO_GEO).total
    assert dac > dab + dbc  # the triangle inequality fails on this triple
    print(f"ACCEPTANCE 7 PASS: rank symmetry (1e-10), zero iff containment, "
          f"triangle failure {dac:.4f} > {dab:.1e} + {dbc:.1e}")


def test_acceptance_8_transport_and_length():
    # 20 transport instances: base projection, horizontality, and frame
    # independence; 20 dominating pairs: distance = quasi-geodesic length
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(5, 8))
        r = int(rng.integers(1, min(4, n // 2 + 1)))
        F = rand_orthogonal(rng, n)
        qa, extra = F[:, :r], F[:, r : 2 * r]
        ang = np.sort(rng.uniform(0.05, 1.2, size=r))
        qb = qa * np.cos(ang) + extra * np.sin(ang)
        U, V = ps.Subspace(qa), ps.Subspace(qb)
        A = ps.PsdMatrix(qa @ rand_pd(rng, r) @ qa.T)
        geo = ps.subspace_geodesic(U, V)
        h = 1e-5
        for t in (0.0, 0.3, 0.7, 1.0):
            P = ps.parallel_transport(A, geo, t)
            base = ps.principal_system(ps.range_subspace(P),
                                       ps.Subspace(geo.evaluator(t)))
            assert base.theta.max() <= 1e-8
        for t in (0.3, 0.7):
            c = geo.evaluator(t)
            dP = (ps.parallel_transport(A, geo, t + h).entries
                  - ps.parallel_transport(A, geo, t - h).entries) / (2 * h)
            vertical = c @ (c.T @ dP @ c) @ c.T
            assert np.abs(vertical).max() <= 1e-5 * max(1.0, np.abs(dP).max())
        geo2 = ps.subspace_geodesic(ps.Subspace(qa @ rand_orthogonal(rng, r)),
                                    ps.Subspace(qb @ rand_orthogonal(rng, r)))
        for t in (0.4, 1.0):
            d = (ps.parallel_transport(A, geo, t).entries
                 - ps.parallel_transport(A, geo2, t).entries)
            assert np.abs(d).max() <= 1e-9
    worst = 0.0
    for _ in range(20):
        A, B = rotated_containment_pair(rng, 6, 2)
        err = abs(ps.gd(A, B, GEO_GEO).total - ps.quasi_geodesic_length(A, B, 1.0))
        worst = max(worst, err)
        assert err <= 1e-8
    print(f"ACCEPTANCE 8 PASS: 20 transport instances (projection 1e-8, "
          f"horizontality 1e-5, frame choice 1e-9); distance = length "
          f"(worst {worst:.1e} <= 1e-8)")


def test_acceptance_9_performance():
    # n = 200, rank-50 inputs: one pair under 1 s, 100x100 pairwise under 60 s
    rng = np.random.default_rng(9)
    mats = [rand_psd_rank(rng, 200, 50) for _ in range(100)]
    t0 = time.perf_counter()
    ps.gd(mats[0], mats[1], GEO_GEO)
    single = time.perf_counter() - t0
    assert single < 1.0
    t0 = time.perf_counter()
    gram = ps.pairwise_gram(mats, GEO_GEO)
    batch = time.perf_counter() - t0
    assert batch < 60.0
    assert gram.shape == (100, 100)
    print(f"ACCEPTANCE 9 PASS: single 200x200 rank-50 pair {single * 1e3:.0f}ms "
          f"< 1s, 100x100 pairwise {batch:.1f}s < 60s")
