"""The headline distance: Hausdorff functional, ambiguity sampling, gd."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest

import psdsim as ps
from psdsim import FiberDivergence as FD, GrassmannMetric as GM
from helpers import (
    EXAMPLE_A,
    EXAMPLE_B,
    count_calls,
    degenerate_pair,
    example_pair,
    family_specs,
    rand_frame,
    rand_orthogonal,
    rand_pd,
    rand_psd_rank,
    saturated_clamp_pair,
)
from reference import faithful_fiber, generalized_hausdorff, representation_set

GEO_GEO = ps.MetricSpec(GM.GEODESIC, FD.geodesic())


# --- generalized Hausdorff functional ---------------------------------


def test_hausdorff_singleton():
    assert generalized_hausdorff(lambda x, y: abs(x - y), [(1.0, 4.0)]) == 3.0


def test_hausdorff_full_product_matches_classic():
    rng = np.random.default_rng(0)
    xs = [float(v) for v in rng.uniform(0, 10, size=5)]
    ys = [float(v) for v in rng.uniform(0, 10, size=4)]
    f = lambda x, y: abs(x - y)
    got = generalized_hausdorff(f, [(x, y) for x in xs for y in ys])
    d1 = max(min(f(x, y) for y in ys) for x in xs)
    d2 = max(min(f(x, y) for x in xs) for y in ys)
    assert got == max(d1, d2)


def test_hausdorff_asymmetric_bruteforce():
    rng = np.random.default_rng(1)
    xs, ys = list(range(3)), list(range(3))
    table = rng.uniform(0, 1, size=(3, 3))
    f = lambda x, y: table[x, y]
    got = generalized_hausdorff(f, [(x, y) for x in xs for y in ys])
    want = max(
        max(min(table[x, y] for y in ys) for x in xs),
        max(min(table[x, y] for x in xs) for y in ys),
    )
    assert got == want


def test_hausdorff_rejects_empty():
    with pytest.raises(ps.DomainError):
        generalized_hausdorff(lambda x, y: 0.0, [])


@pytest.mark.parametrize("call, message", [
    (lambda: ps.MetricSpec(GM.GEODESIC, FD.kl(), "exact"), "unknown hausdorff mode 'exact'"),
    (lambda: ps.pairwise_gram([], GEO_GEO), "empty input list"),
])
def test_typed_errors(call, message):
    with pytest.raises(ps.DomainError) as e:
        call()
    assert str(e.value) == message


# --- representation-set sampling --------------------------------------


def test_representation_set_generic_stratum_is_invariant():
    rng = np.random.default_rng(2)
    A = rand_psd_rank(rng, 6, 2)
    B = rand_psd_rank(rng, 6, 3)
    pairs = representation_set(A, B, grid=50, seed=0)
    vals = [
        ps.pointset.pointset_value_from_spectrum(
            FD.kl(), ps.pencil_eigenvalues(X, Y[:2, :2])
        ).value
        for X, Y in pairs
    ]
    assert max(vals) - min(vals) <= 1e-9


def test_representation_set_matches_displayed_family():
    A, B = example_pair()
    pairs = representation_set(A, B, grid=40, seed=1)
    for X, Y in pairs:
        # left representative: unit direction plus a 2x2 rotation of diag(1, 1/2)
        assert abs(X[0, 0] - 1.0) <= 1e-9
        assert np.abs(X[0, 1:]).max() <= 1e-9
        wx = np.sort(np.linalg.eigvalsh(X))
        assert np.abs(wx - [0.5, 1.0, 1.0]).max() <= 1e-9
        assert abs(Y[0, 0] - 1.0) <= 1e-9
        assert np.abs(Y[0, 1:]).max() <= 1e-9
        wy = np.sort(np.linalg.eigvalsh(Y))
        assert np.abs(wy - [1.0, 1.0, 2.0]).max() <= 1e-9


def test_representation_set_full_rank_collapses():
    rng = np.random.default_rng(3)
    A = ps.PsdMatrix(rand_pd(rng, 3))
    B = ps.PsdMatrix(rand_pd(rng, 3))
    pairs = representation_set(A, B, grid=20, seed=2)
    base = ps.pencil_eigenvalues(pairs[0][0], pairs[0][1])
    for X, Y in pairs:
        assert np.abs(ps.pencil_eigenvalues(X, Y) - base).max() <= 1e-9


def test_representation_set_grid_below_one_raises_domain_error():
    A, B = example_pair()
    for grid in (0, -5, 2.5, True):
        with pytest.raises(ps.DomainError, match=">= 1"):
            representation_set(A, B, grid=grid)


# --- the distance ------------------------------------------------------


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(4)
    A = rand_psd_rank(rng, 5, 3)
    for mode in ("algorithm1", "faithful"):
        res = ps.gd(A, A, ps.MetricSpec(GM.CHORDAL, FD.kl(), mode))
        assert res.total <= 1e-7
        assert res.stratum_index == 0


def test_projector_pair_recovers_base_distance():
    rng = np.random.default_rng(5)
    F = rand_frame(rng, 7, 3)
    G = rand_frame(rng, 7, 3)
    A = ps.PsdMatrix(F @ F.T)
    B = ps.PsdMatrix(G @ G.T)
    theta = ps.principal_system(ps.Subspace(F), ps.Subspace(G)).theta
    for metric in GM:
        res = ps.gd(A, B, ps.MetricSpec(metric, FD.geodesic()))
        assert abs(res.fiber_term) <= 1e-10
        assert abs(res.total - ps.grassmann_distance(metric, theta)) <= 1e-10


def test_padded_block_pair_recovers_fiber_distance():
    rng = np.random.default_rng(6)
    X = rand_pd(rng, 2)
    Y = rand_pd(rng, 3)
    A = ps.embed_pad(ps.PsdMatrix(X), 5)
    B = ps.embed_pad(ps.PsdMatrix(Y), 5)
    for spec in family_specs():
        res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, spec))
        assert abs(res.grassmann_term) <= 1e-10
        want = ps.pointset_minus(spec, X, Y).value
        assert abs(res.total - want) <= 1e-10 * (1 + abs(want))


def test_worked_example_both_modes():
    A, B = example_pair()
    res1 = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "algorithm1"), budget=8)
    assert res1.stratum_index == 2
    assert np.allclose(res1.angles, [0.0, np.pi / 2, np.pi / 2])
    assert abs(res1.fiber_term**2 - 4 * math.log(2) ** 2) <= 1e-9
    res2 = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful"),
                 seed=0, samples=400000)
    assert abs(res2.fiber_term**2 - 2 * math.log(2) ** 2) <= 1e-3
    assert abs(res2.total - math.sqrt(np.pi**2 / 2 + 2 * math.log(2) ** 2)) <= 1e-3


def test_rank_deficient_overlap_closed_form():
    # identity on a plane against a diagonal extension: clamped log spectrum
    A = ps.PsdMatrix(np.eye(2))
    B = ps.PsdMatrix(np.diag([1.0, 4.0, 1.0]))
    res = ps.gd(A, B, GEO_GEO)
    assert abs(res.total - math.log(4.0)) <= 1e-10
    assert res.stratum_index == 0


def test_triangle_inequality_failure_triple():
    A = ps.PsdMatrix(np.eye(2))
    B = ps.PsdMatrix(np.eye(1))
    C = ps.PsdMatrix(np.diag([1.0, 4.0, 1.0]))
    dab = ps.gd(A, B, GEO_GEO).total
    dbc = ps.gd(B, C, GEO_GEO).total
    dac = ps.gd(A, C, GEO_GEO).total
    assert dab <= 1e-10 and dbc <= 1e-10
    assert dac > dab + dbc + 1.0  # log 4 > 0


def test_decomposition_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rand_psd_rank(rng, 6, int(rng.integers(1, 4)))
        B = rand_psd_rank(rng, 6, int(rng.integers(1, 4)))
        res = ps.gd(A, B, ps.MetricSpec(GM.PROCRUSTES, FD.kl()))
        assert abs(res.total**2 - res.grassmann_term**2 - res.fiber_term**2) <= 1e-10


def test_unitary_invariance():
    rng = np.random.default_rng(8)
    A = rand_psd_rank(rng, 5, 2)
    B = rand_psd_rank(rng, 5, 3)
    Q = rand_orthogonal(rng, 5)
    a = ps.gd(A, B, GEO_GEO).total
    b = ps.gd(ps.PsdMatrix(Q @ A.entries @ Q.T), ps.PsdMatrix(Q @ B.entries @ Q.T),
              GEO_GEO).total
    assert abs(a - b) <= 1e-9


def test_padding_invariance():
    rng = np.random.default_rng(9)
    A = rand_psd_rank(rng, 5, 2)
    B = rand_psd_rank(rng, 4, 3)
    a = ps.gd(A, B, GEO_GEO).total
    b = ps.gd(ps.embed_pad(A, 8), ps.embed_pad(B, 8), GEO_GEO).total
    assert abs(a - b) <= 1e-10


def test_zero_characterization_both_directions():
    rng = np.random.default_rng(10)
    # forward: compression of the larger matrix onto a sub-range gives zero
    F = rand_orthogonal(rng, 5)[:, :3]
    D = rand_pd(rng, 3)
    B = ps.PsdMatrix(F @ D @ F.T)
    sub = F[:, :2]
    A = ps.PsdMatrix(sub @ (sub.T @ B.entries @ sub) @ sub.T)
    assert ps.gd(A, B, GEO_GEO).total <= 1e-7
    # converse: zero forces range containment with matching compression
    A2 = rand_psd_rank(rng, 5, 2)
    B2 = rand_psd_rank(rng, 5, 3)
    assert ps.gd(A2, B2, GEO_GEO).total > 1e-3
    # growing A keeps it dominating the compression, so the zero survives;
    # shrinking it below the compression breaks it
    assert ps.gd(ps.PsdMatrix(A.entries * 1.5), B, GEO_GEO).total <= 1e-7
    res = ps.gd(ps.PsdMatrix(A.entries * 0.5), B, GEO_GEO)
    assert abs(res.total - math.sqrt(2.0) * math.log(2.0)) <= 1e-9  # both pencil roots are 2


def test_unequal_rank_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rand_psd_rank(rng, 6, 2)
        B = rand_psd_rank(rng, 6, 4)
        assert ps.gd(A, B, GEO_GEO).total == ps.gd(B, A, GEO_GEO).total


def test_coupled_two_parameter_fiber_uses_one_sided_program():
    rng = np.random.default_rng(12)
    A = rand_psd_rank(rng, 6, 2)
    B = rand_psd_rank(rng, 6, 3)
    spec = ps.MetricSpec(GM.GEODESIC, FD.geodesic_ab(1.0, 0.5))
    res = ps.gd(A, B, spec)
    assert res.total >= res.grassmann_term - 1e-12
    assert abs(res.total**2 - res.grassmann_term**2 - res.fiber_term**2) <= 1e-10


def test_two_parameter_fiber_outside_its_region_raises():
    # on the r = 2 pencil the family is defined only for beta > -alpha/2;
    # below it the quadratic program is not convex
    A, B = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0])), ps.PsdMatrix(np.diag([3.0, 1.0, 0.0]))

    def spec(beta, mode="algorithm1"):
        return ps.MetricSpec(GM.GEODESIC, FD.geodesic_ab(1.0, beta), mode)

    assert ps.gd(A, B, spec(-0.3)).to_json().startswith('{"total": 0.83047282945580592,')
    for beta in (-0.5, -0.9):
        region = rf"geoab:1,{beta:g} is outside the region beta > -alpha/m"
        for X, Y in ((A, B), (B, A)):
            with pytest.raises(ps.DomainError, match=region):
                ps.gd(X, Y, spec(beta))
        with pytest.raises(ps.DomainError, match=r"pair \(0, 1\): " + region):
            ps.pairwise_gram([A, B], spec(beta))
    # the worked pair (r = 3, l = 2) on both degenerate paths
    C, D = example_pair()
    for mode in ("algorithm1", "faithful"):
        with pytest.raises(ps.DomainError, match="outside the region"):
            ps.gd(C, D, spec(-0.5, mode), budget=2, samples=64)


def _record_ascent(monkeypatch):
    """Record, while gd runs, whether any np.linalg.solve raises and the
    largest |T* T - I| over every tail T the degenerate ascent evaluates."""
    seen = {"raised": False, "off_unitary": 0.0}
    solve, state = np.linalg.solve, ps.geodist._ascent_state

    def solve_recorded(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            seen["raised"] = True
            raise

    def state_recorded(spec, C_invhalf, D, l, Ts):
        gram = np.swapaxes(Ts.conj(), -1, -2) @ Ts
        seen["off_unitary"] = max(seen["off_unitary"], float(np.abs(gram - np.eye(Ts.shape[-1])).max()))
        return state(spec, C_invhalf, D, l, Ts)

    monkeypatch.setattr(np.linalg, "solve", solve_recorded)
    monkeypatch.setattr(ps.geodist, "_ascent_state", state_recorded)
    return seen


def test_degenerate_ascent_trial_points_stay_unitary(monkeypatch):
    # l = 1 with a real 3-dimensional tail. Under burg:8 on B scaled by 1e4
    # the unbounded first directions of the ascent are about 1e18 long; the
    # descent's step bound keeps every Cayley solve well posed, and every
    # trial point a unitary T
    seen = _record_ascent(monkeypatch)
    A = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0, 0.0, 0.0]))
    B = np.diag([3.0, 0.0, 1.0, 2.0, 0.5])
    res = ps.gd(A, ps.PsdMatrix(1e4 * B), ps.MetricSpec(GM.GEODESIC, FD.burg(8.0)))
    assert res.stratum_index == 1 and res.mode == "optimizedDegenerate"
    assert abs(res.fiber_term - 1.0253125e34) <= 1e-12 * 1.0253125e34
    assert not seen["raised"] and seen["off_unitary"] <= 1e-8, seen
    # geoab's objective is formed at parameters of size at most 1, and
    # fiber / sqrt(beta) stays where beta = 1e12 puts it, up to 1e308
    for seed in (0, 1):
        values = []
        for beta in (1e12, 1e20, 1e30, 1e100, 1e200, 1e300, 1e308):
            res = ps.gd(A, ps.PsdMatrix(B), ps.MetricSpec(GM.GEODESIC, FD.geodesic_ab(1.0, beta)),
                        seed=seed)
            assert res.stratum_index == 1 and res.mode == "optimizedDegenerate"
            values.append(res.fiber_term / math.sqrt(beta))
        assert all(abs(v - values[0]) <= 1e-9 * values[0] for v in values), (seed, values)
    assert not seen["raised"] and seen["off_unitary"] <= 1e-8, seen


@pytest.mark.parametrize("fiber, scale", [("burg:8", 1e2), ("burg:4", 1e4)])
def test_ill_scaled_burg_ascent_converges_below_the_spectral_bound(fiber, scale, monkeypatch):
    # unbounded trial steps of norm up to 1e18 left every start stalled on
    # these pairs, and gd raised OptimizerError at budget 16 and at budget 64
    seen = _record_ascent(monkeypatch)
    A = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0, 0.0, 0.0]))
    B = ps.PsdMatrix(scale * np.diag([0.0, 1.0, 2.0, 0.5, 3.0]))
    spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber))
    wA, wB = A.compact_factors()[1], B.compact_factors()[1]
    bound = float(ps.pointset._spectrum_values(spec.fiber, wB[:2] / wA[::-1]))
    value = ps.gd(A, B, spec).fiber_term
    assert ps.gd(A, B, spec).stratum_index == 1
    assert value <= bound * (1.0 + 1e-12), (value, bound)
    assert abs(value - ps.gd(A, B, spec, budget=64).fiber_term) <= 1e-9 * value
    assert not seen["raised"] and seen["off_unitary"] <= 1e-8, seen


def test_huge_beta_values_are_finite():
    # the objective is formed at (alpha, beta) / max(alpha, |beta|) and its
    # value multiplied by the root of that scale, so any finite spec with
    # beta != 0 in the region has a finite value: here 1e154 times 2 log 2,
    # log 15 and log 3
    geoab = FD.geodesic_ab(1.0, 1e308)
    assert ps.divergence(geoab, np.eye(2), 2.0 * np.eye(2)) == 1.3862943611198904e154
    A, B = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0])), ps.PsdMatrix(np.diag([30.0, 1.0, 0.0]))
    res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, geoab))
    assert res.mode == "closedForm" and res.fiber_term == 2.7080502011022096e154
    # alpha / beta underflows to 0: the QP's candidate with no free variable
    # takes S = A, not 0/0
    A = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0, 0.0, 0.0]))
    B = ps.PsdMatrix(np.diag([3.0, 0.0, 1.0, 2.0, 0.5]))
    for seed in (0, 1):
        res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic_ab(1e-20, 1e308)), seed=seed)
        assert res.stratum_index == 1
        assert abs(res.fiber_term / 1e154 - 1.0986122886681) <= 1e-12, seed


def test_geodesic_family_at_beta_zero_is_geo_scaled_by_root_alpha():
    # geoab:alpha,0 is formed at alpha / alpha = 1 too, so alpha = 1e308 no
    # longer overflows Phi; every path gives geo's value times sqrt(alpha)
    got = ps.divergence(FD.geodesic_ab(1e308, 0.0), np.eye(2), 4.0 * np.eye(2))
    assert abs(got - 1e154 * math.sqrt(2.0) * math.log(4.0)) <= 1e-15 * got  # 1.9605e154
    generic = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0])), ps.PsdMatrix(np.diag([30.0, 1.0, 0.0]))
    for (A, B), mode in itertools.product((example_pair(), generic), ("algorithm1", "faithful")):
        geo = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic(), mode), samples=400)
        for alpha in (1e308, 2.0, 1e-300):
            spec = ps.MetricSpec(GM.GEODESIC, FD.geodesic_ab(alpha, 0.0), mode)
            res = ps.gd(A, B, spec, samples=400)
            assert res.fiber_term == math.sqrt(alpha) * geo.fiber_term, (mode, alpha)


def test_degenerate_sign_enumeration_is_exact():
    # one-dimensional residual group over the reals: only +-1 to try. The
    # pair (r = s = 3, l = 1) is drawn in random bases of its two ranges, so
    # its left fiber in the principal basis is not diagonal and the two
    # signs give different values; here the -1 sign gives the larger one
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    O1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    O2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    theta = rng.uniform(0.3, 1.2, size=2)
    tilted = np.cos(theta) * Q[:, :2] + np.sin(theta) * Q[:, 3:5]
    frames = Q[:, :3] @ O1, np.column_stack([tilted, Q[:, 5]]) @ O2
    A, B = (ps.PsdMatrix((F * rng.uniform(0.5, 2.0, 3)) @ F.T) for F in frames)
    prep = ps.geodist._prepare([A], [B])
    Cih, D = prep.fibers(0)
    C = prep.P[0].T @ (prep.wA[0][:, None] * prep.P[0])
    assert prep.l[0] == 1 and np.abs(C - np.diag(np.diag(C))).max() > 0.1
    signs = ps.geodist._frames(2, np.array([[[1.0]], [[-1.0]]]), 3)
    want = ps.geodist._conjugated_block_values(FD.geodesic(), Cih[None], D, signs)[0]
    assert want[1] - want[0] > 0.01 * want[1], want
    for budget in (1, 64):
        res = ps.gd(A, B, GEO_GEO, budget=budget)
        assert res.stratum_index == 1
        assert abs(res.fiber_term - want[1]) <= 1e-15 * want[1], (budget, res.fiber_term, want)


def test_degenerate_starts_are_ranked_before_the_bound(monkeypatch):
    # under kl+clamp=0.5 every coarse value of this pair saturates the clamp. Ranked by bounded values the starts
    # were arbitrary, and at seed 3 none of them converged (OptimizerError).
    # Ranked by the unbounded value, the ascent starts from the tails kl
    # starts from, and the bound applies once to the max
    A, B = saturated_clamp_pair()
    ascend, starts = ps.geodist._ascend, []

    def recorded(spec, C_invhalf, D, l, Ts):
        starts.append(Ts)
        return ascend(spec, C_invhalf, D, l, Ts)

    monkeypatch.setattr(ps.geodist, "_ascend", recorded)
    for seed in range(4):
        kl = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.kl()), seed=seed)
        for fiber, want in (("kl+clamp=0.5", 0.5), ("kl+ratio", kl.fiber_term / (1 + kl.fiber_term))):
            res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber)), seed=seed)
            assert res.stratum_index == 2
            assert abs(res.fiber_term - want) <= 1e-12 * want, (fiber, seed, res.fiber_term)
            assert np.array_equal(starts[-1], starts[0]), (fiber, seed)
        del starts[:]


def test_degenerate_constant_objective_ignores_budget():
    # right fiber representation proportional to the identity: the residual
    # rotations act trivially, so any budget returns the same value
    C_invhalf = np.diag([1.0, 2.0 ** -0.5])
    D = np.eye(3) * 3.0
    v1 = ps.geodist.gd_degenerate_fiber(C_invhalf, D, 1, FD.geodesic(), budget=2, seed=0)
    v2 = ps.geodist.gd_degenerate_fiber(C_invhalf, D, 1, FD.geodesic(), budget=20, seed=5)
    assert abs(v1 - v2) <= 1e-9


def test_alignment_fibers_are_not_judged_by_the_caller_rule():
    # at tol_rank 0 the left fiber diag(1, 1e-12) of this l = 1 pair has
    # condition number 1e12, which linalg.check_pd would reject in a caller's
    # matrix; derived from a validated pair, it is evaluated by both modes
    A = ps.PsdMatrix(np.diag([1.0, 1e-12, 0.0, 0.0, 0.0]), tol_rank=0.0)
    B = ps.PsdMatrix(np.diag([0.0, 3.0, 1.0, 2.0, 0.0]), tol_rank=0.0)
    for mode in ("algorithm1", "faithful"):
        res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.kl(), mode), samples=2000)
        assert res.stratum_index == 1, mode
        assert abs(res.fiber_term - 13.961390292578468) <= 1e-12 * 13.961390292578468, mode


def test_determinism_same_seed_same_result():
    A, B = example_pair()
    spec = ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful")
    r1 = ps.gd(A, B, spec, seed=3, samples=20000)
    r2 = ps.gd(A, B, spec, seed=3, samples=20000)
    assert r1.to_json() == r2.to_json()


def test_seed_must_be_a_nonnegative_integer():
    # on every path, and for pairwise_gram too, before any pair runs; a NumPy
    # integer is the same seed as the Python one
    A, B = example_pair()
    generic = ps.PsdMatrix(np.diag([2.0, 1.0, 0.5, 0.0, 0.0]))
    faithful = ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful")
    for spec in (GEO_GEO, faithful):
        for seed in (-1, 1.5, None, True, np.random.default_rng(0), "3"):
            for a, b in ((A, B), (A, generic)):
                with pytest.raises(ps.DomainError, match=r"seed must be an integer >= 0, got "):
                    ps.gd(a, b, spec, seed=seed, samples=2000)
            with pytest.raises(ps.DomainError, match=r"seed must be an integer >= 0, got "):
                ps.pairwise_gram([A, B], spec, seed=seed, samples=2000)
        want = ps.gd(A, B, spec, seed=3, samples=2000).to_json()
        assert ps.gd(A, B, spec, seed=np.int64(3), samples=2000).to_json() == want
    assert ps.gd(A, B, GEO_GEO, seed=0).stratum_index == 2


def _degenerate_fibers(rng, r, s, l, complex_field):
    """gd's alignment fibers (C^{-1/2}, D) of a random pair with l right angles."""
    A, B = degenerate_pair(rng, 10, r, s, l, complex_field)
    prep = ps.geodist._prepare([A], [B])
    assert prep.l[0] == l
    return prep.fibers(0)


def test_coarse_tails_are_drawn_once_per_seed_tail_size_and_field(monkeypatch):
    rng = np.random.default_rng(27)
    spec = FD.geodesic()
    # (4, 5, 2) and (3, 4, 2) share k = 3; each field draws once per seed
    fields = {cf: [_degenerate_fibers(rng, r, s, l, cf) for r, s, l in ((4, 5, 2), (3, 4, 2))]
              for cf in (False, True)}
    monkeypatch.setattr(ps.geodist, "_coarse_cache", {})
    qr = count_calls(monkeypatch, np.linalg, "qr")
    for complex_field, pairs in fields.items():
        for seed, draws in ((0, 1), (0, 1), (1, 2), (0, 2)):
            for Cih, D in pairs:
                ps.geodist.gd_degenerate_fiber(Cih, D, 2, spec, budget=2, seed=seed)
            assert qr["n"] == draws + 2 * complex_field, (complex_field, seed)
    for (seed, k, complex_field), Ts in ps.geodist._coarse_cache.items():
        assert k == 3
        with pytest.raises(ValueError):
            Ts[0, 0, 0] = 2.0
        fresh = ps.geodist._sample_group(np.random.default_rng(seed), k, 512, complex_field)
        assert Ts.dtype == fresh.dtype and np.all(Ts == fresh)


def test_real_sign_tails_are_cached_read_only(monkeypatch):
    monkeypatch.setattr(ps.geodist, "_coarse_cache", {})
    Ts = ps.geodist._coarse_tails(4, 1, False)
    assert Ts.shape == (2, 1, 1) and np.all(Ts[:, 0, 0] == [1.0, -1.0])
    assert ps.geodist._coarse_tails(np.int64(4), 1, False) is Ts
    with pytest.raises(ValueError):
        Ts[1, 0, 0] = 1.0


def test_coarse_cache_stays_within_its_byte_bound(monkeypatch):
    # a real k = 4 draw holds 512 * 16 * 8 = 65,536 bytes
    monkeypatch.setattr(ps.geodist, "_coarse_cache", {})
    monkeypatch.setattr(ps.geodist, "_COARSE_CACHE_BYTES", 2 * 65_536)
    for seed in range(4):
        ps.geodist._coarse_tails(seed, 4, False)
        held = ps.geodist._coarse_cache
        assert sum(T.nbytes for T in held.values()) <= 2 * 65_536
    assert sorted(held) == [(2, 4, False), (3, 4, False)]  # the least recent left
    ps.geodist._coarse_tails(2, 4, False)  # a hit makes (2, 4) the most recent
    ps.geodist._coarse_tails(5, 4, False)
    assert sorted(held) == [(2, 4, False), (5, 4, False)]
    big = ps.geodist._coarse_tails(0, 6, True)  # 512 * 36 * 16 bytes, beyond the bound
    assert not big.flags.writeable and (0, 6, True) not in held
    assert sorted(held) == [(2, 4, False), (5, 4, False)]


def test_coarse_cache_shared_by_threads(monkeypatch):
    # more threads than cores draw and evict under a bound of three real k = 2
    # draws (8,192 bytes each); every tail returned is its key's draw, and the
    # cache never holds more than its bound
    monkeypatch.setattr(ps.geodist, "_coarse_cache", {})
    monkeypatch.setattr(ps.geodist, "_COARSE_CACHE_BYTES", 3 * 8_192)
    want = {seed: ps.geodist._sample_group(np.random.default_rng(seed), 2, 512, False)
            for seed in range(6)}
    errors = []

    def work(first):
        try:
            for i in range(3000):
                seed = (first + i) % 6
                assert np.array_equal(ps.geodist._coarse_tails(seed, 2, False), want[seed])
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert sum(T.nbytes for T in ps.geodist._coarse_cache.values()) <= 3 * 8_192


def test_gd_is_the_same_with_and_without_cached_tails(monkeypatch):
    rng = np.random.default_rng(28)
    pairs = [degenerate_pair(rng, 9, r, s, l, cf)
             for r, s, l in ((3, 3, 1), (3, 4, 1), (4, 6, 3)) for cf in (False, True)]
    spec = ps.MetricSpec(GM.GEODESIC, FD.kl())
    first = [ps.gd(A, B, spec, seed=2).to_json() for A, B in pairs]
    again = [ps.gd(A, B, spec, seed=2).to_json() for A, B in pairs]
    monkeypatch.setattr(ps.geodist, "_coarse_cache", {})
    fresh = [ps.gd(A, B, spec, seed=2).to_json() for A, B in pairs]
    assert first == again == fresh


@pytest.mark.parametrize("complex_field", [False, True])
def test_stacked_ascent_equals_each_start_alone(complex_field):
    # every row of the batched descent is its own computation: a start
    # reaches the same value, bit for bit, in the stack and in a stack of one
    rng = np.random.default_rng(29)
    for r, s, l in ((3, 4, 1), (4, 5, 2), (3, 5, 2), (4, 6, 3)):
        Cih, D = _degenerate_fibers(rng, r, s, l, complex_field)
        k = s - r + l
        for spec in (FD.geodesic(), FD.kl()):
            Ts = ps.geodist._coarse_tails(0, k, complex_field)
            E = ps.geodist._frames(r - l, Ts, r)
            coarse = ps.geodist._conjugated_block_values(spec, Cih[None], D, E)[0]
            starts = Ts[np.argsort(coarse)[::-1][:16]]
            stacked = ps.geodist._ascend(spec, Cih, D, l, starts)
            alone = [ps.geodist._ascend(spec, Cih, D, l, starts[i:i + 1])[0]
                     for i in range(len(starts))]
            assert np.array_equal(stacked, alone), (r, s, l, spec.kind)


def _recorded(monkeypatch, owner, name, seen):
    """Append to `seen` a copy of the first argument of every call to owner.name."""
    fn = getattr(owner, name)

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


def _record_widths(monkeypatch, widths):
    """Append to `widths` the gradient width of every descent the ascent runs."""
    descend = ps.geodist._descend

    def recorded(fg, retract, X, max_iter):
        widths.append(fg(X)[1].shape[1])
        return descend(fg, retract, X, max_iter)

    monkeypatch.setattr(ps.geodist, "_descend", recorded)


@pytest.mark.parametrize("complex_field", [False, True])
def test_ascent_shares_the_coarse_pass_matrix_and_skew_hermitian_coordinates(
        complex_field, monkeypatch):
    # at any tail the ascent's eigh sees the matrix the coarse pass's
    # eigvalsh sees, bit for bit, at l = 1 and at l = r; and the descent runs
    # on the k(k-1)/2 (real) or k^2 (complex) coordinates of a
    # skew-Hermitian Omega, not on all of its entries
    rng = np.random.default_rng(30)
    spec = FD.kl()
    for r, s, l in ((3, 4, 1), (2, 3, 2)):
        Cih, D = _degenerate_fibers(rng, r, s, l, complex_field)
        k = s - r + l
        Ts = ps.geodist._coarse_tails(0, k, complex_field)
        pick = rng.permutation(len(Ts))[:16]
        with monkeypatch.context() as m:
            coarse, ascent, widths = [], [], []
            _recorded(m, np.linalg, "eigvalsh", coarse)
            _recorded(m, np.linalg, "eigh", ascent)
            _record_widths(m, widths)
            ps.geodist._conjugated_block_values(spec, Cih[None], D, ps.geodist._frames(r - l, Ts, r))
            ps.geodist._ascent_state(spec, Cih, D, l, Ts[pick])
            ps.geodist._ascend(spec, Cih, D, l, Ts[pick])
        coarse = np.concatenate([W.reshape(-1, r, r) for W in coarse])
        assert np.array_equal(ascent[0], coarse[pick]), (r, s, l)
        assert widths == [k * k if complex_field else k * (k - 1) // 2], (r, s, l, widths)


def test_real_one_dimensional_tail_ascends_with_no_coordinates(monkeypatch):
    # over the reals with k = 1 the ascent has no coordinates: its two sign
    # starts are final, and the value is the larger of the two sign values.
    # The fibers are those of r = s = 3, l = 1, drawn directly: gd's fibers
    # of a helpers.degenerate_pair have a diagonal C there, and both signs
    # give the same value
    rng = np.random.default_rng(31)
    Cih, D = ps.psd_power(rand_pd(rng, 3, 0.3, 3.0), -0.5), rand_pd(rng, 3, 0.3, 3.0)
    signs = ps.geodist._frames(2, np.array([[[1.0]], [[-1.0]]]), 3)
    widths, ascended = [], []
    _record_widths(monkeypatch, widths)
    ascend = ps.geodist._ascend

    def recorded(*args):
        ascended.append(ascend(*args))
        return ascended[-1]

    monkeypatch.setattr(ps.geodist, "_ascend", recorded)
    for fiber in (FD.geodesic(), FD.kl(), ps.parse_divergence("burg:4")):
        want = ps.geodist._conjugated_block_values(fiber, Cih[None], D, signs)[0]
        assert want[0] != want[1], fiber.kind
        got = ps.geodist.gd_degenerate_fiber(Cih, D, 1, fiber)
        assert abs(got - want.max()) <= 1e-15 * want.max(), (fiber.kind, got, want)
    assert widths == [0, 0, 0] and len(ascended) == 3 and all(len(a) == 2 for a in ascended)


def test_closed_form_matches_faithful_on_generic_pairs():
    rng = np.random.default_rng(13)
    for _ in range(3):
        A = rand_psd_rank(rng, 6, 2)
        B = rand_psd_rank(rng, 7, 3)
        for fiber in (FD.geodesic(), FD.kl()):
            closed = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber)).total
            sampled = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"),
                            samples=10000).total
            assert abs(closed - sampled) <= 1e-4


def test_budget_and_samples_below_one_raise_domain_error():
    # on every path, and for pairwise_gram too; budget=1 and samples=1 stay
    # valid, and a count that is not an integer is neither truncated nor None
    # nor a bool
    A, B = example_pair()
    faithful = ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful")
    generic = ps.PsdMatrix(np.diag([2.0, 1.0, 0.5, 0.0, 0.0]))
    for spec in (GEO_GEO, faithful):
        for kw in ({"samples": -5}, {"samples": 0}, {"budget": 0}, {"budget": -3},
                   {"budget": 2.5}, {"samples": 1000.5}, {"samples": None},
                   {"budget": True}, {"samples": True}):
            for a, b in ((A, B), (A, generic)):
                with pytest.raises(ps.DomainError, match=">= 1"):
                    ps.gd(a, b, spec, **kw)
            for mats in ([A, B], [A]):
                with pytest.raises(ps.DomainError, match=">= 1"):
                    ps.pairwise_gram(mats, spec, **kw)
    assert ps.gd(A, B, faithful, samples=1).stratum_index == 2
    assert ps.gd(A, B, GEO_GEO, budget=1).stratum_index == 2
    assert ps.gd(A, B, GEO_GEO, budget=np.int64(1)).stratum_index == 2


def test_pairwise_single_input():
    rng = np.random.default_rng(14)
    out = ps.pairwise_gram([rand_psd_rank(rng, 4, 2)], GEO_GEO)
    assert out.shape == (1, 1) and out[0, 0] == 0.0


def test_pairwise_projector_symmetry():
    rng = np.random.default_rng(15)
    mats = []
    for _ in range(3):
        F = rand_frame(rng, 6, 3)
        mats.append(ps.PsdMatrix(F @ F.T))
    out = ps.pairwise_gram(mats, ps.MetricSpec(GM.CHORDAL, FD.kl()))
    assert np.abs(out - out.T).max() <= 1e-10
    assert np.allclose(np.diag(out), 0.0)


def _diag_psd(d, n=4):
    return ps.PsdMatrix(np.diag(np.r_[d, np.zeros(n - len(d))]))


def test_pairwise_error_context(monkeypatch):
    rng = np.random.default_rng(16)
    good = rand_psd_rank(rng, 4, 2)
    zero = ps.PsdMatrix(np.zeros((4, 4)))
    with pytest.raises(ps.DomainError, match=r"pair \(0, 1\)"):
        ps.pairwise_gram([good, zero], GEO_GEO)
    # several pairs fail; the error names the first in the order (0, 1),
    # (1, 0), (0, 2), (2, 0), ..., whichever chunk the engine meets it in.
    # Itakura-Saito (alpha = 1) is undefined where the pencil reaches e: the
    # pair diag(1, 1) -> diag(5, 1) leaves the domain, its reverse does not
    low, high, wide = _diag_psd([1.0, 1.0]), _diag_psd([5.0, 1.0]), _diag_psd([1.0, 1.0, 1.0])
    spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence("is:1"))
    cases = (
        ([low, wide, high, zero], r"pair \(0, 2\): the itakurasaito divergence is undefined"),
        ([high, wide, low, zero], r"pair \(2, 0\): the itakurasaito divergence is undefined"),
        ([low, zero, high, wide], r"pair \(0, 1\): zero-rank input"),
    )
    for chunk_bytes in (ps.geodist._CHUNK_BYTES, 1):
        monkeypatch.setattr(ps.geodist, "_CHUNK_BYTES", chunk_bytes)
        for mats, first in cases:
            with pytest.raises(ps.DomainError, match=first):
                ps.pairwise_gram(mats, spec)

    # any package error keeps its type and gains the pair: here an ascent
    # that stalls on the worked pair's degenerate direction
    def stalled(*args):
        raise ps.OptimizerError("degenerate-stratum ascent: none of 16 starts reached a stationary point")

    monkeypatch.setattr(ps.geodist, "_ascend", stalled)
    with pytest.raises(ps.OptimizerError, match=r"pair \(1, 2\): degenerate-stratum ascent"):
        ps.pairwise_gram([_diag_psd([1.0, 2.0, 3.0, 4.0, 5.0], 5), *example_pair()], GEO_GEO)


def test_result_serialization():
    A, B = example_pair()
    res = ps.gd(A, B, ps.MetricSpec(GM.MARTIN, FD.geodesic()), budget=4)
    assert math.isinf(res.grassmann_term)
    text = res.to_json()
    assert '"grassmann_term": Infinity' in text
    assert '"mode": "optimizedDegenerate"' in text
    d = res.to_dict()
    assert d["stratum_index"] == 2 and len(d["angles"]) == 3


def test_martin_is_infinite_on_every_degenerate_direction():
    # principal cosines (1, 1e-11): l = 1 both ways at the default tol_rank,
    # so the Grassmann term counts the second angle as a right angle
    b = np.array([0.0, 1e-11, 1.0])
    A = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0]))
    B = ps.PsdMatrix(np.diag([3.0, 0.0, 0.0]) + 2.0 * np.outer(b, b))
    res = ps.gd(A, B, ps.MetricSpec(GM.MARTIN, FD.geodesic()))
    assert res.stratum_index == 1 and math.isinf(res.grassmann_term)
    assert res.angles[-1] < math.pi / 2  # the reported angles stay as computed
    gram = ps.pairwise_gram([A, B], ps.MetricSpec(GM.MARTIN, FD.geodesic()))
    assert math.isinf(gram[0, 1]) and math.isinf(gram[1, 0])
    res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic()))
    assert res.grassmann_term == math.hypot(res.angles[0], math.pi / 2)


def _rand_complex_psd(rng, n, r):
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    F = (Q * (np.diagonal(R) / np.abs(np.diagonal(R))))[:, :r]
    M = (F * rng.uniform(0.5, 2.0, size=r)) @ F.conj().T
    return ps.PsdMatrix(0.5 * (M + M.conj().T))


def _gram_inputs(field):
    rng = np.random.default_rng(17)
    if field == "complex":
        return [_rand_complex_psd(rng, 5, r) for r in (2, 2, 3, 2)]
    # the last two form an equal-rank pair with one right principal angle
    degenerate = [ps.embed_pad(ps.PsdMatrix(np.diag(d)), 6)
                  for d in ([1.0, 2.0, 0.0], [1.0, 0.0, 3.0])]
    return [rand_psd_rank(rng, 6, r) for r in (2, 2, 3)] + degenerate


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("fiber", ["geo", "geoab:1,0.25", "kl+clamp=5"])
def test_pairwise_gram_matches_gd_both_directions(field, fiber):
    mats = _gram_inputs(field)
    spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber))
    gram = ps.pairwise_gram(mats, spec, seed=2, budget=4)
    strata = set()
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            if i == j:
                continue
            res = ps.gd(A, B, spec, seed=2, budget=4)
            strata.add(res.stratum_index)
            assert abs(gram[i, j] - res.total) <= 1e-12 * abs(res.total)
            if A.rank != B.rank:
                assert gram[i, j] == gram[j, i]
    assert strata == ({0} if field == "complex" else {0, 1})
    assert np.all(np.diag(gram) == 0.0)


def _stacked_engine_inputs():
    """Ambient sizes 4-7 (groups need padding), ranks 1-3, real and complex
    matrices, and an equal-rank pair (the last two) with one right angle."""
    rng = np.random.default_rng(23)
    mats = []
    for i, (n, r) in enumerate([(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (7, 3), (4, 1), (6, 1),
                                (6, 2), (5, 3), (7, 1), (4, 2)]):
        mats.append(_rand_complex_psd(rng, n, r) if i % 3 == 2 else rand_psd_rank(rng, n, r))
    return mats + [ps.embed_pad(ps.PsdMatrix(np.diag(d)), 5)
                   for d in ([1.0, 2.0, 0.0], [1.0, 0.0, 3.0])]


def _record_value_batches(monkeypatch):
    """(rank, rows) of each _closed_form call on generic directions only,
    which the engine makes; gd's calls on degenerate pairs are left out."""
    batches = []
    closed_form = ps.geodist._closed_form

    def recorded(spec, l, mu, theta, fterm):
        if not l.any():
            batches.append(mu.shape)
        return closed_form(spec, l, mu, theta, fterm)

    monkeypatch.setattr(ps.geodist, "_closed_form", recorded)
    return batches


@pytest.mark.parametrize("fiber", ["geo", "geoab:1,0.25"])
def test_stacked_pairwise_agrees_with_gd_and_ignores_chunking(monkeypatch, fiber):
    mats = _stacked_engine_inputs()
    spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber))
    batches = _record_value_batches(monkeypatch)
    gram = ps.pairwise_gram(mats, spec, seed=2, budget=4)
    # at the default budget, one value batch per left rank, across groups,
    # fields and both directions
    assert sorted(r for _, r in batches) == [1, 2, 3]
    degenerate = 0
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            if i != j:
                res = ps.gd(A, B, spec, seed=2, budget=4)
                assert abs(gram[i, j] - res.total) <= 1e-12 * abs(res.total)
                if res.stratum_index:
                    degenerate += 1
                    assert gram[i, j] == res.total
    assert degenerate == 2
    # one pair per chunk: the padded size is the group's, so nothing moves;
    # at 256 bytes the rank-2 buffer (78 directions, 16 bytes of spectrum
    # each) is flushed partway, in batches of several chunks, and at 1 byte
    # after every chunk
    for chunk_bytes in (256, 1):
        monkeypatch.setattr(ps.geodist, "_CHUNK_BYTES", chunk_bytes)
        batches.clear()
        assert np.array_equal(ps.pairwise_gram(mats, spec, seed=2, budget=4), gram)
        rank2 = [m for m, r in batches if r == 2]
        assert sum(rank2) == 78 and len(rank2) > 1
        assert (max(rank2) > 1) == (chunk_bytes > 1)


def test_pairwise_gram_faithful_matches_gd():
    rng = np.random.default_rng(18)
    mats = [rand_psd_rank(rng, 4, r) for r in (2, 2, 3)]
    spec = ps.MetricSpec(GM.GEODESIC, FD.kl(), "faithful")
    gram = ps.pairwise_gram(mats, spec, seed=1, samples=500)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert gram[i, j] == ps.gd(mats[i], mats[j], spec, seed=1, samples=500).total


@pytest.mark.parametrize("case", ["generic", "complex", "degenerate"])
def test_pencil_spectrum_matches_fiber_pencil(case):
    rng = np.random.default_rng(19)
    if case == "generic":
        A, B = rand_psd_rank(rng, 7, 3), rand_psd_rank(rng, 7, 4)
    elif case == "complex":
        A, B = _rand_complex_psd(rng, 6, 3), _rand_complex_psd(rng, 6, 3)
    else:
        A, B = example_pair()
    res = ps.gd(A, B, GEO_GEO, budget=2)
    assert (res.stratum_index > 0) == (case == "degenerate")
    system = ps.principal_system(ps.range_subspace(A), ps.range_subspace(B))
    C = ps.fiber_representation(A, system.left_frame)
    D = ps.fiber_representation(B, system.right_frame)
    r = C.shape[0]
    want = np.maximum(1.0, ps.pencil_eigenvalues(C, D[:r, :r]))
    assert np.abs(res.pencil_spectrum - want).max() <= 1e-12 * want.max()


# --- two-parameter fiber bounds ------------------------------------------


def test_two_parameter_fiber_applies_bound():
    A = ps.PsdMatrix(np.diag([1.0, 0.0]))
    B = ps.PsdMatrix(np.diag([9.0, 1.0]))

    def fiber(text):
        return ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(text))).fiber_term

    v = fiber("geoab:1,0.25")
    assert abs(v - math.sqrt(1.25) * math.log(9.0)) <= 1e-12
    assert fiber("geoab:1,0.25+clamp=0.1") == 0.1
    assert abs(fiber("geoab:1,0.25+ratio") - v / (1.0 + v)) <= 1e-15


def test_two_parameter_degenerate_fiber_applies_bound():
    A, B = example_pair()
    raw = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, ps.parse_divergence("geoab:1,0.25")),
                budget=2).fiber_term
    clamped = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, ps.parse_divergence("geoab:1,0.25+clamp=0.1")),
                    budget=2).fiber_term
    assert raw > 0.1 and clamped == 0.1


# --- degenerate-stratum ascent -------------------------------------------


def test_worked_example_complex_dtype():
    A = ps.PsdMatrix(EXAMPLE_A.astype(complex))
    B = ps.PsdMatrix(EXAMPLE_B.astype(complex))
    for budget in (1, 2, 16):
        res = ps.gd(A, B, GEO_GEO, budget=budget)
        assert res.stratum_index == 2
        assert abs(res.fiber_term**2 - 4 * math.log(2) ** 2) <= 1e-9


def test_real_pair_cast_to_complex_agrees():
    rng = np.random.default_rng(22)
    A, B = degenerate_pair(rng, 10, 4, 5, 2)
    Ac, Bc = (ps.PsdMatrix(M.entries.astype(complex)) for M in (A, B))
    for fiber in ("geo", "geoab:1,0.25"):
        spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber))
        real, cplx = ps.gd(A, B, spec), ps.gd(Ac, Bc, spec)
        assert real.stratum_index == cplx.stratum_index == 2
        assert abs(real.fiber_term - cplx.fiber_term) <= 1e-8


def test_complex_degenerate_pairs_are_evaluated():
    rng = np.random.default_rng(23)
    for r, s, l in ((3, 4, 1), (4, 5, 2), (3, 5, 2), (4, 6, 3)):
        A, B = degenerate_pair(rng, 12, r, s, l, complex_field=True)
        for fiber in ("geo", "kl"):
            res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber)), budget=2)
            assert res.stratum_index == l and math.isfinite(res.fiber_term)


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("fiber", ["geo", "kl", "ab:0.5,0.5+sym", "geoab:1,0.25"])
def test_ascent_gradient_matches_finite_difference(complex_field, fiber):
    rng = np.random.default_rng(24)
    spec = ps.parse_divergence(fiber)
    r, s, l = 4, 5, 2
    k = s - r + l
    C, D = (_rand_complex_psd(rng, n, n).entries if complex_field else rand_pd(rng, n, 0.3, 3.0)
            for n in (r, s))
    Cih = ps.psd_power(C, -0.5)
    Ts = ps.geodist._random_unitaries(rng, 4, k, complex_field)
    F, Om = ps.geodist._ascent_state(spec, Cih, D, l, Ts)
    X = rng.normal(size=(4, k, k))
    if complex_field:
        X = X + 1j * rng.normal(size=(4, k, k))
    xi = 0.5 * (X - np.swapaxes(X.conj(), -1, -2))
    h = 1e-5
    Fp, _ = ps.geodist._ascent_state(spec, Cih, D, l, ps.geodist._cayley(Ts, h * xi))
    Fm, _ = ps.geodist._ascent_state(spec, Cih, D, l, ps.geodist._cayley(Ts, -h * xi))
    fd = (Fp - Fm) / (2 * h)
    analytic = np.sum((Om.conj() * xi).real, axis=(-2, -1))
    assert np.all(np.abs(fd - analytic) <= 1e-6 * np.abs(analytic))


@pytest.mark.parametrize("complex_field", [False, True])
def test_degenerate_sup_unitary_congruence_invariance(complex_field):
    rng = np.random.default_rng(25)
    A, B = degenerate_pair(rng, 8, 3, 5, 2, complex_field)
    G = rng.normal(size=(8, 8)) + (1j * rng.normal(size=(8, 8)) if complex_field else 0.0)
    Q, _ = np.linalg.qr(G)
    QA, QB = (ps.PsdMatrix(Q @ M.entries @ Q.conj().T) for M in (A, B))
    # at the default budget of 16 every start of one side can sit in the basin
    # of a lower local maximum (real case: 0.79338 against 0.79696)
    for fiber in ("geo", "kl"):
        spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber))
        a, b = ps.gd(A, B, spec, budget=64), ps.gd(QA, QB, spec, budget=64)
        assert a.stratum_index == b.stratum_index == 2
        assert abs(a.fiber_term - b.fiber_term) <= 1e-8


def test_ascent_iteration_cap_raises_optimizer_error(monkeypatch):
    A, B = example_pair()
    monkeypatch.setattr(ps.geodist, "_ASCENT_MAX_ITER", 0)
    with pytest.raises(ps.OptimizerError):
        ps.gd(A, B, GEO_GEO, budget=2)


@pytest.mark.parametrize("complex_field", [False, True])
def test_faithful_generic_value_is_the_representation_set_value(complex_field):
    # on the generic stratum every representation pair has the pencil of
    # (C, D11), so the max-min over a sampled set is that pencil's value
    rng = np.random.default_rng(26)
    for n, r, s in ((6, 2, 3), (5, 3, 3)):
        if complex_field:
            A, B = _rand_complex_psd(rng, n, r), _rand_complex_psd(rng, n, s)
        else:
            A, B = rand_psd_rank(rng, n, r), rand_psd_rank(rng, n, s)
        for fiber in (FD.geodesic(), FD.kl()):
            res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"))
            want = generalized_hausdorff(lambda X, Y: ps.pointset_minus(fiber, X, Y).value,
                                            representation_set(A, B, grid=64))
            assert res.stratum_index == 0
            assert abs(res.fiber_term - want) <= 1e-12 * want, (n, r, s, fiber.kind)


@pytest.mark.parametrize("pair", ["worked", "complex", "tol_rank"])
def test_faithful_degenerate_value_is_the_representation_set_value(pair, monkeypatch):
    # faithful mode and representation_set draw the same frames, so the
    # sampled max-min is the Hausdorff value over that set, however the
    # table of left and right frames is cut into chunks
    if pair == "worked":
        A, B = example_pair()
    elif pair == "complex":
        A, B = degenerate_pair(np.random.default_rng(28), 7, 3, 4, 2, complex_field=True)
    else:
        # the worked pair with B's range tilted toward A's: principal cosines
        # 1, 1e-8, 1e-8, two right angles at tol_rank 1e-6 but none at 1e-10
        c, s = math.cos(1e-8), math.sin(1e-8)
        R = np.eye(5)
        R[np.ix_([1, 3], [1, 3])] = R[np.ix_([2, 4], [2, 4])] = [[c, -s], [s, c]]
        A, B = (ps.PsdMatrix(M, tol_rank=1e-6) for M in (EXAMPLE_A, R @ EXAMPLE_B @ R.T))
    default = ps.geodist._CHUNK_BYTES
    for fiber in (FD.geodesic(), FD.kl()):
        # at 4,000 bytes the 300-sample draws (8 x 9 frames, r = 3) take 6
        # rows a chunk over the reals and 3 over the complex numbers
        for samples, seed, chunk_bytes in ((1, 0, default), (50, 3, default),
                                           (300, 7, default), (300, 7, 4000)):
            monkeypatch.setattr(ps.geodist, "_CHUNK_BYTES", chunk_bytes)
            res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"),
                        samples=samples, seed=seed)
            want = generalized_hausdorff(
                lambda X, Y: ps.pointset_minus(fiber, X, Y).value,
                representation_set(A, B, grid=samples, seed=seed))
            assert res.stratum_index == 2
            assert abs(res.fiber_term - want) <= 1e-12 * want, (pair, fiber.kind, samples)


@pytest.mark.parametrize("pair", ["real_run", "complex"])
def test_shared_leading_unitary_cancels_from_the_hausdorff_value(pair):
    # a unitary P on the r - l leading rows of both frames conjugates both
    # sides of every pencil alike, so it cannot move a value, even on a run
    # of equal principal cosines (real_run: cosines cos 0.5, cos 0.5, cos 0.9)
    rng = np.random.default_rng(29)
    if pair == "real_run":
        A, B = degenerate_pair(rng, 10, 4, 5, 1, theta=np.array([0.5, 0.5, 0.9]))
    else:
        A, B = degenerate_pair(np.random.default_rng(28), 7, 3, 4, 2, complex_field=True)
    r, l = A.rank, ps.gd(A, B, GEO_GEO, budget=1).stratum_index
    G = rng.normal(size=(r - l, r - l))
    P, _ = np.linalg.qr(G + 1j * rng.normal(size=G.shape) if pair == "complex" else G)
    pairs = representation_set(A, B, grid=300, seed=1)
    moved = {}

    def conjugated(M):  # one new object per old one keeps the pairing
        if id(M) not in moved:
            Q = np.eye(len(M), dtype=P.dtype)
            Q[: r - l, : r - l] = P
            moved[id(M)] = Q @ M @ Q.conj().T
        return moved[id(M)]

    rotated = [(conjugated(X), conjugated(Y)) for X, Y in pairs]
    assert l >= 1 and len(moved) == len({id(M) for xy in pairs for M in xy})
    for fiber in (FD.geodesic(), FD.kl()):
        def f(X, Y):
            return ps.pointset_minus(fiber, X, Y).value

        want = generalized_hausdorff(f, pairs)
        assert abs(generalized_hausdorff(f, rotated) - want) <= 1e-12 * want, fiber.kind


def test_real_sup_is_at_most_the_complex_sup():
    # for real inputs algorithm1 ranges over O(k), a documented choice; over
    # U(k) the sup can be strictly larger. The pair is the ninth draw of
    # bench/workloads.degenerate_pair(default_rng(5), 12, r, s, l), with
    # (r, s, l) cycling through the shapes below.
    rng = np.random.default_rng(5)
    shapes = ((3, 4, 1), (4, 5, 2), (3, 5, 2), (4, 6, 3), (5, 7, 3), (3, 3, 2), (3, 3, 1))
    for i in range(9):
        r, s, l = shapes[i % 7]
        Q = rand_orthogonal(rng, 12)
        theta = rng.uniform(0.2, 1.2, size=r - l)
        tilted = Q[:, : r - l] * np.cos(theta) + Q[:, r : 2 * r - l] * np.sin(theta)
        frames = (Q[:, :r] @ rand_orthogonal(rng, r),
                  np.hstack([tilted, Q[:, 2 * r - l : r + s]]) @ rand_orthogonal(rng, s))
        a, b = (0.5 * (M + M.T) for M in
                ((F * rng.uniform(0.5, 2.0, size=F.shape[1])) @ F.T for F in frames))
    spec = ps.MetricSpec(GM.GEODESIC, FD.kl())
    real = ps.gd(ps.PsdMatrix(a), ps.PsdMatrix(b), spec)
    cplx = ps.gd(ps.PsdMatrix(a.astype(complex)), ps.PsdMatrix(b.astype(complex)), spec)
    assert real.stratum_index == cplx.stratum_index == 2
    # 0.2896882 over O(3) against 0.2897099 over U(3)
    assert real.fiber_term <= cplx.fiber_term
    assert cplx.fiber_term - real.fiber_term > 1e-5


def test_faithful_generic_value_ignores_seed_and_samples():
    rng = np.random.default_rng(27)
    A, B = rand_psd_rank(rng, 6, 2), rand_psd_rank(rng, 6, 3)
    spec = ps.MetricSpec(GM.GEODESIC, FD.kl(), "faithful")
    values = {ps.gd(A, B, spec, seed=seed, samples=samples).fiber_term
              for seed in range(4) for samples in (100, 100_000)}
    assert len(values) == 1


@pytest.mark.parametrize("pair", ["worked", "complex"])
def test_faithful_value_does_not_depend_on_the_chunk_size(pair, monkeypatch):
    # one row of left frames a chunk against the default budget, which cuts
    # the 20,000-sample draws into several chunks of rows
    if pair == "worked":
        A, B = example_pair()
    else:
        A, B = degenerate_pair(np.random.default_rng(28), 7, 3, 4, 2, complex_field=True)
    default = ps.geodist._CHUNK_BYTES
    for fiber in (FD.geodesic(), ps.parse_divergence("kl+clamp=5")):
        spec = ps.MetricSpec(GM.GEODESIC, fiber, "faithful")
        for samples in (2000, 20000):
            monkeypatch.setattr(ps.geodist, "_CHUNK_BYTES", default)
            want = ps.gd(A, B, spec, samples=samples, seed=5)
            monkeypatch.setattr(ps.geodist, "_CHUNK_BYTES", 1)
            got = ps.gd(A, B, spec, samples=samples, seed=5)
            assert want.stratum_index == 2
            assert got.to_json() == want.to_json(), (pair, fiber.kind, samples)


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_entry_values_equal_the_full_table(r, complex_field, monkeypatch):
    # the branch and bound's gathered entries against _conjugated_block_values,
    # in chunks of a few entries: both form each pair by the same two r x r
    # products of linalg.pencil_spectra
    rng = np.random.default_rng(10 + r)
    s, m, n = r + 2, 5, 30
    unitaries = ps.geodist._random_unitaries
    Q = unitaries(rng, 1, s, complex_field)[0]
    D = (Q * rng.uniform(0.5, 2.0, size=s)) @ Q.conj().T
    F = unitaries(rng, m, r, complex_field) * rng.uniform(0.5, 2.0, size=r)
    E = unitaries(rng, n, s, complex_field)[:, :r]
    spec = ps.parse_divergence("kl+clamp=5")
    want = ps.geodist._conjugated_block_values(spec, F, D, E)
    monkeypatch.setattr(ps.geodist, "_CHUNK_BYTES", 7 * F[0].nbytes)
    i, j = (x.ravel() for x in np.meshgrid(np.arange(m), np.arange(n), indexing="ij"))
    got = ps.geodist._entry_values(spec, F, ps.geodist._congruence(E, D), i, j)
    assert np.array_equal(got, want.ravel()), (
        "gathered entries and the full table no longer form each pair by the "
        "same products, so faithful mode matches the full tables only to "
        f"rounding (largest difference {np.abs(got - want.ravel()).max():.3g})")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_faithful_worked_pair_evaluates_a_fifth_of_the_tables_at_most(seed, monkeypatch):
    # at 1e5 samples the 4 tables hold 4 x 158 x 158 = 99,856 entries; the
    # branch and bound returns their max-min bit for bit from a fifth of them
    A, B = example_pair()
    Cih, D = ps.geodist._prepare([A], [B]).fibers(0)
    entries = {"n": 0}
    evaluate = ps.geodist._entry_values

    def counted(spec, F, Y, i, j):
        entries["n"] += len(i)
        return evaluate(spec, F, Y, i, j)

    monkeypatch.setattr(ps.geodist, "_entry_values", counted)
    for fiber in (FD.geodesic(), ps.parse_divergence("kl+clamp=5")):
        # the reference's full tables go through _entry_values too
        want = faithful_fiber(Cih, D, 2, fiber, 100_000, seed)
        entries["n"] = 0
        res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"),
                    samples=100_000, seed=seed)
        assert res.fiber_term == want, fiber.kind
        assert 0 < entries["n"] <= 0.2 * 99_856, (fiber.kind, entries["n"])


@pytest.mark.parametrize("pair_seed, alpha, raises", [(2, 5.0919, True), (4, 7.7779, False)])
def test_faithful_evaluates_every_entry_unless_the_domain_is_certified(
        pair_seed, alpha, raises, monkeypatch):
    # the pencil box [min wD / max wC, max wD / min wC] straddles the edge
    # e^(1/alpha) of is:alpha, so every entry is evaluated. In the first pair
    # pencils past the edge lie only outside the identity rows, where a
    # branch and bound would skip them and return a number; in the second
    # no sampled pencil passes it.
    fiber = FD.itakura_saito(alpha)
    spec = ps.MetricSpec(GM.GEODESIC, fiber, "faithful")
    A, B = degenerate_pair(np.random.default_rng(pair_seed), 6, 3, 3, 2, complex_field=True)
    prep = ps.geodist._prepare([A], [B])
    Cih, D = prep.fibers(0)
    wC, wD = prep.wA[0], prep.wB[0]
    assert wD[-1] / wC[0] < math.exp(1.0 / alpha) < wD[0] / wC[-1]
    if raises:
        with pytest.raises(ps.DomainError) as want:
            faithful_fiber(Cih, D, 2, fiber, 2000, 0)
        with pytest.raises(ps.DomainError) as got:
            ps.gd(A, B, spec, samples=2000)
        assert str(got.value) == str(want.value)
        monkeypatch.setattr(ps.geodist, "_defined_on_box", lambda *args: True)
        assert math.isfinite(ps.gd(A, B, spec, samples=2000).fiber_term)
    else:
        res = ps.gd(A, B, spec, samples=2000)
        assert res.fiber_term == faithful_fiber(Cih, D, 2, fiber, 2000, 0)


@pytest.mark.parametrize("mode", ["algorithm1", "faithful"])
def test_degenerate_gd_decomposes_no_fiber_alone(mode, monkeypatch):
    # C^-1/2 comes from the alignment's factors, every left frame G uses
    # C^-1/2 G* in place of (G C G*)^-1/2, and the domain box comes from the
    # spectra of C and D that gd already holds: eigh and eigvalsh see only
    # stacks of pencils, never C, D or any other single matrix
    A, B = example_pair()
    shapes = {"eigh": [], "eigvalsh": []}
    for name in shapes:
        def recorded(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            shapes[_name].append(np.shape(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic(), mode), samples=20000)
    assert res.stratum_index == 2
    assert shapes["eigh"] or mode == "faithful"
    assert all(len(shape) > 2 for shape in shapes["eigh"] + shapes["eigvalsh"]), shapes


@pytest.mark.parametrize("complex_field", [False, True])
def test_faithful_generic_value_is_the_closed_form_exactly(complex_field):
    # at l = 0 both modes evaluate the one closed form, bit for bit
    rng = np.random.default_rng(28)
    for n, r, s in ((6, 2, 3), (5, 3, 3), (7, 4, 2), (8, 3, 5)):
        if complex_field:
            A, B = _rand_complex_psd(rng, n, r), _rand_complex_psd(rng, n, s)
        else:
            A, B = rand_psd_rank(rng, n, r), rand_psd_rank(rng, n, s)
        for fiber in family_specs() + [FD.geodesic_ab(1.0, 0.25), FD.kl().with_sym()]:
            closed = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber))
            faithful = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"))
            assert closed.stratum_index == 0 and faithful.mode == "faithfulSampled"
            assert faithful.fiber_term == closed.fiber_term, (n, r, s, fiber)
            assert faithful.total == closed.total


def test_pairwise_faithful_generic_equals_algorithm1():
    rng = np.random.default_rng(29)
    mats = [rand_psd_rank(rng, 6, r) for r in (2, 3, 3, 3, 4)]
    mats.append(_rand_complex_psd(rng, 6, 3))
    for fiber in (FD.geodesic(), FD.kl(), FD.geodesic_ab(1.0, 0.25)):
        gram = ps.pairwise_gram(mats, ps.MetricSpec(GM.GEODESIC, fiber))
        faithful = ps.pairwise_gram(mats, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"))
        assert np.array_equal(faithful, gram)


def test_itakura_saito_domain_violation_in_gd():
    # IS at alpha = 1 is undefined once a clamped pencil eigenvalue exceeds e
    spec_is = FD.itakura_saito(1.0)
    A, B = ps.PsdMatrix(np.diag([1.0, 1.0, 0.0])), ps.PsdMatrix(np.diag([4.0, 4.0, 1.0]))
    with pytest.raises(ps.DomainError, match="itakurasaito divergence is undefined"):
        ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, spec_is))
    A = ps.PsdMatrix(np.diag([1.0, 1.0, 0.5, 0.0, 0.0]))
    B = ps.PsdMatrix(np.diag([1.0, 0.0, 0.0, 9.0, 18.0]))
    for mode in ("algorithm1", "faithful"):
        with pytest.raises(ps.DomainError, match="itakurasaito divergence is undefined"):
            ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, spec_is, mode), budget=2, samples=64)
