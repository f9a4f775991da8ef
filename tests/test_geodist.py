"""The headline distance: Hausdorff functional, ambiguity sampling, gd."""

import math

import numpy as np
import pytest

import psdsim as ps
from psdsim import FiberDivergence as FD, GrassmannMetric as GM
from helpers import (
    EXAMPLE_A,
    EXAMPLE_B,
    count_calls,
    example_pair,
    family_specs,
    rand_frame,
    rand_orthogonal,
    rand_pd,
    rand_psd_rank,
)

GEO_GEO = ps.MetricSpec(GM.GEODESIC, FD.geodesic())


# --- generalized Hausdorff functional ---------------------------------


def test_hausdorff_singleton():
    assert ps.generalized_hausdorff(lambda x, y: abs(x - y), [(1.0, 4.0)]) == 3.0


def test_hausdorff_full_product_matches_classic():
    rng = np.random.default_rng(0)
    xs = [float(v) for v in rng.uniform(0, 10, size=5)]
    ys = [float(v) for v in rng.uniform(0, 10, size=4)]
    f = lambda x, y: abs(x - y)
    got = ps.generalized_hausdorff(f, [(x, y) for x in xs for y in ys])
    d1 = max(min(f(x, y) for y in ys) for x in xs)
    d2 = max(min(f(x, y) for x in xs) for y in ys)
    assert got == max(d1, d2)


def test_hausdorff_asymmetric_bruteforce():
    rng = np.random.default_rng(1)
    xs, ys = list(range(3)), list(range(3))
    table = rng.uniform(0, 1, size=(3, 3))
    f = lambda x, y: table[x, y]
    got = ps.generalized_hausdorff(f, [(x, y) for x in xs for y in ys])
    want = max(
        max(min(table[x, y] for y in ys) for x in xs),
        max(min(table[x, y] for x in xs) for y in ys),
    )
    assert got == want


def test_hausdorff_rejects_empty():
    with pytest.raises(ps.DomainError):
        ps.generalized_hausdorff(lambda x, y: 0.0, [])


# --- representation-set sampling --------------------------------------


def test_representation_set_generic_stratum_is_invariant():
    rng = np.random.default_rng(2)
    A = rand_psd_rank(rng, 6, 2)
    B = rand_psd_rank(rng, 6, 3)
    pairs = ps.representation_set(A, B, grid=50, seed=0)
    vals = [
        ps.pointset.pointset_value_from_spectrum(
            FD.kl(), ps.pencil_eigenvalues(X, Y[:2, :2])
        ).value
        for X, Y in pairs
    ]
    assert max(vals) - min(vals) <= 1e-9


def test_representation_set_matches_displayed_family():
    A, B = example_pair()
    pairs = ps.representation_set(A, B, grid=40, seed=1)
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
    pairs = ps.representation_set(A, B, grid=20, seed=2)
    base = ps.pencil_eigenvalues(pairs[0][0], pairs[0][1])
    for X, Y in pairs:
        assert np.abs(ps.pencil_eigenvalues(X, Y) - base).max() <= 1e-9


def test_representation_set_grid_below_one_raises_domain_error():
    A, B = example_pair()
    for grid in (0, -5):
        with pytest.raises(ps.DomainError, match=">= 1"):
            ps.representation_set(A, B, grid=grid)


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


def test_degenerate_sign_enumeration_is_exact():
    # one-dimensional residual group over the reals: only +-1 to try
    A = ps.PsdMatrix(np.diag([1.0, 2.0, 0.0]))
    B = ps.PsdMatrix(np.diag([1.0, 0.0, 3.0]))
    res = ps.gd(A, B, GEO_GEO, budget=1)
    assert res.stratum_index == 1
    again = ps.gd(A, B, GEO_GEO, budget=64)
    assert res.total == again.total


def test_degenerate_constant_objective_ignores_budget():
    # right fiber representation proportional to the identity: the residual
    # rotations act trivially, so any budget returns the same value
    C = np.diag([1.0, 2.0])
    D = np.eye(3) * 3.0
    v1 = ps.gd_degenerate_fiber(C, D, 1, FD.geodesic(), budget=2, seed=0)
    v2 = ps.gd_degenerate_fiber(C, D, 1, FD.geodesic(), budget=20, seed=5)
    assert abs(v1 - v2) <= 1e-9


def test_degenerate_fiber_validates_its_arguments():
    C, D = np.eye(2), np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ps.DomainError, match=">= 1"):
        ps.gd_degenerate_fiber(C, D, 1, FD.geodesic(), budget=-3)
    with pytest.raises(ps.DomainError, match="non-finite"):
        ps.gd_degenerate_fiber(np.array([[1.0, np.nan], [np.nan, 1.0]]), D, 1, FD.geodesic())
    with pytest.raises(ps.DomainError, match="not Hermitian"):
        ps.gd_degenerate_fiber(np.array([[1.0, 0.5], [0.0, 1.0]]), D, 1, FD.geodesic())
    with pytest.raises(ps.DomainError, match="not Hermitian"):
        ps.gd_degenerate_fiber(C, D + np.triu(np.ones((3, 3)), 1), 1, FD.geodesic())


def test_determinism_same_seed_same_result():
    A, B = example_pair()
    spec = ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful")
    r1 = ps.gd(A, B, spec, seed=3, samples=20000)
    r2 = ps.gd(A, B, spec, seed=3, samples=20000)
    assert r1.to_json() == r2.to_json()


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
    # on every path, and for pairwise_gram too; budget=1 and samples=1 stay valid
    A, B = example_pair()
    faithful = ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful")
    generic = ps.PsdMatrix(np.diag([2.0, 1.0, 0.5, 0.0, 0.0]))
    for spec in (GEO_GEO, faithful):
        for kw in ({"samples": -5}, {"samples": 0}, {"budget": 0}, {"budget": -3}):
            for a, b in ((A, B), (A, generic)):
                with pytest.raises(ps.DomainError, match=">= 1"):
                    ps.gd(a, b, spec, **kw)
            for mats in ([A, B], [A]):
                with pytest.raises(ps.DomainError, match=">= 1"):
                    ps.pairwise_gram(mats, spec, **kw)
    assert ps.gd(A, B, faithful, samples=1).stratum_index == 2
    assert ps.gd(A, B, GEO_GEO, budget=1).stratum_index == 2


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


def test_pairwise_error_context():
    rng = np.random.default_rng(16)
    good = rand_psd_rank(rng, 4, 2)
    zero = ps.PsdMatrix(np.zeros((4, 4)))
    with pytest.raises(ps.DomainError, match=r"pair \(0, 1\)"):
        ps.pairwise_gram([good, zero], GEO_GEO)


def test_result_serialization():
    A, B = example_pair()
    res = ps.gd(A, B, ps.MetricSpec(GM.MARTIN, FD.geodesic()), budget=4)
    assert math.isinf(res.grassmann_term)
    text = res.to_json()
    assert '"grassmann_term": Infinity' in text
    assert '"mode": "optimizedDegenerate"' in text
    d = res.to_dict()
    assert d["stratum_index"] == 2 and len(d["angles"]) == 3


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


def _degenerate_pair(rng, n, r, s, l, complex_field=False):
    """Ranks r <= s in F^n whose ranges have exactly l right principal angles."""
    G = rng.normal(size=(n, n))
    if complex_field:
        G = G + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(G)
    theta = rng.uniform(0.2, 1.2, size=r - l)
    tilted = Q[:, : r - l] * np.cos(theta) + Q[:, r : 2 * r - l] * np.sin(theta)
    frames = (Q[:, :r], np.hstack([tilted, Q[:, 2 * r - l : r + s]]))
    mats = []
    for F in frames:
        M = (F * rng.uniform(0.5, 2.0, size=F.shape[1])) @ F.conj().T
        mats.append(ps.PsdMatrix(0.5 * (M + M.conj().T)))
    return mats


def test_worked_example_complex_dtype():
    A = ps.PsdMatrix(EXAMPLE_A.astype(complex))
    B = ps.PsdMatrix(EXAMPLE_B.astype(complex))
    for budget in (1, 2, 16):
        res = ps.gd(A, B, GEO_GEO, budget=budget)
        assert res.stratum_index == 2
        assert abs(res.fiber_term**2 - 4 * math.log(2) ** 2) <= 1e-9


def test_real_pair_cast_to_complex_agrees():
    rng = np.random.default_rng(22)
    A, B = _degenerate_pair(rng, 10, 4, 5, 2)
    Ac, Bc = (ps.PsdMatrix(M.entries.astype(complex)) for M in (A, B))
    for fiber in ("geo", "geoab:1,0.25"):
        spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber))
        real, cplx = ps.gd(A, B, spec), ps.gd(Ac, Bc, spec)
        assert real.stratum_index == cplx.stratum_index == 2
        assert abs(real.fiber_term - cplx.fiber_term) <= 1e-8


def test_complex_degenerate_pairs_are_evaluated():
    rng = np.random.default_rng(23)
    for r, s, l in ((3, 4, 1), (4, 5, 2), (3, 5, 2), (4, 6, 3)):
        A, B = _degenerate_pair(rng, 12, r, s, l, complex_field=True)
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
    Cih = ps.geodist._inv_half(C)
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
    A, B = _degenerate_pair(rng, 8, 3, 5, 2, complex_field)
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
            want = ps.generalized_hausdorff(lambda X, Y: ps.pointset_minus(fiber, X, Y).value,
                                            ps.representation_set(A, B, grid=64))
            assert res.stratum_index == 0
            assert abs(res.fiber_term - want) <= 1e-12 * want, (n, r, s, fiber.kind)


@pytest.mark.parametrize("pair", ["worked", "complex", "tol_rank"])
def test_faithful_degenerate_value_is_the_representation_set_value(pair):
    # faithful mode and representation_set draw the same frames, so the
    # sampled max-min is the Hausdorff value over that set
    if pair == "worked":
        A, B = example_pair()
    elif pair == "complex":
        A, B = _degenerate_pair(np.random.default_rng(28), 7, 3, 4, 2, complex_field=True)
    else:
        # the worked pair with B's range tilted toward A's: principal cosines
        # 1, 1e-8, 1e-8, two right angles at tol_rank 1e-6 but none at 1e-10
        c, s = math.cos(1e-8), math.sin(1e-8)
        R = np.eye(5)
        R[np.ix_([1, 3], [1, 3])] = R[np.ix_([2, 4], [2, 4])] = [[c, -s], [s, c]]
        A, B = (ps.PsdMatrix(M, tol_rank=1e-6) for M in (EXAMPLE_A, R @ EXAMPLE_B @ R.T))
    for fiber in (FD.geodesic(), FD.kl()):
        for samples, seed in ((1, 0), (50, 3), (300, 7)):
            res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"),
                        samples=samples, seed=seed)
            want = ps.generalized_hausdorff(
                lambda X, Y: ps.pointset_minus(fiber, X, Y).value,
                ps.representation_set(A, B, grid=samples, seed=seed))
            assert res.stratum_index == 2
            assert abs(res.fiber_term - want) <= 1e-12 * want, (pair, fiber.kind, samples)


def test_real_sup_is_at_most_the_complex_sup():
    # for real inputs algorithm1 ranges over O(k), a documented choice; over
    # U(k) the sup can be strictly larger. The pair is the ninth draw of
    # bench/workloads._degenerate_pair(default_rng(5), 12, r, s, l), with
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


def test_faithful_degenerate_decomposes_c_once(monkeypatch):
    # every left frame G uses C^-1/2 G* in place of (G C G*)^-1/2
    A, B = example_pair()
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, FD.geodesic(), "faithful"), samples=20000)
    assert res.stratum_index == 2
    assert eigh["n"] == 1
