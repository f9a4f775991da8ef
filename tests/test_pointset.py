"""Cross-dimensional point-set values, optimal representatives, oracles."""

import itertools
import math

import numpy as np
import pytest

import psdsim as ps
from psdsim import FiberDivergence as FD
from helpers import (
    count_calls,
    family_specs,
    min_quadratic_box_enumerated,
    rand_pd,
    rand_psd_rank,
)
from reference import _phi_batch, oracle_min_over_omega


def rand_pair(rng, r, s, lo=0.5, hi=2.5):
    return rand_pd(rng, r, lo, hi), rand_pd(rng, s, lo, hi)


def test_zero_when_corner_matches():
    rng = np.random.default_rng(0)
    C = rand_pd(rng, 2)
    D = np.zeros((3, 3))
    D[:2, :2] = C
    D[2, 2] = 1.7
    for spec in family_specs():
        assert abs(ps.pointset_minus(spec, C, D).value) <= 1e-9
        assert abs(ps.pointset_plus(spec, C, D).value) <= 1e-9


def test_geodesic_clamps_small_eigenvalues_to_zero_value():
    C = np.eye(2)
    D = np.diag([1.0, 0.5, 1.0])
    v = ps.pointset_minus(FD.geodesic(), C, D)
    assert v.value == 0.0
    assert np.allclose(v.clamped_spectrum, [1.0, 1.0])
    # the optimum is confirmed by the independent minimizer
    assert oracle_min_over_omega(FD.geodesic(), C, D, budget=8) <= 1e-6


def test_geodesic_unclamped_closed_form():
    C = np.eye(2)
    D = np.diag([4.0, 2.0])
    want = math.sqrt(math.log(4.0) ** 2 + math.log(2.0) ** 2)
    assert abs(ps.pointset_minus(FD.geodesic(), C, D).value - want) <= 1e-12
    got = oracle_min_over_omega(FD.geodesic(), C, D, budget=16)
    assert abs(got - want) <= 1e-6


def test_kl_clamped_scalar_case():
    v = ps.pointset_plus(FD.kl(), 2.0 * np.eye(1), np.diag([1.0, 5.0]))
    assert v.value == 0.0


def test_half_half_closed_form_value():
    # lambda = e^2 twice; per-eigenvalue term 4 log((e + 1/e)/2)
    C = np.eye(2)
    D = math.e**2 * np.eye(2)
    want = 8.0 * math.log((math.e + math.exp(-1.0)) / 2.0)
    assert abs(ps.pointset_minus(FD.bhattacharyya(), C, D).value - want) <= 1e-12


def test_value_recomputes_from_clamped_spectrum():
    rng = np.random.default_rng(1)
    for spec in family_specs():
        C, D = rand_pair(rng, 2, 3)
        v = ps.pointset_minus(spec, C, D)
        total = float(np.sum(ps.divergences.per_eigenvalue_terms(spec, v.clamped_spectrum)))
        redo = total**spec.outer_exponent if total > 0 else 0.0
        assert abs(v.value - redo) <= 1e-12


def test_minus_equals_plus_and_matches_oracles():
    rng = np.random.default_rng(2)
    for spec in family_specs()[:4]:
        C, D = rand_pair(rng, 2, 3)
        a = ps.pointset_minus(spec, C, D).value
        b = ps.pointset_plus(spec, C, D).value
        assert a == b
        om = oracle_min_over_omega(spec, C, D, side="minus", budget=16)
        op = oracle_min_over_omega(spec, C, D, side="plus", budget=16)
        assert abs(a - om) <= 1e-5 * (1 + abs(om))
        assert abs(a - op) <= 1e-4 * (1 + abs(op))


def test_rank_order_rejected():
    rng = np.random.default_rng(3)
    C, D = rand_pd(rng, 3), rand_pd(rng, 2)
    with pytest.raises(ps.DomainError):
        ps.pointset_minus(FD.kl(), C, D)


def test_value_from_spectrum_rejects_non_positive_spectra():
    # a non-positive spectrum comes from no positive definite pair; it is not clamped
    for mu in ([2.0, -1.0], [-3.0, -4.0], [1.5, 0.0]):
        with pytest.raises(ps.DomainError, match="positive"):
            ps.pointset.pointset_value_from_spectrum(FD.kl(), mu)
    # nor floored, on any gd path: they all map spectra through _spectrum_values
    for spec, mu in ((FD.kl(), [2.0, -1.0]), (FD.geodesic_ab(1.0, 0.25), [2.0, 0.0])):
        with pytest.raises(ps.DomainError, match="positive"):
            ps.pointset._spectrum_values(spec, np.array(mu))
    value = ps.pointset.pointset_value_from_spectrum(FD.kl(), [2.0, 0.5]).value
    assert abs(value - 0.5 * (0.5 + math.log(2.0) - 1.0)) <= 1e-15


def test_value_from_spectrum_takes_one_spectrum():
    # it returns one PointSetValue, so a stack of spectra (or a scalar) is
    # rejected by shape rather than by a failed float conversion, and an
    # empty spectrum (rank 0) is rejected like every zero-rank input
    for mu in ([[2.0, 1.0], [3.0, 1.0]], 2.0):
        with pytest.raises(ps.DomainError, match="shape"):
            ps.pointset.pointset_value_from_spectrum(FD.kl(), mu)
    with pytest.raises(ps.DomainError, match="rank-0"):
        ps.pointset.pointset_value_from_spectrum(FD.kl(), [])


def test_two_parameter_family_needs_dedicated_path():
    rng = np.random.default_rng(4)
    C, D = rand_pair(rng, 2, 3)
    with pytest.raises(ps.DomainError):
        ps.pointset_minus(FD.geodesic_ab(1.0, 0.5), C, D)


# --- two-parameter quadratic program ----------------------------------


def test_qp_beta_zero_reduces_to_clamped_form():
    rng = np.random.default_rng(5)
    C, D = rand_pair(rng, 2, 4)
    alpha = 1.7
    got = ps.alpha_beta_pointset(C, D, alpha, 0.0, side="minus")
    base = ps.pointset_minus(FD.geodesic(), C, D).value
    assert abs(got - math.sqrt(alpha) * base) <= 1e-10
    assert abs(ps.alpha_beta_pointset(C, D, alpha, 0.0, side="plus") - got) <= 1e-10
    # the value comes from the route gd takes: at beta = 0, the per-eigenvalue
    # sum of pointset_minus bit for bit, also where NumPy sums 8 or more
    # terms pairwise
    for seed in range(4):
        rng = np.random.default_rng(seed)
        C, D = rand_pd(rng, 9, 0.5, 2.5), 4.0 * rand_pd(rng, 10, 0.5, 2.5)
        want = ps.pointset_minus(FD.geodesic_ab(alpha, 0.0), C, D).value
        for side in ("minus", "plus"):
            assert ps.alpha_beta_pointset(C, D, alpha, 0.0, side=side) == want, (seed, side)


def test_qp_equal_rank_sides_agree():
    rng = np.random.default_rng(6)
    for _ in range(10):
        C, D = rand_pair(rng, 3, 3)
        a = ps.alpha_beta_pointset(C, D, 1.0, 0.8, side="minus")
        b = ps.alpha_beta_pointset(C, D, 1.0, 0.8, side="plus")
        assert abs(a - b) <= 1e-8


def test_qp_plus_never_exceeds_minus():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(r, 5))
        C, D = rand_pair(rng, r, s)
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(-alpha / (s + 1), 2.0))
        mi = ps.alpha_beta_pointset(C, D, alpha, beta, side="minus")
        pl = ps.alpha_beta_pointset(C, D, alpha, beta, side="plus")
        assert pl <= mi + 1e-10


def test_qp_strict_gap_for_coupled_unequal_ranks():
    # pencil eigenvalue e gives log lambda = 1: the one-variable program
    # yields sqrt(2), the two-variable relaxation sqrt(3/2)
    C = np.eye(1)
    D = np.diag([math.e, 1.0])
    mi = ps.alpha_beta_pointset(C, D, 1.0, 1.0, side="minus")
    pl = ps.alpha_beta_pointset(C, D, 1.0, 1.0, side="plus")
    assert abs(mi - math.sqrt(2.0)) <= 1e-12
    assert abs(pl - math.sqrt(1.5)) <= 1e-12
    assert mi - pl > 1e-3


def test_qp_parameter_region():
    # each side's program is convex for beta > -alpha/m over its m variables:
    # m = r = 1 on the minus side, m = s = 2 on the plus side
    C, D = np.eye(1), np.eye(2)
    with pytest.raises(ps.DomainError):
        ps.alpha_beta_pointset(C, D, -1.0, 0.0)
    with pytest.raises(ps.DomainError):
        ps.alpha_beta_pointset(C, D, 1.0, -0.6, side="plus")
    with pytest.raises(ps.DomainError):
        ps.alpha_beta_pointset(C, D, 1.0, -1.0)
    with pytest.raises(ps.DomainError, match="^unknown side 'both'$"):
        ps.alpha_beta_pointset(C, D, 1.0, 0.0, side="both")
    for alpha, beta in ((1.0, math.inf), (math.inf, 1.0), (1.0, math.nan)):
        for side in ("minus", "plus"):
            with pytest.raises(ps.DomainError, match="finite"):
                ps.alpha_beta_pointset(C, D, alpha, beta, side=side)


def test_qp_minus_side_has_the_region_of_gd():
    # for -alpha/r < beta <= -alpha/s the r-variable minus program is
    # defined, and equals gd's fiber term and the oracle; the s-variable plus
    # program is not convex there
    rng = np.random.default_rng(22)
    pairs = [(np.diag([1.0, 2.0]), np.diag([3.0, 0.5, 1.0, 2.0])),
             (rand_pd(rng, 2), rand_pd(rng, 4, 0.3, 3.0))]
    for C, D in pairs:
        A = ps.PsdMatrix(np.pad(C, (0, 2)))
        for alpha, beta in ((1.0, -0.3), (1.0, -0.25), (2.0, -0.9), (0.5, -0.2)):
            spec = FD.geodesic_ab(alpha, beta)
            want = ps.alpha_beta_pointset(C, D, alpha, beta, side="minus")
            got = ps.gd(A, ps.PsdMatrix(D), ps.MetricSpec(ps.GrassmannMetric.GEODESIC, spec))
            assert got.stratum_index == 0
            assert abs(got.fiber_term - want) <= 1e-12 * want, (alpha, beta)
            assert abs(oracle_min_over_omega(spec, C, D, side="minus") - want) <= 1e-8
            with pytest.raises(ps.DomainError, match="alpha/4"):
                ps.alpha_beta_pointset(C, D, alpha, beta, side="plus")


def test_qp_exact_at_large_beta():
    # S_j = A_j + (r - j) x_j cancelled and alpha + (s - r) beta overflowed:
    # large beta gave wrong values, "no KKT point" or overflow warnings. The
    # program is solved at (a, b) = (alpha, beta) / max(alpha, |beta|)
    qp, unit = ps.pointset._min_quadratic_box, ps.divergences._unit_scaled
    rng = np.random.default_rng(23)
    cs = [np.log([3.0, 0.5, 0.5, 0.5]), np.array([1.0, 1.0])]
    for _ in range(400):
        r = int(rng.integers(2, 7))
        cs.append(np.sort(rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=r))[::-1])
    for c in cs:
        ref = qp(*unit(1.0, 1e12)[:2], c)[0] * 1e12
        for beta in (1e14, 1e16, 1e30, 1e100, 1e300, 1e308):
            a, b, scale = unit(1.0, beta)
            got = qp(a, b, c)[0]
            # with sum(c) < 0 the optimum keeps free variables and converges
            # as beta grows; otherwise t = c is optimal
            want = ref / scale if c.sum() < 0.0 else a * np.sum(c * c) + b * c.sum() ** 2
            assert abs(got - want) <= 1e-9 * want, (c, beta)
    C, D = np.diag([1.0, 2.0]), np.diag([3.0, 0.5, 1.0, 2.0])
    for side in ("minus", "plus"):
        ref = ps.alpha_beta_pointset(C, D, 1.0, 1e12, side=side)
        for k in range(12, 309):
            got = ps.alpha_beta_pointset(C, D, 1.0, 10.0**k, side=side)
            assert abs(got - ref) <= 1e-9 * ref, (side, k)


def test_qp_at_underflowing_alpha():
    # alpha / beta = 1e-328 underflows to a = 0; the candidate with no free
    # variable takes S = A instead of 0/0, so it stays a KKT point
    C, D = np.eye(2), np.diag([30.0, 5.0, 1.0])
    minus = ps.alpha_beta_pointset(C, D, 1e-20, 1e308, side="minus")
    assert abs(minus - math.log(150.0) * 1e154) <= 1e-15 * minus
    # the plus side's coupling is 1e-20, so its scale is 1e-20
    plus = ps.alpha_beta_pointset(C, D, 1e-20, 1e308, side="plus")
    assert plus == 6.266171085555261e-164 * math.sqrt(1e308)
    # at r = s the plus side has no free variable and no coupling to form
    D = np.diag([30.0, 5.0])
    for side in ("minus", "plus"):
        assert ps.alpha_beta_pointset(C, D, 1e-20, 1e308, side=side) == minus



def test_qp_prefix_scan_matches_enumeration():
    rng = np.random.default_rng(20)
    for _ in range(400):
        r = int(rng.integers(1, 11))
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-0.95 * alpha / r, 2.0 * alpha))
        c = np.sort(rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=r))[::-1]
        want = min_quadratic_box_enumerated(alpha, beta, c)
        got, t = ps.pointset._min_quadratic_box(alpha, beta, c)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
        assert np.all(t >= c - 1e-12)
        assert abs(alpha * np.sum(t * t) + beta * t.sum() ** 2 - got) <= 1e-12 * max(1.0, got)
    # a stack of programs is solved row by row
    c = -np.sort(-rng.normal(size=(50, 6)), axis=-1)
    got, _ = ps.pointset._min_quadratic_box(1.0, -0.1, c)
    want = [min_quadratic_box_enumerated(1.0, -0.1, row) for row in c]
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, max(want))


def test_two_parameter_fiber_above_rank_16():
    # the enumeration refused more than 16 variables; the scan has no cap
    rng = np.random.default_rng(21)
    A, B = rand_psd_rank(rng, 60, 20), rand_psd_rank(rng, 60, 20)
    spec = ps.MetricSpec(ps.GrassmannMetric.GEODESIC, ps.parse_divergence("geoab:1,0.25"))
    res = ps.gd(A, B, spec)
    assert res.mode == "closedForm" and math.isfinite(res.fiber_term) and res.fiber_term > 0.0


# --- optimal representatives ------------------------------------------


def test_projection_copies_corner_when_spectrum_large():
    rng = np.random.default_rng(8)
    C = np.eye(2)
    D = np.zeros((3, 3))
    D[:2, :2] = np.diag([4.0, 2.0])
    D[2, 2] = 1.0
    w = ps.project_minus(C, D)
    assert np.array_equal(w.dminus, D[:2, :2])
    assert np.allclose(w.lam, [4.0, 2.0])


def test_projection_identity_base_specialization():
    rng = np.random.default_rng(9)
    D = rand_pd(rng, 3, 0.2, 3.0)
    w = ps.project_minus(np.eye(3), D)
    lam_raw, V = ps.hermitian_eig(D)
    want = (V * np.maximum(1.0, lam_raw)) @ V.T
    assert np.abs(w.dminus - want).max() <= 1e-9


def test_projection_full_clamp():
    rng = np.random.default_rng(10)
    C = rand_pd(rng, 2)
    D = np.zeros((3, 3))
    D[:2, :2] = C / 2.0
    D[2, 2] = 1.0
    w = ps.project_minus(C, D)
    assert np.abs(w.dminus - C).max() <= 1e-9


def test_projection_witness_invariants_and_optimality():
    rng = np.random.default_rng(11)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(r, 5))
        C, D = rand_pair(rng, r, s)
        w = ps.project_minus(C, D)
        # feasible: dominates the corner block
        gap = np.linalg.eigvalsh(w.dminus - D[:r, :r]).min()
        assert gap >= -1e-9
        # achieves the closed-form value for every family
        for spec in family_specs():
            want = ps.pointset_minus(spec, C, D).value
            got = ps.divergence(spec, C, w.dminus)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_whitening_of_identity_target():
    rng = np.random.default_rng(12)
    C = rand_pd(rng, 2)
    Z = ps.lift_plus(C, np.eye(4)).Z
    assert np.abs(Z @ np.eye(4) @ Z.T - np.eye(4)).max() <= 1e-9
    assert np.abs(Z[2:, :2]).max() <= 1e-12  # no coupling block
    assert np.abs(Z[2:, 2:] - np.eye(2)).max() <= 1e-12


def test_whitening_residual_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(r, 5))
        C, D = rand_pair(rng, r, s)
        Z = ps.lift_plus(C, D).Z
        assert np.abs(Z @ D @ Z.T - np.eye(s)).max() <= 1e-9


def test_whitening_coupling_block_small_case():
    C = np.eye(1)
    D = np.array([[4.0, 1.0], [1.0, 1.0]])
    Z = ps.lift_plus(C, D).Z
    W = (1.0 - 1.0 / 4.0) ** -0.5
    assert abs(Z[1, 0] - (-W * 1.0 / 4.0)) <= 1e-12
    assert abs(Z[1, 1] - W) <= 1e-12
    assert np.abs(Z @ D @ Z.T - np.eye(2)).max() <= 1e-12


def test_lift_copies_target_when_feasible():
    # lambda(D11^{-1} C) >= 1 everywhere makes D itself the optimum
    C = 4.0 * np.eye(2)
    D = np.diag([1.0, 2.0, 3.0])
    w = ps.lift_plus(C, D)
    assert np.array_equal(w.cplus, D)
    assert np.allclose(w.lam, 1.0)


def test_lift_witness_invariants_and_optimality():
    rng = np.random.default_rng(14)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(r, 5))
        C, D = rand_pair(rng, r, s)
        w = ps.lift_plus(C, D)
        assert np.abs(w.Z @ D @ w.Z.T - np.eye(s)).max() <= 1e-9
        assert np.abs(w.Z @ w.cplus @ w.Z.T - np.diag(w.lam)).max() <= 1e-9
        # upper-left block stays below C
        gap = np.linalg.eigvalsh(C - w.cplus[:r, :r]).min()
        assert gap >= -1e-9
        for spec in family_specs():
            want = ps.pointset_plus(spec, C, D).value
            got = ps.divergence(spec, w.cplus, D)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_monotone_transform_commutes_with_pointset():
    rng = np.random.default_rng(15)
    C, D = rand_pair(rng, 2, 3)
    for spec in family_specs():
        raw = ps.pointset_minus(spec, C, D).value
        ratio = ps.pointset_minus(spec.with_bound("ratio"), C, D).value
        assert abs(ratio - raw / (1 + raw)) <= 1e-12
        clamped = ps.pointset_minus(spec.with_bound("clamp", 0.01), C, D).value
        assert abs(clamped - min(0.01, raw)) <= 1e-15


def test_minimizer_level_set_is_not_unique():
    # a one-parameter feasible family all at the same divergence from the
    # base, strictly above the true optimum of the containment set
    C = np.eye(2)
    D = np.diag([1.0, 0.5, 1.0])
    geo = FD.geodesic()
    vals = []
    for eps in np.linspace(0.0, math.sqrt(2) / 2, 7):
        X = np.diag([2.0**eps, 2.0 ** math.sqrt(1 - eps**2)])
        assert np.linalg.eigvalsh(X - D[:2, :2]).min() >= -1e-12  # feasible
        vals.append(ps.divergence(geo, C, X))
    assert np.abs(np.array(vals) - math.log(2.0)).max() <= 1e-12
    assert ps.pointset_minus(geo, C, D).value == 0.0  # the optimum is lower
    # and the mirrored family inside the other containment set
    for eps in np.linspace(-1.0, 0.0, 7):
        Y = np.diag([2.0 ** -math.sqrt(-2 * eps - eps**2), 2.0**eps, 1.0])
        assert np.linalg.eigvalsh(C - Y[:2, :2]).min() >= -1e-12
        assert abs(ps.divergence(geo, Y, D) - math.log(2.0)) <= 1e-12


def test_oracle_guardrails():
    rng = np.random.default_rng(16)
    C, D = rand_pd(rng, 6), rand_pd(rng, 6)
    with pytest.raises(ps.DomainError):
        oracle_min_over_omega(FD.kl(), C, D)
    with pytest.raises(ps.DomainError):
        oracle_min_over_omega(FD.kl(), np.eye(2), np.eye(3), side="sideways")


def test_eigendecomposition_counts(monkeypatch):
    # each entry point decomposes C and D once (the validation) and its own
    # pencil once; lift_plus adds the D11 and Schur-complement powers
    counts = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
    rng = np.random.default_rng(20)
    C, D = rand_pd(rng, 2), rand_pd(rng, 4)
    calls = {
        "pointset_minus": (lambda: ps.pointset_minus(FD.kl(), C, D), 3),
        "pointset_plus": (lambda: ps.pointset_plus(FD.kl(), C, D), 3),
        "alpha_beta_pointset": (lambda: ps.alpha_beta_pointset(C, D, 1.0, 0.25), 3),
        "project_minus": (lambda: ps.project_minus(C, D), 3),
        "lift_plus": (lambda: ps.lift_plus(C, D), 5),
    }
    for name, (call, want) in calls.items():
        counts["n"] = 0
        call()
        assert counts["n"] == want, name


@pytest.mark.parametrize("complex_field", [False, True])
def test_representatives_are_their_input_plus_a_psd_correction(monkeypatch, complex_field):
    # each representative is its input plus (project_minus) or minus
    # (lift_plus) the clamp's PSD correction, from the decompositions
    # test_eigendecomposition_counts pins and no inverse or solve; the pencil
    # straddles 1, so both corrections are nonzero
    rng = np.random.default_rng(27)
    C, D = rand_pd(rng, 3, 0.3, 3.0), rand_pd(rng, 5, 0.3, 3.0)
    if complex_field:
        C, D = (M + 0.1j * (R - R.T) for M, R in ((C, rng.normal(size=(3, 3))),
                                                   (D, rng.normal(size=(5, 5)))))
    mu = ps.pencil_eigenvalues(C, D[:3, :3])
    assert mu.min() < 0.9 and mu.max() > 1.1, mu
    eig = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
    inv = count_calls(monkeypatch, np.linalg, "inv", "solve")
    for call, want in ((ps.project_minus, 3), (ps.lift_plus, 5)):
        eig["n"] = inv["n"] = 0
        call(C, D)
        assert (eig["n"], inv["n"]) == (want, 0), call.__name__
    tol = 1e-14 * np.abs(D).max()
    dminus, cplus = ps.project_minus(C, D).dminus, ps.lift_plus(C, D).cplus
    assert np.linalg.eigvalsh(dminus - D[:3, :3]).min() >= -tol
    assert np.linalg.eigvalsh(D - cplus).min() >= -tol
    assert np.linalg.eigvalsh(dminus - D[:3, :3]).max() > 0.1
    assert np.linalg.eigvalsh(D - cplus).max() > 0.1


@pytest.mark.parametrize("complex_field", [False, True])
def test_derived_matrices_are_not_judged_by_the_caller_rule(monkeypatch, complex_field):
    # only the caller's C and D pass check_pd (and so check_hermitian); the
    # matrices the representatives derive from them (D11^{-1/2}, the Schur
    # complement's ^{-1/2} and the two pencils) keep the lambda <= 0 guard
    rng = np.random.default_rng(26)
    C, D = rand_pd(rng, 2), rand_pd(rng, 4)
    if complex_field:
        C, D = (M + 0.1j * (R - R.T) for M, R in ((C, rng.normal(size=(2, 2))),
                                                   (D, rng.normal(size=(4, 4)))))
    pd_linalg = count_calls(monkeypatch, ps.linalg, "check_pd")
    pd_pointset = count_calls(monkeypatch, ps.pointset, "check_pd")
    herm = count_calls(monkeypatch, ps.linalg, "check_hermitian")
    for call in (ps.project_minus, ps.lift_plus):
        for c in (pd_linalg, pd_pointset, herm):
            c["n"] = 0
        call(C, D)
        assert pd_linalg["n"] + pd_pointset["n"] == 2, call.__name__
        assert herm["n"] == 2, call.__name__


def test_oracle_two_parameter_minus_matches_qp():
    rng = np.random.default_rng(21)
    for r, s in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)):
        C, D = rand_pd(rng, r), rand_pd(rng, s, 0.8, 2.5)
        for beta in (0.25, 1.0, -0.3):
            spec = FD.geodesic_ab(1.5, beta)
            want = ps.alpha_beta_pointset(C, D, 1.5, beta, side="minus")
            assert want > 0.0
            got = oracle_min_over_omega(spec, C, D, side="minus")
            assert abs(got - want) <= 1e-8, (r, s, beta)


def _descent_calls(monkeypatch, wrap):
    """Run the oracle's descents with each objective-gradient map fg
    replaced by wrap(fg)."""
    descend = ps.linalg._descend
    monkeypatch.setattr("reference._descend",
                        lambda fg, retract, X, max_iter: descend(wrap(fg), retract, X, max_iter))


def test_oracle_plus_decomposes_each_candidate_once(monkeypatch):
    # one objective evaluation of a stack of candidates Y: its pencils, once
    eig = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
    per_call = []

    def wrap(fg):
        def counted(x):
            before = eig["n"]
            out = fg(x)
            per_call.append(eig["n"] - before)
            return out

        return counted

    _descent_calls(monkeypatch, wrap)
    C, D = np.diag([1.0, 2.0]), rand_pd(np.random.default_rng(26), 4)
    oracle_min_over_omega(FD.kl(), C, D, side="plus", budget=4)
    assert per_call and max(per_call) <= 2


def test_oracle_gradients_match_central_differences(monkeypatch):
    # both sides' analytic gradients, at a perturbed random start, against
    # central differences in every coordinate
    seen = []
    _descent_calls(monkeypatch, lambda fg: seen.append(fg) or fg)
    rng = np.random.default_rng(27)
    h, checked = 1e-5, 0
    for text in ("kl", "geo", "ab:1,0.5", "is:0.5", "geoab:1.5,0.25"):
        spec = ps.parse_divergence(text)
        for r, s in ((1, 3), (2, 2), (2, 3), (3, 4)):
            C, D = rand_pair(rng, r, s)
            for side in ("minus", "plus"):
                seen.clear()
                oracle_min_over_omega(spec, C, D, side=side, budget=2, seed=1)
                fg = seen[0]
                n = {"minus": r * (r + 1) // 2, "plus": r * s + (s - r) * (s - r + 1) // 2}[side]
                x = 0.5 * rng.normal(size=n)
                f, g = fg(x[None])
                if not np.isfinite(f[0]):
                    continue
                steps = h * np.eye(n)
                fd = (fg(x + steps)[0] - fg(x - steps)[0]) / (2.0 * h)
                assert np.linalg.norm(fd - g[0]) <= 1e-5 * np.linalg.norm(g[0]), (text, r, s, side)
                checked += 1
    assert checked >= 30


def test_oracle_plus_overflow_stays_silent():
    # on this r = 1, s = 4 pair the plus-side descent meets near-singular Y,
    # where the chain-rule gradient overflows; RuntimeWarnings are errors here
    rng = np.random.default_rng(11)
    for _ in range(8):
        r = rng.integers(1, 4)
        s = rng.integers(r, 5)
        G = rng.normal(size=(r, r))
        C = G @ G.T + 0.3 * np.eye(r)
        G = rng.normal(size=(s, s))
        D = 3.0 * G @ G.T + 0.3 * np.eye(s)
    assert (r, s) == (1, 4)
    spec = FD.burg(0.7)
    got = oracle_min_over_omega(spec, C, D, side="plus", budget=8, seed=7)
    want = ps.pointset_plus(spec, C, D).value
    assert abs(got - want) <= 1e-10 * want


def test_phi_batch_masks_exactly_the_rows_outside_the_domain():
    # Itakura-Saito at alpha = 1 needs log(lambda) < 1 on every entry
    spec = FD.itakura_saito(1.0)
    lam = np.array([[2.0, 0.5], [4.0, 1.0], [1.5, 1.2], [0.2, 0.0], [1.1, 0.3]])
    phi, dphi = _phi_batch(spec, lam)
    bad = np.array([False, True, False, True, False])
    assert np.all(np.isinf(phi[bad])) and np.all(dphi[bad] == 0.0)
    for row, p, d in zip(lam[~bad], phi[~bad], dphi[~bad]):
        want_p, want_d = ps.divergences._objective(spec, row, with_grad=True)
        assert p == want_p and np.array_equal(d, want_d)


def test_a_certified_box_holds_no_undefined_spectrum():
    # every spectrum in a box _defined_on_box certifies has a finite value:
    # descending draws, log-uniform in the box, and its two corners
    rng = np.random.default_rng(32)
    specs = family_specs() + [spec.with_sym() for spec in family_specs()]
    specs += [FD.geodesic_ab(1.0, 0.25), FD.geodesic_ab(1.0, -0.4)]
    edges = (1e-300, 1e-6, 0.1, 0.5, 1.0, 2.0, 7.38, 7.4, 30.0, 1e3, 1e100, 1e300)
    certified = 0
    for spec in specs:
        for r in (1, 2, 3):
            for lo, hi in itertools.combinations(edges, 2):
                if not ps.pointset._defined_on_box(spec, lo, hi, r):
                    continue
                certified += 1
                mu = np.exp(rng.uniform(math.log(lo), math.log(hi), size=(100, r)))
                mu = np.concatenate([-np.sort(-mu, axis=1), [[hi] * r, [lo] * r]])
                assert np.isfinite(ps.pointset._spectrum_values(spec, mu)).all(), (spec, lo, hi)
    assert certified > len(specs) * 30
    # the rule is not vacuous: is:0.5 is undefined from e^2 = 7.389 on, and
    # geoab:1,-0.4 on three eigenvalues, outside its region beta > -alpha/3
    box = ps.pointset._defined_on_box
    assert box(FD.itakura_saito(0.5), 0.5, 7.38, 3) and not box(FD.itakura_saito(0.5), 0.5, 7.4, 3)
    assert box(FD.geodesic_ab(1.0, -0.4), 0.5, 2.0, 2)
    assert not box(FD.geodesic_ab(1.0, -0.4), 0.5, 2.0, 3)
    assert not box(FD.geodesic(), 0.0, 2.0, 3) and not box(FD.geodesic(), 1e-11, 1.0, 3)
