"""Cross-dimensional point-set values, optimal representatives, oracles."""

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
    assert ps.oracle_min_over_omega(FD.geodesic(), C, D, budget=8) <= 1e-6


def test_geodesic_unclamped_closed_form():
    C = np.eye(2)
    D = np.diag([4.0, 2.0])
    want = math.sqrt(math.log(4.0) ** 2 + math.log(2.0) ** 2)
    assert abs(ps.pointset_minus(FD.geodesic(), C, D).value - want) <= 1e-12
    got = ps.oracle_min_over_omega(FD.geodesic(), C, D, budget=16)
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
        om = ps.oracle_min_over_omega(spec, C, D, side="minus", budget=16)
        op = ps.oracle_min_over_omega(spec, C, D, side="plus", budget=16)
        assert abs(a - om) <= 1e-5 * (1 + abs(om))
        assert abs(a - op) <= 1e-4 * (1 + abs(op))


def test_rank_order_rejected():
    rng = np.random.default_rng(3)
    C, D = rand_pd(rng, 3), rand_pd(rng, 2)
    with pytest.raises(ps.DomainError):
        ps.pointset_minus(FD.kl(), C, D)


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
    C, D = np.eye(1), np.eye(2)
    with pytest.raises(ps.DomainError):
        ps.alpha_beta_pointset(C, D, -1.0, 0.0)
    with pytest.raises(ps.DomainError):
        ps.alpha_beta_pointset(C, D, 1.0, -0.6)


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
    Z = ps.whitening_factor(C, np.eye(4))
    assert np.abs(Z @ np.eye(4) @ Z.T - np.eye(4)).max() <= 1e-9
    assert np.abs(Z[2:, :2]).max() <= 1e-12  # no coupling block
    assert np.abs(Z[2:, 2:] - np.eye(2)).max() <= 1e-12


def test_whitening_residual_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(r, 5))
        C, D = rand_pair(rng, r, s)
        Z = ps.whitening_factor(C, D)
        assert np.abs(Z @ D @ Z.T - np.eye(s)).max() <= 1e-9


def test_whitening_coupling_block_small_case():
    C = np.eye(1)
    D = np.array([[4.0, 1.0], [1.0, 1.0]])
    Z = ps.whitening_factor(C, D)
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
        ps.oracle_min_over_omega(FD.kl(), C, D)
    with pytest.raises(ps.DomainError):
        ps.oracle_min_over_omega(FD.kl(), np.eye(2), np.eye(3), side="sideways")


def test_eigendecomposition_counts(monkeypatch):
    # each entry point decomposes C and D once (the validation) and its own
    # pencil once; lift_plus adds the D11 and Schur-complement powers
    counts = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, **kwargs):
            counts["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
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


def test_oracle_two_parameter_minus_matches_qp():
    rng = np.random.default_rng(21)
    for r, s in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)):
        C, D = rand_pd(rng, r), rand_pd(rng, s, 0.8, 2.5)
        for beta in (0.25, 1.0, -0.3):
            spec = FD.geodesic_ab(1.5, beta)
            want = ps.alpha_beta_pointset(C, D, 1.5, beta, side="minus")
            assert want > 0.0
            got = ps.oracle_min_over_omega(spec, C, D, side="minus")
            assert abs(got - want) <= 1e-8, (r, s, beta)


def test_oracle_plus_decomposes_each_candidate_once(monkeypatch):
    # one objective evaluation: check_pd on the candidate Y, then its pencil
    import scipy.optimize

    eig = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
    per_call = []
    minimize = scipy.optimize.minimize

    def counted_minimize(fun, x0, **kwargs):
        def counted(x):
            before = eig["n"]
            out = fun(x)
            per_call.append(eig["n"] - before)
            return out

        return minimize(counted, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
    C, D = np.diag([1.0, 2.0]), rand_pd(np.random.default_rng(26), 4)
    ps.oracle_min_over_omega(FD.kl(), C, D, side="plus", budget=4)
    assert per_call and max(per_call) <= 2
