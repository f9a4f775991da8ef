"""Equidimensional divergence families, presets, and the spec grammar."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import psdsim as ps
from psdsim import FiberDivergence as FD
from helpers import displayed_left_fiber, displayed_right_fiber, family_specs, rand_pd
from reference import oracle_min_over_omega


def test_zero_at_equal_arguments():
    rng = np.random.default_rng(0)
    X = rand_pd(rng, 3)
    for spec in family_specs():
        assert abs(ps.divergence(spec, X, X)) <= 1e-9


def test_kl_closed_form_scaled_identity():
    v = ps.divergence(FD.kl(), np.eye(2), 2.0 * np.eye(2))
    assert abs(v - (math.log(2.0) - 0.5)) <= 1e-12


def test_geodesic_on_displayed_fiber_family():
    # pencil spectrum is {1, lam, 4/lam} with lam the larger root of
    # t^2 - (4 + cos^2(theta - psi)) t + 4 = 0, so the squared value is
    # 2 (log lam - log 2)^2 + 2 log^2 2
    geo = FD.geodesic()
    for psi, theta in [(0.0, 0.0), (0.2, 1.3), (1.0, 2.9), (0.5, 0.5 + np.pi / 2)]:
        b = 4.0 + np.cos(theta - psi) ** 2
        lam = (b + math.sqrt(b * b - 16.0)) / 2.0
        want = 2 * (math.log(lam) - math.log(2)) ** 2 + 2 * math.log(2) ** 2
        got = ps.divergence(geo, displayed_left_fiber(psi), displayed_right_fiber(theta))
        assert abs(got**2 - want) <= 1e-10


def test_congruence_invariance():
    rng = np.random.default_rng(1)
    X, Y = rand_pd(rng, 3), rand_pd(rng, 3, 0.6, 2.2)
    G = rng.normal(size=(3, 3)) + 0.5 * np.eye(3)
    for spec in family_specs():
        a = ps.divergence(spec, X, Y)
        b = ps.divergence(spec, G @ X @ G.T, G @ Y @ G.T)
        assert abs(a - b) <= 1e-9 * (1 + abs(a))


def test_positive_away_from_equality():
    rng = np.random.default_rng(2)
    X = rand_pd(rng, 3)
    Y = rand_pd(rng, 3, 0.6, 2.4)
    for spec in family_specs():
        assert ps.divergence(spec, X, Y) > 0.0


def test_symmetrized_geodesic_is_a_no_op():
    rng = np.random.default_rng(3)
    X, Y = rand_pd(rng, 3), rand_pd(rng, 3)
    geo = FD.geodesic()
    assert abs(ps.divergence(geo, X, Y) - ps.divergence(geo.with_sym(), X, Y)) <= 1e-12


def test_symmetrization_averages_both_orders():
    rng = np.random.default_rng(4)
    X, Y = rand_pd(rng, 3), rand_pd(rng, 3)
    spec = FD.stein(1.0)
    want = 0.5 * (ps.divergence(spec, X, Y) + ps.divergence(spec, Y, X))
    assert abs(ps.divergence(spec.with_sym(), X, Y) - want) <= 1e-10


def test_half_half_matches_scaled_s_divergence():
    # the (1/2, 1/2) member of the two-parameter log-det family equals four
    # times log det((X+Y)/2) - (1/2) log det(XY)
    rng = np.random.default_rng(5)
    for _ in range(10):
        X, Y = rand_pd(rng, 3), rand_pd(rng, 3, 0.6, 2.4)
        sdiv = (math.log(np.linalg.det((X + Y) / 2))
                - 0.5 * math.log(np.linalg.det(X @ Y)))
        v = ps.divergence(FD.bhattacharyya(), X, Y)
        assert abs(v - 4.0 * sdiv) <= 1e-9 * (1 + abs(v))


def test_geodesic_family_distance_region():
    assert ps.geodesic_ab_is_distance_check(1.0, 0.0, 7)
    assert not ps.geodesic_ab_is_distance_check(1.0, -1.0, 2)
    assert not ps.geodesic_ab_is_distance_check(2.0, -0.5, 5)
    assert ps.geodesic_ab_is_distance_check(2.0, -0.3, 5)
    assert not ps.geodesic_ab_is_distance_check(-1.0, 0.5, 3)


def test_geodesic_family_undefined_outside_its_region():
    # the family is defined on m = 2 eigenvalues only for beta > -alpha/2
    X, Y = np.eye(2), 2.0 * np.eye(2)
    for beta in (-0.5, -0.9):
        with pytest.raises(ps.DomainError, match=r"region beta > -alpha/m"):
            ps.divergence(FD.geodesic_ab(1.0, beta), X, Y)
    want = math.sqrt(2 * math.log(2.0) ** 2 - 0.4 * (2 * math.log(2.0)) ** 2)
    assert abs(ps.divergence(FD.geodesic_ab(1.0, -0.4), X, Y) - want) <= 1e-12
    # the oracle sees +inf outside the region, as for every other family
    C, D = np.diag([1.0, 2.0]), np.diag([1.5, 0.5, 1.0])
    outside = FD.geodesic_ab(1.0, -0.9)
    for side in ("minus", "plus"):
        assert oracle_min_over_omega(outside, C, D, side, budget=2) == math.inf


def test_itakura_saito_domain_violation():
    # needs 1 - alpha log(lambda) > 0; lambda = e^3 with alpha = 1 violates it
    X = np.eye(2)
    Y = math.exp(3.0) * np.eye(2)
    with pytest.raises(ps.DomainError):
        ps.divergence(FD.itakura_saito(1.0), X, Y)


def test_alpha_beta_domain_violation_names_the_family():
    # alpha = 1, beta = -1/2 at lambda = 0.1: the log-det argument
    # (alpha lambda^beta + beta lambda^-alpha) / (alpha + beta) = 2 (3.16 - 5) < 0
    with pytest.raises(ps.DomainError, match="ab divergence is undefined"):
        ps.divergence(FD.alpha_beta(1.0, -0.5), np.eye(2), 0.1 * np.eye(2))


def test_bounded_transforms():
    rng = np.random.default_rng(6)
    X, Y = rand_pd(rng, 3), rand_pd(rng, 3, 0.6, 2.4)
    spec = FD.kl()
    raw = ps.divergence(spec, X, Y)
    assert abs(ps.divergence(spec.with_bound("ratio"), X, Y) - raw / (1 + raw)) <= 1e-12
    assert abs(ps.divergence(spec.with_bound("clamp", 1e-6), X, Y) - 1e-6) <= 1e-18
    assert abs(ps.divergence(spec.with_bound("clamp", 50.0), X, Y) - raw) <= 1e-12
    with pytest.raises(ps.DomainError, match="unknown bound transform"):
        spec.with_bound("foo")


def test_bound_is_ratio_or_a_finite_positive_clamp():
    assert FD("kl", bound=("ratio",)).bound == ("ratio",)
    assert FD("kl", bound=("clamp", 2)).bound == ("clamp", 2)
    # a missing or stray field is not a transform
    for bad in (("clamp",), ("ratio", 5.0), ("clamp", 1.0, 2.0), ["ratio"]):
        with pytest.raises(ps.DomainError, match="unknown bound transform"):
            FD("kl", bound=bad)
    # NaN fails every comparison, so a `<= 0` test would let it through
    for eps in (float("nan"), float("inf"), 0.0, -1.0, "5"):
        with pytest.raises(ps.DomainError, match="finite positive threshold"):
            FD("kl", bound=("clamp", eps))
    for text in ("kl+clamp=nan", "kl+clamp=inf", "kl+clamp=0"):
        with pytest.raises(ps.ParseError, match="bad clamp threshold"):
            ps.parse_divergence(text)


def test_parameter_validation():
    with pytest.raises(ps.DomainError):
        FD.alpha_beta(1.0, -1.0)  # alpha + beta = 0
    with pytest.raises(ps.DomainError):
        FD.alpha_beta(0.0, 1.0)
    with pytest.raises(ps.DomainError):
        FD.stein(0.0)
    with pytest.raises(ps.DomainError):
        FD.renyi(1.5)
    with pytest.raises(ps.DomainError):
        FD.beta_log_det(-1.0)
    with pytest.raises(ps.DomainError):
        FD.geodesic_ab(-1.0, 0.0)
    # every family needs finite parameters
    for alpha, beta in ((1.0, math.inf), (math.inf, 1.0), (1.0, math.nan), (-math.inf, 0.0)):
        for build in (FD.alpha_beta, FD.geodesic_ab):
            with pytest.raises(ps.DomainError, match="finite"):
                build(alpha, beta)
    for build in (FD.stein, FD.burg, FD.itakura_saito):
        with pytest.raises(ps.DomainError, match="finite"):
            build(math.inf)
    with pytest.raises(ps.DomainError, match="finite"):
        FD.beta_log_det(math.inf)


def test_preset_equivalences():
    rng = np.random.default_rng(7)
    X, Y = rand_pd(rng, 3), rand_pd(rng, 3)
    pairs = [
        ("kl", FD.kl()),
        ("ab:0.5,0.5", FD.bhattacharyya()),
        ("bhat", FD.bhattacharyya()),
        ("renyi:0.3", FD.alpha_beta(0.3, 0.7)),
        ("blogdet:1", FD.alpha_beta(1.0, 1.0)),
        ("geo", FD.geodesic()),
        ("stein:0.5", FD.stein(0.5)),
        ("burg", FD.burg()),
        ("is:0.5", FD.itakura_saito(0.5)),
        ("geoab:1,0.25", FD.geodesic_ab(1.0, 0.25)),
    ]
    for text, spec in pairs:
        parsed = ps.parse_divergence(text)
        assert parsed == spec
        if not (parsed.kind == "geodesic_ab" and parsed.beta != 0.0):
            assert ps.divergence(parsed, X, Y) == ps.divergence(spec, X, Y)


def test_grammar_suffixes():
    spec = ps.parse_divergence("kl+sym+clamp=5")
    assert spec.symmetrized and spec.bound == ("clamp", 5.0)
    spec = ps.parse_divergence("geo+ratio")
    assert spec.bound == ("ratio",)
    spec = ps.parse_divergence("burg:0.7+clamp")
    assert spec.bound == ("clamp", 10.0)


def test_both_arguments_must_be_positive_definite():
    # the rule of linalg.check_pd holds for each argument: a matrix of
    # condition number 1e14 raises in either position
    bad = np.diag([1.0, 1e-14])
    for text in ("geo", "kl", "stein:0.5"):
        spec = ps.parse_divergence(text)
        for X, Y in ((bad, np.eye(2)), (np.eye(2), bad)):
            with pytest.raises(ps.DomainError, match="not positive definite at tolerance"):
                ps.divergence(spec, X, Y)


def test_grammar_errors():
    for bad in ("nope", "ab:1", "renyi", "kl:3", "geo+weird", "ab:x,y", "geoab:1,0.25+clamp=z",
                "geoab:1,inf", "geoab:inf,1", "geoab:1,nan", "stein:inf",
                "geoab:1,,0.25", "geoab:1,0.25,", "stein:", "stein:,", "kl:",
                "kl+clampx=3", "kl+clamping=2", "kl+clamp=", "kl+ratio=2", "kl+ratio+clamp=5",
                "kl+clamp=5+ratio", "kl+clamp=2+clamp=3", "kl+ratio+ratio"):
        with pytest.raises(ps.ParseError):
            ps.parse_divergence(bad)


@pytest.mark.parametrize("call, error, message", [
    (lambda: FD("nope"), ps.DomainError, "unknown divergence family 'nope'"),
    (lambda: ps.parse_divergence("stein:1,2"), ps.ParseError,
     "divergence 'stein' takes at most 1 parameter"),
])
def test_typed_errors(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


def test_readme_grammar_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r'`"([^"`]+)"`', readme) + re.findall(r"--fiber (\S+)", readme)
    assert {"ab:1,0.5+sym", "kl+clamp=5", "geoab:1,0.25", "geo", "kl"} <= set(examples)
    for text in examples:
        ps.parse_divergence(text)


def test_two_parameter_geodesic_value_and_bounds():
    rng = np.random.default_rng(22)
    X, Y = rand_pd(rng, 4), rand_pd(rng, 4)
    log = np.log(np.linalg.eigvals(np.linalg.solve(X, Y)).real)
    want = math.sqrt(np.sum(log**2) + 0.25 * np.sum(log) ** 2)
    spec = FD.geodesic_ab(1.0, 0.25)
    assert abs(ps.divergence(spec, X, Y) - want) <= 1e-12 * want
    ratio = ps.divergence(spec.with_bound("ratio"), X, Y)
    assert abs(ratio - want / (1.0 + want)) <= 1e-12
    assert ps.divergence(spec.with_bound("clamp", 0.5 * want), X, Y) == 0.5 * want
    assert abs(ps.divergence(spec.with_bound("clamp", 2.0 * want), X, Y) - want) <= 1e-12 * want
