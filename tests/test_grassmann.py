"""The nine subspace distances from principal angles."""

import math

import numpy as np
import pytest

import psdsim as ps
from psdsim import GrassmannMetric as GM

ALL = list(GM)


def test_zero_angles_give_zero():
    for m in ALL:
        assert ps.grassmann_distance(m, [0.0, 0.0, 0.0]) == 0.0


def test_two_right_angles():
    theta = [0.0, math.pi / 2, math.pi / 2]
    assert abs(ps.grassmann_distance(GM.GEODESIC, theta) - math.pi / math.sqrt(2)) <= 1e-12
    assert abs(ps.grassmann_distance(GM.PROJECTION, theta) - 1.0) <= 1e-12
    assert abs(ps.grassmann_distance(GM.SPECTRAL, theta) - math.sqrt(2)) <= 1e-12
    assert abs(ps.grassmann_distance(GM.ASIMOV, theta) - math.pi / 2) <= 1e-12
    assert abs(ps.grassmann_distance(GM.CHORDAL, theta) - math.sqrt(2)) <= 1e-12


def test_single_angle_chordal():
    assert abs(ps.grassmann_distance(GM.CHORDAL, [math.pi / 3]) - math.sqrt(3) / 2) <= 1e-12


def test_closed_forms_on_generic_angles():
    theta = np.array([0.2, 0.7, 1.1])
    c, s = np.cos(theta), np.sin(theta)
    expect = {
        GM.ASIMOV: theta[-1],
        GM.BINET_CAUCHY: math.sqrt(1 - np.prod(c) ** 2),
        GM.CHORDAL: math.sqrt(np.sum(s**2)),
        GM.FUBINI_STUDY: math.acos(np.prod(c)),
        GM.MARTIN: math.sqrt(-2 * np.sum(np.log(c))),
        GM.PROCRUSTES: 2 * math.sqrt(np.sum(np.sin(theta / 2) ** 2)),
        GM.PROJECTION: math.sin(theta[-1]),
        GM.SPECTRAL: 2 * math.sin(theta[-1] / 2),
        GM.GEODESIC: math.sqrt(np.sum(theta**2)),
    }
    for m, v in expect.items():
        assert abs(ps.grassmann_distance(m, theta) - v) <= 1e-12


def test_martin_infinite_at_right_angle():
    assert ps.grassmann_distance(GM.MARTIN, [0.1, math.pi / 2]) == math.inf


def test_monotone_in_each_angle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = np.sort(rng.uniform(0.0, math.pi / 2 - 0.05, size=3))
        i = rng.integers(3)
        bumped = theta.copy()
        bumped[i] += 0.04
        bumped.sort()
        for m in ALL:
            assert ps.grassmann_distance(m, bumped) >= ps.grassmann_distance(m, theta) - 1e-12


def test_vanishes_only_at_zero():
    for m in ALL:
        assert ps.grassmann_distance(m, [0.0, 1e-3]) > 0.0


def test_upper_bounds():
    rng = np.random.default_rng(1)
    r = 4
    for _ in range(50):
        theta = np.sort(rng.uniform(0.0, math.pi / 2, size=r))
        assert ps.grassmann_distance(GM.BINET_CAUCHY, theta) <= 1.0 + 1e-12
        assert ps.grassmann_distance(GM.PROJECTION, theta) <= 1.0 + 1e-12
        assert ps.grassmann_distance(GM.SPECTRAL, theta) <= math.sqrt(2) + 1e-12
        assert ps.grassmann_distance(GM.CHORDAL, theta) <= math.sqrt(r) + 1e-12
        assert ps.grassmann_distance(GM.GEODESIC, theta) <= math.pi * math.sqrt(r) / 2 + 1e-12


def test_angle_domain_and_length_checks():
    with pytest.raises(ps.DomainError):
        ps.grassmann_distance(GM.GEODESIC, [2.0])
    with pytest.raises(ps.DomainError):
        ps.grassmann_distance(GM.GEODESIC, [-0.1])
    with pytest.raises(ps.DomainError):
        ps.grassmann_distance(GM.GEODESIC, [])
    # NaN compares false with both ends of [0, pi/2]; it is rejected too
    for bad in (math.nan, math.inf):
        with pytest.raises(ps.DomainError):
            ps.grassmann_distance(GM.GEODESIC, [0.1, bad])


@pytest.mark.parametrize("call, message", [
    (lambda: ps.grassmann_distance("geodesic", [0.1, 0.2]), "unhandled metric 'geodesic'"),
])
def test_typed_errors(call, message):
    with pytest.raises(ps.DomainError) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize("metric", ALL)
def test_stacked_angles_match_per_row_calls(metric):
    rng = np.random.default_rng(3)
    theta = np.sort(rng.uniform(0.0, math.pi / 2, size=(6, 3)), axis=1)
    theta[0] = 0.0
    theta[1, -1] = math.pi / 2  # Martin's distance is +inf here
    stacked = ps.grassmann_distance(metric, theta)
    assert stacked.shape == (6,)
    assert np.array_equal(stacked, [ps.grassmann_distance(metric, row) for row in theta])
    if metric is GM.MARTIN:
        assert stacked[1] == math.inf and np.isfinite(np.delete(stacked, 1)).all()


def test_stacked_angle_domain_check():
    theta = np.array([[0.1, 0.2], [0.3, 2.0]])
    with pytest.raises(ps.DomainError):
        ps.grassmann_distance(GM.GEODESIC, theta)
    with pytest.raises(ps.DomainError):
        ps.grassmann_distance(GM.GEODESIC, -theta[:1])
    with pytest.raises(ps.DomainError):
        ps.grassmann_distance(GM.GEODESIC, [[0.1, 0.2], [math.nan, 0.3]])


def test_names_parse():
    for m in ALL:
        assert GM.from_name(m.value) is m
        assert GM.from_name(m.value.upper()) is m
    with pytest.raises(ps.ParseError):
        GM.from_name("euclidean")
