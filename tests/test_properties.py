"""Property tests of the invariances the distance is proved to have."""

import numpy as np
from hypothesis import given, settings, strategies as st

import psdsim as ps
from psdsim import GrassmannMetric as GM
from helpers import degenerate_pair
from reference import faithful_fiber

FIBERS = ("geo", "kl", "geoab:1,0.25", "ab:0.5,0.5+sym", "is:0.5")


def _unitary(rng, n, complex_field):
    G = rng.normal(size=(n, n))
    if complex_field:
        G = G + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _psd(rng, n, r, complex_field):
    F = _unitary(rng, n, complex_field)[:, :r]
    return (F * rng.uniform(0.5, 2.0, size=r)) @ F.conj().T


@st.composite
def generic_pairs(draw):
    """A random real or complex pair of ranks r <= s in C^n, whose ranges
    meet on the generic stratum, a metric spec and the generator."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    s = draw(st.integers(r, n))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ps.MetricSpec(draw(st.sampled_from(list(GM))),
                         ps.parse_divergence(draw(st.sampled_from(FIBERS))))
    return _psd(rng, n, r, complex_field), _psd(rng, n, s, complex_field), spec, rng


def _assert_same(res, other):
    assert res.mode == other.mode == "closedForm"
    for name in ("total", "grassmann_term", "fiber_term"):
        a, b = getattr(res, name), getattr(other, name)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a)), (name, a, b)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(generic_pairs(), st.booleans())
def test_closed_form_unitary_congruence(pair, complex_q):
    # a complex unitary on a real pair also checks real/complex agreement
    a, b, spec, rng = pair
    Q = _unitary(rng, a.shape[0], complex_q or np.iscomplexobj(a))
    moved = [ps.PsdMatrix(Q @ M @ Q.conj().T) for M in (a, b)]
    _assert_same(ps.gd(ps.PsdMatrix(a), ps.PsdMatrix(b), spec), ps.gd(*moved, spec))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(generic_pairs(), st.integers(0, 3), st.integers(0, 3))
def test_closed_form_padding(pair, pad_a, pad_b):
    a, b, spec, _ = pair
    A, B = ps.PsdMatrix(a), ps.PsdMatrix(b)
    padded = ps.embed_pad(A, A.n + pad_a), ps.embed_pad(B, B.n + pad_b)
    _assert_same(ps.gd(A, B, spec), ps.gd(*padded, spec))


@st.composite
def unequal_rank_pairs(draw, l_min, l_max):
    """A random real or complex pair of ranks r < s in C^(r+s) whose ranges
    have l right principal angles, l_min <= l <= min(l_max, r)
    (helpers.degenerate_pair), then l and a fiber divergence."""
    r = draw(st.integers(max(1, l_min), 3))
    s = draw(st.integers(r + 1, 4))
    l = draw(st.integers(l_min, min(l_max, r)))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, B = degenerate_pair(rng, r + s, r, s, l, complex_field)
    return A, B, l, ps.parse_divergence(draw(st.sampled_from(FIBERS)))


def _symmetric_across_ranks(pair, grassmann, mode, expected):
    A, B, l, fiber = pair
    spec = ps.MetricSpec(grassmann, fiber, mode)
    ab, ba = (ps.gd(X, Y, spec, seed=3, budget=4, samples=100) for X, Y in ((A, B), (B, A)))
    assert ab.mode == expected and ab.stratum_index == l
    assert ab.to_json() == ba.to_json()


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(unequal_rank_pairs(0, 0), st.sampled_from(list(GM)))
def test_closed_form_symmetric_across_unequal_ranks(pair, grassmann):
    _symmetric_across_ranks(pair, grassmann, "algorithm1", "closedForm")


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(unequal_rank_pairs(1, 3), st.sampled_from(list(GM)))
def test_degenerate_sup_symmetric_across_unequal_ranks(pair, grassmann):
    _symmetric_across_ranks(pair, grassmann, "algorithm1", "optimizedDegenerate")


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(unequal_rank_pairs(0, 3), st.sampled_from(list(GM)))
def test_faithful_symmetric_across_unequal_ranks(pair, grassmann):
    _symmetric_across_ranks(pair, grassmann, "faithful", "faithfulSampled")


@st.composite
def degenerate_pairs(draw, k_max, fibers):
    """A random real or complex pair of ranks r <= 4 and s whose ranges have
    l >= 1 right principal angles, with a tail of k = s - r + l <= k_max
    rows, then l and a fiber divergence from `fibers`."""
    r = draw(st.integers(1, 4))
    l = draw(st.integers(1, r))
    s = draw(st.integers(r, r + k_max - l))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, B = degenerate_pair(rng, r + s, r, s, l, complex_field)
    return A, B, l, ps.parse_divergence(draw(st.sampled_from(fibers)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(degenerate_pairs(8, ("geo", "kl", "stein:0.5")))
def test_degenerate_values_stay_below_the_spectral_bound(pair):
    # every tail pairs C = P* diag(wA) P with a compression of D = Qh diag(wB) Qh*,
    # so no pencil value, sup or max-min exceeds U = Phi(wB[:r] / wA[::-1]): B's
    # largest eigenvalues over A's smallest
    A, B, l, fiber = pair
    wA, wB = A.compact_factors()[1], B.compact_factors()[1]
    bound = float(ps.pointset._spectrum_values(fiber, wB[: len(wA)] / wA[::-1]))
    for mode in ("algorithm1", "faithful"):
        res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, mode), samples=2000)
        assert res.stratum_index == l
        assert res.fiber_term <= bound * (1.0 + 1e-12), (mode, res.fiber_term, bound)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(degenerate_pairs(5, ("geo", "kl+clamp=5", "stein:0.5", "geoab:1,0.25")),
       st.integers(0, 2**31 - 1))
def test_faithful_value_is_the_full_table_max_min(pair, seed):
    # the branch and bound evaluates only the entries that can decide the
    # max-min, and returns the full tables' value bit for bit
    A, B, l, fiber = pair
    res = ps.gd(A, B, ps.MetricSpec(GM.GEODESIC, fiber, "faithful"), samples=2000, seed=seed)
    Cih, D = ps.geodist._prepare([A], [B]).fibers(0)
    assert res.stratum_index == l
    assert res.fiber_term == faithful_fiber(Cih, D, l, fiber, 2000, seed)


@st.composite
def mixed_rank_sets(draw):
    """2-4 real or complex PSD matrices in C^n of random ranks. Some are
    diagonal on a random support, so their pairs often sit on degenerate
    strata."""
    n = draw(st.integers(2, 5))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(2, 4))):
        r = draw(st.integers(1, n))
        if draw(st.booleans()):
            d = np.zeros(n)
            d[rng.choice(n, r, replace=False)] = rng.uniform(0.5, 2.0, size=r)
            M = np.diag(d).astype(complex if complex_field else float)
        else:
            M = _psd(rng, n, r, complex_field)
            M = 0.5 * (M + M.conj().T)
        mats.append(ps.PsdMatrix(M))
    return mats


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(mixed_rank_sets(), st.sampled_from(FIBERS))
def test_pairwise_gram_matches_gd(mats, fiber):
    spec = ps.MetricSpec(GM.GEODESIC, ps.parse_divergence(fiber))
    gram = ps.pairwise_gram(mats, spec, seed=1, budget=2)
    for i, A in enumerate(mats):
        assert gram[i, i] == 0.0
        for j, B in enumerate(mats):
            if i != j:
                want = ps.gd(A, B, spec, seed=1, budget=2).total
                assert abs(gram[i, j] - want) <= 1e-12 * abs(want), (i, j, gram[i, j], want)


@st.composite
def nested_pairs(draw):
    """A random real or complex B of rank s in C^n, an orthonormal n x r
    frame U inside range(B), and a metric spec."""
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, n))
    r = draw(st.integers(1, s))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = _unitary(rng, n, complex_field)[:, :s]
    B = (F * rng.uniform(0.5, 2.0, size=s)) @ F.conj().T
    U = F @ _unitary(rng, s, complex_field)[:, :r]
    spec = ps.MetricSpec(draw(st.sampled_from(list(GM))),
                         ps.parse_divergence(draw(st.sampled_from(FIBERS))))
    return 0.5 * (B + B.conj().T), U, spec


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(nested_pairs())
def test_zero_characterization(pair):
    # with range(A) inside range(B), GD(A, B) = 0 exactly when A dominates
    # the compression U* B U of B onto range(A)
    B, U, spec = pair
    comp = U.conj().T @ B @ U
    for t in (1.0, 1.5, 0.7):
        M = U @ (t * comp) @ U.conj().T
        total = ps.gd(ps.PsdMatrix(0.5 * (M + M.conj().T)), ps.PsdMatrix(B), spec).total
        assert total <= 1e-10 if t >= 1.0 else total > 1e-3, (t, total)
