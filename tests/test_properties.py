"""Property tests of the invariances the distance is proved to have."""

import numpy as np
from hypothesis import given, settings, strategies as st

import psdsim as ps
from psdsim import GrassmannMetric as GM

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
    have l right principal angles, l_min <= l <= min(l_max, r), a fiber
    divergence and the generator. range(A) = span(q_0..q_{r-1}); range(B)
    holds r - l vectors tilted from q_0..q_{r-l-1} and s - r + l directions
    outside range(A)."""
    r = draw(st.integers(max(1, l_min), 3))
    s = draw(st.integers(r + 1, 4))
    l = draw(st.integers(l_min, min(l_max, r)))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = _unitary(rng, r + s, complex_field)
    theta = rng.uniform(0.2, 1.2, size=r - l)
    tilted = Q[:, : r - l] * np.cos(theta) + Q[:, r : 2 * r - l] * np.sin(theta)
    mats = []
    for F in (Q[:, :r], np.hstack([tilted, Q[:, 2 * r - l : r + s]])):
        M = (F * rng.uniform(0.5, 2.0, size=F.shape[1])) @ F.conj().T
        mats.append(ps.PsdMatrix(0.5 * (M + M.conj().T)))
    return mats[0], mats[1], l, ps.parse_divergence(draw(st.sampled_from(FIBERS)))


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
