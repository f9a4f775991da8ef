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
