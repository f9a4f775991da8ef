"""Core factorizations, principal angles, and fiber representations."""

import dataclasses
import warnings

import numpy as np
import pytest

import psdsim as ps
from helpers import (
    EXAMPLE_A,
    count_calls,
    displayed_left_fiber,
    displayed_right_fiber,
    example_pair,
    rand_frame,
    rand_orthogonal,
    rand_pd,
    rand_psd_rank,
)


def test_hermitian_eig_identity():
    w, V = ps.hermitian_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(V.T @ V, np.eye(3))


def test_hermitian_eig_diagonal_descending():
    w, _ = ps.hermitian_eig(np.diag([1.0, 0.5, 1.0]))
    assert np.allclose(w, [1.0, 1.0, 0.5])


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(0)
    M = rand_pd(rng, 5) - 0.7 * np.eye(5)
    w, V = ps.hermitian_eig(M)
    assert np.abs((V * w) @ V.T - M).max() <= 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ps.DomainError):
        ps.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_power_identity_and_diag():
    assert np.allclose(ps.psd_power(np.eye(3), 0.37), np.eye(3))
    assert np.allclose(ps.psd_power(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]))


def test_psd_power_inverse_residual():
    rng = np.random.default_rng(1)
    M = rand_pd(rng, 4)
    assert np.abs(M @ ps.psd_power(M, -1.0) - np.eye(4)).max() <= 1e-10


def test_psd_power_rejects_singular():
    with pytest.raises(ps.DomainError):
        ps.psd_power(np.diag([1.0, 0.0]), 0.5)


@pytest.mark.parametrize("complex_field", [False, True])
def test_pencil_checks_both_arguments_by_one_rule(complex_field):
    # condition number 1e14 fails the rank rule as either argument
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(2, 2)) + (1j * rng.normal(size=(2, 2)) if complex_field else 0.0)
    G, _ = np.linalg.qr(Z)
    bad = G @ np.diag([1.0, 1e-14]) @ G.conj().T
    with pytest.raises(ps.DomainError, match="left argument is not positive definite at tol"):
        ps.pencil_eigenvalues(bad, np.eye(2))
    with pytest.raises(ps.DomainError, match="right argument is not positive definite at tol"):
        ps.pencil_eigenvalues(np.eye(2), bad)


def test_pencil_identical_inputs():
    rng = np.random.default_rng(2)
    X = rand_pd(rng, 3)
    assert np.allclose(ps.pencil_eigenvalues(X, X), np.ones(3))


def test_pencil_diagonal_case():
    lam = ps.pencil_eigenvalues(np.eye(2), np.diag([1.0, 0.5]))
    assert np.allclose(lam, [1.0, 0.5])


def test_pencil_matches_symmetric_form():
    rng = np.random.default_rng(3)
    X, Y = rand_pd(rng, 4), rand_pd(rng, 4)
    Xih = ps.psd_power(X, -0.5)
    ref = np.sort(np.linalg.eigvalsh(Xih @ Y @ Xih))[::-1]
    assert np.abs(ps.pencil_eigenvalues(X, Y) - ref).max() <= 1e-10


@pytest.mark.parametrize("complex_field", [False, True])
def test_pencil_spectra_of_a_factor_stack_match_one_call_per_factor(complex_field):
    # faithful mode evaluates chunks of left-frame factors against every Y at
    # once; its table must not depend on how the factors are chunked
    rng = np.random.default_rng(5)
    for r, m, n in ((1, 3, 4), (3, 5, 7), (4, 2, 1)):
        F = rng.normal(size=(m, r, r)) + (1j * rng.normal(size=(m, r, r)) if complex_field else 0.0)
        Y = np.stack([rand_pd(rng, r) for _ in range(n)])
        if complex_field:
            S = rng.normal(size=(n, r, r))
            Y = Y + 0.1j * (S - np.swapaxes(S, -1, -2))
        table = ps.linalg.pencil_spectra(F[:, None], Y)
        assert table.shape == (m, n, r)
        for i in range(m):
            assert np.array_equal(table[i], ps.linalg.pencil_spectra(F[i], Y))
            for j in range(n):
                assert np.array_equal(table[i, j], ps.linalg.pencil_spectra(F[i], Y[j]))
        # the factor stack keeps its own leading axes
        assert np.array_equal(ps.linalg.pencil_spectra(F[None, :, None], Y)[0], table)


def test_pencil_congruence_invariance():
    rng = np.random.default_rng(4)
    X, Y = rand_pd(rng, 4), rand_pd(rng, 4)
    G = rng.normal(size=(4, 4)) + 0.5 * np.eye(4)
    a = ps.pencil_eigenvalues(X, Y)
    b = ps.pencil_eigenvalues(G @ X @ G.T, G @ Y @ G.T)
    assert np.abs(a - b).max() <= 1e-10


def test_psdmatrix_validation():
    with pytest.raises(ps.DomainError):
        ps.PsdMatrix(np.diag([1.0, -1.0]))
    A = ps.PsdMatrix(np.diag([2.0, 1.0, 0.0]))
    assert A.rank == 2 and A.n == 3 and A.field == "real"


@pytest.mark.parametrize("name", ["tol_rank", "tol_psd"])
@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf])
def test_psdmatrix_rejects_bad_tolerances(name, bad):
    with pytest.raises(ps.DomainError, match=name):
        ps.PsdMatrix(np.eye(2), **{name: bad})
    if name == "tol_rank":  # a Subspace checks its own tol_rank alike
        with pytest.raises(ps.DomainError, match=name):
            ps.Subspace(np.eye(2), tol_rank=bad)


@pytest.mark.parametrize("call, message", [
    (lambda: ps.linalg.check_hermitian(np.ones((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: ps.pencil_eigenvalues(np.eye(2), np.eye(3)), "pencil size mismatch: (2, 2) vs (3, 3)"),
    (lambda: ps.Subspace(np.ones(3)), "subspace frame must be a 2-d array"),
    (lambda: ps.Subspace(np.ones((3, 2))), "subspace frame is not orthonormal at 1e-10"),
    (lambda: ps.principal_system(ps.Subspace(np.eye(3)[:, :1]), ps.Subspace(np.eye(4)[:, :1])),
     "ambient mismatch: 3 vs 4"),
])
def test_typed_errors(call, message):
    with pytest.raises(ps.DomainError) as e:
        call()
    assert str(e.value) == message


def test_integer_matrix_is_taken_as_float():
    A = ps.PsdMatrix(np.array([[2, 1], [1, 2]]))
    assert A.entries.dtype == np.float64 and A.rank == 2
    assert np.array_equal(A.entries, [[2.0, 1.0], [1.0, 2.0]])


def test_subspace_rejects_non_finite_frames():
    # NaN fails every comparison, so the orthonormality test alone let it through
    for bad in (np.nan, np.inf):
        with pytest.raises(ps.DomainError, match="non-finite"):
            ps.Subspace([[1.0, 0.0], [0.0, bad], [0.0, 0.8]])


def test_psdmatrix_fields_cannot_be_reassigned():
    # a tolerance assigned after construction would skip the checks above:
    # tol_rank = -1 would count the zero eigenvalue into the rank
    A = ps.PsdMatrix(np.diag([1.0, 3.0, 0.0]))
    for name, value in (("tol_rank", -1.0), ("tol_psd", 0.0), ("entries", np.eye(3))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(A, name, value)
    assert A.rank == 2 and A.tol_rank == ps.TOL_RANK


def test_psdmatrix_arrays_are_read_only():
    # an in-place write would leave the cached rank and compact factor stale
    rng = np.random.default_rng(41)
    A, B = rand_psd_rank(rng, 5, 2), rand_psd_rank(rng, 5, 3)
    spec = ps.MetricSpec(ps.GrassmannMetric.GEODESIC, ps.FiberDivergence.geodesic())
    rank, total = A.rank, ps.gd(A, B, spec).total
    U, wr = A.compact_factors()
    for arr, index in ((A.entries, (2, 2)), (U, (0, 0)), (wr, (0,))):
        with pytest.raises(ValueError):
            arr[index] = 5.0
    assert A.rank == rank and ps.gd(A, B, spec).total == total


@pytest.mark.parametrize("complex_field", [False, True])
def test_psdmatrix_checks_its_entries_once(monkeypatch, complex_field):
    # one check_hermitian and one eigh per construction; the compact factor
    # is the leading part of hermitian_eig's of the entries, bit for bit
    rng = np.random.default_rng(42)
    G = rng.normal(size=(5, 3)) + (1j * rng.normal(size=(5, 3)) if complex_field else 0.0)
    M = G @ G.conj().T
    w, V = ps.hermitian_eig(M)
    checks = count_calls(monkeypatch, ps.linalg, "check_hermitian")
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    A = ps.PsdMatrix(M)
    assert checks["n"] == 1 and eighs["n"] == 1
    U, wr = A.compact_factors()
    assert A.rank == 3 and np.array_equal(wr, w[:3]) and np.array_equal(U, V[:, :3])


@pytest.mark.parametrize("complex_field", [False, True])
def test_psdmatrix_keeps_only_its_compact_factor(complex_field):
    # a rank-r matrix holds its entries and an n x r factor, not an n x n basis
    rng = np.random.default_rng(43)
    n, r = 40, 2
    G = rng.normal(size=(n, r)) + (1j * rng.normal(size=(n, r)) if complex_field else 0.0)
    A = ps.PsdMatrix(G @ G.conj().T)
    w, V = ps.hermitian_eig(A.entries)
    U, wr = A.compact_factors()
    assert U.shape == (n, r) and wr.shape == (r,)
    for arr in (U, wr):
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert np.array_equal(U, V[:, :r]) and np.array_equal(wr, w[:r])
    held = sum(v.nbytes for v in vars(A).values() if isinstance(v, np.ndarray))
    assert held <= A.entries.nbytes + (n * r + r) * A.entries.itemsize


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_rejected(bad):
    M = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ps.DomainError, match="non-finite"):
        ps.linalg.check_hermitian(M)
    with pytest.raises(ps.DomainError, match="non-finite"):
        ps.PsdMatrix(M)


def test_empty_matrix_is_rank_zero_and_fails_typed():
    E = np.zeros((0, 0))
    A = ps.PsdMatrix(E)
    assert A.rank == 0 and A.n == 0
    w, V = ps.hermitian_eig(E)
    assert w.shape == (0,) and V.shape == (0, 0)
    spec = ps.MetricSpec(ps.GrassmannMetric.GEODESIC, ps.FiberDivergence.geodesic())
    with pytest.raises(ps.DomainError, match="zero-rank input"):
        ps.gd(A, ps.PsdMatrix(np.eye(2)), spec)
    with pytest.raises(ps.DomainError):
        ps.psd_power(E, 0.5)
    with pytest.raises(ps.DomainError):
        ps.pencil_eigenvalues(E, E)


def test_range_subspace_of_low_rank_diagonal():
    A = ps.PsdMatrix(EXAMPLE_A)
    U = ps.range_subspace(A)
    assert U.r == 3
    # spans e1, e2, e3
    P = U.frame @ U.frame.T
    assert np.abs(P - np.diag([1.0, 1.0, 1.0, 0.0, 0.0])).max() <= 1e-10


def test_range_subspace_zero_matrix():
    U = ps.range_subspace(ps.PsdMatrix(np.zeros((3, 3))))
    assert U.r == 0


def test_range_subspace_matches_construction():
    rng = np.random.default_rng(5)
    F = rand_frame(rng, 6, 2)
    A = ps.PsdMatrix((F * [2.0, 1.0]) @ F.T)
    U = ps.range_subspace(A)
    sys = ps.principal_system(U, ps.Subspace(F))
    assert sys.theta.max() <= 1e-8


def test_embed_pad():
    A = ps.PsdMatrix(np.array([[2.0]]))
    P = ps.embed_pad(A, 3)
    assert np.allclose(P.entries, np.diag([2.0, 0.0, 0.0]))
    assert P.rank == A.rank
    assert ps.embed_pad(P, 3) is P
    with pytest.raises(ps.DomainError):
        ps.embed_pad(P, 2)


def test_embed_pad_preserves_rank_random():
    rng = np.random.default_rng(6)
    A = rand_psd_rank(rng, 5, 3)
    assert ps.embed_pad(A, 9).rank == 3


def test_principal_system_equal_subspaces():
    rng = np.random.default_rng(7)
    F = rand_frame(rng, 5, 3)
    sys = ps.principal_system(ps.Subspace(F), ps.Subspace(F))
    assert sys.theta.max() <= 1e-8


def test_principal_system_partial_overlap():
    E = np.eye(5)
    sys = ps.principal_system(ps.Subspace(E[:, [0, 1, 2]]), ps.Subspace(E[:, [0, 3, 4]]))
    assert np.allclose(sys.theta, [0.0, np.pi / 2, np.pi / 2])
    # aligned frames are diagonally correlated
    G = sys.left_frame.T @ sys.right_frame
    assert np.abs(G - np.diag(sys.sigma)).max() <= 1e-8


def test_principal_system_projector_oracle():
    rng = np.random.default_rng(8)
    U = ps.Subspace(rand_frame(rng, 7, 3))
    V = ps.Subspace(rand_frame(rng, 7, 4))
    sys = ps.principal_system(U, V)
    Pu = U.frame @ U.frame.T
    Pv = V.frame @ V.frame.T
    w = np.linalg.eigvalsh(U.frame.T @ Pv @ U.frame)
    ref = np.sqrt(np.clip(np.sort(w)[::-1], 0.0, 1.0))
    assert np.abs(sys.sigma - ref).max() <= 1e-10
    # angle output is symmetric in the argument order
    sys2 = ps.principal_system(V, U)
    assert np.abs(sys.theta - sys2.theta).max() <= 1e-10


def test_principal_angles_invariant_under_column_permutation():
    rng = np.random.default_rng(9)
    F, G = rand_frame(rng, 6, 3), rand_frame(rng, 6, 3)
    a = ps.principal_system(ps.Subspace(F), ps.Subspace(G)).theta
    b = ps.principal_system(ps.Subspace(F[:, ::-1]), ps.Subspace(G)).theta
    assert np.abs(a - b).max() <= 1e-10
    assert np.all(np.diff(a) >= -1e-12)  # ascending


def test_fiber_representation_identity_on_range():
    rng = np.random.default_rng(11)
    F = rand_frame(rng, 5, 3)
    A = ps.PsdMatrix(F @ F.T)
    assert np.abs(ps.fiber_representation(A, F) - np.eye(3)).max() <= 1e-10


def test_fiber_representation_displayed_family():
    A, _ = example_pair()
    for psi in (0.0, 0.3, 1.1, 2.5):
        c, s = np.cos(psi), np.sin(psi)
        basis = np.zeros((5, 3))
        basis[0, 0] = 1.0
        basis[1, 1], basis[2, 1] = c, -s
        basis[1, 2], basis[2, 2] = s, c
        M = ps.fiber_representation(A, basis)
        assert np.abs(M - displayed_left_fiber(psi)).max() <= 1e-12


def test_fiber_family_spectra_are_angle_independent():
    for ang in np.linspace(0, 2 * np.pi, 17):
        wa = np.sort(np.linalg.eigvalsh(displayed_left_fiber(ang)))
        wb = np.sort(np.linalg.eigvalsh(displayed_right_fiber(ang)))
        assert np.abs(wa - [0.5, 1.0, 1.0]).max() <= 1e-12
        assert np.abs(wb - [1.0, 1.0, 2.0]).max() <= 1e-12


def test_fiber_representation_basis_independent_spectrum():
    rng = np.random.default_rng(12)
    A = rand_psd_rank(rng, 6, 3)
    U, _ = A.compact_factors()
    R = rand_orthogonal(rng, 3)
    w1 = np.linalg.eigvalsh(ps.fiber_representation(A, U))
    w2 = np.linalg.eigvalsh(ps.fiber_representation(A, U @ R))
    assert np.abs(np.sort(w1) - np.sort(w2)).max() <= 1e-10


def test_fiber_representation_rejects_basis_outside_range():
    A = ps.PsdMatrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(ps.DomainError):
        ps.fiber_representation(A, np.eye(3)[:, [0, 2]])


def test_complex_inputs_supported():
    rng = np.random.default_rng(13)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = G @ G.conj().T + np.eye(4)
    A = ps.PsdMatrix(H)
    assert A.field == "complex" and A.rank == 4
    lam = ps.pencil_eigenvalues(H, H)
    assert np.abs(lam - 1.0).max() <= 1e-10


@pytest.mark.parametrize("curvature", [1e30, 1e110])
def test_descent_bounds_its_trial_steps(curvature):
    # f = a |x|^2 / 2 from |x| ~ 1: the first direction -g is about a long.
    # No trial step is longer than 1/sqrt(eps), none overflows f, and the
    # descent converges; without the bound it tried a step of length a, then
    # ran out of backtracking at a = 1e30 and overflowed at a = 1e110
    def fg(x):
        return 0.5 * curvature * np.add.reduce(x * x, axis=1), curvature * x

    lengths = []

    def line(x, p, t):
        lengths.extend(t * np.linalg.norm(p, axis=1))
        return x + t[:, None] * p

    x0 = np.array([[1.0, 1.0, 1.0], [-2.0, 0.5, 3.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, f, done = ps.linalg._descend(fg, line, x0, 500)
    assert max(lengths) <= np.finfo(float).eps ** -0.5
    assert done.all() and f.max() <= 1e-50, f
