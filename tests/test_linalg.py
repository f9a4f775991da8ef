"""Core factorizations, principal angles, and fiber representations."""

import numpy as np
import pytest

import psdsim as ps
from helpers import (
    EXAMPLE_A,
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


def test_compact_svd_zero_matrix():
    U, s, V = ps.compact_svd(np.zeros((3, 4)))
    assert s.size == 0 and U.shape == (3, 0) and V.shape == (4, 0)


def test_compact_svd_rank_one():
    x = np.array([3.0, 4.0])
    y = np.array([1.0, 0.0, 0.0])
    U, s, V = ps.compact_svd(np.outer(x, y))
    assert s.shape == (1,)
    assert abs(s[0] - 5.0) <= 1e-12


def test_compact_svd_low_rank_diagonal():
    U, s, V = ps.compact_svd(EXAMPLE_A)
    assert np.allclose(np.sort(s)[::-1], [1.0, 1.0, 0.5])
    assert np.abs((U * s) @ V.T - EXAMPLE_A).max() <= 1e-10


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_rejected(bad):
    M = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ps.DomainError, match="non-finite"):
        ps.linalg.check_hermitian(M)
    with pytest.raises(ps.DomainError, match="non-finite"):
        ps.PsdMatrix(M)


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


def test_stratum_index():
    rng = np.random.default_rng(10)
    F = rand_frame(rng, 5, 2)
    same = ps.principal_system(ps.Subspace(F), ps.Subspace(F))
    assert ps.stratum_index(same) == 0
    E = np.eye(4)
    perp = ps.principal_system(ps.Subspace(E[:, :2]), ps.Subspace(E[:, 2:]))
    assert ps.stratum_index(perp) == 2
    A, B = example_pair()
    sys = ps.principal_system(ps.range_subspace(A), ps.range_subspace(B))
    assert ps.stratum_index(sys) == 2


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
