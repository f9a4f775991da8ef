"""Field-generic dense Hermitian linear algebra primitives.

Everything downstream (divergences, distances, transport) is built on the
handful of factorizations here: Hermitian eigendecompositions, compact SVDs,
principal angles between subspaces and fiber representations of a PSD matrix
on its range. Real and complex inputs are both supported; real inputs stay
in real arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dataclass_field

import numpy as np

from .errors import DomainError

# default tolerances, relative; overridable per call
TOL_RANK = 1e-10
TOL_PSD = 1e-8


def _as_array(M):
    A = np.asarray(M)
    if A.dtype.kind not in "fc":
        A = A.astype(float)
    return A


def _herm(M):
    # stacked-safe: transpose only the trailing two axes
    return 0.5 * (M + np.swapaxes(M.conj(), -1, -2))


def check_hermitian(M, tol=1e-12):
    M = _as_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError("matrix has non-finite entries")
    scale = 1.0 + (np.abs(M).max() if M.size else 0.0)
    if np.abs(M - M.conj().T).max() > tol * scale:
        raise DomainError("matrix is not Hermitian at tolerance")
    return _herm(M)


def hermitian_eig(M, tol=1e-12):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, V) with M = V diag(w) V* and V*V = I.
    """
    M = check_hermitian(M, tol=tol)
    w, V = np.linalg.eigh(M)
    return w[::-1].copy(), V[:, ::-1].copy()


def compact_svd(A, tol=TOL_RANK):
    """SVD truncated to singular values > tol * sigma_max.

    Returns (U, s, V) with A ~= U diag(s) V*. A zero matrix yields empty
    factors (rank 0).
    """
    A = _as_array(A)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        k = 0
    else:
        k = int(np.count_nonzero(s > tol * s[0]))
    return U[:, :k], s[:k], Vh[:k].conj().T


def _eig_power(w, V, p):
    """V diag(w**p) V*, exactly Hermitian, from an eigensystem."""
    return _herm((V * w**p) @ V.conj().T)


def psd_power(M, p, tol=TOL_RANK):
    """M**p for positive definite M through the eigendecomposition."""
    w, V = hermitian_eig(M)
    if w.size == 0 or w[-1] <= tol * max(w[0], 0.0) or w[-1] <= 0.0:
        raise DomainError("psd_power requires a positive definite matrix")
    return _eig_power(w, V, p)


def check_pd(M, tol=TOL_RANK, name="matrix"):
    """Validate that M is Hermitian positive definite; returns (M, w, V)."""
    w, V = hermitian_eig(M)
    if w.size == 0 or w[-1] <= tol * max(w[0], 0.0) or w[-1] <= 0.0:
        raise DomainError(f"{name} is not positive definite at tolerance")
    return _herm(_as_array(M)), w, V


def _inv_half_from(w, V):
    """X^{-1/2} = V diag(w^{-1/2}) V* from the eigensystem of X."""
    return (V / np.sqrt(w)) @ V.conj().T


def _inv_half(X):
    """X^{-1/2} of a positive definite Hermitian X, from one eigh."""
    lam, V = np.linalg.eigh(_herm(X))
    if lam[0] <= 0.0:
        raise DomainError("fiber representation not positive definite")
    return _inv_half_from(lam, V)


def pencil_spectra(X_invhalf, Y):
    """Descending spectra of X^{-1} Y, for Y or a stack of Y, as one (stacked)
    eigvalsh of F Y F*. F may be any factor with F* F = X^{-1}: X^{-1/2}, or
    C^{-1/2} G* for X = G C G* with G unitary. Every pencil spectrum in the
    package comes from here.
    """
    W = X_invhalf @ Y @ X_invhalf.conj().T
    return np.linalg.eigvalsh(_herm(W))[..., ::-1]


def _pencil_from_eig(w, V, Y):
    """Pencil spectrum of X^{-1} Y for X given by its eigensystem (w, V)."""
    lam = pencil_spectra(_inv_half_from(w, V), Y).copy()
    if lam[-1] <= 0.0:
        raise DomainError("pencil right argument is not positive definite")
    return lam


def pencil_eigenvalues(X, Y, tol=TOL_RANK):
    """Spectrum of X^{-1} Y for a positive definite pair, descending.

    Equal to the spectrum of X^{-1/2} Y X^{-1/2}; all values positive.
    """
    X = _as_array(X)
    Y = _as_array(Y)
    if X.shape != Y.shape:
        raise DomainError(f"pencil size mismatch: {X.shape} vs {Y.shape}")
    _, wx, Vx = check_pd(X, tol=tol, name="pencil left argument")
    return _pencil_from_eig(wx, Vx, check_hermitian(Y))


@dataclass
class PsdMatrix:
    """A finite Hermitian PSD matrix with cached spectral data.

    The eigendecomposition is computed once at construction; rank and
    range queries reuse it.
    """

    entries: np.ndarray
    tol_rank: float = TOL_RANK
    tol_psd: float = TOL_PSD
    _eigvals: np.ndarray = _dataclass_field(init=False, repr=False)
    _eigvecs: np.ndarray = _dataclass_field(init=False, repr=False)

    def __post_init__(self):
        self.entries = check_hermitian(self.entries)
        w, V = np.linalg.eigh(self.entries)
        wmax = w[-1] if w.size else 0.0
        if w.size and w[0] < -self.tol_psd * (1.0 + max(wmax, 0.0)):
            raise DomainError("matrix is not PSD at tolerance")
        self._eigvals = w[::-1].copy()
        self._eigvecs = V[:, ::-1].copy()

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def field(self):
        return "complex" if np.iscomplexobj(self.entries) else "real"

    @property
    def rank(self):
        w = self._eigvals
        if w.size == 0 or w[0] <= 0.0:
            return 0
        return int(np.count_nonzero(w > self.tol_rank * w[0]))

    def eigensystem(self):
        """Cached (eigenvalues descending, eigenvectors)."""
        return self._eigvals, self._eigvecs

    def compact_factors(self):
        """(U, w) with entries = U diag(w) U*, w the positive eigenvalues."""
        r = self.rank
        return self._eigvecs[:, :r], self._eigvals[:r]


@dataclass
class Subspace:
    """A point of Gr(r, n) stored as an n x r column-orthonormal frame."""

    frame: np.ndarray

    def __post_init__(self):
        self.frame = _as_array(self.frame)
        if self.frame.ndim != 2:
            raise DomainError("subspace frame must be a 2-d array")
        F = self.frame
        if self.r:
            G = F.conj().T @ F
            if np.abs(G - np.eye(self.r)).max() > 1e-10:
                raise DomainError("subspace frame is not orthonormal at 1e-10")

    @property
    def n(self):
        return self.frame.shape[0]

    @property
    def r(self):
        return self.frame.shape[1]


@dataclass
class PrincipalSystem:
    """Principal angles and aligned bases between two subspaces.

    sigma descending in [0, 1], theta = arccos(sigma) ascending, and
    leftFrame* rightFrame is diagonal-rectangular with diagonal sigma.
    """

    sigma: np.ndarray
    theta: np.ndarray
    left_frame: np.ndarray
    right_frame: np.ndarray


def range_subspace(A: PsdMatrix, tol=None) -> Subspace:
    """Orthonormal frame for the column space of A (the bundle projection)."""
    if tol is not None and tol != A.tol_rank:
        w, V = A.eigensystem()
        wmax = w[0] if w.size else 0.0
        r = int(np.count_nonzero(w > tol * wmax)) if wmax > 0 else 0
        return Subspace(V[:, :r])
    U, _ = A.compact_factors()
    return Subspace(U)


def embed_pad(A: PsdMatrix, n: int) -> PsdMatrix:
    """Embed A into ambient dimension n as blkdiag(A, 0)."""
    m = A.n
    if n < m:
        raise DomainError(f"cannot pad from dimension {m} down to {n}")
    if n == m:
        return A
    out = np.zeros((n, n), dtype=A.entries.dtype)
    out[:m, :m] = A.entries
    return PsdMatrix(out, tol_rank=A.tol_rank, tol_psd=A.tol_psd)


def small_angles_refined(sigma, U_frame, bv):
    """Principal angles from cosines, with a sine-based pass for small angles.

    arccos loses half the working precision near sigma = 1; for those
    columns the angle is recomputed as arcsin of the residual of the
    aligned right vector off the left subspace.
    """
    theta = np.arccos(sigma)
    k = min(len(sigma), bv.shape[1])
    small = np.nonzero(sigma[:k] > 0.7)[0]
    if small.size:
        cols = bv[:, small]
        resid = cols - U_frame @ (U_frame.conj().T @ cols)
        theta[small] = np.arcsin(np.clip(np.linalg.norm(resid, axis=0), 0.0, 1.0))
    return theta


def principal_system(U: Subspace, V: Subspace) -> PrincipalSystem:
    """Principal angles and aligned frames from the full SVD of U* V."""
    if U.n != V.n:
        raise DomainError(f"ambient mismatch: {U.n} vs {V.n}")
    M = U.frame.conj().T @ V.frame
    P, s, Qh = np.linalg.svd(M, full_matrices=True)
    sigma = np.clip(s, 0.0, 1.0)
    right = V.frame @ Qh.conj().T
    theta = small_angles_refined(sigma, U.frame, right)
    return PrincipalSystem(
        sigma=sigma,
        theta=theta,
        left_frame=U.frame @ P,
        right_frame=right,
    )


def stratum_index(ps: PrincipalSystem, tol=TOL_RANK) -> int:
    """l = dim(U intersect V-perp) = number of vanishing singular values."""
    return int(np.count_nonzero(ps.sigma <= tol))


def fiber_representation(A: PsdMatrix, basis, tol=1e-8) -> np.ndarray:
    """basis* A basis for an orthonormal basis inside range(A).

    The result is the positive definite matrix of A viewed as an operator
    on its range; its spectrum does not depend on the basis choice.
    """
    basis = _as_array(basis)
    U, _ = A.compact_factors()
    resid = basis - U @ (U.conj().T @ basis)
    if basis.size and np.abs(resid).max() > tol:
        raise DomainError("basis does not lie inside range(A) at tolerance")
    return _herm(basis.conj().T @ A.entries @ basis)
