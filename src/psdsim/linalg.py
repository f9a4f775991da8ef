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

# default tolerances of a PsdMatrix, relative
TOL_RANK = 1e-10
TOL_PSD = 1e-8
# fixed tolerances: Hermitian symmetry, relative to 1 + max|M|, and a basis
# lying inside a range, absolute
TOL_HERMITIAN = 1e-12
TOL_IN_RANGE = 1e-8


def _as_array(M):
    A = np.asarray(M)
    if A.dtype.kind not in "fc":
        A = A.astype(float)
    return A


def _herm(M):
    # stacked-safe: transpose only the trailing two axes
    return 0.5 * (M + np.swapaxes(M.conj(), -1, -2))


def check_hermitian(M):
    M = _as_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError("matrix has non-finite entries")
    scale = 1.0 + (np.abs(M).max() if M.size else 0.0)
    if np.abs(M - M.conj().T).max() > TOL_HERMITIAN * scale:
        raise DomainError("matrix is not Hermitian at tolerance")
    return _herm(M)


def hermitian_eig(M):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, V) with M = V diag(w) V* and V*V = I.
    """
    w, V = np.linalg.eigh(check_hermitian(M))
    return w[::-1].copy(), V[:, ::-1].copy()


def compact_svd(A):
    """SVD truncated to singular values > TOL_RANK * sigma_max.

    Returns (U, s, V) with A ~= U diag(s) V*. A zero matrix yields empty
    factors (rank 0).
    """
    A = _as_array(A)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        k = 0
    else:
        k = int(np.count_nonzero(s > TOL_RANK * s[0]))
    return U[:, :k], s[:k], Vh[:k].conj().T


def _eig_power(w, V, p):
    """V diag(w**p) V*, exactly Hermitian, from an eigensystem."""
    return _herm((V * w**p) @ V.conj().T)


def check_pd(M, name="matrix"):
    """Validate that M is Hermitian positive definite; returns (M, w, V)."""
    w, V = hermitian_eig(M)
    if w.size == 0 or w[-1] <= TOL_RANK * max(w[0], 0.0) or w[-1] <= 0.0:
        raise DomainError(f"{name} is not positive definite at tolerance")
    return _herm(_as_array(M)), w, V


def psd_power(M, p):
    """M**p for positive definite M through the eigendecomposition."""
    _, w, V = check_pd(M, name="psd_power argument")
    return _eig_power(w, V, p)


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


def pencil_eigenvalues(X, Y):
    """Spectrum of X^{-1} Y for a positive definite pair, descending.

    Equal to the spectrum of X^{-1/2} Y X^{-1/2}; all values positive.
    """
    X = _as_array(X)
    Y = _as_array(Y)
    if X.shape != Y.shape:
        raise DomainError(f"pencil size mismatch: {X.shape} vs {Y.shape}")
    _, wx, Vx = check_pd(X, name="pencil left argument")
    return _pencil_from_eig(wx, Vx, check_hermitian(Y))


@dataclass
class PsdMatrix:
    """A finite Hermitian PSD matrix with cached spectral data.

    The eigendecomposition is computed once at construction; rank and
    range queries reuse it. `tol_rank` (relative to the largest eigenvalue)
    decides the rank, and so the stratum of every pair in which this is the
    lower-rank argument; `tol_psd` bounds the negative eigenvalues accepted.
    Both must be finite and >= 0.
    """

    entries: np.ndarray
    tol_rank: float = TOL_RANK
    tol_psd: float = TOL_PSD
    _eigvals: np.ndarray = _dataclass_field(init=False, repr=False)
    _eigvecs: np.ndarray = _dataclass_field(init=False, repr=False)

    def __post_init__(self):
        for name, tol in (("tol_rank", self.tol_rank), ("tol_psd", self.tol_psd)):
            if not 0.0 <= tol < np.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {tol}")
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


def range_subspace(A: PsdMatrix) -> Subspace:
    """Orthonormal frame for the column space of A (the bundle projection)."""
    return Subspace(A.compact_factors()[0])


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


def stratum_index(ps: PrincipalSystem) -> int:
    """l = dim(U intersect V-perp) = number of singular values <= TOL_RANK."""
    return int(np.count_nonzero(ps.sigma <= TOL_RANK))


def _descend(fg, retract, X, max_iter):
    """Batched quasi-Newton descent of f from every start in the stack X.

    fg(X) returns f (m,) and its gradient g (m, d) in real coordinates of
    one inner-product space per start (for a Lie group, the Lie algebra
    under left translation); retract(X, p, t) moves each X along direction
    p by step t. Each start keeps a BFGS inverse Hessian, first scaled by
    the Barzilai-Borwein step <s, y>/<y, y>, and takes Armijo backtracking
    steps. A start stops once |g| <= 1e-7 (1 + |f|), or when no step lowers
    f, which then sits at its resolution. f = +inf marks a point outside
    the domain. Returns the final stack, f, and per start whether it met
    the gradient rule.
    """
    m = X.shape[0]
    X = X.copy()
    f, g = fg(X)
    Hinv = np.tile(np.eye(g.shape[1]), (m, 1, 1))
    scaled = np.zeros(m, dtype=bool)
    live = np.ones(m, dtype=bool)
    for _ in range(max_iter):
        live &= np.linalg.norm(g, axis=1) > 1e-7 * (1.0 + np.abs(f))
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        p = -np.einsum("mij,mj->mi", Hinv[idx], g[idx])
        slope = np.sum(p * g[idx], axis=1)
        t = np.ones(idx.size)
        for _ in range(30):
            X_try = retract(X[idx], p, t)
            f_try, g_try = fg(X_try)
            ok = f_try <= f[idx] + 1e-4 * t * slope
            acc = idx[ok]
            if acc.size:
                # an accepted step that leaves f unchanged is below its resolution
                live[acc[f_try[ok] >= f[acc]]] = False
                _bfgs_update(Hinv, scaled, acc, t[ok, None] * p[ok], g_try[ok] - g[acc])
                X[acc], f[acc], g[acc] = X_try[ok], f_try[ok], g_try[ok]
            # backtrack to the minimizer of the quadratic through f, the slope
            # and f_try, kept within [0.1, 0.5] of the rejected step
            drop = f_try[~ok] - (f[idx[~ok]] + t[~ok] * slope[~ok])
            idx, p, slope, t = idx[~ok], p[~ok], slope[~ok], t[~ok]
            if idx.size == 0:
                break
            t = np.clip(-0.5 * slope * t * t / drop, 0.1 * t, 0.5 * t)
        # starts that found no descent step sit at the resolution of f too
        live[idx] = False
    return X, f, np.linalg.norm(g, axis=1) <= 1e-7 * (1.0 + np.abs(f))


def _bfgs_update(Hinv, scaled, idx, s, y):
    """BFGS update of the inverse Hessians at idx, for steps s and gradient
    changes y; skipped where the curvature <s, y> is not positive."""
    sy = np.sum(s * y, axis=1)
    use = sy > 1e-12 * np.linalg.norm(s, axis=1) * np.linalg.norm(y, axis=1)
    idx, s, y, sy = idx[use], s[use], y[use], sy[use]
    first = ~scaled[idx]
    if first.any():
        gamma = sy[first] / np.sum(y[first] * y[first], axis=1)
        Hinv[idx[first]] *= gamma[:, None, None]
        scaled[idx[first]] = True
    H = Hinv[idx]
    rho = 1.0 / sy
    Hy = np.einsum("mij,mj->mi", H, y)
    yHy = np.sum(y * Hy, axis=1)
    H = (H - rho[:, None, None] * (s[:, :, None] * Hy[:, None, :] + Hy[:, :, None] * s[:, None, :])
         + (rho * rho * yHy + rho)[:, None, None] * s[:, :, None] * s[:, None, :])
    Hinv[idx] = H


def fiber_representation(A: PsdMatrix, basis) -> np.ndarray:
    """basis* A basis for an orthonormal basis inside range(A).

    The result is the positive definite matrix of A viewed as an operator
    on its range; its spectrum does not depend on the basis choice.
    """
    basis = _as_array(basis)
    U, _ = A.compact_factors()
    resid = basis - U @ (U.conj().T @ basis)
    if basis.size and np.abs(resid).max() > TOL_IN_RANGE:
        raise DomainError("basis does not lie inside range(A) at tolerance")
    return _herm(basis.conj().T @ A.entries @ basis)
