"""Field-generic dense Hermitian linear algebra primitives.

Everything downstream (divergences, distances, transport) is built on the
handful of factorizations here: Hermitian eigendecompositions, the compact
factor of a PsdMatrix, principal angles between subspaces and fiber
representations of a PSD matrix on its range. Real and complex inputs are
both supported; real inputs stay in real arithmetic throughout.
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
    # stacked-safe: transpose only the trailing two axes; one temporary
    out = M + np.swapaxes(M.conj(), -1, -2)
    out *= 0.5
    return out


def check_hermitian(M):
    M = _as_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError("matrix has non-finite entries")
    if M.size and np.abs(M - M.conj().T).max() > TOL_HERMITIAN * (1.0 + np.abs(M).max()):
        raise DomainError("matrix is not Hermitian at tolerance")
    return _herm(M)


def hermitian_eig(M):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, V) with M = V diag(w) V* and V*V = I.
    """
    w, V = np.linalg.eigh(check_hermitian(M))
    return w[::-1].copy(), V[:, ::-1].copy()


def _eig_power(w, V, p):
    """V diag(w**p) V*, exactly Hermitian, from an eigensystem."""
    return _herm((V * w**p) @ V.conj().T)


def check_pd(M, name="matrix"):
    """The one positive-definiteness rule for a caller's matrix: Hermitian, smallest
    eigenvalue > TOL_RANK * largest. Returns (M symmetrized, w descending, V)."""
    M = check_hermitian(M)
    w, V = np.linalg.eigh(M)
    if w.size == 0 or w[0] <= TOL_RANK * max(w[-1], 0.0):
        raise DomainError(f"{name} is not positive definite at tolerance")
    return M, w[::-1].copy(), V[:, ::-1].copy()


def psd_power(M, p):
    """M**p for positive definite M through the eigendecomposition."""
    _, w, V = check_pd(M, name="psd_power argument")
    return _eig_power(w, V, p)


def _congruence(G, M):
    """G M G*, formed as (G M) G*, for a matrix or a stack of them: the one
    product order of every pencil and every derived matrix."""
    return (G @ M) @ np.swapaxes(G.conj(), -1, -2)


def _derived_eig(M):
    """Eigensystem (w, V) of the Hermitian part of a matrix derived from
    validated inputs, w descending. Such a matrix is positive definite by
    construction and is not judged by check_pd again: only an eigenvalue
    rounded to <= 0 raises."""
    w, V = np.linalg.eigh(_herm(M))
    if w[0] <= 0.0:
        raise DomainError("derived matrix not positive definite")
    return w[::-1].copy(), V[:, ::-1].copy()


def pencil_spectra(F, Y):
    """Descending spectra of X^{-1} Y for factors F and Ys broadcast
    against each other as matmul broadcasts them (F[:, None] against Y for
    the table of every pair), as one stacked eigvalsh of F Y F*; the result
    has the broadcast stack shape + (r,).

    F may be any factor with F* F = X^{-1}: X^{-1/2}, or C^{-1/2} G* for
    X = G C G* with G unitary. Each pair is formed by the same two r x r
    products, (F Y) F*, whatever stack it sits in, so a pair's spectrum is
    the same bit for bit in a table, in a gathered stack of pairs and in a
    call of its own. `pencil_eigenvalues`, the point-set values and the
    sampled values of `gd` (geodist._entry_values, for the coarse pass of
    `algorithm1` and faithful mode's entries) take their spectra from here.
    The closed form of `gd` takes sigma(K)^2 instead, and the paths that
    also need eigenvectors (the degenerate ascent, whose eigh gets the
    coarse pass's F Y F* bit for bit at any tail, and through _derived_eig
    the point-set witnesses and the quasi-geodesic) call eigh on F Y F*,
    formed by the same products (_congruence).
    """
    return np.linalg.eigvalsh(_herm(_congruence(F, Y)))[..., ::-1]


def _pencil_from_eig(w, V, Y):
    """Pencil spectrum of X^{-1} Y for X given by its eigensystem (w, V)."""
    lam = pencil_spectra(_eig_power(w, V, -0.5), Y).copy()
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
    Y, _, _ = check_pd(Y, name="pencil right argument")
    return _pencil_from_eig(wx, Vx, Y)


def _check_tolerances(**tols):
    for name, tol in tols.items():
        if not 0.0 <= tol < np.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {tol}")


@dataclass(frozen=True)
class PsdMatrix:
    """A finite Hermitian PSD matrix with its cached compact factor.

    One eigendecomposition at construction decides PSD-ness and the rank
    r from the full spectrum; only the r leading eigenvectors (n x r) and
    the r positive eigenvalues are kept, which every range and fiber query
    reads. `tol_rank` (relative to the largest eigenvalue)
    decides the rank, and so the stratum of every pair in which this is the
    lower-rank argument; `tol_psd` bounds the negative eigenvalues accepted.
    Both must be finite and >= 0, and like every field are fixed at
    construction; the arrays are read-only.
    """

    entries: np.ndarray
    tol_rank: float = TOL_RANK
    tol_psd: float = TOL_PSD
    rank: int = _dataclass_field(init=False)
    _w: np.ndarray = _dataclass_field(init=False, repr=False)
    _U: np.ndarray = _dataclass_field(init=False, repr=False)

    def __post_init__(self):
        _check_tolerances(tol_rank=self.tol_rank, tol_psd=self.tol_psd)
        entries = check_hermitian(self.entries)
        w, V = np.linalg.eigh(entries)
        # ascending: the PSD test reads the smallest eigenvalue, the rank the largest
        if w.size and w[0] < -self.tol_psd * (1.0 + max(w[-1], 0.0)):
            raise DomainError("matrix is not PSD at tolerance")
        rank = 0 if w.size == 0 or w[-1] <= 0.0 else int(np.count_nonzero(w > self.tol_rank * w[-1]))
        # owned C-contiguous copies of the r leading columns and values, descending,
        # so that the n x n basis is not kept alive
        n = w.size
        U = np.ascontiguousarray(V[:, n - rank:][:, ::-1])
        w = w[n - rank:][::-1].copy()
        # read-only, so that rank and the compact factor cannot go stale
        for a in (entries, w, U):
            a.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_U", U)

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def field(self):
        return "complex" if np.iscomplexobj(self.entries) else "real"

    def compact_factors(self):
        """(U, w) with entries = U diag(w) U*, w the positive eigenvalues
        descending; U is n x r."""
        return self._U, self._w


@dataclass
class Subspace:
    """A point of Gr(r, n) stored as an n x r column-orthonormal frame; as for a
    PsdMatrix, `tol_rank` decides the strata of the pairs it is first in."""

    frame: np.ndarray
    tol_rank: float = TOL_RANK

    def __post_init__(self):
        _check_tolerances(tol_rank=self.tol_rank)
        self.frame = _as_array(self.frame)
        if self.frame.ndim != 2:
            raise DomainError("subspace frame must be a 2-d array")
        F = self.frame
        # NaN compares false, so the orthonormality test below would let it pass
        if not np.isfinite(F).all():
            raise DomainError("subspace frame has non-finite entries")
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
    """Orthonormal frame for the column space of A (the bundle projection), at A's tol_rank."""
    return Subspace(A.compact_factors()[0], tol_rank=A.tol_rank)


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
    aligned right vector off the left subspace. Any leading axes of sigma
    (..., k), U_frame (..., n, r) and bv (..., n, k') are a stack of pairs.
    """
    theta = np.arccos(sigma)
    k = min(sigma.shape[-1], bv.shape[-1])
    small = sigma[..., :k] > 0.7
    if small.any():
        cols = bv[..., :k]
        resid = cols - U_frame @ (np.swapaxes(U_frame.conj(), -1, -2) @ cols)
        norms = np.linalg.norm(resid, axis=-2)[small]
        theta[..., :k][small] = np.arcsin(np.clip(norms, 0.0, 1.0))
    return theta


def _principal_angles(UA, UB):
    """(P, sigma, Qh, theta) from the full SVD UA* UB = P diag(sigma) Qh of a
    frame pair or a stack of them (leading axes): sigma clipped to [0, 1], theta
    refined by small_angles_refined on the k = min(r, s) aligned right vectors."""
    P, s, Qh = np.linalg.svd(np.swapaxes(UA.conj(), -1, -2) @ UB, full_matrices=True)
    sigma = np.clip(s, 0.0, 1.0)
    k = sigma.shape[-1]
    theta = small_angles_refined(sigma, UA, UB @ np.swapaxes(Qh[..., :k, :].conj(), -1, -2))
    return P, sigma, Qh, theta


def _right_angles(sigma, tol):
    """The stratum rule: l counts the cosines sigma <= tol, per pair of a stack."""
    return np.count_nonzero(sigma <= np.asarray(tol)[..., None], axis=-1)


def principal_system(U: Subspace, V: Subspace) -> PrincipalSystem:
    """Principal angles and aligned frames of one pair, by _principal_angles."""
    if U.n != V.n:
        raise DomainError(f"ambient mismatch: {U.n} vs {V.n}")
    P, sigma, Qh, theta = _principal_angles(U.frame, V.frame)
    return PrincipalSystem(
        sigma=sigma,
        theta=theta,
        left_frame=U.frame @ P,
        right_frame=V.frame @ Qh.conj().T,
    )


def _row_norms(x):
    """Euclidean norms of the rows of a real matrix, as np.linalg.norm(x, axis=1)
    computes them."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


# norm bound M of a trial step of _descend, 1/sqrt(eps) = 2^26: set by double
# precision alone
_MAX_STEP = np.finfo(float).eps ** -0.5


def _descend(fg, retract, X, max_iter):
    """Batched quasi-Newton descent of f from every start in the stack X.

    fg(X) returns f (m,) and its gradient g (m, d) in real coordinates of
    one inner-product space per start (for a Lie group, the Lie algebra
    under left translation); retract(X, p, t) moves each X along direction
    p by step t. Each start keeps a BFGS inverse Hessian, first scaled by
    the Barzilai-Borwein step <s, y>/<y, y>, and takes Armijo backtracking
    steps. Each search starts at t = min(1, M / |p|), M = _MAX_STEP: a
    direction from a badly scaled inverse Hessian can be 1e18 long, and a
    trial point that far off tells the search nothing while a retraction
    may not be able to take it. Double precision sets M, and no step
    shorter than M is cut. A start stops once |g| <= 1e-7 (1 + |f|), or
    when no step lowers f, which then sits at its resolution. f = +inf
    marks a point outside the domain. Returns the final stack, f, and per
    start whether it met the gradient rule.

    When every start still searching accepts its trial step, as nearly all
    do at the full step t = 1, the update is applied to them as one stack,
    with no split into accepted and rejected starts; the arithmetic is the
    same, so the result is too.
    """
    m = X.shape[0]
    X = X.copy()
    f, g = fg(X)
    Hinv = np.tile(np.eye(g.shape[1]), (m, 1, 1))
    scaled = np.zeros(m, dtype=bool)
    live = np.ones(m, dtype=bool)
    for _ in range(max_iter):
        live &= _row_norms(g) > 1e-7 * (1.0 + np.abs(f))
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        p = -np.einsum("mij,mj->mi", Hinv[idx], g[idx])
        slope = np.add.reduce(p * g[idx], axis=1)
        t = _MAX_STEP / np.maximum(_row_norms(p), _MAX_STEP)  # min(1, M / |p|), 1 at p = 0
        for _ in range(30):
            X_try = retract(X[idx], p, t)
            f_try, g_try = fg(X_try)
            f_idx = f[idx]
            ok = f_try <= f_idx + 1e-4 * t * slope
            full = ok.all()
            if ok.any():
                sel = slice(None) if full else ok  # views, not gathers, if all accept
                acc = idx[sel]
                # an accepted step that leaves f unchanged is below its resolution
                live[acc[f_try[sel] >= f_idx[sel]]] = False
                _bfgs_update(Hinv, scaled, acc, t[sel, None] * p[sel], g_try[sel] - g[acc])
                X[acc], f[acc], g[acc] = X_try[sel], f_try[sel], g_try[sel]
            if full:
                break
            # backtrack to the minimizer of the quadratic through f, the slope
            # and f_try, kept within [0.1, 0.5] of the rejected step
            rej = ~ok
            drop = f_try[rej] - (f_idx[rej] + t[rej] * slope[rej])
            idx, p, slope, t = idx[rej], p[rej], slope[rej], t[rej]
            t = np.clip(-0.5 * slope * t * t / drop, 0.1 * t, 0.5 * t)
        else:
            # starts that found no descent step sit at the resolution of f too
            live[idx] = False
    return X, f, _row_norms(g) <= 1e-7 * (1.0 + np.abs(f))


def _bfgs_update(Hinv, scaled, idx, s, y):
    """BFGS update of the inverse Hessians at idx, for steps s and gradient
    changes y; skipped where the curvature <s, y> is not positive."""
    sy = np.add.reduce(s * y, axis=1)
    use = sy > 1e-12 * _row_norms(s) * _row_norms(y)
    if not use.all():
        idx, s, y, sy = idx[use], s[use], y[use], sy[use]
    first = ~scaled[idx]
    if first.any():
        gamma = sy[first] / np.add.reduce(y[first] * y[first], axis=1)
        Hinv[idx[first]] *= gamma[:, None, None]
        scaled[idx[first]] = True
    H = Hinv[idx]
    rho = 1.0 / sy
    Hy = np.einsum("mij,mj->mi", H, y)
    yHy = np.add.reduce(y * Hy, axis=1)
    # the rank-two term s Hy* + Hy s*, formed once as u + u*
    u = s[:, :, None] * Hy[:, None, :]
    u += np.swapaxes(u, 1, 2)
    H -= rho[:, None, None] * u
    H += (rho * rho * yHy + rho)[:, None, None] * s[:, :, None] * s[:, None, :]
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
