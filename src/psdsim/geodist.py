"""The bundle-based geometric distance between PSD matrices.

The distance combines a Grassmann base distance between the ranges with a
fiber divergence between the induced positive definite representations:

    total = sqrt(grassmann_term^2 + fiber_term^2).

On the generic stratum (no right principal angles, l = 0) the fiber term
has a closed form through the clamped pencil spectrum. On degenerate
strata the principal bases are ambiguous and the fiber term is evaluated
either by maximizing over the residual unitary freedom ("algorithm1") or
by a max-min over the sampled ambiguity group ("faithful").
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .divergences import FiberDivergence, _fiber_values
from .errors import DomainError, OptimizerError
from .grassmann import GrassmannMetric, grassmann_distance
from .linalg import TOL_RANK, PsdMatrix, _herm, _inv_half, pencil_spectra, small_angles_refined
from .pointset import _spectrum_objective

__all__ = [
    "MetricSpec",
    "GdResult",
    "generalized_hausdorff",
    "representation_set",
    "gd",
    "gd_degenerate_fiber",
    "pairwise_gram",
]


@dataclass(frozen=True)
class MetricSpec:
    grassmann: GrassmannMetric
    fiber: FiberDivergence
    hausdorff_mode: str = "algorithm1"  # or "faithful"

    def __post_init__(self):
        if self.hausdorff_mode not in ("algorithm1", "faithful"):
            raise DomainError(f"unknown hausdorff mode {self.hausdorff_mode!r}")


@dataclass
class GdResult:
    total: float
    grassmann_term: float
    fiber_term: float
    stratum_index: int
    pencil_spectrum: np.ndarray  # clamped, descending
    angles: np.ndarray           # ascending
    mode: str                    # closedForm | optimizedDegenerate | faithfulSampled

    def to_dict(self):
        return {
            "total": self.total,
            "grassmann_term": self.grassmann_term,
            "fiber_term": self.fiber_term,
            "stratum_index": self.stratum_index,
            "angles": [float(t) for t in self.angles],
            "pencil_spectrum": [float(x) for x in self.pencil_spectrum],
            "mode": self.mode,
        }

    def to_json(self):
        def num(x):
            if math.isinf(x):
                return "Infinity"
            return f"{x:.17g}"

        parts = [
            f'"total": {num(self.total)}',
            f'"grassmann_term": {num(self.grassmann_term)}',
            f'"fiber_term": {num(self.fiber_term)}',
            f'"stratum_index": {self.stratum_index}',
            '"angles": [' + ", ".join(num(t) for t in self.angles) + "]",
            '"pencil_spectrum": [' + ", ".join(num(x) for x in self.pencil_spectrum) + "]",
            f'"mode": {json.dumps(self.mode)}',
        ]
        return "{" + ", ".join(parts) + "}"


# --- generalized Hausdorff functional ---------------------------------


def generalized_hausdorff(f, pairs):
    """max of the two directed sup-inf values over a paired subset.

    `pairs` is a finite iterable of (x, y); the pairing structure is read
    off by object identity, so reuse the same x object for all its
    partners. Reduces to f(x, y) on a singleton.
    """
    pairs = list(pairs)
    if not pairs:
        raise DomainError("empty pairing set")
    partners_of_x = {}
    partners_of_y = {}
    xs, ys = {}, {}
    for x, y in pairs:
        xs[id(x)] = x
        ys[id(y)] = y
        partners_of_x.setdefault(id(x), []).append(y)
        partners_of_y.setdefault(id(y), []).append(x)
    d1 = max(min(f(xs[kx], y) for y in part) for kx, part in partners_of_x.items())
    d2 = max(min(f(x, ys[ky]) for x in part) for ky, part in partners_of_y.items())
    return max(d1, d2)


# --- internal: preparation of the aligned fiber pair ------------------


@dataclass
class _Prepared:
    """An aligned pair (rank r <= s) in factored form.

    With M = UA* UB = P diag(sigma) Qh, the fiber representations are
    C = P* diag(wA) P and D = Qh diag(wB) Qh*. They are built on first use:
    the closed form needs only the pencil spectrum mu = lambda(C^{-1} D11),
    which is sigma(K)^2 for K = diag(wA^{-1/2}) P Qh[:r] diag(wB^{1/2}).
    """

    sigma: np.ndarray
    theta: np.ndarray
    l: int
    mu: np.ndarray  # unclamped pencil spectrum, descending
    wA: np.ndarray
    P: np.ndarray
    wB: np.ndarray
    Qh: np.ndarray

    @property
    def r(self):
        return len(self.wA)

    @property
    def s(self):
        return len(self.wB)

    @cached_property
    def C(self):
        return _herm(self.P.conj().T @ (self.wA[:, None] * self.P))

    @cached_property
    def D(self):
        return _herm(self.Qh @ (self.wB[:, None] * self.Qh.conj().T))

    def reversed(self, tol):
        """The same pair with its arguments swapped; equal ranks only.

        M* = Qh* diag(sigma) P*, so the factors trade places and K becomes
        K^{-1}: the reverse pencil spectrum is 1/mu.
        """
        return replace(self, l=int(np.count_nonzero(self.sigma <= tol)),
                       mu=1.0 / self.mu[::-1], wA=self.wB, P=self.Qh.conj().T,
                       wB=self.wA, Qh=self.P.conj().T)


def _prepare(A: PsdMatrix, B: PsdMatrix, tol):
    """Aligned fiber pair; assumes rank(A) <= rank(B)."""
    n = max(A.n, B.n)
    UA, wA = A.compact_factors()
    UB, wB = B.compact_factors()
    r, s = len(wA), len(wB)
    if r == 0 or s == 0:
        raise DomainError("zero-rank input")
    if UA.shape[0] < n:
        UA = np.vstack([UA, np.zeros((n - UA.shape[0], r), dtype=UA.dtype)])
    if UB.shape[0] < n:
        UB = np.vstack([UB, np.zeros((n - UB.shape[0], s), dtype=UB.dtype)])
    M = UA.conj().T @ UB
    P, sig, Qh = np.linalg.svd(M, full_matrices=True)
    sigma = np.clip(sig, 0.0, 1.0)
    theta = small_angles_refined(sigma, UA, UB @ Qh[:r].conj().T)
    K = (P @ Qh[:r]) * np.sqrt(wB) / np.sqrt(wA)[:, None]
    mu = np.linalg.svd(K, compute_uv=False) ** 2
    return _Prepared(sigma=sigma, theta=theta, l=int(np.count_nonzero(sigma <= tol)),
                     mu=mu, wA=wA, P=P, wB=wB, Qh=Qh)


def _batch_values(spec, X_invhalf, Y11_batch):
    """Fiber values of the pencils X^{-1} Y11 for a stack of Y11 blocks."""
    return _fiber_values(spec, _spectrum_objective(spec, pencil_spectra(X_invhalf, Y11_batch)))


# --- ambiguity group sampling -----------------------------------------


def _sigma_blocks(sigma, count, tol=1e-8):
    """Group the first `count` singular values into runs of equal value."""
    blocks = []
    i = 0
    while i < count:
        j = i + 1
        while j < count and abs(sigma[j] - sigma[i]) <= tol:
            j += 1
        blocks.append((i, j))
        i = j
    return blocks


def _random_unitaries(rng, count, k, complex_field):
    """A (count, k, k) stack of random orthogonal/unitary matrices."""
    if k == 0:
        return np.zeros((count, 0, 0))
    G = rng.normal(size=(count, k, k))
    if complex_field:
        G = G + 1j * rng.normal(size=(count, k, k))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    d = d / np.abs(np.where(d == 0, 1.0, d))
    return Q * d[..., None, :]


def _tail_unitaries(rng, count, k, complex_field):
    """Sample U(k)/O(k): quasi-uniform grids for tiny real blocks, random QR else."""
    if k == 0:
        return np.zeros((count, 0, 0))
    if not complex_field and k == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[:, None, None] * np.ones((count, 1, 1))
    if not complex_field and k == 2:
        # evenly spaced rotations (random phase offset), alternating reflection
        ang = rng.uniform(0.0, 2.0 * np.pi) + np.linspace(
            0.0, 2.0 * np.pi, max(1, (count + 1) // 2), endpoint=False)
        c, s = np.cos(ang), np.sin(ang)
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        refl = rot.copy()
        refl[:, :, 1] *= -1.0
        return np.concatenate([rot, refl])[:count]
    return _random_unitaries(rng, count, k, complex_field)


def _sample_group(rng, k_extra, count, complex_field, r_total):
    """Sample blkdiag(I, T) tail factors; element 0 is always the identity."""
    out = np.tile(np.eye(r_total, dtype=complex if complex_field else float),
                  (count, 1, 1))
    if k_extra and count > 1:
        i0 = r_total - k_extra
        out[1:, i0:, i0:] = _tail_unitaries(rng, count - 1, k_extra, complex_field)
    return out


def _ambiguity_frames(rng, blocks, r, s, l, n_s, n_t, complex_field):
    """One draw of the principal-basis ambiguity group, as stacked frames.

    A unitary P acting on each run of equal singular values, shared by the
    (n_s, r, r) left frames blkdiag(P, S) and the (n_t, s, s) right frames
    blkdiag(P, T); S acts on the l right-angle rows of the left frame, T on
    the s - r + l trailing rows of the right frame. Element 0 of the left
    stack has S = I, and element 0 of the right stack has T = I.
    """
    P = np.eye(r - l, dtype=complex if complex_field else float)
    for (i, j) in blocks:
        P[i:j, i:j] = _random_unitaries(rng, 1, j - i, complex_field)[0]
    Gs = _sample_group(rng, l, n_s, complex_field, r)
    Gs[:, : r - l, : r - l] = P
    Ht = _sample_group(rng, s - r + l, n_t, complex_field, s)
    Ht[:, : r - l, : r - l] = P
    return Gs, Ht


def _congruence(G, M):
    """G M G* for a frame or a stack of frames G."""
    return G @ M @ np.swapaxes(G.conj(), -1, -2)


def representation_set(A: PsdMatrix, B: PsdMatrix, grid=256, tol=TOL_RANK, seed=0):
    """Sampled fiber-representation pairs over the principal-basis ambiguity.

    Returns a list of (M_X, M_Y) array pairs. Pairs sharing the same
    repeated-sigma block rotation reuse the same array objects, so the
    list can be fed to generalized_hausdorff directly.
    """
    if A.rank > B.rank:
        A, B = B, A
    prep = _prepare(A, B, tol)
    r, s, l = prep.r, prep.s, prep.l
    complex_field = np.iscomplexobj(prep.C) or np.iscomplexobj(prep.D)
    rng = np.random.default_rng(seed)
    blocks = _sigma_blocks(prep.sigma, r - l)
    n_p = max(1, int(round(grid ** (1.0 / 3.0))))
    n_s = 1 if l == 0 else n_p
    n_t = max(1, grid // max(1, n_p * n_s))
    pairs = []
    for _ in range(n_p):
        Gs, Ht = _ambiguity_frames(rng, blocks, r, s, l, n_s, n_t, complex_field)
        xs, ys = list(_herm(_congruence(Gs, prep.C))), list(_herm(_congruence(Ht, prep.D)))
        pairs.extend((x, y) for x in xs for y in ys)
    return pairs


def _faithful_fiber(C, D, sigma, l, spec: FiberDivergence, samples, seed):
    """Directed max-min fiber value over the sampled ambiguity group.

    A left frame G enters through (G C G*)^{-1/2} = G C^{-1/2} G*. At l = 0
    every pair has the pencil of (C, D11), so that one pair is the value.
    """
    r, s = C.shape[0], D.shape[0]
    Cih = _inv_half(C)
    if l == 0:
        return float(_batch_values(spec, Cih, D[:r, :r]))
    complex_field = np.iscomplexobj(C) or np.iscomplexobj(D)
    rng = np.random.default_rng(seed)
    blocks = _sigma_blocks(sigma, r - l)
    n_p = 4
    n_s = max(4, int(math.sqrt(samples / n_p)))
    n_t = max(4, samples // (n_p * n_s))

    d1 = d2 = -np.inf
    for _ in range(n_p):
        Gs, Ht = _ambiguity_frames(rng, blocks, r, s, l, n_s, n_t, complex_field)
        Y11 = _congruence(Ht[:, :r], D)
        vals = np.stack([_batch_values(spec, Cih @ G.conj().T, Y11) for G in Gs])
        d1 = max(d1, float(vals.min(axis=1).max()))
        d2 = max(d2, float(vals.min(axis=0).max()))
    return max(d1, d2)


# --- degenerate-stratum optimizer -------------------------------------


def _tail_rows(r, l, D, Ts):
    """blkdiag(I, T)[:r] for a stack of tails T: the right-frame rows D11 sees."""
    i0 = r - l
    E = np.zeros((Ts.shape[0], r, D.shape[0]), dtype=np.result_type(D, Ts))
    E[:, :i0, :i0] = np.eye(i0)
    E[:, i0:, i0:] = Ts[:, :l]
    return E


def _conjugated_block_values(spec, C_invhalf, D, l, Ts):
    """Fiber values for a stack of tail unitaries T conjugating D."""
    E = _tail_rows(C_invhalf.shape[0], l, D, Ts)
    return _batch_values(spec, C_invhalf, _congruence(E, D))


# Riemannian ascent over the tail group: iteration cap, stopping tolerance
# on |Omega|_F / (1 + |F|), Armijo constant and backtracking limit
_ASCENT_MAX_ITER = 500
_ASCENT_GTOL = 1e-7
_ARMIJO = 1e-4
_MAX_BACKTRACK = 30


def _ascent_state(spec, C_invhalf, D, l, Ts):
    """Objective F and Riemannian gradient Omega for a stack of tails T.

    H = blkdiag(I, T) and E = H[:r], so W = C^{-1/2} E D E* C^{-1/2}. With
    W = V diag(lambda) V* and G = V diag(F'(lambda)) V*, the Euclidean
    gradient of F in E is 2 C^{-1/2} G C^{-1/2} E D; only the first l rows
    of T enter E, so its tail block is the gradient in T. Omega =
    skew(T* grad) is the gradient in the Lie algebra under T -> T exp(Omega).
    """
    r = C_invhalf.shape[0]
    i0 = r - l
    CE = C_invhalf @ _tail_rows(r, l, D, Ts)
    Z = CE @ D
    W = Z @ np.swapaxes(CE.conj(), -1, -2)
    lam, V = np.linalg.eigh(0.5 * (W + np.swapaxes(W.conj(), -1, -2)))
    F, dF = _spectrum_objective(spec, lam[..., ::-1], with_grad=True)
    G = (V * dF[..., ::-1][..., None, :]) @ np.swapaxes(V.conj(), -1, -2)
    grad = 2.0 * (C_invhalf @ G @ Z)[:, i0:, i0:]
    X = np.swapaxes(Ts[:, :l].conj(), -1, -2) @ grad
    return F, 0.5 * (X - np.swapaxes(X.conj(), -1, -2))


def _cayley(Ts, Om):
    """T (I - Omega/2)^{-1} (I + Omega/2): unitary for skew-Hermitian Omega."""
    eye = np.eye(Ts.shape[-1])
    return Ts @ np.linalg.solve(eye - 0.5 * Om, eye + 0.5 * Om)


def _ascend(spec, C_invhalf, D, l, Ts):
    """Batched Riemannian quasi-Newton ascent of F from every start in Ts.

    The gradients Omega live in the Lie algebra of skew-Hermitian k x k
    matrices, where left translation identifies every tangent space with
    one inner-product space; each start keeps a BFGS inverse Hessian there,
    first scaled by the Barzilai-Borwein step <s, y>/<y, y>. A step is the
    Cayley retraction of the quasi-Newton direction, with per-start Armijo
    backtracking; a start stops once |Omega|_F <= gtol (1 + |F|). Returns
    the final stack; raises OptimizerError if no start met the rule.
    """
    m, k = Ts.shape[0], Ts.shape[-1]
    Ts = Ts.copy()
    F, Om = _ascent_state(spec, C_invhalf, D, l, Ts)
    g = Om.reshape(m, -1).view(float)  # a view: real coordinates of Omega
    Hinv = np.tile(np.eye(g.shape[1]), (m, 1, 1))
    scaled = np.zeros(m, dtype=bool)
    live = np.ones(m, dtype=bool)
    for _ in range(_ASCENT_MAX_ITER):
        live &= np.linalg.norm(g, axis=1) > _ASCENT_GTOL * (1.0 + np.abs(F))
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        p = np.einsum("mij,mj->mi", Hinv[idx], g[idx])
        slope = np.sum(p * g[idx], axis=1)
        t = np.ones(idx.size)
        for _ in range(_MAX_BACKTRACK):
            P = p.view(Om.dtype).reshape(-1, k, k)
            P = 0.5 * (P - np.swapaxes(P.conj(), -1, -2))
            T_try = _cayley(Ts[idx], t[:, None, None] * P)
            F_try, Om_try = _ascent_state(spec, C_invhalf, D, l, T_try)
            ok = F_try >= F[idx] + _ARMIJO * t * slope
            acc = idx[ok]
            if acc.size:
                # an accepted step that leaves F unchanged is below its resolution
                live[acc[F_try[ok] <= F[acc]]] = False
                g_new = Om_try[ok].reshape(acc.size, -1).view(float)
                _bfgs_update(Hinv, scaled, acc, t[ok, None] * p[ok], g[acc] - g_new)
                Ts[acc], F[acc], Om[acc] = T_try[ok], F_try[ok], Om_try[ok]
            # backtrack to the maximizer of the quadratic through F, the slope
            # and F_try, kept within [0.1, 0.5] of the rejected step
            drop = F[idx[~ok]] + t[~ok] * slope[~ok] - F_try[~ok]
            idx, p, slope, t = idx[~ok], p[~ok], slope[~ok], t[~ok]
            if idx.size == 0:
                break
            t = np.clip(0.5 * slope * t * t / drop, 0.1 * t, 0.5 * t)
        # starts that found no ascent step sit at the resolution of F too
        live[idx] = False
    done = np.linalg.norm(g, axis=1) <= _ASCENT_GTOL * (1.0 + np.abs(F))
    if not done.any():
        raise OptimizerError(
            f"degenerate-stratum ascent: none of {m} starts reached a stationary point")
    return Ts


def _bfgs_update(Hinv, scaled, idx, s, y):
    """BFGS update of the inverse Hessians of -F at idx, for steps s and
    gradient changes y; skipped where the curvature <s, y> is not positive."""
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


def gd_degenerate_fiber(Crep, Drep, l, spec: FiberDivergence, budget=16, seed=0):
    """Fiber term on a degenerate stratum (l >= 1 right principal angles).

    Maximizes the extended divergence over the tail unitary group
    U(s-r+l) conjugating the larger representation (algorithm1): a
    batched Riemannian ascent from the best max(2, budget) of 512 sampled
    tails (over the reals with a one-dimensional tail, the two signs are
    enumerated instead). Deterministic given a seed.
    """
    C = np.asarray(Crep)
    D = np.asarray(Drep)
    r, s = C.shape[0], D.shape[0]
    if l < 1 or r > s:
        raise DomainError("degenerate evaluator needs l >= 1 and r <= s")
    k = s - r + l
    complex_field = np.iscomplexobj(C) or np.iscomplexobj(D)

    Cih = _inv_half(C)
    if k == 1 and not complex_field:
        Ts = np.array([[[1.0]], [[-1.0]]])
        return float(_conjugated_block_values(spec, Cih, D, l, Ts).max())

    rng = np.random.default_rng(seed)

    # coarse sampling pass to seed the local maximizations
    n_coarse = 512
    Ts = np.concatenate([
        _random_unitaries(rng, n_coarse - 1, k, complex_field),
        np.eye(k, dtype=complex if complex_field else float)[None],
    ])
    coarse = _conjugated_block_values(spec, Cih, D, l, Ts)
    starts = Ts[np.argsort(coarse)[::-1][: max(2, budget)]]
    final = _conjugated_block_values(spec, Cih, D, l, _ascend(spec, Cih, D, l, starts))
    return float(max(coarse.max(), final.max()))


# --- the distance -----------------------------------------------------


def gd(A: PsdMatrix, B: PsdMatrix, spec: MetricSpec, seed=0, budget=16,
       samples=None, tol=None) -> GdResult:
    """Geometric distance between two PSD matrices of any size and rank."""
    if A.rank == 0 or B.rank == 0:
        raise DomainError("zero-rank input")
    if A.rank > B.rank:
        A, B = B, A  # the measurement is symmetric across unequal ranks
    tol = A.tol_rank if tol is None else tol
    return _evaluate(_prepare(A, B, tol), spec, seed, budget, samples)


def _evaluate(prep: _Prepared, spec: MetricSpec, seed, budget, samples) -> GdResult:
    gterm = grassmann_distance(spec.grassmann, prep.theta)
    if spec.hausdorff_mode == "faithful":
        fterm = _faithful_fiber(prep.C, prep.D, prep.sigma, prep.l, spec.fiber,
                                samples or 20000, seed)
        mode = "faithfulSampled"
    elif prep.l == 0:
        fterm = float(_fiber_values(spec.fiber, _spectrum_objective(spec.fiber, prep.mu)))
        mode = "closedForm"
    else:
        fterm = gd_degenerate_fiber(prep.C, prep.D, prep.l, spec.fiber,
                                    budget=budget, seed=seed)
        mode = "optimizedDegenerate"
    return GdResult(
        total=math.hypot(gterm, fterm),
        grassmann_term=gterm,
        fiber_term=fterm,
        stratum_index=prep.l,
        pencil_spectrum=np.maximum(1.0, prep.mu),
        angles=prep.theta,
        mode=mode,
    )


@contextmanager
def _pair_context(i, j):
    try:
        yield
    except DomainError as e:
        raise DomainError(f"pair ({i}, {j}): {e}") from e


def pairwise_gram(mats, spec: MetricSpec, seed=0, budget=16, samples=None, tol=None):
    """Matrix of pairwise distances; diagonal exactly zero.

    Each unordered pair is aligned once. Pairs of unequal rank are
    symmetric. Equal-rank pairs on the closed-form path read the reverse
    direction off the same factorization; other equal-rank pairs evaluate
    each direction with `gd`.
    """
    if not mats:
        raise DomainError("empty input list")
    n = len(mats)
    out = np.zeros((n, n))
    kw = {"seed": seed, "budget": budget, "samples": samples}
    for i in range(n):
        for j in range(i + 1, n):
            A, B = mats[i], mats[j]
            with _pair_context(i, j):
                if A.rank != B.rank:
                    out[i, j] = out[j, i] = gd(A, B, spec, tol=tol, **kw).total
                    continue
                prep = _prepare(A, B, A.tol_rank if tol is None else tol)
                out[i, j] = _evaluate(prep, spec, **kw).total
            back = prep.reversed(B.tol_rank if tol is None else tol)
            with _pair_context(j, i):
                if spec.hausdorff_mode == "faithful" or prep.l or back.l:
                    out[j, i] = gd(B, A, spec, tol=tol, **kw).total
                else:
                    out[j, i] = _evaluate(back, spec, **kw).total
    return out
