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
import threading
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .divergences import FiberDivergence, _fiber_values, apply_bound
from .errors import DomainError, OptimizerError, PsdSimError
from .grassmann import GrassmannMetric, grassmann_distance
from .linalg import (
    PsdMatrix,
    _congruence,
    _descend,
    _eig_power,
    _herm,
    _principal_angles,
    _right_angles,
    pencil_spectra,
)
from .pointset import _defined_on_box, _spectrum_objective, _spectrum_values


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
        """to_dict as JSON: numbers to 17 significant digits, infinities as Infinity."""
        def enc(v):
            if isinstance(v, str):
                return json.dumps(v)
            if isinstance(v, list):
                return "[" + ", ".join(map(enc, v)) + "]"
            return "Infinity" if math.isinf(v) else f"{v:.17g}"

        return "{" + ", ".join(f'"{k}": {enc(v)}' for k, v in self.to_dict().items()) + "}"


# --- internal: preparation of stacks of aligned fiber pairs -----------


# byte budget of one stacked chunk: the (pairs, N, s) padded factors of
# pairwise_gram and the (rows, len(E), r, r) pencil stack of a value table; a
# chunk holds at least one pair or one row
_CHUNK_BYTES = 256 * 1024


@dataclass
class _Prepared:
    """A stack of m aligned pairs (ranks r <= s alike) in factored form.

    With M = UA* UB = P diag(sigma) Qh for each pair, the fiber
    representations are C = P* diag(wA) P and D = Qh diag(wB) Qh*; the
    closed form needs only the pencil spectrum mu = lambda(C^{-1} D11),
    which is sigma(K)^2 for K = diag(wA^{-1/2}) P Qh[:r] diag(wB^{1/2}).
    Every array has the pair as its leading axis.
    """

    sigma: np.ndarray  # (m, r)
    theta: np.ndarray  # (m, r)
    l: np.ndarray      # (m,)
    mu: np.ndarray     # (m, r) unclamped pencil spectra, descending
    wA: np.ndarray     # (m, r)
    P: np.ndarray      # (m, r, r)
    wB: np.ndarray     # (m, s)
    Qh: np.ndarray     # (m, s, s)

    def fibers(self, i):
        """(C^{-1/2}, D) of pair i. The degenerate paths take C only through
        C^{-1/2} = P* diag(wA^{-1/2}) P, formed from the factors the
        alignment already holds, so C is never formed or decomposed."""
        P, Qh = self.P[i], self.Qh[i]
        return (_eig_power(self.wA[i], P.conj().T, -0.5),
                _herm(Qh @ (self.wB[i][:, None] * Qh.conj().T)))

    def reversed(self, tol):
        """The same pairs with their arguments swapped; equal ranks only.

        M* = Qh* diag(sigma) P*, so the factors trade places and K becomes
        K^{-1}: the reverse pencil spectrum is 1/mu. `tol` holds the new
        left arguments' tol_rank, which decide the reverse strata.
        """
        return replace(self, l=_right_angles(self.sigma, tol),
                       mu=1.0 / self.mu[:, ::-1],
                       wA=self.wB, P=np.swapaxes(self.Qh.conj(), -1, -2),
                       wB=self.wA, Qh=np.swapaxes(self.P.conj(), -1, -2))


def _padded_factors(mats, n, dtype):
    """(U, w) stacks of the compact factors of equal-rank mats, U zero-padded
    to n rows."""
    r = mats[0].rank
    U = np.zeros((len(mats), n, r), dtype=dtype)
    w = np.empty((len(mats), r))
    for X, Ui, wi in zip(mats, U, w):
        Ui[:X.n], wi[:] = X.compact_factors()
    return U, w


def _prepare(lefts, rights, n=None):
    """Aligned fiber pairs (lefts[i], rights[i]) as one stack.

    All lefts share rank r, and all rights rank s >= r. Both sides are
    padded to ambient size n, by default the largest in the stack, and
    taken in the common dtype of the stack. Each left argument's tol_rank
    decides its pair's l.
    """
    r = lefts[0].rank
    if r == 0:
        raise DomainError("zero-rank input")
    n = max(X.n for X in lefts + rights) if n is None else n
    dtype = np.result_type(*{X.entries.dtype for X in lefts + rights})
    UA, wA = _padded_factors(lefts, n, dtype)
    UB, wB = _padded_factors(rights, n, dtype)
    P, sigma, Qh, theta = _principal_angles(UA, UB)
    K = (P @ Qh[:, :r]) * np.sqrt(wB)[:, None, :] / np.sqrt(wA)[:, :, None]
    mu = np.linalg.svd(K, compute_uv=False) ** 2
    l = _right_angles(sigma, [X.tol_rank for X in lefts])
    return _Prepared(sigma=sigma, theta=theta, l=l, mu=mu, wA=wA, P=P, wB=wB, Qh=Qh)


# --- ambiguity group sampling -----------------------------------------


def _random_unitaries(rng, count, k, complex_field):
    """A (count, k, k) stack of random orthogonal/unitary matrices, k >= 1."""
    G = rng.normal(size=(count, k, k))
    if complex_field:
        G = G + 1j * rng.normal(size=(count, k, k))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    d = d / np.abs(np.where(d == 0, 1.0, d))
    return Q * d[..., None, :]


def _sample_group(rng, k, count, complex_field):
    """A (count, k, k) stack of tails T in U(k) (O(k) over the reals), identity first.

    Over the reals a one-dimensional T alternates in sign, and a
    two-dimensional T runs over evenly spaced rotations (random phase
    offset) and then their reflections; any other T is drawn by random QR.
    """
    out = np.tile(np.eye(k, dtype=complex if complex_field else float), (count, 1, 1))
    if k == 0 or count < 2:
        return out
    if not complex_field and k == 1:
        out[:, 0, 0] = (-1.0) ** np.arange(count)
    elif not complex_field and k == 2:
        ang = rng.uniform(0.0, 2.0 * np.pi) + np.linspace(
            0.0, 2.0 * np.pi, count // 2, endpoint=False)
        c, s = np.cos(ang), np.sin(ang)
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        out[1:] = np.concatenate([rot, rot * [1.0, -1.0]])[: count - 1]
    else:
        out[1:] = _random_unitaries(rng, count - 1, k, complex_field)
    return out


# byte bound of the cache of algorithm1's coarse tails (_coarse_tails); a
# draw larger than the bound is not kept
_COARSE_CACHE_BYTES = 4 * 1024 * 1024
_coarse_cache = {}  # (seed, k, complex_field) -> read-only tails, least recent first
_coarse_lock = threading.Lock()  # callers in several threads share the cache


def _coarse_tails(seed, k, complex_field):
    """algorithm1's coarse tails of U(k) (O(k) over the reals), read-only.

    They are a function of (seed, k, field): the two signs over the reals
    at k = 1, otherwise 512 tails of the ambiguity sampler drawn from
    default_rng(seed). Draws are kept in a cache of at most
    _COARSE_CACHE_BYTES, the least recently used leaving first.
    """
    key = (int(seed), k, complex_field)
    with _coarse_lock:
        Ts = _coarse_cache.pop(key, None)
        if Ts is None:
            count = 2 if k == 1 and not complex_field else 512
            Ts = _sample_group(np.random.default_rng(seed), k, count, complex_field)
            Ts.flags.writeable = False
        if Ts.nbytes <= _COARSE_CACHE_BYTES:
            while sum(T.nbytes for T in _coarse_cache.values()) + Ts.nbytes > _COARSE_CACHE_BYTES:
                del _coarse_cache[next(iter(_coarse_cache))]
            _coarse_cache[key] = Ts
    return Ts


def _frames(i0, tails, rows):
    """blkdiag(I_i0, T)[:rows] for a stack of tails T (rows >= i0)."""
    E = np.zeros((len(tails), rows, i0 + tails.shape[-1]), dtype=tails.dtype)
    E[:, :i0, :i0] = np.eye(i0)
    E[:, i0:, i0:] = tails[:, :rows - i0]
    return E


def _frame_draws(C, D, l, samples, seed):
    """The principal-basis ambiguity group of (C, D), as 4 draws of tails.

    Frames pair as G = blkdiag(P, S) and H = blkdiag(P, T), P on the r - l
    leading rows of both. P conjugates C^{-1} and (H D H*)_11 alike and
    cancels from their pencil, so each draw is only an (n_s, l, l) stack of
    S and an (n_t, k, k) stack of T, k = s - r + l (_frames builds the
    frames with P = I). The draws hold about `samples` pairs (G, H):
    n_s = 1 at l = 0, where S is empty, and n_s ~ n_t ~ sqrt(samples / 4)
    otherwise. Faithful mode's value is the max-min of the 4 tables of
    pencil values over these pairs; _faithful_fiber evaluates only the
    entries that decide it, unless the family's domain forces all of them.
    C is read only for its size and field, so C^{-1/2} may stand for it.
    """
    r, s = C.shape[0], D.shape[0]
    complex_field = np.iscomplexobj(C) or np.iscomplexobj(D)
    rng = np.random.default_rng(seed)
    n_s = 1 if l == 0 else max(4, int(math.sqrt(samples / 4)))
    n_t = max(4, samples // (4 * n_s))
    for _ in range(4):
        yield (_sample_group(rng, l, n_s, complex_field),
               _sample_group(rng, s - r + l, n_t, complex_field))


def _conjugated_block_values(spec, F, D, E):
    """(len(F), len(E)) table of the pencil values of factors F against
    Y = E D E*, for stacks of F and of right-frame rows E, by _entry_values."""
    i, j = np.divmod(np.arange(len(F) * len(E)), len(E))
    return _entry_values(spec, F, _congruence(E, D), i, j).reshape(len(F), len(E))


# the smallest entries of each identity row whose tails T[:l] become the
# targets that seed faithful mode's branch and bound (_faithful_fiber)
_TARGETS = 8


def _entry_values(spec, F, Y, i, j):
    """Pencil values of the pairs (F[i[e]], Y[j[e]]): the one loop that turns
    sampled pencils into values, for the coarse pass of algorithm1 and the
    entries of faithful mode's tables alike.

    Chunks of entries, whose gathered factors and Ys together fit
    _CHUNK_BYTES, go through pencil_spectra as paired stacks and then the
    value map. pencil_spectra forms each pair by the same two r x r
    products in any stack, so an entry's value does not depend on the
    chunk or on the other entries, bit for bit.
    """
    out = np.empty(len(i))
    step = max(1, _CHUNK_BYTES // (2 * F[0].nbytes))
    for c in range(0, len(i), step):
        out[c:c + step] = _spectrum_values(
            spec, pencil_spectra(F[i[c:c + step]], Y[j[c:c + step]]))
    return out


def _nearest(queries, points):
    """(draws, n, m) indices of the points nearest each query, by the largest
    real inner product Re tr(q* p), for queries (draws, n, m, ...) and points
    (draws, n', ...) of the same trailing shape; a query looks only among the
    points of its own draw. Each (rows, m, n') block of scores fits
    _CHUNK_BYTES.
    """
    def flat(X):
        X = X.reshape(X.shape[:-2] + (-1,))
        return np.concatenate([X.real, X.imag], axis=-1) if np.iscomplexobj(X) else X

    q, p = flat(queries), flat(points)
    draws, n, m, _ = q.shape
    out = np.empty((draws, n, m), dtype=int)
    step = max(1, _CHUNK_BYTES // (m * p.shape[1] * 8))
    for d in range(draws):
        for c in range(0, n, step):
            out[d, c:c + step] = np.argmax(q[d, c:c + step] @ p[d].T, axis=-1)
    return out


def _faithful_fiber(C_invhalf, D, wC, wD, l, spec: FiberDivergence, samples, seed):
    """Max-min fiber value over the sampled ambiguity group (l >= 1), from
    C^{-1/2} and D of an aligned pair (_Prepared.fibers); wC and wD are the
    eigenvalues of C and D, descending.

    A left frame G enters through (G C G*)^{-1/2} = G C^{-1/2} G*, so the
    pair (G, H) has the pencil of the factor C^{-1/2} G* and Y = (H D H*)_11
    = E D E* with E = H[:r]. Each of the 4 draws spans an (n_s, n_t) table
    of pencil values over its left and right frames, the table of
    _conjugated_block_values, and the value is the largest min of a row or
    a column of the 4 tables. Entries are evaluated on gathered stacks
    (_entry_values), and pencil_spectra forms each pair by the same two
    r x r products as in a full table, so the value is the max-min of the
    full tables bit for bit.

    Only the entries that can decide it are evaluated, by an exact branch
    and bound. Each row and column keeps the min of its evaluated entries,
    an upper bound on its min, and L, the largest min of a completed row or
    column, is a lower bound on the value. A row or column whose bound is
    at most L cannot raise L and closes. The open ones of largest bound are
    completed, one in the first round and twice as many in each next, until
    none is open; L is then the value. Good bounds come early because an
    entry depends on the tails (S, T) only through X = S* T[:l]: the
    identity rows (S = I, drawn first) are completed, the tails T[:l] of
    each one's _TARGETS smallest entries become the targets X of its draw,
    and each row i is seeded with its columns nearest S_i X, each column j
    with its rows nearest T_j[:l] X*.

    Every pencil of a table lies in [min wD / max wC, max wD / min wC]
    because Y compresses D. Entries are skipped only if the family is
    certified defined on that box (pointset._defined_on_box); otherwise
    every entry is evaluated first, so an undefined pencil raises
    DomainError as the full tables do.
    """
    r = C_invhalf.shape[0]
    S, T = (np.stack(x) for x in zip(*_frame_draws(C_invhalf, D, l, samples, seed)))
    n_d, n_s, n_t = len(S), S.shape[1], T.shape[1]
    F = C_invhalf @ np.swapaxes(_frames(r - l, S.reshape(n_d * n_s, l, l), r).conj(), -1, -2)
    E = _frames(r - l, T.reshape((n_d * n_t,) + T.shape[2:]), r)
    Y, X = _congruence(E, D), T[:, :, :l]
    # lines are the rows q = d n_s + i, then the columns R + d n_t + j
    R = n_d * n_s
    ub = np.full(R + n_d * n_t, np.inf)
    todo = np.repeat([n_t, n_s], [R, n_d * n_t])  # entries not yet evaluated
    known = np.zeros(R * n_t, dtype=bool)

    def entries(d, i, j):
        """Flat indices of the entries (d, i, j), broadcast."""
        return ((d * n_s + i) * n_t + j).ravel()

    def fill(e):
        """Evaluate the new entries among flat indices e; their values, in
        ascending order of index."""
        e = np.unique(e)
        e = e[~known[e]]
        q = e // n_t
        c = q // n_s * n_t + e % n_t
        v = _entry_values(spec, F, Y, q, c)
        known[e] = True
        np.minimum.at(ub, q, v)
        np.minimum.at(ub, R + c, v)
        todo[:R] -= np.bincount(q, minlength=R)
        todo[R:] -= np.bincount(c, minlength=len(ub) - R)
        return v

    d, i, j = np.arange(n_d)[:, None, None], np.arange(n_s), np.arange(n_t)
    if _defined_on_box(spec, wD[-1] / wC[0], wD[0] / wC[-1], r):
        v = fill(entries(d[:, 0], 0, j)).reshape(n_d, n_t)
        targets = X[d[:, 0], np.argsort(v, axis=1)[:, :_TARGETS]][:, None]  # (n_d, 1, m, l, k)
        cols = _nearest(S[:, :, None] @ targets, X)  # (n_d, n_s, m)
        rows = _nearest(X[:, :, None] @ np.swapaxes(targets.conj(), -1, -2), S)  # (n_d, n_t, m)
        fill(np.concatenate([entries(d, i[:, None], cols), entries(d, rows, j[:, None])]))
    else:
        fill(np.arange(R * n_t))

    width = 1
    while True:
        L = ub[todo == 0].max(initial=-np.inf)
        open_ = np.flatnonzero((todo > 0) & (ub > L))
        if not open_.size:
            return float(L)
        take = open_[np.argsort(-ub[open_], kind="stable")[:width]]
        width *= 2
        dc, jc = np.divmod(take[take >= R, None] - R, n_t)
        fill(np.concatenate([entries(0, take[take < R, None], j), entries(dc, i, jc)]))


# --- degenerate-stratum optimizer -------------------------------------


# iteration cap of the degenerate-stratum ascent
_ASCENT_MAX_ITER = 500


def _ascent_state(spec, C_invhalf, D, l, Ts):
    """Objective F and Riemannian gradient Omega for a stack of tails T.

    H = blkdiag(I, T) and E = H[:r]. W = C^{-1/2} (E D E*) C^{-1/2} is formed
    by the products of pencil_spectra, so at any tail its eigh sees the
    coarse pass's matrix bit for bit. With W = V diag(lambda) V* and
    G = V diag(F'(lambda)) V*, the Euclidean gradient of F in E is
    2 C^{-1/2} G C^{-1/2} E D; only the first l rows of T enter E, so its
    tail block is the gradient in T. Omega = skew(T* grad) is the gradient
    in the Lie algebra under T -> T exp(Omega).
    """
    r = C_invhalf.shape[0]
    i0 = r - l
    E = _frames(i0, Ts, r)
    ED = E @ D  # Y = (E D) E*, the products of _congruence(E, D)
    lam, V = np.linalg.eigh(_herm(_congruence(C_invhalf, ED @ np.swapaxes(E.conj(), -1, -2))))
    F, dF = _spectrum_objective(spec, lam[..., ::-1], with_grad=True)
    G = (V * dF[..., ::-1][..., None, :]) @ np.swapaxes(V.conj(), -1, -2)
    grad = 2.0 * ((C_invhalf[i0:] @ G) @ C_invhalf) @ ED[:, :, i0:]
    X = np.swapaxes(Ts[:, :l].conj(), -1, -2) @ grad
    return F, 0.5 * (X - np.swapaxes(X.conj(), -1, -2))


def _cayley(Ts, Om):
    """T (I - Omega/2)^{-1} (I + Omega/2): unitary for skew-Hermitian Omega.

    The eigenvalues of I - Omega/2 are 1 - i omega/2, so its condition
    number is below |Omega|/2 + 1; `linalg._descend` never tries a step
    longer than 1/sqrt(eps), so the solve is always well posed.
    """
    eye = np.eye(Ts.shape[-1])
    return Ts @ np.linalg.solve(eye - 0.5 * Om, eye + 0.5 * Om)


def _ascend(spec, C_invhalf, D, l, Ts):
    """Batched Riemannian quasi-Newton ascent of F from every start in Ts.

    `linalg._descend` minimizes -F with the gradient -Omega, written in the
    coordinates of an orthonormal basis of the skew-Hermitian k x k
    matrices under Re tr(A* B): k(k-1)/2 of them over the reals (none at
    k = 1, where each start is final) and k^2 over the complex numbers. It
    steps by the Cayley retraction, and its step bound keeps every trial
    point a unitary T to rounding, so every point the ascent evaluates is
    in the domain. Returns F at each start's final point, as the descent
    certified it; raises OptimizerError if no start reached a stationary
    point within _ASCENT_MAX_ITER iterations. F is
    pointset._spectrum_objective, whose geoab parameters are at most 1.
    """
    k = Ts.shape[-1]
    # (e_i e_j* - e_j e_i*)/sqrt 2, i < j; complex also i (e_i e_j* + e_j e_i*)/sqrt 2, i e_i e_i*
    units, (i, j) = np.eye(k * k), np.triu_indices(k, 1)
    basis = [(units[i * k + j] - units[j * k + i]) * 0.5 ** 0.5]
    if np.iscomplexobj(Ts):
        basis += [(units[i * k + j] + units[j * k + i]) * (0.5 ** 0.5 * 1j),
                  1j * units[np.arange(k) * (k + 1)]]
    basis = np.concatenate(basis)

    def fg(T):
        F, Om = _ascent_state(spec, C_invhalf, D, l, T)
        return -F, -(Om.reshape(len(T), -1) @ basis.conj().T).real

    def retract(T, p, t):
        return _cayley(T, ((t[:, None] * p) @ basis).reshape(-1, k, k))

    _, f, done = _descend(fg, retract, Ts, _ASCENT_MAX_ITER)
    if not done.any():
        raise OptimizerError(
            f"degenerate-stratum ascent: none of {len(Ts)} starts reached a stationary point")
    return -f


def gd_degenerate_fiber(C_invhalf, D, l, spec: FiberDivergence, budget=16, seed=0):
    """Fiber term on a degenerate stratum (l >= 1 right principal angles),
    from C^{-1/2} and D of an aligned pair (_Prepared.fibers).

    Maximizes the extended divergence over the tail unitary group
    U(s-r+l) (O(s-r+l) for real representations) conjugating the larger
    representation (algorithm1): a batched Riemannian ascent from the best
    max(2, budget) of 512 tails from the ambiguity sampler (over the reals
    with a one-dimensional tail, the two signs, which it cannot move). The
    tails depend only on (seed, k, field) and are drawn once per key
    (_coarse_tails), so the value is deterministic given a seed.
    `gd`'s evaluator, on the alignment fibers of a pair gd has validated;
    no fiber is decomposed here, only stacks of pencils.
    """
    r, s = C_invhalf.shape[0], D.shape[0]
    Ts = _coarse_tails(seed, s - r + l, np.iscomplexobj(C_invhalf) or np.iscomplexobj(D))
    # coarse sampling pass: the seeds of the local maximizations. It and the
    # ascent run before the increasing bound, which a saturated +clamp makes
    # tie everywhere, and the bound applies once to the max
    unbounded = replace(spec, bound=None)
    coarse = _conjugated_block_values(unbounded, C_invhalf[None], D, _frames(r - l, Ts, r))[0]
    starts = Ts[np.argsort(coarse)[::-1][: max(2, budget)]]
    ascended = _fiber_values(unbounded, _ascend(spec, C_invhalf, D, l, starts))
    return float(apply_bound(spec, max(coarse.max(), ascended.max())))


# --- the distance -----------------------------------------------------


def _check_integers(low, **values):
    """Each given value must be an integer >= low: NumPy integers pass, bools do not."""
    for name, value in values.items():
        if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
            raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def gd(A: PsdMatrix, B: PsdMatrix, spec: MetricSpec, seed=0, budget=16,
       samples=20000) -> GdResult:
    """Geometric distance between two PSD matrices of any size and rank.

    `budget` (algorithm1 ascent starts, at least two run) and `samples`
    (faithful mode) must be integers >= 1, and `seed` an integer >= 0,
    which with the tail size and the field determines every sampled tail
    (NumPy integers pass, bools and anything else raise DomainError). The
    lower-rank argument's tol_rank (the first one's at equal ranks)
    decides the stratum.
    """
    _check_integers(1, budget=budget, samples=samples)
    _check_integers(0, seed=seed)
    if A.rank > B.rank:
        A, B = B, A  # the measurement is symmetric across unequal ranks
    prep = _prepare([A], [B])  # an aligned pair, a stack of one
    faithful = spec.hausdorff_mode == "faithful"
    l = int(prep.l[0])
    fterm = np.full(1, np.nan)
    if l == 0:
        mode = "faithfulSampled" if faithful else "closedForm"
    elif faithful:
        fterm[0] = _faithful_fiber(*prep.fibers(0), prep.wA[0], prep.wB[0], l, spec.fiber,
                                   samples, seed)
        mode = "faithfulSampled"
    else:
        fterm[0] = gd_degenerate_fiber(*prep.fibers(0), l, spec.fiber, budget=budget, seed=seed)
        mode = "optimizedDegenerate"
    gterm, total = _closed_form(spec, prep.l, prep.mu, prep.theta, fterm)
    return GdResult(
        total=float(total[0]),
        grassmann_term=float(gterm[0]),
        fiber_term=float(fterm[0]),
        stratum_index=l,
        pencil_spectrum=np.maximum(1.0, prep.mu[0]),
        angles=prep.theta[0],
        mode=mode,
    )


def _closed_form(spec: MetricSpec, l, mu, theta, fterm):
    """Grassmann terms and totals sqrt(g^2 + f^2) of a stack of pairs.

    Takes each pair's stratum l (m,), unclamped pencil spectrum mu (m, r)
    and principal angles theta (m, r). Fills in, in place, the fiber terms
    `fterm` of the generic (l = 0) pairs by the closed form, which both
    modes take there since every representation pair has the pencil of
    (C, D11); the caller supplies those of the degenerate pairs (NaN where
    it has none). The Grassmann term takes a pair's l largest angles as
    right angles, as its stratum counts them. Each row's value depends on
    that row alone, so a stack gives the values of one call per pair.
    """
    generic = l == 0
    if generic.any():
        fterm[generic] = _spectrum_values(spec.fiber, mu[generic])
    if not generic.all():
        k = theta.shape[-1]
        theta = np.where(np.arange(k) >= k - l[:, None], math.pi / 2, theta)
    gterm = grassmann_distance(spec.grassmann, theta)
    return gterm, np.array([math.hypot(g, f) for g, f in zip(gterm, fterm)])


def _generic_distances(mats, spec: MetricSpec):
    """Closed-form distances of the generic directions of every pair, stacked.

    Returns the (n, n) distances and the mask of the directions they fill.
    Two phases (pairwise_gram describes the grouping):

    - alignment: one _prepare per (r, s, field) group chunk, plus its
      reverse at r = s, keeps each generic (l = 0) direction's pencil
      spectrum and principal angles;
    - values: those directions are buffered by their left rank r, across
      groups, fields and both directions, and each buffer goes through
      _closed_form as one stack once its spectra reach _CHUNK_BYTES, and
      at the end.

    A chunk whose alignment raised and a buffer whose values raised fill
    nothing; gd evaluates their directions.
    """
    n = len(mats)
    out = np.zeros((n, n))
    done = np.zeros((n, n), dtype=bool)
    ranks = np.array([X.rank for X in mats])
    groups = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = (j, i) if mats[i].rank > mats[j].rank else (i, j)
            A, B = mats[a], mats[b]
            if A.rank:
                dtype = np.result_type(A.entries, B.entries)
                groups.setdefault((A.rank, B.rank, dtype), []).append((a, b))
    buffers = {}  # left rank -> buffered (x, y, mu, theta) of generic directions
    nbytes = {}   # left rank -> bytes of its buffered spectra

    def flush(r):
        x, y, mu, theta = map(np.concatenate, zip(*buffers.pop(r)))
        del nbytes[r]
        try:
            v = _closed_form(spec, np.zeros(len(x), dtype=int), mu, theta,
                             np.full(len(x), np.nan))[1]
        except (PsdSimError, np.linalg.LinAlgError):
            return  # left to gd, which raises in loop order
        sym = ranks[x] != ranks[y]  # symmetric across unequal ranks
        out[x, y], out[y[sym], x[sym]] = v, v[sym]
        done[x, y] = done[y[sym], x[sym]] = True

    for (r, s, dtype), pairs in groups.items():
        N = max(max(mats[a].n, mats[b].n) for a, b in pairs)
        size = max(1, _CHUNK_BYTES // (N * s * dtype.itemsize))
        for c in range(0, len(pairs), size):
            a, b = np.array(pairs[c:c + size]).T
            try:
                prep = _prepare([mats[k] for k in a], [mats[k] for k in b], N)
                directions = [(a, b, prep)]
                if r == s:  # the reverse direction off the same factorization
                    directions.append((b, a, prep.reversed([mats[k].tol_rank for k in b])))
            except (PsdSimError, np.linalg.LinAlgError):
                continue  # left to gd
            for x, y, p in directions:
                generic = p.l == 0
                if generic.any():
                    mu = p.mu[generic]
                    buffers.setdefault(r, []).append((x[generic], y[generic], mu, p.theta[generic]))
                    nbytes[r] = nbytes.get(r, 0) + mu.nbytes
                    if nbytes[r] >= _CHUNK_BYTES:
                        flush(r)
    for r in list(buffers):
        flush(r)
    return out, done


def pairwise_gram(mats, spec: MetricSpec, seed=0, budget=16, samples=20000):
    """Matrix of pairwise distances; diagonal exactly zero.

    Each unordered pair is aligned once, its lower-rank matrix (the first
    at equal ranks) on the left, and pairs of unequal rank are symmetric.
    The generic directions run in two phases. Alignment groups the pairs by
    their two ranks and their field (real or complex); a group's compact
    factors are zero-padded to its largest ambient size and prepared as
    stacks: one batched product and SVD for the principal angles and one
    values-only SVD for the pencil spectra per chunk, each (pairs, N, s)
    factor stack within a fixed byte budget (_CHUNK_BYTES). Equal-rank
    pairs read the reverse direction off the same factorization. Values
    then come from the closed form in one call per left rank, across
    groups, fields and both directions, each batch's spectra within the
    same byte budget. The padding is the group's and each value its row's,
    so results depend neither on the chunking nor on the batching.

    Every other direction runs through gd, one pair at a time: those on a
    degenerate stratum (l >= 1), those with a zero-rank matrix, those of a
    chunk whose alignment raised and those of a value batch that raised.
    They run in row-major order of (i, j), then (j, i), so an error names
    the first failing pair in that order. `seed`, `budget` and `samples`
    follow gd's rules and are checked before any pair runs; every
    degenerate direction of one field and tail size shares its coarse
    tails.
    """
    if not mats:
        raise DomainError("empty input list")
    _check_integers(1, budget=budget, samples=samples)
    _check_integers(0, seed=seed)
    out, done = _generic_distances(mats, spec)
    kw = {"seed": seed, "budget": budget, "samples": samples}
    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            for a, b in ((i, j), (j, i)):
                if done[a, b]:
                    continue
                try:
                    out[a, b] = gd(mats[a], mats[b], spec, **kw).total
                except PsdSimError as e:
                    raise type(e)(f"pair ({a}, {b}): {e}") from e
                if mats[a].rank != mats[b].rank:
                    out[b, a] = out[a, b]
                    break
    return out
