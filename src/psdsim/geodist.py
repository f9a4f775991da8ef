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
from .linalg import (
    PsdMatrix,
    _descend,
    _herm,
    _inv_half,
    check_hermitian,
    pencil_spectra,
    small_angles_refined,
)
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
        """to_dict as JSON: numbers to 17 significant digits, infinities as Infinity."""
        def enc(v):
            if isinstance(v, str):
                return json.dumps(v)
            if isinstance(v, list):
                return "[" + ", ".join(map(enc, v)) + "]"
            return "Infinity" if math.isinf(v) else f"{v:.17g}"

        return "{" + ", ".join(f'"{k}": {enc(v)}' for k, v in self.to_dict().items()) + "}"


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
        K^{-1}: the reverse pencil spectrum is 1/mu. `tol` is the new left
        argument's tol_rank, which decides the reverse stratum.
        """
        return replace(self, l=int(np.count_nonzero(self.sigma <= tol)),
                       mu=1.0 / self.mu[::-1], wA=self.wB, P=self.Qh.conj().T,
                       wB=self.wA, Qh=self.P.conj().T)


def _prepare(A: PsdMatrix, B: PsdMatrix):
    """Aligned fiber pair; assumes rank(A) <= rank(B). A.tol_rank decides l."""
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
    return _Prepared(sigma=sigma, theta=theta, l=int(np.count_nonzero(sigma <= A.tol_rank)),
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


def _sample_group(rng, k, count, complex_field, n):
    """A (count, n, n) stack of frames blkdiag(I, T), T in U(k) (O(k) over
    the reals); element 0 is the identity.

    Over the reals a one-dimensional T alternates in sign, and a
    two-dimensional T runs over evenly spaced rotations (random phase
    offset) and then their reflections; any other T is drawn by random QR.
    """
    out = np.tile(np.eye(n, dtype=complex if complex_field else float), (count, 1, 1))
    i0 = n - k
    if k == 0 or count < 2:
        return out
    if not complex_field and k == 1:
        out[:, i0, i0] = (-1.0) ** np.arange(count)
    elif not complex_field and k == 2:
        ang = rng.uniform(0.0, 2.0 * np.pi) + np.linspace(
            0.0, 2.0 * np.pi, count // 2, endpoint=False)
        c, s = np.cos(ang), np.sin(ang)
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        out[1:, i0:, i0:] = np.concatenate([rot, rot * [1.0, -1.0]])[: count - 1]
    else:
        out[1:, i0:, i0:] = _random_unitaries(rng, count - 1, k, complex_field)
    return out


def _frame_draws(C, D, sigma, l, samples, seed):
    """The principal-basis ambiguity group of (C, D), as 4 draws of frames.

    Each draw takes a unitary P on each run of equal singular values,
    shared by the (n_s, r, r) left frames blkdiag(P, S) and the (n_t, s, s)
    right frames blkdiag(P, T); S acts on the l right-angle rows of the
    left frame, T on the s - r + l trailing rows of the right frame, and
    element 0 of each stack has S = I or T = I. The draws hold about
    `samples` pairs (G, H): n_s = 1 at l = 0, where S is empty, and
    n_s ~ n_t ~ sqrt(samples / 4) otherwise.
    """
    r, s = C.shape[0], D.shape[0]
    complex_field = np.iscomplexobj(C) or np.iscomplexobj(D)
    rng = np.random.default_rng(seed)
    blocks = _sigma_blocks(sigma, r - l)
    n_s = 1 if l == 0 else max(4, int(math.sqrt(samples / 4)))
    n_t = max(4, samples // (4 * n_s))
    for _ in range(4):
        P = np.eye(r - l, dtype=complex if complex_field else float)
        for (i, j) in blocks:
            P[i:j, i:j] = _random_unitaries(rng, 1, j - i, complex_field)[0]
        Gs = _sample_group(rng, l, n_s, complex_field, r)
        Ht = _sample_group(rng, s - r + l, n_t, complex_field, s)
        Gs[:, : r - l, : r - l] = Ht[:, : r - l, : r - l] = P
        yield Gs, Ht


def _congruence(G, M):
    """G M G* for a frame or a stack of frames G."""
    return G @ M @ np.swapaxes(G.conj(), -1, -2)


def representation_set(A: PsdMatrix, B: PsdMatrix, grid=256, seed=0):
    """Sampled fiber-representation pairs over the principal-basis ambiguity.

    Returns a list of (M_X, M_Y) array pairs: the pairs faithful mode
    evaluates with `samples=grid` and the same seed. Pairs of one draw
    share their array objects, so the list can be fed to
    generalized_hausdorff directly.
    """
    _check_counts(grid=grid)
    if A.rank > B.rank:
        A, B = B, A
    prep = _prepare(A, B)
    pairs = []
    for Gs, Ht in _frame_draws(prep.C, prep.D, prep.sigma, prep.l, grid, seed):
        xs, ys = list(_herm(_congruence(Gs, prep.C))), list(_herm(_congruence(Ht, prep.D)))
        pairs.extend((x, y) for x in xs for y in ys)
    return pairs


def _faithful_fiber(C, D, sigma, l, spec: FiberDivergence, samples, seed):
    """Directed max-min fiber value over the sampled ambiguity group.

    A left frame G enters through (G C G*)^{-1/2} = G C^{-1/2} G*. At l = 0
    every pair has the pencil of (C, D11), so that one pair is the value.
    """
    r = C.shape[0]
    Cih = _inv_half(C)
    if l == 0:
        return float(_batch_values(spec, Cih, D[:r, :r]))
    d1 = d2 = -np.inf
    for Gs, Ht in _frame_draws(C, D, sigma, l, samples, seed):
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


# iteration cap of the degenerate-stratum ascent
_ASCENT_MAX_ITER = 500


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

    `linalg._descend` minimizes -F with the gradient -Omega, written in
    real coordinates of the skew-Hermitian k x k matrices, and steps by the
    Cayley retraction. Returns F at each start's final point, as the
    descent certified it; raises OptimizerError if no start reached a
    stationary point within _ASCENT_MAX_ITER iterations.
    """
    m, k = Ts.shape[0], Ts.shape[-1]

    def fg(T):
        F, Om = _ascent_state(spec, C_invhalf, D, l, T)
        return -F, -Om.reshape(len(T), -1).view(float)

    def retract(T, p, t):
        P = p.view(Ts.dtype).reshape(-1, k, k)
        return _cayley(T, t[:, None, None] * (0.5 * (P - np.swapaxes(P.conj(), -1, -2))))

    _, f, done = _descend(fg, retract, Ts, _ASCENT_MAX_ITER)
    if not done.any():
        raise OptimizerError(
            f"degenerate-stratum ascent: none of {m} starts reached a stationary point")
    return -f


def gd_degenerate_fiber(Crep, Drep, l, spec: FiberDivergence, budget=16, seed=0):
    """Fiber term on a degenerate stratum (l >= 1 right principal angles).

    Maximizes the extended divergence over the tail unitary group
    U(s-r+l) (O(s-r+l) for real representations) conjugating the larger
    representation (algorithm1): a batched Riemannian ascent from the best
    max(2, budget) of 512 tails from the ambiguity sampler (over the reals
    with a one-dimensional tail, the two signs are enumerated instead).
    `budget` must be >= 1. Deterministic given a seed.
    """
    _check_counts(budget=budget)
    C, D = check_hermitian(Crep), check_hermitian(Drep)
    r, s = C.shape[0], D.shape[0]
    if l < 1 or r > s:
        raise DomainError("degenerate evaluator needs l >= 1 and r <= s")
    k = s - r + l
    complex_field = np.iscomplexobj(C) or np.iscomplexobj(D)
    Cih = _inv_half(C)
    rng = np.random.default_rng(seed)
    if k == 1 and not complex_field:
        signs = _sample_group(rng, 1, 2, False, 1)
        return float(_conjugated_block_values(spec, Cih, D, l, signs).max())

    # coarse sampling pass to seed the local maximizations
    Ts = _sample_group(rng, k, 512, complex_field, k)
    coarse = _conjugated_block_values(spec, Cih, D, l, Ts)
    starts = Ts[np.argsort(coarse)[::-1][: max(2, budget)]]
    final = _fiber_values(spec, _ascend(spec, Cih, D, l, starts))
    return float(max(coarse.max(), final.max()))


# --- the distance -----------------------------------------------------


def _check_counts(**counts):
    """Each given count (None stands for its default) must be >= 1."""
    for name, count in counts.items():
        if count is not None and count < 1:
            raise DomainError(f"{name} must be >= 1, got {count}")


def gd(A: PsdMatrix, B: PsdMatrix, spec: MetricSpec, seed=0, budget=16,
       samples=None) -> GdResult:
    """Geometric distance between two PSD matrices of any size and rank.

    `budget` (algorithm1 ascent starts, at least two run) and `samples`
    (faithful mode; None means 20000) must be >= 1. The lower-rank
    argument's tol_rank (the first one's at equal ranks) decides the stratum.
    """
    _check_counts(budget=budget, samples=samples)
    if A.rank > B.rank:
        A, B = B, A  # the measurement is symmetric across unequal ranks
    return _evaluate(_prepare(A, B), spec, seed, budget, samples)


def _evaluate(prep: _Prepared, spec: MetricSpec, seed, budget, samples) -> GdResult:
    gterm = grassmann_distance(spec.grassmann, prep.theta)
    if spec.hausdorff_mode == "faithful":
        fterm = _faithful_fiber(prep.C, prep.D, prep.sigma, prep.l, spec.fiber,
                                20000 if samples is None else samples, seed)
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


def pairwise_gram(mats, spec: MetricSpec, seed=0, budget=16, samples=None):
    """Matrix of pairwise distances; diagonal exactly zero.

    Each unordered pair is aligned once. Pairs of unequal rank are
    symmetric. Equal-rank pairs on the closed-form path read the reverse
    direction off the same factorization; other equal-rank pairs evaluate
    each direction with `gd`.
    """
    if not mats:
        raise DomainError("empty input list")
    _check_counts(budget=budget, samples=samples)
    n = len(mats)
    out = np.zeros((n, n))
    kw = {"seed": seed, "budget": budget, "samples": samples}
    for i in range(n):
        for j in range(i + 1, n):
            A, B = mats[i], mats[j]
            with _pair_context(i, j):
                if A.rank != B.rank:
                    out[i, j] = out[j, i] = gd(A, B, spec, **kw).total
                    continue
                prep = _prepare(A, B)
                out[i, j] = _evaluate(prep, spec, **kw).total
            back = prep.reversed(B.tol_rank)
            with _pair_context(j, i):
                if spec.hausdorff_mode == "faithful" or prep.l or back.l:
                    out[j, i] = gd(B, A, spec, **kw).total
                else:
                    out[j, i] = _evaluate(back, spec, **kw).total
    return out
