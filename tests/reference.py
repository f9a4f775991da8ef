"""Reference implementations the tests compare the library against; no
library path calls them. `oracle_min_over_omega` minimizes over a
containment set by brute force, independently of the closed forms.
`representation_set` and `generalized_hausdorff` write faithful mode's
sampled stage out in full: the pairs `gd` draws, and the max-min over them.
`faithful_fiber` is that max-min read off the full value tables of the draws,
every entry evaluated. `congruence_by_view` is G M G* formed against the
transposed view of G.
"""

import numpy as np

from psdsim.divergences import FiberDivergence, _fiber_values, _objective
from psdsim.errors import DomainError
from psdsim.geodist import _check_integers, _conjugated_block_values, _frame_draws, _frames, _prepare
from psdsim.linalg import PsdMatrix, _congruence, _descend, _eig_power, _herm, psd_power
from psdsim.pointset import _check_pair


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


def representation_set(A: PsdMatrix, B: PsdMatrix, grid=256, seed=0):
    """Sampled fiber-representation pairs over the principal-basis ambiguity.

    Returns a list of (M_X, M_Y) array pairs: the pairs faithful mode
    evaluates with `samples=grid` and the same seed. Only the tails of the
    frames are sampled; the unitary P on the leading rows, which both frames
    share, cancels from every pencil, so the set covers the part of the
    ambiguity that moves a value. Pairs of one draw share their array
    objects, so the list can be fed to generalized_hausdorff directly.
    """
    _check_integers(1, grid=grid)
    if A.rank > B.rank:
        A, B = B, A
    prep = _prepare([A], [B])
    D = prep.fibers(0)[1]
    C = _eig_power(prep.wA[0], prep.P[0].conj().T, 1.0)
    r, s, l = C.shape[0], D.shape[0], int(prep.l[0])
    pairs = []
    for S, T in _frame_draws(C, D, l, grid, seed):
        xs = list(_herm(_congruence(_frames(r - l, S, r), C)))
        ys = list(_herm(_congruence(_frames(r - l, T, s), D)))
        pairs.extend((x, y) for x in xs for y in ys)
    return pairs


def faithful_fiber(C_invhalf, D, l, spec: FiberDivergence, samples, seed):
    """Directed max-min fiber value over the sampled ambiguity group (l >= 1),
    from C^{-1/2} and D of an aligned pair (_Prepared.fibers).

    A left frame G enters through (G C G*)^{-1/2} = G C^{-1/2} G*, so the
    pair (G, H) has the pencil of the factor C^{-1/2} G* and Y = (H D H*)_11
    = E D E* with E = H[:r]. Each of the 4 draws is one (n_s, n_t) table of
    pencil values (_conjugated_block_values).
    """
    r = C_invhalf.shape[0]
    d1 = d2 = -np.inf
    for S, T in _frame_draws(C_invhalf, D, l, samples, seed):
        F = C_invhalf @ np.swapaxes(_frames(r - l, S, r).conj(), -1, -2)
        vals = _conjugated_block_values(spec, F, D, _frames(r - l, T, r))
        d1 = max(d1, float(vals.min(axis=1).max()))
        d2 = max(d2, float(vals.min(axis=0).max()))
    return max(d1, d2)


def congruence_by_view(G, M):
    """(G M) G* with G* taken as a transposed view of G, for a matrix or a
    stack of them: the product linalg._congruence must equal bit for bit."""
    return (G @ M) @ np.swapaxes(G.conj(), -1, -2)


# --- independent verification oracle ---------------------------------

# iteration cap of the descent from each start
_ORACLE_MAX_ITER = 500


def _phi_batch(spec, lam):
    """Phi and dPhi/dlambda for a (B, r) stack of spectra; +inf with a zero
    gradient where the family is undefined (lambda <= 0 included)."""
    phi, dphi = _objective(spec, lam, with_grad=True)
    bad = ~(np.isfinite(phi) & np.isfinite(dphi).all(axis=-1))
    phi[bad], dphi[bad] = np.inf, 0.0
    return phi, dphi


def _line(x, p, t):
    """x + t p: the retraction of a flat parameter space."""
    return x + t[:, None] * p


def _oracle_minus(spec, Cih, D11, budget, seed):
    """Multi-start descent over X = D11 + L L', L lower triangular."""
    r = D11.shape[0]
    rng = np.random.default_rng(seed)
    rows, cols = np.tril_indices(r)
    L = np.zeros((max(2, int(budget)), r, r))
    scale = np.sqrt(max(1.0, np.trace(D11).real / r))
    for i in range(1, len(L)):
        G = rng.normal(size=(r, r)) * scale * 10.0 ** rng.uniform(-2, 0.5)
        L[i, rows, cols] = G[rows, cols]

    def fg(x):
        L = np.zeros((len(x), r, r))
        L[:, rows, cols] = x
        lam, V = np.linalg.eigh(_herm(Cih @ (D11 + L @ np.swapaxes(L, -1, -2)) @ Cih))
        phi, dphi = _phi_batch(spec, lam)
        G = Cih @ ((V * dphi[:, None, :]) @ np.swapaxes(V, -1, -2)) @ Cih
        return phi, 2.0 * (G @ L)[:, rows, cols]

    _, f, _ = _descend(fg, _line, L[:, rows, cols], _ORACLE_MAX_ITER)
    return float(_fiber_values(spec, f.min()))


def _oracle_plus(spec, Chalf, Dih, budget, seed):
    """Multi-start descent over Y with Y11 <= C, via smooth factors.

    Y11 = C^{1/2} (I + E E')^{-1} C^{1/2} sweeps all PD blocks below C;
    Y12 = R and the Schur factor F of Y22 = R' Y11^{-1} R + F F' are free.
    The objective is Phi(1/nu), nu the spectrum of D^{-1/2} Y D^{-1/2}, so
    its gradient in Y is -D^{-1/2} V diag(Phi'(1/nu)/nu^2) V' D^{-1/2};
    the chain rule carries it to E, R and F.
    """
    r, s = Chalf.shape[0], Dih.shape[0]
    k = s - r
    rng = np.random.default_rng(seed)
    rows, cols = np.tril_indices(k)
    n_e, n_r = r * r, r * k
    nvar = n_e + n_r + len(rows)
    x0 = np.stack([rng.normal(size=nvar) * (0.3 if i else 1e-3)
                   for i in range(max(2, int(budget)))])
    # bias the Schur factor away from singularity
    x0[:, n_e + n_r:] += np.eye(k)[rows, cols]

    def fg(x):
        m = len(x)
        E = x[:, :n_e].reshape(m, r, r)
        R = x[:, n_e:n_e + n_r].reshape(m, r, k)
        F = np.zeros((m, k, k))
        F[:, rows, cols] = x[:, n_e + n_r:]
        Minv = np.linalg.inv(np.eye(r) + E @ np.swapaxes(E, -1, -2))
        Y11 = Chalf @ Minv @ Chalf
        S = np.linalg.solve(Y11, R)
        Rt = np.swapaxes(R, -1, -2)
        Y = np.block([[Y11, R], [Rt, Rt @ S + F @ np.swapaxes(F, -1, -2)]])
        nu, V = np.linalg.eigh(_herm(Dih @ Y @ Dih))
        with np.errstate(all="ignore"):
            phi, dphi = _phi_batch(spec, 1.0 / nu)
            phi[nu[:, 0] <= 0.0] = np.inf
            G = Dih @ ((V * (-dphi / nu**2)[:, None, :]) @ np.swapaxes(V, -1, -2)) @ Dih
            G11, G12, G22 = G[:, :r, :r], G[:, :r, r:], G[:, r:, r:]
            SG = S @ G22
            H = Minv @ Chalf @ (G11 - SG @ np.swapaxes(S, -1, -2)) @ Chalf @ Minv
            return phi, np.concatenate([(-2.0 * H @ E).reshape(m, -1),
                                        (2.0 * (G12 + SG)).reshape(m, -1),
                                        2.0 * (G22 @ F)[:, rows, cols]], axis=1)

    _, f, _ = _descend(fg, _line, x0, _ORACLE_MAX_ITER)
    return float(_fiber_values(spec, f.min()))


def oracle_min_over_omega(spec: FiberDivergence, C, D, side="minus", budget=32, seed=0):
    """Brute-force minimum of the divergence over the containment set.

    Independent of the closed forms: parameterizes the feasible set
    directly and runs seeded multi-start local minimization. Real inputs
    only (the verification suites operate over the reals).
    """
    C, D, r, s, eigC = _check_pair(C, D)
    if np.iscomplexobj(C) or np.iscomplexobj(D):
        raise DomainError("the oracle supports real inputs only")
    if max(r, s) > 5:
        raise DomainError("oracle limited to r, s <= 5 (desk scale)")
    if side == "minus":
        return _oracle_minus(spec, _eig_power(*eigC, -0.5), D[:r, :r], budget, seed)
    if side == "plus":
        return _oracle_plus(spec, _eig_power(*eigC, 0.5), psd_power(D, -0.5), budget, seed)
    raise DomainError(f"unknown side {side!r}")
