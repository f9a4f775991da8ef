"""Non-equidimensional extension of the divergences.

A divergence between a PD r x r matrix C and a PD s x s matrix D (r <= s)
is extended through the containment sets

    Omega_minus(D) = { X r x r PD : X >= D11 }
    Omega_plus(C)  = { Y s x s PD : Y11 <= C }

as min over the feasible set of the equidimensional divergence. For the
divergence families the two sides coincide and have the closed form

    ( sum_k g(max{1, lambda_k(C^{-1} D11)}) )^a,

which is what pointset_minus / pointset_plus evaluate. The two-parameter
geodesic family with beta != 0 needs a small quadratic program instead
(alpha_beta_pointset), where the two sides can differ. project_minus and
lift_plus construct the optimal representatives, and oracle_min_over_omega
is an independent brute-force minimizer used for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import (GEODESIC_AB, FiberDivergence, _fiber_values, _objective,
                          geodesic_ab_is_distance_check)
from .errors import DomainError, OptimizerError
from .linalg import (
    _descend,
    _eig_power,
    _herm,
    _pencil_from_eig,
    check_pd,
    hermitian_eig,
    psd_power,
)


@dataclass
class PointSetValue:
    value: float
    side: str  # "minus" or "plus"
    clamped_spectrum: np.ndarray  # max{1, lambda_k(C^{-1} D11)}, descending
    witness: np.ndarray | None = None


@dataclass
class ProjectionWitness:
    dminus: np.ndarray  # r x r PD, the projection of D onto Omega_minus(D)
    lam: np.ndarray     # diagonal of Lambda = max{1, lambda_k}, descending
    Q: np.ndarray       # unitary with C^{-1/2} D11 C^{-1/2} = Q* diag(lam_raw) Q


@dataclass
class LiftWitness:
    cplus: np.ndarray   # s x s PD, the lift of C into Omega_plus(C)
    Z: np.ndarray       # whitening factor with Z D Z* = I_s
    lam: np.ndarray     # diagonal of Lambda = (min{1, lambda_k(D11^{-1}C)}, 1, ..., 1)


def _check_pair(C, D):
    """Validated (C, D, r, s, (w, V)) with (w, V) the eigensystem of C."""
    C, w, V = check_pd(C, name="C")
    D, _, _ = check_pd(D, name="D")
    r, s = C.shape[0], D.shape[0]
    if r > s:
        raise DomainError(f"point-set extension needs r <= s, got r={r}, s={s}")
    return C, D, r, s, (w, V)


def _reject_two_parameter(spec):
    if spec.kind == GEODESIC_AB and spec.beta != 0.0:
        raise DomainError(
            "the two-parameter geodesic family has no shared closed form; "
            "use alpha_beta_pointset"
        )


def pointset_value_from_spectrum(spec: FiberDivergence, mu, side="minus") -> PointSetValue:
    """Closed-form point-set value from the pencil spectrum mu = lambda(C^{-1}D11)."""
    _reject_two_parameter(spec)
    mu = np.asarray(mu, dtype=float)
    value = float(_fiber_values(spec, _spectrum_objective(spec, mu)))
    return PointSetValue(value, side, np.maximum(1.0, mu))


def pointset_minus(spec: FiberDivergence, C, D, with_witness=False) -> PointSetValue:
    """min over X in Omega_minus(D) of divergence(spec, C, X)."""
    C, D, r, s, eigC = _check_pair(C, D)
    out = pointset_value_from_spectrum(spec, _pencil_from_eig(*eigC, D[:r, :r]), side="minus")
    if with_witness:
        out.witness = _project_minus(C, D, r, eigC).dminus
    return out


def pointset_plus(spec: FiberDivergence, C, D, with_witness=False) -> PointSetValue:
    """min over Y in Omega_plus(C) of divergence(spec, Y, D); equals the minus side."""
    C, D, r, s, eigC = _check_pair(C, D)
    out = pointset_value_from_spectrum(spec, _pencil_from_eig(*eigC, D[:r, :r]), side="plus")
    if with_witness:
        out.witness = _lift_plus(C, D, r, s).cplus
    return out


# --- two-parameter geodesic quadratic programs ------------------------


def _min_quadratic_box(alpha, beta, c):
    """Minimize alpha*sum(t^2) + beta*(sum t)^2 subject to t >= c.

    c is descending along its last axis, which may carry a stack. The
    ordering constraints of the original program are implied (the objective
    is permutation symmetric and the descending rearrangement of any
    feasible point is feasible). Returns (value, t): the optimal values,
    floored at 0, and the minimizers.

    At a KKT point the free variables share the value x = -beta*S/alpha
    (S = sum t) and constraint i is active iff c_i >= x, so the active set
    is a prefix of the descending c. Candidate j activates the first j:
    x_j = -beta*A_j/(alpha + (r - j)*beta) with A_j = c_1 + ... + c_j. It is
    a KKT point iff c_{j+1} <= x_j (the free variables are feasible) and
    2*alpha*c_j + 2*beta*S_j >= 0 (the smallest active multiplier is
    nonnegative). The scan returns the best KKT candidate, which is the
    unique minimizer when the program is convex (alpha + r*beta > 0).
    """
    c = np.asarray(c, dtype=float)
    r = c.shape[-1]
    zero = np.zeros(c.shape[:-1] + (1,))
    A = np.concatenate([zero, np.cumsum(c, axis=-1)], axis=-1)
    Q = np.concatenate([zero, np.cumsum(c * c, axis=-1)], axis=-1)
    free = r - np.arange(r + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(free > 0, -beta * A / (alpha + free * beta), 0.0)
    S = A + free * x
    kkt = np.ones(A.shape, dtype=bool)
    kkt[..., :r] &= x[..., :r] >= c - 1e-12
    kkt[..., 1:] &= 2.0 * alpha * c + 2.0 * beta * S[..., 1:] >= -1e-10
    obj = np.where(kkt, alpha * (Q + free * x * x) + beta * S * S, np.inf)
    j = np.argmin(obj, axis=-1)[..., None]
    best = np.take_along_axis(obj, j, axis=-1)[..., 0]
    if not np.all(np.isfinite(best)):
        raise OptimizerError("two-parameter quadratic program has no KKT point")
    t = np.where(np.arange(r) < j, c, np.take_along_axis(x, j, axis=-1))
    return np.maximum(0.0, best), t


def _spectrum_objective(spec: FiberDivergence, mu, with_grad=False):
    """Pre-exponent point-set objective F of stacked descending pencil spectra.

    With `with_grad`, also returns dF/dmu. For per-eigenvalue families
    F = Phi(max(1, mu)); every family has g'(1) = 0, so F is C^1 across
    the clamp. For the two-parameter geodesic family F is the optimal value
    of the box QP in c = log mu, whose derivative is the KKT multiplier
    nu = 2*alpha*t + 2*beta*sum(t) (zero on free variables) over mu.
    """
    if spec.kind == GEODESIC_AB and spec.beta != 0.0:
        mu = np.maximum(mu, 1e-300)
        F, t = _min_quadratic_box(spec.alpha, spec.beta, np.log(mu))
        if not with_grad:
            return F
        nu = 2.0 * spec.alpha * t + 2.0 * spec.beta * np.sum(t, axis=-1, keepdims=True)
        return F, nu / mu
    lam = np.maximum(1.0, mu)
    if not with_grad:
        return _objective(spec, lam)
    F, dF = _objective(spec, lam, with_grad=True)
    return F, np.where(mu > 1.0, dF, 0.0)


def alpha_beta_pointset(C, D, alpha, beta, side="minus") -> float:
    """Point-set value of the two-parameter geodesic family.

    minus side: min of t'(alpha I_r + beta J_r)t over t1 >= ... >= t_r,
    t_k >= log lambda_k(C^{-1}D11); plus side: the same quadratic in s
    variables, with the trailing s - r variables unconstrained. Returns the
    square root of the optimal value. plus <= minus always, with equality
    iff beta = 0 or r = s.
    """
    C, D, r, s, eigC = _check_pair(C, D)
    if not geodesic_ab_is_distance_check(alpha, beta, s):
        raise DomainError("parameter region requires alpha > 0 and beta > -alpha/s")
    if side not in ("minus", "plus"):
        raise DomainError(f"unknown side {side!r}")
    c = np.log(_pencil_from_eig(*eigC, D[:r, :r]))
    if side == "minus":
        beta_eff = beta
    else:
        # minimizing over the free trailing variables in closed form leaves
        # an r-variable program with a shrunken coupling coefficient
        beta_eff = alpha * beta / (alpha + (s - r) * beta)
    return float(np.sqrt(_min_quadratic_box(alpha, beta_eff, c)[0]))


# --- optimal representatives -----------------------------------------


def project_minus(C, D) -> ProjectionWitness:
    """The unique point of Omega_minus(D) closest to C, for every family."""
    C, D, r, s, eigC = _check_pair(C, D)
    return _project_minus(C, D, r, eigC)


def _project_minus(C, D, r, eigC):
    D11 = D[:r, :r]
    Chalf = _eig_power(*eigC, 0.5)
    Cih = _eig_power(*eigC, -0.5)
    lam_raw, V = hermitian_eig(_herm(Cih @ D11 @ Cih))
    lam = np.maximum(1.0, lam_raw)
    if np.all(lam_raw >= 1.0):
        dminus = D11.copy()
    else:
        dminus = _herm(Chalf @ ((V * lam) @ V.conj().T) @ Chalf)
    return ProjectionWitness(dminus=dminus, lam=lam, Q=V.conj().T)


def _whitening(C, D, r, s):
    """Internal: (Z, lam) with Z D Z* = I_s and lam = lambda(D11^{-1}C) descending."""
    D11 = D[:r, :r]
    Dih = psd_power(D11, -0.5)
    lam, V = hermitian_eig(_herm(Dih @ C @ Dih))
    P = V.conj().T
    top = P @ Dih
    if r == s:
        return top, lam
    D12 = D[:r, r:]
    D22 = D[r:, r:]
    schur = _herm(D22 - D12.conj().T @ np.linalg.solve(D11, D12))
    W = psd_power(schur, -0.5)
    Z = np.zeros((s, s), dtype=np.result_type(C, D))
    Z[:r, :r] = top
    Z[r:, :r] = -W @ D12.conj().T @ np.linalg.inv(D11)
    Z[r:, r:] = W
    return Z, lam


def whitening_factor(C, D) -> np.ndarray:
    """Block factor Z with Z D Z* = I_s, mapping Omega_plus(C) onto Omega_plus(Sigma)."""
    C, D, r, s, _ = _check_pair(C, D)
    return _whitening(C, D, r, s)[0]


def lift_plus(C, D) -> LiftWitness:
    """The unique point of Omega_plus(C) closest to D, for every family."""
    C, D, r, s, _ = _check_pair(C, D)
    return _lift_plus(C, D, r, s)


def _lift_plus(C, D, r, s):
    Z, lam_raw = _whitening(C, D, r, s)
    lam = np.concatenate([np.minimum(1.0, lam_raw), np.ones(s - r)])
    if np.all(lam_raw >= 1.0):
        cplus = D.copy()
    else:
        Zinv = np.linalg.inv(Z)
        cplus = _herm((Zinv * lam) @ Zinv.conj().T)
    return LiftWitness(cplus=cplus, Z=Z, lam=lam)


# --- independent verification oracle ---------------------------------

# iteration cap of the descent from each start
_ORACLE_MAX_ITER = 500


def _phi_batch(spec, lam):
    """Phi and dPhi/dlambda for a (B, r) stack of spectra floored at 1e-300;
    +inf with a zero gradient where the domain is violated."""
    with np.errstate(all="ignore"):
        lam = np.maximum(lam, 1e-300)
        try:
            phi, dphi = _objective(spec, lam, with_grad=True)
        except DomainError:
            # per-row domain violations: fall back to a python loop
            phi, dphi = np.full(lam.shape[0], np.inf), np.zeros_like(lam)
            for i in range(lam.shape[0]):
                try:
                    phi[i], dphi[i] = _objective(spec, lam[i], with_grad=True)
                except DomainError:
                    pass
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
        with np.errstate(divide="ignore", invalid="ignore"):
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
