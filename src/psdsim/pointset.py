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
lift_plus construct the optimal representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import (GEODESIC_AB, FiberDivergence, _defined, _fiber_values, _objective,
                          _unit_scaled, geodesic_ab_is_distance_check)
from .errors import DomainError, OptimizerError
from .linalg import _congruence, _derived_eig, _eig_power, _herm, _pencil_from_eig, check_pd


@dataclass
class PointSetValue:
    value: float
    clamped_spectrum: np.ndarray  # max{1, lambda_k(C^{-1} D11)}, descending


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


def pointset_value_from_spectrum(spec: FiberDivergence, mu) -> PointSetValue:
    """Closed-form point-set value from one pencil spectrum mu = lambda(C^{-1}D11) > 0."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1:
        raise DomainError(f"pencil spectrum must be one-dimensional, got shape {mu.shape}")
    if mu.size == 0:
        raise DomainError("empty (rank-0) pencil spectrum")
    if spec.kind == GEODESIC_AB and spec.beta != 0.0:
        raise DomainError("the two-parameter geodesic family has no shared closed form; "
                          "use alpha_beta_pointset")
    return PointSetValue(float(_spectrum_values(spec, mu)), np.maximum(1.0, mu))


def pointset_minus(spec: FiberDivergence, C, D) -> PointSetValue:
    """min over X in Omega_minus(D) of divergence(spec, C, X)."""
    C, D, r, s, eigC = _check_pair(C, D)
    return pointset_value_from_spectrum(spec, _pencil_from_eig(*eigC, D[:r, :r]))


def pointset_plus(spec: FiberDivergence, C, D) -> PointSetValue:
    """min over Y in Omega_plus(C) of divergence(spec, Y, D); equals the minus side."""
    return pointset_minus(spec, C, D)


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
    x_j = -beta*A_j/(alpha + (r - j)*beta) with A_j = c_1 + ... + c_j, and
    S_j = A_j + (r - j)*x_j = alpha*A_j/(alpha + (r - j)*beta), a form
    that does not cancel at large beta. It is a KKT point iff
    c_{j+1} <= x_j (the free variables are feasible) and
    2*alpha*c_j + 2*beta*S_j >= 0 (the smallest active multiplier is
    nonnegative). The scan returns the best KKT candidate, which is the
    unique minimizer when the program is convex (alpha + r*beta > 0).
    Callers pass (alpha, beta) of size at most 1 (_unit_scaled).
    """
    c = np.asarray(c, dtype=float)
    r = c.shape[-1]
    zero = np.zeros(c.shape[:-1] + (1,))
    A = np.concatenate([zero, np.cumsum(c, axis=-1)], axis=-1)
    Q = np.concatenate([zero, np.cumsum(c * c, axis=-1)], axis=-1)
    free = r - np.arange(r + 1)
    # at j = r no variable is free and S = A; the quotients there are
    # discarded, and 0/0 when alpha underflowed to 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = alpha + free * beta
        x = np.where(free > 0, -beta * A / den, 0.0)
        S = np.where(free > 0, alpha * A / den, A)
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
    F = Phi(max(1, mu)), and DomainError names the family if F is not
    finite; every family has g'(1) = 0, so F is C^1 across the clamp. For
    the two-parameter geodesic family F is the optimal value of the box QP
    in c = log mu at (a, b) from _unit_scaled, whose derivative is the KKT
    multiplier nu = 2*a*t + 2*b*sum(t) (zero on free variables) over mu; it
    is convex, and the family defined, only for beta > -alpha/r. A spectrum
    with any mu <= 0 comes from no positive definite pair: DomainError.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0):
        raise DomainError(f"pencil spectrum must be positive, got {mu.min():g}")
    if spec.kind == GEODESIC_AB and spec.beta != 0.0:
        if not geodesic_ab_is_distance_check(spec.alpha, spec.beta, mu.shape[-1]):
            _defined(spec, np.nan)  # the one domain rule, as in divergences._objective
        a, b, _ = _unit_scaled(spec.alpha, spec.beta)
        F, t = _min_quadratic_box(a, b, np.log(mu))
        if not with_grad:
            return F
        nu = 2.0 * a * t + 2.0 * b * np.sum(t, axis=-1, keepdims=True)
        return F, nu / mu
    lam = np.maximum(1.0, mu)
    if not with_grad:
        return _defined(spec, _objective(spec, lam))
    F, dF = _objective(spec, lam, with_grad=True)
    return _defined(spec, F), np.where(mu > 1.0, dF, 0.0)


def _defined_on_box(spec: FiberDivergence, lo, hi, r):
    """Whether F is certified finite on every spectrum in [lo, hi]^r; never
    where the box reaches 0, whose spectra F rejects.

    F sees max(1, mu), and each per-eigenvalue term g is defined on an
    interval around 1 and increases above 1, so F is largest, and a
    non-finite F first shows, at the spectrum (hi, ..., hi). The
    two-parameter geodesic family is defined on its region for every
    positive spectrum. The box is widened by 1e-10 hi on both sides, far
    beyond the rounding of a computed pencil spectrum inside it.
    """
    pad = 1e-10 * hi
    if not lo - pad > 0.0:
        return False
    try:
        _spectrum_objective(spec, np.array([[hi + pad] * r, [lo - pad] * r]))
    except (DomainError, OptimizerError):
        return False
    return True


def _spectrum_values(spec: FiberDivergence, mu):
    """Values of stacked descending pencil spectra: F, then the outer exponent
    and the bound. Every closed form and sampled pencil in `gd` maps here."""
    return _fiber_values(spec, _spectrum_objective(spec, mu))


def alpha_beta_pointset(C, D, alpha, beta, side="minus") -> float:
    """Point-set value of the two-parameter geodesic family.

    minus side: min of t'(alpha I_r + beta J_r)t over t1 >= ... >= t_r,
    t_k >= log lambda_k(C^{-1}D11); plus side: the same quadratic in s
    variables, with the trailing s - r variables unconstrained. Returns the
    square root of the optimal value, through _spectrum_values as in `gd`.
    plus <= minus always, with equality iff beta = 0 or r = s. Each side
    needs alpha > 0 and beta > -alpha/m, m its variable count.
    """
    C, D, r, s, eigC = _check_pair(C, D)
    if side not in ("minus", "plus"):
        raise DomainError(f"unknown side {side!r}")
    m = r if side == "minus" else s
    if not geodesic_ab_is_distance_check(alpha, beta, m):
        raise DomainError(f"parameter region requires finite alpha > 0 and beta > -alpha/{m}")
    if side == "plus" and s > r:
        # minimizing over the free trailing variables in closed form leaves an
        # r-variable program with coupling alpha*beta/(alpha + (s - r)*beta)
        a, b, _ = _unit_scaled(alpha, beta)
        beta = alpha * b / (a + (s - r) * b)
    mu = _pencil_from_eig(*eigC, D[:r, :r])
    return float(_spectrum_values(FiberDivergence.geodesic_ab(alpha, beta), mu))


# --- optimal representatives -----------------------------------------


def project_minus(C, D) -> ProjectionWitness:
    """The unique point of Omega_minus(D) closest to C, for every family:
    D11 plus the clamp's correction H diag(max(0, 1 - lam_raw)) H*, H = C^{1/2} V,
    C^{-1/2} D11 C^{-1/2} = V diag(lam_raw) V*; zero, so D11 exactly, if nothing clamps."""
    C, D, r, s, eigC = _check_pair(C, D)
    D11 = D[:r, :r]
    lam_raw, V = _derived_eig(_congruence(_eig_power(*eigC, -0.5), D11))
    H = _eig_power(*eigC, 0.5) @ V
    dminus = _herm(D11 + (H * np.maximum(0.0, 1.0 - lam_raw)) @ H.conj().T)
    return ProjectionWitness(dminus=dminus, lam=np.maximum(1.0, lam_raw), Q=V.conj().T)


def lift_plus(C, D) -> LiftWitness:
    """The unique point of Omega_plus(C) closest to D, for every family.

    Z is the block factor with Z D Z* = I_s and lam_raw = lambda(D11^{-1}C),
    descending, from the one decomposition of D11. The lift is D minus the clamp's
    correction G diag(1 - min(1, lam_raw)) G*, G = D[:, :r] D11^{-1/2} V = Z^{-1}[:, :r];
    zero, so D exactly, if nothing clamps."""
    C, D, r, s, _ = _check_pair(C, D)
    D11, D12 = D[:r, :r], D[:r, r:]
    Dih = _eig_power(*_derived_eig(D11), -0.5)
    lam_raw, V = _derived_eig(_congruence(Dih, C))
    Z = np.zeros((s, s), dtype=np.result_type(C, D))
    Z[:r, :r] = V.conj().T @ Dih
    if s > r:
        E = Dih @ (Dih @ D12)  # D11^{-1} D12
        W = _eig_power(*_derived_eig(D[r:, r:] - D12.conj().T @ E), -0.5)
        Z[r:, :r] = -W @ E.conj().T
        Z[r:, r:] = W
    G = D[:, :r] @ (Dih @ V)
    cplus = _herm(D - (G * (1.0 - np.minimum(1.0, lam_raw))) @ G.conj().T)
    lam = np.concatenate([np.minimum(1.0, lam_raw), np.ones(s - r)])
    return LiftWitness(cplus=cplus, Z=Z, lam=lam)
