"""Bundle geometry: horizontal lifts, parallel transport, quasi-geodesics.

The base curve is always the Grassmann geodesic between two subspaces,
lifted horizontally to the frame bundle in closed form from principal
vectors. A PSD matrix is transported by carrying its fiber representation
along the lifted frame; a quasi-geodesic pairs the base geodesic with the
affine-invariant geodesic between the endpoint fiber representations. A
quasi-geodesic aligns its pair as `gd` does (`geodist._prepare`). Both curves
reject exactly the pairs with l >= 1 under gd's rule (`linalg._right_angles`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .geodist import _prepare
from .linalg import (
    PrincipalSystem,
    PsdMatrix,
    Subspace,
    _congruence,
    _derived_eig,
    _eig_power,
    _herm,
    _right_angles,
    fiber_representation,
    principal_system,
)


@dataclass
class SubspaceGeodesic:
    """The minimal-length base curve between two subspaces of equal dimension."""

    start: Subspace
    end: Subspace
    principal: PrincipalSystem
    evaluator: Callable[[float], np.ndarray] = field(repr=False)


@dataclass
class PsdCurve:
    """A curve of PSD matrices exposed as an evaluator plus a sampler."""

    evaluator: Callable[[float], PsdMatrix]
    kind: str  # "parallelTransport" or "quasiGeodesic"

    def sample(self, count=11):
        return [self.evaluator(t) for t in np.linspace(0.0, 1.0, count)]


def _horizontal_lift(a, b, theta):
    """c(t) = a cos(theta t) + W sin(theta t) for aligned frames a, b at angles
    theta, with W the normalized component of b orthogonal to a."""
    sin_t = np.sin(theta)
    W = np.zeros_like(a)
    moving = sin_t > 1e-12
    if np.any(moving):
        W[:, moving] = (b[:, moving] - a[:, moving] * np.cos(theta[moving])) / sin_t[moving]
    return lambda t: a * np.cos(theta * t) + W * np.sin(theta * t)


def subspace_geodesic(U: Subspace, V: Subspace) -> SubspaceGeodesic:
    """Horizontal lift c(t) of the Grassmann geodesic from U to V, through
    their principal vectors. The geodesic is unique only without right
    principal angles, so a pair with l >= 1 under U.tol_rank is rejected."""
    if U.r != V.r:
        raise DomainError(f"subspace dimensions differ: {U.r} vs {V.r}")
    ps = principal_system(U, V)
    l = _right_angles(ps.sigma, U.tol_rank)
    if l:
        raise DomainError(f"right principal angle (l = {l}): base geodesic not unique")
    return SubspaceGeodesic(start=U, end=V, principal=ps,
                            evaluator=_horizontal_lift(ps.left_frame, ps.right_frame, ps.theta))


def parallel_transport(A: PsdMatrix, geo: SubspaceGeodesic, t: float) -> PsdMatrix:
    """Transport A along the base geodesic under the Ehresmann connection.

    P(t) = c(t) M c(t)* with M the fiber representation of A in the c(0)
    basis; the fiber spectrum is carried unchanged.
    """
    return transport_curve(A, geo).evaluator(t)


def transport_curve(A: PsdMatrix, geo: SubspaceGeodesic) -> PsdCurve:
    """The curve t -> parallel_transport(A, geo, t), with M computed once."""
    if A.rank != geo.start.r:
        raise DomainError("rank of A does not match the geodesic start dimension")
    M = fiber_representation(A, geo.evaluator(0.0))

    def evaluate(t):
        c = geo.evaluator(float(t))
        return PsdMatrix(_herm(c @ M @ c.conj().T), tol_rank=A.tol_rank, tol_psd=A.tol_psd)

    return PsdCurve(evaluator=evaluate, kind="parallelTransport")


def _aligned_pair(A: PsdMatrix, B: PsdMatrix):
    """gd's alignment of an equal-rank pair; rejected where gd finds l >= 1."""
    if A.n != B.n:
        raise DomainError(f"ambient mismatch: {A.n} vs {B.n}")
    if A.rank != B.rank:
        raise DomainError(f"quasi-geodesic needs equal rank, got {A.rank} vs {B.rank}")
    prep = _prepare([A], [B])
    if prep.l[0]:
        raise DomainError(f"right principal angle (l = {prep.l[0]}): quasi-geodesic not unique")
    return prep


def quasi_geodesic(A: PsdMatrix, B: PsdMatrix, t: float) -> PsdMatrix:
    """mu(t) = u(t) S(t) u(t)* pairing the base geodesic with the fiber geodesic."""
    return quasi_geodesic_curve(A, B).evaluator(t)


def quasi_geodesic_curve(A: PsdMatrix, B: PsdMatrix) -> PsdCurve:
    """quasi_geodesic as a curve; C = P* diag(wA) P comes factored from the
    alignment, so only the derived pencil C^{-1/2} D' C^{-1/2} is decomposed, once."""
    prep = _aligned_pair(A, B)
    P, Qh = prep.P[0], prep.Qh[0]
    u = _horizontal_lift(A.compact_factors()[0] @ P, B.compact_factors()[0] @ Qh.conj().T,
                         prep.theta[0])
    Chalf = _eig_power(prep.wA[0], P.conj().T, 0.5)
    # ascending: evaluate sums the pencil's powers in eigh's order
    wi, Vi = (x[..., ::-1].copy() for x in _derived_eig(_congruence(*prep.fibers(0))))

    def evaluate(t):
        S = _herm(Chalf @ _eig_power(wi, Vi, float(t)) @ Chalf)
        c = u(float(t))
        return PsdMatrix(_herm(c @ S @ c.conj().T), tol_rank=A.tol_rank, tol_psd=A.tol_psd)

    return PsdCurve(evaluator=evaluate, kind="quasiGeodesic")


def quasi_geodesic_length(A: PsdMatrix, B: PsdMatrix, k: float) -> float:
    """length_k = sqrt(d^2 + k delta^2) of the quasi-geodesic between A and B.

    d is the Grassmann geodesic distance between the ranges and delta the
    affine-invariant geodesic distance between the endpoint fiber
    representations, read off gd's principal angles and pencil spectrum.
    """
    if not 0.0 < k < math.inf:
        raise DomainError(f"length exponent k must be positive and finite, got {k}")
    prep = _aligned_pair(A, B)
    return math.sqrt(np.sum(prep.theta[0] ** 2) + k * np.sum(np.log(prep.mu[0]) ** 2))
