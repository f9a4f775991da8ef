"""Bundle geometry: horizontal lifts, parallel transport, quasi-geodesics.

The base curve is always the Grassmann geodesic between two subspaces,
lifted horizontally to the frame bundle in closed form from principal
vectors. A PSD matrix is transported by carrying its fiber representation
along the lifted frame; a quasi-geodesic pairs the base geodesic with the
affine-invariant geodesic between the endpoint fiber representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import (
    PrincipalSystem,
    PsdMatrix,
    Subspace,
    _eig_power,
    _herm,
    check_pd,
    fiber_representation,
    pencil_eigenvalues,
    principal_system,
    range_subspace,
)

RIGHT_ANGLE_SLACK = 1e-8


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


def subspace_geodesic(U: Subspace, V: Subspace, allow_completion=False) -> SubspaceGeodesic:
    """Horizontal lift c(t) of the Grassmann geodesic from U to V.

    c(t) columns are a_i cos(theta_i t) + w_i sin(theta_i t) with (a_i, b_i)
    aligned principal vectors and w_i the normalized component of b_i
    orthogonal to a_i. Unique only when every principal angle is below a
    right angle; right-angle pairs are rejected unless allow_completion.
    """
    if U.r != V.r:
        raise DomainError(f"subspace dimensions differ: {U.r} vs {V.r}")
    ps = principal_system(U, V)
    theta = ps.theta
    if not allow_completion and theta.size and theta.max() >= math.pi / 2 - RIGHT_ANGLE_SLACK:
        raise DomainError(
            "right principal angle: base geodesic not unique "
            "(pass allow_completion=True to pick one)"
        )
    a = ps.left_frame
    b = ps.right_frame
    sin_t = np.sin(theta)
    W = np.zeros_like(a)
    moving = sin_t > 1e-12
    if np.any(moving):
        W[:, moving] = (b[:, moving] - a[:, moving] * np.cos(theta[moving])) / sin_t[moving]

    def evaluate(t):
        return a * np.cos(theta * t) + W * np.sin(theta * t)

    return SubspaceGeodesic(start=U, end=V, principal=ps, evaluator=evaluate)


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


def _quasi_geodesic_parts(A: PsdMatrix, B: PsdMatrix):
    if A.n != B.n:
        raise DomainError(f"ambient mismatch: {A.n} vs {B.n}")
    if A.rank != B.rank:
        raise DomainError(f"quasi-geodesic needs equal rank, got {A.rank} vs {B.rank}")
    geo = subspace_geodesic(range_subspace(A), range_subspace(B))
    C = fiber_representation(A, geo.evaluator(0.0))
    Dp = fiber_representation(B, geo.evaluator(1.0))
    return geo, C, Dp


def quasi_geodesic(A: PsdMatrix, B: PsdMatrix, t: float) -> PsdMatrix:
    """mu(t) = u(t) S(t) u(t)* pairing the base geodesic with the fiber geodesic."""
    return quasi_geodesic_curve(A, B).evaluator(t)


def quasi_geodesic_curve(A: PsdMatrix, B: PsdMatrix) -> PsdCurve:
    """quasi_geodesic as a curve; C and C^{-1/2} D' C^{-1/2} are decomposed once."""
    geo, C, Dp = _quasi_geodesic_parts(A, B)
    _, w, V = check_pd(C, name="fiber representation")
    Chalf = _eig_power(w, V, 0.5)
    Cih = _eig_power(w, V, -0.5)
    _, wi, Vi = check_pd(_herm(Cih @ Dp @ Cih), name="fiber pencil")

    def evaluate(t):
        S = _herm(Chalf @ _eig_power(wi, Vi, float(t)) @ Chalf)
        u = geo.evaluator(float(t))
        return PsdMatrix(_herm(u @ S @ u.conj().T), tol_rank=A.tol_rank, tol_psd=A.tol_psd)

    return PsdCurve(evaluator=evaluate, kind="quasiGeodesic")


def quasi_geodesic_length(A: PsdMatrix, B: PsdMatrix, k: float) -> float:
    """length_k = sqrt(d^2 + k delta^2) of the quasi-geodesic between A and B.

    d is the Grassmann geodesic distance between the ranges and delta the
    affine-invariant geodesic distance between the endpoint fiber
    representations.
    """
    if not 0.0 < k < math.inf:
        raise DomainError(f"length exponent k must be positive and finite, got {k}")
    geo, C, Dp = _quasi_geodesic_parts(A, B)
    d2 = float(np.sum(geo.principal.theta**2))
    delta2 = float(np.sum(np.log(pencil_eigenvalues(C, Dp)) ** 2))
    return math.sqrt(d2 + k * delta2)
