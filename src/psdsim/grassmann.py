"""The nine classical Grassmann distances from a principal-angle vector."""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError, ParseError


class GrassmannMetric(enum.Enum):
    ASIMOV = "asimov"
    BINET_CAUCHY = "binetcauchy"
    CHORDAL = "chordal"
    FUBINI_STUDY = "fubinistudy"
    MARTIN = "martin"
    PROCRUSTES = "procrustes"
    PROJECTION = "projection"
    SPECTRAL = "spectral"
    GEODESIC = "geodesic"

    @classmethod
    def from_name(cls, name: str) -> "GrassmannMetric":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ParseError(f"unknown Grassmann metric {name!r}; expected one of: {valid}")


def grassmann_distance(metric: GrassmannMetric, theta):
    """Distance between two subspaces from their principal angles.

    theta must be ascending in [0, pi/2], length min{r, s}. Martin's
    distance returns +inf when the largest angle is a right angle. A
    (m, k) stack of angle vectors gives the (m,) array of distances; one
    vector gives a float.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape[-1] == 0:
        raise DomainError("empty principal-angle vector")
    if not (theta.min() >= -1e-12 and theta.max() <= math.pi / 2 + 1e-12):  # NaN fails too
        raise DomainError("principal angles must lie in [0, pi/2]")
    theta = np.clip(theta, 0.0, math.pi / 2)
    c = np.cos(theta)
    s = np.sin(theta)
    top = theta[..., -1]  # largest angle

    if metric is GrassmannMetric.ASIMOV:
        dist = top
    elif metric is GrassmannMetric.BINET_CAUCHY:
        dist = np.sqrt(np.maximum(0.0, 1.0 - np.prod(c, axis=-1) ** 2))
    elif metric is GrassmannMetric.CHORDAL:
        dist = np.sqrt(np.sum(s**2, axis=-1))
    elif metric is GrassmannMetric.FUBINI_STUDY:
        dist = np.arccos(np.clip(np.prod(c, axis=-1), -1.0, 1.0))
    elif metric is GrassmannMetric.MARTIN:
        right = c <= 1e-12  # right angle up to roundoff in cos(pi/2)
        logs = np.sum(np.log(np.where(right, 1.0, c)), axis=-1)
        dist = np.where(right.any(axis=-1), math.inf, np.sqrt(np.maximum(0.0, -2.0 * logs)))
    elif metric is GrassmannMetric.PROCRUSTES:
        dist = 2.0 * np.sqrt(np.sum(np.sin(theta / 2.0) ** 2, axis=-1))
    elif metric is GrassmannMetric.PROJECTION:
        dist = np.sin(top)
    elif metric is GrassmannMetric.SPECTRAL:
        dist = 2.0 * np.sin(top / 2.0)
    elif metric is GrassmannMetric.GEODESIC:
        dist = np.sqrt(np.sum(theta**2, axis=-1))
    else:
        raise DomainError(f"unhandled metric {metric!r}")
    return float(dist) if np.ndim(dist) == 0 else dist
