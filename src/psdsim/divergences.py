"""Equidimensional divergences between positive definite matrices.

Five parameter families, all evaluated through the spectrum of the pencil
X^{-1} Y, plus named presets (KL, Bhattacharyya, Renyi, beta-log-det, plain
geodesic), optional symmetrization and bounded transforms. Limit presets are
implemented from their own closed forms, never by numeric limits of the
two-parameter family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import DomainError, ParseError
from .linalg import pencil_eigenvalues

# family tags
AB = "ab"                    # alpha-beta log-det divergence
STEIN = "stein"              # generalized Stein loss
BURG = "burg"                # generalized Burg divergence
ITAKURA_SAITO = "itakurasaito"
KL = "kl"                    # Kullback-Leibler limit form
GEODESIC_AB = "geodesic_ab"  # sqrt(alpha ||log|^2 + beta log^2 det)

_FAMILIES = (AB, STEIN, BURG, ITAKURA_SAITO, KL, GEODESIC_AB)


@dataclass(frozen=True)
class FiberDivergence:
    """A divergence choice: family, parameters, symmetrization, bound."""

    kind: str
    alpha: float = 1.0
    beta: float = 0.0
    symmetrized: bool = False
    bound: tuple | None = None  # None, ("ratio",) or ("clamp", eps)

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise DomainError(f"unknown divergence family {self.kind!r}")
        a, b = self.alpha, self.beta
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"divergence parameters must be finite, got {a}, {b}")
        if self.kind == AB:
            if a == 0.0 or b == 0.0 or a + b == 0.0:
                raise DomainError("alpha-beta log-det needs alpha, beta, alpha+beta nonzero")
        elif self.kind in (STEIN, BURG, ITAKURA_SAITO):
            if a == 0.0:
                raise DomainError(f"{self.kind} needs alpha != 0")
        elif self.kind == GEODESIC_AB:
            if a <= 0.0:
                raise DomainError("geodesic family needs alpha > 0")
        bound = self.bound
        if bound is not None and bound != ("ratio",):
            if not (isinstance(bound, tuple) and len(bound) == 2 and bound[0] == "clamp"):
                raise DomainError(f"unknown bound transform {bound!r}; "
                                  "expected ('ratio',) or ('clamp', eps)")
            if not (isinstance(bound[1], Real) and 0.0 < bound[1] < np.inf):
                raise DomainError("clamp bound needs a finite positive threshold, "
                                  f"got {bound[1]!r}")

    # --- constructors -------------------------------------------------
    @staticmethod
    def alpha_beta(alpha, beta):
        return FiberDivergence(AB, alpha, beta)

    @staticmethod
    def stein(alpha=1.0):
        return FiberDivergence(STEIN, alpha)

    @staticmethod
    def burg(alpha=1.0):
        return FiberDivergence(BURG, alpha)

    @staticmethod
    def itakura_saito(alpha=1.0):
        return FiberDivergence(ITAKURA_SAITO, alpha)

    @staticmethod
    def kl():
        return FiberDivergence(KL)

    @staticmethod
    def geodesic():
        return FiberDivergence(GEODESIC_AB, 1.0, 0.0)

    @staticmethod
    def geodesic_ab(alpha, beta):
        return FiberDivergence(GEODESIC_AB, alpha, beta)

    @staticmethod
    def bhattacharyya():
        return FiberDivergence.alpha_beta(0.5, 0.5)

    @staticmethod
    def renyi(alpha):
        if not 0.0 < alpha < 1.0:
            raise DomainError("Renyi order must lie in (0, 1)")
        return FiberDivergence.alpha_beta(alpha, 1.0 - alpha)

    @staticmethod
    def beta_log_det(beta):
        if beta <= 0.0:
            raise DomainError("beta-log-det needs beta > 0")
        return FiberDivergence.alpha_beta(1.0, beta)

    # --- modifiers ----------------------------------------------------
    def with_sym(self):
        return replace(self, symmetrized=True)

    def with_bound(self, name, eps=10.0):
        return replace(self, bound=("clamp", float(eps)) if name == "clamp" else (name,))

    @property
    def outer_exponent(self):
        """Exponent a with value = (sum of per-eigenvalue terms)**a."""
        return 0.5 if self.kind == GEODESIC_AB else 1.0


# per-eigenvalue g(lambda) and g'(lambda) of each family, given log(lambda)
# and the parameters; the geodesic family's entry is its beta = 0 case at
# the unit-scaled alpha / alpha = 1 (_unit_scaled)
_TERMS = {
    AB: (lambda x, log, a, b: np.log((a * x**b + b * x ** (-a)) / (a + b)) / (a * b),
         lambda x, log, a, b: (a * b * x ** (b - 1.0) - a * b * x ** (-a - 1.0))
         / (a * b * (a * x**b + b * x ** (-a)))),
    STEIN: (lambda x, log, a, b: (x ** (-a) + a * log - 1.0) / a**2,
            lambda x, log, a, b: (1.0 - x ** (-a)) / (a * x)),
    BURG: (lambda x, log, a, b: (x**a - a * log - 1.0) / a**2,
           lambda x, log, a, b: (x**a - 1.0) / (a * x)),
    # 1 - alpha log lambda = 1 + log lambda^{-alpha}
    ITAKURA_SAITO: (lambda x, log, a, b: (-a * log - np.log(1.0 - a * log)) / a**2,
                    lambda x, log, a, b: log / (x * (1.0 - a * log))),
    KL: (lambda x, log, a, b: 0.5 * (1.0 / x + log - 1.0),
         lambda x, log, a, b: (x - 1.0) / (2.0 * x**2)),
    GEODESIC_AB: (lambda x, log, a, b: log**2,
                  lambda x, log, a, b: 2.0 * log / x),
}


def per_eigenvalue_terms(spec: FiberDivergence, lam, with_grad=False):
    """g(lambda), and with `with_grad` also g'(lambda), symmetrized as
    (g(lambda) + g(1/lambda)) / 2 if asked: not finite where the family is
    undefined, NaN at lambda <= 0. _objective calls it under np.errstate."""
    g, dg = _TERMS[spec.kind]
    a, b = spec.alpha, spec.beta
    lam = np.where(lam > 0.0, lam, np.nan)

    def terms(x):
        log = np.log(x)
        return g(x, log, a, b), dg(x, log, a, b) if with_grad else None

    t, d = terms(lam)
    if spec.symmetrized:
        t_inv, d_inv = terms(1.0 / lam)
        t = 0.5 * (t + t_inv)
        if with_grad:
            d = 0.5 * (d - d_inv / lam**2)
    return (t, d) if with_grad else t


def apply_bound(spec: FiberDivergence, value):
    """Apply the optional increasing bounded transform h, elementwise on arrays."""
    if spec.bound is None:
        return value
    if spec.bound[0] == "ratio":
        return value / (1.0 + value)
    return np.minimum(spec.bound[1], value)


def _objective(spec: FiberDivergence, lam, with_grad=False):
    """Pre-exponent objective Phi of stacked spectra (last axis), unclamped.

    Phi = sum g(lambda) for per-eigenvalue families and a*sum(log^2) +
    b*(sum log)^2, (a, b) from _unit_scaled, for the two-parameter geodesic
    family (at beta = 0, a = 1: the per-eigenvalue sum of log^2), which is
    defined on m eigenvalues only in its region beta > -alpha/m. With
    `with_grad`, also returns dPhi/dlambda. Never raises or warns: Phi is
    not finite where the family is undefined.
    """
    with np.errstate(all="ignore"):
        if spec.kind == GEODESIC_AB and spec.beta != 0.0:
            a, b, _ = _unit_scaled(spec.alpha, spec.beta)
            log = np.log(lam)
            S = np.sum(log, axis=-1)
            phi = a * np.sum(log**2, axis=-1) + b * S**2
            if not geodesic_ab_is_distance_check(spec.alpha, spec.beta, lam.shape[-1]):
                phi = np.full(np.shape(phi), np.nan)
            if not with_grad:
                return phi
            return phi, (2.0 * a * log + 2.0 * b * S[..., None]) / lam
        if not with_grad:
            return np.sum(per_eigenvalue_terms(spec, lam), axis=-1)
        terms, dphi = per_eigenvalue_terms(spec, lam, with_grad=True)
        return np.sum(terms, axis=-1), dphi


def _defined(spec: FiberDivergence, phi):
    """phi, after checking the family is defined (phi finite) on every spectrum."""
    if not np.all(np.isfinite(phi)):
        if spec.kind == GEODESIC_AB and spec.beta != 0.0:
            raise DomainError(f"geoab:{spec.alpha:g},{spec.beta:g} is outside the region "
                              "beta > -alpha/m where it is defined on m pencil eigenvalues")
        raise DomainError(f"the {spec.kind} divergence is undefined on this pencil spectrum")
    return phi


def _unit_scaled(alpha, beta):
    """(alpha/c, beta/c, c), c = max(alpha, |beta|). The two-parameter geodesic
    objective is linear in (alpha, beta); it is always formed at these
    parameters of size at most 1, and _fiber_values multiplies its value by
    sqrt(c), so no finite spec overflows. At c = 1, as for geo, both steps are
    exact."""
    c = max(alpha, abs(beta))
    return alpha / c, beta / c, c


def _fiber_values(spec: FiberDivergence, phi):
    """Values from objective values: outer exponent, sqrt(c) for the
    two-parameter geodesic family (_unit_scaled), then the bound."""
    vals = np.where(phi > 0.0, phi, 0.0) ** spec.outer_exponent
    if spec.kind == GEODESIC_AB:
        vals = vals * math.sqrt(_unit_scaled(spec.alpha, spec.beta)[2])
    return apply_bound(spec, vals)


def divergence(spec: FiberDivergence, X, Y) -> float:
    """Divergence between equal-size positive definite X and Y."""
    return float(_fiber_values(spec, _defined(spec, _objective(spec, pencil_eigenvalues(X, Y)))))


def geodesic_ab_is_distance_check(alpha, beta, m) -> bool:
    """Where the two-parameter geodesic form is a distance: finite alpha > 0, beta > -alpha/m."""
    return math.isfinite(alpha) and math.isfinite(beta) and alpha > 0.0 and beta > -alpha / m


# --- spec string grammar ---------------------------------------------

_PRESET_BUILDERS = {
    "kl": (0, lambda p: FiberDivergence.kl()),
    "stein": (-1, lambda p: FiberDivergence.stein(*p)),
    "burg": (-1, lambda p: FiberDivergence.burg(*p)),
    "itakurasaito": (-1, lambda p: FiberDivergence.itakura_saito(*p)),
    "is": (-1, lambda p: FiberDivergence.itakura_saito(*p)),
    "ab": (2, lambda p: FiberDivergence.alpha_beta(*p)),
    "renyi": (1, lambda p: FiberDivergence.renyi(*p)),
    "bhattacharyya": (0, lambda p: FiberDivergence.bhattacharyya()),
    "bhat": (0, lambda p: FiberDivergence.bhattacharyya()),
    "blogdet": (1, lambda p: FiberDivergence.beta_log_det(*p)),
    "geo": (0, lambda p: FiberDivergence.geodesic()),
    "geoab": (2, lambda p: FiberDivergence.geodesic_ab(*p)),
}


def parse_divergence(text: str) -> FiberDivergence:
    """Parse `name[:param[,param]]` with optional `+sym` and one of `+ratio`, `+clamp[=eps]`."""
    parts = [p.strip() for p in text.strip().split("+")]
    head, suffixes = parts[0], parts[1:]
    if ":" in head:
        name, _, ptext = head.partition(":")
        try:
            params = [float(v) for v in ptext.split(",")]
        except ValueError:
            raise ParseError(f"bad divergence parameters in {text!r}")
    else:
        name, params = head, []
    name = name.lower()
    if name not in _PRESET_BUILDERS:
        raise ParseError(f"unknown divergence name {name!r}")
    arity, build = _PRESET_BUILDERS[name]
    if arity >= 0 and len(params) != arity:
        raise ParseError(f"divergence {name!r} takes {arity} parameter(s), got {len(params)}")
    if arity == -1 and len(params) > 1:
        raise ParseError(f"divergence {name!r} takes at most 1 parameter")
    try:
        spec = build(params)
    except DomainError as e:
        raise ParseError(str(e))
    bounded = False
    for suf in suffixes:
        name, eq, val = suf.partition("=")
        if suf == "sym":
            spec = spec.with_sym()
        elif (suf == "ratio" or name == "clamp") and not bounded:
            bounded = True
            try:
                spec = spec.with_bound(name, float(val) if eq else 10.0)
            except ValueError:
                raise ParseError(f"bad clamp threshold in {text!r}")
        else:
            raise ParseError(f"unknown divergence suffix or second bound {suf!r} in {text!r}")
    return spec
