"""Equidimensional divergences between positive definite matrices.

Five parameter families, all evaluated through the spectrum of the pencil
X^{-1} Y, plus named presets (KL, Bhattacharyya, Renyi, beta-log-det, plain
geodesic), optional symmetrization and bounded transforms. Limit presets are
implemented from their own closed forms, never by numeric limits of the
two-parameter family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        if self.kind == AB:
            if a == 0.0 or b == 0.0 or a + b == 0.0:
                raise DomainError("alpha-beta log-det needs alpha, beta, alpha+beta nonzero")
        elif self.kind in (STEIN, BURG, ITAKURA_SAITO):
            if a == 0.0:
                raise DomainError(f"{self.kind} needs alpha != 0")
        elif self.kind == GEODESIC_AB:
            if a <= 0.0:
                raise DomainError("geodesic family needs alpha > 0")
        if self.bound is not None:
            if self.bound[0] not in ("ratio", "clamp"):
                raise DomainError(f"unknown bound transform {self.bound!r}")
            if self.bound[0] == "clamp" and self.bound[1] <= 0.0:
                raise DomainError("clamp bound needs a positive threshold")

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
        if name == "ratio":
            return replace(self, bound=("ratio",))
        if name == "clamp":
            return replace(self, bound=("clamp", float(eps)))
        raise DomainError(f"unknown bound transform {name!r}")

    @property
    def outer_exponent(self):
        """Exponent a with value = (sum of per-eigenvalue terms)**a."""
        return 0.5 if self.kind == GEODESIC_AB else 1.0


def _g_terms(spec: FiberDivergence, lam):
    """Per-eigenvalue terms g(lambda), before symmetrization."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise DomainError("pencil spectrum must be positive")
    a, b = spec.alpha, spec.beta
    log = np.log(lam)
    if spec.kind == AB:
        num = a * lam**b + b * lam ** (-a)
        arg = num / (a + b)
        if np.any(arg <= 0.0):
            raise DomainError("alpha-beta log-det argument nonpositive for this spectrum")
        return np.log(arg) / (a * b)
    if spec.kind == STEIN:
        return (lam ** (-a) + a * log - 1.0) / a**2
    if spec.kind == BURG:
        return (lam**a - a * log - 1.0) / a**2
    if spec.kind == ITAKURA_SAITO:
        den = 1.0 - a * log  # = 1 + log lambda^{-alpha}
        if np.any(den <= 0.0):
            raise DomainError("Itakura-Saito domain violation: 1 + log lambda^{-alpha} <= 0")
        return (-a * log - np.log(den)) / a**2
    if spec.kind == KL:
        return 0.5 * (1.0 / lam + log - 1.0)
    if spec.kind == GEODESIC_AB:
        if b != 0.0:
            raise DomainError("no per-eigenvalue form for the geodesic family with beta != 0")
        return a * log**2
    raise DomainError(f"unhandled family {spec.kind!r}")


def per_eigenvalue_terms(spec: FiberDivergence, lam):
    """g(lambda) terms including symmetrization (average of lam and 1/lam)."""
    lam = np.asarray(lam, dtype=float)
    terms = _g_terms(spec, lam)
    if spec.symmetrized:
        terms = 0.5 * (terms + _g_terms(spec, 1.0 / lam))
    return terms


def _g_derivative(spec: FiberDivergence, lam):
    """d g / d lambda, matching per_eigenvalue_terms."""
    lam = np.asarray(lam, dtype=float)

    def raw(x):
        a, b = spec.alpha, spec.beta
        log = np.log(x)
        if spec.kind == AB:
            num = a * x**b + b * x ** (-a)
            dnum = a * b * x ** (b - 1.0) - a * b * x ** (-a - 1.0)
            return dnum / (a * b * num)
        if spec.kind == STEIN:
            return (1.0 - x ** (-a)) / (a * x)
        if spec.kind == BURG:
            return (x**a - 1.0) / (a * x)
        if spec.kind == ITAKURA_SAITO:
            return log / (x * (1.0 - a * log))
        if spec.kind == KL:
            return (x - 1.0) / (2.0 * x**2)
        if spec.kind == GEODESIC_AB:
            return 2.0 * a * log / x
        raise DomainError(f"unhandled family {spec.kind!r}")

    d = raw(lam)
    if spec.symmetrized:
        d = 0.5 * (d - raw(1.0 / lam) / lam**2)
    return d


def apply_bound(spec: FiberDivergence, value):
    """Apply the optional increasing bounded transform h, elementwise on arrays."""
    if spec.bound is None:
        return value
    if spec.bound[0] == "ratio":
        return value / (1.0 + value)
    if np.ndim(value):
        return np.minimum(spec.bound[1], value)
    return min(spec.bound[1], value)


def _objective(spec: FiberDivergence, lam, with_grad=False):
    """Pre-exponent objective Phi of stacked spectra (last axis), unclamped.

    Phi = sum g(lambda) for per-eigenvalue families and
    alpha*sum(log^2) + beta*(sum log)^2 for the two-parameter geodesic
    family. With `with_grad`, also returns dPhi/dlambda.
    """
    if spec.kind == GEODESIC_AB and spec.beta != 0.0:
        log = np.log(lam)
        S = np.sum(log, axis=-1)
        phi = spec.alpha * np.sum(log**2, axis=-1) + spec.beta * S**2
        if not with_grad:
            return phi
        return phi, (2.0 * spec.alpha * log + 2.0 * spec.beta * S[..., None]) / lam
    phi = np.sum(per_eigenvalue_terms(spec, lam), axis=-1)
    if not with_grad:
        return phi
    return phi, _g_derivative(spec, lam)


def _fiber_values(spec: FiberDivergence, phi):
    """Values from objective values: outer exponent, then the bound."""
    vals = np.where(phi > 0.0, phi, 0.0) ** spec.outer_exponent
    return apply_bound(spec, vals)


def value_from_spectrum(spec: FiberDivergence, lam) -> float:
    """Divergence value from the pencil spectrum lambda_i(X^{-1}Y)."""
    lam = np.asarray(lam, dtype=float)
    return float(_fiber_values(spec, _objective(spec, lam)))


def divergence(spec: FiberDivergence, X, Y) -> float:
    """Divergence between equal-size positive definite X and Y."""
    return value_from_spectrum(spec, pencil_eigenvalues(X, Y))


def geodesic_ab_is_distance_check(alpha, beta, m) -> bool:
    """Parameter region where the two-parameter geodesic form is a distance."""
    return alpha > 0.0 and beta > -alpha / m


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
    """Parse `name[:param[,param]]` with optional `+sym`, `+ratio`, `+clamp=eps`."""
    parts = [p.strip() for p in text.strip().split("+")]
    head, suffixes = parts[0], parts[1:]
    if ":" in head:
        name, _, ptext = head.partition(":")
        try:
            params = [float(v) for v in ptext.split(",") if v.strip() != ""]
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
    for suf in suffixes:
        if suf == "sym":
            spec = spec.with_sym()
        elif suf == "ratio":
            spec = spec.with_bound("ratio")
        elif suf.startswith("clamp"):
            _, _, val = suf.partition("=")
            try:
                spec = spec.with_bound("clamp", float(val) if val else 10.0)
            except ValueError:
                raise ParseError(f"bad clamp threshold in {text!r}")
        else:
            raise ParseError(f"unknown divergence suffix {suf!r}")
    return spec
