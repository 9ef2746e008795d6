"""Symmetric error families for the log-scale model.

Each family is a standardized symmetric density c * g(z^2). Implemented
members: normal, Student-t (nu), power exponential (zeta in (-1, 1]),
and contaminated normal (mixing weight nu1, precision nu2, i.e. the
mixture nu1 * N(0, 1/nu2) + (1 - nu1) * N(0, 1)).

Beyond the density itself the fitting engine needs the scoring weight
v(z) = -2 d log g(u) / du at u = z^2, its u-derivative (observed
information), the CDF (quantile residuals), exact sampling, and the
per-observation expected information constant for the dispersion
submodel, kappa = (E[v(z)^2 z^4] - 1) / 4.

No re-standardization to unit variance is applied anywhere: the family
fixes the shape of the error only, and the model's dispersion parameter
follows the family's own convention rather than Var(log T).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import integrate, special, stats

from .errors import SpecificationError

FAMILIES = ("normal", "student", "powerexp", "contnormal")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    nu: Union[float, None] = None
    zeta: Union[float, None] = None
    nu1: Union[float, None] = None
    nu2: Union[float, None] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecificationError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        for name in ("nu", "zeta", "nu1", "nu2"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not math.isfinite(value)):
                raise SpecificationError(f"family {name} must be a finite number, got {value!r}")
        if self.family == "student":
            if self.nu is None or not self.nu > 0:
                raise SpecificationError(f"student family needs nu > 0, got {self.nu}")
        elif self.family == "powerexp":
            if self.zeta is None or not (-1.0 < self.zeta <= 1.0):
                raise SpecificationError(
                    f"powerexp family needs zeta in (-1, 1], got {self.zeta}"
                )
        elif self.family == "contnormal":
            if self.nu1 is None or self.nu2 is None:
                raise SpecificationError("contnormal family needs both nu1 and nu2")
            if not (0.0 <= self.nu1 <= 1.0):
                raise SpecificationError(f"contnormal nu1 must be in [0, 1], got {self.nu1}")
            if not self.nu2 > 0:
                raise SpecificationError(f"contnormal nu2 must be positive, got {self.nu2}")

    def label(self) -> str:
        if self.family == "student":
            return f"student(nu={self.nu:g})"
        if self.family == "powerexp":
            return f"powerexp(zeta={self.zeta:g})"
        if self.family == "contnormal":
            return f"contnormal(nu1={self.nu1:g}, nu2={self.nu2:g})"
        return "normal"


def normal_spec() -> GeneratorSpec:
    return GeneratorSpec(family="normal")


def _contnormal_parts(spec, u):
    """Stably evaluate the three exponential mixtures used by the
    contaminated normal: D (density kernel), N = -2 D', M = 4 D''.

    All three are homogeneous of degree one in the shifted exponentials,
    so ratios of them (and of N^2 vs M*D) are shift-invariant.
    """
    nu1, nu2 = spec.nu1, spec.nu2
    a = -0.5 * nu2 * u
    b = -0.5 * u
    s = np.maximum(a, b)
    e1 = np.exp(a - s)
    e2 = np.exp(b - s)
    w1 = nu1 * math.sqrt(nu2)
    w2 = 1.0 - nu1
    D = w1 * e1 + w2 * e2
    N = w1 * nu2 * e1 + w2 * e2
    M = w1 * nu2 * nu2 * e1 + w2 * e2
    return D, N, M, s


@functools.lru_cache(maxsize=None)
def _log_norm_const(spec: GeneratorSpec) -> float:
    """log c of the student and powerexp densities, computed once per spec."""
    if spec.family == "student":
        return special.gammaln((spec.nu + 1.0) / 2.0) - special.gammaln(spec.nu / 2.0) \
            - 0.5 * math.log(spec.nu * math.pi)
    zt = spec.zeta
    return -math.log1p(zt) - (1.0 + zt) / 2.0 * math.log(2.0) \
        - special.gammaln((1.0 + zt) / 2.0)


def logpdf(spec: GeneratorSpec, z):
    """Log density of the standardized error at z (vectorized)."""
    z = np.asarray(z, dtype=float)
    u = z * z
    if spec.family == "normal":
        return -0.5 * u - _LOG_SQRT_2PI
    if spec.family == "student":
        nu = spec.nu
        return _log_norm_const(spec) - (nu + 1.0) / 2.0 * np.log1p(u / nu)
    if spec.family == "powerexp":
        return _log_norm_const(spec) - 0.5 * u ** (1.0 / (1.0 + spec.zeta))
    D, _, _, s = _contnormal_parts(spec, u)
    return np.log(D) + s - _LOG_SQRT_2PI


def pdf(spec: GeneratorSpec, z):
    return np.exp(logpdf(spec, z))


def weight_v(spec: GeneratorSpec, z):
    """Scoring weight v(z) = -2 d log g(u)/du at u = z^2 (vectorized).

    For powerexp with zeta > 0 this diverges at z = 0; no clamping is
    done here, the fitting engine clamps |z| before calling.
    """
    z = np.asarray(z, dtype=float)
    u = z * z
    if spec.family == "normal":
        return np.ones_like(u)
    if spec.family == "student":
        return (spec.nu + 1.0) / (spec.nu + u)
    if spec.family == "powerexp":
        zt = spec.zeta
        with np.errstate(divide="ignore"):
            return (1.0 / (1.0 + zt)) * u ** (-zt / (1.0 + zt))
    D, N, _, _ = _contnormal_parts(spec, u)
    return N / D


def weight_v_prime(spec: GeneratorSpec, u):
    """Derivative of v with respect to u = z^2 (observed information)."""
    u = np.asarray(u, dtype=float)
    if spec.family == "normal":
        return np.zeros_like(u)
    if spec.family == "student":
        return -(spec.nu + 1.0) / (spec.nu + u) ** 2
    if spec.family == "powerexp":
        zt = spec.zeta
        b = zt / (1.0 + zt)
        with np.errstate(divide="ignore"):
            return -(b / (1.0 + zt)) * u ** (-b - 1.0)
    D, N, M, _ = _contnormal_parts(spec, u)
    return (N * N - M * D) / (2.0 * D * D)


def cdf(spec: GeneratorSpec, z):
    """P(eps <= z), exact for every family (vectorized).

    The powerexp CDF is the regularized incomplete gamma function of the
    transformed argument, which is the analytic value of the density
    integral (well inside the 1e-9 accuracy contract).
    """
    z = np.asarray(z, dtype=float)
    if spec.family == "normal":
        return special.ndtr(z)
    if spec.family == "student":
        return stats.t.cdf(z, df=spec.nu)
    if spec.family == "powerexp":
        zt = spec.zeta
        tail = special.gammainc((1.0 + zt) / 2.0, 0.5 * np.abs(z) ** (2.0 / (1.0 + zt)))
        return 0.5 + 0.5 * np.sign(z) * tail
    return spec.nu1 * special.ndtr(z * math.sqrt(spec.nu2)) \
        + (1.0 - spec.nu1) * special.ndtr(z)


def sample_with_rng(spec: GeneratorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n errors consuming ``rng``. The draw order per family is
    fixed (part of the determinism contract)."""
    if n < 1:
        raise SpecificationError(f"sample size must be >= 1, got {n}")
    if spec.family == "normal":
        return rng.standard_normal(n)
    if spec.family == "student":
        z = rng.standard_normal(n)
        w = rng.chisquare(spec.nu, n)
        return z / np.sqrt(w / spec.nu)
    if spec.family == "powerexp":
        zt = spec.zeta
        g = rng.gamma((1.0 + zt) / 2.0, 1.0, n)
        mag = (2.0 * g) ** ((1.0 + zt) / 2.0)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return sign * mag
    mix = rng.random(n)
    z = rng.standard_normal(n)
    return np.where(mix < spec.nu1, z / math.sqrt(spec.nu2), z)


def sample(spec: GeneratorSpec, n: int, seed: int) -> np.ndarray:
    return sample_with_rng(spec, n, np.random.default_rng(seed))


@functools.lru_cache(maxsize=None)
def dispersion_info_const(spec: GeneratorSpec) -> float:
    """kappa = (E[v(z)^2 z^4] - 1) / 4, the per-observation expected
    information for log phi.

    Closed forms: normal 1/2; student (3(nu+1)/(nu+3) - 1)/4; powerexp
    1/(2(1+zeta)). The contaminated normal falls back to one-time
    quadrature.
    """
    if spec.family == "normal":
        return 0.5
    if spec.family == "student":
        nu = spec.nu
        return (3.0 * (nu + 1.0) / (nu + 3.0) - 1.0) / 4.0
    if spec.family == "powerexp":
        return 1.0 / (2.0 * (1.0 + spec.zeta))

    def integrand(z):
        return weight_v(spec, z) ** 2 * z ** 4 * pdf(spec, z)

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return (2.0 * val - 1.0) / 4.0
