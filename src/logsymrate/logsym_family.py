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

from .errors import SpecificationError, _at_least, _finite, _positive

# The shape parameters each family takes, in label and spec-document order.
# A family's label, its spec document and the check that it is given exactly
# these parameters all read this table.
FAMILY_PARAMS = {"normal": (), "student": ("nu",), "powerexp": ("zeta",),
                 "contnormal": ("nu1", "nu2")}

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    nu: Union[float, None] = None
    zeta: Union[float, None] = None
    nu1: Union[float, None] = None
    nu2: Union[float, None] = None

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise SpecificationError(
                f"unknown family {self.family!r}; expected one of {tuple(FAMILY_PARAMS)}"
            )
        takes = FAMILY_PARAMS[self.family]
        for name in ("nu", "zeta", "nu1", "nu2"):
            value = getattr(self, name)
            if value is None:
                if name in takes:
                    raise SpecificationError(f"{self.family} family needs {name}")
            elif name not in takes:
                raise SpecificationError(f"{self.family} family takes no {name}, got {value!r}")
            elif name in ("nu", "nu2"):
                _positive(value, f"family {name}")
            else:
                _finite(value, f"family {name}")
        if self.family == "powerexp" and not -1.0 < self.zeta <= 1.0:
            raise SpecificationError(f"powerexp family needs zeta in (-1, 1], got {self.zeta}")
        if self.family == "contnormal" and not 0.0 <= self.nu1 <= 1.0:
            raise SpecificationError(f"contnormal nu1 must be in [0, 1], got {self.nu1}")

    def params(self) -> dict:
        """The family's shape parameters by name, in ``FAMILY_PARAMS`` order."""
        return {name: getattr(self, name) for name in FAMILY_PARAMS[self.family]}

    def label(self) -> str:
        args = ", ".join(f"{name}={value:g}" for name, value in self.params().items())
        return f"{self.family}({args})" if args else self.family


def normal_spec() -> GeneratorSpec:
    return GeneratorSpec(family="normal")


def _contnormal_parts(spec, u, count: int):
    """Stably evaluate the shift s and the first ``count`` of the three
    exponential mixtures used by the contaminated normal: D (density
    kernel), N = -2 D', M = 4 D''. The k-th is w1 nu2^k e1 + w2 e2 in the
    shifted exponentials e1, e2, with w1 multiplied by nu2 k times in turn,
    so each keeps the bits of the expression w1 * nu2 * ... * e1 + w2 * e2.

    All three are homogeneous of degree one in the shifted exponentials,
    so ratios of them (and of N^2 vs M*D) are shift-invariant. A component
    of weight zero (nu1 = 0 or 1) is left out, shift included, so it cannot
    underflow the kept one or overflow against it.
    """
    nu1, nu2 = spec.nu1, spec.nu2
    a = -0.5 * nu2 * u
    b = -0.5 * u
    s = b if nu1 == 0.0 else a if nu1 == 1.0 else np.maximum(a, b)
    e1 = np.exp(a - s) if nu1 > 0.0 else 0.0
    w2_e2 = (1.0 - nu1) * np.exp(b - s) if nu1 < 1.0 else 0.0
    w = nu1 * math.sqrt(nu2)
    mixtures = []
    for _ in range(count):
        mixtures.append(w * e1 + w2_e2)
        w *= nu2
    return (s, *mixtures)


@functools.lru_cache(maxsize=None)
def _log_norm_const(spec: GeneratorSpec) -> Union[float, None]:
    """log c of the student and powerexp densities, computed once per spec;
    None for the other families, whose densities take no scipy function."""
    if spec.family not in ("student", "powerexp"):
        return None
    from scipy import special
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
    s, D = _contnormal_parts(spec, u, 1)
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
    _, D, N = _contnormal_parts(spec, u, 2)
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
    _, D, N, M = _contnormal_parts(spec, u, 3)
    return (N * N - M * D) / (2.0 * D * D)


def cdf(spec: GeneratorSpec, z):
    """P(eps <= z), exact for every family (vectorized).

    The powerexp CDF is the regularized incomplete gamma function of the
    transformed argument, which is the analytic value of the density
    integral (well inside the 1e-9 accuracy contract).
    """
    from scipy import special
    z = np.asarray(z, dtype=float)
    if spec.family == "normal":
        return special.ndtr(z)
    if spec.family == "student":
        return special.stdtr(spec.nu, z)
    if spec.family == "powerexp":
        zt = spec.zeta
        tail = special.gammainc((1.0 + zt) / 2.0, 0.5 * np.abs(z) ** (2.0 / (1.0 + zt)))
        return 0.5 + 0.5 * np.sign(z) * tail
    return spec.nu1 * special.ndtr(z * math.sqrt(spec.nu2)) \
        + (1.0 - spec.nu1) * special.ndtr(z)


def sample_with_rng(spec: GeneratorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n errors consuming ``rng``. The draw order per family is
    fixed (part of the determinism contract)."""
    _at_least(n, "sample size", 1)
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


@functools.lru_cache(maxsize=None)
def dispersion_info_const(spec: GeneratorSpec) -> float:
    """kappa = (E[v(z)^2 z^4] - 1) / 4, the per-observation expected
    information for log phi.

    Closed forms: normal 1/2; student (3(nu+1)/(nu+3) - 1)/4; powerexp
    1/(2(1+zeta)). The contaminated normal falls back to quadrature, once
    per spec. scipy.integrate is imported there, so a process that fits no
    contaminated normal never loads it, nor what it pulls in:
    scipy.optimize, scipy.sparse and scipy.linalg.
    """
    if spec.family == "normal":
        return 0.5
    if spec.family == "student":
        nu = spec.nu
        return (3.0 * (nu + 1.0) / (nu + 3.0) - 1.0) / 4.0
    if spec.family == "powerexp":
        return 1.0 / (2.0 * (1.0 + spec.zeta))
    from scipy import integrate

    def integrand(z):
        return weight_v(spec, z) ** 2 * z ** 4 * pdf(spec, z)

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return (2.0 * val - 1.0) / 4.0
