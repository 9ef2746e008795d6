"""Model evaluation artifacts: simulated residual envelopes, fitted vs
observed log-rate correlation and scatter data, side-by-side comparison
reports, and nonparametric component curves.

Everything here is plot-ready data, not plots. All simulation is driven
by explicit seeds with per-replicate derived streams (seed + replicate
index), so results are identical however replicates are scheduled.

An envelope replicate of either model is a simulated response refit on
the fitted design. Envelopes and comparisons take only the table a fit
was made on: its cell keys and its response must match the fit's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy import stats

from .data_ingest import ObservationTable, _fmt, _logs, observed_log_rates
from .data_ingest import make_cell  # noqa: F401  unused; perfbench/tracer.py hooks this name
from .errors import (
    ComparisonError,
    EnvelopeError,
    ModelError,
    SpecificationError,
    UndefinedCorrelationError,
)
from .logsym_family import sample_with_rng
from .logsym_fit import LogSymFit, _find_term, _quantile_residuals, fitted_log_rate, residuals
# perfbench/tracer.py hooks this name: spec first, one call per attempt, .iterations, .converged
from .logsym_fit import _replicate_fit as logsym_fit_fn
from .poisson_glm import PoissonFit, deviance_residuals, fitted_log_rate_poisson, irls

LOGSYM_RESIDUAL_KINDS = ("location", "dispersion")
POISSON_RESIDUAL_KINDS = ("deviance",)


@dataclass
class EnvelopeResult:
    ordered_residuals: np.ndarray
    ref_quantiles: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    outside_count: int
    m_sims: int
    level: float
    seed: int
    kind: str
    n_failures: int = 0

    @property
    def outside_fraction(self) -> float:
        return self.outside_count / len(self.ordered_residuals)


def reference_quantiles(n: int) -> np.ndarray:
    """Normal order-statistic plotting positions, (k - 0.375)/(n + 0.25)."""
    k = np.arange(1, n + 1)
    return stats.norm.ppf((k - 0.375) / (n + 0.25))


def _fit_residuals(fit_result, kind) -> np.ndarray:
    if isinstance(fit_result, LogSymFit):
        if kind not in LOGSYM_RESIDUAL_KINDS:
            raise SpecificationError(
                f"residual kind {kind!r} invalid for a log-symmetric fit; "
                f"expected one of {LOGSYM_RESIDUAL_KINDS}"
            )
        return residuals(fit_result, kind)
    if isinstance(fit_result, PoissonFit):
        if kind not in POISSON_RESIDUAL_KINDS:
            raise SpecificationError(
                f"residual kind {kind!r} invalid for a Poisson fit; "
                f"expected one of {POISSON_RESIDUAL_KINDS}"
            )
        return deviance_residuals(fit_result)
    raise SpecificationError(f"unsupported fit object {type(fit_result).__name__}")


def _check_fitted_on(fit_result, table: ObservationTable) -> None:
    if fit_result.cell_keys != table.cell_keys:
        raise ComparisonError("fit was produced on a different table (cell keys differ)")
    if isinstance(fit_result, PoissonFit) and not np.array_equal(fit_result.y, table.deaths):
        raise ComparisonError("Poisson fit was produced on other death counts")
    if isinstance(fit_result, LogSymFit) and not np.array_equal(fit_result.design.y, table.log_t):
        raise ComparisonError("log-symmetric fit was produced on other responses")


def _simulate_and_refit(fit_result, kind, rng) -> np.ndarray:
    """One envelope replicate: draw a response from the fitted model, refit it
    on the fitted design (and lambdas), return sorted residuals."""
    if isinstance(fit_result, LogSymFit):
        gen = fit_result.spec.generator
        eps = sample_with_rng(gen, len(fit_result.mu_hat), rng)
        y_star = fit_result.mu_hat + np.sqrt(fit_result.phi_hat) * eps
        t_star = np.exp(y_star)
        if not np.all(np.isfinite(t_star)) or np.any(t_star <= 0):
            raise EnvelopeError("simulated response left the positive range")
        design = replace(fit_result.design, y=_logs(t_star))
        refit = logsym_fit_fn(fit_result.spec, design, fit_result.lam)
        if not refit.converged:
            raise EnvelopeError("refit did not converge")
        return np.sort(_quantile_residuals(gen, design.y, refit.mu, refit.phi, kind))
    y_star = rng.poisson(fit_result.mu_hat).astype(float)
    refit = irls(fit_result.X, fit_result.offset, y_star, fit_result.covariates,
                 fit_result.cell_keys)
    if not refit.converged:
        raise EnvelopeError("refit did not converge")
    return np.sort(deviance_residuals(refit))


def simulated_envelope(fit_result, table: ObservationTable, kind: str,
                       m_sims: int = 100, level: float = 0.95,
                       seed: int = 0) -> EnvelopeResult:
    """Monte Carlo envelope for the sorted residuals of the given kind.

    Bands are pointwise percentiles ((1 - level)/2 and (1 + level)/2)
    across simulations at each order statistic. A failed replicate is
    retried once with a fresh derived seed; more than 10% failures is an
    error. ``table`` must be the one the fit was made on.
    """
    if not (0.0 < level < 1.0):
        raise SpecificationError(f"level must be in (0, 1), got {level}")
    if m_sims < 1:
        raise SpecificationError(f"m_sims must be >= 1, got {m_sims}")
    _check_fitted_on(fit_result, table)
    observed = np.sort(_fit_residuals(fit_result, kind))
    n = len(observed)

    sims = []
    failures = 0
    for i in range(m_sims):
        for rep_seed in (seed + i, seed + m_sims + i):
            try:
                sims.append(_simulate_and_refit(fit_result, kind,
                                                np.random.default_rng(rep_seed)))
                break
            except (ModelError, FloatingPointError, OverflowError, ValueError):
                pass
        else:
            failures += 1
    if failures > 0.1 * m_sims:
        raise EnvelopeError(
            f"{failures} of {m_sims} envelope refits failed (more than 10%)"
        )

    mat = np.vstack(sims)
    lo = np.percentile(mat, 100.0 * (1.0 - level) / 2.0, axis=0)
    hi = np.percentile(mat, 100.0 * (1.0 + level) / 2.0, axis=0)
    outside = int(np.sum((observed < lo) | (observed > hi)))
    return EnvelopeResult(
        ordered_residuals=observed, ref_quantiles=reference_quantiles(n),
        band_lo=lo, band_hi=hi, outside_count=outside, m_sims=m_sims,
        level=level, seed=seed, kind=kind, n_failures=failures,
    )


def log_rate_correlation(fitted_log_rates, table: ObservationTable) -> float:
    """Pearson correlation between fitted and observed log rates."""
    fitted = np.asarray(fitted_log_rates, dtype=float)
    observed = observed_log_rates(table)
    if len(fitted) != len(observed):
        raise SpecificationError(
            f"fitted vector length {len(fitted)} does not match table size {len(observed)}"
        )
    if len(fitted) < 2:
        raise SpecificationError("correlation needs at least 2 cells")
    if np.all(fitted == fitted[0]) or np.all(observed == observed[0]):
        raise UndefinedCorrelationError("zero variance on one side of the correlation")
    return float(np.corrcoef(fitted, observed)[0, 1])


def model_fitted_log_rate(fit_result, table: ObservationTable) -> np.ndarray:
    if isinstance(fit_result, LogSymFit):
        return fitted_log_rate(fit_result, table)
    if isinstance(fit_result, PoissonFit):
        return fitted_log_rate_poisson(fit_result, table)
    raise SpecificationError(f"unsupported fit object {type(fit_result).__name__}")


@dataclass
class ModelSummary:
    label: str
    kind: str
    family: str
    aic: float
    rho: float
    converged: bool
    coefficients: list  # (name, estimate, std_err)
    terms: dict         # label -> {"lambda": .., "edf": ..}
    aic_jacobian: Union[float, None] = None


@dataclass
class ComparisonReport:
    models: tuple
    preferred: str
    scale_caveat: bool
    n_cells: int

    def to_dict(self) -> dict:
        return {
            "models": [
                {
                    "label": m.label,
                    "kind": m.kind,
                    "family": m.family,
                    "aic": m.aic,
                    "aic_jacobian": m.aic_jacobian,
                    "rho": m.rho,
                    "converged": m.converged,
                    "coefficients": [
                        {"name": n, "estimate": e, "std_err": s}
                        for (n, e, s) in m.coefficients
                    ],
                    "terms": {
                        lab: {"lambda": d["lambda"], "edf": d["edf"]}
                        for lab, d in m.terms.items()
                    },
                }
                for m in self.models
            ],
            "preferred": self.preferred,
            "scale_caveat": self.scale_caveat,
            "n_cells": self.n_cells,
        }


def _summarize(fit_result, table: ObservationTable, label: str) -> ModelSummary:
    rho = log_rate_correlation(model_fitted_log_rate(fit_result, table), table)
    if isinstance(fit_result, LogSymFit):
        coefs = [(f"location:{n}", float(e), float(s)) for n, e, s in
                 zip(fit_result.beta_names, fit_result.beta, fit_result.beta_se)]
        coefs += [(f"dispersion:{n}", float(e), float(s)) for n, e, s in
                  zip(fit_result.gamma_names, fit_result.gamma, fit_result.gamma_se)]
        terms = {
            lab: {"lambda": float(fit_result.lam[lab]), "edf": float(fit_result.edf[lab])}
            for lab in fit_result.lam
        }
        return ModelSummary(
            label=label, kind="logsym", family=fit_result.spec.generator.label(),
            aic=float(fit_result.aic), rho=rho, converged=fit_result.converged,
            coefficients=coefs, terms=terms,
            aic_jacobian=float(fit_result.aic_jacobian),
        )
    coefs = [(n, float(e), float(s)) for n, e, s in
             zip(fit_result.covariates, fit_result.beta, fit_result.se)]
    return ModelSummary(
        label=label, kind="poisson", family="poisson",
        aic=float(fit_result.aic), rho=rho, converged=fit_result.converged,
        coefficients=coefs, terms={},
    )


def compare_models(fit_a, fit_b, table: ObservationTable) -> ComparisonReport:
    """Side-by-side report: AIC, rho, coefficient tables, per-term
    lambda/edf, the preferred (lower AIC) model, and a scale caveat when
    a log-scale density AIC meets a count-mass AIC without the Jacobian
    adjustment."""
    for f in (fit_a, fit_b):
        _check_fitted_on(f, table)
    label_a, label_b = fit_a.label, fit_b.label
    if label_a == label_b:
        label_a, label_b = f"{label_a}-1", f"{label_b}-2"
    sum_a = _summarize(fit_a, table, label_a)
    sum_b = _summarize(fit_b, table, label_b)
    if abs(sum_a.aic - sum_b.aic) <= 1e-9:
        preferred = "tie"
    else:
        preferred = sum_a.label if sum_a.aic < sum_b.aic else sum_b.label

    def density_scale_unadjusted(f):
        return isinstance(f, LogSymFit) and not f.spec.jacobian_adjust

    kinds = {type(fit_a), type(fit_b)}
    caveat = (kinds == {LogSymFit, PoissonFit}) and (
        density_scale_unadjusted(fit_a) or density_scale_unadjusted(fit_b)
    )
    return ComparisonReport(models=(sum_a, sum_b), preferred=preferred,
                            scale_caveat=caveat, n_cells=len(table))


def export_component_curves(fit_result: LogSymFit, term, grid_size: int = 200) -> np.ndarray:
    """Centered spline component on an equally spaced covariate grid.

    Returns an array of shape (grid_size, 2): covariate value, component
    value."""
    if grid_size < 2:
        raise SpecificationError(f"grid_size must be >= 2, got {grid_size}")
    ti = _find_term(fit_result.design, term)
    grid = np.linspace(ti.block.x_min, ti.block.x_max, grid_size)
    vals = ti.block.evaluate(grid) @ fit_result.spline_coefs[ti.label]
    return np.column_stack([grid, vals])


def term_values_at_observations(fit_result: LogSymFit, term) -> np.ndarray:
    """The fitted component evaluated at the training covariate values."""
    ti = _find_term(fit_result.design, term)
    return ti.block.B @ fit_result.spline_coefs[ti.label]


def all_component_curves(fit_result: LogSymFit, grid_size: int = 200) -> list:
    """(label, grid, values) for every spline term of both submodels."""
    out = []
    for ti in fit_result.design.term_infos:
        xy = export_component_curves(fit_result, ti.label, grid_size)
        out.append((ti.label, xy[:, 0], xy[:, 1]))
    return out


# ---------------------------------------------------------------------------
# plot-ready CSV payloads


def envelope_to_csv(res: EnvelopeResult) -> str:
    lines = ["order_index,ref_quantile,residual,band_lo,band_hi"]
    for i in range(len(res.ordered_residuals)):
        lines.append(",".join([
            str(i + 1), _fmt(res.ref_quantiles[i]), _fmt(res.ordered_residuals[i]),
            _fmt(res.band_lo[i]), _fmt(res.band_hi[i]),
        ]))
    return "\n".join(lines) + "\n"


def curves_to_csv(curves: list) -> str:
    lines = ["term,covariate,value"]
    for label, grid, vals in curves:
        for x, v in zip(grid, vals):
            lines.append(f"{label},{_fmt(x)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def scatter_to_csv(table: ObservationTable, fitted_log_rates) -> str:
    observed = observed_log_rates(table)
    fitted = np.asarray(fitted_log_rates, dtype=float)
    lines = ["age_mid,period_mid,observed_log_rate,fitted_log_rate"]
    for row in zip(table.age.tolist(), table.period.tolist(), observed.tolist(),
                   fitted.tolist()):
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"
