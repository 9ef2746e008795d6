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

from dataclasses import asdict, dataclass, replace
from typing import Union

import numpy as np

from .data_ingest import ObservationTable, _csv_text, _fmt_column, _logs, observed_log_rates
from .data_ingest import make_cell  # noqa: F401  unused; perfbench/tracer.py hooks this name
from .errors import (
    ComparisonError,
    EnvelopeError,
    ModelError,
    SpecificationError,
    UndefinedCorrelationError,
    _at_least,
    _number,
)
from .logsym_family import sample_with_rng
from .logsym_fit import LogSymFit, _find_term, _map_in_order, _quantile_residuals, \
    fitted_log_rate, residuals
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
    from scipy import special
    k = np.arange(1, n + 1)
    return special.ndtri((k - 0.375) / (n + 0.25))


def _envelope_settings(kinds: tuple, kind, m_sims, level, seed) -> tuple:
    """An envelope's checked (m_sims, level, seed), for a model whose
    residual kinds are ``kinds``; needs no table and no fit, so the command
    line checks them before it reads or fits anything."""
    level = _number(level, "level")
    if not (0.0 < level < 1.0):
        raise SpecificationError(f"level must be in (0, 1), got {level}")
    m_sims = _at_least(m_sims, "m_sims", 1)
    seed = _at_least(seed, "seed", 0)
    if kind not in kinds:
        model = "log-symmetric" if kinds == LOGSYM_RESIDUAL_KINDS else "Poisson"
        raise SpecificationError(f"residual kind {kind!r} invalid for a {model} fit; "
                                 f"expected one of {kinds}")
    return m_sims, level, seed


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
    error. ``table`` must be the one the fit was made on. Replicates run
    on forked worker processes, one per usable CPU (see ``_map_in_order``).
    """
    logsym = isinstance(fit_result, LogSymFit)
    if not logsym and not isinstance(fit_result, PoissonFit):
        raise SpecificationError(f"unsupported fit object {type(fit_result).__name__}")
    m_sims, level, seed = _envelope_settings(
        LOGSYM_RESIDUAL_KINDS if logsym else POISSON_RESIDUAL_KINDS, kind, m_sims, level, seed)
    _check_fitted_on(fit_result, table)
    observed = np.sort(residuals(fit_result, kind) if logsym else deviance_residuals(fit_result))
    n = len(observed)

    def replicate(i):
        for rep_seed in (seed + i, seed + m_sims + i):
            try:
                return _simulate_and_refit(fit_result, kind, np.random.default_rng(rep_seed))
            except (ModelError, FloatingPointError, OverflowError, ValueError):
                pass
        return None

    sims = [r for r in _map_in_order(replicate, m_sims) if r is not None]
    failures = m_sims - len(sims)
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
    """One model's entry in ``comparison.json``, whose keys follow the field
    order. ``aic_jacobian`` is None for a Poisson model."""

    label: str
    kind: str
    family: str
    aic: float
    aic_jacobian: Union[float, None]
    rho: float
    converged: bool
    coefficients: list  # {"name": .., "estimate": .., "std_err": ..}
    terms: dict         # label -> {"lambda": .., "edf": ..}


@dataclass
class ComparisonReport:
    models: tuple
    preferred: str
    scale_caveat: bool
    n_cells: int

    def to_dict(self) -> dict:
        return asdict(self)


def _summarize(f, table: ObservationTable, label: str) -> ModelSummary:
    rho = log_rate_correlation(model_fitted_log_rate(f, table), table)
    if isinstance(f, LogSymFit):
        coefs = [(f"location:{n}", e, s) for n, e, s in zip(f.beta_names, f.beta, f.beta_se)]
        coefs += [(f"dispersion:{n}", e, s) for n, e, s in
                  zip(f.gamma_names, f.gamma, f.gamma_se)]
        kind, family, aic_jacobian = "logsym", f.spec.generator.label(), float(f.aic_jacobian)
        terms = {lab: {"lambda": float(f.lam[lab]), "edf": float(f.edf[lab])} for lab in f.lam}
    else:
        coefs = zip(f.covariates, f.beta, f.se)
        kind = family = "poisson"
        aic_jacobian, terms = None, {}
    return ModelSummary(
        label=label, kind=kind, family=family, aic=float(f.aic), aic_jacobian=aic_jacobian,
        rho=rho, converged=f.converged,
        coefficients=[{"name": n, "estimate": float(e), "std_err": float(s)}
                      for n, e, s in coefs],
        terms=terms,
    )


def compare_models(fits, table: ObservationTable) -> ComparisonReport:
    """Side-by-side report of two or more fits of ``table``: AIC, rho,
    coefficient tables, per-term lambda/edf, the preferred (lowest AIC) model,
    and a scale caveat when a Poisson fit meets an unadjusted log-symmetric
    fit. A label that repeats gets the fit's 1-based position. A NaN AIC is
    never preferred ("none" if all are NaN); the best two within 1e-9 "tie"."""
    if len(fits) < 2:
        raise SpecificationError(f"compare_models needs at least 2 fits, got {len(fits)}")
    for f in fits:
        _check_fitted_on(f, table)
    labels = [f.label for f in fits]
    models = tuple(_summarize(f, table, lab if labels.count(lab) == 1 else f"{lab}-{i}")
                   for i, (f, lab) in enumerate(zip(fits, labels), start=1))
    ranked = sorted((m for m in models if not np.isnan(m.aic)), key=lambda m: m.aic)
    if len(ranked) > 1 and abs(ranked[0].aic - ranked[1].aic) <= 1e-9:
        preferred = "tie"
    else:
        preferred = ranked[0].label if ranked else "none"
    caveat = any(isinstance(f, PoissonFit) for f in fits) and any(
        isinstance(f, LogSymFit) and not f.spec.jacobian_adjust for f in fits)
    return ComparisonReport(models=models, preferred=preferred,
                            scale_caveat=caveat, n_cells=len(table))


def export_component_curves(fit_result: LogSymFit, term, grid_size: int = 200) -> np.ndarray:
    """Centered spline component on an equally spaced covariate grid.

    Returns an array of shape (grid_size, 2): covariate value, component
    value."""
    grid_size = _at_least(grid_size, "grid_size", 2)
    ti = _find_term(fit_result.design, term)
    grid = np.linspace(ti.block.x_min, ti.block.x_max, grid_size)
    vals = ti.block.evaluate(grid) @ fit_result.spline_coefs[ti.label]
    return np.column_stack([grid, vals])


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
    columns = (res.ref_quantiles, res.ordered_residuals, res.band_lo, res.band_hi)
    return _csv_text(["order_index", "ref_quantile", "residual", "band_lo", "band_hi"],
                     zip(map(str, range(1, len(res.ordered_residuals) + 1)),
                         *map(_fmt_column, columns)))


def curves_to_csv(curves: list) -> str:
    return _csv_text(["term", "covariate", "value"],
                     ((label, x, v) for label, grid, vals in curves
                      for x, v in zip(_fmt_column(grid), _fmt_column(vals))))


def scatter_to_csv(table: ObservationTable, fitted_log_rates) -> str:
    columns = (table.age, table.period, observed_log_rates(table), fitted_log_rates)
    return _csv_text(["age_mid", "period_mid", "observed_log_rate", "fitted_log_rate"],
                     zip(*map(_fmt_column, columns)))
