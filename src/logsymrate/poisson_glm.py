"""Baseline Poisson GLM with log link and population offset, fit by IRLS.

The mean model is log mu = log population + X beta with X built from the
declared covariate list (intercept, age midpoint, period midpoint, all
untransformed). Standard errors come from the inverse Fisher information
at convergence.

``fit_poisson`` checks the table and builds the design; ``irls`` fits
counts on a design and offset, which the fit keeps for envelope refits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import special

from .data_ingest import ObservationTable
from .errors import ConstantCovariateError, DataValidationError, RankDeficiencyError, \
    SpecificationError

PARAMETRIC_COVARIATES = ("intercept", "age", "period")

MAX_IRLS_ITER = 50
REL_DEV_TOL = 1e-10
# score stopping rule, well inside the 1e-6 * max(1, sum y) invariant
SCORE_TOL_FACTOR = 1e-8


def parametric_design(table: ObservationTable, covariates) -> np.ndarray:
    """Design matrix columns for the declared parametric covariates."""
    cols = []
    for name in covariates:
        if name == "intercept":
            cols.append(np.ones(len(table)))
        elif name in ("age", "period"):
            cols.append(getattr(table, name))
        else:
            raise SpecificationError(
                f"unknown covariate {name!r}; expected one of {PARAMETRIC_COVARIATES}"
            )
    if not cols:
        raise SpecificationError("empty covariate list")
    return np.column_stack(cols)


def check_covariates_vary(table: ObservationTable, covariates) -> None:
    """Raise ConstantCovariateError if ``covariates`` names age or period
    and the table holds a single value of it."""
    for name in ("age", "period"):
        x = getattr(table, name)
        if name in covariates and len(x) and x.min() == x.max():
            raise ConstantCovariateError(f"the table holds a single {name} value ({x[0]:g}); "
                                         f"{name} cannot be a covariate")


def _dependent_columns(A: np.ndarray, n: int, names) -> list:
    """Names of the columns that a pivoted QR of the column-scaled A finds
    dependent; n is the row count of the design A stands for. The QR is
    done in place and forms R and the pivots only."""
    _, R, piv = sla.qr(A, mode="raw", pivoting=True, overwrite_a=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0:
        return list(names)
    tol = diag[0] * max(n, A.shape[1]) * np.finfo(float).eps * 10
    # more columns than rows: the rank is at most n, so pivots past n depend
    return [names[piv[i]] for i in range(len(diag)) if diag[i] <= tol] + \
        [names[j] for j in piv[len(diag):]]


def check_full_rank(X: np.ndarray, names, row_key=None) -> None:
    """Raise RankDeficiencyError naming the dependent columns, if any.

    ``row_key`` says that rows of X with equal keys are equal. The QR then
    runs on the distinct rows scaled by sqrt(multiplicity), which have X's
    Gram matrix, so its rank and column norms; only a design found
    deficient there is checked on every row, which names the columns.
    """
    scale = np.max(np.abs(X), axis=0)
    scale[scale == 0] = 1.0
    if row_key is not None:
        _, first, counts = np.unique(row_key, return_index=True, return_counts=True)
        A = np.divide(X[first], scale, order="F")
        A *= np.sqrt(counts)[:, None]
        if not _dependent_columns(A, len(X), names):
            return
    # the scaled copy is laid out as LAPACK works, so the QR copies nothing
    bad = _dependent_columns(np.divide(X, scale, order="F"), len(X), names)
    if bad:
        raise RankDeficiencyError(
            f"design is rank deficient; collinear column(s): {', '.join(sorted(bad))}"
        )


def _jacobi_scale(H: np.ndarray):
    """Jacobi equilibration of a symmetric matrix built from raw-unit design
    columns: returns (H / d d^T, d) with d = sqrt|diag H|, zeros set to 1."""
    d = np.sqrt(np.abs(np.diag(H)))
    d[d == 0] = 1.0
    return H / d[:, None] / d[None, :], d


def _solve_equilibrated(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H x = b on the Jacobi-scaled system."""
    Hs, d = _jacobi_scale(H)
    return np.linalg.solve(Hs, b / d) / d


@dataclass
class PoissonFit:
    beta: np.ndarray
    se: np.ndarray
    cov: np.ndarray
    covariates: tuple
    y: np.ndarray
    mu_hat: np.ndarray
    deviance: float
    loglik: float
    aic: float
    iterations: int
    converged: bool
    cell_keys: tuple
    X: np.ndarray
    offset: np.ndarray

    @property
    def label(self) -> str:
        return "poisson"


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    return float(2.0 * np.sum(special.xlogy(y, y / mu) - (y - mu)))


def fit_poisson(table: ObservationTable, covariates=("intercept", "age", "period")) -> PoissonFit:
    """IRLS fit of the offset Poisson model on the table's raw counts,
    after checking that the covariates vary and the design has full rank."""
    if len(table) == 0:
        raise DataValidationError("empty table")
    covariates = tuple(covariates)
    X = parametric_design(table, covariates)
    check_covariates_vary(table, covariates)
    check_full_rank(X, covariates)
    return irls(X, table.log_pop, table.deaths, covariates, table.cell_keys)


def irls(X: np.ndarray, offset: np.ndarray, y: np.ndarray, covariates, cell_keys) -> PoissonFit:
    """Fit the counts ``y`` on a checked full-rank design ``X`` with log
    offset ``offset``; ``covariates`` and ``cell_keys`` label the result.

    Stops, within 50 iterations, once the relative deviance change is
    below 1e-10 and then the score X^T (y - mu) is within 1e-8 * max(1,
    sum y), far inside the documented 1e-6 bound; ``converged`` says that
    both rules held.
    """
    mu = y + 0.5
    eta = np.log(mu)
    dev = _poisson_deviance(y, mu)
    score_tol = SCORE_TOL_FACTOR * max(1.0, float(np.sum(y)))
    converged = False
    for iterations in range(1, MAX_IRLS_ITER + 1):
        work = eta + (y - mu) / mu - offset
        H = X.T @ (mu[:, None] * X)
        try:
            beta = _solve_equilibrated(H, X.T @ (mu * work))
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"singular IRLS equations: {exc}") from None
        eta = offset + X @ beta
        mu = np.exp(eta)
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise RankDeficiencyError("IRLS produced non-finite fitted means")
        dev, dev_old = _poisson_deviance(y, mu), dev
        # the score is formed only once the deviance rule holds
        if abs(dev - dev_old) < REL_DEV_TOL * (abs(dev_old) + REL_DEV_TOL) \
                and np.max(np.abs(X.T @ (y - mu))) <= score_tol:
            converged = True
            break

    Hs, d = _jacobi_scale(X.T @ (mu[:, None] * X))
    cov = np.linalg.inv(Hs) / d[:, None] / d[None, :]
    se = np.sqrt(np.diag(cov))
    ll = float(np.sum(special.xlogy(y, mu) - mu - special.gammaln(y + 1.0)))
    return PoissonFit(
        beta=beta, se=se, cov=cov, covariates=covariates, y=y, mu_hat=mu,
        deviance=dev, loglik=ll, aic=-2.0 * ll + 2.0 * X.shape[1],
        iterations=iterations, converged=converged, cell_keys=cell_keys,
        X=X, offset=offset,
    )


def deviance_residuals(fit: PoissonFit) -> np.ndarray:
    """Deviance residuals of the counts the fit was made on."""
    y = fit.y
    mu = fit.mu_hat
    inner = 2.0 * (special.xlogy(y, y / mu) - (y - mu))
    return np.sign(y - mu) * np.sqrt(np.maximum(inner, 0.0))


def fitted_log_rate_poisson(fit: PoissonFit, table: ObservationTable) -> np.ndarray:
    """Fitted log rate, log(mu / population) = X beta."""
    return np.log(fit.mu_hat) - table.log_pop
