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

from .data_ingest import ObservationTable
from .errors import ConstantCovariateError, DataValidationError, RankDeficiencyError, \
    SpecificationError, _list

PARAMETRIC_COVARIATES = ("intercept", "age", "period")

MAX_IRLS_ITER = 50
REL_DEV_TOL = 1e-10
# score stopping rule, well inside the 1e-6 * max(1, sum y) invariant
SCORE_TOL_FACTOR = 1e-8
# the separation check: its iteration cap, the negative fitted value it
# reads as 0 and the smallest it counts as separated, relative to the largest
_RECTIFIER_MAX_ITER = 1000
_RECTIFIER_TOL = 1e-9
_SEPARATED_TOL = 1e-6
# rows per block of the rank check's unpivoted QR (``_full_rank``)
_QR_BLOCK_ROWS = 2048


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


def _full_rank(A: np.ndarray, n: int) -> bool:
    """Whether the singular values of A show that a pivoted QR of A, at
    the tolerance of ``_dependent_columns``, finds no column dependent.

    Any QR has |r_pp| >= sigma_min and |r_11| <= sigma_max, so a sigma_min
    above twice that tolerance taken at sigma_max rules a dependent column
    out. They are those of R of an unpivoted QR, built over row blocks
    (Demmel et al. 2012), which never copies a large A whole. False when A
    has fewer rows than columns or R is not finite."""
    rows, p = A.shape
    if rows < p:
        return False
    R = np.empty((0, p))
    for start in range(0, rows, _QR_BLOCK_ROWS):
        R = np.linalg.qr(np.vstack((R, A[start:start + _QR_BLOCK_ROWS])), mode="r")
    if not np.isfinite(R).all():
        return False
    sv = np.linalg.svd(R, compute_uv=False)
    return bool(sv[-1] > 2.0 * sv[0] * max(n, p) * np.finfo(float).eps * 10)


def _dependent_columns(A: np.ndarray, n: int, names) -> list:
    """Names of the columns that a pivoted QR of the column-scaled A finds
    dependent; n is the row count of the design A stands for. A design
    that ``_full_rank`` clears needs no QR and leaves scipy.linalg
    unloaded; otherwise the QR is done in place and forms R and the pivots
    only."""
    if _full_rank(A, n):
        return []
    from scipy import linalg as sla
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


def _solve_equilibrated(H: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Solve H x = b on the Jacobi-scaled system; a singular system raises
    RankDeficiencyError naming the ``what`` equations."""
    Hs, d = _jacobi_scale(H)
    try:
        return np.linalg.solve(Hs, b / d) / d
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"singular {what} equations: {exc}") from None


def _equilibrated_inverse(H: np.ndarray) -> np.ndarray:
    """H^-1 through the Jacobi-scaled matrix Hs; all NaN when Hs is singular
    to working precision, its 1-norm condition number above 1/eps."""
    Hs, d = _jacobi_scale(H)
    try:
        inv = np.linalg.inv(Hs)
    except np.linalg.LinAlgError:
        return np.full(H.shape, np.nan)
    if np.linalg.norm(Hs, 1) * np.linalg.norm(inv, 1) > 1.0 / np.finfo(float).eps:
        return np.full(H.shape, np.nan)
    return inv / d[:, None] / d[None, :]


def _span_vanishing_on(B: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the vectors M g over the g with B g = 0."""
    # p zero rows give all p right singular vectors without a square U
    p = B.shape[1]
    _, sv, vt = np.linalg.svd(np.vstack([B, np.zeros((p, p))]), full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(B.shape) * np.finfo(float).eps)) if sv[0] else 0
    return np.linalg.qr(M @ vt[rank:].T)[0]


def _separated_zeros(X: np.ndarray, y: np.ndarray) -> int:
    """Zero counts whose fitted means the likelihood can drive to 0.

    The Poisson MLE exists unless some z = X g is 0 at every positive count
    and >= 0, not all 0, at the zeros (Santos Silva & Tenreyro 2010); the
    zeros where z > 0 are separated. The iterative rectifier of Correia,
    Guimaraes & Zylkin (2019, arXiv:1903.01633) seeks z among the
    directions that vanish at the positive counts: regress u (1 at first)
    on them over the zero rows and keep the fitted values' positive part as
    the next u, until none is negative. Its slow cases end sooner:
    * a positive vector orthogonal to those directions, 1 plus a weight on
      the zeros u has cut to 0, rules z out (Gordan's alternative);
    * the projection of u on the directions that also vanish where u is 0,
      or at its most negative fitted value, is tried as z.
    Only a z within the tolerances counts; the iteration cap reads as no
    separation, so IRLS runs as before."""
    zero = y == 0
    Xs = X / np.max(np.abs(X), axis=0)
    Q = _span_vanishing_on(Xs[~zero], Xs[zero])
    u = np.ones(len(Q))
    for _ in range(_RECTIFIER_MAX_ITER if Q.shape[1] else 0):
        u_hat = Q @ (Q.T @ u)
        u = np.maximum(u_hat, 0.0)
        cut = u == 0.0
        if cut.any():
            g = np.ones(len(Q))
            g[cut] += np.linalg.lstsq(Q[cut].T, -Q.sum(axis=0), rcond=None)[0]
            # g - Q Q^T g is orthogonal to the directions, and no entry of
            # Q Q^T g exceeds |Q^T g|
            if np.min(g) > np.linalg.norm(Q.T @ g) + _RECTIFIER_TOL * np.max(g):
                return 0
        jumps = [_span_vanishing_on(Q[on], Q) for on in (cut, [np.argmin(u_hat)])]
        for z in [u_hat] + [W @ (W.T @ u) for W in jumps]:
            top = np.max(z, initial=0.0)
            if top > 0.0 and np.min(z) >= -_RECTIFIER_TOL * top:
                return int(np.sum(z > _SEPARATED_TOL * top))
    return 0


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


def _unit_deviance(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson unit deviance 2 (y log(y / mu) - (y - mu)), with 0 log 0 = 0."""
    from scipy import special
    return 2.0 * (special.xlogy(y, y / mu) - (y - mu))


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    return float(np.sum(_unit_deviance(y, mu)))


def fit_poisson(table: ObservationTable, covariates=("intercept", "age", "period")) -> PoissonFit:
    """IRLS fit of the offset Poisson model on the table's raw counts,
    after checking that the covariates vary and the design has full rank."""
    if len(table) == 0:
        raise DataValidationError("empty table")
    covariates = _list(covariates, "covariates")
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
    both rules held. Counts that hold a 0 are first checked for
    separation: an MLE that does not exist raises RankDeficiencyError.
    """
    if not np.all(y):
        separated = _separated_zeros(X, y)
        if separated:
            raise RankDeficiencyError(
                f"the Poisson MLE does not exist: {separated} of {int(np.sum(y == 0))} zero "
                "counts are separated (their fitted means can be driven to 0)")
    mu = y + 0.5
    eta = np.log(mu)
    dev = _poisson_deviance(y, mu)
    score_tol = SCORE_TOL_FACTOR * max(1.0, float(np.sum(y)))
    converged = False
    for iterations in range(1, MAX_IRLS_ITER + 1):
        work = eta + (y - mu) / mu - offset
        H = X.T @ (mu[:, None] * X)
        beta = _solve_equilibrated(H, X.T @ (mu * work), "IRLS")
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

    cov = _equilibrated_inverse(X.T @ (mu[:, None] * X))
    se = np.sqrt(np.diag(cov))
    from scipy import special
    ll = float(np.sum(special.xlogy(y, mu) - mu - special.gammaln(y + 1.0)))
    return PoissonFit(
        beta=beta, se=se, cov=cov, covariates=covariates, y=y, mu_hat=mu,
        deviance=dev, loglik=ll, aic=-2.0 * ll + 2.0 * X.shape[1],
        iterations=iterations, converged=converged, cell_keys=cell_keys,
        X=X, offset=offset,
    )


def deviance_residuals(fit: PoissonFit) -> np.ndarray:
    """Deviance residuals of the counts the fit was made on."""
    y, mu = fit.y, fit.mu_hat
    return np.sign(y - mu) * np.sqrt(np.maximum(_unit_deviance(y, mu), 0.0))


def fitted_log_rate_poisson(fit: PoissonFit, table: ObservationTable) -> np.ndarray:
    """Fitted log rate, log(mu / population) = X beta."""
    return np.log(fit.mu_hat) - table.log_pop
