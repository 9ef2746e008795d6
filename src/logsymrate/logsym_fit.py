"""Penalized maximum likelihood for the log-symmetric semiparametric model.

Model on the log scale: y_k = mu_k + sqrt(phi_k) eps_k with eps from a
symmetric generator family. The location submodel is
mu = [offset +] X beta + sum_j B_j a_j and the dispersion submodel is
log phi = W gamma + sum_j B_j a_j, each spline block carrying a quadratic
roughness penalty 0.5 * lambda_j a_j^T K_j a_j.

Fitting alternates two penalized ascent steps until the penalized
log-likelihood and the coefficients both stabilize:

* location: a penalized weighted least-squares step with per-observation
  weights v(z_k) / phi_k (v is the family scoring weight), which is a
  Newton-type step whose fixed point is the penalized score equation;
* dispersion: a penalized Fisher-scoring step with per-observation score
  (v(z_k) z_k^2 - 1) / 2 and constant expected information kappa per
  observation.

Every step is step-halved so the penalized objective never decreases.
The objective depends on the coefficients through the two linear
predictors and the term penalties. A sweep carries both predictors, each
step handing on the one its accepted trial computed. A location trial or
stencil point holds exp(0.5 log phi), 0.5 sum(log phi) and the dispersion
penalties; a dispersion one holds y - mu and the location penalties. The
penalty is summed location terms first, so every value is bit for bit the
one that recomputing both predictors gives. Once the stopping rules fire,
Newton polish steps run until the analytic penalized score is far below
the stationarity bound, and the reported grad_norm is an independent
fourth-order finite-difference check of the objective at the solution.

A "select" term is resolved by refitting at each lambda of the grid and
keeping the lowest AIC. Grid fits are scored by AIC alone: ``converged``,
``grad_norm`` and the standard errors belong to the final fit at the
selected lambdas, and a grid fit that did not converge still competes on
its AIC. An envelope replicate keeps only its coefficients, predictors,
iterations and convergence verdict (a final fit's rule; the stencil runs
only when the stopping rules fired): no standard errors or AIC.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .data_ingest import ObservationTable
from .errors import (
    DataValidationError,
    EvaluationError,
    NumericalError,
    RankDeficiencyError,
    SelectionError,
    SpecificationError,
)
from .logsym_family import (
    GeneratorSpec,
    cdf,
    dispersion_info_const,
    logpdf,
    weight_v,
    weight_v_prime,
)
from .poisson_glm import _jacobi_scale, _solve_equilibrated, check_covariates_vary, \
    check_full_rank, parametric_design
from .spline_bases import SplineTerm, build_term_block, term_label

DEFAULT_LAMBDA_GRID = tuple(np.geomspace(1e-4, 1e8, 30))
GRAD_NORM_BOUND = 1e-4
_POWEREXP_Z_FLOOR = 1e-6
_CDF_CLAMP = 1e-12
_MAX_POLISH_SWEEPS = 50
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")  # each evaluation's errstate
_Replicate = namedtuple("_Replicate", "location dispersion mu phi converged iterations")

log = logging.getLogger("logsymrate")


@dataclass(frozen=True)
class SubmodelSpec:
    """Parametric covariates plus spline terms for one submodel."""

    covariates: tuple = ("intercept",)
    terms: tuple = ()
    use_offset: bool = False

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class ModelSpec:
    generator: GeneratorSpec
    location: SubmodelSpec
    dispersion: SubmodelSpec = SubmodelSpec()
    zero_policy: str = "add_half"
    jacobian_adjust: bool = False
    tol_loglik: float = 1e-8
    tol_param: float = 1e-6
    max_outer: int = 200
    max_halvings: int = 30
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        if len(self.lambda_grid) < 1 or not all(0 < v < math.inf for v in self.lambda_grid):
            raise SpecificationError("lambda_grid must hold positive finite values")
        for name, value in (("tol_loglik", self.tol_loglik), ("tol_param", self.tol_param)):
            if not 0 < value < math.inf:
                raise SpecificationError(f"{name} must be positive and finite, got {value!r}")
        for name, low in (("max_outer", 1), ("max_halvings", 0)):
            value = getattr(self, name)
            if not (float(value).is_integer() and value >= low):
                raise SpecificationError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dispersion.use_offset:
            raise SpecificationError("the dispersion submodel takes no offset")
        for name, sub in (("location", self.location), ("dispersion", self.dispersion)):
            if "intercept" not in sub.covariates:
                raise SpecificationError(f"{name} submodel must contain an intercept")
            if len(set(sub.covariates)) != len(sub.covariates):
                raise SpecificationError(f"duplicate covariate in {name} submodel")
            spline_covs = [t.covariate for t in sub.terms]
            if len(set(spline_covs)) != len(spline_covs):
                raise SpecificationError(
                    f"{name} submodel declares two spline terms on one covariate"
                )
            overlap = set(spline_covs) & set(sub.covariates)
            if overlap:
                raise SpecificationError(
                    f"covariate(s) {sorted(overlap)} appear both parametrically and "
                    f"as a spline term in the {name} submodel"
                )


@dataclass(frozen=True)
class FitParams:
    """Coefficients plus per-term smoothing weights; the argument of
    ``penalized_loglik`` and ``penalized_score``."""

    location: np.ndarray
    dispersion: np.ndarray
    lam: dict = field(default_factory=dict)


@dataclass
class LogSymFit:
    spec: ModelSpec
    beta: np.ndarray
    beta_se: np.ndarray
    beta_names: tuple
    gamma: np.ndarray
    gamma_se: np.ndarray
    gamma_names: tuple
    spline_coefs: dict
    lam: dict
    edf: dict
    mu_hat: np.ndarray
    phi_hat: np.ndarray
    loglik: float
    aic: float
    aic_jacobian: float
    converged: bool
    iterations: int
    grad_norm: float
    trace: tuple
    cell_keys: tuple
    params: FitParams
    design: "_Design"

    @property
    def label(self) -> str:
        return f"logsym-{self.spec.generator.family}"


# ---------------------------------------------------------------------------
# design assembly

@dataclass
class _TermInfo:
    label: str
    term: SplineTerm
    block: "object"
    sl: slice


@dataclass
class _Half:
    name: str
    G: np.ndarray
    p_par: int
    par_names: tuple
    terms: list
    col_scale: np.ndarray


@dataclass
class _Design:
    y: np.ndarray
    offset: np.ndarray
    loc: _Half
    disp: _Half
    generator: GeneratorSpec
    kappa: float
    disp_info: np.ndarray  # kappa * W^T W, the unpenalized dispersion information
    cell_keys: tuple

    @property
    def term_infos(self):
        return list(self.loc.terms) + list(self.disp.terms)


def _build_half(name: str, sub: SubmodelSpec, table: ObservationTable) -> _Half:
    X = parametric_design(table, sub.covariates)
    cols = [X]
    terms = []
    pos = X.shape[1]
    for t in sub.terms:
        x = table.age if t.covariate == "age" else table.period
        block = build_term_block(t, x)
        q = block.ncols
        terms.append(_TermInfo(label=term_label(name, t), term=t, block=block,
                               sl=slice(pos, pos + q)))
        cols.append(block.B)
        pos += q
    G = np.column_stack(cols)
    col_scale = np.max(np.abs(G), axis=0)
    col_scale[col_scale == 0] = 1.0
    return _Half(name=name, G=G, p_par=X.shape[1], par_names=tuple(sub.covariates),
                 terms=terms, col_scale=col_scale)


def _build_design(spec: ModelSpec, table: ObservationTable) -> _Design:
    if len(table) == 0:
        raise DataValidationError("empty table")
    if table.meta.zero_policy not in (None, spec.zero_policy):
        raise SpecificationError(
            f"table was built with zero policy {table.meta.zero_policy!r} but the spec "
            f"declares {spec.zero_policy!r}"
        )
    if np.any(table.t_value == 0):  # the table holds no negative t_value
        raise DataValidationError("table has zero t_value cells; apply a zero policy first")
    for sub in (spec.location, spec.dispersion):
        check_covariates_vary(table, sub.covariates + tuple(t.covariate for t in sub.terms))
    loc = _build_half("location", spec.location, table)
    disp = _build_half("dispersion", spec.dispersion, table)
    for half in (loc, disp):
        names = list(half.par_names)
        for ti in half.terms:
            names += [f"{ti.label}[{i}]" for i in range(ti.sl.stop - ti.sl.start)]
        check_full_rank(half.G, names)
    offset = table.log_pop if spec.location.use_offset else np.zeros(len(table))
    kappa = dispersion_info_const(spec.generator)
    return _Design(y=table.log_t.copy(), offset=offset, loc=loc, disp=disp,
                   generator=spec.generator, kappa=kappa,
                   disp_info=kappa * (disp.G.T @ disp.G), cell_keys=table.cell_keys)


def _resolve_lambdas(lam: dict, design: _Design) -> dict:
    """Effective per-term lambda map; every term must end up with a value."""
    out = {}
    for ti in design.term_infos:
        val = lam.get(ti.label, ti.term.lam)
        if val is None:
            raise SpecificationError(
                f"term {ti.label} has no smoothing parameter; fix lam or run selection"
            )
        if not val > 0:
            raise SpecificationError(f"term {ti.label}: lambda must be positive, got {val}")
        out[ti.label] = float(val)
    return out


# ---------------------------------------------------------------------------
# objective, score, step machinery

def _clamped_z(gen: GeneratorSpec, z: np.ndarray) -> np.ndarray:
    if gen.family == "powerexp":
        return np.where(np.abs(z) < _POWEREXP_Z_FLOOR,
                        np.copysign(_POWEREXP_Z_FLOOR, z), z)
    return z


def _mu(design: _Design, th_loc) -> np.ndarray:
    return design.offset + design.loc.G @ th_loc


def _mu_phi(design: _Design, th_loc, th_disp):
    return _mu(design, th_loc), design.disp.G @ th_disp


def _penalties(half: _Half, th, lam) -> list:
    """Roughness penalty of each spline term of one submodel, in order."""
    return [0.5 * lam[ti.label] * float(th[ti.sl] @ ti.block.K @ th[ti.sl])
            for ti in half.terms]


def _objective(design: _Design, resid, sphi, half_sum, penalties) -> float:
    """Penalized log-likelihood from y - mu, exp(0.5 log phi), 0.5 sum(log phi)
    and the term penalties, location first; -inf when not evaluable. logpdf
    is never +inf and the penalty never -inf, so a non-finite predictor,
    residual, density or penalty leaves the sum at -inf or nan, and one
    test on the sum rejects every such point."""
    penalty = 0.0
    for p in penalties:
        penalty += p
    val = float(np.add.reduce(logpdf(design.generator, resid / sphi)) - half_sum) - penalty
    return val if math.isfinite(val) else -math.inf


def _eval_objective(design: _Design, th_loc, th_disp, lam) -> float:
    """The objective at coefficient vectors, both predictors computed."""
    return _location_objective(design, design.disp.G @ th_disp, th_disp, lam)(th_loc)[0]


def _location_objective(design: _Design, logphi, th_disp, lam):
    """(objective, mu) of the location coefficients, holding exp(0.5 logphi),
    0.5 sum(logphi) and the penalties of ``th_disp``, whose predictor is ``logphi``."""
    with np.errstate(**_QUIET):
        sphi = np.exp(0.5 * logphi)
        half_sum = 0.5 * np.add.reduce(logphi)
        held = _penalties(design.disp, th_disp, lam)

    def f(th):
        with np.errstate(**_QUIET):
            mu = _mu(design, th)
            return _objective(design, design.y - mu, sphi, half_sum,
                              _penalties(design.loc, th, lam) + held), mu
    return f


def _dispersion_objective(design: _Design, mu, th_loc, lam):
    """(objective, log phi) of the dispersion coefficients, holding y - mu and
    the penalties of ``th_loc``, whose predictor is ``mu``."""
    resid = design.y - mu
    held = _penalties(design.loc, th_loc, lam)

    def f(th):
        with np.errstate(**_QUIET):
            logphi = design.disp.G @ th
            return _objective(design, resid, np.exp(0.5 * logphi),
                              0.5 * np.add.reduce(logphi),
                              held + _penalties(design.disp, th, lam)), logphi
    return f


def _pen_grad(half: _Half, th, lam) -> np.ndarray:
    g = np.zeros(len(th))
    for ti in half.terms:
        g[ti.sl] = lam[ti.label] * (ti.block.K @ th[ti.sl])
    return g


def _add_penalty(H: np.ndarray, half: _Half, lam) -> None:
    for ti in half.terms:
        H[ti.sl, ti.sl] += lam[ti.label] * ti.block.K


def _gram(half: _Half, w: np.ndarray, lam) -> np.ndarray:
    """Penalized weighted Gram product G^T diag(w) G + sum_j lambda_j K_j."""
    H = half.G.T @ (w[:, None] * half.G)
    _add_penalty(H, half, lam)
    return H


def _analytic_scores(design: _Design, th_loc, th_disp, lam):
    """Penalized score vectors for both submodels at the given point."""
    mu, logphi = _mu_phi(design, th_loc, th_disp)
    sphi = np.exp(0.5 * logphi)
    z = (design.y - mu) / sphi
    zc = _clamped_z(design.generator, z)
    v = weight_v(design.generator, zc)
    s_loc = design.loc.G.T @ (v * z / sphi) - _pen_grad(design.loc, th_loc, lam)
    s_disp = design.disp.G.T @ ((v * zc * zc - 1.0) / 2.0) \
        - _pen_grad(design.disp, th_disp, lam)
    return s_loc, s_disp


def _observed_hessian(design: _Design, th_loc, th_disp, lam) -> np.ndarray:
    """Stacked penalized observed information (negated Hessian) over both
    submodels, cross block included."""
    mu, logphi = _mu_phi(design, th_loc, th_disp)
    sphi = np.exp(0.5 * logphi)
    z = _clamped_z(design.generator, (design.y - mu) / sphi)
    u = z * z
    v = weight_v(design.generator, z)
    vp = weight_v_prime(design.generator, u)
    X, W = design.loc.G, design.disp.G
    d_ll = (v + 2.0 * u * vp) / (sphi * sphi)
    d_ld = z * (v + u * vp) / sphi
    d_dd = u * (v + u * vp) / 2.0
    return np.block([
        [_gram(design.loc, d_ll, lam), X.T @ (d_ld[:, None] * W)],
        [W.T @ (d_ld[:, None] * X), _gram(design.disp, d_dd, lam)],
    ])


def _halving_accept(evalf, th, direction, L_cur, pred, max_halvings):
    """Backtrack along an ascent direction; never accept a decrease. Returns
    (point, objective, the point's predictor, whether a trial was accepted)."""
    t = 1.0
    for _ in range(max_halvings + 1):
        trial = th + t * direction
        L_new, pred_new = evalf(trial)
        if L_new >= L_cur:
            return trial, L_new, pred_new, True
        t *= 0.5
    return th, L_cur, pred, False


def _location_step(design: _Design, th_loc, th_disp, mu, logphi, lam, L_cur,
                   max_halvings):
    phi = np.exp(logphi)
    z = (design.y - mu) / np.sqrt(phi)
    v = weight_v(design.generator, _clamped_z(design.generator, z))
    w = v / phi
    H = _gram(design.loc, w, lam)
    s = design.loc.G.T @ (w * (design.y - mu)) - _pen_grad(design.loc, th_loc, lam)
    try:
        step = _solve_equilibrated(H, s)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"singular location equations: {exc}") from None
    return _halving_accept(_location_objective(design, logphi, th_disp, lam),
                           th_loc, step, L_cur, mu, max_halvings)


def _dispersion_step(design: _Design, th_loc, th_disp, mu, logphi, lam, L_cur,
                     max_halvings):
    z = (design.y - mu) / np.exp(0.5 * logphi)
    zc = _clamped_z(design.generator, z)
    v = weight_v(design.generator, zc)
    s_obs = (v * zc * zc - 1.0) / 2.0
    H = design.disp_info.copy()
    _add_penalty(H, design.disp, lam)
    s = design.disp.G.T @ s_obs - _pen_grad(design.disp, th_disp, lam)
    try:
        step = _solve_equilibrated(H, s)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"singular dispersion equations: {exc}") from None
    return _halving_accept(_dispersion_objective(design, mu, th_loc, lam),
                           th_disp, step, L_cur, logphi, max_halvings)


def _score_norm(s_loc, s_disp) -> float:
    return float(max(np.max(np.abs(s_loc)), np.max(np.abs(s_disp))))


def _newton_polish_step(design: _Design, th_loc, th_disp, lam, L_cur, max_halvings,
                        s_loc, s_disp):
    """One guarded joint Newton step on the stacked coefficient vector,
    used to drive the analytic score (``s_loc``, ``s_disp`` at the current
    point) to the stationarity bound after the alternating phase has
    flattened the objective.

    Near the optimum the attainable objective gain sits below evaluation
    roundoff, so a bitwise-monotone line search would reject the exact
    step. A step is therefore also accepted when it shrinks the score
    sharply while moving the objective by no more than a noise allowance
    that is orders of magnitude below tol_loglik."""
    n_loc = design.loc.G.shape[1]
    score_cur = _score_norm(s_loc, s_disp)
    s = np.concatenate([s_loc, s_disp])
    try:
        H = _observed_hessian(design, th_loc, th_disp, lam)
        direction = _solve_equilibrated(H, s)
    except np.linalg.LinAlgError:
        direction = None
    if direction is None or not np.all(np.isfinite(direction)):
        mu, logphi = _mu_phi(design, th_loc, th_disp)
        th_loc, L_cur, mu, ok_l = _location_step(design, th_loc, th_disp, mu, logphi,
                                                 lam, L_cur, max_halvings)
        th_disp, L_cur, _, ok_d = _dispersion_step(design, th_loc, th_disp, mu, logphi,
                                                   lam, L_cur, max_halvings)
        return th_loc, th_disp, L_cur, ok_l or ok_d
    stacked = np.concatenate([th_loc, th_disp])
    noise = 1e-11 * (1.0 + abs(L_cur))
    t = 1.0
    for _ in range(max_halvings + 1):
        trial = stacked + t * direction
        L_new = _eval_objective(design, trial[:n_loc], trial[n_loc:], lam)
        if math.isfinite(L_new):
            if L_new >= L_cur:
                return trial[:n_loc], trial[n_loc:], L_new, True
            score_new = _score_norm(*_analytic_scores(design, trial[:n_loc],
                                                      trial[n_loc:], lam))
            if L_new >= L_cur - noise and score_new <= 0.5 * score_cur:
                return trial[:n_loc], trial[n_loc:], L_new, True
        t *= 0.5
    return th_loc, th_disp, L_cur, False


def _fd_grad_norm(design: _Design, th_loc, th_disp, lam) -> float:
    """Fourth-order central finite differences of the objective over
    every coefficient. Steps are sized so each one perturbs the
    standardized residuals by about 1e-4, which keeps the truncation
    error of the stencil orders of magnitude below the roundoff-safe
    range for these likelihoods; each point runs its submodel's trial closure."""
    mu, logphi = _mu_phi(design, th_loc, th_disp)
    zstep = 1e-4 * float(np.exp(0.5 * np.median(logphi)))
    worst = 0.0
    for th, scales, f in (
            (th_loc, design.loc.col_scale, _location_objective(design, logphi, th_disp, lam)),
            (th_disp, design.disp.col_scale, _dispersion_objective(design, mu, th_loc, lam))):
        for i in range(len(th)):
            h = max(zstep / max(1.0, scales[i]), 1e-9)
            vals = []
            for d in (-2 * h, -h, h, 2 * h):
                trial = th.copy()
                trial[i] += d
                vals.append(f(trial)[0])
            g = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
            worst = max(worst, abs(g))
    return worst


def _initial_params(design: _Design) -> tuple:
    X = design.loc.G[:, :design.loc.p_par]
    target = design.y - design.offset
    beta, *_ = np.linalg.lstsq(X, target, rcond=None)
    resid = target - X @ beta
    msq = max(float(np.mean(resid ** 2)), 1e-12)
    th_loc = np.zeros(design.loc.G.shape[1])
    th_loc[:design.loc.p_par] = beta
    th_disp = np.zeros(design.disp.G.shape[1])
    th_disp[design.disp.par_names.index("intercept")] = math.log(msq)
    return th_loc, th_disp


def _optimize(spec: ModelSpec, design: _Design, lam: dict) -> tuple:
    """Alternating sweeps, then Newton polish once the stopping rules fire.

    Returns (th_loc, th_disp, criteria_met, iterations, trace)."""
    halvings = spec.max_halvings
    th_loc, th_disp = _initial_params(design)
    L = _eval_objective(design, th_loc, th_disp, lam)
    if not math.isfinite(L):
        raise EvaluationError("objective not finite at the starting values")
    trace = [L]
    criteria_met = False
    iterations = 0
    mu, logphi = _mu_phi(design, th_loc, th_disp)

    for _ in range(spec.max_outer):
        iterations += 1
        prev_L = L
        prev = np.concatenate([th_loc, th_disp])
        th_loc, L, mu, _ = _location_step(design, th_loc, th_disp, mu, logphi, lam, L,
                                          halvings)
        th_disp, L, logphi, _ = _dispersion_step(design, th_loc, th_disp, mu, logphi, lam,
                                                 L, halvings)
        trace.append(L)
        d_par = float(np.max(np.abs(np.concatenate([th_loc, th_disp]) - prev)))
        if abs(L - prev_L) <= spec.tol_loglik * (1.0 + abs(prev_L)) \
                and d_par <= spec.tol_param:
            criteria_met = True
            break

    if criteria_met:
        # Push the analytic score well below the stationarity bound; the
        # loglik-change rule alone can stop with raw-unit covariate
        # gradients still above it, and the block sweeps only close that
        # gap at a linear rate. Joint Newton steps finish the job. The
        # stored trace keeps its nondecreasing guarantee: polish values are
        # appended only when they do not dip below the last entry.
        for _ in range(_MAX_POLISH_SWEEPS):
            s_loc, s_disp = _analytic_scores(design, th_loc, th_disp, lam)
            if _score_norm(s_loc, s_disp) <= 0.3 * GRAD_NORM_BOUND:
                break
            iterations += 1
            th_loc, th_disp, L, ok = _newton_polish_step(design, th_loc, th_disp, lam,
                                                         L, halvings, s_loc, s_disp)
            if L >= trace[-1]:
                trace.append(L)
            if not ok:
                break
    return th_loc, th_disp, criteria_met, iterations, tuple(trace)


def _information_criteria(spec: ModelSpec, design: _Design, lam: dict, mu, logphi) -> tuple:
    """(loglik, per-term edf, aic, aic_jacobian) at the given predictors."""
    gen = spec.generator
    phi = np.exp(logphi)
    z = (design.y - mu) / np.sqrt(phi)
    v = weight_v(gen, _clamped_z(gen, z))

    # effective degrees of freedom with each submodel's final weights
    edf = {}
    for half, w in ((design.loc, v / phi), (design.disp, np.full(len(z), design.kappa))):
        for ti in half.terms:
            edf[ti.label] = _term_edf(ti, w, lam[ti.label])

    ll = float(np.sum(logpdf(gen, z)) - 0.5 * np.sum(logphi))
    p_par = design.loc.p_par + design.disp.p_par
    aic_unadj = -2.0 * ll + 2.0 * (p_par + sum(edf.values()))
    aic_jacobian = aic_unadj + 2.0 * float(np.sum(design.y))
    aic = aic_jacobian if spec.jacobian_adjust else aic_unadj
    return ll, edf, aic, aic_jacobian


def _fit_resolved(spec: ModelSpec, design: _Design, lam: dict) -> LogSymFit:
    th_loc, th_disp, criteria_met, iterations, trace = _optimize(spec, design, lam)
    grad_norm = _fd_grad_norm(design, th_loc, th_disp, lam)
    converged = bool(criteria_met and grad_norm <= GRAD_NORM_BOUND)

    gen = spec.generator
    mu, logphi = _mu_phi(design, th_loc, th_disp)
    phi = np.exp(logphi)
    zc = _clamped_z(gen, (design.y - mu) / np.sqrt(phi))
    u = zc * zc
    v = weight_v(gen, zc)
    vp = weight_v_prime(gen, u)

    # standard errors from the penalized observed-information blocks
    w_loc_obs = (v + 2.0 * u * vp) / phi
    w_disp_obs = u * (v + u * vp) / 2.0
    beta_se = _block_se(design.loc, w_loc_obs, lam)
    gamma_se = _block_se(design.disp, w_disp_obs, lam)

    ll, edf, aic, aic_jacobian = _information_criteria(spec, design, lam, mu, logphi)

    spline_coefs = {}
    for half, th in ((design.loc, th_loc), (design.disp, th_disp)):
        for ti in half.terms:
            spline_coefs[ti.label] = th[ti.sl].copy()

    params = FitParams(location=th_loc.copy(), dispersion=th_disp.copy(),
                       lam=dict(lam))
    return LogSymFit(
        spec=spec,
        beta=th_loc[:design.loc.p_par].copy(), beta_se=beta_se,
        beta_names=design.loc.par_names,
        gamma=th_disp[:design.disp.p_par].copy(), gamma_se=gamma_se,
        gamma_names=design.disp.par_names,
        spline_coefs=spline_coefs, lam=dict(lam), edf=edf,
        mu_hat=mu, phi_hat=phi, loglik=ll, aic=aic, aic_jacobian=aic_jacobian,
        converged=converged, iterations=iterations, grad_norm=grad_norm,
        trace=trace, cell_keys=design.cell_keys, params=params, design=design,
    )


def _replicate_fit(spec: ModelSpec, design: _Design, lam: dict) -> _Replicate:
    """What an envelope replicate keeps of a refit: the verdict of
    ``_fit_resolved``, whose stencil runs only when the stopping rules fired,
    and no standard errors or AIC."""
    th_loc, th_disp, criteria_met, iterations, _ = _optimize(spec, design, lam)
    converged = criteria_met and _fd_grad_norm(design, th_loc, th_disp, lam) <= GRAD_NORM_BOUND
    mu, logphi = _mu_phi(design, th_loc, th_disp)
    return _Replicate(th_loc, th_disp, mu, np.exp(logphi), bool(converged), iterations)


def _block_se(half: _Half, w_obs: np.ndarray, lam) -> np.ndarray:
    p = half.p_par
    Hs, d = _jacobi_scale(_gram(half, w_obs, lam))
    try:
        cov = np.linalg.inv(Hs) / d[:, None] / d[None, :]
    except np.linalg.LinAlgError:
        return np.full(p, np.nan)
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.diag(cov)[:p])


def _term_edf(ti: _TermInfo, w: np.ndarray, lam_j: float) -> float:
    B = ti.block.B
    A = B.T @ (w[:, None] * B)
    Ms, d = _jacobi_scale(A + lam_j * ti.block.K)
    As = A / d[:, None] / d[None, :]
    try:
        return float(np.trace(np.linalg.solve(Ms, As)))
    except np.linalg.LinAlgError:
        return float("nan")


# ---------------------------------------------------------------------------
# public operations

def _evaluation_point(spec: ModelSpec, table: ObservationTable, params: FitParams):
    """Design, coefficient vectors and lambda map at ``params``, whose
    lengths must match the design."""
    design = _build_design(spec, table)
    lam = _resolve_lambdas(params.lam, design)
    th_loc = np.asarray(params.location, dtype=float)
    th_disp = np.asarray(params.dispersion, dtype=float)
    if th_loc.shape != (design.loc.G.shape[1],) or th_disp.shape != (design.disp.G.shape[1],):
        raise SpecificationError(
            f"parameter lengths {th_loc.shape[0]}/{th_disp.shape[0]} do not match "
            f"the design ({design.loc.G.shape[1]}/{design.disp.G.shape[1]})"
        )
    return design, th_loc, th_disp, lam


def penalized_loglik(spec: ModelSpec, table: ObservationTable, params: FitParams) -> float:
    """Sum of log densities of y minus half the log dispersions, minus the
    quadratic roughness penalties."""
    design, th_loc, th_disp, lam = _evaluation_point(spec, table, params)
    val = _eval_objective(design, th_loc, th_disp, lam)
    if not math.isfinite(val):
        raise EvaluationError("non-finite dispersion or location under these parameters")
    return val


def penalized_score(spec: ModelSpec, table: ObservationTable, params: FitParams) -> np.ndarray:
    """Stacked analytic penalized score (location block then dispersion)."""
    design, th_loc, th_disp, lam = _evaluation_point(spec, table, params)
    s_loc, s_disp = _analytic_scores(design, th_loc, th_disp, lam)
    return np.concatenate([s_loc, s_disp])


def _find_term(design: _Design, term) -> _TermInfo:
    """Design entry of a spline term given by its label or as a SplineTerm.
    A SplineTerm declared in both submodels is ambiguous."""
    found = [ti for ti in design.term_infos if term == ti.label or term == ti.term]
    if len(found) > 1:
        raise SpecificationError(
            f"term {term!r} is declared in both submodels; pass one of "
            f"{[ti.label for ti in found]}"
        )
    if not found:
        raise SpecificationError(
            f"unknown term {term!r}; fit has {sorted(ti.label for ti in design.term_infos)}"
        )
    return found[0]


def _select_labels(design: _Design) -> list:
    return [ti.label for ti in design.term_infos if ti.term.lam is None]


def _grid_aic(spec: ModelSpec, design: _Design, lam: dict) -> float:
    """AIC of one grid fit, with no convergence verdict or standard errors."""
    th_loc, th_disp, *_ = _optimize(spec, design, lam)
    return _information_criteria(spec, design, lam, *_mu_phi(design, th_loc, th_disp))[2]


def _grid_select(spec: ModelSpec, design: _Design, fixed: dict, label: str) -> float:
    """AIC grid search over one term, others held at their current values
    (unresolved select terms sit at the geometric grid midpoint). Each
    (lambda, AIC) pair is logged at DEBUG, and a winner at the smallest or
    largest grid value draws a WARNING naming the term."""
    mid = float(math.sqrt(spec.lambda_grid[0] * spec.lambda_grid[-1]))
    base = {lab: fixed.get(lab, mid) for lab in _select_labels(design)}
    base.update(fixed)
    best_lam = None
    best_aic = math.inf
    for cand in spec.lambda_grid:
        trial = dict(base)
        trial[label] = float(cand)
        try:
            aic = _grid_aic(spec, design, _resolve_lambdas(trial, design))
        except NumericalError as exc:
            log.debug("select %s: lambda %g failed: %s", label, cand, exc)
            continue
        log.debug("select %s: lambda %g AIC %.10g", label, cand, aic)
        if aic < best_aic - 1e-9:
            best_aic = aic
            best_lam = float(cand)
        elif aic <= best_aic + 1e-9:
            # tie within tolerance: prefer the smoother (larger) lambda
            best_lam = float(cand)
    if best_lam is None:
        raise SelectionError(f"no grid fit succeeded while selecting {label}")
    edges = (min(spec.lambda_grid), max(spec.lambda_grid))
    if edges[0] < edges[1] and best_lam in edges:
        log.warning("select %s: lambda %g is at the edge of the grid [%g, %g]",
                    label, best_lam, *edges)
    return best_lam


def select_lambda(spec: ModelSpec, table: ObservationTable, term) -> float:
    """Grid value minimizing full-fit AIC for one term flagged for
    selection; ties break toward the larger (smoother) value."""
    design = _build_design(spec, table)
    return _grid_select(spec, design, {}, _find_term(design, term).label)


def fit(spec: ModelSpec, table: ObservationTable) -> LogSymFit:
    """Fit the model, resolving any select-rule smoothing parameters first
    (sequentially, in declaration order), then maximizing at fixed lambda."""
    design = _build_design(spec, table)
    lam: dict = {}
    for label in _select_labels(design):
        lam[label] = _grid_select(spec, design, lam, label)
    return _fit_resolved(spec, design, _resolve_lambdas(lam, design))


def spec_with_lambdas(spec: ModelSpec, lam: dict) -> ModelSpec:
    """Copy of ``spec`` with every term's lambda pinned from ``lam``."""
    def pin(name, sub):
        terms = tuple(
            replace(t, lam=lam.get(term_label(name, t), t.lam)) for t in sub.terms
        )
        return replace(sub, terms=terms)

    return replace(spec, location=pin("location", spec.location),
                   dispersion=pin("dispersion", spec.dispersion))


def fitted_log_rate(fit_result: LogSymFit, table: ObservationTable) -> np.ndarray:
    """Fitted log mortality rate, mu_hat - log population."""
    return fit_result.mu_hat - table.log_pop


def residuals(fit_result: LogSymFit, kind: str) -> np.ndarray:
    """Quantile residuals of the response the fit was made on."""
    return _quantile_residuals(fit_result.spec.generator, fit_result.design.y,
                               fit_result.mu_hat, fit_result.phi_hat, kind)


def _quantile_residuals(gen: GeneratorSpec, y, mu, phi, kind: str) -> np.ndarray:
    """location: probit of the error CDF at z_k; dispersion: probit of the
    CDF of z^2 (which is 2 F(sqrt(u)) - 1 by symmetry). CDF values are
    clamped away from 0 and 1 before the probit map.
    """
    z = (y - mu) / np.sqrt(phi)
    if kind == "location":
        p = cdf(gen, z)
    elif kind == "dispersion":
        p = 2.0 * cdf(gen, np.sqrt(z * z)) - 1.0
    else:
        raise SpecificationError(f"unknown residual kind {kind!r}")
    return special.ndtri(np.clip(p, _CDF_CLAMP, 1.0 - _CDF_CLAMP))
