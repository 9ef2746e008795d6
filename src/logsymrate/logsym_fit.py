"""Penalized maximum likelihood for the log-symmetric semiparametric model.

Model on the log scale: y_k = mu_k + sqrt(phi_k) eps_k with eps from a
symmetric generator family. The location submodel is
mu = [offset +] X beta + sum_j B_j a_j and the dispersion submodel is
log phi = W gamma + sum_j B_j a_j, each spline block carrying a quadratic
roughness penalty 0.5 * lambda_j a_j^T K_j a_j.

Fitting repeats one block sweep (``_sweep``) of two penalized ascent
steps until the penalized log-likelihood and the coefficients stabilize:

* location: a penalized weighted least-squares step with per-observation
  weights v(z_k) / phi_k (v is the family scoring weight), which is a
  Newton-type step whose fixed point is the penalized score equation;
* dispersion: a penalized Fisher-scoring step with per-observation score
  (v(z_k) z_k^2 - 1) / 2 and constant expected information kappa per
  observation.

Every step is step-halved so the penalized objective never decreases, and
the Newton polish falls back to one sweep when its direction is singular
or not finite. The objective depends on the coefficients through the two
linear predictors and the term penalties. A sweep carries both predictors,
each step handing on the one its accepted trial computed. A location trial
holds exp(0.5 log phi), 0.5 sum(log phi) and the dispersion penalties; a
dispersion one holds y - mu and the location penalties. The penalty is
summed location terms first, so every value is bit for bit the one that
recomputing both predictors gives. Once the stopping rules fire, Newton
polish steps run until the analytic penalized score is far below the
stationarity bound, and the reported grad_norm is an independent
fourth-order finite-difference check of the objective at the solution,
which evaluates a coefficient's four points as one block, in this
process. A large design moves each point's predictor along the
coefficient's column instead of recomputing it (``_COLUMN_STENCIL_WORK``).

A "select" term is resolved by refitting at each lambda of the grid and
keeping the lowest AIC. Grid fits are scored by AIC alone: ``converged``,
``grad_norm`` and the standard errors belong to the final fit at the
selected lambdas, and a grid fit that did not converge still competes on
its AIC. An envelope replicate keeps only its coefficients, predictors,
iterations and convergence verdict (a final fit's rule; the stencil runs
only when the stopping rules fired, and stops at the first failing
coefficient): no standard errors or AIC.

A term's grid fits run on forked workers, each a fixed stride of the grid
(``_map_in_order``). The parent reads their results in order, so every
value, log line and warning is the serial one. The last term's winning
grid fit ran at the final lambdas, so the final fit takes its optimum
instead of running the optimizer again.
"""

from __future__ import annotations

import logging
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .data_ingest import ObservationTable, _zero_policy_problem
from .errors import (
    DataValidationError,
    EvaluationError,
    NumericalError,
    RankDeficiencyError,
    SelectionError,
    SpecificationError,
    _at_least,
    _flag,
    _list,
    _positive,
)
from .logsym_family import (
    GeneratorSpec,
    _log_norm_const,
    cdf,
    dispersion_info_const,
    logpdf,
    weight_v,
    weight_v_prime,
)
from .poisson_glm import _equilibrated_inverse, _solve_equilibrated, check_covariates_vary, \
    check_full_rank, parametric_design
from .spline_bases import SplineTerm, build_term_block, term_label

DEFAULT_LAMBDA_GRID = tuple(np.geomspace(1e-4, 1e8, 30))
GRAD_NORM_BOUND = 1e-4
_POWEREXP_Z_FLOOR = 1e-6
_CDF_CLAMP = 1e-12
_MAX_POLISH_SWEEPS = 50
# From this many cell-coefficients, a stencil point's predictor is the fitted one
# moved along the coefficient's design column, O(n) in place of an O(n p) product.
# Smaller stencils keep each point's own product, bit for bit: the 782-cell
# verdicts rest on those bits, and column updates changed a powerexp envelope's
# n_failures there.
_COLUMN_STENCIL_WORK = 300_000
# Other threads, such as a threaded BLAS's helpers, at import (numpy loads its
# BLAS first, and no pool has run yet); False off Linux, where the OS does not say.
_THREADED = os.path.isdir("/proc/self/task") and len(os.listdir("/proc/self/task")) > 1
# the errstate of a halving search, a stencil or a single evaluation
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
_Replicate = namedtuple("_Replicate", "location dispersion mu phi converged iterations")

log = logging.getLogger("logsymrate")


@dataclass(frozen=True)
class SubmodelSpec:
    """Parametric covariates plus spline terms for one submodel."""

    covariates: tuple = ("intercept",)
    terms: tuple = ()
    use_offset: bool = False

    def __post_init__(self):
        for name in ("covariates", "terms"):
            object.__setattr__(self, name, _list(getattr(self, name), f"submodel {name}"))


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
        problem = _zero_policy_problem(self.zero_policy)
        if problem:
            raise SpecificationError(problem)
        object.__setattr__(self, "lambda_grid", tuple(
            _positive(v, "lambda_grid") for v in _list(self.lambda_grid, "lambda_grid")))
        if not self.lambda_grid:
            raise SpecificationError("lambda_grid must hold at least one value")
        _flag(self.jacobian_adjust, "logsym spec jacobian_adjust")
        for name in ("tol_loglik", "tol_param"):
            # kept as given, so that fit.json echoes the spec's text
            _positive(getattr(self, name), name)
        for name, low in (("max_outer", 1), ("max_halvings", 0)):
            object.__setattr__(self, name, _at_least(getattr(self, name), name, low))
        for name, sub in (("location", self.location), ("dispersion", self.dispersion)):
            _flag(sub.use_offset, f"{name} submodel use_offset")
            if name == "dispersion" and sub.use_offset:
                raise SpecificationError("the dispersion submodel takes no offset")
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
    """Coefficients plus per-term smoothing weights, as a fit stores them
    in ``LogSymFit.params`` and as ``penalized_loglik`` takes them. The
    coefficient vectors are stored as read-only float copies."""

    location: np.ndarray
    dispersion: np.ndarray
    lam: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("location", "dispersion"):
            th = np.array(getattr(self, name), dtype=float)
            th.flags.writeable = False
            object.__setattr__(self, name, th)


@dataclass
class LogSymFit:
    """A fitted model. Coefficients, names, lambdas and cell keys are read
    from ``params`` and ``design``, so they cannot disagree with them."""

    spec: ModelSpec
    beta_se: np.ndarray
    gamma_se: np.ndarray
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
    params: FitParams
    design: "_Design"

    @property
    def label(self) -> str:
        return f"logsym-{self.spec.generator.family}"

    @property
    def beta(self) -> np.ndarray:
        return self.params.location[:self.design.loc.p_par]

    @property
    def gamma(self) -> np.ndarray:
        return self.params.dispersion[:self.design.disp.p_par]

    @property
    def beta_names(self) -> tuple:
        return self.design.loc.par_names

    @property
    def gamma_names(self) -> tuple:
        return self.design.disp.par_names

    @property
    def spline_coefs(self) -> dict:
        """Coefficients of each spline term, keyed by its label."""
        return {ti.label: th[ti.sl]
                for half, th in ((self.design.loc, self.params.location),
                                 (self.design.disp, self.params.dispersion))
                for ti in half.terms}

    @property
    def lam(self) -> dict:
        return self.params.lam

    @property
    def cell_keys(self) -> tuple:
        return self.design.cell_keys


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
    """The half's design G = [X, B_1, ...], each term's block holding its
    basis as a view of its own columns of G, so the half keeps it once."""
    X = parametric_design(table, sub.covariates)
    blocks = [build_term_block(t, getattr(table, t.covariate)) for t in sub.terms]
    G = np.column_stack([X] + [block.B for block in blocks])
    terms, pos = [], X.shape[1]
    for t, block in zip(sub.terms, blocks):
        sl = slice(pos, pos + block.ncols)
        terms.append(_TermInfo(label=term_label(name, t), term=t,
                               block=replace(block, B=G[:, sl]), sl=sl))
        pos = sl.stop
    col_scale = np.max(np.abs(G), axis=0)
    col_scale[col_scale == 0] = 1.0
    return _Half(G=G, p_par=X.shape[1], par_names=tuple(sub.covariates),
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
    for half, sub in ((loc, spec.location), (disp, spec.dispersion)):
        names = list(half.par_names)
        for ti in half.terms:
            names += [f"{ti.label}[{i}]" for i in range(ti.sl.stop - ti.sl.start)]
        used = {c for c in sub.covariates if c != "intercept"} | {t.covariate for t in sub.terms}
        # a row of G is a function of the covariates it uses, and the table's
        # (age, period) keys are unique, so only a one-covariate half repeats rows
        check_full_rank(half.G, names, getattr(table, used.pop()) if len(used) == 1 else None)
    offset = table.log_pop if spec.location.use_offset else np.zeros(len(table))
    kappa = dispersion_info_const(spec.generator)
    return _Design(y=table.log_t, offset=offset, loc=loc, disp=disp,
                   generator=spec.generator, kappa=kappa,
                   disp_info=kappa * (disp.G.T @ disp.G), cell_keys=table.cell_keys)


def _resolve_lambdas(lam: dict, design: _Design) -> dict:
    """Effective per-term lambda map: each term of the design, and no other, gets a value."""
    labels = [ti.label for ti in design.term_infos]
    for label in lam:
        if label not in labels:
            raise SpecificationError(f"unknown term {label!r}; the design has {sorted(labels)}")
    out = {}
    for ti in design.term_infos:
        val = lam.get(ti.label, ti.term.lam)
        if val is None:
            raise SpecificationError(
                f"term {ti.label} has no smoothing parameter; fix lam or run selection"
            )
        out[ti.label] = _positive(val, f"term {ti.label} lambda")
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


def _penalty(ti: _TermInfo, th, lam) -> float:
    """Roughness penalty of one spline term."""
    return 0.5 * lam[ti.label] * float(th[ti.sl] @ ti.block.K @ th[ti.sl])


def _penalties(half: _Half, th, lam) -> list:
    """Roughness penalty of each spline term of one submodel, in order."""
    return [_penalty(ti, th, lam) for ti in half.terms]


def _loglik(design: _Design, resid, sphi, half_sum):
    """Log-likelihood from y - mu, exp(0.5 log phi) and 0.5 sum(log phi), of
    one point or of each row of a block of points; a row gets the bits of
    its point evaluated alone."""
    return np.add.reduce(logpdf(design.generator, resid / sphi), axis=-1) - half_sum


def _penalized(ll, penalties) -> float:
    """The objective: ``ll`` minus the term penalties, location first, summed
    in order from 0.0; -inf when not evaluable. logpdf is never +inf and the
    penalty never -inf, so a non-finite predictor, residual, density or
    penalty leaves the value at -inf or nan, and one test rejects them all."""
    penalty = 0.0
    for p in penalties:
        penalty += p
    val = float(ll) - penalty
    return val if math.isfinite(val) else -math.inf


def _eval_objective(design: _Design, th_loc, th_disp, lam) -> float:
    """The objective at coefficient vectors, both predictors computed."""
    with np.errstate(**_QUIET):
        return _location_objective(design, design.disp.G @ th_disp, th_disp, lam)(th_loc)[0]


def _location_objective(design: _Design, logphi, th_disp, lam):
    """(objective, mu) of the location coefficients, holding exp(0.5 logphi),
    0.5 sum(logphi) and the penalties of ``th_disp``, whose predictor is ``logphi``."""
    with np.errstate(**_QUIET):
        sphi = np.exp(0.5 * logphi)
        half_sum = 0.5 * np.add.reduce(logphi)
        held = _penalties(design.disp, th_disp, lam)

    def f(th):
        mu = _mu(design, th)
        return _penalized(_loglik(design, design.y - mu, sphi, half_sum),
                          _penalties(design.loc, th, lam) + held), mu
    return f


def _dispersion_objective(design: _Design, mu, th_loc, lam):
    """(objective, log phi) of the dispersion coefficients, holding y - mu and
    the penalties of ``th_loc``, whose predictor is ``mu``."""
    resid = design.y - mu
    held = _penalties(design.loc, th_loc, lam)

    def f(th):
        logphi = design.disp.G @ th
        ll = _loglik(design, resid, np.exp(0.5 * logphi), 0.5 * np.add.reduce(logphi))
        return _penalized(ll, held + _penalties(design.disp, th, lam)), logphi
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


def _observed_weights(design: _Design, mu, logphi) -> tuple:
    """(location, cross, dispersion) weights of the observed information."""
    sphi = np.exp(0.5 * logphi)
    z = _clamped_z(design.generator, (design.y - mu) / sphi)
    u = z * z
    v = weight_v(design.generator, z)
    vp = weight_v_prime(design.generator, u)
    return ((v + 2.0 * u * vp) / (sphi * sphi), z * (v + u * vp) / sphi,
            u * (v + u * vp) / 2.0)


def _observed_hessian(design: _Design, th_loc, th_disp, lam) -> np.ndarray:
    """Stacked penalized observed information (negated Hessian) over both
    submodels, cross block included."""
    d_ll, d_ld, d_dd = _observed_weights(design, *_mu_phi(design, th_loc, th_disp))
    X, W = design.loc.G, design.disp.G
    return np.block([
        [_gram(design.loc, d_ll, lam), X.T @ (d_ld[:, None] * W)],
        [W.T @ (d_ld[:, None] * X), _gram(design.disp, d_dd, lam)],
    ])


def _halving_accept(evalf, th, direction, L_cur, pred, max_halvings, near=None):
    """Backtrack along an ascent direction; never accept a decrease, unless
    ``near(trial, objective)`` accepts a trial the objective alone rejects.
    Returns (point, objective, the point's predictor, whether a trial was
    accepted)."""
    t = 1.0
    with np.errstate(**_QUIET):
        for _ in range(max_halvings + 1):
            trial = th + t * direction
            L_new, pred_new = evalf(trial)
            if L_new >= L_cur or (near is not None and near(trial, L_new)):
                return trial, L_new, pred_new, True
            t *= 0.5
    return th, L_cur, pred, False


def _location_weights(design: _Design, mu, logphi) -> tuple:
    """(z, v(z) / phi): standardized residuals and location working weights."""
    phi = np.exp(logphi)
    z = (design.y - mu) / np.sqrt(phi)
    return z, weight_v(design.generator, _clamped_z(design.generator, z)) / phi


def _sweep(design: _Design, th_loc, th_disp, mu, logphi, lam, L, max_halvings):
    """One block sweep: the location step, then the dispersion step at the
    location predictor it hands on. Returns (th_loc, th_disp, mu, logphi,
    objective, whether either step accepted a trial)."""
    _, w = _location_weights(design, mu, logphi)
    H = _gram(design.loc, w, lam)
    s = design.loc.G.T @ (w * (design.y - mu)) - _pen_grad(design.loc, th_loc, lam)
    step = _solve_equilibrated(H, s, "location")
    th_loc, L, mu, moved = _halving_accept(_location_objective(design, logphi, th_disp, lam),
                                           th_loc, step, L, mu, max_halvings)
    zc = _clamped_z(design.generator, (design.y - mu) / np.exp(0.5 * logphi))
    s_obs = (weight_v(design.generator, zc) * zc * zc - 1.0) / 2.0
    H = design.disp_info.copy()
    _add_penalty(H, design.disp, lam)
    s = design.disp.G.T @ s_obs - _pen_grad(design.disp, th_disp, lam)
    step = _solve_equilibrated(H, s, "dispersion")
    th_disp, L, logphi, moved_disp = _halving_accept(
        _dispersion_objective(design, mu, th_loc, lam), th_disp, step, L, logphi, max_halvings)
    return th_loc, th_disp, mu, logphi, L, moved or moved_disp


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
    try:
        H = _observed_hessian(design, th_loc, th_disp, lam)
        direction = _solve_equilibrated(H, np.concatenate([s_loc, s_disp]), "Newton")
    except RankDeficiencyError:
        direction = None
    if direction is None or not np.all(np.isfinite(direction)):
        th_loc, th_disp, _, _, L_cur, moved = _sweep(
            design, th_loc, th_disp, *_mu_phi(design, th_loc, th_disp), lam, L_cur, max_halvings)
        return th_loc, th_disp, L_cur, moved
    noise = 1e-11 * (1.0 + abs(L_cur))

    def near(trial, L_new):
        # a trial's score is computed only within the noise allowance
        return L_new >= L_cur - noise and _score_norm(*_analytic_scores(
            design, trial[:n_loc], trial[n_loc:], lam)) <= 0.5 * score_cur

    point, L_new, _, ok = _halving_accept(
        lambda trial: (_eval_objective(design, trial[:n_loc], trial[n_loc:], lam), None),
        np.concatenate([th_loc, th_disp]), direction, L_cur, None, max_halvings, near)
    return point[:n_loc], point[n_loc:], L_new, ok


# ---------------------------------------------------------------------------
# fork map

def _cpu_count() -> int:
    """CPUs this process may run on; 1 off Linux, where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _map_in_order(fn, m: int) -> list:
    """``[fn(i) for i in range(m)]``, on one forked worker per usable CPU and
    task (``_fork_map``); none beside other threads (``_THREADED``: each
    worker would start its own BLAS helpers). With one worker, or in a
    daemonic process such as a ``multiprocessing.Pool`` worker (it already
    shares the CPUs with its pool, so forking inside it would oversubscribe
    them), everything runs in this process. The finite-difference check
    never comes here: it folds its partials in the calling process."""
    workers = 1 if _THREADED else min(_cpu_count(), m)
    if workers > 1:
        import multiprocessing
        if not multiprocessing.current_process().daemon:
            return _fork_map(fn, m, workers)
    return [fn(i) for i in range(m)]


def _fork_map(fn, m: int, workers: int) -> list:
    """``[fn(i) for i in range(m)]`` on ``workers`` forked children
    (``_fork_worker``), which ``fn`` reaches by fork, not by pickling. This
    process starts no thread: it waits on the children's pipes, puts the
    results in order, with the bits of a serial run, and raises the
    lowest failing index's exception, from one holding the child's
    traceback. A child that dies raises ChildProcessError naming its exit
    status. Every child is reaped before this returns or raises."""
    import signal
    from multiprocessing.connection import Pipe, wait
    children = {}  # the read end of each live child's pipe: its pid
    results, errors = {}, {}
    try:
        for k in range(workers):
            read, write = Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                _fork_worker(fn, range(k, m, workers), write)
            write.close()
            children[read] = pid
        while children:
            for read in wait(list(children)):
                try:
                    batch = read.recv()
                except EOFError:
                    pid = children.pop(read)
                    read.close()
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if status:
                        raise ChildProcessError(f"forked worker {pid} ended with exit "
                                                f"status {status}") from None
                    continue
                for i, ok, value in batch:
                    (results if ok else errors)[i] = value
    finally:
        for read, pid in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            read.close()
    if errors:
        exc, where = errors[min(errors)]
        raise exc from ChildProcessError(f"raised in a forked worker:\n{where}")
    return [results[i] for i in range(m)]


def _fork_worker(fn, tasks: range, out) -> None:
    """A forked child: run ``tasks`` (child k of w runs k, k + w, ...) in
    order up to the first that raises, so the map's lowest failing index,
    some child's first failure, always reaches the parent. Send the
    (index, ok, result or exception) triples in one message, so the parent
    wakes once per child, not per task. Leave by ``os._exit``, never
    returning into the parent's stack: status 0 once the results are sent,
    1 if anything but a task raised (an unpicklable result, say)."""
    status = 1
    try:
        batch = []
        for i in tasks:
            try:
                batch.append((i, True, fn(i)))
            except Exception as exc:
                import traceback
                batch.append((i, False, (exc, traceback.format_exc())))
                break
        out.send(batch)
        status = 0
    finally:
        os._exit(status)


def _fd_partials(design: _Design, th_loc, th_disp, lam):
    """Yield the fourth-order central finite difference of the objective
    along each coefficient, location ones first, all under one errstate,
    the caller's work between partials too. Steps are sized so each one
    perturbs the standardized residuals by about 1e-4, which keeps the
    truncation error of the stencil orders of magnitude below the
    roundoff-safe range for these likelihoods.

    A coefficient's four points are one (4, n) block of predictors, for one
    ``_loglik`` call; only the owning term's penalty is recomputed. Below
    ``_COLUMN_STENCIL_WORK`` each point's predictor is its own
    matrix-vector product, bit for bit the closures' value; from there it
    is the fitted predictor moved along the coefficient's design column."""
    mu, logphi = _mu_phi(design, th_loc, th_disp)
    zstep = 1e-4 * float(np.exp(0.5 * np.median(logphi)))
    columns = len(design.y) * (len(th_loc) + len(th_disp)) >= _COLUMN_STENCIL_WORK
    with np.errstate(**_QUIET):
        resid, sphi, half_sum = design.y - mu, np.exp(0.5 * logphi), 0.5 * np.add.reduce(logphi)
        held = _penalties(design.loc, th_loc, lam) + _penalties(design.disp, th_disp, lam)
        for half, th, pred0, first in ((design.loc, th_loc, mu, 0),
                                       (design.disp, th_disp, logphi, len(design.loc.terms))):
            # each coefficient's term and the term's place in held
            owner = {i: (j, ti) for j, ti in enumerate(half.terms, first)
                     for i in range(ti.sl.start, ti.sl.stop)}
            for i in range(len(th)):
                h = max(zstep / max(1.0, half.col_scale[i]), 1e-9)
                steps = (-2 * h, -h, h, 2 * h)
                trials = [th.copy() for _ in steps]
                for trial, d in zip(trials, steps):
                    trial[i] += d
                if columns:
                    pred = pred0 + np.multiply.outer(steps, half.G[:, i])
                else:
                    pred = np.stack([half.G @ trial for trial in trials])
                    if half is design.loc:
                        pred = design.offset + pred
                if half is design.loc:
                    ll = _loglik(design, design.y - pred, sphi, half_sum)
                else:
                    ll = _loglik(design, resid, np.exp(0.5 * pred),
                                 0.5 * np.add.reduce(pred, axis=-1))
                vals = []
                for row, trial in zip(ll, trials):
                    pens = list(held)
                    if i in owner:
                        pens[owner[i][0]] = _penalty(owner[i][1], trial, lam)
                    vals.append(_penalized(row, pens))
                yield (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)


def _fd_grad_norm(design: _Design, th_loc, th_disp, lam) -> float:
    """Largest absolute finite-difference partial, folded in coefficient
    order in this process; NaN at the first NaN partial, which no bound
    passes."""
    worst = 0.0
    for g in _fd_partials(design, th_loc, th_disp, lam):
        if math.isnan(g):
            return math.nan
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
        th_loc, th_disp, mu, logphi, L, _ = _sweep(design, th_loc, th_disp, mu, logphi,
                                                   lam, L, halvings)
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
    z, w_loc = _location_weights(design, mu, logphi)

    # effective degrees of freedom with each submodel's final weights
    edf = {}
    for half, w in ((design.loc, w_loc), (design.disp, np.full(len(z), design.kappa))):
        for ti in half.terms:
            edf[ti.label] = _term_edf(ti, w, lam[ti.label])

    ll = float(np.sum(logpdf(spec.generator, z)) - 0.5 * np.sum(logphi))
    p_par = design.loc.p_par + design.disp.p_par
    aic_unadj = -2.0 * ll + 2.0 * (p_par + sum(edf.values()))
    aic_jacobian = aic_unadj + 2.0 * float(np.sum(design.y))
    aic = aic_jacobian if spec.jacobian_adjust else aic_unadj
    return ll, edf, aic, aic_jacobian


def _fit_resolved(spec: ModelSpec, design: _Design, lam: dict, optimized=None) -> LogSymFit:
    """The fit at resolved lambdas, from ``optimized``, the ``_optimize``
    output at ``lam`` if a grid fit already ran it."""
    th_loc, th_disp, criteria_met, iterations, trace = optimized or _optimize(spec, design, lam)
    grad_norm = _fd_grad_norm(design, th_loc, th_disp, lam)
    converged = bool(criteria_met and grad_norm <= GRAD_NORM_BOUND)

    mu, logphi = _mu_phi(design, th_loc, th_disp)
    # standard errors from the diagonal blocks of the Newton polish's information
    w_loc, _, w_disp = _observed_weights(design, mu, logphi)
    beta_se = _block_se(design.loc, w_loc, lam)
    gamma_se = _block_se(design.disp, w_disp, lam)

    ll, edf, aic, aic_jacobian = _information_criteria(spec, design, lam, mu, logphi)
    return LogSymFit(
        spec=spec, beta_se=beta_se, gamma_se=gamma_se, edf=edf,
        mu_hat=mu, phi_hat=np.exp(logphi), loglik=ll, aic=aic, aic_jacobian=aic_jacobian,
        converged=converged, iterations=iterations, grad_norm=grad_norm, trace=trace,
        params=FitParams(location=th_loc, dispersion=th_disp, lam=dict(lam)), design=design,
    )


def _replicate_fit(spec: ModelSpec, design: _Design, lam: dict) -> _Replicate:
    """What an envelope replicate keeps of a refit: the verdict of
    ``_fit_resolved``, and no standard errors or AIC. The stencil runs only
    when the stopping rules fired, and stops at the first coefficient whose
    partial is not within the bound; a NaN partial fails, as in
    ``_fd_grad_norm``."""
    th_loc, th_disp, criteria_met, iterations, _ = _optimize(spec, design, lam)
    converged = criteria_met and all(
        abs(g) <= GRAD_NORM_BOUND for g in _fd_partials(design, th_loc, th_disp, lam))
    mu, logphi = _mu_phi(design, th_loc, th_disp)
    return _Replicate(th_loc, th_disp, mu, np.exp(logphi), bool(converged), iterations)


def _block_se(half: _Half, w_obs: np.ndarray, lam) -> np.ndarray:
    cov = _equilibrated_inverse(_gram(half, w_obs, lam))
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.diag(cov)[:half.p_par])


def _term_edf(ti: _TermInfo, w: np.ndarray, lam_j: float) -> float:
    """tr((A + lambda K)^-1 A) with A = B^T diag(w) B; NaN where the inverse is."""
    A = ti.block.B.T @ (w[:, None] * ti.block.B)
    return float(np.trace(_equilibrated_inverse(A + lam_j * ti.block.K) @ A))


# ---------------------------------------------------------------------------
# public operations

def penalized_loglik(spec: ModelSpec, table: ObservationTable, params: FitParams) -> float:
    """Sum of log densities of y minus half the log dispersions, minus the
    quadratic roughness penalties; the lengths of ``params`` must match the
    design."""
    design = _build_design(spec, table)
    lam = _resolve_lambdas(params.lam, design)
    th_loc, th_disp = params.location, params.dispersion
    if th_loc.shape != (design.loc.G.shape[1],) or th_disp.shape != (design.disp.G.shape[1],):
        raise SpecificationError(
            f"parameter lengths {th_loc.shape[0]}/{th_disp.shape[0]} do not match "
            f"the design ({design.loc.G.shape[1]}/{design.disp.G.shape[1]})"
        )
    val = _eval_objective(design, th_loc, th_disp, lam)
    if not math.isfinite(val):
        raise EvaluationError("non-finite dispersion or location under these parameters")
    return val


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


def _grid_fit(spec: ModelSpec, design: _Design, lam: dict) -> tuple:
    """(AIC, ``_optimize`` output) of one grid fit, with no convergence
    verdict or standard errors."""
    optimized = _optimize(spec, design, lam)
    mu, logphi = _mu_phi(design, *optimized[:2])
    return _information_criteria(spec, design, lam, mu, logphi)[2], optimized


def _grid_select(spec: ModelSpec, design: _Design, fixed: dict, label: str) -> tuple:
    """AIC grid search over one term, others held at their current values
    (unresolved select terms sit at the geometric midpoint of the grid's
    smallest and largest values, in any order): the winning lambda and its
    grid fit's ``_optimize`` output. Each (lambda, AIC) pair is logged at
    DEBUG, and a winner at the smallest or largest grid value draws a
    WARNING naming the term."""
    grid = spec.lambda_grid
    edges = (min(grid), max(grid))
    mid = float(math.sqrt(edges[0] * edges[1]))
    base = {lab: fixed.get(lab, mid) for lab in _select_labels(design)}
    base.update(fixed)

    def fit_at(k):
        trial = dict(base)
        trial[label] = float(grid[k])
        try:
            return _grid_fit(spec, design, _resolve_lambdas(trial, design))
        except NumericalError as exc:
            return exc
    # the density's constant, and scipy.special with it, is cached before
    # the grid forks, so the workers inherit it rather than each importing it
    _log_norm_const(design.generator)
    fits = _map_in_order(fit_at, len(grid))
    best = None
    best_aic = math.inf
    for k, got in enumerate(fits):
        if isinstance(got, NumericalError):
            log.debug("select %s: lambda %g failed: %s", label, grid[k], got)
            continue
        aic = got[0]
        log.debug("select %s: lambda %g AIC %.10g", label, grid[k], aic)
        if aic < best_aic - 1e-9:
            best_aic = aic
            best = k
        elif aic <= best_aic + 1e-9 and grid[k] > grid[best]:
            # tie within tolerance: prefer the smoother (larger) lambda
            best = k
    if best is None:
        raise SelectionError(f"no grid fit succeeded while selecting {label}")
    best_lam = float(grid[best])
    if edges[0] < edges[1] and best_lam in edges:
        log.warning("select %s: lambda %g is at the edge of the grid [%g, %g]",
                    label, best_lam, *edges)
    return best_lam, fits[best][1]


def fit(spec: ModelSpec, table: ObservationTable) -> LogSymFit:
    """Fit the model, resolving any select-rule smoothing parameters first
    (sequentially, in declaration order), then maximizing at fixed lambda."""
    design = _build_design(spec, table)
    lam: dict = {}
    optimized = None
    for label in _select_labels(design):
        lam[label], optimized = _grid_select(spec, design, lam, label)
    return _fit_resolved(spec, design, _resolve_lambdas(lam, design), optimized)


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
    from scipy import special
    return special.ndtri(np.clip(p, _CDF_CLAMP, 1.0 - _CDF_CLAMP))
