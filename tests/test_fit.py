"""The alternating penalized fitting engine.

The analytic score is validated against finite differences of the
public penalized objective, and every fit's stored trace must be
nondecreasing. The objective evaluated at the linear predictors is held
bit for bit to a reference that recomputes both predictors at every
point and tests each intermediate for finiteness.
"""

import dataclasses
import logging
import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from logsymrate import logsym_family, logsym_fit
from logsymrate import (
    FitParams,
    GeneratorSpec,
    ModelSpec,
    SplineTerm,
    SubmodelSpec,
    TruthSpec,
    apply_zero_policy,
    fit,
    fitted_log_rate,
    normal_spec,
    penalized_loglik,
    penalized_score,
    residuals,
    select_lambda,
    simulate_table,
    spec_with_lambdas,
)
from logsymrate.data_ingest import ObservationTable, TableMeta
from logsymrate.errors import DataValidationError, SpecificationError

from .conftest import (
    AGES,
    ALL_GENERATORS,
    LINEAR_TRUTH,
    PERIODS,
    plain_spec,
    small_logsym_table,
    small_poisson_table,
)


def spline_spec(loc_lam=10.0, disp_lam=100.0, generator=None):
    return ModelSpec(
        generator=generator or normal_spec(),
        location=SubmodelSpec(covariates=("intercept", "period"), use_offset=True,
                              terms=(SplineTerm(kind="ncs", covariate="age",
                                                lam=loc_lam),)),
        dispersion=SubmodelSpec(covariates=("intercept",),
                                terms=(SplineTerm(kind="psp", covariate="age",
                                                  basis_dim=8, lam=disp_lam),)),
    )


def small_nonlinear_table(seed=9):
    """``small_logsym_table`` with a sine wave added to the age effect."""
    truth = TruthSpec(ages=AGES, periods=PERIODS, population=200000.0,
                      noise="logsym", generator=normal_spec(), phi=0.04,
                      f_age=lambda a: math.sin((a - 35.0) / 8.0), **LINEAR_TRUTH)
    return apply_zero_policy(simulate_table(truth, seed).table, "add_half")


def two_term_spec(generator=None):
    """Two spline terms in each submodel, so the penalty sums four terms."""
    return ModelSpec(
        generator=generator or normal_spec(),
        location=SubmodelSpec(covariates=("intercept",), use_offset=True,
                              terms=(SplineTerm(kind="ncs", covariate="age", lam=10.0),
                                     SplineTerm(kind="ncs", covariate="period",
                                                lam=30.0))),
        dispersion=SubmodelSpec(covariates=("intercept",),
                                terms=(SplineTerm(kind="psp", covariate="age",
                                                  basis_dim=6, lam=100.0),
                                       SplineTerm(kind="ncs", covariate="period",
                                                  lam=300.0))),
    )


def select_spec(generator=None, grid=tuple(np.geomspace(1e-1, 1e5, 7))):
    """``spline_spec`` with its location ncs(age) lambda left to selection."""
    spec = dataclasses.replace(spline_spec(generator=generator), lambda_grid=grid)
    return dataclasses.replace(
        spec, location=dataclasses.replace(
            spec.location,
            terms=(SplineTerm(kind="ncs", covariate="age", lam=None),)))


class TestClosedForm:
    def test_intercept_only_normal(self, logsym_table):
        spec = ModelSpec(
            generator=normal_spec(),
            location=SubmodelSpec(covariates=("intercept",), use_offset=False),
            dispersion=SubmodelSpec(covariates=("intercept",)),
        )
        f = fit(spec, logsym_table)
        y = np.asarray(logsym_table.log_t)
        assert f.beta[0] == pytest.approx(float(np.mean(y)), abs=1e-6)
        mle_var = float(np.mean((y - np.mean(y)) ** 2))
        assert f.gamma[0] == pytest.approx(np.log(mle_var), abs=1e-6)
        assert f.converged


class TestInvariances:
    def test_shift_equivariance(self, logsym_table):
        # scaling every count by e^c shifts the location intercept by c
        # and leaves slopes and dispersion alone
        c = 0.7
        base = fit(plain_spec(), logsym_table)
        shifted = dataclasses.replace(logsym_table, t_value=logsym_table.t_value * np.exp(c))
        f2 = fit(plain_spec(), shifted)
        assert f2.beta[0] - base.beta[0] == pytest.approx(c, abs=1e-6)
        np.testing.assert_allclose(f2.beta[1:], base.beta[1:], atol=1e-7)
        np.testing.assert_allclose(f2.gamma, base.gamma, atol=1e-6)

    def test_offset_absorbs_population_scale(self, logsym_table):
        base = fit(plain_spec(), logsym_table)
        scaled = dataclasses.replace(logsym_table, population=logsym_table.population * 10.0)
        f2 = fit(plain_spec(), scaled)
        # same t with 10x population: the fitted log rate drops by log 10,
        # fitted medians of t are unchanged
        np.testing.assert_allclose(f2.mu_hat, base.mu_hat, atol=1e-6)
        assert base.beta[0] - f2.beta[0] == pytest.approx(np.log(10.0), abs=1e-6)

    def test_monotone_trace(self, logsym_table):
        for spec in (plain_spec(), spline_spec(),
                     plain_spec(generator=GeneratorSpec(family="student", nu=6.0))):
            f = fit(spec, logsym_table)
            tr = np.asarray(f.trace)
            assert np.all(np.diff(tr) >= 0)

    def test_fitted_log_rate_definition(self, logsym_table):
        f = fit(plain_spec(), logsym_table)
        np.testing.assert_allclose(
            fitted_log_rate(f, logsym_table),
            f.mu_hat - np.asarray(logsym_table.log_pop), atol=1e-12)


class TestScoreAgainstObjective:
    @pytest.mark.parametrize("gen", [
        normal_spec(),
        GeneratorSpec(family="student", nu=4.0),
        GeneratorSpec(family="powerexp", zeta=-0.4),
        GeneratorSpec(family="contnormal", nu1=0.2, nu2=0.3),
    ], ids=lambda g: g.label())
    def test_score_matches_fd_at_random_point(self, gen, logsym_table):
        spec = spline_spec(generator=gen)
        f = fit(spec, logsym_table)
        rng = np.random.default_rng(2)
        # perturb away from the optimum so the score is far from zero
        loc = f.params.location + rng.normal(scale=1e-3, size=f.params.location.shape)
        disp = f.params.dispersion + rng.normal(scale=1e-3,
                                                size=f.params.dispersion.shape)
        params = FitParams(location=loc, dispersion=disp, lam=dict(f.lam))
        s = penalized_score(spec, logsym_table, params)
        stacked = np.concatenate([loc, disp])
        n_loc = len(loc)

        def obj(vec):
            p = FitParams(location=vec[:n_loc], dispersion=vec[n_loc:],
                          lam=dict(f.lam))
            return penalized_loglik(spec, logsym_table, p)

        for i in range(len(stacked)):
            h = 1e-6 * max(1.0, abs(stacked[i]))
            e = np.zeros_like(stacked)
            e[i] = h
            fd = (obj(stacked + e) - obj(stacked - e)) / (2 * h)
            assert s[i] == pytest.approx(fd, rel=5e-4, abs=5e-4 * (1 + abs(fd)))

    def test_gradient_small_at_optimum(self, logsym_table):
        f = fit(spline_spec(), logsym_table)
        assert f.converged
        assert f.grad_norm <= 1e-4
        s = penalized_score(f.spec, logsym_table, f.params)
        assert np.max(np.abs(s)) <= 1e-4


class TestSmoothing:
    def test_edf_decreases_with_lambda(self, logsym_table):
        edfs = []
        for lam in (1e-2, 1e2, 1e6):
            f = fit(spline_spec(loc_lam=lam), logsym_table)
            edfs.append(f.edf["location:ncs(age)"])
        assert edfs[0] > edfs[1] > edfs[2]
        q = 8  # nine distinct ages, one column absorbed by centering
        assert 0 < edfs[2] <= 2.5
        assert edfs[0] <= q + 1e-6

    def test_heavy_smoothing_matches_parametric_aic(self, logsym_table):
        # an ncs age term at enormous lambda spans the same space as the
        # parametric age column, so AIC converges to the parametric fit's
        f_smooth = fit(spline_spec(loc_lam=1e8, disp_lam=1e8), logsym_table)
        f_par = fit(ModelSpec(
            generator=normal_spec(),
            location=SubmodelSpec(covariates=("intercept", "age", "period"),
                                  use_offset=True),
            dispersion=SubmodelSpec(covariates=("intercept", "age")),
        ), logsym_table)
        assert f_smooth.aic == pytest.approx(f_par.aic, abs=0.5)

    def test_selection_returns_grid_point(self, logsym_table):
        spec = select_spec()
        lam = select_lambda(spec, logsym_table, "location:ncs(age)")
        assert lam in spec.lambda_grid

    def test_fit_resolves_select_like_manual(self, logsym_table):
        spec = select_spec()
        lam = select_lambda(spec, logsym_table, "location:ncs(age)")
        f = fit(spec, logsym_table)
        assert f.lam["location:ncs(age)"] == lam

    @pytest.mark.parametrize("gen", [normal_spec(), GeneratorSpec(family="powerexp", zeta=0.4)],
                             ids=["normal", "powerexp"])
    def test_grid_aic_is_the_full_fit_aic(self, gen, logsym_table):
        # a grid fit skips the convergence verdict and the standard errors,
        # so its AIC must still be the full fit's, and selection over it
        # must match a loop of full fits under the same tie rule
        spec = select_spec(generator=gen)
        design = logsym_fit._build_design(spec, logsym_table)
        best_lam, best_aic = None, math.inf
        for cand in spec.lambda_grid:
            lam = logsym_fit._resolve_lambdas({"location:ncs(age)": cand}, design)
            aic = logsym_fit._fit_resolved(spec, design, lam).aic
            assert logsym_fit._grid_aic(spec, design, lam) == aic
            if aic < best_aic - 1e-9:
                best_lam, best_aic = cand, aic
            elif aic <= best_aic + 1e-9:
                best_lam = cand
        assert select_lambda(spec, logsym_table, "location:ncs(age)") == best_lam

    def test_only_the_final_fit_gets_verdict_and_standard_errors(self, logsym_table,
                                                                 monkeypatch):
        calls = {"_fd_grad_norm": 0, "_block_se": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(logsym_fit, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(logsym_fit, name, counted)
        spec = select_spec(grid=logsym_fit.DEFAULT_LAMBDA_GRID)
        f = fit(spec, logsym_table)
        assert len(spec.lambda_grid) == 30
        assert calls == {"_fd_grad_norm": 1, "_block_se": 2}
        assert f.beta_se.shape == f.beta.shape

    def test_spec_with_lambdas_pins(self, logsym_table):
        f = fit(spline_spec(), logsym_table)
        pinned = spec_with_lambdas(f.spec, f.lam)
        assert pinned.location.terms[0].lam == 10.0
        f2 = fit(pinned, logsym_table)
        np.testing.assert_allclose(f2.beta, f.beta, atol=1e-10)


class TestResidualsAndSes:
    def test_normal_location_residuals_are_standardized(self, logsym_table):
        # for the normal generator the probability transform is the
        # identity on z, so the quantile residual equals z itself
        f = fit(plain_spec(), logsym_table)
        r = residuals(f, "location")
        y = np.asarray(logsym_table.log_t)
        z = (y - f.mu_hat) / np.sqrt(f.phi_hat)
        np.testing.assert_allclose(r, z, atol=1e-9)

    def test_dispersion_residuals_normalish(self, logsym_table):
        f = fit(plain_spec(), logsym_table)
        r = residuals(f, "dispersion")
        assert np.all(np.isfinite(r))
        assert abs(float(np.mean(r))) < 0.3

    @pytest.mark.parametrize("kind", ["location", "dispersion"])
    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_probit_matches_norm_ppf_bit_for_bit(self, gen, kind, logsym_table):
        # standardized residuals from -1e6 to 1e6 with an exact 0, so both
        # clamp ends and p = 0.5 are reached
        f = fit(plain_spec(generator=gen), logsym_table)
        y, sphi = f.design.y, np.sqrt(f.phi_hat)
        z = np.concatenate([[-1e6, 0.0, 1e6], np.linspace(-40.0, 40.0, len(y) - 3)])
        f = dataclasses.replace(f, mu_hat=y - z * sphi)
        z = (y - f.mu_hat) / sphi
        if kind == "location":
            p = logsym_family.cdf(gen, z)
        else:
            p = 2.0 * logsym_family.cdf(gen, np.sqrt(z * z)) - 1.0
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        assert p.min() == 1e-12 and p.max() == 1.0 - 1e-12
        expected = stats.norm.ppf(p)
        assert np.array_equal(residuals(f, kind).view(np.int64), expected.view(np.int64))

    def test_unknown_kind(self, logsym_table):
        f = fit(plain_spec(), logsym_table)
        with pytest.raises(SpecificationError):
            residuals(f, "pearson")

    def test_se_shapes(self, logsym_table):
        f = fit(spline_spec(), logsym_table)
        assert f.beta_se.shape == f.beta.shape
        assert f.gamma_se.shape == f.gamma.shape
        assert np.all(f.beta_se > 0) and np.all(f.gamma_se > 0)


class TestValidation:
    def test_intercept_required(self):
        with pytest.raises(SpecificationError):
            ModelSpec(generator=normal_spec(),
                      location=SubmodelSpec(covariates=("age",), use_offset=True),
                      dispersion=SubmodelSpec(covariates=("intercept",)))

    def test_no_duplicate_covariates(self):
        with pytest.raises(SpecificationError, match="duplicate"):
            ModelSpec(
                generator=normal_spec(),
                location=SubmodelSpec(covariates=("intercept", "age", "age")),
            )

    def test_covariate_cannot_be_both(self):
        with pytest.raises(SpecificationError):
            ModelSpec(
                generator=normal_spec(),
                location=SubmodelSpec(
                    covariates=("intercept", "age"),
                    terms=(SplineTerm(kind="ncs", covariate="age", lam=1.0),)),
                dispersion=SubmodelSpec(covariates=("intercept",)))

    def test_dispersion_offset_rejected(self):
        with pytest.raises(SpecificationError):
            ModelSpec(generator=normal_spec(),
                      location=SubmodelSpec(covariates=("intercept",)),
                      dispersion=SubmodelSpec(covariates=("intercept",),
                                              use_offset=True))

    def test_zero_counts_need_policy(self):
        deaths = [3, 0, 5, 2]
        table = ObservationTable(age=[40.0, 45.0, 50.0, 55.0], period=[2000.0] * 4,
                                 deaths=deaths, t_value=deaths, population=[1000.0] * 4,
                                 meta=TableMeta(sex="female", site="x"))
        with pytest.raises(DataValidationError, match="zero policy"):
            fit(plain_spec(), table)

    def test_table_zero_policy_must_match_spec(self):
        table = small_logsym_table(seed=13)
        with pytest.raises(SpecificationError, match="'add_half'.*'drop'"):
            fit(plain_spec(zero_policy="drop"), table)
        # a table built without a zero policy carries none to check
        unmarked = dataclasses.replace(table, meta=TableMeta())
        assert fit(plain_spec(zero_policy="drop"), unmarked).converged

    @pytest.mark.parametrize("covariate, location, dispersion", [
        ("period", SubmodelSpec(("intercept", "age", "period"), use_offset=True),
         SubmodelSpec()),
        ("age", SubmodelSpec(("intercept", "period"),
                             (SplineTerm(kind="ncs", covariate="age", lam=10.0),),
                             use_offset=True),
         SubmodelSpec()),
        ("age", SubmodelSpec(("intercept",), use_offset=True),
         SubmodelSpec(("intercept", "age"))),
        ("period", SubmodelSpec(("intercept", "age"), use_offset=True),
         SubmodelSpec(("intercept",), (SplineTerm(kind="psp", covariate="period",
                                                  basis_dim=6, lam=10.0),))),
    ])
    def test_single_age_or_period_is_invalid_input(self, covariate, location, dispersion,
                                                   logsym_table):
        spec = ModelSpec(generator=normal_spec(), location=location, dispersion=dispersion)
        t = logsym_table
        keep = getattr(t, covariate) == getattr(t, covariate)[0]
        single = ObservationTable(t.age[keep], t.period[keep], t.deaths[keep],
                                  t.t_value[keep], t.population[keep], meta=t.meta)
        with pytest.raises(DataValidationError, match=f"single {covariate} value"):
            fit(spec, single)

    def test_missing_lambda_without_selection(self, logsym_table):
        spec = spline_spec()
        params = FitParams(location=np.zeros(3), dispersion=np.zeros(1), lam={})
        with pytest.raises(SpecificationError):
            penalized_loglik(spec, logsym_table, params)

    @pytest.mark.parametrize("evaluate", [penalized_loglik, penalized_score],
                             ids=["loglik", "score"])
    def test_wrong_parameter_lengths(self, evaluate, logsym_table):
        params = FitParams(location=np.zeros(2), dispersion=np.zeros(20), lam={})
        with pytest.raises(SpecificationError, match="parameter lengths 2/20"):
            evaluate(spline_spec(), logsym_table, params)


class TestAcrossFamilies:
    @pytest.mark.parametrize("gen", [
        GeneratorSpec(family="student", nu=5.0),
        GeneratorSpec(family="powerexp", zeta=0.4),
        GeneratorSpec(family="powerexp", zeta=-0.4),
        GeneratorSpec(family="contnormal", nu1=0.15, nu2=0.25),
    ], ids=lambda g: g.label())
    def test_families_converge_on_matched_data(self, gen):
        table = small_logsym_table(seed=21, phi=0.03, generator=gen)
        f = fit(plain_spec(generator=gen), table)
        assert f.converged
        assert abs(f.beta[1] - 0.075) < 0.02


# ---------------------------------------------------------------------------
# reference evaluation: both predictors at every point, one finiteness test
# per intermediate, the penalty summed location terms first

def _reference_objective(design, th_loc, th_disp, lam):
    mu = design.offset + design.loc.G @ th_loc
    logphi = design.disp.G @ th_disp
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logphi))):
        return -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        sphi = np.exp(0.5 * logphi)
        z = (design.y - mu) / sphi
        if not np.all(np.isfinite(z)):
            return -math.inf
        lp = logsym_family.logpdf(design.generator, z)
    if not np.all(np.isfinite(lp)):
        return -math.inf
    ll = float(np.sum(lp) - 0.5 * np.sum(logphi))
    penalty = 0.0
    for half, th in ((design.loc, th_loc), (design.disp, th_disp)):
        for ti in half.terms:
            a = th[ti.sl]
            penalty += 0.5 * lam[ti.label] * float(a @ ti.block.K @ a)
    return ll - penalty


def _reference_fd_grad_norm(design, th_loc, th_disp, lam):
    stacked = np.concatenate([th_loc, th_disp])
    n_loc = len(th_loc)
    scales = np.concatenate([design.loc.col_scale, design.disp.col_scale])
    logphi = design.disp.G @ th_disp
    zstep = 1e-4 * float(np.exp(0.5 * np.median(logphi)))

    def f(vec):
        return _reference_objective(design, vec[:n_loc], vec[n_loc:], lam)

    worst = 0.0
    for i in range(len(stacked)):
        h = max(zstep / max(1.0, scales[i]), 1e-9)
        e = np.zeros_like(stacked)
        e[i] = 1.0
        g = (f(stacked - 2 * h * e) - 8.0 * f(stacked - h * e)
             + 8.0 * f(stacked + h * e) - f(stacked + 2 * h * e)) / (12.0 * h)
        worst = max(worst, abs(g))
    return worst


def _fresh_predictors(design, th_loc, th_disp):
    return design.offset + design.loc.G @ th_loc, design.disp.G @ th_disp


def _halving_search(step, design, th_loc, th_disp, lam, L_cur, max_halvings):
    """The objective and ascent direction that ``step`` hands to its
    halving search, captured without running the search, with the
    predictors recomputed from the coefficients."""
    seen = {}

    def capture(evalf, th, direction, L_cur, pred, max_halvings):
        seen.update(evalf=evalf, direction=direction)
        return th, L_cur, pred, False

    with mock.patch.object(logsym_fit, "_halving_accept", capture):
        step(design, th_loc, th_disp, *_fresh_predictors(design, th_loc, th_disp), lam,
             L_cur, max_halvings)
    return seen["evalf"], seen["direction"]


def _reference_step(step, moves_location):
    """``step`` with its predictors recomputed from the coefficients, its
    halving search run on ``_reference_objective``, and the predictor it
    returns recomputed from the point it returns."""
    def reference(design, th_loc, th_disp, mu, logphi, lam, L_cur, max_halvings):
        _, direction = _halving_search(step, design, th_loc, th_disp, lam, L_cur,
                                       max_halvings)
        if moves_location:
            def f(th):
                return _reference_objective(design, th, th_disp, lam), None
            start = th_loc
        else:
            def f(th):
                return _reference_objective(design, th_loc, th, lam), None
            start = th_disp
        th, L, _, ok = logsym_fit._halving_accept(f, start, direction, L_cur, None,
                                                  max_halvings)
        if moves_location:
            return th, L, _fresh_predictors(design, th, th_disp)[0], ok
        return th, L, _fresh_predictors(design, th_loc, th)[1], ok
    return reference


FOUR_FAMILIES = [
    normal_spec(),
    GeneratorSpec(family="student", nu=5.0),
    GeneratorSpec(family="powerexp", zeta=0.4),
    GeneratorSpec(family="contnormal", nu1=0.15, nu2=0.25),
]


class TestObjectiveAtPredictors:
    @pytest.mark.parametrize("make_spec", [spline_spec, two_term_spec],
                             ids=["one-term", "two-term"])
    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_fit_matches_reference_bit_for_bit(self, gen, make_spec, monkeypatch):
        table = small_logsym_table(seed=31, phi=0.04, generator=gen)
        spec = make_spec(generator=gen)
        f = fit(spec, table)
        for name, reference in (
                ("_eval_objective", _reference_objective),
                ("_fd_grad_norm", _reference_fd_grad_norm),
                ("_location_step", _reference_step(logsym_fit._location_step, True)),
                ("_dispersion_step", _reference_step(logsym_fit._dispersion_step, False))):
            monkeypatch.setattr(logsym_fit, name, reference)
        ref = fit(spec, table)
        assert f.trace == ref.trace
        assert f.grad_norm == ref.grad_norm
        assert (f.converged, f.iterations, f.aic) == (ref.converged, ref.iterations, ref.aic)
        assert np.array_equal(f.params.location, ref.params.location)
        assert np.array_equal(f.params.dispersion, ref.params.dispersion)

    @pytest.mark.parametrize("make_spec", [spline_spec, two_term_spec],
                             ids=["one-term", "two-term"])
    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_steps_match_reference_bit_for_bit(self, gen, make_spec):
        # every trial point of each halving search, accepted or not, and
        # each step's outcome, at the start and after a few sweeps
        table = small_logsym_table(seed=32, phi=0.04, generator=gen)
        spec = make_spec(generator=gen)
        design = logsym_fit._build_design(spec, table)
        lam = logsym_fit._resolve_lambdas({}, design)
        halvings = 8
        th_loc, th_disp = logsym_fit._initial_params(design)
        L = logsym_fit._eval_objective(design, th_loc, th_disp, lam)
        assert L == _reference_objective(design, th_loc, th_disp, lam)
        mu, logphi = _fresh_predictors(design, th_loc, th_disp)
        for _ in range(4):
            for step, moves_location in ((logsym_fit._location_step, True),
                                         (logsym_fit._dispersion_step, False)):
                evalf, direction = _halving_search(step, design, th_loc, th_disp, lam, L,
                                                   halvings)
                start = th_loc if moves_location else th_disp
                for k in range(halvings + 1):
                    trial = start + 0.5 ** k * direction
                    point = (trial, th_disp) if moves_location else (th_loc, trial)
                    value, pred = evalf(trial)
                    assert value == _reference_objective(design, *point, lam)
                    assert np.array_equal(
                        pred, _fresh_predictors(design, *point)[0 if moves_location else 1])
                args = (design, th_loc, th_disp, mu, logphi, lam, L, halvings)
                out = step(*args)
                ref = _reference_step(step, moves_location)(*args)
                assert np.array_equal(out[0], ref[0]) and np.array_equal(out[2], ref[2])
                assert (out[1], out[3]) == (ref[1], ref[3])
                if moves_location:
                    th_loc, L, mu = out[:3]
                else:
                    th_disp, L, logphi = out[:3]

    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_grad_norm_matches_reference_away_from_optimum(self, gen, logsym_table):
        spec = two_term_spec(generator=gen)
        f = fit(spec, logsym_table)
        rng = np.random.default_rng(5)
        th_loc = f.params.location + rng.normal(scale=1e-2, size=f.params.location.shape)
        th_disp = f.params.dispersion + rng.normal(scale=1e-2,
                                                   size=f.params.dispersion.shape)
        assert logsym_fit._fd_grad_norm(f.design, th_loc, th_disp, f.lam) == \
            _reference_fd_grad_norm(f.design, th_loc, th_disp, f.lam)

    @pytest.mark.parametrize("case", ["mu overflow", "logphi +inf", "logphi underflow",
                                      "logphi above exp range", "nan location",
                                      "nan dispersion"])
    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_unevaluable_points_match_reference(self, gen, case, logsym_table):
        spec = spline_spec(generator=gen)
        f = fit(spec, logsym_table)
        design = f.design
        th_loc, th_disp = f.params.location.copy(), f.params.dispersion.copy()
        period = design.loc.par_names.index("period")
        intercept = design.disp.par_names.index("intercept")
        if case == "mu overflow":
            th_loc[period] = 1e306
        elif case == "logphi +inf":
            th_disp[intercept] = math.inf
        elif case == "logphi underflow":
            th_disp[intercept] = -2000.0
        elif case == "logphi above exp range":
            th_disp[intercept] = 2000.0
        elif case == "nan location":
            th_loc[0] = math.nan
        else:
            th_disp[-1] = math.nan
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu, logphi = logsym_fit._mu_phi(design, th_loc, th_disp)
            sphi = np.exp(0.5 * logphi)
            expected = _reference_objective(design, th_loc, th_disp, f.lam)
            got = logsym_fit._eval_objective(design, th_loc, th_disp, f.lam)
        if case == "mu overflow":
            assert np.all(np.isinf(mu))
        elif case == "logphi +inf":
            assert np.all(logphi == math.inf)
        elif case == "logphi underflow":
            assert np.all(sphi == 0.0)
        elif case == "logphi above exp range":
            # sphi overflows, z is 0 and the likelihood stays finite
            assert np.all(sphi == math.inf) and math.isfinite(expected)
        if case != "logphi above exp range":
            assert expected == -math.inf
        assert got == expected


class TestSelectionLog:
    SELECT_GRID = tuple(np.geomspace(1e-1, 1e5, 7))

    def test_linear_truth_warns_at_the_top_edge(self, logsym_table, caplog):
        caplog.set_level(logging.DEBUG, logger="logsymrate")
        spec = select_spec(grid=self.SELECT_GRID)
        lam = select_lambda(spec, logsym_table, "location:ncs(age)")
        assert lam == self.SELECT_GRID[-1]
        grid_lines = [r for r in caplog.records
                      if r.levelno == logging.DEBUG and "AIC" in r.getMessage()]
        assert len(grid_lines) == len(self.SELECT_GRID)
        assert all(r.name == "logsymrate" for r in caplog.records)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "location:ncs(age)" in warnings[0] and "edge of the grid" in warnings[0]

    def test_interior_winner_does_not_warn(self, caplog):
        caplog.set_level(logging.DEBUG, logger="logsymrate")
        table = small_nonlinear_table()
        spec = select_spec(grid=self.SELECT_GRID)
        lam = select_lambda(spec, table, "location:ncs(age)")
        assert self.SELECT_GRID[0] < lam < self.SELECT_GRID[-1]
        assert sum("AIC" in r.getMessage() for r in caplog.records) == len(self.SELECT_GRID)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
