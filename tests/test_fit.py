"""The alternating penalized fitting engine.

The analytic score is validated against finite differences of the
public penalized objective, and every fit's stored trace must be
nondecreasing. The objective evaluated at the linear predictors is held
bit for bit to a reference that recomputes both predictors at every
point and tests each intermediate for finiteness.
"""

import copy
import dataclasses
import functools
import json
import logging
import math
import multiprocessing
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import hilbert

from logsymrate import logsym_family, logsym_fit, poisson_glm, specio, spline_bases
from logsymrate import (
    FitParams,
    GeneratorSpec,
    ModelSpec,
    SplineTerm,
    SubmodelSpec,
    TruthSpec,
    apply_zero_policy,
    build_term_block,
    fit,
    fit_poisson,
    fitted_log_rate,
    normal_spec,
    penalized_loglik,
    residuals,
    simulate_table,
)
from logsymrate.data_ingest import ObservationTable, TableMeta
from logsymrate.errors import (
    DataValidationError,
    EvaluationError,
    RankDeficiencyError,
    SpecificationError,
)

from .conftest import (
    AGES,
    ALL_GENERATORS,
    LINEAR_TRUTH,
    PERIODS,
    plain_spec,
    small_logsym_table,
    small_poisson_table,
)
from .test_cli_pool import DOCS as POOL_DOCS
from .test_diagnostics import assert_no_child_left


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


def select_lambda(spec, table, label):
    """The grid value that ``fit`` selects for the term ``label`` when it is
    the first term left to selection."""
    return logsym_fit._grid_select(spec, logsym_fit._build_design(spec, table), {}, label)[0]


def stacked_score(spec, table, params):
    """Analytic penalized score at ``params``, location block first."""
    design = logsym_fit._build_design(spec, table)
    return np.concatenate(logsym_fit._analytic_scores(design, params.location,
                                                      params.dispersion, params.lam))


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
        s = stacked_score(spec, logsym_table, params)
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
        s = stacked_score(f.spec, logsym_table, f.params)
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
            assert logsym_fit._grid_fit(spec, design, lam)[0] == aic
            if aic < best_aic - 1e-9:
                best_lam, best_aic = cand, aic
            elif aic <= best_aic + 1e-9:
                best_lam = cand
        assert select_lambda(spec, logsym_table, "location:ncs(age)") == best_lam

    def test_selection_does_not_depend_on_the_grid_order(self, monkeypatch):
        # a term not yet selected is held at the geometric midpoint of the
        # grid's smallest and largest values, 100 here, in any order; held at
        # the first and last values listed, the second order selected 100
        truth = TruthSpec(ages=tuple(range(40, 70, 3)), periods=tuple(range(2000, 2008)),
                          beta0=-9.0, beta_age=0.07,
                          f_age=lambda a: 0.3 * math.exp(-((a - 55.0) / 5.0) ** 2),
                          noise="logsym", generator=normal_spec(), phi=0.03, population=1e5)
        table = apply_zero_policy(simulate_table(truth, 1).table, "add_half")
        held = []
        real = logsym_fit._grid_fit
        monkeypatch.setattr(logsym_fit, "_grid_fit", lambda spec, design, lam: held.append(
            lam["dispersion:psp(age)"]) or real(spec, design, lam))
        monkeypatch.setattr(logsym_fit, "_cpu_count", lambda: 1)
        got = []
        for grid in ((1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8), (1.0, 1e-4, 1e-2, 1e2, 1e4, 1e6, 1e8)):
            held.clear()
            f = fit(dataclasses.replace(spline_spec(None, None), lambda_grid=grid), table)
            assert held[:len(grid)] == [100.0] * len(grid)
            got.append((f.lam, f.aic))
        assert got[0] == got[1]
        assert got[0][0] == {"location:ncs(age)": 1e4, "dispersion:psp(age)": 1e-2}

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


class TestDerivedFields:
    def test_fields_are_read_from_params_and_design(self, logsym_table):
        f = fit(two_term_spec(), logsym_table)
        loc, disp = f.params.location, f.params.dispersion
        assert np.array_equal(f.beta, loc[:1]) and np.shares_memory(f.beta, loc)
        assert np.array_equal(f.gamma, disp[:1]) and np.shares_memory(f.gamma, disp)
        assert (f.beta_names, f.gamma_names) == (("intercept",), ("intercept",))
        assert f.lam is f.params.lam and f.cell_keys == logsym_table.cell_keys
        coefs = f.spline_coefs
        # ncs(period) sits in both submodels: each half keeps its own slice
        assert list(coefs) == list(f.lam) == [
            "location:ncs(age)", "location:ncs(period)",
            "dispersion:psp(age)", "dispersion:ncs(period)"]
        assert np.array_equal(np.concatenate([coefs["location:ncs(age)"],
                                              coefs["location:ncs(period)"]]), loc[1:])
        assert np.array_equal(np.concatenate([coefs["dispersion:psp(age)"],
                                              coefs["dispersion:ncs(period)"]]), disp[1:])

    def test_coefficients_are_read_only(self, logsym_table):
        f = fit(plain_spec(), logsym_table)
        for th in (f.params.location, f.params.dispersion, f.beta, f.gamma):
            with pytest.raises(ValueError, match="read-only"):
                th[0] = 1.0
        with pytest.raises(AttributeError):
            f.beta = np.zeros(3)

    def test_params_hold_float_copies(self):
        loc = np.zeros(2)
        params = FitParams(location=loc, dispersion=[0])
        loc[0] = 1.0
        assert params.location[0] == 0.0 and params.dispersion.dtype == float


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

    @pytest.mark.parametrize("build, field", [
        (lambda: SubmodelSpec(covariates="intercept"), "submodel covariates"),
        (lambda: SubmodelSpec(terms="ncs"), "submodel terms"),
        (lambda: plain_spec(lambda_grid="12"), "lambda_grid"),
        (lambda: TruthSpec(ages="40", periods=(2000.0,)), "ages"),
        (lambda: TruthSpec(ages=(40.0,), periods="2000"), "periods"),
        (lambda: fit_poisson(small_poisson_table(), "intercept"), "covariates"),
    ], ids=["covariates", "terms", "lambda_grid", "ages", "periods", "poisson-covariates"])
    def test_string_where_a_list_belongs_rejected(self, build, field):
        # it was read one character at a time: "12" as the grid (1.0, 2.0)
        with pytest.raises(SpecificationError, match=f"^{field} must be a list, got '"):
            build()

    def test_dispersion_offset_rejected(self):
        with pytest.raises(SpecificationError):
            ModelSpec(generator=normal_spec(),
                      location=SubmodelSpec(covariates=("intercept",)),
                      dispersion=SubmodelSpec(covariates=("intercept",),
                                              use_offset=True))

    @pytest.mark.parametrize("kwargs, message", [
        ({"jacobian_adjust": "false"}, "logsym spec jacobian_adjust must be true or false"),
        ({"jacobian_adjust": 1}, "logsym spec jacobian_adjust must be true or false"),
        ({"location": SubmodelSpec(("intercept", "age"), use_offset="no")},
         "location submodel use_offset must be true or false"),
        ({"dispersion": SubmodelSpec(("intercept",), use_offset="no")},
         "dispersion submodel use_offset must be true or false"),
        ({"tol_loglik": True}, "tol_loglik must be a number"),
        ({"tol_param": True}, "tol_param must be a number"),
        ({"max_outer": True}, "max_outer must be a whole number"),
        ({"max_halvings": False}, "max_halvings must be a whole number"),
    ], ids=["jacobian-str", "jacobian-int", "location-offset", "dispersion-offset",
            "tol_loglik", "tol_param", "max_outer", "max_halvings"])
    def test_flags_take_bools_and_settings_refuse_them(self, kwargs, message):
        # the messages a spec file's reader gives for the same values
        base = dict(generator=normal_spec(), location=SubmodelSpec(("intercept",)))
        with pytest.raises(SpecificationError, match=f"^{message}, got "):
            ModelSpec(**{**base, **kwargs})

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

    @pytest.mark.parametrize("value, rule", [
        (True, "must be a number, got True"),
        ("10", "must be a number, got '10'"),
        (math.inf, "must be positive and finite, got inf"),
        (0, "must be positive and finite, got 0"),
    ], ids=["true", "string", "inf", "zero"])
    def test_a_given_lambda_meets_the_term_rule(self, value, rule, logsym_table):
        # true was read as lambda 1, "10" raised a bare TypeError and inf an
        # EvaluationError
        params = FitParams(location=np.zeros(3), dispersion=np.zeros(1),
                           lam={"location:ncs(age)": value})
        with pytest.raises(SpecificationError, match=rf"^term location:ncs\(age\) lambda {rule}$"):
            penalized_loglik(spline_spec(), logsym_table, params)

    def test_a_lambda_label_the_design_lacks_is_refused(self, logsym_table):
        # a typo used to fall back to the term's own lambda without a word
        spec = dataclasses.replace(spline_spec(loc_lam=None), lambda_grid=(1.0, 100.0))
        f = fit(spec, logsym_table)
        assert set(f.params.lam) == {"location:ncs(age)", "dispersion:psp(age)"}
        assert math.isfinite(penalized_loglik(spec, logsym_table, f.params))
        params = dataclasses.replace(f.params, lam={"location:ncs(agee)": 1e6})
        with pytest.raises(SpecificationError,
                           match=r"^unknown term 'location:ncs\(agee\)'; the design has "
                                 r"\['dispersion:psp\(age\)', 'location:ncs\(age\)'\]$"):
            penalized_loglik(spec, logsym_table, params)

    @pytest.mark.parametrize("evaluate", [penalized_loglik], ids=["loglik"])
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


def _zeroed_counts_table(zero):
    """The 90-cell Poisson-count table, seed 9, with the cells in ``zero``
    set to zero deaths and no zero policy applied yet."""
    truth = TruthSpec(ages=AGES, periods=PERIODS, population=200000.0,
                      noise="poisson_counts", **LINEAR_TRUTH)
    raw = simulate_table(truth, 9).table
    deaths = np.where(zero(raw), 0.0, raw.deaths)
    return dataclasses.replace(raw, deaths=deaths, t_value=deaths)


class TestEdgeInputs:
    """Outcomes pinned for gaps left by ``drop`` and for many zero counts."""

    DROP_SPEC = ModelSpec(
        generator=normal_spec(),
        location=SubmodelSpec(covariates=("intercept", "period"), use_offset=True,
                              terms=(SplineTerm(kind="ncs", covariate="age", lam=10.0),)),
        dispersion=SubmodelSpec(covariates=("intercept",)),
        zero_policy="drop",
    )

    @pytest.mark.parametrize("zero, cells", [
        (lambda t: np.arange(len(t)) % 7 == 0, 77),   # ragged grid
        (lambda t: t.period == PERIODS[3], 81),       # a whole period
        (lambda t: t.age == AGES[4], 80),             # a whole age
    ], ids=["ragged", "whole-period", "whole-age"])
    def test_gaps_left_by_drop_fit(self, zero, cells):
        table = apply_zero_policy(_zeroed_counts_table(zero), "drop")
        assert len(table) == cells and table.meta.dropped == 90 - cells
        assert fit(self.DROP_SPEC, table).converged

    def test_drop_to_two_ages_is_too_few_for_ncs(self):
        table = apply_zero_policy(
            _zeroed_counts_table(lambda t: ~np.isin(t.age, AGES[:2])), "drop")
        with pytest.raises(SpecificationError,
                           match="ncs term needs at least 3 distinct covariate values, got 2"):
            fit(self.DROP_SPEC, table)

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_half_the_cells_at_zero_under_add_half(self, gen):
        # log 0.5 in 43 of 90 cells forms a heavy lower tail
        zero = np.random.default_rng(3).random(90) < 0.5
        table = apply_zero_policy(_zeroed_counts_table(lambda t: zero), "add_half")
        assert np.count_nonzero(table.t_value == 0.5) == 43
        assert fit(plain_spec(generator=gen), table).converged


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


def _reference_fd_partials(design, th_loc, th_disp, lam):
    stacked = np.concatenate([th_loc, th_disp])
    n_loc = len(th_loc)
    scales = np.concatenate([design.loc.col_scale, design.disp.col_scale])
    logphi = design.disp.G @ th_disp
    zstep = 1e-4 * float(np.exp(0.5 * np.median(logphi)))

    def f(vec):
        return _reference_objective(design, vec[:n_loc], vec[n_loc:], lam)

    partials = []
    for i in range(len(stacked)):
        h = max(zstep / max(1.0, scales[i]), 1e-9)
        e = np.zeros_like(stacked)
        e[i] = 1.0
        partials.append((f(stacked - 2 * h * e) - 8.0 * f(stacked - h * e)
                         + 8.0 * f(stacked + h * e) - f(stacked + 2 * h * e)) / (12.0 * h))
    return partials


def _reference_fd_grad_norm(design, th_loc, th_disp, lam):
    partials = _reference_fd_partials(design, th_loc, th_disp, lam)
    if np.isnan(partials).any():
        return math.nan
    return max([0.0] + [abs(g) for g in partials])


def _fresh_predictors(design, th_loc, th_disp):
    return design.offset + design.loc.G @ th_loc, design.disp.G @ th_disp


_SWEEP, _HALVING_ACCEPT = logsym_fit._sweep, logsym_fit._halving_accept


def _searches(design, th_loc, th_disp, mu, logphi, lam, L_cur, max_halvings):
    """The output of one ``_sweep`` call and the (objective, start,
    direction) of each of its halving searches, location first, captured
    as they run."""
    seen = []

    def record(evalf, th, direction, *args):
        seen.append((evalf, th, direction))
        return _HALVING_ACCEPT(evalf, th, direction, *args)

    with mock.patch.object(logsym_fit, "_halving_accept", record):
        out = _SWEEP(design, th_loc, th_disp, mu, logphi, lam, L_cur, max_halvings)
    return out, seen


def _directions(design, th_loc, th_disp, lam, L_cur, max_halvings):
    """The ascent directions that ``_sweep`` hands to its two halving
    searches, captured without running them (so the dispersion one is at
    ``th_loc``), with the predictors recomputed from the coefficients."""
    seen = []

    def capture(evalf, th, direction, L_cur, pred, max_halvings):
        seen.append(direction)
        return th, L_cur, pred, False

    with mock.patch.object(logsym_fit, "_halving_accept", capture):
        _SWEEP(design, th_loc, th_disp, *_fresh_predictors(design, th_loc, th_disp), lam,
               L_cur, max_halvings)
    return seen


def _reference_sweep(design, th_loc, th_disp, mu, logphi, lam, L_cur, max_halvings):
    """``_sweep`` with each half's direction taken from ``_directions`` at
    the point reached so far, its halving search run on
    ``_reference_objective``, and the predictors it hands on recomputed
    from the point it returns."""
    point, moved = [th_loc, th_disp], False
    for half in range(2):
        direction = _directions(design, *point, lam, L_cur, max_halvings)[half]

        def f(trial, half=half):
            at = list(point)
            at[half] = trial
            return _reference_objective(design, *at, lam), None
        point[half], L_cur, _, ok = _HALVING_ACCEPT(f, point[half], direction, L_cur, None,
                                                    max_halvings)
        moved = moved or ok
    return (*point, *_fresh_predictors(design, *point), L_cur, moved)


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
                ("_sweep", _reference_sweep)):
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
        # every trial point of both halving searches of a sweep, accepted or
        # not, and each sweep's outcome, at the start and after a few sweeps
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
            args = (design, th_loc, th_disp, mu, logphi, lam, L, halvings)
            out, searches = _searches(*args)
            assert len(searches) == 2
            # the location search holds th_disp, and the dispersion search
            # the location point the sweep accepted
            for half, (evalf, start, direction) in enumerate(searches):
                for k in range(halvings + 1):
                    point = [out[0], th_disp]
                    point[half] = start + 0.5 ** k * direction
                    value, pred = evalf(point[half])
                    assert value == _reference_objective(design, *point, lam)
                    assert np.array_equal(pred, _fresh_predictors(design, *point)[half])
            ref = _reference_sweep(*args)
            assert all(np.array_equal(got, want) for got, want in zip(out[:4], ref[:4]))
            assert out[4:] == ref[4:]
            th_loc, th_disp, mu, logphi, L = out[:5]

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


def mid_logsym_table(seed, generator):
    """A 782-cell table: 23 ages x 34 periods."""
    truth = TruthSpec(ages=tuple(float(a) for a in range(50, 73)),
                      periods=tuple(float(p) for p in range(1980, 2014)),
                      population=1e5, noise="logsym", generator=generator, phi=0.03,
                      **LINEAR_TRUTH)
    return apply_zero_policy(simulate_table(truth, seed).table, "add_half")


@pytest.fixture(scope="module")
def big_table():
    """The 2,000-cell table of the CLI pool tests: 20 age bands x 100 years."""
    return apply_zero_policy(
        simulate_table(specio.parse_truth_spec(POOL_DOCS["big"]), 0).table, "add_half")


def big_spec(generator):
    """The CLI pool tests' select spec at a fixed lambda, with 219 coefficients:
    on ``big_table`` its design is above ``_LARGE_DESIGN_WORK``."""
    doc = copy.deepcopy(POOL_DOCS["select"])
    doc["location"]["terms"][0]["lambda"] = 1.0
    return dataclasses.replace(specio.parse_model_spec(doc), generator=generator)


def _design_and_lam(spec, table):
    design = logsym_fit._build_design(spec, table)
    return design, logsym_fit._resolve_lambdas({}, design)


def _counted_partials(monkeypatch):
    """Record every partial that ``_fd_partials`` hands to its caller."""
    seen = []
    real = logsym_fit._fd_partials

    def partials(*args):
        for g in real(*args):
            seen.append(g)
            yield g
    monkeypatch.setattr(logsym_fit, "_fd_partials", partials)
    return seen


class TestBatchedStencil:
    @pytest.mark.parametrize("make_spec", [spline_spec, two_term_spec],
                             ids=["one-term", "two-term"])
    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_partials_match_reference_at_782_cells(self, gen, make_spec):
        # parametric coefficients belong to no term, so both penalty paths run
        spec = make_spec(generator=gen)
        design, lam = _design_and_lam(spec, mid_logsym_table(41, gen))
        assert len(design.y) == 782
        th_loc, th_disp, *_ = logsym_fit._optimize(dataclasses.replace(spec, max_outer=6),
                                                   design, lam)
        got = list(logsym_fit._fd_partials(design, th_loc, th_disp, lam))
        ref = _reference_fd_partials(design, th_loc, th_disp, lam)
        assert np.array_equal(got, ref, equal_nan=True)
        assert logsym_fit._fd_grad_norm(design, th_loc, th_disp, lam) == \
            _reference_fd_grad_norm(design, th_loc, th_disp, lam)

    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_partials_match_reference_above_the_column_threshold(self, gen, big_table):
        # each point moved along its coefficient's column, not recomputed,
        # moves a partial by roundoff: 5.7e-8 at most, measured
        spec = big_spec(gen)
        f = fit(spec, big_table)
        design, th_loc, th_disp = f.design, f.params.location, f.params.dispersion
        assert len(design.y) * (len(th_loc) + len(th_disp)) >= \
            logsym_fit._LARGE_DESIGN_WORK
        assert design.large
        got = list(logsym_fit._fd_partials(design, th_loc, th_disp, f.lam))
        ref = _reference_fd_partials(design, th_loc, th_disp, f.lam)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-5
        assert f.grad_norm == functools.reduce(lambda worst, g: max(worst, abs(g)), got, 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("gen, converges", [
        (normal_spec(), True), (GeneratorSpec(family="powerexp", zeta=0.4), False)],
        ids=["normal", "powerexp"])
    def test_replicate_verdict_stops_at_first_failing_partial(self, gen, converges, seed,
                                                              monkeypatch):
        spec = spline_spec(generator=gen)
        _check_replicate_verdict(spec, mid_logsym_table(seed, gen), converges, monkeypatch)

    @pytest.mark.parametrize("gen, converges", [
        (normal_spec(), True), (GeneratorSpec(family="powerexp", zeta=0.4), False)],
        ids=["normal", "powerexp"])
    def test_replicate_verdict_above_the_column_threshold(self, gen, converges, big_table,
                                                          monkeypatch):
        _check_replicate_verdict(big_spec(gen), big_table, converges, monkeypatch)

    @pytest.mark.parametrize("partials", [[math.nan, 0.0], [math.nan, 2e-4]],
                             ids=["nan-then-pass", "nan-then-fail"])
    def test_nan_partial_fails(self, partials, logsym_table, monkeypatch):
        # the replicate verdict and grad_norm read the same partials: a NaN
        # one fails both, and fit.json writes the NaN grad_norm as null
        spec = plain_spec()
        design, lam = _design_and_lam(spec, logsym_table)
        seen = []

        def partials_read(*args):
            for g in partials:
                seen.append(g)
                yield g
        monkeypatch.setattr(logsym_fit, "_fd_partials", partials_read)
        assert logsym_fit._replicate_fit(spec, design, lam).converged is False
        assert len(seen) == 1
        f = fit(spec, logsym_table)
        assert math.isnan(f.grad_norm) and f.converged is False
        doc = json.loads(specio.dump_json(specio.fit_to_dict(f)))
        assert doc["grad_norm"] is None and doc["converged"] is False


def _check_replicate_verdict(spec, table, converges, monkeypatch):
    """A replicate's verdict is the final fit's: it reads every partial of a
    converging fit, and stops at the first one over the bound otherwise."""
    design, lam = _design_and_lam(spec, table)
    th_loc, th_disp, criteria_met, *_ = logsym_fit._optimize(spec, design, lam)
    grad_norm = logsym_fit._fd_grad_norm(design, th_loc, th_disp, lam)
    seen = _counted_partials(monkeypatch)
    rep = logsym_fit._replicate_fit(spec, design, lam)
    assert criteria_met
    assert rep.converged == (grad_norm <= logsym_fit.GRAD_NORM_BOUND) == converges
    n_coef = len(th_loc) + len(th_disp)
    if converges:
        assert len(seen) == n_coef
    else:
        assert 0 < len(seen) < n_coef and abs(seen[-1]) > logsym_fit.GRAD_NORM_BOUND
        assert all(not abs(g) > logsym_fit.GRAD_NORM_BOUND for g in seen[:-1])
    assert np.array_equal(rep.location, th_loc) and np.array_equal(rep.dispersion, th_disp)


def _dense_gram(G, w, half, lam):
    """The literal dense penalized Gram product of a half."""
    H = G.T @ (w[:, None] * G)
    for ti in half.terms:
        H[ti.sl, ti.sl] += lam[ti.label] * ti.block.K
    return H


def _dense_products(design, th_loc, th_disp, lam):
    """(observed information, location Gram, dispersion information, each
    term's edf at the location weights and lambda 3), each from literal
    dense products over every cell."""
    mu, logphi = logsym_fit._mu_phi(design, th_loc, th_disp)
    w_loc = logsym_fit._location_weights(design, mu, logphi)[1]
    d_ll, d_ld, d_dd = logsym_fit._observed_weights(design, mu, logphi)
    X, W = design.loc.G, design.disp.G
    hessian = np.block([[_dense_gram(X, d_ll, design.loc, lam), X.T @ (d_ld[:, None] * W)],
                        [W.T @ (d_ld[:, None] * X), _dense_gram(W, d_dd, design.disp, lam)]])
    edf = []
    for ti in design.term_infos:
        B = ti.block.B
        A = B.T @ (w_loc[:, None] * B)
        edf.append(float(np.trace(poisson_glm._equilibrated_inverse(A + 3.0 * ti.block.K) @ A)))
    return hessian, _dense_gram(X, w_loc, design.loc, lam), design.kappa * (W.T @ W), edf


def _binned_products(design, th_loc, th_disp, lam):
    """``_dense_products`` from the package's own functions."""
    w_loc = logsym_fit._location_weights(design, *logsym_fit._mu_phi(design, th_loc, th_disp))[1]
    return (logsym_fit._observed_hessian(design, th_loc, th_disp, lam),
            logsym_fit._gram(design.loc, w_loc, lam), design.disp_info,
            [logsym_fit._term_edf(ti, w_loc, 3.0) for ti in design.term_infos])


def _scattered_gaps(table):
    """``table`` without a scattered tenth of its cells, as ``drop`` leaves
    it: (age, period) pairs go missing, but every age and period stays."""
    gone = np.random.default_rng(3).choice(len(table), len(table) // 10, replace=False)
    keep = np.ones(len(table), dtype=bool)
    keep[gone] = False
    return dataclasses.replace(table, **{name: getattr(table, name)[keep] for name in (
        "age", "period", "deaths", "t_value", "population")})


def _parametric_pair_spec(generator):
    """Parametric age and period in location, parametric age and ncs(period)
    in dispersion (one half may not hold period both ways)."""
    return ModelSpec(
        generator=generator,
        location=SubmodelSpec(covariates=("intercept", "age", "period"), use_offset=True),
        dispersion=SubmodelSpec(covariates=("intercept", "age"),
                                terms=(SplineTerm(kind="ncs", covariate="period", lam=100.0),)))


class TestBinnedProducts:
    @pytest.mark.parametrize("case", ["two-covariate location", "scattered gaps",
                                      "intercept-only dispersion", "parametric age and period"])
    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_binned_products_match_the_dense_ones(self, gen, case, big_table, monkeypatch):
        # binning sums the weights before the products, which moves entries by
        # roundoff: 5.3e-15 of the largest and edf by 1.6e-15 at most, measured
        table, spec = big_table, big_spec(gen)
        if case == "scattered gaps":
            table = _scattered_gaps(big_table)
            assert len(table) == 1800
            assert len(np.unique(table.age)) * len(np.unique(table.period)) == 2000
        elif case == "intercept-only dispersion":
            spec = dataclasses.replace(spec, dispersion=SubmodelSpec())
        elif case == "parametric age and period":
            spec = _parametric_pair_spec(gen)
        # any design is binned at a zero bound, where the rule leaves some of these dense
        monkeypatch.setattr(logsym_fit, "_LARGE_DESIGN_WORK", 0)
        design, lam = _design_and_lam(spec, table)
        assert design.large
        halves = (design.loc, design.disp) + tuple(design.term_infos)
        for half in halves:
            # a part's rows at the distinct values give its columns, bit for bit
            for part in half.parts:
                assert np.array_equal(half.G[:, part.cols], part.U[part.inv])
            cols = np.sort(np.concatenate([part.cols for part in half.parts]))
            assert np.array_equal(cols, np.arange(half.G.shape[1]))
        assert {p.covariate for p in design.loc.parts} == {"age", "period"}
        if case == "intercept-only dispersion":
            assert design.disp.G.shape[1] == 1 and len(design.disp.parts) == 1
        th_loc, th_disp, *_ = logsym_fit._optimize(dataclasses.replace(spec, max_outer=2),
                                                   design, lam)
        got = _binned_products(design, th_loc, th_disp, lam)
        ref = _dense_products(design, th_loc, th_disp, lam)
        for g, r in zip(got[:3], ref[:3]):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
        assert got[3] == pytest.approx(ref[3], rel=1e-12, abs=0)

    @pytest.mark.parametrize("make_spec", [spline_spec, two_term_spec],
                             ids=["one-term", "two-term"])
    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_products_below_the_rule_are_the_dense_ones_bit_for_bit(self, gen, make_spec):
        # the 782-cell verdicts (select exit codes, envelope failures) rest on these bits
        spec = make_spec(generator=gen)
        design, lam = _design_and_lam(spec, mid_logsym_table(41, gen))
        assert len(design.y) == 782 and not design.large
        assert all(not half.parts for half in (design.loc, design.disp, *design.term_infos))
        th_loc, th_disp, *_ = logsym_fit._optimize(dataclasses.replace(spec, max_outer=3),
                                                   design, lam)
        got = _binned_products(design, th_loc, th_disp, lam)
        ref = _dense_products(design, th_loc, th_disp, lam)
        for g, r in zip(got[:3], ref[:3]):
            assert np.array_equal(g, r)
        assert got[3] == ref[3]


def _recorded_maps(monkeypatch):
    """Record, for each ``_map_in_order`` call, whether forked workers ran
    its tasks."""
    forked = []
    real = logsym_fit._map_in_order

    def recording(fn, m):
        out = real(lambda i: (os.getpid(), fn(i)), m)
        forked.append(any(pid != os.getpid() for pid, _ in out))
        return [got for _, got in out]
    monkeypatch.setattr(logsym_fit, "_map_in_order", recording)
    return forked


def _pooled(monkeypatch):
    """Send every map, a grid's or any other, to a pool of two forked
    workers, whatever threads the BLAS runs."""
    monkeypatch.setattr(logsym_fit, "_cpu_count", lambda: 2)
    monkeypatch.setattr(logsym_fit, "_THREADED", False)


@pytest.fixture
def deadline():
    """Fail a test that has not ended within 30 s, where it would hang."""
    def expired(signum, frame):
        raise TimeoutError("the test did not end within 30 s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _select_outcome(spec, table):
    """What a fit with selection reports, by its bits."""
    f = fit(spec, table)
    return (f.params.lam, f.grad_norm, f.converged, f.params.location.tobytes(),
            f.params.dispersion.tobytes())


class TestPooledLoops:
    @pytest.mark.parametrize("point, columns", [
        ("fitted", False), ("nan partials", False), ("fitted", True), ("nan partials", True)],
        ids=["fitted", "nan partials", "fitted-columns", "nan partials-columns"])
    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_stencil_matches_serial(self, gen, columns, point, monkeypatch):
        # a pool that would take any map does not take the stencil: grad_norm
        # is the in-order fold of the partials, NaN if one is, on each path
        if columns:
            # every design is large, so the stencil moves points along columns
            monkeypatch.setattr(logsym_fit, "_LARGE_DESIGN_WORK", 0)
        f = fit(spline_spec(generator=gen), small_logsym_table(seed=33, generator=gen))
        design, th_loc, th_disp = f.design, f.params.location, f.params.dispersion.copy()
        assert design.large == columns
        if point == "nan partials":
            # exp(0.5 log phi) overflows at some stencil points and not others
            th_disp[design.disp.par_names.index("intercept")] = 1416.0
        serial = list(logsym_fit._fd_partials(design, th_loc, th_disp, f.lam))
        assert np.isnan(serial).any() == (point == "nan partials")
        # the max in coefficient order, as one serial loop takes it
        grad_norm = math.nan if point == "nan partials" else \
            functools.reduce(lambda worst, g: max(worst, abs(g)), serial, 0.0)
        _pooled(monkeypatch)
        forked = _recorded_maps(monkeypatch)
        assert np.array_equal(logsym_fit._fd_grad_norm(design, th_loc, th_disp, f.lam),
                              grad_norm, equal_nan=True)
        assert np.array_equal(list(logsym_fit._fd_partials(design, th_loc, th_disp, f.lam)),
                              serial, equal_nan=True)
        assert forked == []

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pooled"])
    def test_every_partial_is_read(self, pool, logsym_table, monkeypatch):
        design, lam = _design_and_lam(plain_spec(), logsym_table)
        th_loc, th_disp = logsym_fit._initial_params(design)
        if pool:
            _pooled(monkeypatch)
        forked = _recorded_maps(monkeypatch)
        # the largest partial, or a NaN one, wherever it is
        for k in range(5):
            partials = [0.125, 0.5, -0.25, 0.0, 1e-3]
            monkeypatch.setattr(logsym_fit, "_fd_partials", lambda *args: iter(partials))
            partials[k] = -2.0
            assert logsym_fit._fd_grad_norm(design, th_loc, th_disp, lam) == 2.0
            partials[k] = math.nan
            assert math.isnan(logsym_fit._fd_grad_norm(design, th_loc, th_disp, lam))
        assert forked == []

    def test_grid_matches_serial(self, logsym_table, caplog, monkeypatch):
        grid = TestSelectionLog.SELECT_GRID
        spec = select_spec(grid=grid)
        real = logsym_fit._grid_fit

        def failing_at_10(spec, design, lam):
            if lam["location:ncs(age)"] == 10.0:
                raise EvaluationError("forced grid failure")
            return real(spec, design, lam)
        monkeypatch.setattr(logsym_fit, "_grid_fit", failing_at_10)
        caplog.set_level(logging.DEBUG, logger="logsymrate")
        outcomes = []
        for pool in (False, True):
            if pool:
                _pooled(monkeypatch)
            forked = _recorded_maps(monkeypatch)
            caplog.clear()
            lam = select_lambda(spec, logsym_table, "location:ncs(age)")
            outcomes.append((lam, [(r.levelno, r.getMessage()) for r in caplog.records]))
            assert forked == [pool]
        assert outcomes[0] == outcomes[1]
        lam, records = outcomes[0]
        assert lam == grid[-1] and records[-1][0] == logging.WARNING
        assert (logging.DEBUG, "select location:ncs(age): lambda 10 failed: "
                "forced grid failure") in records

    def test_a_grid_of_any_size_forks_and_the_stencil_never_maps(self, logsym_table,
                                                                 monkeypatch):
        # two lambdas on 90 cells fork, as 30 do on 782
        monkeypatch.setattr(logsym_fit, "_cpu_count", lambda: 2)
        monkeypatch.setattr(logsym_fit, "_THREADED", False)
        forked = _recorded_maps(monkeypatch)
        design, lam = _design_and_lam(spline_spec(), logsym_table)
        th_loc, th_disp = logsym_fit._initial_params(design)
        logsym_fit._fd_grad_norm(design, th_loc, th_disp, lam)
        assert forked == []
        spec = select_spec(grid=(1.0, 100.0))
        pooled = _select_outcome(spec, logsym_table)
        assert forked == [True]
        # not in a process with other threads, such as a multi-threaded BLAS's
        monkeypatch.setattr(logsym_fit, "_THREADED", True)
        assert _select_outcome(spec, logsym_table) == pooled
        assert forked == [True, False]

    def test_one_worker_per_usable_cpu_and_task(self, monkeypatch):
        sizes = []
        real = logsym_fit._fork_map
        monkeypatch.setattr(logsym_fit, "_fork_map",
                            lambda fn, m, workers: sizes.append(workers) or real(fn, m, workers))
        monkeypatch.setattr(logsym_fit, "_cpu_count", lambda: 4)
        monkeypatch.setattr(logsym_fit, "_THREADED", False)
        for m in (1, 2, 3, 4, 30):
            assert logsym_fit._map_in_order(lambda i: -i, m) == [-i for i in range(m)]
        assert sizes == [2, 3, 4, 4]
        assert_no_child_left()

    @pytest.mark.parametrize("gen", [normal_spec(), GeneratorSpec(family="powerexp", zeta=0.4)],
                             ids=["normal", "powerexp"])
    def test_final_fit_reuses_the_winning_grid_fit(self, gen, logsym_table, monkeypatch):
        # with two select terms, the second grid's winner ran at the final
        # lambdas: the final fit takes its optimum, and writes the fit.json
        # of a final fit that runs the optimizer again; the winner, 1e4, is
        # not the last grid fit
        spec = dataclasses.replace(spline_spec(None, None, gen), lambda_grid=(1e4, 100.0, 1.0))
        calls = []
        real = logsym_fit._optimize
        monkeypatch.setattr(logsym_fit, "_optimize",
                            lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(logsym_fit, "_cpu_count", lambda: 1)
        f = fit(spec, logsym_table)
        assert len(calls) == 2 * len(spec.lambda_grid)
        again = logsym_fit._fit_resolved(spec, f.design, f.lam)
        assert len(calls) == 2 * len(spec.lambda_grid) + 1

        def fit_json(fit_result):
            return specio.dump_json(specio.fit_to_dict(fit_result))
        assert fit_json(f) == fit_json(again)
        _pooled(monkeypatch)
        forked = _recorded_maps(monkeypatch)
        assert fit_json(fit(spec, logsym_table)) == fit_json(again)
        # the two grids fork; the final fit's stencil runs in this process
        assert forked == [True, True]

    def test_a_killed_worker_is_named_by_its_exit_status(self, deadline, monkeypatch):
        _pooled(monkeypatch)

        def task(i):
            if i == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return i
        with pytest.raises(ChildProcessError, match=r"^forked worker \d+ ended with exit "
                                                    r"status -9$"):
            logsym_fit._map_in_order(task, 8)
        assert_no_child_left()

    def test_the_lowest_failing_task_raises(self, deadline, monkeypatch):
        # task 5 fails first, while the other worker is still on task 2,
        # which fails too: a serial run raises task 2's error
        _pooled(monkeypatch)

        def task(i):
            if i == 2:
                time.sleep(0.3)
                raise EvaluationError("task 2 failed")
            if i == 5:
                raise RuntimeError("task 5 failed")
            return i
        with pytest.raises(EvaluationError, match="^task 2 failed$") as info:
            logsym_fit._map_in_order(task, 8)
        assert info.type is EvaluationError
        # the worker's traceback, as the cause
        assert "in task\n    raise EvaluationError(\"task 2 failed\")" in str(info.value.__cause__)
        assert_no_child_left()

    def test_an_interrupted_wait_kills_and_reaps_every_worker(self, deadline, monkeypatch):
        import multiprocessing.connection
        _pooled(monkeypatch)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            logsym_fit._map_in_order(lambda i: time.sleep(60), 4)
        assert_no_child_left()

    def test_daemonic_process_runs_its_grid_itself(self, logsym_table, monkeypatch):
        spec = select_spec()
        serial = _select_outcome(spec, logsym_table)
        _pooled(monkeypatch)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            got = pool.apply(_select_outcome, (spec, logsym_table))
        finally:
            pool.close()
            pool.join()
        assert got == serial
        assert_no_child_left()


class TestPolishStep:
    @pytest.mark.parametrize("drop, scored, accepted", [(1.0, 0, False), (0.0, 0, True),
                                                        (1e-13, 1, True), (math.inf, 0, False)],
                             ids=["rejected", "objective-accepts", "within-noise",
                                  "unevaluable"])
    def test_trial_scored_only_within_the_noise_allowance(self, drop, scored, accepted,
                                                          logsym_table, monkeypatch):
        # a trial whose objective falls short by more than the allowance, or
        # that the objective alone accepts, computes no score; nor does an
        # unevaluable trial, whose objective is -inf
        spec = plain_spec()
        design, lam = _design_and_lam(spec, logsym_table)
        th_loc, th_disp = logsym_fit._initial_params(design)
        L = logsym_fit._eval_objective(design, th_loc, th_disp, lam)
        s_loc, s_disp = logsym_fit._analytic_scores(design, th_loc, th_disp, lam)
        scores = []
        real = logsym_fit._analytic_scores
        monkeypatch.setattr(logsym_fit, "_eval_objective", lambda *args: L - drop)
        monkeypatch.setattr(logsym_fit, "_analytic_scores",
                            lambda *args: scores.append(args) or real(*args))
        *_, ok = logsym_fit._newton_polish_step(design, th_loc, th_disp, lam, L, 0,
                                                s_loc, s_disp)
        assert (len(scores), ok) == (scored, accepted)


    @pytest.mark.parametrize("fill", [np.nan, 0.0], ids=["non-finite-direction", "singular"])
    def test_unusable_direction_falls_back_to_one_sweep(self, fill, logsym_table, monkeypatch):
        # a NaN Hessian gives a NaN direction, a zero one a LinAlgError; either
        # way the step is one sweep from here, in which both searches accept
        spec = plain_spec(generator=GeneratorSpec(family="student", nu=5.0))
        design, lam = _design_and_lam(spec, logsym_table)
        th_loc, th_disp = logsym_fit._initial_params(design)
        L = logsym_fit._eval_objective(design, th_loc, th_disp, lam)
        s_loc, s_disp = logsym_fit._analytic_scores(design, th_loc, th_disp, lam)
        loc, disp, _, _, L_disp, moved = logsym_fit._sweep(
            design, th_loc, th_disp, *logsym_fit._mu_phi(design, th_loc, th_disp), lam, L, 4)
        assert L_disp > L and moved
        assert not np.array_equal(loc, th_loc) and not np.array_equal(disp, th_disp)
        n = len(s_loc) + len(s_disp)
        monkeypatch.setattr(logsym_fit, "_observed_hessian", lambda *args: np.full((n, n), fill))
        got = logsym_fit._newton_polish_step(design, th_loc, th_disp, lam, L, 4, s_loc, s_disp)
        assert np.array_equal(got[0], loc) and np.array_equal(got[1], disp)
        assert got[2:] == (L_disp, True)


class TestDesignAssembly:
    def test_each_term_block_reads_its_own_columns_of_the_half(self, logsym_table):
        # a half keeps each basis once: a term's B is a view of its columns
        # of G, bit for bit a fresh block's, and the edf reads the same bits
        spec = dataclasses.replace(
            two_term_spec(),
            location=SubmodelSpec(covariates=("intercept",), use_offset=True,
                                  terms=(SplineTerm(kind="ncs", covariate="age", lam=10.0),
                                         SplineTerm(kind="psp", covariate="period",
                                                    basis_dim=6, lam=30.0))))
        with mock.patch.object(spline_bases, "_ncs_coefficients",
                               wraps=spline_bases._ncs_coefficients) as spy:
            design = logsym_fit._build_design(spec, logsym_table)
        assert spy.call_count == 2  # one per ncs build
        w = np.linspace(0.5, 2.0, len(design.y))
        for half in (design.loc, design.disp):
            assert {ti.term.kind for ti in half.terms} == {"ncs", "psp"}
            for ti in half.terms:
                fresh = build_term_block(ti.term, getattr(logsym_table, ti.term.covariate))
                assert np.shares_memory(ti.block.B, half.G)
                assert np.array_equal(ti.block.B, half.G[:, ti.sl])
                assert ti.block.B.tobytes() == fresh.B.tobytes()
                own = dataclasses.replace(ti, block=fresh)
                assert logsym_fit._term_edf(ti, w, 3.0) == logsym_fit._term_edf(own, w, 3.0)
        assert design.y is logsym_table.log_t  # read-only, so not copied


class TestReportedNumerics:
    """The standard errors and the edf reuse the fit's own numerics."""

    @pytest.mark.parametrize("gen", FOUR_FAMILIES, ids=lambda g: g.label())
    def test_standard_errors_invert_the_polish_information_blocks(self, gen):
        # each half's diagonal block of the Newton polish's information,
        # inverted alone, bit for bit
        f = fit(spline_spec(generator=gen), small_logsym_table(seed=31, generator=gen))
        H = logsym_fit._observed_hessian(f.design, f.params.location, f.params.dispersion,
                                         f.lam)
        n_loc = f.design.loc.G.shape[1]
        for se, block, half in ((f.beta_se, H[:n_loc, :n_loc], f.design.loc),
                                (f.gamma_se, H[n_loc:, n_loc:], f.design.disp)):
            expected = np.sqrt(np.diag(logsym_fit._equilibrated_inverse(block)))[:half.p_par]
            assert np.array_equal(se, expected)

    @pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4, 1e8])
    def test_term_edf_matches_a_dense_solve(self, lam, logsym_table):
        # within 1e-10, or within what the system's conditioning allows: at
        # lambda = 1e8 the psp system's condition number is about 5e8, and two
        # solves of it agree to about 1e-9
        f = fit(spline_spec(), logsym_table)
        weights = {"location:ncs(age)": 1.0 / f.phi_hat,  # v = 1 for the normal
                   "dispersion:psp(age)": np.full(len(f.phi_hat), f.design.kappa)}
        for ti in f.design.term_infos:
            w = weights[ti.label]
            A = ti.block.B.T @ (w[:, None] * ti.block.B)
            M = A + lam * ti.block.K
            dense = np.trace(np.linalg.solve(M, A))
            rtol = max(1e-10, np.finfo(float).eps * np.linalg.cond(M))
            assert logsym_fit._term_edf(ti, w, lam) == pytest.approx(dense, rel=rtol, abs=0)

    @pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4, 1e8])
    def test_term_edf_of_a_singular_system_is_nan(self, lam, logsym_table):
        # with w = 0 the penalty alone is left, and a penalty that leaves the
        # last coefficient free has a null space
        design, _ = _design_and_lam(spline_spec(), logsym_table)
        for ti in design.term_infos:
            K = ti.block.K.copy()
            K[-1, :] = K[:, -1] = 0.0
            free = dataclasses.replace(ti, block=dataclasses.replace(ti.block, K=K))
            assert math.isnan(logsym_fit._term_edf(free, np.zeros(len(design.y)), lam))

    @pytest.mark.parametrize("lam", [1e-4, 1.0, 1e8])
    def test_term_edf_of_the_penalty_alone_is_nan(self, lam, logsym_table):
        # with w = 0 only lambda K is left, singular on the linear functions;
        # LAPACK meets no exactly zero pivot there at 1e-4 or 1e8
        design, _ = _design_and_lam(spline_spec(), logsym_table)
        for ti in design.term_infos:
            assert math.isnan(logsym_fit._term_edf(ti, np.zeros(len(design.y)), lam))


class TestSingularSystems:
    """Each block step solves through one guarded equilibrated solve, and
    the standard errors come from one guarded inverse."""

    def start(self, table):
        design, lam = _design_and_lam(plain_spec(), table)
        th_loc, th_disp = logsym_fit._initial_params(design)
        L = logsym_fit._eval_objective(design, th_loc, th_disp, lam)
        return design, lam, th_loc, th_disp, L

    def test_singular_location_equations(self, logsym_table, monkeypatch):
        design, lam, th_loc, th_disp, L = self.start(logsym_table)
        mu, logphi = logsym_fit._mu_phi(design, th_loc, th_disp)
        monkeypatch.setattr(logsym_fit, "_gram",
                            lambda half, w, lam: np.zeros((half.G.shape[1],) * 2))
        with pytest.raises(RankDeficiencyError, match="^singular location equations: "):
            logsym_fit._sweep(design, th_loc, th_disp, mu, logphi, lam, L, 4)

    def test_singular_dispersion_equations(self, logsym_table):
        # plain_spec's dispersion half has no penalty to add to its information
        design, lam, th_loc, th_disp, L = self.start(logsym_table)
        design = dataclasses.replace(design, disp_info=np.zeros_like(design.disp_info))
        mu, logphi = logsym_fit._mu_phi(design, th_loc, th_disp)
        with pytest.raises(RankDeficiencyError, match="^singular dispersion equations: "):
            logsym_fit._sweep(design, th_loc, th_disp, mu, logphi, lam, L, 4)

    @pytest.mark.parametrize("H", [np.zeros((3, 3)), np.ones((2, 2)), hilbert(13)],
                             ids=["zero", "rank-one", "hilbert-13"])
    def test_equilibrated_inverse_of_a_singular_matrix_is_nan(self, H):
        inv = logsym_fit._equilibrated_inverse(H)
        assert inv.shape == H.shape and np.all(np.isnan(inv))

    def test_equilibrated_inverse_of_an_ill_conditioned_matrix_keeps_its_bits(self):
        # condition number about 6e12, far from 1/eps but far from 1
        H = hilbert(10) * np.geomspace(1.0, 1e6, 10)[:, None] * np.geomspace(1.0, 1e6, 10)
        Hs, d = poisson_glm._jacobi_scale(H)
        expected = np.linalg.inv(Hs) / d[:, None] / d[None, :]
        assert np.array_equal(logsym_fit._equilibrated_inverse(H), expected)

    def test_singular_information_gives_nan_standard_errors(self, logsym_table):
        design, lam, *_ = self.start(logsym_table)
        se = logsym_fit._block_se(design.loc, np.zeros(len(design.y)), lam)
        assert se.shape == (design.loc.p_par,) and np.all(np.isnan(se))


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

    @pytest.mark.parametrize("grid", [(1.0, 10.0, 100.0), (100.0, 10.0, 1.0), (10.0, 100.0, 1.0)])
    def test_tie_goes_to_the_largest_lambda_in_any_grid_order(self, logsym_table, grid,
                                                              monkeypatch):
        monkeypatch.setattr(logsym_fit, "_grid_fit", lambda *args: (5.0, None))
        assert select_lambda(select_spec(grid=grid), logsym_table, "location:ncs(age)") == 100.0

    def test_interior_winner_does_not_warn(self, caplog):
        caplog.set_level(logging.DEBUG, logger="logsymrate")
        table = small_nonlinear_table()
        spec = select_spec(grid=self.SELECT_GRID)
        lam = select_lambda(spec, table, "location:ncs(age)")
        assert self.SELECT_GRID[0] < lam < self.SELECT_GRID[-1]
        assert sum("AIC" in r.getMessage() for r in caplog.records) == len(self.SELECT_GRID)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
