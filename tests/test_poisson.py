"""Poisson log-linear rate model."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import optimize, stats

from logsymrate import (
    ObservationTable,
    SplineTerm,
    TableMeta,
    TruthSpec,
    apply_zero_policy,
    build_term_block,
    deviance_residuals,
    fit_poisson,
    fitted_log_rate_poisson,
    simulate_table,
)
from logsymrate import poisson_glm
from logsymrate.errors import DataValidationError, RankDeficiencyError
from logsymrate.logsym_fit import _build_design
from logsymrate.poisson_glm import check_full_rank, parametric_design
from logsymrate.specio import parse_model_spec

from .conftest import small_poisson_table


def tiny_table(deaths, pops, ages=None, periods=None):
    n = len(deaths)
    ages = ages or [40.0 + 5 * i for i in range(n)]
    periods = periods or [2000.0] * n
    order = np.lexsort((periods, ages))
    cols = [np.asarray(v, dtype=float)[order] for v in (ages, periods, deaths, deaths, pops)]
    return ObservationTable(*cols, meta=TableMeta(sex="female", site="x"))


class TestClosedForms:
    def test_intercept_only_is_log_rate_ratio(self):
        t = tiny_table([2, 4], [10.0, 10.0])
        fit = fit_poisson(t, ("intercept",))
        assert fit.beta[0] == pytest.approx(np.log(6.0 / 20.0), abs=1e-10)

    def test_score_equations_hold_at_fit(self):
        # at the MLE the orthogonality X'(y - mu) = 0 holds; rebuild the
        # design and means from raw columns so nothing is shared with the
        # fitting code
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age", "period"))
        X = np.column_stack([np.ones(len(table)),
                             np.asarray(table.age),
                             np.asarray(table.period)])
        mu = np.asarray(table.population) * np.exp(X @ fit.beta)
        score = X.T @ (np.asarray(table.deaths) - mu)
        assert np.max(np.abs(score)) <= 1e-8 * max(1.0, float(table.deaths.sum()))
        np.testing.assert_allclose(mu, fit.mu_hat, rtol=1e-12)

    def test_fit_is_a_loglik_maximum(self):
        # the kernel y'eta - sum(mu) is concave in beta, so beating every
        # scaled perturbation certifies the global maximum
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age", "period"))
        X = np.column_stack([np.ones(len(table)),
                             np.asarray(table.age),
                             np.asarray(table.period)])
        y = np.asarray(table.deaths)
        off = np.log(np.asarray(table.population))

        def kernel(b):
            eta = off + X @ b
            return float(y @ eta - np.exp(eta).sum())

        best = kernel(fit.beta)
        scale = 1.0 / np.sqrt(np.mean(X * X, axis=0))
        rng = np.random.default_rng(99)
        dirs = [d for d in np.eye(3)] + list(rng.standard_normal((5, 3)))
        for d in dirs:
            for t in (1e-3, 1e-1):
                for s in (t, -t):
                    assert kernel(fit.beta + s * scale * d / np.linalg.norm(d)) < best

    def test_loglik_matches_scipy(self):
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age", "period"))
        y = np.asarray(table.t_value)
        oracle = float(np.sum(stats.poisson.logpmf(np.rint(y), fit.mu_hat)))
        assert fit.loglik == pytest.approx(oracle, rel=1e-10)

    def test_aic(self):
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age", "period"))
        assert fit.aic == pytest.approx(-2 * fit.loglik + 6.0, abs=1e-10)


class TestResiduals:
    def test_zero_count_value(self):
        # intercept-only on counts (0, 4) and equal exposures fits mu = 2
        # for both cells; d = sign(y - mu) sqrt(2(y log(y/mu) - y + mu))
        # gives exactly -2 at y = 0
        t = tiny_table([0, 4], [10.0, 10.0])
        fit = fit_poisson(t, ("intercept",))
        np.testing.assert_allclose(fit.mu_hat, [2.0, 2.0], atol=1e-10)
        d = deviance_residuals(fit)
        assert d[0] == pytest.approx(-2.0, abs=1e-9)

    def test_deviance_is_sum_of_squares(self):
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age"))
        d = deviance_residuals(fit)
        assert fit.deviance == pytest.approx(float(np.sum(d * d)), rel=1e-10)

    def test_deviance_and_residuals_keep_the_written_out_formula_bits(self, rng):
        # the unit deviance has one owner; doubling each entry instead of the
        # sum moves no bit, since scaling by 2 is exact
        from scipy.special import xlogy

        y = rng.poisson(5.0, size=(200, 500)).astype(float)
        mu = rng.uniform(0.1, 20.0, size=(200, 500))
        for yi, mi in zip(y, mu):
            inner = xlogy(yi, yi / mi) - (yi - mi)
            assert poisson_glm._poisson_deviance(yi, mi) == float(2.0 * np.sum(inner))
            fit = mock.Mock(y=yi, mu_hat=mi)
            expected = np.sign(yi - mi) * np.sqrt(np.maximum(2.0 * inner, 0.0))
            assert np.array_equal(deviance_residuals(fit), expected)

    def test_fitted_log_rate(self):
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age", "period"))
        lr = fitted_log_rate_poisson(fit, table)
        np.testing.assert_allclose(lr, np.log(fit.mu_hat) - np.asarray(table.log_pop),
                                   atol=1e-12)


class TestInference:
    def test_se_positive_cov_symmetric(self):
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age", "period"))
        assert np.all(fit.se > 0)
        np.testing.assert_allclose(fit.cov, fit.cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(fit.cov) > 0)

    def test_se_matches_fisher_inverse(self):
        table = small_poisson_table()
        fit = fit_poisson(table, ("intercept", "age", "period"))
        X = parametric_design(table, ("intercept", "age", "period"))
        info = X.T @ (fit.mu_hat[:, None] * X)
        oracle = np.sqrt(np.diag(np.linalg.inv(info)))
        np.testing.assert_allclose(fit.se, oracle, rtol=1e-7)

    def test_converged_flag(self):
        fit = fit_poisson(small_poisson_table(), ("intercept", "age", "period"))
        assert fit.converged
        assert fit.iterations <= 50


def raw_year_table():
    """8 ages x 4 raw-year periods whose intercept + period fit meets the
    deviance rule one IRLS iteration before the score rule."""
    truth = TruthSpec(ages=tuple(range(21, 61, 5)), periods=(1973, 1974, 1975, 1976),
                      beta0=-37.14113269998861, beta_age=0.03070200458144902,
                      beta_period=0.011853545408853132, population=83229.32413627462,
                      noise="poisson_counts")
    return apply_zero_policy(simulate_table(truth, 1411).table, "add_half")


class TestStoppingRules:
    def test_unmet_score_rule_is_not_converged(self, monkeypatch):
        # no score is ever exactly zero, so the loop runs out
        monkeypatch.setattr(poisson_glm, "SCORE_TOL_FACTOR", 0.0)
        fit = fit_poisson(small_poisson_table(), ("intercept", "age", "period"))
        assert (fit.converged, fit.iterations) == (False, poisson_glm.MAX_IRLS_ITER)

    def test_irls_iterates_until_the_score_rule_holds(self, monkeypatch):
        table = raw_year_table()
        fit = fit_poisson(table, ("intercept", "period"))
        X = np.column_stack([np.ones(len(table)), np.asarray(table.period)])
        score = X.T @ (np.asarray(table.deaths) - fit.mu_hat)
        assert fit.converged
        assert np.max(np.abs(score)) <= 1e-8 * max(1.0, float(table.deaths.sum()))
        # the deviance rule alone stops earlier
        monkeypatch.setattr(poisson_glm, "SCORE_TOL_FACTOR", math.inf)
        assert fit_poisson(table, ("intercept", "period")).iterations < fit.iterations


def single_death_table(*deaths_at):
    """4 ages x 26 years from 1956, population 237 a cell, and one death in
    each (age, year index) cell given."""
    ages = [a for a in (40.0, 45.0, 50.0, 55.0) for _ in range(26)]
    periods = [1956.0 + k for _ in range(4) for k in range(26)]
    deaths = [float((a, p - 1956.0) in deaths_at) for a, p in zip(ages, periods)]
    return tiny_table(deaths, [237.0] * 104, ages, periods)


def lp_separated(X, y):
    """Zero counts at which some z = X g that is 0 at every positive count
    and in [0, 1] at every zero can be positive: one linear program per cell."""
    zero = y == 0
    Xs = X / np.max(np.abs(X), axis=0)
    Z = Xs[zero]
    lp = dict(A_ub=np.vstack([-Z, Z]), b_ub=np.r_[np.zeros(len(Z)), np.ones(len(Z))],
              bounds=[(None, None)] * X.shape[1], method="highs")
    if not zero.all():
        lp.update(A_eq=Xs[~zero], b_eq=np.zeros(int((~zero).sum())))
    return sum(-optimize.linprog(-row, **lp).fun > 1e-7 for row in Z)


class TestSeparation:
    """A Poisson MLE that does not exist is named before IRLS runs."""

    @pytest.mark.parametrize("year", [0, 25])
    def test_death_in_an_edge_year_has_no_mle(self, year):
        # all cells of the other years can have their means driven to 0 by
        # the period slope; the three other cells of the death's year cannot
        with pytest.raises(RankDeficiencyError, match="^the Poisson MLE does not exist: 100 "
                                                      "of 103 zero counts are separated"):
            fit_poisson(single_death_table((40.0, year)), ("intercept", "period"))

    def test_death_in_a_middle_year_converges(self):
        fit = fit_poisson(single_death_table((40.0, 12)), ("intercept", "period"))
        assert (fit.converged, fit.iterations) == (True, 9)

    def test_table_without_zero_counts_is_not_checked(self, monkeypatch):
        table = small_poisson_table()
        assert np.all(table.deaths)
        monkeypatch.setattr(poisson_glm, "_separated_zeros",
                            lambda *args: pytest.fail("separation checked"))
        assert fit_poisson(table).converged

    def test_all_zero_table_is_separated(self):
        with pytest.raises(RankDeficiencyError, match="104 of 104 zero counts"):
            fit_poisson(single_death_table(), ("intercept", "age", "period"))

    def test_slow_separation_is_found(self):
        # one death at age 22 in the paper's grid, fitted with intercept +
        # age + period: every older cell is separated, but the plain
        # rectifier nears that only geometrically, well past its cap
        age, period = (v.ravel() for v in np.meshgrid(
            22.0 + 5 * np.arange(13), 1990.0 + np.arange(30), indexing="ij"))
        X = np.column_stack([np.ones(len(age)), age, period])
        y = np.zeros(len(age))
        y[5] = 1.0
        assert poisson_glm._separated_zeros(X, y) == 12 * 30

    @pytest.mark.parametrize("year", [1, 12, 24])
    def test_no_separation_is_seen_at_the_first_step(self, year, monkeypatch):
        # deaths on both sides of the period slope's zero: the first step's
        # Gordan vector rules separation out, so no direction is tried
        table = single_death_table((40.0, year))
        X = np.column_stack([np.ones(len(table)), table.period])
        calls, real = [], poisson_glm._span_vanishing_on
        monkeypatch.setattr(poisson_glm, "_span_vanishing_on",
                            lambda *args: calls.append(args) or real(*args))
        assert poisson_glm._separated_zeros(X, np.asarray(table.deaths)) == 0
        assert len(calls) == 1

    def test_matches_linear_programming(self):
        # sparse tables of every covariate set, against one LP per zero cell
        rng = np.random.default_rng(3)
        separated = 0
        for i in range(60):
            n_age, n_period = rng.integers(2, 6), rng.integers(2, 9)
            age, period = (v.ravel() for v in np.meshgrid(
                40.0 + 5 * np.arange(n_age), 1990.0 + 2 * np.arange(n_period), indexing="ij"))
            covariates = [("intercept", "period"), ("intercept", "age"),
                          ("intercept", "age", "period")][i % 3]
            X = np.column_stack([{"intercept": np.ones(len(age)), "age": age,
                                  "period": period}[c] for c in covariates])
            y = rng.poisson(np.exp(rng.normal(-1.0, 1.0) + rng.normal(0.0, 0.1) * (age - 50)))
            if i % 2:  # a few deaths on one age row
                y = np.zeros(len(age))
                row = rng.integers(n_age) * n_period
                y[row + rng.choice(n_period, size=rng.integers(1, 3), replace=False)] = 1
            if y.all():
                continue
            expected = lp_separated(X, y.astype(float))
            assert poisson_glm._separated_zeros(X, y.astype(float)) == expected, i
            separated += expected > 0
        assert separated >= 15


class TestRankChecks:
    def test_singular_irls_equations(self):
        # irls takes a checked design; two equal columns make its system singular
        X = np.ones((4, 2))
        with pytest.raises(RankDeficiencyError, match="^singular IRLS equations: "):
            poisson_glm.irls(X, np.zeros(4), np.array([3.0, 5.0, 2.0, 4.0]), ("a", "b"), ())

    def test_constant_column_collides_with_intercept(self):
        t = tiny_table([3, 5, 2], [10.0, 12.0, 9.0], ages=[50.0, 50.0, 50.0],
                       periods=[2000.0, 2001.0, 2002.0])
        with pytest.raises(RankDeficiencyError, match="age"):
            fit_poisson(t, ("intercept", "age", "period"))

    def test_collinear_columns_that_vary(self):
        # a constant column stops at the single-value check; this reaches QR
        t = tiny_table([3, 5, 2], [10.0, 12.0, 9.0], ages=[40.0, 45.0, 50.0],
                       periods=[2000.0, 2005.0, 2010.0])
        with pytest.raises(RankDeficiencyError, match="collinear") as info:
            fit_poisson(t, ("intercept", "age", "period"))
        assert not isinstance(info.value, DataValidationError)

    def test_more_columns_than_rows(self):
        # an economic QR of a 3 x 5 matrix has only 3 diagonal entries
        X = np.random.default_rng(0).normal(size=(3, 5))
        with pytest.raises(RankDeficiencyError, match="collinear"):
            check_full_rank(X, ["a", "b", "c", "d", "e"])

    @pytest.mark.parametrize("covariate, ages, periods", [
        ("age", [50.0, 50.0, 50.0], [2000.0, 2001.0, 2002.0]),
        ("period", [40.0, 45.0, 50.0], [2000.0, 2000.0, 2000.0]),
    ])
    def test_single_value_covariate_is_invalid_input(self, covariate, ages, periods):
        t = tiny_table([3, 5, 2], [10.0, 12.0, 9.0], ages=ages, periods=periods)
        with pytest.raises(DataValidationError, match=f"single {covariate} value"):
            fit_poisson(t, ("intercept", covariate))

    def test_unknown_covariate(self):
        from logsymrate.errors import SpecificationError
        with pytest.raises(SpecificationError):
            fit_poisson(small_poisson_table(), ("intercept", "cohort"))


def every_row_flags(X, names):
    """The oracle: the names an economic pivoted QR of every row flags."""
    scale = np.max(np.abs(X), axis=0)
    scale[scale == 0] = 1.0
    _, R, piv = sla.qr(X / scale, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0:
        return sorted(names)
    tol = diag[0] * max(X.shape) * np.finfo(float).eps * 10
    return sorted([names[piv[i]] for i in range(len(diag)) if diag[i] <= tol]
                  + [names[j] for j in piv[len(diag):]])


def flags_of(call):
    try:
        call()
    except RankDeficiencyError as exc:
        return sorted(str(exc).split("collinear column(s): ")[1].split(", "))
    return []


def distinct_row_flags(X, names, x):
    """What the check flags when it knows that X's rows are equal where x is."""
    return flags_of(lambda: check_full_rank(X, names, row_key=x))


def spline_design(term, x, extra=()):
    """[intercept | centered block | extra columns of the block], row per x."""
    block = build_term_block(term, x)
    G = np.column_stack([np.ones(len(x)), block.B] + [block.B[:, j] for j in extra])
    names = ["intercept"] + [f"b[{j}]" for j in range(block.ncols)] + [f"dup{j}" for j in extra]
    return G, names


class TestDistinctRowRankCheck:
    """On designs whose rows repeat with one covariate, the check on the
    distinct rows scaled by sqrt(multiplicity) flags what a QR of every
    row flags."""

    X_REPEATED = np.repeat(np.arange(40.0, 60.0), 6)

    def test_full_rank_flags_nothing(self):
        G, names = spline_design(SplineTerm("ncs", "age", 1.0), self.X_REPEATED)
        assert every_row_flags(G, names) == distinct_row_flags(G, names, self.X_REPEATED) == []

    def test_full_rank_design_is_checked_on_its_distinct_rows(self):
        G, names = spline_design(SplineTerm("ncs", "age", 1.0), self.X_REPEATED)
        with mock.patch.object(poisson_glm, "_dependent_columns",
                               wraps=poisson_glm._dependent_columns) as spy:
            check_full_rank(G, names, row_key=self.X_REPEATED)
        assert [c.args[0].shape for c in spy.call_args_list] == [(20, G.shape[1])]
        assert spy.call_args_list[0].args[1] == len(G)  # the tolerance's n

    def test_duplicated_column(self):
        G, names = spline_design(SplineTerm("ncs", "age", 1.0), self.X_REPEATED, extra=(3,))
        expected = every_row_flags(G, names)
        assert expected and distinct_row_flags(G, names, self.X_REPEATED) == expected

    @pytest.mark.parametrize("x", [
        np.repeat([40.0, 41.0, 43.0], [2, 1, 1]),          # p > n
        np.repeat([40.0, 45.0, 50.0, 55.0], 5),            # distinct rows < p <= n
    ])
    def test_more_columns_than_distinct_rows(self, x):
        G, names = spline_design(SplineTerm("psp", "age", 1.0, basis_dim=10), x)
        expected = every_row_flags(G, names)
        assert expected and distinct_row_flags(G, names, x) == expected

    def test_block_constant_on_the_rows(self):
        block = build_term_block(SplineTerm("psp", "age", 1.0, basis_dim=8),
                                 np.arange(40.0, 60.0))
        x = np.full(12, 47.0)
        G = np.column_stack([np.ones(len(x)), block.evaluate(x)])
        names = ["intercept"] + [f"b[{j}]" for j in range(block.ncols)]
        expected = every_row_flags(G, names)
        assert expected and distinct_row_flags(G, names, x) == expected

    def test_dispersion_half_after_drop(self):
        # zero cells dropped leave 4 ages, each in several periods, against
        # a 10-column psp block in the dispersion half
        ages, periods = np.meshgrid(np.arange(40.0, 52.0), np.arange(2000.0, 2006.0),
                                    indexing="ij")
        deaths = np.where(np.isin(ages, [40.0, 43.0, 47.0, 51.0]), 7.0, 0.0)
        table = apply_zero_policy(ObservationTable(
            ages.ravel(), periods.ravel(), deaths.ravel(), deaths.ravel(),
            np.full(ages.size, 1000.0)), "drop")
        spec = parse_model_spec({
            "model": "logsym", "family": {"name": "normal"}, "zero_policy": "drop",
            "location": {"covariates": ["intercept", "period"]},
            "dispersion": {"covariates": ["intercept"], "terms": [
                {"kind": "psp", "covariate": "age", "basis_dim": 10, "lambda": 1.0}]}})
        G, names = spline_design(spec.dispersion.terms[0], table.age)
        names = ["intercept"] + [f"dispersion:psp(age)[{j}]" for j in range(len(names) - 1)]
        expected = every_row_flags(G, names)
        assert expected and flags_of(lambda: _build_design(spec, table)) == expected


def message_of(call):
    try:
        call()
    except RankDeficiencyError as exc:
        return str(exc)
    return None


def pivoted_qr_message(X, names, row_key=None):
    """The check's message, or None, with every design sent to the pivoted
    QR: the singular-value clearance of a full-rank design switched off."""
    with mock.patch.object(poisson_glm, "_full_rank", return_value=False):
        return message_of(lambda: check_full_rank(X, names, row_key=row_key))


class TestFullRankFastPath:
    """Clearing a design by the singular values of a row-blocked R gives
    the message, or none, that the pivoted QR gives."""

    AGES = np.repeat(np.arange(40.0, 60.0), 6)

    @staticmethod
    def near_dependency(eps, n=40, seed=0):
        # the last column is the sum of two others, moved by eps per entry
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 5))
        return np.column_stack([X, X[:, 1] + X[:, 3] + eps * rng.normal(size=n)])

    def agree(self, X, names, row_key=None):
        message = message_of(lambda: check_full_rank(X, names, row_key=row_key))
        assert message == pivoted_qr_message(X, names, row_key)
        return message

    def test_full_rank_designs_are_cleared_without_the_pivoted_qr(self):
        covariates = list(poisson_glm.PARAMETRIC_COVARIATES)
        designs = [(parametric_design(small_poisson_table(), covariates), covariates),
                   spline_design(SplineTerm("ncs", "age", 1.0), self.AGES),
                   spline_design(SplineTerm("psp", "age", 1.0, basis_dim=12), self.AGES)]
        for (X, names), row_key in zip(designs, [None, self.AGES, self.AGES]):
            assert self.agree(X, names, row_key) is None
            with mock.patch.object(sla, "qr", side_effect=AssertionError("pivoted QR ran")):
                check_full_rank(X, names, row_key=row_key)

    def test_row_blocks_of_a_tall_design(self):
        # 7,280 rows: four blocks, the last one short
        x = np.repeat(np.arange(0.0, 91.0), 80)
        G, names = spline_design(SplineTerm("ncs", "age", 1.0), x)
        assert self.agree(G, names) is None
        G, names = spline_design(SplineTerm("ncs", "age", 1.0), x, extra=(5,))
        assert "dup5" in self.agree(G, names)

    def test_duplicate_column(self):
        G, names = spline_design(SplineTerm("ncs", "age", 1.0), self.AGES, extra=(3,))
        assert "dup3" in self.agree(G, names)

    def test_period_a_combination_of_age_and_the_intercept(self):
        # one birth cohort: period = age + 1960 in every cell
        ages = np.arange(40.0, 60.0)
        X = np.column_stack([np.ones(len(ages)), ages, ages + 1960.0])
        assert "collinear" in self.agree(X, list(poisson_glm.PARAMETRIC_COVARIATES))

    @pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-14, 3e-14, 1e-13, 3e-13, 1e-12, 1e-10,
                                     1e-8])
    @pytest.mark.parametrize("seed", range(3))
    def test_perturbed_dependency(self, eps, seed):
        X = self.near_dependency(eps, seed=seed)
        message = self.agree(X, [f"c{j}" for j in range(X.shape[1])])
        if eps in (0.0, 1e-8):
            assert (message is None) == (eps == 1e-8)

    def test_more_columns_than_rows(self):
        X = np.random.default_rng(0).normal(size=(3, 5))
        assert "collinear" in self.agree(X, ["a", "b", "c", "d", "e"])

    @pytest.mark.parametrize("extra", [(), (4,)])
    def test_repeated_rows(self, extra):
        G, names = spline_design(SplineTerm("ncs", "age", 1.0), self.AGES, extra=extra)
        message = self.agree(G, names, row_key=self.AGES)
        assert (message is None) == (not extra)
