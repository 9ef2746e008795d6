"""Envelopes, model comparison, and component-curve export."""

import gc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from logsymrate import (
    ModelSpec,
    ObservationTable,
    SplineTerm,
    SubmodelSpec,
    all_component_curves,
    compare_models,
    export_component_curves,
    fit,
    fit_poisson,
    log_rate_correlation,
    normal_spec,
    select_lambda,
    simulated_envelope,
    spec_with_lambdas,
)
from logsymrate import diagnostics, logsym_fit, poisson_glm
from logsymrate.diagnostics import (
    curves_to_csv,
    envelope_to_csv,
    model_fitted_log_rate,
    reference_quantiles,
    scatter_to_csv,
    term_values_at_observations,
)
from logsymrate.errors import (
    ComparisonError,
    EnvelopeError,
    SpecificationError,
    UndefinedCorrelationError,
)

from .conftest import ALL_GENERATORS, plain_spec, small_logsym_table, small_poisson_table


@pytest.fixture(scope="module")
def ltable():
    return small_logsym_table(seed=13)


@pytest.fixture(scope="module")
def lfit(ltable):
    return fit(plain_spec(), ltable)


@pytest.fixture(scope="module")
def ptable():
    return small_poisson_table(seed=13)


@pytest.fixture(scope="module")
def pfit(ptable):
    return fit_poisson(ptable, ("intercept", "age", "period"))


class TestReferenceQuantiles:
    def test_blom_positions(self):
        n = 17
        k = np.arange(1, n + 1)
        oracle = stats.norm.ppf((k - 0.375) / (n + 0.25))
        np.testing.assert_allclose(reference_quantiles(n), oracle, atol=1e-12)

    def test_symmetric_and_monotone(self):
        q = reference_quantiles(40)
        np.testing.assert_allclose(q, -q[::-1], atol=1e-12)
        assert np.all(np.diff(q) > 0)


class TestEnvelope:
    def test_single_simulation_degenerate_bands(self, lfit, ltable):
        env = simulated_envelope(lfit, ltable, "location", m_sims=1, seed=3)
        np.testing.assert_array_equal(env.band_lo, env.band_hi)

    def test_deterministic(self, lfit, ltable):
        a = simulated_envelope(lfit, ltable, "location", m_sims=10, seed=3)
        b = simulated_envelope(lfit, ltable, "location", m_sims=10, seed=3)
        np.testing.assert_array_equal(a.band_lo, b.band_lo)
        np.testing.assert_array_equal(a.band_hi, b.band_hi)

    def test_outside_count_consistent(self, lfit, ltable):
        env = simulated_envelope(lfit, ltable, "location", m_sims=30, seed=3)
        outside = np.sum((env.ordered_residuals < env.band_lo)
                         | (env.ordered_residuals > env.band_hi))
        assert env.outside_count == int(outside)
        assert env.outside_fraction == pytest.approx(outside / len(ltable))
        assert np.all(np.diff(env.ordered_residuals) >= 0)

    def test_poisson_kind(self, pfit, ptable):
        env = simulated_envelope(pfit, ptable, "deviance", m_sims=10, seed=4)
        assert len(env.ordered_residuals) == len(ptable)
        assert env.n_failures == 0

    def test_failure_budget(self, ltable):
        # Student weights need several sweeps, so a one-iteration budget
        # cannot converge and every envelope replicate fails.
        from logsymrate import GeneratorSpec

        spec = plain_spec(generator=GeneratorSpec(family="student", nu=5.0),
                          max_outer=1)
        f = fit(spec, ltable)
        assert not f.converged
        with pytest.raises(EnvelopeError):
            simulated_envelope(f, ltable, "location", m_sims=10, seed=5)

    def test_other_table_rejected(self, lfit, ltable, pfit, ptable):
        # a Poisson replicate would refit on the other table's cells, and a
        # log-symmetric envelope would ignore the table
        for f, table, kind in ((pfit, ptable, "deviance"), (lfit, ltable, "location")):
            shifted = replace(table, period=table.period + 1.0)
            with pytest.raises(ComparisonError, match="cell keys"):
                simulated_envelope(f, shifted, kind, m_sims=2, seed=1)

    def test_other_counts_rejected(self, pfit):
        # same cells, other deaths: the band would be drawn around the fit's
        # means but refitted on the other table
        with pytest.raises(ComparisonError, match="death counts"):
            simulated_envelope(pfit, small_poisson_table(seed=14), "deviance",
                               m_sims=2, seed=1)

    def test_other_responses_rejected(self, lfit, ltable):
        # same cells, other t_value: the residuals would not be the table's
        other = replace(ltable, t_value=ltable.t_value * 1.5)
        assert other.cell_keys == ltable.cell_keys
        with pytest.raises(ComparisonError, match="responses"):
            simulated_envelope(lfit, other, "location", m_sims=2, seed=1)

    def test_kind_validation(self, lfit, ltable, pfit, ptable):
        with pytest.raises(SpecificationError):
            simulated_envelope(lfit, ltable, "deviance", m_sims=2, seed=1)
        with pytest.raises(SpecificationError):
            simulated_envelope(pfit, ptable, "location", m_sims=2, seed=1)

    def test_level_validation(self, lfit, ltable):
        with pytest.raises(SpecificationError):
            simulated_envelope(lfit, ltable, "location", m_sims=10, level=1.2, seed=1)


class TestCorrelation:
    def test_perfect_when_fitted_equals_observed(self, ltable):
        obs = np.log(ltable.t_value) - ltable.log_pop
        assert log_rate_correlation(obs, ltable) == pytest.approx(1.0)

    def test_constant_fit_is_undefined(self, ltable):
        with pytest.raises(UndefinedCorrelationError):
            log_rate_correlation(np.zeros(len(ltable)), ltable)

    def test_length_mismatch(self, ltable):
        with pytest.raises(SpecificationError):
            log_rate_correlation(np.zeros(3), ltable)


class TestCompare:
    def test_identical_specs_tie(self, ltable, lfit):
        f2 = fit(plain_spec(), ltable)
        report = compare_models(lfit, f2, ltable)
        assert report.preferred == "tie"
        assert report.models[0].label.endswith("-1")
        assert report.models[1].label.endswith("-2")

    def test_prefers_lower_aic(self, ltable, lfit):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        report = compare_models(lfit, pf, ltable)
        want = min(report.models, key=lambda m: m.aic).label
        assert report.preferred == want
        by_label = {m.label: m for m in report.models}
        assert by_label["poisson"].kind == "poisson"
        assert by_label["logsym-normal"].kind == "logsym"

    def test_scale_caveat_flag(self, ltable, lfit):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        assert compare_models(lfit, pf, ltable).scale_caveat
        fadj = fit(plain_spec(jacobian_adjust=True), ltable)
        assert not compare_models(fadj, pf, ltable).scale_caveat
        # two logsym fits never trip the caveat, adjusted or not
        assert not compare_models(lfit, fadj, ltable).scale_caveat

    def test_table_mismatch_rejected(self, lfit, ltable):
        # a fit from a table with different cell keys cannot be compared
        from logsymrate import ObservationTable

        trimmed = ObservationTable(
            age=ltable.age[:-1], period=ltable.period[:-1], deaths=ltable.deaths[:-1],
            t_value=ltable.t_value[:-1], population=ltable.population[:-1],
            meta=ltable.meta)
        pf = fit_poisson(trimmed, ("intercept", "age", "period"))
        with pytest.raises(ComparisonError, match="cell keys"):
            compare_models(lfit, pf, ltable)

    def test_other_counts_rejected(self, pfit):
        # same cells, other deaths: the AIC of the seed-13 counts would be
        # compared as if it described the seed-14 table
        table = small_poisson_table(seed=14)
        other = fit_poisson(table, ("intercept", "age", "period"))
        with pytest.raises(ComparisonError, match="death counts"):
            compare_models(pfit, other, table)

    def test_other_responses_rejected(self, lfit):
        table = small_logsym_table(seed=14)
        other = fit(plain_spec(), table)
        with pytest.raises(ComparisonError, match="responses"):
            compare_models(lfit, other, table)

    def test_report_dict_shape(self, ltable, lfit):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        d = compare_models(lfit, pf, ltable).to_dict()
        assert set(d) == {"models", "preferred", "scale_caveat", "n_cells"}
        assert {m["label"] for m in d["models"]} == {"logsym-normal", "poisson"}
        assert all("rho" in m and "aic" in m for m in d["models"])
        assert d["n_cells"] == len(ltable)


@pytest.fixture(scope="module")
def sfit(ltable):
    spec = ModelSpec(
        generator=normal_spec(),
        location=SubmodelSpec(covariates=("intercept", "period"), use_offset=True,
                              terms=(SplineTerm(kind="ncs", covariate="age",
                                                lam=10.0),)),
        dispersion=SubmodelSpec(covariates=("intercept",),
                                terms=(SplineTerm(kind="psp", covariate="age",
                                                  basis_dim=8, lam=50.0),)),
    )
    return fit(spec, ltable)


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
def test_fit_and_envelope_leave_no_cyclic_garbage(gen, sfit, ltable):
    spec = replace(sfit.spec, generator=gen)
    gc.collect()
    gc.disable()
    try:
        f = fit(spec, ltable)
        assert gc.collect() == 0
        try:
            simulated_envelope(f, ltable, "dispersion", m_sims=5, seed=4)
        except EnvelopeError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestEnvelopeRefitDesign:
    """Envelope refits reuse the fitted design: only the response changes."""

    def test_no_basis_build_or_rank_check(self, sfit, ltable, monkeypatch):
        calls = {"build_term_block": 0, "check_full_rank": 0}

        def counting(name):
            real = getattr(logsym_fit, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(logsym_fit, name, counting(name))
        env = simulated_envelope(sfit, ltable, "location", m_sims=3, seed=2)
        assert env.n_failures == 0
        assert calls == {"build_term_block": 0, "check_full_rank": 0}

    def test_refit_matches_fresh_fit_bit_for_bit(self, sfit, ltable, monkeypatch):
        draws, refits, sorted_resid = [], [], []

        def recording(record, real, with_args=False):
            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                record.append((args, out) if with_args else out)
                return out
            return wrapped

        monkeypatch.setattr(diagnostics, "sample_with_rng",
                            recording(draws, diagnostics.sample_with_rng))
        monkeypatch.setattr(diagnostics, "logsym_fit_fn",
                            recording(refits, diagnostics.logsym_fit_fn, with_args=True))
        monkeypatch.setattr(diagnostics, "_simulate_and_refit",
                            recording(sorted_resid, diagnostics._simulate_and_refit))
        simulated_envelope(sfit, ltable, "dispersion", m_sims=2, seed=7)
        assert len(draws) == len(refits) == len(sorted_resid) == 2
        pinned = spec_with_lambdas(sfit.spec, sfit.lam)
        for eps, ((spec, design, lam), refit), resid in zip(draws, refits, sorted_resid):
            t_star = np.exp(sfit.mu_hat + np.sqrt(sfit.phi_hat) * eps)
            sim = replace(ltable, deaths=np.rint(t_star), t_value=t_star)
            assert spec is sfit.spec
            assert np.array_equal(design.y, sim.log_t)
            fresh = fit(pinned, sim)
            assert lam == fresh.params.lam
            assert np.array_equal(refit.location, fresh.params.location)
            assert np.array_equal(refit.dispersion, fresh.params.dispersion)
            assert np.array_equal(refit.mu, fresh.mu_hat)
            assert np.array_equal(refit.phi, fresh.phi_hat)
            assert (refit.converged, refit.iterations) == (fresh.converged, fresh.iterations)
            assert np.array_equal(resid, np.sort(logsym_fit.residuals(fresh, "dispersion")))

    def test_stopped_refit_fails_without_stencil(self, sfit, ltable, monkeypatch):
        stencils, refits = [], []
        real_stencil, real_refit = logsym_fit._fd_grad_norm, diagnostics.logsym_fit_fn

        def stencil(*args):
            stencils.append(args)
            return real_stencil(*args)

        def refit(*args):
            out = real_refit(*args)
            refits.append(out)
            return out

        monkeypatch.setattr(logsym_fit, "_fd_grad_norm", stencil)
        monkeypatch.setattr(diagnostics, "logsym_fit_fn", refit)
        simulated_envelope(sfit, ltable, "location", m_sims=2, seed=3)
        assert len(stencils) == len(refits) == 2 and all(r.converged for r in refits)

        stencils.clear()
        refits.clear()
        stopped = replace(sfit, spec=replace(sfit.spec, max_outer=1))
        with pytest.raises(EnvelopeError, match="5 of 5"):
            simulated_envelope(stopped, ltable, "location", m_sims=5, seed=3)
        assert len(refits) == 10
        assert all(r.iterations == 1 and not r.converged for r in refits)
        assert stencils == []

    def test_no_cells_built(self, sfit, ltable, monkeypatch):
        calls = []
        real = diagnostics.make_cell

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "make_cell", counting)
        env = simulated_envelope(sfit, ltable, "location", m_sims=3, seed=2)
        assert env.n_failures == 0
        assert calls == []


class TestCurves:
    def test_default_grid_size(self, sfit):
        cur = export_component_curves(sfit, "location:ncs(age)")
        assert cur.shape == (200, 2)
        assert cur[0, 0] == 35.0 and cur[-1, 0] == 75.0

    def test_unknown_term(self, sfit):
        with pytest.raises(SpecificationError, match="location:ncs"):
            export_component_curves(sfit, "location:ncs(period)")

    def test_all_terms(self, sfit):
        curves = all_component_curves(sfit)
        labels = [label for label, _, _ in curves]
        assert labels == ["location:ncs(age)", "dispersion:psp(age)"]

    def test_observation_values_match_curve(self, sfit, ltable):
        vals = term_values_at_observations(sfit, "location:ncs(age)")
        ages = ltable.age
        # a 9-point grid lands exactly on the nine distinct ages
        cur = export_component_curves(sfit, "location:ncs(age)", grid_size=9)
        for x, v in cur:
            sel = np.isclose(ages, x)
            assert sel.any()
            np.testing.assert_allclose(vals[sel], v, atol=1e-9)


class TestTermLookup:
    TERM = SplineTerm(kind="ncs", covariate="age", lam=10.0)
    LOOKUPS = {
        "select_lambda": lambda f, table, term: select_lambda(f.spec, table, term),
        "export_component_curves": lambda f, table, term: export_component_curves(f, term),
        "term_values_at_observations":
            lambda f, table, term: term_values_at_observations(f, term),
    }

    @pytest.fixture(scope="class")
    def both_fit(self, ltable):
        """The same SplineTerm declared in both submodels."""
        spec = ModelSpec(
            generator=normal_spec(),
            location=SubmodelSpec(covariates=("intercept", "period"), use_offset=True,
                                  terms=(self.TERM,)),
            dispersion=SubmodelSpec(covariates=("intercept",), terms=(self.TERM,)),
        )
        return fit(spec, ltable)

    @pytest.mark.parametrize("lookup", sorted(LOOKUPS))
    def test_term_in_both_submodels_is_ambiguous(self, lookup, both_fit, ltable):
        with pytest.raises(SpecificationError,
                           match=r"location:ncs\(age\).*dispersion:ncs\(age\)"):
            self.LOOKUPS[lookup](both_fit, ltable, self.TERM)

    def test_labels_and_single_submodel_terms_resolve(self, both_fit, sfit):
        disp = export_component_curves(both_fit, "dispersion:ncs(age)")
        loc = export_component_curves(both_fit, "location:ncs(age)")
        assert not np.array_equal(disp[:, 1], loc[:, 1])
        np.testing.assert_array_equal(
            export_component_curves(sfit, sfit.spec.location.terms[0]),
            export_component_curves(sfit, "location:ncs(age)"))


class TestCsvWriters:
    def test_envelope_csv(self, lfit, ltable):
        env = simulated_envelope(lfit, ltable, "location", m_sims=5, seed=9)
        lines = envelope_to_csv(env).strip().split("\n")
        assert lines[0] == "order_index,ref_quantile,residual,band_lo,band_hi"
        assert len(lines) == len(ltable) + 1
        assert lines[1].split(",")[0] == "1"

    def test_curves_csv(self, ltable):
        spec = ModelSpec(
            generator=normal_spec(),
            location=SubmodelSpec(covariates=("intercept", "period"), use_offset=True,
                                  terms=(SplineTerm(kind="ncs", covariate="age",
                                                    lam=10.0),)),
            dispersion=SubmodelSpec(covariates=("intercept",)),
        )
        f = fit(spec, ltable)
        lines = curves_to_csv(all_component_curves(f)).strip().split("\n")
        assert lines[0] == "term,covariate,value"
        assert len(lines) == 201
        assert lines[1].startswith("location:ncs(age),")

    def test_scatter_csv(self, pfit, ptable):
        text = scatter_to_csv(ptable, model_fitted_log_rate(pfit, ptable))
        lines = text.strip().split("\n")
        assert lines[0] == "age_mid,period_mid,observed_log_rate,fitted_log_rate"
        assert len(lines) == len(ptable) + 1


class TestPoissonReplicate:
    """A Poisson replicate refits simulated counts on the fitted design."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 101])
    def test_irls_matches_fresh_fit_bit_for_bit(self, pfit, ptable, seed):
        y = np.random.default_rng(seed).poisson(pfit.mu_hat).astype(float)
        refit = poisson_glm.irls(pfit.X, pfit.offset, y, pfit.covariates, pfit.cell_keys)
        fresh = fit_poisson(replace(ptable, deaths=y, t_value=y), pfit.covariates)
        for name in ("beta", "se", "cov", "mu_hat", "y"):
            assert np.array_equal(getattr(refit, name), getattr(fresh, name)), name
        for name in ("deviance", "loglik", "aic", "iterations", "converged", "cell_keys"):
            assert getattr(refit, name) == getattr(fresh, name), name

    def test_no_design_build_or_rank_check(self, pfit, ptable, monkeypatch):
        calls = {"parametric_design": 0, "check_full_rank": 0}

        def counting(name):
            real = getattr(poisson_glm, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(poisson_glm, name, counting(name))
        env = simulated_envelope(pfit, ptable, "deviance", m_sims=20, seed=4)
        assert env.n_failures == 0
        assert calls == {"parametric_design": 0, "check_full_rank": 0}
