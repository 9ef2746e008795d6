"""Envelopes, model comparison, and component-curve export."""

import gc
import math
import multiprocessing
import os
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
    dump_json,
    export_component_curves,
    fit,
    fit_poisson,
    log_rate_correlation,
    normal_spec,
    simulated_envelope,
)
from logsymrate import diagnostics, logsym_fit, poisson_glm
from logsymrate.data_ingest import observed_log_rates
from logsymrate.diagnostics import (
    EnvelopeResult,
    curves_to_csv,
    envelope_to_csv,
    model_fitted_log_rate,
    reference_quantiles,
    scatter_to_csv,
)
from logsymrate.errors import (
    ComparisonError,
    EnvelopeError,
    RankDeficiencyError,
    SpecificationError,
    UndefinedCorrelationError,
)

from .conftest import ALL_GENERATORS, plain_spec, small_logsym_table, small_poisson_table
from .test_poisson import single_death_table


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


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count that sizes the replicate pool, in a process taken
    to run no other thread, whatever threads the BLAS runs; 1 runs
    replicates in this process, where a test's recorders see them."""
    monkeypatch.setattr(logsym_fit, "_THREADED", False)
    return lambda n: monkeypatch.setattr(logsym_fit, "_cpu_count", lambda: n)


@pytest.fixture
def in_process(cpus):
    cpus(1)


class TestReferenceQuantiles:
    def test_blom_positions(self):
        # bit for bit with stats.norm.ppf, which wraps special.ndtri; odd n
        # puts p = 0.5 exactly in the middle, where both give +0.0
        for n in range(1, 1201):
            k = np.arange(1, n + 1)
            oracle = stats.norm.ppf((k - 0.375) / (n + 0.25))
            assert reference_quantiles(n).tobytes() == oracle.tobytes(), n
        assert reference_quantiles(3)[1].tobytes() == np.float64(0.0).tobytes()

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

    @pytest.mark.parametrize("m_sims", [True, False, 2.5, 0, -3])
    def test_m_sims_must_be_a_positive_whole_number(self, lfit, ltable, m_sims):
        with pytest.raises(SpecificationError, match="^m_sims must be"):
            simulated_envelope(lfit, ltable, "location", m_sims=m_sims, seed=1)

    @pytest.mark.parametrize("seed", [-1, -100, 1.5, True])
    def test_seed_must_be_a_nonnegative_whole_number(self, pfit, ptable, seed, in_process,
                                                     monkeypatch):
        # a negative seed would draw replicate i from another replicate's
        # retry seed, or fail every draw as a refit failure
        monkeypatch.setattr(diagnostics, "_simulate_and_refit", None)
        with pytest.raises(SpecificationError, match="^seed must be"):
            simulated_envelope(pfit, ptable, "deviance", m_sims=10, seed=seed)

    def test_whole_float_seed_is_the_int_seed(self, pfit, ptable):
        a = simulated_envelope(pfit, ptable, "deviance", m_sims=5, seed=4)
        b = simulated_envelope(pfit, ptable, "deviance", m_sims=5, seed=4.0)
        assert envelope_to_csv(a) == envelope_to_csv(b) and b.seed == 4


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
        report = compare_models([lfit, f2], ltable)
        assert report.preferred == "tie"
        assert report.models[0].label.endswith("-1")
        assert report.models[1].label.endswith("-2")

    def test_prefers_lower_aic(self, ltable, lfit):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        report = compare_models([lfit, pf], ltable)
        want = min(report.models, key=lambda m: m.aic).label
        assert report.preferred == want
        by_label = {m.label: m for m in report.models}
        assert by_label["poisson"].kind == "poisson"
        assert by_label["logsym-normal"].kind == "logsym"

    def test_scale_caveat_flag(self, ltable, lfit):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        assert compare_models([lfit, pf], ltable).scale_caveat
        fadj = fit(plain_spec(jacobian_adjust=True), ltable)
        assert not compare_models([fadj, pf], ltable).scale_caveat
        # two logsym fits never trip the caveat, adjusted or not
        assert not compare_models([lfit, fadj], ltable).scale_caveat

    def test_ranks_four_families_and_poisson(self, ltable, lfit):
        # the paper's first step: the error families and the Poisson GLM on one table
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        # ALL_GENERATORS holds normal, student, powerexp twice and contnormal
        families = ALL_GENERATORS[1:3] + ALL_GENERATORS[4:]
        fits = [lfit, *(fit(plain_spec(generator=g), ltable) for g in families), pf]
        report = compare_models(fits, ltable)
        assert [m.label for m in report.models] == [
            "logsym-normal", "logsym-student", "logsym-powerexp", "logsym-contnormal",
            "poisson"]
        assert [m.aic for m in report.models] == [f.aic for f in fits]
        assert report.preferred == min(report.models, key=lambda m: m.aic).label
        assert report.scale_caveat and report.n_cells == len(ltable)
        assert not compare_models(fits[:4], ltable).scale_caveat

    def test_repeated_labels_carry_their_position(self, ltable, lfit):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        fadj = fit(plain_spec(jacobian_adjust=True), ltable)
        report = compare_models([lfit, pf, fadj], ltable)
        assert [m.label for m in report.models] == [
            "logsym-normal-1", "poisson", "logsym-normal-3"]
        assert report.preferred == min(report.models, key=lambda m: m.aic).label
        # one unadjusted log-symmetric fit among any number trips the caveat
        assert report.scale_caveat
        assert not compare_models([fadj, pf, fadj], ltable).scale_caveat

    def test_nan_aic_is_never_preferred(self, ltable, lfit, sfit, monkeypatch):
        # zero weights leave the penalty alone in each term's edf system,
        # which is singular, so the edf and the AIC are NaN
        real = logsym_fit._term_edf
        monkeypatch.setattr(logsym_fit, "_term_edf", lambda ti, w, lam: real(ti, 0 * w, lam))
        nan_fit = fit(sfit.spec, ltable)
        monkeypatch.undo()
        assert math.isnan(nan_fit.aic) and not math.isnan(sfit.aic)
        for fits in ([nan_fit, lfit], [lfit, nan_fit], [nan_fit, nan_fit, sfit]):
            report = compare_models(fits, ltable)
            finite = [m for m in report.models if not math.isnan(m.aic)]
            assert report.preferred == min(finite, key=lambda m: m.aic).label
        assert compare_models([nan_fit, nan_fit], ltable).preferred == "none"

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_fits_rejected(self, ltable, lfit, n):
        with pytest.raises(SpecificationError, match=f"at least 2 fits, got {n}"):
            compare_models([lfit] * n, ltable)

    def test_table_mismatch_rejected(self, lfit, ltable):
        # a fit from a table with different cell keys cannot be compared
        from logsymrate import ObservationTable

        trimmed = ObservationTable(
            age=ltable.age[:-1], period=ltable.period[:-1], deaths=ltable.deaths[:-1],
            t_value=ltable.t_value[:-1], population=ltable.population[:-1],
            meta=ltable.meta)
        pf = fit_poisson(trimmed, ("intercept", "age", "period"))
        with pytest.raises(ComparisonError, match="cell keys"):
            compare_models([lfit, pf], ltable)

    def test_other_counts_rejected(self, pfit):
        # same cells, other deaths: the AIC of the seed-13 counts would be
        # compared as if it described the seed-14 table
        table = small_poisson_table(seed=14)
        other = fit_poisson(table, ("intercept", "age", "period"))
        with pytest.raises(ComparisonError, match="death counts"):
            compare_models([pfit, other], table)

    def test_other_responses_rejected(self, lfit):
        table = small_logsym_table(seed=14)
        other = fit(plain_spec(), table)
        with pytest.raises(ComparisonError, match="responses"):
            compare_models([lfit, other], table)

    def test_report_dict_shape(self, ltable, lfit):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        d = compare_models([lfit, pf], ltable).to_dict()
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


@pytest.mark.usefixtures("in_process")
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
        # the spec with each term's lambda pinned to the fitted one
        loc, disp = sfit.spec.location, sfit.spec.dispersion
        pinned = replace(
            sfit.spec,
            location=replace(loc, terms=(
                replace(loc.terms[0], lam=sfit.lam["location:ncs(age)"]),)),
            dispersion=replace(disp, terms=(
                replace(disp.terms[0], lam=sfit.lam["dispersion:psp(age)"]),)))
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
        real_stencil, real_refit = logsym_fit._fd_partials, diagnostics.logsym_fit_fn

        def stencil(*args):
            stencils.append(args)
            return real_stencil(*args)

        def refit(*args):
            out = real_refit(*args)
            refits.append(out)
            return out

        monkeypatch.setattr(logsym_fit, "_fd_partials", stencil)
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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def envelope_outcome(fit_result, table, kind, **kwargs):
    """Every array of the envelope by its bytes, with its counts; or the
    class and text of the error it raised."""
    try:
        env = simulated_envelope(fit_result, table, kind, **kwargs)
    except EnvelopeError as exc:
        return type(exc), str(exc)
    return ([getattr(env, name).tobytes()
             for name in ("ordered_residuals", "ref_quantiles", "band_lo", "band_hi")],
            env.outside_count, env.n_failures)


class TestReplicatePool:
    """Replicates on two forked workers give the in-process result, bit for
    bit, and leave no child process behind."""

    @pytest.mark.parametrize("kind", ["location", "dispersion"])
    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_pooled_envelope_is_byte_identical(self, gen, kind, sfit, ltable, cpus):
        f = fit(replace(sfit.spec, generator=gen), ltable)
        cpus(1)
        serial = envelope_outcome(f, ltable, kind, m_sims=9, seed=5)
        cpus(2)
        assert envelope_outcome(f, ltable, kind, m_sims=9, seed=5) == serial
        assert_no_child_left()

    def test_pooled_poisson_envelope_is_byte_identical(self, pfit, ptable, cpus):
        cpus(1)
        serial = envelope_outcome(pfit, ptable, "deviance", m_sims=9, seed=4)
        cpus(2)
        assert envelope_outcome(pfit, ptable, "deviance", m_sims=9, seed=4) == serial
        assert_no_child_left()

    def test_retries_and_failures_keep_their_order(self, pfit, ptable, cpus, monkeypatch):
        # a replicate whose derived stream draws below 0.3 after its refit
        # fails: some succeed on the retry, two fail twice
        real = diagnostics._simulate_and_refit

        def flaky(fit_result, kind, rng):
            out = real(fit_result, kind, rng)
            if rng.random() < 0.3:
                raise ValueError("flaky replicate")
            return out

        monkeypatch.setattr(diagnostics, "_simulate_and_refit", flaky)
        cpus(1)
        serial = envelope_outcome(pfit, ptable, "deviance", m_sims=20, seed=0)
        assert serial[2] == 2
        cpus(2)
        assert envelope_outcome(pfit, ptable, "deviance", m_sims=20, seed=0) == serial
        assert_no_child_left()

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failed_refits_fail_the_envelope_on_both_paths(self, n_cpus, sfit, ltable, cpus):
        cpus(n_cpus)
        stopped = replace(sfit, spec=replace(sfit.spec, max_outer=1))
        with pytest.raises(EnvelopeError, match="5 of 5"):
            simulated_envelope(stopped, ltable, "location", m_sims=5, seed=3)
        assert_no_child_left()

    def test_worker_error_reaches_the_caller(self, sfit, ltable, cpus, monkeypatch):
        def broken(*args):
            raise RuntimeError("replicate broke")

        cpus(2)
        monkeypatch.setattr(diagnostics, "_simulate_and_refit", broken)
        with pytest.raises(RuntimeError, match="^replicate broke$") as info:
            simulated_envelope(sfit, ltable, "location", m_sims=6, seed=3)
        assert info.type is RuntimeError
        assert_no_child_left()

    def test_threaded_process_runs_replicates_itself(self, sfit, ltable, cpus, monkeypatch):
        # forked workers would each start their own BLAS helpers
        cpus(1)
        serial = envelope_outcome(sfit, ltable, "location", m_sims=6, seed=5)
        cpus(2)
        monkeypatch.setattr(logsym_fit, "_THREADED", True)
        pids, real = [], diagnostics._simulate_and_refit
        monkeypatch.setattr(diagnostics, "_simulate_and_refit",
                            lambda *args: pids.append(os.getpid()) or real(*args))
        assert envelope_outcome(sfit, ltable, "location", m_sims=6, seed=5) == serial
        assert pids == [os.getpid()] * 6
        assert_no_child_left()

    def test_daemonic_process_runs_replicates_itself(self, pfit, ptable, cpus):
        # a multiprocessing.Pool worker is daemonic and already shares the
        # CPUs with its pool: forking inside it would oversubscribe them
        cpus(1)
        serial = envelope_outcome(pfit, ptable, "deviance", m_sims=6, seed=4)
        cpus(2)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            got = pool.apply(envelope_outcome, (pfit, ptable, "deviance"),
                             dict(m_sims=6, seed=4))
        finally:
            pool.close()
            pool.join()
        assert got == serial
        assert_no_child_left()

    def test_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert logsym_fit._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert logsym_fit._cpu_count() == 1

    def test_one_replicate_runs_in_process(self, cpus):
        # a pool is never larger than the replicate count
        cpus(2)
        seen = []
        assert logsym_fit._map_in_order(lambda i: seen.append(i) or -i, 1) == [0]
        assert seen == [0]
        assert logsym_fit._map_in_order(lambda i: os.getpid() + i, 4)[0] != os.getpid()
        assert_no_child_left()


class TestCurves:
    def test_default_grid_size(self, sfit):
        cur = export_component_curves(sfit, "location:ncs(age)")
        assert cur.shape == (200, 2)
        assert cur[0, 0] == 35.0 and cur[-1, 0] == 75.0

    @pytest.mark.parametrize("grid_size", [True, 3.5, 1])
    def test_grid_size_must_be_a_whole_number_of_at_least_2(self, sfit, grid_size):
        with pytest.raises(SpecificationError, match="^grid_size must be"):
            export_component_curves(sfit, "location:ncs(age)", grid_size=grid_size)

    def test_whole_float_grid_size(self, sfit):
        assert np.array_equal(export_component_curves(sfit, "location:ncs(age)", grid_size=9.0),
                              export_component_curves(sfit, "location:ncs(age)", grid_size=9))

    def test_unknown_term(self, sfit):
        with pytest.raises(SpecificationError, match="location:ncs"):
            export_component_curves(sfit, "location:ncs(period)")

    def test_all_terms(self, sfit):
        curves = all_component_curves(sfit)
        labels = [label for label, _, _ in curves]
        assert labels == ["location:ncs(age)", "dispersion:psp(age)"]


class TestTermLookup:
    TERM = SplineTerm(kind="ncs", covariate="age", lam=10.0)
    LOOKUPS = {
        "export_component_curves": lambda f, table, term: export_component_curves(f, term),
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


# The line-joining writers that the CSV payloads had before they shared
# data_ingest._csv_text: references for the byte-for-byte tests below.
def _fmt(x):
    return repr(float(x))


def envelope_to_csv_joined(res):
    lines = ["order_index,ref_quantile,residual,band_lo,band_hi"]
    for i in range(len(res.ordered_residuals)):
        lines.append(",".join([
            str(i + 1), _fmt(res.ref_quantiles[i]), _fmt(res.ordered_residuals[i]),
            _fmt(res.band_lo[i]), _fmt(res.band_hi[i]),
        ]))
    return "\n".join(lines) + "\n"


def curves_to_csv_joined(curves):
    lines = ["term,covariate,value"]
    for label, grid, vals in curves:
        for x, v in zip(grid, vals):
            lines.append(f"{label},{_fmt(x)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def scatter_to_csv_joined(table, fitted_log_rates):
    observed = observed_log_rates(table)
    fitted = np.asarray(fitted_log_rates, dtype=float)
    lines = ["age_mid,period_mid,observed_log_rate,fitted_log_rate"]
    for row in zip(table.age.tolist(), table.period.tolist(), observed.tolist(),
                   fitted.tolist()):
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def report_to_dict_by_hand(report):
    """The field-by-field copy that ComparisonReport.to_dict was before it
    became dataclasses.asdict."""
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
                    {"name": c["name"], "estimate": c["estimate"], "std_err": c["std_err"]}
                    for c in m.coefficients
                ],
                "terms": {
                    lab: {"lambda": d["lambda"], "edf": d["edf"]}
                    for lab, d in m.terms.items()
                },
            }
            for m in report.models
        ],
        "preferred": report.preferred,
        "scale_caveat": report.scale_caveat,
        "n_cells": report.n_cells,
    }


# values whose text is easy to get wrong: NaN, both infinities, a negative
# zero, the smallest subnormal, and a double that needs 17 digits
EDGE_VALUES = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2, -1.5e300])


class TestArtifactBytes:
    """comparison.json and the CSV payloads keep the bytes of the writers
    they replaced."""

    def test_envelope_csv(self, lfit, ltable, pfit, ptable):
        n = len(EDGE_VALUES)
        edge = EnvelopeResult(ordered_residuals=EDGE_VALUES, ref_quantiles=reference_quantiles(n),
                              band_lo=EDGE_VALUES[::-1].copy(), band_hi=-EDGE_VALUES,
                              outside_count=0, m_sims=1, level=0.95, seed=0, kind="location")
        for env in (edge, simulated_envelope(lfit, ltable, "location", m_sims=5, seed=9),
                    simulated_envelope(pfit, ptable, "deviance", m_sims=5, seed=9)):
            assert envelope_to_csv(env) == envelope_to_csv_joined(env)

    def test_curves_csv(self, sfit):
        curves = all_component_curves(sfit, grid_size=50)
        curves.append(("dispersion:psp(period)", EDGE_VALUES, EDGE_VALUES[::-1]))
        assert curves_to_csv(curves) == curves_to_csv_joined(curves)

    def test_scatter_csv(self, lfit, ltable, pfit, ptable):
        fitted = np.resize(EDGE_VALUES, len(ltable))
        for table, rates in ((ltable, fitted), (ltable, model_fitted_log_rate(lfit, ltable)),
                             (ptable, model_fitted_log_rate(pfit, ptable))):
            assert scatter_to_csv(table, rates) == scatter_to_csv_joined(table, rates)

    def test_comparison_json(self, lfit, sfit, ltable):
        pf = fit_poisson(ltable, ("intercept", "age", "period"))
        reports = [compare_models([sfit, pf], ltable), compare_models([lfit, lfit], ltable),
                   compare_models([pf, pf], ltable)]
        assert [m.label for m in reports[1].models] == ["logsym-normal-1", "logsym-normal-2"]
        assert reports[0].models[1].aic_jacobian is None
        coefs = [{"name": f"location:x{i}", "estimate": float(e), "std_err": float(s)}
                 for i, (e, s) in enumerate(zip(EDGE_VALUES, EDGE_VALUES[::-1]))]
        edge = replace(reports[0].models[0], aic=math.inf, rho=-0.0, aic_jacobian=5e-324,
                       coefficients=coefs,
                       terms={"location:ncs(age)": {"lambda": math.nan, "edf": -math.inf}})
        reports.append(replace(reports[0], models=(edge, reports[0].models[1])))
        for report in reports:
            assert dump_json(report.to_dict()) == dump_json(report_to_dict_by_hand(report))


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

    @pytest.mark.usefixtures("in_process")
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

    def test_separated_replicate_is_a_failure(self, cpus, monkeypatch):
        # two deaths, in one middle year of 4 ages x 26 years, fitted with
        # intercept + period: the fitted means sum to 2, so some replicates
        # draw no death, or deaths in the first or last year only, and then
        # have no MLE
        table = single_death_table((40.0, 12), (45.0, 12))
        pfit = fit_poisson(table, ("intercept", "period"))

        def separated(rep_seed):
            y = np.random.default_rng(rep_seed).poisson(pfit.mu_hat)
            years = set(pfit.X[y > 0, 1])
            return not years or years in ({1956.0}, {1981.0})

        m, seed = 30, 0
        # replicate i draws from seed + i, and again from seed + m + i if that failed
        draws = [seed + i for i in range(m)]
        draws += [seed + m + i for i in range(m) if separated(seed + i)]
        failures = sum(separated(seed + i) and separated(seed + m + i) for i in range(m))
        assert failures == 1
        errors, real = [], diagnostics.irls

        def recording(*args):
            try:
                return real(*args)
            except RankDeficiencyError as exc:
                errors.append(str(exc))
                raise
        monkeypatch.setattr(diagnostics, "irls", recording)
        cpus(1)
        assert simulated_envelope(pfit, table, "deviance", m_sims=m, seed=seed).n_failures == 1
        # every separated draw, and no other, was refused as such
        assert len(errors) == sum(map(separated, draws))
        assert all(e.startswith("the Poisson MLE does not exist: ") for e in errors)
        cpus(2)
        assert simulated_envelope(pfit, table, "deviance", m_sims=m, seed=seed).n_failures == 1
