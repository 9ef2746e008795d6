"""Synthetic table generation."""

import numpy as np
import pytest

from logsymrate import (
    TruthSpec,
    aggregate_cells,
    normal_spec,
    parse_mortality_csv,
    simulate_table,
    simulated_to_records,
)
from logsymrate.data_ingest import records_to_csv
from logsymrate.errors import DataValidationError, SpecificationError

from .conftest import same_cells

AGES = (40.0, 45.0, 50.0, 55.0)
PERIODS = (2000.0, 2001.0, 2002.0)


def poisson_truth(**kw):
    base = dict(ages=AGES, periods=PERIODS, beta0=-20.0, beta_age=0.06,
                beta_period=0.0055, population=80000.0, noise="poisson_counts")
    base.update(kw)
    return TruthSpec(**base)


class TestPoissonNoise:
    def test_counts_are_nonnegative_integers(self):
        sim = simulate_table(poisson_truth(), seed=5)
        d = np.asarray(sim.table.deaths)
        assert np.all(d >= 0)
        np.testing.assert_array_equal(d, np.rint(d))

    def test_deterministic(self):
        a = simulate_table(poisson_truth(), seed=5)
        b = simulate_table(poisson_truth(), seed=5)
        assert same_cells(a.table, b.table)

    def test_seed_changes_draw(self):
        a = simulate_table(poisson_truth(), seed=5)
        b = simulate_table(poisson_truth(), seed=6)
        assert not same_cells(a.table, b.table)

    def test_mean_matches_expected(self):
        truth = poisson_truth(population=3.0e6)
        draws = np.array([simulate_table(truth, seed=s).table.deaths
                          for s in range(60)])
        rel = np.abs(draws.mean(axis=0) - simulate_table(truth, 0).expected) \
            / simulate_table(truth, 0).expected
        # 60 replicates of counts in the thousands: ~2% Monte Carlo noise
        assert np.max(rel) < 0.05


class TestLogsymNoise:
    def test_log_identity(self):
        truth = poisson_truth(noise="logsym", generator=normal_spec(), phi=0.05)
        sim = simulate_table(truth, seed=11)
        t = np.asarray(sim.table.t_value)
        pop = np.asarray(sim.table.population)
        eps = (np.log(t) - np.log(pop) - sim.log_rate) / np.sqrt(sim.phi)
        assert np.all(np.isfinite(eps))
        assert np.std(eps) == pytest.approx(1.0, abs=0.35)

    def test_round_counts_mode(self):
        truth = poisson_truth(noise="logsym", generator=normal_spec(), phi=0.05,
                              round_counts=True)
        sim = simulate_table(truth, seed=11)
        t = np.asarray(sim.table.t_value)
        np.testing.assert_array_equal(t, np.rint(t))

    def test_generator_required(self):
        with pytest.raises(SpecificationError):
            poisson_truth(noise="logsym", generator=None)

    def test_phi_surface_callable(self):
        truth = poisson_truth(noise="logsym", generator=normal_spec(),
                              phi=lambda a, p: 0.01 + 1e-4 * a)
        sim = simulate_table(truth, seed=2)
        assert sim.phi[0] == pytest.approx(0.01 + 1e-4 * AGES[0])


class TestSurfaces:
    def test_grid_order_matches_table(self):
        sim = simulate_table(poisson_truth(), seed=1)
        keys = list(zip(sim.table.age.tolist(), sim.table.period.tolist()))
        assert keys == [(a, p) for a in AGES for p in PERIODS]

    def test_nonlinear_components_add(self):
        truth = poisson_truth(f_age=lambda a: 0.1 * (a - 47.5) ** 2 / 100,
                              f_period=lambda p: -0.02 * (p - 2001.0))
        lr = truth.log_rate_surface()
        base = poisson_truth().log_rate_surface()
        a0, p0 = AGES[0], PERIODS[0]
        expected = base[0] + 0.1 * (a0 - 47.5) ** 2 / 100 - 0.02 * (p0 - 2001.0)
        assert lr[0] == pytest.approx(expected)

    @pytest.mark.parametrize("f_age", [lambda a: np.inf, lambda a: np.nan],
                             ids=["inf", "nan"])
    def test_callable_log_rate_must_be_finite(self, f_age):
        # a library callable is checked where the surface is formed; a
        # spec file's table is checked when it is read
        with pytest.raises(SpecificationError, match="^log-rate surface must be finite$"):
            poisson_truth(f_age=f_age).log_rate_surface()

    @pytest.mark.parametrize("value", [0.0, -0.1, np.nan], ids=["zero", "negative", "nan"])
    def test_callable_phi_must_be_positive(self, value):
        truth = poisson_truth(noise="logsym", generator=normal_spec(),
                              phi=lambda a, p: value if a == AGES[-1] else 0.04)
        with pytest.raises(SpecificationError, match="^dispersion surface must be positive$"):
            truth.phi_surface()

    def test_population_grid(self):
        pops = tuple(tuple(1000.0 * (i + 1) + j for j in range(3)) for i in range(4))
        truth = poisson_truth(population=pops)
        surf = truth.population_surface()
        # cells run period-fastest within each age
        assert surf[0] == 1000.0 and surf[1] == 1001.0 and surf[3] == 2000.0

    def test_callable_population_rejected(self):
        with pytest.raises(SpecificationError,
                           match="^population must be a number or a per-cell table, got a "
                                 "callable$"):
            poisson_truth(population=lambda a, p: 1e5)

    def test_invalid_population(self):
        with pytest.raises(SpecificationError):
            simulate_table(poisson_truth(population=-5.0), seed=0)

    @pytest.mark.parametrize("population", [
        ((1e5, 1e5), (1e5, 1e5)), ((1e5,) * 3,) * 3 + ((1e5,) * 2,), (1e5,) * 12,
    ], ids=["2x2", "ragged", "flat"])
    def test_population_table_must_match_the_grid(self, population):
        with pytest.raises(SpecificationError, match="^population table must be 4 x 3 "):
            poisson_truth(population=population)

    @pytest.mark.parametrize("noise", [{}, {"noise": "logsym", "generator": normal_spec()}],
                             ids=["poisson_counts", "logsym"])
    @pytest.mark.parametrize("beta0, population", [(0.0, 1e18), (50.0, 1e5), (1e3, 1e5)],
                             ids=["at-the-limit", "finite-past-it", "exp-overflows"])
    def test_expected_deaths_must_fit_a_record(self, noise, beta0, population):
        # a record holds at most 18 digits; tier-1 turns RuntimeWarning into
        # an error, so an overflow warning would fail here too
        truth = poisson_truth(beta0=beta0, beta_age=0.0, beta_period=0.0,
                              population=population, **noise)
        with pytest.raises(SpecificationError, match="^expected deaths must be finite and below"):
            simulate_table(truth, seed=0)

    def test_overflowing_logsym_response_raises_without_warning(self):
        truth = poisson_truth(noise="logsym", generator=normal_spec(), phi=1e6)
        with pytest.raises(SpecificationError, match="overflowed"):
            simulate_table(truth, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_nonnegative_whole_number(self, seed):
        with pytest.raises(SpecificationError, match="^seed must be"):
            simulate_table(poisson_truth(), seed=seed)

    def test_whole_float_seed_is_the_int_seed(self):
        assert same_cells(simulate_table(poisson_truth(), seed=5.0).table,
                          simulate_table(poisson_truth(), seed=5).table)

    def test_grids_sorted_and_deduped(self):
        truth = TruthSpec(ages=(50.0, 40.0, 50.0), periods=(2001.0, 2000.0),
                          beta0=-20.0, beta_age=0.06, beta_period=0.0055,
                          population=1000.0, noise="poisson_counts")
        assert truth.ages == (40.0, 50.0)
        assert truth.periods == (2000.0, 2001.0)

    @pytest.mark.parametrize("ages, periods, grid", [
        ((50.0, 40.0), (2000.0,), "ages"),
        ((40.0, 40.0), (2000.0,), "ages"),
        ((40.0,), (2001.0, 2000.0), "periods"),
    ], ids=["unsorted-ages", "repeated-age", "unsorted-periods"])
    def test_population_table_needs_increasing_grids(self, ages, periods, grid):
        # the table's rows and columns follow the grids as given, so sorting
        # them would hand each age or period another cell's population
        population = ((5e4,) * len(periods),) * len(ages)
        with pytest.raises(SpecificationError,
                           match=f"^{grid} must be strictly increasing with a population"):
            poisson_truth(ages=ages, periods=periods, population=population)

    @pytest.mark.parametrize("name, value", [
        ("population", "1e5"), ("population", True), ("phi", "0.04"), ("phi", False),
        ("beta0", "-5"), ("beta_age", "0.1"), ("beta_period", True), ("beta0", None),
    ])
    def test_numbers_must_be_numbers(self, name, value):
        # a string would be parsed as a number, and a bool read as 0 or 1
        with pytest.raises(SpecificationError, match=f"^{name} must be a number, got "):
            poisson_truth(noise="logsym", generator=normal_spec(), **{name: value})

    @pytest.mark.parametrize("flag", ["false", 1, None])
    def test_round_counts_must_be_a_bool(self, flag):
        with pytest.raises(SpecificationError,
                           match="^noise round_counts must be true or false, got "):
            poisson_truth(noise="logsym", generator=normal_spec(), round_counts=flag)

    @pytest.mark.parametrize("kw", [
        dict(generator=normal_spec()), dict(round_counts=True),
        dict(generator=normal_spec(), round_counts=True), dict(phi=0.5),
    ], ids=["generator", "round_counts", "both", "phi"])
    def test_poisson_noise_refuses_what_only_logsym_noise_reads(self, kw):
        # each used to be dropped unread
        with pytest.raises(SpecificationError, match="^poisson_counts noise takes no "
                                                     "generator and no round_counts"):
            poisson_truth(**kw)

    def test_phi_defaults_to_0_05_under_logsym_noise_only(self):
        assert poisson_truth().phi is None
        truth = poisson_truth(noise="logsym", generator=normal_spec())
        assert truth.phi == 0.05
        assert simulate_table(truth, seed=3).phi.tolist() == [0.05] * len(truth.grid())


class TestRecordsRoundTrip:
    def test_csv_pipeline_recovers_table(self):
        sim = simulate_table(poisson_truth(), seed=8)
        recs = simulated_to_records(sim, band_width=5)
        parsed = parse_mortality_csv(records_to_csv(recs).encode())
        table = aggregate_cells(parsed, "female", "synthetic")
        assert table.cell_keys == sim.table.cell_keys
        np.testing.assert_array_equal(table.deaths, sim.table.deaths)

    def test_band_geometry(self):
        sim = simulate_table(poisson_truth(), seed=8)
        recs = simulated_to_records(sim, band_width=5)
        assert recs.age_lo[0] == 38 and recs.age_hi[0] == 42
        assert np.array_equal(recs.age_hi - recs.age_lo, np.full(len(recs), 4))

    @pytest.mark.parametrize("band_width, message", [
        (True, "must be a whole number, got True"),
        ("5", "must be a whole number, got '5'"),
        (2.5, "must be a whole number, got 2.5"),
        (0, "must be >= 1, got 0"),
        (-1, "must be >= 1, got -1"),
    ], ids=["bool", "string", "fraction", "zero", "negative"])
    def test_band_width_is_a_whole_number_of_at_least_one(self, band_width, message):
        # a bool used to write 1-year bands, and the others failed on the
        # band, age_lo or dtype rules or as a bare TypeError
        sim = simulate_table(poisson_truth(), seed=8)
        with pytest.raises(SpecificationError, match=f"^band_width {message}$"):
            simulated_to_records(sim, band_width=band_width)

    def test_whole_float_band_width_is_the_int(self):
        sim = simulate_table(poisson_truth(), seed=8)
        assert records_to_csv(simulated_to_records(sim, 5.0)) == \
            records_to_csv(simulated_to_records(sim, 5))

    def test_fractional_midpoint_rejected(self):
        truth = poisson_truth(ages=(40.25, 45.0, 50.0))
        sim = simulate_table(truth, seed=8)
        with pytest.raises(DataValidationError, match="band"):
            simulated_to_records(sim, band_width=5)

    def test_fractional_period_rejected(self):
        sim = simulate_table(poisson_truth(periods=(2000.0, 2000.5, 2001.0)), seed=8)
        with pytest.raises(DataValidationError,
                           match="^period midpoint 2000.5 is not a whole year$"):
            simulated_to_records(sim, band_width=5)


class TestBenchmarkInputFormat:
    """The benchmark writes its input tables with
    records_to_csv(simulated_to_records(sim, band_width)). Each row must
    keep its bytes: str of each whole number and repr of the population."""

    @pytest.mark.parametrize("band_width", [1, 5])
    def test_rows_match_per_row_oracle(self, band_width):
        ages, periods = tuple(range(50, 62)), tuple(range(1990, 1997))
        # populations with long reprs, so a rounded or shortened float shows
        pops = tuple(tuple(1e5 / (1.0 + a) + p / 3.0 for p in periods) for a in ages)
        truth = TruthSpec(ages=ages, periods=periods, beta0=-9.0, beta_age=0.09,
                          beta_period=-0.01, population=pops, noise="logsym",
                          generator=normal_spec(), phi=0.03, sex="male", site="colon")
        sim = simulate_table(truth, seed=3)
        oracle = ["sex,site,age_lo,age_hi,year,deaths,population"]
        for age, period, deaths, pop in zip(sim.table.age.tolist(), sim.table.period.tolist(),
                                            sim.table.deaths.tolist(),
                                            sim.table.population.tolist()):
            lo = int(age) - (band_width - 1) // 2
            oracle.append(",".join(["male", "colon", str(lo), str(lo + band_width - 1),
                                    str(int(period)), str(int(deaths)), repr(pop)]))
        text = records_to_csv(simulated_to_records(sim, band_width))
        assert text == "\n".join(oracle) + "\n"
        assert len(oracle) == len(ages) * len(periods) + 1
