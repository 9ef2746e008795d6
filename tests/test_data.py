"""Ingestion, aggregation, zero policies, and the table CSV round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsymrate import (
    MortalityRecord,
    ObservationCell,
    ObservationTable,
    TableMeta,
    TruthSpec,
    aggregate_cells,
    apply_zero_policy,
    make_cell,
    normal_spec,
    observed_log_rate,
    parse_mortality_csv,
    simulate_table,
)
from logsymrate.data_ingest import (
    ZERO_POLICIES,
    _logs,
    read_table_csv,
    records_to_csv,
    table_from_csv,
    table_to_csv,
    write_table_csv,
)
from logsymrate.errors import DataFormatError, DataValidationError
from logsymrate.logsym_family import sample_with_rng
from logsymrate.poisson_glm import fit_poisson

from .conftest import same_cells

GOOD_CSV = b"""sex,site,age_lo,age_hi,year,deaths,population
female,breast,40,44,2001,12,51000
female,breast,40,44,2001,3,9000
female,breast,45,49,2001,30,48000.5
female,breast,40,44,2003,9,52000
"""


class TestParse:
    def test_parses_records(self):
        recs = parse_mortality_csv(GOOD_CSV)
        assert len(recs) == 4
        assert recs[0] == MortalityRecord(sex="female", site="breast", age_lo=40,
                                          age_hi=44, year=2001, deaths=12,
                                          population=51000.0)

    def test_header_must_match(self):
        bad = GOOD_CSV.replace(b"sex,site", b"site,sex")
        with pytest.raises(DataFormatError):
            parse_mortality_csv(bad)

    def test_bad_row_reports_line_number(self):
        bad = GOOD_CSV.replace(b"female,breast,45,49,2001,30,48000.5",
                               b"female,breast,49,45,2001,30,48000.5")
        with pytest.raises(DataValidationError, match="line 4"):
            parse_mortality_csv(bad)

    def test_negative_deaths(self):
        with pytest.raises(DataValidationError):
            MortalityRecord(sex="male", site="lung", age_lo=50, age_hi=54,
                            year=2000, deaths=-1, population=100.0)

    def test_unknown_sex(self):
        with pytest.raises(DataValidationError):
            MortalityRecord(sex="other", site="lung", age_lo=50, age_hi=54,
                            year=2000, deaths=1, population=100.0)

    @pytest.mark.parametrize("field, value", [
        ("age_lo", 40.5), ("age_hi", True), ("year", True), ("year", "2000"),
        ("deaths", 2.5), ("deaths", math.nan),
    ])
    def test_count_fields_must_be_whole_numbers(self, field, value):
        fields = dict(sex="female", site="x", age_lo=40, age_hi=44, year=2000,
                      deaths=2, population=10.0)
        fields[field] = value
        with pytest.raises(DataValidationError, match=f"^{field} must be a whole number"):
            MortalityRecord(**fields)

    def test_whole_number_fields_stored_as_int(self):
        rec = MortalityRecord(sex="female", site="x", age_lo=40.0, age_hi=np.int64(44),
                              year=2000.0, deaths=2.0, population=10.0)
        assert all(type(v) is int for v in (rec.age_lo, rec.age_hi, rec.year, rec.deaths))
        assert records_to_csv([rec]).split("\n")[1] == "female,x,40,44,2000,2,10.0"

    def test_year_out_of_range(self):
        bad = GOOD_CSV.replace(b",2003,", b",1492,")
        with pytest.raises(DataValidationError):
            parse_mortality_csv(bad)

    def test_year_range_checked_by_record(self):
        with pytest.raises(DataValidationError,
                           match=r"^year 1500 outside admissible range \(1900, 2100\)$"):
            MortalityRecord(sex="female", site="x", age_lo=40, age_hi=44, year=1500,
                            deaths=3, population=100.0)

    def test_year_range_message_in_csv(self):
        bad = GOOD_CSV.replace(b",2001,12,", b",1500,12,")
        with pytest.raises(DataValidationError,
                           match=r"^line 2: year 1500 outside admissible range \(1900, 2100\)$"):
            parse_mortality_csv(bad)

    def test_zero_population_rejected(self):
        with pytest.raises(DataValidationError):
            MortalityRecord(sex="male", site="lung", age_lo=50, age_hi=54,
                            year=2000, deaths=1, population=0.0)

    @pytest.mark.parametrize("population", [b"inf", b"nan", b"-inf"])
    def test_non_finite_population_reports_line_number(self, population):
        bad = GOOD_CSV.replace(b",48000.5", b"," + population)
        with pytest.raises(DataValidationError, match="line 4: population"):
            parse_mortality_csv(bad)

    def test_infinite_population_record_rejected(self):
        with pytest.raises(DataValidationError, match="finite"):
            MortalityRecord(sex="male", site="lung", age_lo=50, age_hi=54,
                            year=2000, deaths=1, population=math.inf)


class TestAggregate:
    def test_sums_within_cell(self):
        recs = parse_mortality_csv(GOOD_CSV)
        table = aggregate_cells(recs, "female", "breast")
        assert len(table) == 3
        assert table.age[0] == 42.0 and table.period[0] == 2001.0
        assert table.deaths[0] == 15.0
        assert table.population[0] == 60000.0

    def test_keys_sorted(self):
        recs = parse_mortality_csv(GOOD_CSV)
        table = aggregate_cells(recs, "female", "breast")
        assert table.cell_keys == tuple(sorted(table.cell_keys))

    def test_filters_stratum(self):
        recs = list(parse_mortality_csv(GOOD_CSV))
        recs.append(MortalityRecord(sex="male", site="breast", age_lo=40, age_hi=44,
                                    year=2001, deaths=2, population=1000.0))
        table = aggregate_cells(recs, "female", "breast")
        assert table.deaths[0] == 15.0

    def test_empty_stratum_errors(self):
        recs = parse_mortality_csv(GOOD_CSV)
        with pytest.raises(DataValidationError):
            aggregate_cells(recs, "male", "breast")

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(6)))
    def test_permutation_invariant(self, order):
        pops = [51000.0, 0.1, 9000.25, 3.0e8, 17.125, 0.375]
        recs = [MortalityRecord(sex="female", site="x", age_lo=40, age_hi=44,
                                year=2001, deaths=i, population=pops[i])
                for i in range(6)]
        base = aggregate_cells(recs, "female", "x")
        shuf = aggregate_cells([recs[i] for i in order], "female", "x")
        # math.fsum makes population aggregation exactly order-independent
        assert shuf.population[0] == base.population[0]
        assert shuf.deaths[0] == base.deaths[0]


class TestZeroPolicies:
    def make(self, deaths):
        n = len(deaths)
        return ObservationTable(age=[40.0 + 5 * i for i in range(n)], period=[2000.0] * n,
                                deaths=deaths, t_value=deaths, population=[1000.0] * n,
                                meta=TableMeta(sex="female", site="x"))

    def test_drop(self):
        out = apply_zero_policy(self.make([3, 0, 5]), "drop")
        assert len(out) == 2
        assert out.meta.dropped == 1

    def test_add_half_touches_only_zeros(self):
        out = apply_zero_policy(self.make([3, 0, 5]), "add_half")
        assert out.t_value.tolist() == [3.0, 0.5, 5.0]
        assert out.deaths.tolist() == [3.0, 0.0, 5.0]

    def test_add_one_touches_all(self):
        out = apply_zero_policy(self.make([3, 0, 5]), "add_one")
        assert out.t_value.tolist() == [4.0, 1.0, 6.0]

    def test_unknown_policy(self):
        with pytest.raises(DataValidationError):
            apply_zero_policy(self.make([1]), "impute")

    def test_all_zero_drop_leaves_empty_table(self):
        # dropping every cell is legal here; the error belongs to the fit
        out = apply_zero_policy(self.make([0, 0]), "drop")
        assert len(out) == 0 and out.meta.dropped == 2
        with pytest.raises(DataValidationError):
            fit_poisson(out, ("intercept",))

    def test_policy_recorded(self):
        out = apply_zero_policy(self.make([1, 2]), "add_half")
        assert out.meta.zero_policy == "add_half"


class TestLogs:
    def test_math_log_per_entry_nan_at_zero(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([
            rng.lognormal(sigma=6.0, size=3000), rng.random(1000),
            [5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
             1.0, 0.0, 0.0],
        ])
        rng.shuffle(values)
        got = _logs(values)
        assert got.shape == values.shape and got.dtype == np.float64
        for v, g in zip(values.tolist(), got.tolist()):
            if v == 0.0:
                assert math.isnan(g)
            else:
                assert g == math.log(v) and math.copysign(1.0, g) == math.copysign(
                    1.0, math.log(v))

    def test_empty(self):
        assert _logs(np.array([])).shape == (0,)


class TestCells:
    def test_log_fields(self):
        c = make_cell(42.0, 2001.0, 12, 12.0, 60000.0)
        assert c.log_t == math.log(12.0)
        assert c.log_pop == math.log(60000.0)

    def test_zero_count_log_is_nan(self):
        c = make_cell(42.0, 2001.0, 0, 0.0, 60000.0)
        assert math.isnan(c.log_t)

    def test_observed_log_rate(self):
        c = make_cell(42.0, 2001.0, 12, 12.0, 60000.0)
        assert observed_log_rate(c) == pytest.approx(math.log(12.0 / 60000.0))

    def test_observed_log_rate_zero_errors(self):
        c = make_cell(42.0, 2001.0, 0, 0.0, 60000.0)
        with pytest.raises(DataValidationError):
            observed_log_rate(c)

    @pytest.mark.parametrize("t_value, population", [
        (math.inf, 60000.0), (math.nan, 60000.0),
        (12.0, math.inf), (12.0, math.nan),
    ])
    def test_non_finite_values_rejected(self, t_value, population):
        with pytest.raises(DataValidationError, match="finite"):
            make_cell(42.0, 2001.0, 12, t_value, population)

    def test_table_rejects_duplicate_keys(self):
        with pytest.raises(DataValidationError):
            ObservationTable(age=[42.0, 42.0], period=[2001.0, 2001.0], deaths=[1, 1],
                             t_value=[1.0, 1.0], population=[10.0, 10.0],
                             meta=TableMeta(sex="female", site="x"))

    def test_table_rejects_unsorted(self):
        with pytest.raises(DataValidationError):
            ObservationTable(age=[47.0, 42.0], period=[2001.0, 2001.0], deaths=[1, 1],
                             t_value=[1.0, 1.0], population=[10.0, 10.0],
                             meta=TableMeta(sex="female", site="x"))


class TestTableCsv:
    def test_round_trip_bit_exact(self):
        recs = parse_mortality_csv(GOOD_CSV)
        table = apply_zero_policy(aggregate_cells(recs, "female", "breast"), "add_half")
        back = table_from_csv(table_to_csv(table), meta=table.meta)
        assert same_cells(back, table)

    def test_file_round_trip(self, tmp_path):
        recs = parse_mortality_csv(GOOD_CSV)
        table = aggregate_cells(recs, "female", "breast")
        path = tmp_path / "table.csv"
        write_table_csv(table, path)
        back = read_table_csv(path)
        assert same_cells(back, table)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-3, 1e9, allow_nan=False))
    def test_awkward_floats_survive(self, pop):
        t = ObservationTable(age=[42.0], period=[2001.0], deaths=[3], t_value=[3.0],
                             population=[pop], meta=TableMeta(sex="female", site="x"))
        back = table_from_csv(table_to_csv(t), meta=t.meta)
        assert back.population[0] == pop

    @pytest.mark.parametrize("field, value", [
        (0, "nan"), (1, "inf"), (3, "inf"), (3, "nan"), (4, "inf"),
    ])
    def test_non_finite_field_reports_line_number(self, field, value):
        table = ObservationTable(age=[42.0], period=[2001.0], deaths=[3], t_value=[3.0],
                                 population=[1000.0])
        header, row, tail = table_to_csv(table).split("\n")
        fields = row.split(",")
        fields[field] = value
        with pytest.raises(DataValidationError, match="line 2"):
            table_from_csv("\n".join([header, ",".join(fields), tail]))

    def test_records_to_csv_round_trip(self):
        recs = parse_mortality_csv(GOOD_CSV)
        again = parse_mortality_csv(records_to_csv(recs).encode())
        assert list(again) == list(recs)


# column name -> ObservationCell field
CELL_FIELDS = {"age": "age_mid", "period": "period_mid", "deaths": "deaths_raw",
               "t_value": "t_value", "population": "population",
               "log_t": "log_t", "log_pop": "log_pop"}
# math.log gives -0.17032236569252399 here, np.log -0.17032236569252396
LOG_BIT_PROBE = 0.8433928918354853


def assert_matches_cells(table, cells):
    """Each column equals the per-cell make_cell values bit for bit, and the
    log columns equal math.log per entry (NaN at t_value 0)."""
    assert len(table) == len(cells)
    for column, name in CELL_FIELDS.items():
        expected = np.array([getattr(c, name) for c in cells], dtype=float)
        assert np.array_equal(getattr(table, column), expected, equal_nan=True), column
    for column, name in (("log_t", "t_value"), ("log_pop", "population")):
        expected = [math.log(getattr(c, name)) if getattr(c, name) > 0 else math.nan
                    for c in cells]
        assert np.array_equal(getattr(table, column), expected, equal_nan=True), column


class TestColumnsMatchCells:
    """The columnar table holds what a table of make_cell cells held."""

    def probe_table(self):
        t_value = [3.0, 0.0, LOG_BIT_PROBE, 0.0, 5.0]
        cells = [make_cell(40.0 + 5 * i, 2000.0, round(t), t, 1000.0 + 0.1 * i)
                 for i, t in enumerate(t_value)]
        table = ObservationTable(
            age=[c.age_mid for c in cells], period=[c.period_mid for c in cells],
            deaths=[c.deaths_raw for c in cells], t_value=t_value,
            population=[c.population for c in cells])
        return table, cells

    def test_aggregate_cells(self):
        recs = parse_mortality_csv(GOOD_CSV + b"female,breast,50,54,2001,0,47000.25\n")
        deaths, pops = {}, {}
        for r in recs:
            key = ((r.age_lo + r.age_hi) / 2.0, float(r.year))
            deaths[key] = deaths.get(key, 0) + r.deaths
            pops.setdefault(key, []).append(r.population)
        cells = [make_cell(k[0], k[1], deaths[k], float(deaths[k]), math.fsum(pops[k]))
                 for k in sorted(deaths)]
        assert_matches_cells(aggregate_cells(recs, "female", "breast"), cells)

    def test_probe_value_logs_with_math_log(self):
        table, cells = self.probe_table()
        assert math.isnan(table.log_t[1])
        assert table.log_t[2] == math.log(LOG_BIT_PROBE)
        assert_matches_cells(table, cells)

    @pytest.mark.parametrize("policy", ZERO_POLICIES)
    def test_zero_policies(self, policy):
        table, cells = self.probe_table()
        expected = []
        for c in cells:
            if policy == "drop" and c.deaths_raw == 0:
                continue
            if policy == "add_one" or (policy == "add_half" and c.deaths_raw == 0):
                bump = 1.0 if policy == "add_one" else 0.5
                c = make_cell(c.age_mid, c.period_mid, c.deaths_raw, c.deaths_raw + bump,
                              c.population)
            expected.append(c)
        assert_matches_cells(apply_zero_policy(table, policy), expected)

    def test_table_csv_round_trip(self):
        table, cells = self.probe_table()
        assert_matches_cells(table_from_csv(table_to_csv(table)), cells)

    def test_simulate_table_continuous_noise(self):
        truth = TruthSpec(ages=(40.0, 45.0, 50.0), periods=(2000.0, 2001.0),
                          beta0=-20.0, beta_age=0.06, beta_period=0.0055,
                          population=80000.0, noise="logsym", generator=normal_spec(),
                          phi=0.05)
        sim = simulate_table(truth, seed=11)
        pop = truth.population_surface()
        eps = sample_with_rng(truth.generator, len(pop), np.random.default_rng(11))
        t = np.exp(np.log(pop) + truth.log_rate_surface() + np.sqrt(0.05) * eps)
        cells = [make_cell(a, p, int(np.rint(ti)), float(ti), popi)
                 for (a, p), ti, popi in zip(truth.grid(), t, pop)]
        assert_matches_cells(sim.table, cells)

    def test_columns_are_read_only_copies(self):
        ages = np.array([40.0, 45.0])
        table = ObservationTable(age=ages, period=[2000.0, 2000.0], deaths=[1, 2],
                                 t_value=[1.0, 2.0], population=[10.0, 10.0])
        ages[0] = 99.0
        assert table.age[0] == 40.0
        assert not hasattr(table, "cells")
        for column in CELL_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, column)[0] = 1.0
