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
    aggregate_cells,
    apply_zero_policy,
    make_cell,
    observed_log_rate,
    parse_mortality_csv,
)
from logsymrate.data_ingest import (
    read_table_csv,
    records_to_csv,
    table_from_csv,
    table_to_csv,
    write_table_csv,
)
from logsymrate.errors import DataFormatError, DataValidationError
from logsymrate.poisson_glm import fit_poisson

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

    def test_year_out_of_range(self):
        bad = GOOD_CSV.replace(b",2003,", b",1492,")
        with pytest.raises(DataValidationError):
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
        cell = table.cells[0]
        assert cell.age_mid == 42.0 and cell.period_mid == 2001.0
        assert cell.deaths_raw == 15.0
        assert cell.population == 60000.0

    def test_keys_sorted(self):
        recs = parse_mortality_csv(GOOD_CSV)
        table = aggregate_cells(recs, "female", "breast")
        assert table.cell_keys == tuple(sorted(table.cell_keys))

    def test_filters_stratum(self):
        recs = list(parse_mortality_csv(GOOD_CSV))
        recs.append(MortalityRecord(sex="male", site="breast", age_lo=40, age_hi=44,
                                    year=2001, deaths=2, population=1000.0))
        table = aggregate_cells(recs, "female", "breast")
        assert table.cells[0].deaths_raw == 15.0

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
        base = aggregate_cells(recs, "female", "x").cells[0]
        shuf = aggregate_cells([recs[i] for i in order], "female", "x").cells[0]
        # math.fsum makes population aggregation exactly order-independent
        assert shuf.population == base.population
        assert shuf.deaths_raw == base.deaths_raw


class TestZeroPolicies:
    def make(self, deaths):
        cells = tuple(make_cell(40.0 + 5 * i, 2000.0, d, float(d), 1000.0)
                      for i, d in enumerate(deaths))
        return ObservationTable(cells=cells, meta=TableMeta(sex="female", site="x"))

    def test_drop(self):
        out = apply_zero_policy(self.make([3, 0, 5]), "drop")
        assert len(out) == 2
        assert out.meta.dropped == 1

    def test_add_half_touches_only_zeros(self):
        out = apply_zero_policy(self.make([3, 0, 5]), "add_half")
        assert [c.t_value for c in out.cells] == [3.0, 0.5, 5.0]
        assert [c.deaths_raw for c in out.cells] == [3.0, 0.0, 5.0]

    def test_add_one_touches_all(self):
        out = apply_zero_policy(self.make([3, 0, 5]), "add_one")
        assert [c.t_value for c in out.cells] == [4.0, 1.0, 6.0]

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
        c = make_cell(42.0, 2001.0, 1, 1.0, 10.0)
        with pytest.raises(DataValidationError):
            ObservationTable(cells=(c, c), meta=TableMeta(sex="female", site="x"))

    def test_table_rejects_unsorted(self):
        a = make_cell(47.0, 2001.0, 1, 1.0, 10.0)
        b = make_cell(42.0, 2001.0, 1, 1.0, 10.0)
        with pytest.raises(DataValidationError):
            ObservationTable(cells=(a, b), meta=TableMeta(sex="female", site="x"))


class TestTableCsv:
    def test_round_trip_bit_exact(self):
        recs = parse_mortality_csv(GOOD_CSV)
        table = apply_zero_policy(aggregate_cells(recs, "female", "breast"), "add_half")
        back = table_from_csv(table_to_csv(table), meta=table.meta)
        assert back.cells == table.cells

    def test_file_round_trip(self, tmp_path):
        recs = parse_mortality_csv(GOOD_CSV)
        table = aggregate_cells(recs, "female", "breast")
        path = tmp_path / "table.csv"
        write_table_csv(table, path)
        back = read_table_csv(path)
        assert back.cells == table.cells

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-3, 1e9, allow_nan=False))
    def test_awkward_floats_survive(self, pop):
        c = make_cell(42.0, 2001.0, 3, 3.0, pop)
        t = ObservationTable(cells=(c,), meta=TableMeta(sex="female", site="x"))
        back = table_from_csv(table_to_csv(t), meta=t.meta)
        assert back.cells[0].population == pop

    @pytest.mark.parametrize("field, value", [
        (0, "nan"), (1, "inf"), (3, "inf"), (3, "nan"), (4, "inf"),
    ])
    def test_non_finite_field_reports_line_number(self, field, value):
        c = make_cell(42.0, 2001.0, 3, 3.0, 1000.0)
        header, row, tail = table_to_csv(ObservationTable(cells=(c,))).split("\n")
        fields = row.split(",")
        fields[field] = value
        with pytest.raises(DataValidationError, match="line 2"):
            table_from_csv("\n".join([header, ",".join(fields), tail]))

    def test_records_to_csv_round_trip(self):
        recs = parse_mortality_csv(GOOD_CSV)
        again = parse_mortality_csv(records_to_csv(recs).encode())
        assert list(again) == list(recs)
