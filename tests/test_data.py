"""Ingestion, aggregation, zero policies and observed log rates."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsymrate import (
    MortalityColumns,
    ObservationCell,
    ObservationTable,
    TableMeta,
    TruthSpec,
    aggregate_cells,
    apply_zero_policy,
    make_cell,
    normal_spec,
    parse_mortality_csv,
    simulate_table,
)
from logsymrate.data_ingest import (
    ZERO_POLICIES,
    _logs,
    observed_log_rates,
    records_to_csv,
)
from logsymrate.errors import DataFormatError, DataValidationError
from logsymrate.logsym_family import sample_with_rng
from logsymrate.poisson_glm import fit_poisson

from .fresh import python

GOOD_CSV = b"""sex,site,age_lo,age_hi,year,deaths,population
female,breast,40,44,2001,12,51000
female,breast,40,44,2001,3,9000
female,breast,45,49,2001,30,48000.5
female,breast,40,44,2003,9,52000
"""
FIELDS = ("sex", "site", "age_lo", "age_hi", "year", "deaths", "population")


def columns(*rows):
    """MortalityColumns holding ``rows``, each a tuple in FIELDS order."""
    sex, site, *numbers = zip(*rows)
    return MortalityColumns(sex, site, *(np.array(col) for col in numbers))


def one_row(**given):
    """A one-row MortalityColumns: a valid row with ``given`` fields replaced."""
    row = {**dict(sex="female", site="x", age_lo=40, age_hi=44, year=2000, deaths=2,
                  population=10.0), **given}
    return MortalityColumns(*([row[name]] for name in FIELDS))


def rows(records):
    """The records as tuples of Python values, in FIELDS order."""
    return list(zip(records.sex, records.site,
                    *(getattr(records, name).tolist() for name in FIELDS[2:])))


class TestParse:
    def test_parses_records(self):
        recs = parse_mortality_csv(GOOD_CSV)
        assert len(recs) == 4
        assert rows(recs)[0] == ("female", "breast", 40, 44, 2001, 12, 51000.0)

    def test_source_must_be_text_or_bytes(self):
        with pytest.raises(DataFormatError, match="^unsupported CSV source type StringIO$"):
            parse_mortality_csv(io.StringIO(GOOD_CSV.decode()))

    @pytest.mark.parametrize("source", ["", b"", "\ufeff"], ids=["text", "bytes", "bom"])
    def test_empty_source_has_no_header(self, source):
        with pytest.raises(DataFormatError, match="^empty CSV: missing header$"):
            parse_mortality_csv(source)

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
            one_row(deaths=-1)

    def test_unknown_sex(self):
        with pytest.raises(DataValidationError):
            one_row(sex="other")

    @pytest.mark.parametrize("field, value, dtype", [
        ("age_lo", 40.5, "float64"), ("age_lo", 40.0, "float64"), ("age_hi", True, "bool"),
        ("year", True, "bool"), ("year", "2000", "<U4"), ("deaths", 2.5, "float64"),
        ("deaths", math.nan, "float64"),
    ])
    def test_count_fields_must_be_whole_numbers(self, field, value, dtype):
        with pytest.raises(DataValidationError,
                           match=f"^{field} must be whole numbers, got dtype {dtype}$"):
            one_row(**{field: value})

    def test_whole_number_fields_stored_as_int(self):
        recs = one_row(age_lo=np.uint16(40), age_hi=np.int64(44), year=np.int32(2000),
                       deaths=np.uint8(2))
        for name in ("age_lo", "age_hi", "year", "deaths"):
            assert getattr(recs, name).dtype == np.int64
        assert records_to_csv(recs).split("\n")[1] == "female,x,40,44,2000,2,10.0"

    def test_year_out_of_range(self):
        bad = GOOD_CSV.replace(b",2003,", b",1492,")
        with pytest.raises(DataValidationError):
            parse_mortality_csv(bad)

    def test_year_range_checked_by_record(self):
        with pytest.raises(DataValidationError,
                           match=r"^year 1500 outside admissible range \(1900, 2100\)$"):
            one_row(year=1500)

    def test_year_range_message_in_csv(self):
        bad = GOOD_CSV.replace(b",2001,12,", b",1500,12,")
        with pytest.raises(DataValidationError,
                           match=r"^line 2: year 1500 outside admissible range \(1900, 2100\)$"):
            parse_mortality_csv(bad)

    def test_zero_population_rejected(self):
        with pytest.raises(DataValidationError):
            one_row(population=0.0)

    @pytest.mark.parametrize("population", [b"inf", b"nan", b"-inf"])
    def test_non_finite_population_reports_line_number(self, population):
        bad = GOOD_CSV.replace(b",48000.5", b"," + population)
        with pytest.raises(DataValidationError, match="line 4: population"):
            parse_mortality_csv(bad)

    def test_infinite_population_record_rejected(self):
        with pytest.raises(DataValidationError, match="finite"):
            one_row(population=math.inf)

    def test_records_to_csv_round_trip(self):
        recs = parse_mortality_csv(GOOD_CSV)
        again = parse_mortality_csv(records_to_csv(recs).encode())
        assert rows(again) == rows(recs)

    @pytest.mark.parametrize("site", ["lung, upper", 'say "ah"', '"', ",", 'a,"b",c'])
    def test_sites_needing_quotes_round_trip(self, site):
        recs = columns(("female", site, 40, 44, 2000, 3, 100.5),
                       ("male", "plain", 45, 49, 2001, 4, 200.0))
        text = records_to_csv(recs)
        assert text.split("\n")[2] == "male,plain,45,49,2001,4,200.0"
        assert rows(parse_mortality_csv(text)) == rows(recs)


    def test_lines_count_line_breaks_inside_quoted_fields(self):
        # each record spans two lines; an error names the line its record
        # starts on, not the record's number, and a blank line counts too
        text = ('sex,site,age_lo,age_hi,year,deaths,population\n'
                'female,"lung\nupper",40,44,2000,3,100.5\n'
                'female,"lung\nupper",45,49,2000,-3,100.5\n')
        with pytest.raises(DataValidationError, match="^line 4: negative death count -3$"):
            parse_mortality_csv(text)
        with pytest.raises(DataFormatError, match="^line 7: expected 7 fields, got 6$"):
            parse_mortality_csv(text.replace(",-3,", ",3,") + '\nfemale,"a\nb",40,44,2000,3\n')
        with pytest.raises(DataValidationError, match="^line 6: non-numeric deaths 'x'$"):
            parse_mortality_csv(text.replace(",-3,", ",3,") + "female,c,40,44,2000,x,1\n")

    def test_unclosed_quote_names_the_line_its_record_starts_on(self):
        # the quote opened on line 2 swallows the rest of a 6,000-row table
        # until the csv module's field limit stops it
        row = "female,breast,40,44,2001,12,51000\n"
        text = GOOD_CSV.decode().split("\n")[0] + '\nfemale,"breast,40,44,2001,12,51000\n'
        with pytest.raises(DataFormatError,
                           match=r"^line 2: field larger than field limit \(\d+\)$"):
            parse_mortality_csv(text + row * 6000)
        with pytest.raises(DataFormatError, match="^line 1: field larger than field limit"):
            parse_mortality_csv('"sex' + row * 6000)

    def test_rows_above_an_unparsable_record_are_checked_first(self):
        text = row_csv(deaths="x").decode() + 'female,"breast,40,44,2001,12,51000\n' * 6000
        with pytest.raises(DataValidationError, match="^line 6: non-numeric deaths 'x'$"):
            parse_mortality_csv(text)

    def test_a_leading_byte_order_mark_is_dropped(self):
        plain = rows(parse_mortality_csv(GOOD_CSV))
        assert rows(parse_mortality_csv(b"\xef\xbb\xbf" + GOOD_CSV)) == plain
        assert rows(parse_mortality_csv("\ufeff" + GOOD_CSV.decode())) == plain
        with pytest.raises(DataFormatError, match="header missing column"):
            parse_mortality_csv("\ufeff\ufeff" + GOOD_CSV.decode())  # only one is dropped

    @pytest.mark.parametrize("site", [" lung ", "lung\t", "\nlung"])
    def test_site_with_outer_whitespace_is_refused(self, site):
        # a CSV field reads back stripped, so such a site would not round-trip
        with pytest.raises(DataValidationError,
                           match=f"^site {re.escape(repr(site))} has leading or trailing "
                                 "whitespace$"):
            columns(("female", "x", 40, 44, 2000, 3, 100.5),
                    ("female", site, 40, 44, 2000, 3, 100.5))
        assert columns(("female", "lung upper", 40, 44, 2000, 3, 100.5)).site == ("lung upper",)


def row_csv(age_lo="40", age_hi="44", year="2001", deaths="12", population="51000"):
    fields = ["female", "breast", age_lo, age_hi, year, deaths, population]
    quoted = [f'"{f}"' if "," in f or "\n" in f else f for f in fields]
    return GOOD_CSV + ",".join(quoted).encode() + b"\n"


class TestNumberGrammar:
    """One grammar for the CSV number fields: ASCII digits, no "_"
    separators, at most 18 digits in a whole number."""

    @pytest.mark.parametrize("field", ["age_lo", "age_hi", "year", "deaths"])
    @pytest.mark.parametrize("text", ["4_5", "\u0664\u0665", "\uff14\uff15", "4.5", "45.0",
                                      "1e2", "", "+-4", "1234567890123456789", "4\n5"])
    def test_rejected_whole_numbers_name_the_line(self, field, text):
        with pytest.raises(DataValidationError, match=r"^line 6: non-"):
            parse_mortality_csv(row_csv(**{field: text}))

    @pytest.mark.parametrize("text", ["51_000", "5\u0661000", "\uff15\uff11\uff10", "0x10",
                                      "1e", ".", "inf5", "", "1,5", "5\n1"])
    def test_rejected_populations_name_the_line(self, text):
        with pytest.raises(DataValidationError, match=r"^line 6: non-numeric population"):
            parse_mortality_csv(row_csv(population=text))

    @pytest.mark.parametrize("text", ["45", "+45", "045", " 45 ", "000000000000000045",
                                      "999999999999999999"])
    def test_whole_number_forms_read_as_int(self, text):
        assert parse_mortality_csv(row_csv(deaths=text)).deaths[4] == int(text)

    @pytest.mark.parametrize("text", ["51000", "48000.5", "47000.25", "1e+16", "1.5E-3",
                                      ".5", "5.", "+7", " 12.5 ", "5e-324"])
    def test_real_forms_read_as_float(self, text):
        assert parse_mortality_csv(row_csv(population=text)).population[4] == float(text)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "Infinity", "NaN"])
    def test_non_finite_populations_parse_then_fail_the_rule(self, text):
        with pytest.raises(DataValidationError, match="^line 6: population must be positive"):
            parse_mortality_csv(row_csv(population=text))

    @pytest.mark.parametrize("field, text, message", [
        ("population", "n/a", "non-numeric population"),
        ("population", "51,000", "non-numeric population"),
        ("deaths", "5x", "non-numeric deaths"),
    ])
    def test_bad_last_row_of_a_long_table_fails_at_once(self, field, text, message):
        # integer populations over many rows, then one bad field: the scan
        # must not backtrack over the rows above it. It runs in a child
        # process, so a hang fails at the timeout instead of stalling the suite.
        rows = ["sex,site,age_lo,age_hi,year,deaths,population"]
        rows += [f"female,breast,40,44,{1950 + i % 100},{i % 50},{51000 + i}"
                 for i in range(400)]
        last = dict(deaths="7", population="52000")
        last[field] = text
        rows.append(",".join(["female", "breast", "40", "44", "2001", last["deaths"],
                              f'"{last["population"]}"']))
        script = ("import sys\n"
                  "from logsymrate import parse_mortality_csv\n"
                  "from logsymrate.errors import DataValidationError\n"
                  "try:\n"
                  "    parse_mortality_csv(sys.stdin.read())\n"
                  "except DataValidationError as e:\n"
                  "    print(e)\n")
        done = python("-c", script, input="\n".join(rows) + "\n", timeout=60)
        assert done.stdout.strip() == f"line 402: {message} {text!r}"

    def test_first_bad_line_wins(self):
        # a rule broken on line 4 is reported before a grammar error on line 6
        bad = row_csv(deaths="1_2").replace(b",48000.5", b",-3")
        with pytest.raises(DataValidationError, match="^line 4: population"):
            parse_mortality_csv(bad)
        short = GOOD_CSV.replace(b",2003,9,52000", b",2003,9") + b"female,breast,1_0,1,2,3,4\n"
        with pytest.raises(DataFormatError, match="^line 5: expected 7 fields"):
            parse_mortality_csv(short)

    def test_record_holds_whole_numbers_to_18_digits(self):
        with pytest.raises(DataValidationError, match="^deaths must have at most 18 digits"):
            one_row(deaths=10 ** 18)
        assert one_row(deaths=10 ** 18 - 1).deaths[0] == 10 ** 18 - 1

    @pytest.mark.parametrize("value", [2 ** 64 - 40, 2 ** 63, 10 ** 18])
    def test_unsigned_values_past_the_limit_are_refused(self, value):
        # cast to int64, 2**64 - 40 would read as -40
        with pytest.raises(DataValidationError,
                           match=f"^age_lo must have at most 18 digits, got {value}$"):
            one_row(age_lo=np.uint64(value))
        big = np.array([value], dtype=np.uint64)
        with pytest.raises(DataValidationError,
                           match=f"^line 9: deaths must have at most 18 digits, got {value}$"):
            MortalityColumns(["female"], ["x"], [40], [44], [2000], big, [10.0], lines=(9,))
        assert one_row(age_lo=np.uint64(40)).age_lo.tolist() == [40]


class TestColumns:
    def test_columns_hold_the_rows(self):
        recs = parse_mortality_csv(GOOD_CSV)
        assert isinstance(recs, MortalityColumns)
        assert rows(recs) == [("female", "breast", 40, 44, 2001, 12, 51000.0),
                              ("female", "breast", 40, 44, 2001, 3, 9000.0),
                              ("female", "breast", 45, 49, 2001, 30, 48000.5),
                              ("female", "breast", 40, 44, 2003, 9, 52000.0)]
        assert recs.sex == ("female",) * 4 and recs.site == ("breast",) * 4
        for name in FIELDS[2:]:
            col = getattr(recs, name)
            assert col.dtype == (float if name == "population" else np.int64)
            assert not col.flags.writeable

    @pytest.mark.parametrize("field, value, message", [
        ("sex", "other", "unknown sex 'other'"),
        ("site", 5, "site must be a str, got 5"),
        ("year", 1500, r"year 1500 outside admissible range \(1900, 2100\)"),
        ("age_lo", 50, "age_lo 50 exceeds age_hi 44"),
        ("deaths", -1, "negative death count -1"),
        ("population", 0.0, "population must be positive and finite, got 0.0"),
        ("deaths", 2.5, "deaths must be whole numbers"),
    ])
    def test_record_rules_hold_for_columns(self, field, value, message):
        cols = dict(sex=["female"] * 2, site=["x"] * 2, age_lo=[40, 40], age_hi=[44, 44],
                    year=[2000, 2001], deaths=[1, 2], population=[10.0, 20.0])
        cols[field] = [cols[field][0], value]
        with pytest.raises(DataValidationError, match=f"^{message}"):
            MortalityColumns(**cols)


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
        recs = parse_mortality_csv(GOOD_CSV + b"male,breast,40,44,2001,2,1000\n")
        table = aggregate_cells(recs, "female", "breast")
        assert table.deaths[0] == 15.0

    def test_empty_stratum_errors(self):
        recs = parse_mortality_csv(GOOD_CSV)
        with pytest.raises(DataValidationError):
            aggregate_cells(recs, "male", "breast")

    def test_bands_sharing_a_midpoint_are_refused(self):
        recs = columns(("female", "x", 40, 44, 2000, 5, 1000.0),
                       ("female", "x", 42, 42, 2000, 7, 300.0),
                       ("female", "x", 42, 42, 2001, 7, 300.0))
        with pytest.raises(DataValidationError,
                           match=r"^age bands 40-44 and 42-42 in 2000 share the midpoint 42"):
            aggregate_cells(recs, "female", "x")

    def test_duplicate_records_of_one_stratum_add_up(self):
        recs = columns(("female", "x", 40, 44, 2000, 5, 1000.0),
                       ("female", "x", 40, 44, 2000, 7, 300.0),
                       ("female", "x", 42, 42, 2001, 1, 10.0))
        table = aggregate_cells(recs, "female", "x")
        assert table.cell_keys == ((42.0, 2000.0), (42.0, 2001.0))
        assert table.deaths.tolist() == [12.0, 1.0]
        assert table.population.tolist() == [1300.0, 10.0]

    def test_death_sums_are_exact_integers(self):
        big = 2 ** 53 + 1  # not a float; a float sum would round each addend
        recs = columns(*[("female", "x", 40, 44, 2000, big, 1.0)] * 3)
        assert aggregate_cells(recs, "female", "x").deaths[0] == float(3 * big)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(6)))
    def test_permutation_invariant(self, order):
        pops = [51000.0, 0.1, 9000.25, 3.0e8, 17.125, 0.375]
        recs = [("female", "x", 40, 44, 2001, i, pops[i]) for i in range(6)]
        base = aggregate_cells(columns(*recs), "female", "x")
        shuf = aggregate_cells(columns(*[recs[i] for i in order]), "female", "x")
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

    def test_observed_log_rates(self):
        table = ObservationTable(age=[42.0, 47.0], period=[2001.0, 2001.0], deaths=[12, 3],
                                 t_value=[12.0, 3.0], population=[60000.0, 500.0])
        assert observed_log_rates(table) == pytest.approx(
            [math.log(12.0 / 60000.0), math.log(3.0 / 500.0)])

    def test_observed_log_rates_zero_errors(self):
        table = ObservationTable(age=[42.0, 47.0], period=[2001.0, 2001.0], deaths=[12, 0],
                                 t_value=[12.0, 0.0], population=[60000.0, 500.0])
        with pytest.raises(DataValidationError, match="observed_log_rates requires t_value > 0"):
            observed_log_rates(table)

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
        for _, _, lo, hi, year, d, pop in rows(recs):
            key = ((lo + hi) / 2.0, float(year))
            deaths[key] = deaths.get(key, 0) + d
            pops.setdefault(key, []).append(pop)
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
