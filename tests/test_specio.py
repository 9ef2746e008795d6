"""JSON spec documents and deterministic serialization."""

import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logsymrate import (
    GeneratorSpec,
    ModelSpec,
    MortalityColumns,
    PoissonSpec,
    SplineTerm,
    SubmodelSpec,
    dump_json,
    fit,
    fit_poisson,
    fit_to_dict,
    load_json,
    model_spec_to_dict,
    normal_spec,
    TruthSpec,
    apply_zero_policy,
    parse_model_spec,
    parse_truth_spec,
    simulate_table,
    simulated_envelope,
)
from logsymrate.errors import DataFormatError, DataValidationError, SpecificationError, \
    _whole
from logsymrate.logsym_family import FAMILY_PARAMS
from logsymrate.specio import _family_to_dict

from .conftest import plain_spec, small_logsym_table, small_poisson_table

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported for the duration of one test."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestJsonWriter:
    def test_shortest_round_trip_text(self):
        # repr's text, as the CSVs write: an integral float keeps its ".0"
        # and -0.0 its sign
        assert dump_json([0.1, 2.0, -0.0, 1e16]) == "[0.1,2.0,-0.0,1e+16]\n"

    def test_nonfinite_to_null(self):
        assert dump_json([math.nan, math.inf, -math.inf]) == "[null,null,null]\n"

    def test_key_order_is_construction_order(self):
        assert dump_json({"b": 1, "a": 2}) == '{"b":1,"a":2}\n'

    def test_bools_including_numpy(self):
        doc = {"plain": True, "np": np.bool_(False)}
        assert dump_json(doc) == '{"plain":true,"np":false}\n'

    def test_numpy_arrays_and_scalars(self):
        doc = {"v": np.array([1.5, 2.5]), "n": np.int64(7), "x": np.float64(0.25)}
        assert dump_json(doc) == '{"v":[1.5,2.5],"n":7,"x":0.25}\n'

    def test_rejects_unknown_types(self):
        with pytest.raises(SpecificationError):
            dump_json({"bad": object()})

    def test_load_json_bad_input(self):
        with pytest.raises(DataFormatError):
            load_json("{not json")

    def test_load_json_drops_a_leading_byte_order_mark(self):
        # json.loads drops it from bytes but refuses it in a str
        assert load_json('\ufeff{"a": 1}') == load_json(b'\xef\xbb\xbf{"a": 1}') == {"a": 1}
        with pytest.raises(DataFormatError, match="^invalid JSON: "):
            load_json('\ufeff\ufeff{"a": 1}')

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, x):
        # == alone passes an int 10 for 10.0 and 0 for -0.0
        back = json.loads(dump_json(x))
        assert type(back) is float
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)

    def test_deterministic(self):
        doc = {"a": [1, 2.5, "s", None, True], "b": {"c": 1e-300}}
        assert dump_json(doc) == dump_json(doc)


FULL_LOGSYM_DOC = {
    "model": "logsym",
    "family": {"name": "student", "nu": 5.0},
    "location": {
        "covariates": ["intercept", "period"],
        "terms": [{"kind": "ncs", "covariate": "age", "lambda": 12.5}],
        "use_offset": True,
    },
    "dispersion": {
        "covariates": ["intercept"],
        "terms": [{"kind": "psp", "covariate": "age", "lambda": "select",
                   "basis_dim": 8, "diff_order": 2}],
    },
    "zero_policy": "drop",
    "jacobian_adjust": True,
    "convergence": {"tol_loglik": 1e-9, "tol_param": 1e-7,
                    "max_outer": 150, "max_halvings": 25},
    "lambda_grid": [0.1, 1.0, 10.0],
}


class TestModelSpecs:
    def test_full_logsym_parse(self):
        spec = parse_model_spec(FULL_LOGSYM_DOC)
        assert isinstance(spec, ModelSpec)
        assert spec.generator == GeneratorSpec(family="student", nu=5.0)
        assert spec.location.use_offset and not spec.dispersion.use_offset
        assert spec.location.terms[0].lam == 12.5
        assert spec.dispersion.terms[0].lam is None
        assert spec.dispersion.terms[0].basis_dim == 8
        assert spec.zero_policy == "drop"
        assert spec.jacobian_adjust
        assert spec.max_outer == 150
        assert spec.lambda_grid == (0.1, 1.0, 10.0)

    def test_round_trip_through_dict(self):
        spec = parse_model_spec(FULL_LOGSYM_DOC)
        again = parse_model_spec(load_json(dump_json(model_spec_to_dict(spec))))
        assert again == spec

    def test_default_round_trip(self):
        spec = plain_spec()
        assert parse_model_spec(model_spec_to_dict(spec)) == spec

    def test_select_marker_round_trip(self):
        term = SplineTerm(kind="ncs", covariate="age", lam=None)
        spec = ModelSpec(
            generator=normal_spec(),
            location=SubmodelSpec(covariates=("intercept",), use_offset=True,
                                  terms=(term,)),
        )
        d = model_spec_to_dict(spec)
        assert d["location"]["terms"][0]["lambda"] == "select"
        assert parse_model_spec(d) == spec

    def test_poisson_parse_and_round_trip(self):
        doc = {"model": "poisson", "covariates": ["intercept", "age"],
               "zero_policy": "add_one"}
        spec = parse_model_spec(doc)
        assert spec == PoissonSpec(covariates=("intercept", "age"),
                                   zero_policy="add_one")
        assert parse_model_spec(model_spec_to_dict(spec)) == spec

    def test_geometric_grid_shorthand(self):
        doc = dict(FULL_LOGSYM_DOC, lambda_grid={"lo": 1e-2, "hi": 1e2, "num": 5})
        spec = parse_model_spec(doc)
        np.testing.assert_allclose(spec.lambda_grid, np.geomspace(1e-2, 1e2, 5))

    def test_unknown_model(self):
        with pytest.raises(SpecificationError, match="logsym"):
            parse_model_spec({"model": "negbin"})

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra=1),
        lambda d: d["family"].update(shape=2),
        lambda d: d["location"].update(offset=True),
        lambda d: d["location"]["terms"][0].update(knots=[1, 2]),
        lambda d: d["convergence"].update(tol=1e-8),
    ])
    def test_unknown_keys_rejected(self, mutate):
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match="unknown key"):
            parse_model_spec(doc)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(convergence=[1]), "malformed model spec: TypeError: "),
        (lambda d: d["location"].update(terms=5), "submodel terms must be a list, got 5$"),
        (lambda d: d["location"].update(terms=[5]), "malformed model spec: TypeError: "),
        (lambda d: d["location"].update(covariates=5),
         "submodel covariates must be a list, got 5$"),
        (lambda d: d["family"].update(nu="a"), "family nu must be a number, got 'a'$"),
        (lambda d: d.update(lambda_grid="abc"), "lambda_grid must be a list, got 'abc'$"),
        (lambda d: d["dispersion"]["terms"][0].update(basis_dim="x"),
         "term basis_dim must be a whole number, got 'x'$"),
        (lambda d: d["convergence"].update(max_outer="a"),
         "max_outer must be a whole number, got 'a'$"),
        (lambda d: d["convergence"].update(tol_loglik="a"),
         "tol_loglik must be a number, got 'a'$"),
        (lambda d: d.update(lambda_grid={"lo": 1}), "malformed model spec: KeyError: "),
    ], ids=["convergence-list", "terms-number", "term-number", "covariates-number",
            "nu-string", "lambda_grid-string", "basis_dim-string", "max_outer-string",
            "tol_loglik-string", "lambda_grid-missing-key"])
    def test_malformed_fields_rejected(self, mutate, message):
        # a wrong shape is a conversion error of the reader; a wrong type is
        # refused by the field's owner, with the message the library gives
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=f"^{message}"):
            parse_model_spec(doc)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["convergence"].update(tol_loglik=float("nan")), "tol_loglik"),
        (lambda d: d["convergence"].update(tol_loglik=float("inf")), "tol_loglik"),
        (lambda d: d["convergence"].update(tol_param=-1), "tol_param"),
        (lambda d: d["convergence"].update(tol_param=0), "tol_param"),
        (lambda d: d["convergence"].update(max_outer=0), "max_outer"),
        (lambda d: d["convergence"].update(max_outer=2.7), "max_outer"),
        (lambda d: d["convergence"].update(max_outer=float("inf")), "max_outer"),
        (lambda d: d["convergence"].update(max_halvings=-1), "max_halvings"),
        (lambda d: d["convergence"].update(max_halvings=float("nan")), "max_halvings"),
        (lambda d: d.update(lambda_grid=[1.0, float("nan")]), "lambda_grid"),
        (lambda d: d.update(lambda_grid=[float("inf")]), "lambda_grid"),
        # JSON true is not the tolerance 1.0
        (lambda d: d["convergence"].update(tol_loglik=True), "tol_loglik"),
        (lambda d: d["convergence"].update(tol_param=True), "tol_param"),
    ])
    def test_out_of_range_settings_rejected(self, mutate, field):
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=f"^{field} must "):
            parse_model_spec(doc)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["family"].update(nu=True), "nu"),
        (lambda d: d["family"].update(nu=math.inf), "nu"),
        (lambda d: d.update(family={"name": "powerexp", "zeta": True}), "zeta"),
        (lambda d: d.update(family={"name": "contnormal", "nu1": True, "nu2": 2.0}), "nu1"),
        (lambda d: d.update(family={"name": "contnormal", "nu1": 0.1, "nu2": math.inf}),
         "nu2"),
        (lambda d: d["location"]["terms"][0].update({"lambda": math.inf}), "lambda"),
    ], ids=["nu-true", "nu-inf", "zeta-true", "nu1-true", "nu2-inf", "lambda-inf"])
    def test_boolean_or_infinite_parameters_rejected(self, mutate, field):
        # JSON true is not the number 1 (a student "nu": true would fit a
        # Cauchy), and an infinite value leaves the objective non-finite
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=f" {field} must be "):
            parse_model_spec(doc)

    @pytest.mark.parametrize("family, stray", [
        ({"name": "normal", "nu": 5}, "nu"),
        ({"name": "student", "nu": 5, "zeta": 0.4}, "zeta"),
        ({"name": "powerexp", "zeta": 0.4, "nu2": 1.0}, "nu2"),
        ({"name": "contnormal", "nu1": 0.1, "nu2": 0.3, "nu": 2.0}, "nu"),
    ], ids=["normal-nu", "student-zeta", "powerexp-nu2", "contnormal-nu"])
    def test_parameter_of_another_family_rejected(self, family, stray):
        # it used to be dropped without a word, from the fit and from fit.json
        doc = dict(FULL_LOGSYM_DOC, family=family)
        with pytest.raises(SpecificationError,
                           match=f"^{family['name']} family takes no {stray}, got "):
            parse_model_spec(doc)

    def test_benchmark_family_documents_round_trip(self, workloads):
        # so the check on stray parameters can never reject a benchmark spec
        assert set(workloads.FAMILIES) == set(FAMILY_PARAMS)
        for doc in workloads.FAMILIES.values():
            spec = parse_model_spec(dict(FULL_LOGSYM_DOC, family=doc))
            assert model_spec_to_dict(spec)["family"] == doc
            assert _family_to_dict(spec.generator) == doc

    @pytest.mark.parametrize("basis_dim, diff_order, message", [
        (3, 2, "psp basis_dim 3 must exceed the degree 3"),
        (2, 1, "psp basis_dim 2 must exceed the degree 3"),
        (2, 2, r"psp basis_dim 2 too small for diff_order 2; need at least diff_order \+ 1"),
        (8, 0, "diff_order must be >= 1, got 0"),
    ])
    def test_psp_sizes_rejected_when_read(self, basis_dim, diff_order, message):
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        doc["dispersion"]["terms"][0].update(basis_dim=basis_dim, diff_order=diff_order)
        with pytest.raises(SpecificationError, match=f"^{message}$"):
            parse_model_spec(doc)

    def test_integral_counts_kept_as_ints(self):
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        doc["convergence"].update(max_outer=1.0, max_halvings=0)
        spec = parse_model_spec(doc)
        assert (spec.max_outer, spec.max_halvings) == (1, 0)
        assert type(spec.max_outer) is int and type(spec.max_halvings) is int

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d["location"].update(use_offset="false"),
         "location submodel use_offset must be true or false"),
        (lambda d: d["dispersion"].update(use_offset=0),
         "dispersion submodel use_offset must be true or false"),
        (lambda d: d.update(jacobian_adjust="no"),
         "logsym spec jacobian_adjust must be true or false"),
        (lambda d: d.update(convergence="abc"),
         "malformed model spec: TypeError: convergence must be a JSON object"),
        (lambda d: d.update(location="abc"),
         "location submodel must be a JSON object"),
        (lambda d: d["location"].update(terms=["abc"]), "term must be a JSON object"),
    ])
    def test_non_boolean_flags_and_non_object_parts_rejected(self, mutate, match):
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=match):
            parse_model_spec(doc)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["location"].update(covariates="intercept"), "submodel covariates"),
        (lambda d: d["dispersion"].update(covariates="intercept"), "submodel covariates"),
        (lambda d: d["location"].update(covariates={"intercept": 1}), "submodel covariates"),
        (lambda d: d.update(lambda_grid="12"), "lambda_grid"),
    ], ids=["location", "dispersion", "object", "lambda_grid"])
    def test_string_where_a_list_belongs_rejected(self, mutate, field):
        # it was read one character at a time: "12" as the grid (1.0, 2.0)
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=f"^{field} must be a list, got "):
            parse_model_spec(doc)

    def test_string_poisson_covariates_rejected(self):
        # it was read as ('i', 'n', ...) and failed on unknown covariate 'i'
        with pytest.raises(SpecificationError,
                           match="^covariates must be a list, got 'intercept'$"):
            parse_model_spec({"model": "poisson", "covariates": "intercept"})

    def test_malformed_poisson_covariates_rejected(self):
        with pytest.raises(SpecificationError, match="^covariates must be a list, got 5$"):
            parse_model_spec({"model": "poisson", "covariates": 5})

    def test_missing_required_parts(self):
        with pytest.raises(SpecificationError):
            parse_model_spec({"model": "logsym", "family": {"name": "normal"}})
        with pytest.raises(SpecificationError):
            parse_model_spec({"model": "logsym",
                              "location": {"covariates": ["intercept"]}})

    def test_bad_lambda_value(self):
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        doc["location"]["terms"][0]["lambda"] = "auto"
        with pytest.raises(SpecificationError, match="lambda"):
            parse_model_spec(doc)

    def test_null_lambda_is_not_the_select_marker(self):
        # SplineTerm reads None as selection, a file writes "select"
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        doc["location"]["terms"][0]["lambda"] = None
        with pytest.raises(SpecificationError,
                           match='^term lambda must be a number or "select", got None$'):
            parse_model_spec(doc)


TRUTH_DOC = {
    "ages": {"min": 40.0, "max": 70.0, "count": 7},
    "periods": [2000.0, 2005.0, 2010.0],
    "log_rate": {"beta0": -22.0, "beta_age": 0.07, "beta_period": 0.005,
                 "f_age": {"x": [40.0, 55.0, 70.0], "y": [0.0, 0.4, 0.0]}},
    "population": 150000.0,
    "noise": {"kind": "logsym", "family": {"name": "normal"}, "phi": 0.04},
}


class TestTruthSpecs:
    def test_grids(self):
        truth = parse_truth_spec(TRUTH_DOC)
        np.testing.assert_allclose(truth.ages, np.linspace(40, 70, 7))
        assert truth.periods == (2000.0, 2005.0, 2010.0)

    def test_tabulated_function_interpolates(self):
        truth = parse_truth_spec(TRUTH_DOC)
        assert truth.f_age(47.5) == pytest.approx(0.2)
        assert truth.f_age(55.0) == pytest.approx(0.4)

    def test_tabulated_phi_is_age_function(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        doc["noise"]["phi"] = {"x": [40.0, 70.0], "y": [0.02, 0.08]}
        truth = parse_truth_spec(doc)
        assert truth.phi(55.0, 2005.0) == pytest.approx(0.05)

    def test_poisson_noise(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        doc["noise"] = {"kind": "poisson_counts"}
        truth = parse_truth_spec(doc)
        assert truth.noise == "poisson_counts"

    @pytest.mark.parametrize("extra", [
        {"phi": -5, "round_counts": "yes", "family": {"name": "bogus"}},
        {"phi": 0.05}, {"round_counts": False}, {"family": {"name": "normal"}},
    ], ids=["invalid-values", "phi", "round_counts", "family"])
    def test_poisson_noise_takes_its_kind_only(self, extra):
        # Poisson counts read none of these, and each used to be dropped
        # unchecked, an invalid one included
        doc = {"ages": [40, 45, 50], "periods": [2000, 2001], "log_rate": {"beta0": -9.0},
               "noise": dict(kind="poisson_counts", **extra)}
        with pytest.raises(SpecificationError, match=r"^unknown key\(s\) in poisson_counts "
                                                     f"noise: {', '.join(sorted(extra))}$"):
            parse_truth_spec(doc)

    def test_population_grid(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        doc["population"] = [[1e5] * 3] * 7
        truth = parse_truth_spec(doc)
        assert truth.population[0] == (1e5, 1e5, 1e5)

    def test_missing_keys(self):
        with pytest.raises(SpecificationError, match="missing"):
            parse_truth_spec({"ages": [40.0], "periods": [2000.0],
                              "noise": {"kind": "poisson_counts"}})

    def test_bad_tabulated_x(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        doc["log_rate"]["f_age"]["x"] = [40.0, 40.0, 70.0]
        with pytest.raises(SpecificationError, match="increasing"):
            parse_truth_spec(doc)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(ages={"min": "a", "max": 70.0, "count": 7}),
         "ages min must be a number, got 'a'$"),
        (lambda d: d.update(periods=5), "periods must be a list, got 5$"),
        (lambda d: d.update(log_rate=[]), "malformed truth spec: TypeError: "),
        (lambda d: d["noise"].update(phi="a"), "phi must be a number, got 'a'$"),
    ], ids=["grid-min-string", "periods-number", "log_rate-list", "phi-string"])
    def test_malformed_fields_rejected(self, mutate, message):
        doc = json.loads(json.dumps(TRUTH_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=f"^{message}"):
            parse_truth_spec(doc)

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d["noise"].update(round_counts="no"),
         "noise round_counts must be true or false"),
        (lambda d: d["noise"].update(round_counts=1),
         "noise round_counts must be true or false"),
        (lambda d: d.update(noise="abc"),
         "malformed truth spec: TypeError: noise must be a JSON object"),
        (lambda d: d.update(log_rate="abc"), "log_rate must be a JSON object"),
        (lambda d: d["log_rate"].update(f_age=[1.0]), "f_age must be a JSON object"),
    ])
    def test_non_boolean_flags_and_non_object_parts_rejected(self, mutate, match):
        doc = json.loads(json.dumps(TRUTH_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=match):
            parse_truth_spec(doc)

    @pytest.mark.parametrize("population, shape", [
        ([[1e5, 1e5], [1e5, 1e5]], r"\(2, 2\)"),
        ([[1e5] * 7] * 3, r"\(3, 7\)"),
        ([[1e5] * 3] * 6 + [[1e5] * 2], "None"),
    ], ids=["2x2", "transposed", "ragged"])
    def test_population_table_must_match_the_grid(self, population, shape):
        doc = dict(json.loads(json.dumps(TRUTH_DOC)), population=population)
        with pytest.raises(SpecificationError,
                           match=f"^population table must be 7 x 3 .*got shape {shape}$"):
            parse_truth_spec(doc)

    def test_noise_family_parameter_of_another_family_rejected(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        doc["noise"]["family"]["nu"] = 5
        with pytest.raises(SpecificationError, match="^normal family takes no nu"):
            parse_truth_spec(doc)

    @pytest.mark.parametrize("field, value", [("ages", "40"), ("periods", "2000")])
    def test_string_grid_rejected(self, field, value):
        # "40" was read one character at a time, as the ages (0.0, 4.0)
        doc = dict(json.loads(json.dumps(TRUTH_DOC)), **{field: value})
        with pytest.raises(SpecificationError, match=f"^{field} must be a list, got "):
            parse_truth_spec(doc)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["log_rate"].update(beta0=True), "beta0"),
        (lambda d: d["log_rate"].update(beta_age="0.07"), "beta_age"),
        (lambda d: d["noise"].update(phi="0.04"), "phi"),
        (lambda d: d.update(population="1e5"), "population"),
        (lambda d: d.update(population=[[1e5] * 3] * 6 + [[1e5, True, 1e5]]), "population"),
        (lambda d: d.update(periods=[2000.0, "2005", 2010.0]), "periods"),
        (lambda d: d["ages"].update(max="70"), "ages max"),
        (lambda d: d["log_rate"]["f_age"].update(y=[0.0, False, 0.0]), "f_age y"),
        (lambda d: d["noise"].update(phi={"x": ["40", 70.0], "y": [0.02, 0.08]}), "phi x"),
    ], ids=["coefficient-true", "coefficient-string", "phi-string", "population-string",
            "population-table-true", "grid-entry-string", "grid-bound-string",
            "tabulated-y-false", "tabulated-phi-x-string"])
    def test_numbers_must_be_numbers(self, mutate, field):
        # each was converted with float(): "1e5" read as 100,000 and true as 1
        doc = json.loads(json.dumps(TRUTH_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match=f"^{field} must be a number, got "):
            parse_truth_spec(doc)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["log_rate"]["f_age"].update(y=[0.0, math.inf, 0.0]),
         "f_age y must be a finite number, got inf"),
        (lambda d: d["log_rate"]["f_age"].update(x=[40.0, math.nan, 70.0]),
         "f_age x must be a finite number, got nan"),
        (lambda d: d["noise"].update(phi={"x": [40.0, 70.0], "y": [0.02, -0.01]}),
         "phi y must be positive and finite, got -0.01"),
        (lambda d: d["noise"].update(phi={"x": [40.0, 70.0], "y": [0, 0.08]}),
         "phi y must be positive and finite, got 0"),
    ], ids=["f_age-y-inf", "f_age-x-nan", "phi-y-negative", "phi-y-zero"])
    def test_tabulated_values_meet_the_range_rules(self, mutate, message):
        # each used to parse, and only simulate_table refused it, as a
        # log-rate or dispersion surface
        with pytest.raises(SpecificationError, match=f"^{message}$"):
            parse_truth_spec(_changed(TRUTH_DOC, mutate))

    def test_round_counts_flag(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        assert parse_truth_spec(doc).round_counts is False
        doc["noise"]["round_counts"] = True
        assert parse_truth_spec(doc).round_counts is True

    def test_logsym_noise_needs_family(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        del doc["noise"]["family"]
        with pytest.raises(SpecificationError, match="family"):
            parse_truth_spec(doc)


@pytest.mark.parametrize("parse, doc, mutate, field", [
    (parse_model_spec, FULL_LOGSYM_DOC,
     lambda d: d["dispersion"]["terms"][0].update(basis_dim=7.5), "term basis_dim"),
    (parse_model_spec, FULL_LOGSYM_DOC,
     lambda d: d["dispersion"]["terms"][0].update(diff_order=2.9), "term diff_order"),
    (parse_model_spec, FULL_LOGSYM_DOC,
     lambda d: d["dispersion"]["terms"][0].update(basis_dim=True), "term basis_dim"),
    (parse_model_spec, FULL_LOGSYM_DOC,
     lambda d: d.update(lambda_grid={"lo": 1, "hi": 10, "num": 2.7}), "lambda_grid num"),
    (parse_model_spec, FULL_LOGSYM_DOC,
     lambda d: d["convergence"].update(max_outer=True), "max_outer"),
    (parse_model_spec, FULL_LOGSYM_DOC,
     lambda d: d["convergence"].update(max_halvings=False), "max_halvings"),
    (parse_truth_spec, TRUTH_DOC,
     lambda d: d["ages"].update(count=7.9), "ages count"),
    (parse_truth_spec, TRUTH_DOC,
     lambda d: d.update(periods={"min": 2000, "max": 2010, "count": True}), "periods count"),
], ids=["basis_dim=7.5", "diff_order=2.9", "basis_dim=true", "num=2.7", "max_outer=true",
        "max_halvings=false", "ages_count=7.9", "periods_count=true"])
def test_counts_must_be_whole_numbers(parse, doc, mutate, field):
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    with pytest.raises(SpecificationError, match=f"^{field} must be a whole number"):
        parse(doc)


def _changed(doc, mutate):
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    return doc


def _model_spec(**kwargs):
    return ModelSpec(generator=normal_spec(), location=SubmodelSpec(("intercept",)), **kwargs)


@pytest.mark.parametrize("mutate, build", [
    (lambda d: d["convergence"].update(max_outer="3"), lambda: _model_spec(max_outer="3")),
    (lambda d: d["convergence"].update(max_outer=True), lambda: _model_spec(max_outer=True)),
    (lambda d: d["convergence"].update(tol_loglik="a"), lambda: _model_spec(tol_loglik="a")),
    (lambda d: d["dispersion"]["terms"][0].update(basis_dim="10"),
     lambda: SplineTerm(kind="psp", covariate="age", basis_dim="10")),
    (lambda d: d.update(lambda_grid=["1e3", "10"]),
     lambda: _model_spec(lambda_grid=("1e3", "10"))),
    (lambda d: d.update(lambda_grid="12"), lambda: _model_spec(lambda_grid="12")),
    (lambda d: d.update(family={"name": "student", "nu": "5"}),
     lambda: GeneratorSpec("student", nu="5")),
    (lambda d: d["location"].update(covariates={"intercept": 1}),
     lambda: SubmodelSpec(covariates={"intercept": 1})),
    (lambda d: d.clear() or d.update(model="poisson", covariates="intercept"),
     lambda: PoissonSpec(covariates="intercept")),
    (lambda d: d.update(zero_policy="bogus"), lambda: _model_spec(zero_policy="bogus")),
    (lambda d: d.clear() or d.update(model="poisson", zero_policy=None),
     lambda: PoissonSpec(zero_policy=None)),
], ids=["max_outer-string", "max_outer-true", "tol_loglik-string", "basis_dim-string",
        "lambda_grid-strings", "lambda_grid-string", "nu-string", "covariates-object",
        "poisson-covariates-string", "zero_policy-unknown", "poisson-zero_policy-null"])
def test_file_and_library_refuse_a_model_field_alike(mutate, build):
    # the rule is held once, by the field's owner, so both ways in meet it
    with pytest.raises(SpecificationError) as from_file:
        parse_model_spec(_changed(FULL_LOGSYM_DOC, mutate))
    with pytest.raises(SpecificationError) as from_library:
        build()
    assert type(from_file.value) is type(from_library.value)
    assert str(from_file.value) == str(from_library.value)


@pytest.mark.parametrize("mutate, build, message", [
    (lambda d: d["convergence"].update(tol_loglik=0), lambda: _model_spec(tol_loglik=0),
     "tol_loglik must be positive and finite, got 0"),
    (lambda d: d["convergence"].update(tol_param=math.inf),
     lambda: _model_spec(tol_param=math.inf), "tol_param must be positive and finite, got inf"),
    (lambda d: d["convergence"].update(max_outer=0), lambda: _model_spec(max_outer=0),
     "max_outer must be >= 1, got 0"),
    (lambda d: d["convergence"].update(max_halvings=-1.0),
     lambda: _model_spec(max_halvings=-1.0), "max_halvings must be >= 0, got -1"),
    (lambda d: d.update(lambda_grid=[1.0, -1.0]), lambda: _model_spec(lambda_grid=(1.0, -1.0)),
     "lambda_grid must be positive and finite, got -1.0"),
    (lambda d: d["location"]["terms"][0].update({"lambda": -1}),
     lambda: SplineTerm(kind="ncs", covariate="age", lam=-1),
     "term lambda must be positive and finite, got -1"),
    (lambda d: d["dispersion"]["terms"][0].update(diff_order=0),
     lambda: SplineTerm(kind="psp", covariate="age", basis_dim=8, diff_order=0),
     "diff_order must be >= 1, got 0"),
    (lambda d: d["family"].update(nu=0), lambda: GeneratorSpec("student", nu=0),
     "family nu must be positive and finite, got 0"),
    (lambda d: d.update(family={"name": "contnormal", "nu1": 0.1, "nu2": -2.0}),
     lambda: GeneratorSpec("contnormal", nu1=0.1, nu2=-2.0),
     "family nu2 must be positive and finite, got -2.0"),
    (lambda d: d.update(family={"name": "powerexp", "zeta": math.nan}),
     lambda: GeneratorSpec("powerexp", zeta=math.nan),
     "family zeta must be a finite number, got nan"),
    (lambda d: d["convergence"].update(tol_loglik=10 ** 400),
     lambda: _model_spec(tol_loglik=10 ** 400),
     "tol_loglik must be a number a float can hold, got one beyond 1.8e308 in magnitude"),
    (lambda d: d.update(lambda_grid=[1.0, -10 ** 400]),
     lambda: _model_spec(lambda_grid=(1.0, -10 ** 400)),
     "lambda_grid must be a number a float can hold, got one beyond 1.8e308 in magnitude"),
], ids=["tol_loglik-zero", "tol_param-inf", "max_outer-zero", "max_halvings-negative",
        "lambda_grid-negative", "term-lambda-negative", "diff_order-zero", "nu-zero",
        "nu2-negative", "zeta-nan", "tol_loglik-oversized", "lambda_grid-oversized"])
def test_file_and_library_refuse_an_out_of_range_model_field_alike(mutate, build, message):
    # one range rule, in errors.py, meets the field whichever way it comes in
    with pytest.raises(SpecificationError) as from_file:
        parse_model_spec(_changed(FULL_LOGSYM_DOC, mutate))
    with pytest.raises(SpecificationError) as from_library:
        build()
    assert str(from_file.value) == str(from_library.value) == message


@pytest.mark.parametrize("mutate, build, message", [
    (lambda d: d.update(lambda_grid=[]), lambda: _model_spec(lambda_grid=()),
     "lambda_grid must hold at least one value"),
    (lambda d: d["location"]["terms"].append({"kind": "psp", "covariate": "age"}),
     lambda: ModelSpec(generator=normal_spec(), location=SubmodelSpec(
         ("intercept",), terms=(SplineTerm(kind="ncs", covariate="age"),
                                SplineTerm(kind="psp", covariate="age")))),
     "location submodel declares two spline terms on one covariate"),
], ids=["lambda_grid-empty", "two-terms-on-age"])
def test_file_and_library_refuse_a_model_shape_alike(mutate, build, message):
    with pytest.raises(SpecificationError) as from_file:
        parse_model_spec(_changed(FULL_LOGSYM_DOC, mutate))
    with pytest.raises(SpecificationError) as from_library:
        build()
    assert str(from_file.value) == str(from_library.value) == message


_TRUTH_GRIDS = dict(ages=(40.0, 45.0, 50.0), periods=(2000.0, 2005.0))


@pytest.mark.parametrize("mutate, field, value, message", [
    (lambda d: d.update(ages=[40.0, math.nan, 50.0]), "ages", (40.0, math.nan, 50.0),
     "ages must be a finite number, got nan"),
    (lambda d: d.update(periods=[2000.0, math.inf]), "periods", (2000.0, math.inf),
     "periods must be a finite number, got inf"),
    (lambda d: d["log_rate"].update(beta0=math.inf), "beta0", math.inf,
     "beta0 must be a finite number, got inf"),
    (lambda d: d["log_rate"].update(beta_age=math.nan), "beta_age", math.nan,
     "beta_age must be a finite number, got nan"),
    (lambda d: d["log_rate"].update(beta_period=-math.inf), "beta_period", -math.inf,
     "beta_period must be a finite number, got -inf"),
    (lambda d: d["noise"].update(phi=math.inf), "phi", math.inf,
     "phi must be positive and finite, got inf"),
], ids=["ages-nan", "periods-inf", "beta0-inf", "beta_age-nan", "beta_period-minus-inf",
        "phi-inf"])
def test_truth_refuses_a_non_finite_grid_or_coefficient(mutate, field, value, message):
    # each used to construct, and simulate_table refused it only later, as a
    # log-rate surface that is not finite
    with pytest.raises(SpecificationError) as from_file:
        parse_truth_spec(_changed(TRUTH_DOC, mutate))
    with pytest.raises(SpecificationError) as from_library:
        TruthSpec(**dict(_TRUTH_GRIDS, **{field: value}))
    assert str(from_file.value) == str(from_library.value) == message


@pytest.mark.parametrize("parse, doc, key, form, message", [
    (parse_model_spec, FULL_LOGSYM_DOC, "lambda_grid", {"lo": -1, "hi": 10, "num": 5},
     "lambda_grid lo must be positive and finite, got -1"),
    (parse_model_spec, FULL_LOGSYM_DOC, "lambda_grid", {"lo": 0, "hi": 10, "num": 5},
     "lambda_grid lo must be positive and finite, got 0"),
    (parse_model_spec, FULL_LOGSYM_DOC, "lambda_grid", {"lo": 1, "hi": math.inf, "num": 5},
     "lambda_grid hi must be positive and finite, got inf"),
    (parse_model_spec, FULL_LOGSYM_DOC, "lambda_grid", {"lo": 1, "hi": 10, "num": 0},
     "lambda_grid num must be >= 1, got 0"),
    (parse_truth_spec, TRUTH_DOC, "ages", {"min": 40, "max": 50, "count": -1},
     "ages count must be >= 1, got -1"),
    (parse_truth_spec, TRUTH_DOC, "ages", {"min": math.inf, "max": 50, "count": 3},
     "ages min must be a finite number, got inf"),
], ids=["grid-lo-negative", "grid-lo-zero", "grid-hi-inf", "grid-num-zero",
        "truth-count-negative", "truth-min-inf"])
def test_a_grid_form_is_refused_before_numpy_sees_it(parse, doc, key, form, message):
    # geomspace and linspace used to warn, raise their own ValueError, or
    # return NaN for these
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecificationError, match=f"^{message}$"):
            parse(dict(doc, **{key: form}))


def test_file_and_library_refuse_a_truth_field_alike():
    with pytest.raises(SpecificationError) as from_file:
        parse_truth_spec(dict(TRUTH_DOC, ages=["40", "45"]))
    with pytest.raises(SpecificationError) as from_library:
        TruthSpec(ages=("40", "45"), periods=(2000.0,))
    assert type(from_file.value) is type(from_library.value)
    assert str(from_file.value) == "ages must be a number, got '40'" == str(from_library.value)


@pytest.mark.parametrize("build", [
    lambda: parse_model_spec(dict(FULL_LOGSYM_DOC, zero_policy="impute")),
    lambda: parse_model_spec({"model": "poisson", "zero_policy": "impute"}),
    lambda: _model_spec(zero_policy="impute"),
    lambda: PoissonSpec(zero_policy="impute"),
], ids=["logsym-file", "poisson-file", "ModelSpec", "PoissonSpec"])
def test_specs_refuse_an_unknown_zero_policy_as_a_table_does(build):
    with pytest.raises(DataValidationError) as from_table:
        apply_zero_policy(small_poisson_table(), "impute")
    with pytest.raises(SpecificationError) as from_spec:
        build()
    assert str(from_spec.value) == str(from_table.value) == \
        "unknown zero policy 'impute'; expected one of ('drop', 'add_half', 'add_one')"


@pytest.mark.parametrize("field, value, message", [
    ("sex", 5, "unknown sex 5; expected one of ('female', 'male')"),
    ("sex", "other", "unknown sex 'other'; expected one of ('female', 'male')"),
    ("site", 5, "site must be a str, got 5"),
    ("site", " lung ", "site ' lung ' has leading or trailing whitespace"),
], ids=["sex-number", "sex-unknown", "site-number", "site-spaces"])
def test_truth_sex_and_site_follow_the_record_rules(field, value, message):
    # the rule of a raw record, with its message, refused before any table
    # is simulated
    with pytest.raises(SpecificationError) as from_file:
        parse_truth_spec(dict(TRUTH_DOC, **{field: value}))
    with pytest.raises(SpecificationError) as from_library:
        TruthSpec(ages=(40.0,), periods=(2000.0,), **{field: value})
    record = dict(sex=("female",), site=("x",), age_lo=[40], age_hi=[44], year=[2000],
                  deaths=[1], population=[10.0])
    record[field] = (value,)
    with pytest.raises(DataValidationError) as from_record:
        MortalityColumns(**record)
    assert str(from_file.value) == str(from_library.value) == str(from_record.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("population", -5.0, "population must be positive and finite, got -5.0"),
    ("population", 0.0, "population must be positive and finite, got 0.0"),
    ("population", [[1.5e5] * 3] * 6 + [[1.5e5, -1.0, 1.5e5]], "population must be positive and finite, got -1.0"),
    ("phi", -0.1, "phi must be positive and finite, got -0.1"),
    ("phi", 0.0, "phi must be positive and finite, got 0.0"),
], ids=["population-negative", "population-zero", "population-table-entry", "phi-negative",
        "phi-zero"])
def test_truth_population_and_phi_follow_the_record_rule(field, value, message):
    # refused before any table is simulated, in a record's words
    if field == "phi":
        doc = dict(TRUTH_DOC, noise=dict(TRUTH_DOC["noise"], phi=value))
    else:
        doc = dict(TRUTH_DOC, population=value)
    with pytest.raises(SpecificationError) as from_file:
        parse_truth_spec(doc)
    with pytest.raises(SpecificationError) as from_library:
        TruthSpec(ages=tuple(range(40, 71, 5)), periods=(2000, 2005, 2010), **{field: value})
    assert str(from_file.value) == str(from_library.value) == message


def test_file_and_library_read_an_integral_float_basis_dim_alike():
    doc = _changed(FULL_LOGSYM_DOC, lambda d: d["dispersion"]["terms"][0].update(basis_dim=8.0))
    term = parse_model_spec(doc).dispersion.terms[0]
    assert term == SplineTerm(kind="psp", covariate="age", basis_dim=8.0)
    assert term.basis_dim == 8 and type(term.basis_dim) is int


@pytest.mark.parametrize("build, message", [
    (lambda: parse_model_spec(dict(FULL_LOGSYM_DOC,
                                   lambda_grid={"lo": "1", "hi": "10", "num": "3"})),
     "lambda_grid lo must be a number, got '1'"),
    (lambda: parse_model_spec(dict(FULL_LOGSYM_DOC, lambda_grid={"lo": 1, "hi": 10, "num": "3"})),
     "lambda_grid num must be a whole number, got '3'"),
    (lambda: parse_truth_spec(dict(TRUTH_DOC, ages={"min": 40, "max": 70, "count": "3"})),
     "ages count must be a whole number, got '3'"),
    (lambda: simulate_table(TruthSpec(ages=(40.0,), periods=(2000.0,)), "3"),
     "seed must be a whole number, got '3'"),
    (lambda: simulated_envelope(fit_poisson(small_poisson_table()), small_poisson_table(),
                                "deviance", m_sims="100"),
     "m_sims must be a whole number, got '100'"),
    (lambda: simulated_envelope(fit_poisson(small_poisson_table()), small_poisson_table(),
                                "deviance", level="0.95"),
     "level must be a number, got '0.95'"),
], ids=["grid-bound-string", "grid-num-string", "truth-count-string", "seed-string",
        "m_sims-string", "level-string"])
def test_numeric_strings_are_not_numbers(build, message):
    # forms that only one way in has apply the same rules; each used to read
    # the string as a number
    with pytest.raises(SpecificationError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("value", [2 ** 60 + 1, np.int64(2 ** 62 + 1), 10 ** 30 + 1])
def test_whole_keeps_an_int_exactly(value):
    # through float, a seed above 2**53 would silently become another seed
    assert _whole(value, "seed") == int(value)


class TestFitSerialization:
    def test_poisson_fit_document(self):
        table = small_poisson_table(seed=5)
        f = fit_poisson(table, ("intercept", "age", "period"))
        doc = json.loads(dump_json(fit_to_dict(f)))
        assert doc["model"] == "poisson"
        assert doc["beta"]["names"] == ["intercept", "age", "period"]
        assert len(doc["mu_hat"]) == doc["n_cells"] == len(table)
        assert "spec" not in doc

    def test_logsym_fit_document(self):
        table = small_logsym_table(seed=5)
        f = fit(plain_spec(), table)
        doc = json.loads(dump_json(fit_to_dict(f)))
        assert doc["model"] == "logsym"
        assert doc["converged"] is True
        assert doc["spec"]["family"]["name"] == "normal"
        assert doc["beta"]["estimates"][0] == f.beta[0]
        assert doc["gamma"]["names"] == ["intercept"]
        # the embedded spec reproduces the fit
        again = fit(parse_model_spec(doc["spec"]), table)
        np.testing.assert_allclose(again.beta, f.beta, atol=1e-12)
