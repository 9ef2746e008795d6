"""JSON spec documents and deterministic serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logsymrate import (
    GeneratorSpec,
    ModelSpec,
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
    parse_model_spec,
    parse_truth_spec,
)
from logsymrate.errors import DataFormatError, SpecificationError

from .conftest import plain_spec, small_logsym_table, small_poisson_table


class TestJsonWriter:
    def test_seventeen_digits(self):
        assert dump_json(0.1) == "0.10000000000000001\n"

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

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, x):
        assert json.loads(dump_json(x)) == x

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

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(convergence=[1]),
        lambda d: d["location"].update(terms=5),
        lambda d: d["location"].update(terms=[5]),
        lambda d: d["location"].update(covariates=5),
        lambda d: d["family"].update(nu="a"),
        lambda d: d.update(lambda_grid="abc"),
        lambda d: d["dispersion"]["terms"][0].update(basis_dim="x"),
        lambda d: d["convergence"].update(max_outer="a"),
        lambda d: d["convergence"].update(tol_loglik="a"),
        lambda d: d.update(lambda_grid={"lo": 1}),
    ])
    def test_malformed_fields_rejected(self, mutate):
        doc = json.loads(json.dumps(FULL_LOGSYM_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match="malformed model spec"):
            parse_model_spec(doc)

    def test_malformed_poisson_covariates_rejected(self):
        with pytest.raises(SpecificationError, match="malformed model spec: TypeError"):
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

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(ages={"min": "a", "max": 70.0, "count": 7}),
        lambda d: d.update(periods=5),
        lambda d: d.update(log_rate=[]),
        lambda d: d["noise"].update(phi="a"),
    ])
    def test_malformed_fields_rejected(self, mutate):
        doc = json.loads(json.dumps(TRUTH_DOC))
        mutate(doc)
        with pytest.raises(SpecificationError, match="malformed truth spec"):
            parse_truth_spec(doc)

    def test_logsym_noise_needs_family(self):
        doc = json.loads(json.dumps(TRUTH_DOC))
        del doc["noise"]["family"]
        with pytest.raises(SpecificationError, match="family"):
            parse_truth_spec(doc)


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
