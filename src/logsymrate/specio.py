"""JSON documents: model specs, truth specs, and fit serialization.

Spec files are plain JSON with stable field names (no formula language).
The readers check JSON shape only: unknown keys, objects where objects
belong, the ``"select"`` marker, and the forms that only a file has
(``{lo, hi, num}``, ``{min, max, count}`` and tabulated ``{x, y}``). Every
field's value is checked by the object that owns it (``ModelSpec``,
``SplineTerm``, ``TruthSpec``, ...), so a spec file and a library call
refuse an input with the same message.

Serialization is deterministic: dictionaries are written in construction
order, floats as ``repr`` writes them, the shortest text that reads back
as the same float (as in the CSVs), NaN and infinities as null.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .data_ingest import _zero_policy_problem
from .errors import DataFormatError, SpecificationError, _at_least, _finite, _list, _positive
from .logsym_family import FAMILY_PARAMS, GeneratorSpec
from .logsym_fit import LogSymFit, ModelSpec, SubmodelSpec
from .poisson_glm import PoissonFit
from .spline_bases import SplineTerm
from .synthetic import TruthSpec


# ---------------------------------------------------------------------------
# deterministic JSON writer

def _plain(obj):
    """obj in the types json encodes: numpy values as Python ones, tuples and
    arrays as lists, and NaN or an infinity as None."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (int, str)):  # bool is an int
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    raise SpecificationError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj) -> str:
    return json.dumps(_plain(obj), separators=(",", ":"), allow_nan=False) + "\n"


def load_json(text):
    if isinstance(text, str):  # json.loads drops a byte-order mark from bytes only
        text = text.removeprefix("\ufeff")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # bytes may not decode
        raise DataFormatError(f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# model specs

def _parses(what: str):
    """Conversion boundary of a spec parser: a raw conversion error from a
    document of the wrong shape (a list where an object belongs, a missing
    sub-key) becomes SpecificationError."""
    def wrap(parse):
        @functools.wraps(parse)
        def checked(doc):
            try:
                return parse(doc)
            except (AttributeError, KeyError, OverflowError, TypeError,
                    ValueError) as exc:
                raise SpecificationError(
                    f"malformed {what}: {type(exc).__name__}: {exc}") from exc
        return checked
    return wrap


@dataclass(frozen=True)
class PoissonSpec:
    """Declarative Poisson model: covariate list plus zero policy."""

    covariates: tuple = ("intercept", "age", "period")
    zero_policy: str = "add_half"

    def __post_init__(self):
        object.__setattr__(self, "covariates", _list(self.covariates, "covariates"))
        problem = _zero_policy_problem(self.zero_policy)
        if problem:
            raise SpecificationError(problem)


def _check_keys(doc: dict, allowed, what: str) -> None:
    if not isinstance(doc, dict):
        # a conversion error: _parses reports it as a malformed spec
        raise TypeError(f"{what} must be a JSON object")
    extras = sorted(set(doc) - set(allowed))
    if extras:
        raise SpecificationError(f"unknown key(s) in {what}: {', '.join(extras)}")


def _present(doc: dict, keys) -> dict:
    """The given keys that doc holds, so that the constructor's defaults
    apply to the others."""
    return {key: doc[key] for key in keys if key in doc}


def _parse_family(doc) -> GeneratorSpec:
    if not isinstance(doc, dict) or "name" not in doc:
        raise SpecificationError('family must be an object with a "name"')
    _check_keys(doc, {"name"}.union(*FAMILY_PARAMS.values()), "family")
    return GeneratorSpec(doc["name"], **{key: v for key, v in doc.items() if key != "name"})


def _family_to_dict(gen: GeneratorSpec) -> dict:
    return {"name": gen.family, **gen.params()}


def _parse_term(doc) -> SplineTerm:
    _check_keys(doc, {"kind", "covariate", "lambda", "basis_dim", "diff_order"}, "term")
    for key in ("kind", "covariate"):
        if key not in doc:
            raise SpecificationError(f"term is missing {key!r}")
    lam = doc.get("lambda", "select")
    if lam is None:  # the library's marker for selection; a file writes "select"
        raise SpecificationError('term lambda must be a number or "select", got None')
    return SplineTerm(kind=doc["kind"], covariate=doc["covariate"],
                      lam=None if lam == "select" else lam,
                      **_present(doc, ("basis_dim", "diff_order")))


def _term_to_dict(term: SplineTerm) -> dict:
    out = {"kind": term.kind, "covariate": term.covariate,
           "lambda": "select" if term.lam is None else term.lam}
    if term.kind == "psp":
        out["basis_dim"] = term.basis_dim
        out["diff_order"] = term.diff_order
    return out


def _parse_submodel(doc, name: str) -> SubmodelSpec:
    _check_keys(doc, {"covariates", "terms", "use_offset"}, f"{name} submodel")
    fields = dict(doc)
    if isinstance(fields.get("terms"), list):  # SubmodelSpec refuses any other terms
        fields["terms"] = [_parse_term(t) for t in fields["terms"]]
    return SubmodelSpec(**fields)


def _submodel_to_dict(sub: SubmodelSpec) -> dict:
    return {
        "covariates": list(sub.covariates),
        "terms": [_term_to_dict(t) for t in sub.terms],
        "use_offset": sub.use_offset,
    }


@_parses("model spec")
def parse_model_spec(doc):
    """Parse a model-spec document into ModelSpec or PoissonSpec."""
    if not isinstance(doc, dict):
        raise SpecificationError("model spec must be a JSON object")
    model = doc.get("model")
    if model == "poisson":
        _check_keys(doc, {"model", "covariates", "zero_policy"}, "poisson spec")
        return PoissonSpec(**_present(doc, ("covariates", "zero_policy")))
    if model != "logsym":
        raise SpecificationError(f'model must be "logsym" or "poisson", got {model!r}')
    _check_keys(doc, {"model", "family", "location", "dispersion", "zero_policy",
                      "jacobian_adjust", "convergence", "lambda_grid"}, "logsym spec")
    if "family" not in doc or "location" not in doc:
        raise SpecificationError("logsym spec needs family and location")
    conv = doc.get("convergence", {})
    _check_keys(conv, ("tol_loglik", "tol_param", "max_outer", "max_halvings"), "convergence")
    kwargs = dict(conv, **_present(doc, ("zero_policy", "jacobian_adjust", "lambda_grid")))
    grid = kwargs.get("lambda_grid")
    if isinstance(grid, dict):
        _check_keys(grid, {"lo", "hi", "num"}, "lambda_grid")
        kwargs["lambda_grid"] = tuple(np.geomspace(
            _positive(grid["lo"], "lambda_grid lo"), _positive(grid["hi"], "lambda_grid hi"),
            _at_least(grid["num"], "lambda_grid num", 1)))
    return ModelSpec(
        generator=_parse_family(doc["family"]),
        location=_parse_submodel(doc["location"], "location"),
        dispersion=_parse_submodel(doc.get("dispersion", {}), "dispersion"),
        **kwargs,
    )


def model_spec_to_dict(spec) -> dict:
    if isinstance(spec, PoissonSpec):
        return {"model": "poisson", "covariates": list(spec.covariates),
                "zero_policy": spec.zero_policy}
    return {
        "model": "logsym",
        "family": _family_to_dict(spec.generator),
        "location": _submodel_to_dict(spec.location),
        "dispersion": _submodel_to_dict(spec.dispersion),
        "zero_policy": spec.zero_policy,
        "jacobian_adjust": spec.jacobian_adjust,
        "convergence": {
            "tol_loglik": spec.tol_loglik, "tol_param": spec.tol_param,
            "max_outer": spec.max_outer, "max_halvings": spec.max_halvings,
        },
        "lambda_grid": list(spec.lambda_grid),
    }


# ---------------------------------------------------------------------------
# truth specs

def _parse_grid(doc, what: str):
    """A truth grid: a list for TruthSpec to check, or {min, max, count}."""
    if not isinstance(doc, dict):
        return doc
    _check_keys(doc, {"min", "max", "count"}, what)
    return tuple(np.linspace(_finite(doc["min"], f"{what} min"),
                             _finite(doc["max"], f"{what} max"),
                             _at_least(doc["count"], f"{what} count", 1)))


def _tabulated(doc, what: str, y_rule=_finite):
    _check_keys(doc, {"x", "y"}, what)
    x, y = (np.array([rule(v, f"{what} {key}") for v in _list(doc[key], f"{what} {key}")])
            for key, rule in (("x", _finite), ("y", y_rule)))
    if x.shape != y.shape or len(x) < 2:
        raise SpecificationError(f"{what} needs matching x and y vectors (length >= 2)")
    if np.any(np.diff(x) <= 0):
        raise SpecificationError(f"{what} x values must be strictly increasing")

    def f(v, _x=x, _y=y):
        return float(np.interp(v, _x, _y))

    return f


@_parses("truth spec")
def parse_truth_spec(doc) -> TruthSpec:
    if not isinstance(doc, dict):
        raise SpecificationError("truth spec must be a JSON object")
    _check_keys(doc, {"ages", "periods", "log_rate", "population", "noise",
                      "sex", "site"}, "truth spec")
    for key in ("ages", "periods", "log_rate", "noise"):
        if key not in doc:
            raise SpecificationError(f"truth spec is missing {key!r}")
    lr = doc["log_rate"]
    _check_keys(lr, {"beta0", "beta_age", "beta_period", "f_age", "f_period"},
                "log_rate")
    noise = doc["noise"]
    _check_keys(noise, {"kind", "family", "phi", "round_counts"}, "noise")
    kind = noise.get("kind")
    kwargs = {}
    if kind == "poisson_counts":
        _check_keys(noise, {"kind"}, "poisson_counts noise")
    elif kind == "logsym":
        if "family" not in noise:
            raise SpecificationError("logsym noise needs a family")
        kwargs = _present(noise, ("phi", "round_counts"))
        kwargs["generator"] = _parse_family(noise["family"])
        if isinstance(kwargs.get("phi"), dict):
            phi_of_age = _tabulated(kwargs["phi"], "phi", _positive)
            kwargs["phi"] = lambda a, p: phi_of_age(a)
    return TruthSpec(
        ages=_parse_grid(doc["ages"], "ages"),
        periods=_parse_grid(doc["periods"], "periods"),
        noise=kind if kind is not None else "",
        **_present(lr, ("beta0", "beta_age", "beta_period")),
        **{key: _tabulated(lr[key], key) for key in ("f_age", "f_period") if key in lr},
        **_present(doc, ("population", "sex", "site")),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# fit serialization

def fit_to_dict(fit_result) -> dict:
    if isinstance(fit_result, PoissonFit):
        return {
            "model": "poisson",
            "converged": fit_result.converged,
            "iterations": fit_result.iterations,
            "loglik": fit_result.loglik,
            "deviance": fit_result.deviance,
            "aic": fit_result.aic,
            "beta": {
                "names": list(fit_result.covariates),
                "estimates": fit_result.beta,
                "std_errs": fit_result.se,
            },
            "cov": fit_result.cov,
            "mu_hat": fit_result.mu_hat,
            "n_cells": len(fit_result.mu_hat),
        }
    if isinstance(fit_result, LogSymFit):
        return {
            "model": "logsym",
            "converged": fit_result.converged,
            "iterations": fit_result.iterations,
            "grad_norm": fit_result.grad_norm,
            "loglik": fit_result.loglik,
            "aic": fit_result.aic,
            "aic_jacobian": fit_result.aic_jacobian,
            "beta": {
                "names": list(fit_result.beta_names),
                "estimates": fit_result.beta,
                "std_errs": fit_result.beta_se,
            },
            "gamma": {
                "names": list(fit_result.gamma_names),
                "estimates": fit_result.gamma,
                "std_errs": fit_result.gamma_se,
            },
            "terms": {
                label: {
                    "lambda": fit_result.lam[label],
                    "edf": fit_result.edf[label],
                    "coefficients": fit_result.spline_coefs[label],
                }
                for label in fit_result.lam
            },
            "mu_hat": fit_result.mu_hat,
            "phi_hat": fit_result.phi_hat,
            "trace": list(fit_result.trace),
            "n_cells": len(fit_result.mu_hat),
            "spec": model_spec_to_dict(fit_result.spec),
        }
    raise SpecificationError(f"cannot serialize fit of type {type(fit_result).__name__}")
