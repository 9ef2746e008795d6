"""Command-line frontend.

Subcommands wire the pipeline together: ``simulate`` writes synthetic
raw CSVs, ``fit`` estimates one model from a spec document, ``compare``
runs two specs side by side, ``envelope`` produces simulated residual
envelopes, and ``curves`` exports fitted nonparametric components.

The model spec alone sets a fit's zero policy and Jacobian adjustment.
Every run is reproducible: ``simulate`` and ``envelope`` draw from
``--seed`` (default 20130), and all outputs are byte-identical across
reruns. Exit codes: 0 success, 2 input or validation problems, 3
numerical failures (including a model that did not converge, in which
case the command still writes its artifacts and names the model on stderr).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import diagnostics, specio
from .data_ingest import (
    aggregate_cells,
    apply_zero_policy,
    parse_mortality_csv,
    records_to_csv,
)
from .errors import (
    DataFormatError,
    DataValidationError,
    ModelError,
    NumericalError,
    SpecificationError,
)
from .logsym_fit import LogSymFit
from .logsym_fit import fit as fit_logsym
from .poisson_glm import fit_poisson
from .specio import PoissonSpec
from .synthetic import simulate_table, simulated_to_records

log = logging.getLogger("logsymrate")

DEFAULT_SEED = 20130

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _read_text(path: str, what: str) -> str:
    try:  # the library readers drop a byte-order mark
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataValidationError(f"{what} file not found: {path}") from None
    except OSError as exc:  # a directory, say, or no read permission
        raise DataValidationError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{what} file {path} is not UTF-8 text: {exc}") from None


def _load_spec(path: str):
    return specio.parse_model_spec(specio.load_json(_read_text(path, "spec")))


def _load_table(path: str, policy: str):
    records = parse_mortality_csv(_read_text(path, "input"))
    strata = sorted(set(zip(records.sex, records.site)))
    if len(strata) != 1:
        raise DataValidationError(
            f"input holds {len(strata)} (sex, site) strata; provide exactly one"
        )
    sex, site = strata[0]
    table = apply_zero_policy(aggregate_cells(records, sex, site), policy)
    log.info("loaded %d cells for %s/%s, zero policy %s", len(table), sex, site, policy)
    return table


def _run_model(spec, table):
    if isinstance(spec, PoissonSpec):
        return fit_poisson(table, spec.covariates)
    return fit_logsym(spec, table)


def _write_outputs(args: argparse.Namespace, texts: dict) -> None:
    """Write each file name's text into ``--out``. Every path is checked
    before the first is written, so a refused overwrite or a directory in
    the way writes nothing; files written before a later write fails stay."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # a file of that name, say
        raise DataValidationError(f"cannot make output directory {args.out}: "
                                  f"{exc.strerror}") from None
    paths = {name: os.path.join(args.out, name) for name in texts}
    for path in paths.values():
        if os.path.isdir(path):
            raise DataValidationError(f"cannot write {path}: Is a directory")
        if os.path.exists(path) and not args.force:
            raise DataValidationError(f"refusing to overwrite {path}; pass --force")
    for name, path in paths.items():
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(texts[name])
        except OSError as exc:  # no permission, or a full disk, say
            raise DataValidationError(f"cannot write {path}: {exc.strerror or exc}") from None
        log.info("wrote %s", path)


def _exit_status(labelled) -> int:
    """EXIT_OK, or EXIT_NUMERICAL after naming on stderr each of the
    (label, fit) pairs whose fit did not converge; the caller has written
    its artifacts."""
    stopped = [label for label, fit in labelled if not fit.converged]
    for label in stopped:
        print(f"numerical error: {label} did not converge", file=sys.stderr)
    return EXIT_NUMERICAL if stopped else EXIT_OK


def _print_fit_summary(fit_result, table) -> None:
    summary = diagnostics._summarize(fit_result, table, fit_result.label)
    print(f"model: {summary.label}")
    print(f"{'coefficient':<28}{'Estimate':>14}{'Std.Err':>12}")
    for c in summary.coefficients:
        print(f"{c['name']:<28}{c['estimate']:>14.5g}{c['std_err']:>12.4g}")
    for label, term in summary.terms.items():
        print(f"{label:<28}lambda {term['lambda']:>10.4g}  edf {term['edf']:.3f}")
    if isinstance(fit_result, LogSymFit):
        print(f"loglik {fit_result.loglik:.4f}  AIC {summary.aic:.4f}  "
              f"rho {summary.rho:.4f}")
        print(f"converged {fit_result.converged}  iterations {fit_result.iterations}  "
              f"grad_norm {fit_result.grad_norm:.3g}")
    else:
        print(f"loglik {fit_result.loglik:.4f}  deviance {fit_result.deviance:.4f}  "
              f"AIC {summary.aic:.4f}  rho {summary.rho:.4f}")


def cmd_fit(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    table = _load_table(args.input, spec.zero_policy)
    result = _run_model(spec, table)
    doc = specio.fit_to_dict(result)
    if isinstance(spec, PoissonSpec):
        doc["spec"] = specio.model_spec_to_dict(spec)
    _write_outputs(args, {"fit.json": specio.dump_json(doc)})
    _print_fit_summary(result, table)
    return _exit_status([(f"the fit of {args.spec}", result)])


def cmd_compare(args: argparse.Namespace) -> int:
    paths = (args.spec, args.spec2)
    specs = [_load_spec(path) for path in paths]
    policies = [spec.zero_policy for spec in specs]
    if policies[0] != policies[1]:
        raise SpecificationError(f"compare fits both specs on one table, but they declare "
                                 f"zero policies {policies[0]!r} and {policies[1]!r}")
    table = _load_table(args.input, policies[0])
    fits = []
    for idx, (path, spec) in enumerate(zip(paths, specs), start=1):
        try:
            fits.append(_run_model(spec, table))
        except ModelError as exc:
            raise type(exc)(f"model {idx} ({path}): {exc}") from None
    report = diagnostics.compare_models(fits, table)
    texts = {"comparison.json": specio.dump_json(report.to_dict())}
    for idx, f in enumerate(fits, start=1):
        fitted = diagnostics.model_fitted_log_rate(f, table)
        texts[f"scatter_{idx}.csv"] = diagnostics.scatter_to_csv(table, fitted)
    _write_outputs(args, texts)
    print(f"preferred: {report.preferred}")
    for m in report.models:
        print(f"  {m.label}: AIC {m.aic:.4f}  rho {m.rho:.4f}")
    if report.scale_caveat:
        print("note: AICs compare a log-scale density to a count model "
              "without the Jacobian adjustment")
    return _exit_status((f"model {idx} ({path})", f)
                        for idx, (path, f) in enumerate(zip(paths, fits), start=1))


def cmd_envelope(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    kinds = (diagnostics.POISSON_RESIDUAL_KINDS if isinstance(spec, PoissonSpec)
             else diagnostics.LOGSYM_RESIDUAL_KINDS)
    kind = args.kind or kinds[0]
    # a bad setting is refused before the table is read or fitted
    diagnostics._envelope_settings(kinds, kind, args.m_sims, args.level, args.seed)
    table = _load_table(args.input, spec.zero_policy)
    result = _run_model(spec, table)
    env = diagnostics.simulated_envelope(result, table, kind,
                                         m_sims=args.m_sims, level=args.level,
                                         seed=args.seed)
    _write_outputs(args, {"envelope.csv": diagnostics.envelope_to_csv(env)})
    print(f"envelope kind={kind} m={env.m_sims} level={env.level} "
          f"outside {env.outside_count}/{len(env.ordered_residuals)}")
    return _exit_status([(f"the fit of {args.spec}", result)])


def cmd_curves(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if isinstance(spec, PoissonSpec):
        raise SpecificationError("curves needs a log-symmetric spec with spline terms; "
                                 "the Poisson model has no nonparametric components")
    if not (spec.location.terms or spec.dispersion.terms):
        raise SpecificationError("curves needs at least one spline term in the model spec")
    table = _load_table(args.input, spec.zero_policy)
    result = fit_logsym(spec, table)
    curves = diagnostics.all_component_curves(result)
    _write_outputs(args, {"curves.csv": diagnostics.curves_to_csv(curves)})
    print(f"exported {len(curves)} component curve(s)")
    return _exit_status([(f"the fit of {args.spec}", result)])


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = specio.load_json(_read_text(args.spec, "truth spec"))
    truth = specio.parse_truth_spec(doc)
    sim = simulate_table(truth, args.seed)
    records = simulated_to_records(sim)
    truth_doc = {
        "truth": doc,
        "seed": args.seed,
        "cells": {
            "age_mid": sim.table.age,
            "period_mid": sim.table.period,
            "log_rate": sim.log_rate,
            "population": sim.table.population,
            "expected_deaths": sim.expected,
        },
    }
    _write_outputs(args, {"simulated.csv": records_to_csv(records),
                          "truth.json": specio.dump_json(truth_doc)})
    print(f"simulated {len(sim.table)} cells")
    return EXIT_OK


COMMANDS = {
    "fit": cmd_fit,
    "compare": cmd_compare,
    "envelope": cmd_envelope,
    "curves": cmd_curves,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsymrate",
        description="Log-symmetric semiparametric and Poisson rate models "
                    "for age by period mortality tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True, seeded=False):
        if needs_input:
            p.add_argument("--input", required=True, help="mortality CSV path")
        p.add_argument("--spec", required=True, help="model/truth spec JSON path")
        p.add_argument("--out", required=True, help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        p.add_argument("-v", "--verbose", action="count", default=0)

    p_fit = sub.add_parser("fit", help="fit one model and write fit.json")
    add_common(p_fit)

    p_cmp = sub.add_parser("compare", help="fit two specs and write comparison.json")
    add_common(p_cmp)
    p_cmp.add_argument("--spec2", required=True, help="second model spec JSON path")

    p_env = sub.add_parser("envelope", help="simulated residual envelope")
    add_common(p_env, seeded=True)
    p_env.add_argument("--kind", choices=diagnostics.LOGSYM_RESIDUAL_KINDS
                       + diagnostics.POISSON_RESIDUAL_KINDS)
    p_env.add_argument("--m-sims", type=int, default=100)
    p_env.add_argument("--level", type=float, default=0.95)

    p_cur = sub.add_parser("curves", help="export nonparametric component curves")
    add_common(p_cur)

    p_sim = sub.add_parser("simulate", help="write a synthetic mortality CSV")
    add_common(p_sim, needs_input=False, seeded=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(name)s %(levelname)s %(message)s")
    try:
        return COMMANDS[args.command](args)
    except (DataFormatError, DataValidationError, SpecificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
