"""End-to-end command-line runs, exercised in-process via main()."""

import argparse
import dataclasses
import errno
import json
import math
import os

import pytest

from logsymrate import cli, dump_json, parse_mortality_csv, specio
from logsymrate.cli import main
from logsymrate.errors import DataFormatError, DataValidationError

TRUTH_DOC = {
    "ages": [40.0, 45.0, 50.0, 55.0, 60.0, 65.0],
    "periods": [2000.0, 2002.0, 2004.0, 2006.0],
    "log_rate": {"beta0": -22.0, "beta_age": 0.07, "beta_period": 0.006},
    "population": 300000.0,
    "noise": {"kind": "logsym", "family": {"name": "normal"}, "phi": 0.04},
}

LOGSYM_DOC = {
    "model": "logsym",
    "family": {"name": "normal"},
    "location": {"covariates": ["intercept", "age", "period"], "use_offset": True},
    "dispersion": {"covariates": ["intercept"]},
}

POISSON_DOC = {
    "model": "poisson",
    "covariates": ["intercept", "age", "period"],
}

# nonlinear age effects in both submodels plus a period effect, the shape
# used for registry-style tables
BREAST_DOC = {
    "model": "logsym",
    "family": {"name": "normal"},
    "location": {
        "covariates": ["intercept"],
        "use_offset": True,
        "terms": [
            {"kind": "ncs", "covariate": "age", "lambda": 10.0},
            {"kind": "ncs", "covariate": "period", "lambda": 10.0},
        ],
    },
    "dispersion": {
        "covariates": ["intercept"],
        "terms": [{"kind": "ncs", "covariate": "age", "lambda": 100.0}],
    },
}


def write_doc(path, doc):
    path.write_text(dump_json(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulated input CSV plus the model spec documents, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    truth = write_doc(root / "truth.json", TRUTH_DOC)
    assert main(["simulate", "--spec", truth, "--out", str(root / "sim")]) == 0
    return {
        "root": root,
        "truth": truth,
        "input": str(root / "sim" / "simulated.csv"),
        "logsym": write_doc(root / "logsym.json", LOGSYM_DOC),
        "poisson": write_doc(root / "poisson.json", POISSON_DOC),
        "breast": write_doc(root / "breast.json", BREAST_DOC),
    }


class TestSimulate:
    def test_outputs(self, workspace):
        root = workspace["root"]
        lines = (root / "sim" / "simulated.csv").read_text().strip().split("\n")
        assert lines[0] == "sex,site,age_lo,age_hi,year,deaths,population"
        assert len(lines) == 6 * 4 + 1
        for line in lines[1:]:
            deaths = line.split(",")[5]
            assert deaths.isdigit()
        truth_echo = json.loads((root / "sim" / "truth.json").read_text())
        assert truth_echo["seed"] == 20130
        assert truth_echo["truth"] == TRUTH_DOC
        # an integral float reads back as a float, not an int
        ages = truth_echo["cells"]["age_mid"]
        assert ages[0] == 40.0 and all(type(age) is float for age in ages)

    def test_byte_identical_rerun(self, workspace):
        root = workspace["root"]
        assert main(["simulate", "--spec", workspace["truth"],
                     "--out", str(root / "sim2")]) == 0
        for name in ("simulated.csv", "truth.json"):
            assert (root / "sim" / name).read_bytes() == \
                (root / "sim2" / name).read_bytes()

    def test_seed_changes_output(self, workspace):
        root = workspace["root"]
        assert main(["simulate", "--spec", workspace["truth"],
                     "--out", str(root / "sim3"), "--seed", "7"]) == 0
        assert (root / "sim" / "simulated.csv").read_bytes() != \
            (root / "sim3" / "simulated.csv").read_bytes()

    def test_site_needing_quotes_fits(self, workspace, tmp_path):
        # the CSV quotes the site, so fit reads back one seven-field stratum
        site = 'lung, "upper"'
        truth = write_doc(tmp_path / "truth.json", {**TRUTH_DOC, "site": site})
        assert main(["simulate", "--spec", truth, "--out", str(tmp_path / "sim")]) == 0
        assert main(["fit", "--input", str(tmp_path / "sim" / "simulated.csv"),
                     "--spec", workspace["poisson"], "--out", str(tmp_path / "fit")]) == 0
        records = parse_mortality_csv((tmp_path / "sim" / "simulated.csv").read_bytes())
        assert records.site == (site,) * 24

    def test_refused_overwrite_writes_nothing(self, workspace, tmp_path, capsys):
        # truth.json is written second: simulated.csv must not appear first
        (tmp_path / "truth.json").write_text("kept", encoding="utf-8")
        assert main(["simulate", "--spec", workspace["truth"], "--out", str(tmp_path)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["truth.json"]
        assert (tmp_path / "truth.json").read_text(encoding="utf-8") == "kept"


REMOVED_FLAGS = [
    ("fit", ["--policy", "drop"]),
    ("fit", ["--jacobian-adjust"]),
    ("fit", ["--seed", "1"]),
    ("compare", ["--seed", "1"]),
    ("curves", ["--seed", "1"]),
    ("envelope", ["--policy", "drop"]),
    ("simulate", ["--policy", "drop"]),
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in REMOVED_FLAGS])
def test_flags_that_shadow_the_spec_or_do_nothing_are_rejected(workspace, capsys,
                                                               command, flag):
    # the spec alone sets the zero policy and the Jacobian adjustment, and
    # only simulate and envelope draw random numbers
    if command == "simulate":
        args = ["--spec", workspace["truth"]]
    else:
        args = ["--input", workspace["input"], "--spec", workspace["breast"]]
    if command == "compare":
        args += ["--spec2", workspace["poisson"]]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--out", str(workspace["root"] / "flag"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def zero_input(workspace):
    """A simulated input CSV in which many cells count zero deaths."""
    truth = write_doc(workspace["root"] / "zero_truth.json",
                      dict(TRUTH_DOC, population=2000.0, noise={"kind": "poisson_counts"}))
    out = workspace["root"] / "zero_sim"
    assert main(["simulate", "--spec", truth, "--out", str(out)]) == 0
    return str(out / "simulated.csv")


class TestFit:
    def test_logsym_fit(self, workspace, capsys):
        out = workspace["root"] / "fit_l"
        code = main(["fit", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["model"] == "logsym"
        assert doc["converged"] is True
        assert doc["spec"]["family"]["name"] == "normal"
        text = capsys.readouterr().out
        assert "location:age" in text and "converged True" in text

    def test_poisson_fit(self, workspace):
        out = workspace["root"] / "fit_p"
        code = main(["fit", "--input", workspace["input"],
                     "--spec", workspace["poisson"], "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["model"] == "poisson"
        assert doc["spec"] == dict(POISSON_DOC, zero_policy="add_half")

    def test_fixed_lambda_reads_back_as_a_float(self, workspace):
        out = workspace["root"] / "fit_fixed"
        assert main(["fit", "--input", workspace["input"],
                     "--spec", workspace["breast"], "--out", str(out)]) == 0
        terms = json.loads((out / "fit.json").read_text())["terms"]
        lams = {label: term["lambda"] for label, term in terms.items()}
        assert sorted(lams.values()) == [10.0, 10.0, 100.0]
        assert all(type(lam) is float for lam in lams.values())

    def test_non_finite_past_the_writer_raises_and_writes_nothing(self, workspace,
                                                                  monkeypatch):
        # NaN is not JSON: the encoder refuses it rather than write the token
        plain = specio._plain

        def leak_nan(obj):  # the conversion, with the document's AIC left NaN
            out = plain(obj)
            return dict(out, aic=math.nan) if isinstance(out, dict) and "aic" in out else out

        monkeypatch.setattr(specio, "_plain", leak_nan)
        out = workspace["root"] / "fit_nan_token"
        with pytest.raises(ValueError, match="JSON compliant"):
            main(["fit", "--input", workspace["input"],
                  "--spec", workspace["poisson"], "--out", str(out)])
        assert not (out / "fit.json").exists()

    def test_overwrite_refused_then_forced(self, workspace, capsys):
        out = workspace["root"] / "fit_l"
        args = ["fit", "--input", workspace["input"],
                "--spec", workspace["logsym"], "--out", str(out)]
        assert main(args) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_missing_spec_file(self, workspace, capsys):
        code = main(["fit", "--input", workspace["input"],
                     "--spec", "/nonexistent/spec.json",
                     "--out", str(workspace["root"] / "fit_x")])
        assert code == 2
        assert "/nonexistent/spec.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, problem", [
        ("--input", "directory"), ("--spec", "directory"), ("--input", "not-utf8"),
        ("--spec", "not-utf8"), ("--out", "a-file")])
    def test_unusable_path_exits_2_naming_it(self, workspace, capsys, tmp_path, flag,
                                             problem):
        # each of these used to end in a traceback and exit 1
        paths = {"--input": workspace["input"], "--spec": workspace["logsym"],
                 "--out": str(tmp_path / "out")}
        path = tmp_path / "given"
        if problem == "directory":
            path.mkdir()
        elif problem == "not-utf8":  # a latin-1 e-acute in a UTF-8 file
            with open(paths[flag], "rb") as fh:
                path.write_bytes(fh.read().replace(b"e", b"\xe9", 1))
        else:
            path.write_text("", encoding="utf-8")
        paths[flag] = str(path)
        assert main(["fit", *(x for item in paths.items() for x in item)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unusable_files_are_named_by_the_library(self, workspace, tmp_path):
        with pytest.raises(DataValidationError, match=f"^cannot read spec file {tmp_path}: "):
            cli._read_text(str(tmp_path), "spec")
        path = tmp_path / "latin1.csv"
        with open(workspace["input"], "rb") as fh:
            path.write_bytes(fh.read().replace(b"e", b"\xe9", 1))
        with pytest.raises(DataFormatError, match=f"^input file {path} is not UTF-8 text: "):
            cli._read_text(str(path), "input")
        with pytest.raises(DataFormatError, match="^CSV is not UTF-8 text: "):
            parse_mortality_csv(path.read_bytes())
        with pytest.raises(DataFormatError, match="^invalid JSON: "):
            specio.load_json(b'{"model": "\xe9"}')
        with pytest.raises(DataValidationError,
                           match=f"^cannot make output directory {path}: "):
            cli._write_outputs(argparse.Namespace(out=str(path), force=False), {"a": ""})

    def test_malformed_spec_field_exits_2(self, workspace, capsys):
        # a list where an object belongs: the reader's conversion boundary names it
        doc = dict(LOGSYM_DOC, convergence=[])
        spec = write_doc(workspace["root"] / "malformed.json", doc)
        code = main(["fit", "--input", workspace["input"],
                     "--spec", spec, "--out", str(workspace["root"] / "fit_m")])
        assert code == 2
        assert "malformed model spec" in capsys.readouterr().err

    def test_out_of_range_convergence_setting_exits_2(self, workspace, capsys):
        doc = dict(LOGSYM_DOC, convergence={"max_outer": 0})
        spec = write_doc(workspace["root"] / "no_sweeps.json", doc)
        code = main(["fit", "--input", workspace["input"],
                     "--spec", spec, "--out", str(workspace["root"] / "fit_r")])
        assert code == 2
        assert "max_outer must be >= 1, got 0" in capsys.readouterr().err

    def test_non_finite_population_exits_2(self, workspace, capsys):
        lines = open(workspace["input"], encoding="utf-8").read().split("\n")
        lines[3] = ",".join(lines[3].split(",")[:-1] + ["inf"])
        bad = workspace["root"] / "inf_population.csv"
        bad.write_text("\n".join(lines), encoding="utf-8")
        for doc in ("logsym", "poisson"):
            code = main(["fit", "--input", str(bad), "--spec", workspace[doc],
                         "--out", str(workspace["root"] / f"fit_inf_{doc}")])
            assert code == 2
            assert "line 4: population must be positive and finite" in \
                capsys.readouterr().err

    def test_two_strata_exit_2(self, workspace, capsys, tmp_path):
        lines = open(workspace["input"], encoding="utf-8").read().split("\n")
        lines[-2] = lines[-2].replace("female", "male")
        bad = tmp_path / "two_strata.csv"
        bad.write_text("\n".join(lines), encoding="utf-8")
        assert main(["fit", "--input", str(bad), "--spec", workspace["poisson"],
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "error: input holds 2 (sex, site) strata; provide exactly one\n"
        assert not (tmp_path / "out").exists()

    def test_single_period_table_exits_2(self, workspace, capsys):
        # 21 location columns on 20 rows; the rank check alone would pass it
        truth = write_doc(workspace["root"] / "one_period_truth.json",
                          dict(TRUTH_DOC, ages=[float(a) for a in range(40, 60)],
                               periods=[2000.0]))
        sim = workspace["root"] / "one_period"
        assert main(["simulate", "--spec", truth, "--out", str(sim)]) == 0
        doc = dict(BREAST_DOC, location={
            "covariates": ["intercept", "period"], "use_offset": True,
            "terms": [{"kind": "ncs", "covariate": "age", "lambda": 10.0}]})
        spec = write_doc(workspace["root"] / "period_covariate.json", doc)
        code = main(["fit", "--input", str(sim / "simulated.csv"), "--spec", spec,
                     "--out", str(workspace["root"] / "fit_one_period")])
        assert code == 2
        assert "single period value" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [LOGSYM_DOC, POISSON_DOC], ids=["logsym", "poisson"])
    def test_zero_policy_comes_from_the_spec(self, workspace, zero_input, doc):
        rows = open(zero_input, encoding="utf-8").read().strip().split("\n")[1:]
        nonzero = sum(int(row.split(",")[5]) > 0 for row in rows)
        assert 0 < nonzero < len(rows)
        spec = write_doc(workspace["root"] / f"drop_{doc['model']}.json",
                         dict(doc, zero_policy="drop"))
        out = workspace["root"] / f"fit_drop_{doc['model']}"
        assert main(["fit", "--input", zero_input, "--spec", spec, "--out", str(out)]) == 0
        written = json.loads((out / "fit.json").read_text())
        assert written["spec"]["zero_policy"] == "drop"
        assert written["n_cells"] == nonzero

    @pytest.mark.parametrize("doc", [LOGSYM_DOC, POISSON_DOC], ids=["logsym", "poisson"])
    def test_unknown_zero_policy_exits_2_before_the_input_is_read(self, workspace, capsys,
                                                                  doc):
        spec = write_doc(workspace["root"] / f"bogus_{doc['model']}.json",
                         dict(doc, zero_policy="bogus"))
        code = main(["fit", "--input", str(workspace["root"] / "missing.csv"), "--spec", spec,
                     "--out", str(workspace["root"] / f"fit_bogus_{doc['model']}")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown zero policy 'bogus'" in err and "not found" not in err

    @pytest.mark.parametrize("text, field", [
        ('"family": {"name": "student", "nu": true}', "nu"),
        ('"family": {"name": "powerexp", "zeta": Infinity}', "zeta"),
        ('"family": {"name": "normal"}, "dispersion": {"terms": '
         '[{"kind": "ncs", "covariate": "age", "lambda": Infinity}]}', "lambda"),
    ], ids=["nu-true", "zeta-inf", "lambda-inf"])
    def test_non_finite_or_boolean_parameter_exits_2(self, workspace, capsys, text, field):
        spec = workspace["root"] / f"bad_{field}.json"
        spec.write_text('{"model": "logsym", "location": {"covariates": ["intercept"]}, '
                        + text + "}", encoding="utf-8")
        code = main(["fit", "--input", workspace["input"], "--spec", str(spec),
                     "--out", str(workspace["root"] / f"fit_bad_{field}")])
        assert code == 2
        assert f"{field} must be" in capsys.readouterr().err

    def test_nonconvergence_exits_3_but_writes(self, workspace, capsys):
        # student weights need more than one sweep
        doc = dict(LOGSYM_DOC, family={"name": "student", "nu": 5.0},
                   convergence={"max_outer": 1})
        spec = write_doc(workspace["root"] / "starved.json", doc)
        out = workspace["root"] / "fit_n"
        code = main(["fit", "--input", workspace["input"],
                     "--spec", spec, "--out", str(out)])
        assert code == 3
        written = json.loads((out / "fit.json").read_text())
        assert written["converged"] is False
        # named on stderr, as compare, envelope and curves name theirs
        assert f"numerical error: the fit of {spec} did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("year, code", [(0, 3), (12, 0), (25, 3)])
    def test_poisson_mle_that_does_not_exist_exits_3(self, workspace, capsys, year, code):
        # one death, at age 40 in the given year, in 4 ages x 26 years
        rows = ["sex,site,age_lo,age_hi,year,deaths,population"]
        rows += [f"female,x,{age},{age},{1956 + k},{int(age == 40 and k == year)},237"
                 for age in (40, 45, 50, 55) for k in range(26)]
        table = workspace["root"] / f"single_death_{year}.csv"
        table.write_text("\n".join(rows) + "\n", encoding="utf-8")
        spec = write_doc(workspace["root"] / "poisson_period.json",
                         dict(POISSON_DOC, covariates=["intercept", "period"]))
        out = workspace["root"] / f"fit_single_death_{year}"
        assert main(["fit", "--input", str(table), "--spec", spec, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("numerical error: the Poisson MLE does not exist: 100 of 103 zero "
                           "counts are separated (their fitted means can be driven to 0)\n")
            assert not (out / "fit.json").exists()
        else:
            assert json.loads((out / "fit.json").read_text())["converged"] is True

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
    def test_output_name_that_is_a_directory_exits_2(self, workspace, capsys, tmp_path,
                                                     force):
        # this used to end in IsADirectoryError and exit 1 under --force
        (tmp_path / "fit.json").mkdir()
        assert main(["fit", "--input", workspace["input"], "--spec", workspace["poisson"],
                     "--out", str(tmp_path), *force]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot write {tmp_path / 'fit.json'}: Is a directory\n"
        assert [path.name for path in tmp_path.iterdir()] == ["fit.json"]
        assert (tmp_path / "fit.json").is_dir()

    def test_byte_order_marks_do_not_change_the_fit(self, workspace, tmp_path):
        # spreadsheet exports start UTF-8 text with EF BB BF
        marked = {}
        for flag, path in (("--input", workspace["input"]), ("--spec", workspace["breast"])):
            with open(path, "rb") as fh:
                (tmp_path / flag[2:]).write_bytes(b"\xef\xbb\xbf" + fh.read())
            marked[flag] = str(tmp_path / flag[2:])
        for out, (data, spec) in (("plain", (workspace["input"], workspace["breast"])),
                                  ("marked", (marked["--input"], marked["--spec"]))):
            assert main(["fit", "--input", data, "--spec", spec,
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "marked" / "fit.json").read_bytes() == \
            (tmp_path / "plain" / "fit.json").read_bytes()

    @pytest.mark.parametrize("flag, reader, problem", [
        ("--input", parse_mortality_csv, "^mortality CSV header missing column\\(s\\): sex$"),
        ("--spec", specio.load_json, "^invalid JSON: Unexpected UTF-8 BOM"),
    ], ids=["csv", "spec"])
    def test_two_byte_order_marks_exit_2_as_the_library_refuses_them(
            self, workspace, capsys, tmp_path, flag, reader, problem):
        # the CLI leaves the mark to the library readers, which drop one
        paths = {"--input": workspace["input"], "--spec": workspace["breast"]}
        with open(paths[flag], "rb") as fh:
            text = "\ufeff\ufeff" + fh.read().decode("utf-8")
        paths[flag] = str(tmp_path / "doubled")
        (tmp_path / "doubled").write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError, match=problem) as refused:
            reader(text)
        assert main(["fit", "--input", paths["--input"], "--spec", paths["--spec"],
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        assert not (tmp_path / "out").exists()

    def test_unparsable_csv_exits_2_naming_the_line(self, workspace, capsys, tmp_path):
        # an unclosed quote on line 2 used to end in a csv.Error traceback
        row = "female,lung,40,44,2000,5,10000\n"
        path = tmp_path / "unclosed.csv"
        path.write_text("sex,site,age_lo,age_hi,year,deaths,population\n"
                        'female,"lung,40,44,2000,5,10000\n' + row * 6000, encoding="utf-8")
        assert main(["fit", "--input", str(path), "--spec", workspace["poisson"],
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: field larger than field limit")
        assert not (tmp_path / "out").exists()

    def test_deterministic_fit_output(self, workspace):
        root = workspace["root"]
        args = ["--input", workspace["input"], "--spec", workspace["logsym"]]
        assert main(["fit", *args, "--out", str(root / "det_a")]) == 0
        assert main(["fit", *args, "--out", str(root / "det_b")]) == 0
        assert (root / "det_a" / "fit.json").read_bytes() == \
            (root / "det_b" / "fit.json").read_bytes()


class TestCompare:
    def test_artifacts(self, workspace, capsys):
        out = workspace["root"] / "cmp"
        code = main(["compare", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--spec2", workspace["poisson"],
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["preferred"] in {"logsym-normal", "poisson", "tie"}
        assert {m["label"] for m in report["models"]} == {"logsym-normal", "poisson"}
        for name in ("scatter_1.csv", "scatter_2.csv"):
            header = (out / name).read_text().split("\n")[0]
            assert header == "age_mid,period_mid,observed_log_rate,fitted_log_rate"
        text = capsys.readouterr().out
        assert "preferred:" in text
        assert "note:" in text  # unadjusted logsym AIC vs a count model

    def test_model_that_did_not_converge_exits_3_with_the_report(self, workspace, capsys):
        spec = write_doc(workspace["root"] / "breast_starved.json",
                         dict(BREAST_DOC, convergence={"max_outer": 1}))
        out = workspace["root"] / "cmp_starved"
        code = main(["compare", "--input", workspace["input"], "--spec", spec,
                     "--spec2", workspace["poisson"], "--out", str(out)])
        assert code == 3
        report = json.loads((out / "comparison.json").read_text())
        assert [m["converged"] for m in report["models"]] == [False, True]
        assert sorted(path.name for path in out.iterdir()) == \
            ["comparison.json", "scatter_1.csv", "scatter_2.csv"]
        err = capsys.readouterr().err
        assert f"model 1 ({spec}) did not converge" in err
        assert "model 2" not in err

    def test_refused_overwrite_writes_nothing(self, workspace, tmp_path, capsys):
        # a scatter CSV is written after comparison.json: neither may appear
        (tmp_path / "scatter_2.csv").write_text("kept", encoding="utf-8")
        code = main(["compare", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--spec2", workspace["poisson"],
                     "--out", str(tmp_path)])
        assert code == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scatter_2.csv"]
        assert (tmp_path / "scatter_2.csv").read_text(encoding="utf-8") == "kept"

    def test_output_name_that_is_a_directory_writes_nothing(self, workspace, tmp_path,
                                                             capsys):
        (tmp_path / "scatter_2.csv").mkdir()
        code = main(["compare", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--spec2", workspace["poisson"],
                     "--out", str(tmp_path), "--force"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: cannot write {tmp_path / 'scatter_2.csv'}: Is a directory\n"
        assert [path.name for path in tmp_path.iterdir()] == ["scatter_2.csv"]

    def test_write_error_exits_2_and_keeps_what_was_written(self, workspace, tmp_path,
                                                            capsys, monkeypatch):
        # a full disk on the last file: the files before it stay
        def full_disk(path, *args, **kwargs):
            if str(path).endswith("scatter_2.csv"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        code = main(["compare", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--spec2", workspace["poisson"],
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: cannot write {tmp_path / 'scatter_2.csv'}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["comparison.json", "scatter_1.csv"]

    def test_spec2_required_by_parser(self, workspace):
        with pytest.raises(SystemExit):
            main(["compare", "--input", workspace["input"],
                  "--spec", workspace["logsym"],
                  "--out", str(workspace["root"] / "cmp2")])

    def test_zero_policies_must_agree(self, workspace, capsys):
        # both models are fitted on one table, so one zero policy must hold
        drop = write_doc(workspace["root"] / "poisson_drop.json",
                         dict(POISSON_DOC, zero_policy="drop"))
        code = main(["compare", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--spec2", drop,
                     "--out", str(workspace["root"] / "cmp_policy")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'add_half'" in err and "'drop'" in err
        assert not (workspace["root"] / "cmp_policy").exists()

    def test_broken_second_model_is_labelled(self, workspace, capsys):
        bad = write_doc(workspace["root"] / "bad_cov.json",
                        dict(POISSON_DOC, covariates=["intercept", "bogus"]))
        code = main(["compare", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--spec2", bad,
                     "--out", str(workspace["root"] / "cmp3")])
        assert code == 2
        assert "model 2" in capsys.readouterr().err


def test_every_json_artifact_is_standard(workspace, monkeypatch, tmp_path):
    # simulate -> fit -> compare, each Poisson fit with a NaN standard error:
    # no artifact holds a NaN or Infinity token, the NaN is written as null,
    # and a float such as a standard error or a fit's AIC reads back as one
    fit_poisson = cli.fit_poisson

    def nan_se(*args):
        result = fit_poisson(*args)
        return dataclasses.replace(result, se=result.se * [1.0, math.nan, 1.0])

    monkeypatch.setattr(cli, "fit_poisson", nan_se)
    assert main(["simulate", "--spec", workspace["truth"], "--out", str(tmp_path / "sim")]) == 0
    table = ["--input", str(tmp_path / "sim" / "simulated.csv")]
    assert main(["fit", *table, "--spec", workspace["breast"],
                 "--out", str(tmp_path / "fit")]) == 0
    assert main(["fit", *table, "--spec", workspace["poisson"],
                 "--out", str(tmp_path / "fit_p")]) == 0
    assert main(["compare", *table, "--spec", workspace["breast"],
                 "--spec2", workspace["poisson"], "--out", str(tmp_path / "cmp")]) == 0

    def refuse(token):
        pytest.fail(f"non-standard JSON constant {token}")

    docs = {path.relative_to(tmp_path).as_posix():
            json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
            for path in tmp_path.glob("*/*.json")}
    assert sorted(docs) == ["cmp/comparison.json", "fit/fit.json", "fit_p/fit.json",
                            "sim/truth.json"]
    std_errs = docs["fit_p/fit.json"]["beta"]["std_errs"]
    assert std_errs[1] is None and all(type(se) is float for se in std_errs[::2])
    assert type(docs["fit/fit.json"]["aic"]) is float
    assert type(docs["fit_p/fit.json"]["aic"]) is float


POISSON_TRUTH = dict(TRUTH_DOC, noise={"kind": "poisson_counts"})

INPUT_ERRORS = [
    ("fit", dict(LOGSYM_DOC, family={"name": "normal", "nu": 5}), [],
     "normal family takes no nu, got 5"),
    ("fit", dict(LOGSYM_DOC, family={"name": "student", "nu": 5, "zeta": 0.4}), [],
     "student family takes no zeta, got 0.4"),
    ("simulate", TRUTH_DOC, ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("envelope", POISSON_DOC, ["--seed", "-5", "--m-sims", "10"], "seed must be >= 0, got -5"),
    ("envelope", LOGSYM_DOC, ["--seed", "-100", "--m-sims", "10"],
     "seed must be >= 0, got -100"),
    ("simulate", dict(TRUTH_DOC, population=[[1e5, 1e5], [1e5, 1e5]]), [],
     "population table must be 6 x 4 (ages x periods), got shape (2, 2)"),
    ("simulate", dict(TRUTH_DOC, population=[[1e5] * 4] * 5 + [[1e5] * 3]), [],
     "population table must be 6 x 4 (ages x periods), got shape None"),
    ("simulate", dict(TRUTH_DOC, log_rate={"beta0": 1000.0}), [],
     "expected deaths must be finite and below 1e+18"),
    ("simulate", dict(POISSON_TRUTH, log_rate={"beta0": 1000.0}), [],
     "expected deaths must be finite and below 1e+18"),
    ("simulate", dict(POISSON_TRUTH, log_rate={"beta0": 40.0}), [],
     "expected deaths must be finite and below 1e+18"),
    ("simulate", dict(TRUTH_DOC, population="1e5"), [],
     "population must be a number, got '1e5'"),
    ("fit", dict(POISSON_DOC, covariates="intercept"), [],
     "covariates must be a list, got 'intercept'"),
    ("fit", dict(LOGSYM_DOC, lambda_grid={"lo": -1, "hi": 10, "num": 5}), [],
     "lambda_grid lo must be positive and finite, got -1"),
    ("fit", dict(LOGSYM_DOC, lambda_grid={"lo": 0, "hi": 10, "num": 5}), [],
     "lambda_grid lo must be positive and finite, got 0"),
    ("fit", dict(LOGSYM_DOC, lambda_grid={"lo": 1, "hi": float("inf"), "num": 5}), [],
     "lambda_grid hi must be positive and finite, got inf"),
    ("fit", dict(LOGSYM_DOC, lambda_grid={"lo": 1, "hi": 10, "num": 0}), [],
     "lambda_grid num must be >= 1, got 0"),
    ("simulate", dict(TRUTH_DOC, ages={"min": 40, "max": 50, "count": -1}), [],
     "ages count must be >= 1, got -1"),
    ("simulate", dict(TRUTH_DOC, ages={"min": float("inf"), "max": 50, "count": 3}), [],
     "ages min must be a finite number, got inf"),
    ("simulate", dict(TRUTH_DOC, noise={"kind": "poisson_counts", "phi": -5,
                                        "round_counts": "yes", "family": {"name": "bogus"}}),
     [], "unknown key(s) in poisson_counts noise: family, phi, round_counts"),
]


@pytest.mark.parametrize("command, doc, flags, message", INPUT_ERRORS, ids=[
    "fit-normal-nu", "fit-student-zeta", "simulate-seed", "envelope-seed-poisson",
    "envelope-seed-logsym", "population-2x2", "population-ragged", "overflow-logsym",
    "overflow-poisson", "lambda-too-large-poisson", "population-string",
    "poisson-covariates-string", "grid-lo-negative", "grid-lo-zero", "grid-hi-inf",
    "grid-num-zero", "truth-count-negative", "truth-min-inf", "poisson-noise-keys"])
def test_input_error_exits_2_naming_it(workspace, capsys, tmp_path, command, doc, flags,
                                       message):
    # each of these used to raise a bare ValueError, warn, or go on quietly;
    # json.dumps writes an infinity as Infinity, which the spec reader takes
    (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    args = [command, "--spec", str(tmp_path / "doc.json"), "--out", str(tmp_path)]
    if command != "simulate":
        args += ["--input", workspace["input"]]
    assert main(args + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert "Warning" not in err
    assert not (tmp_path / "envelope.csv").exists() and not (tmp_path / "simulated.csv").exists()


class TestEnvelope:
    def test_deterministic_csv(self, workspace):
        root = workspace["root"]
        args = ["envelope", "--input", workspace["input"],
                "--spec", workspace["logsym"], "--m-sims", "20"]
        assert main(args + ["--out", str(root / "env_a")]) == 0
        assert main(args + ["--out", str(root / "env_b")]) == 0
        data = (root / "env_a" / "envelope.csv").read_bytes()
        assert data == (root / "env_b" / "envelope.csv").read_bytes()
        lines = data.decode().strip().split("\n")
        assert lines[0] == "order_index,ref_quantile,residual,band_lo,band_hi"
        assert len(lines) == 6 * 4 + 1

    def test_poisson_defaults_to_deviance(self, workspace, capsys):
        out = workspace["root"] / "env_p"
        code = main(["envelope", "--input", workspace["input"],
                     "--spec", workspace["poisson"], "--m-sims", "10",
                     "--out", str(out)])
        assert code == 0
        assert "kind=deviance" in capsys.readouterr().out

    def test_fit_that_did_not_converge_exits_3_with_the_csv(self, workspace, monkeypatch,
                                                            capsys):
        # with max_outer 1 every refit stops too and the envelope fails, so
        # the fit is marked stopped after it ran; its refits converge
        run_model = cli._run_model
        monkeypatch.setattr(cli, "_run_model", lambda spec, table: dataclasses.replace(
            run_model(spec, table), converged=False))
        out = workspace["root"] / "env_stopped"
        code = main(["envelope", "--input", workspace["input"],
                     "--spec", workspace["logsym"], "--m-sims", "10", "--out", str(out)])
        assert code == 3
        assert len((out / "envelope.csv").read_text().strip().split("\n")) == 6 * 4 + 1
        assert f"the fit of {workspace['logsym']} did not converge" in capsys.readouterr().err

    def test_starved_fit_exits_3(self, workspace, capsys):
        spec = write_doc(workspace["root"] / "logsym_starved.json",
                         dict(LOGSYM_DOC, family={"name": "student", "nu": 5.0},
                              convergence={"max_outer": 1}))
        code = main(["envelope", "--input", workspace["input"], "--spec", spec,
                     "--m-sims", "10", "--out", str(workspace["root"] / "env_starved")])
        assert code == 3
        assert "envelope refits failed" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, flags, message", [
        ("select", ["--kind", "deviance"], "residual kind 'deviance' invalid for a "
                                           "log-symmetric fit; expected one of "
                                           "('location', 'dispersion')"),
        ("poisson", ["--kind", "dispersion"], "residual kind 'dispersion' invalid for a "
                                              "Poisson fit; expected one of ('deviance',)"),
        ("select", ["--level", "1.5"], "level must be in (0, 1), got 1.5"),
        ("select", ["--m-sims", "0"], "m_sims must be >= 1, got 0"),
        ("poisson", ["--seed", "-3"], "seed must be >= 0, got -3"),
    ], ids=["logsym-kind", "poisson-kind", "level", "m-sims", "seed"])
    def test_bad_setting_exits_2_before_any_read_or_fit(self, workspace, monkeypatch, capsys,
                                                        spec, flags, message):
        # the select spec's fit runs a 30-lambda grid, none of which a refused
        # setting may cost
        select = dict(LOGSYM_DOC, location={
            "covariates": ["intercept", "period"], "use_offset": True,
            "terms": [{"kind": "ncs", "covariate": "age", "lambda": "select"}]})
        specs = {"select": write_doc(workspace["root"] / "select.json", select),
                 "poisson": workspace["poisson"]}
        calls = []
        monkeypatch.setattr(cli, "_load_table", lambda *args: calls.append("read"))
        monkeypatch.setattr(cli, "_run_model", lambda *args: calls.append("fit"))
        code = main(["envelope", "--input", workspace["input"], "--spec", specs[spec],
                     *flags, "--out", str(workspace["root"] / "env_refused")])
        assert (code, calls) == (2, [])
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace["root"] / "env_refused").exists()


class TestCurves:
    def test_poisson_spec_rejected(self, workspace, capsys):
        code = main(["curves", "--input", workspace["input"],
                     "--spec", workspace["poisson"],
                     "--out", str(workspace["root"] / "cur_p")])
        assert code == 2
        assert "nonparametric" in capsys.readouterr().err

    def test_no_terms_rejected(self, workspace, capsys):
        code = main(["curves", "--input", workspace["input"],
                     "--spec", workspace["logsym"],
                     "--out", str(workspace["root"] / "cur_l")])
        assert code == 2
        assert "spline term" in capsys.readouterr().err

    def test_three_term_groups(self, workspace, capsys):
        out = workspace["root"] / "cur_b"
        code = main(["curves", "--input", workspace["input"],
                     "--spec", workspace["breast"], "--out", str(out)])
        assert code == 0
        assert "3 component curve(s)" in capsys.readouterr().out
        lines = (out / "curves.csv").read_text().strip().split("\n")
        assert len(lines) == 3 * 200 + 1
        groups = {line.split(",")[0] for line in lines[1:]}
        assert groups == {"location:ncs(age)", "location:ncs(period)",
                          "dispersion:ncs(age)"}

    def test_fit_that_did_not_converge_exits_3_with_the_csv(self, workspace, capsys):
        spec = write_doc(workspace["root"] / "breast_starved_curves.json",
                         dict(BREAST_DOC, convergence={"max_outer": 1}))
        out = workspace["root"] / "cur_starved"
        code = main(["curves", "--input", workspace["input"], "--spec", spec,
                     "--out", str(out)])
        assert code == 3
        assert len((out / "curves.csv").read_text().strip().split("\n")) == 3 * 200 + 1
        assert f"the fit of {spec} did not converge" in capsys.readouterr().err
