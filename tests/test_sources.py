"""The Python files themselves: each parses under the 3.10 floor of
``requires-python``, each demo runs to the end with a RuntimeWarning as an
error, a range rule's message is written in ``errors.py`` alone, and every
private module-level name is used by the package itself."""

import ast
import shutil
from pathlib import Path

import pytest

from .fresh import python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_file_parses_as_python_3_10():
    # a stand-in for running the suite on 3.10: syntax the floor lacks,
    # such as except*, fails here
    failures = []
    for folder in ("src", "tests", "perfbench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            try:
                ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
            except SyntaxError as exc:
                failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_no_package_module_is_imported_inside_a_function():
    # a function-level import of a package module hides an import cycle;
    # the stdlib imports of the fork map are not package modules
    found = []
    for path in sorted((ROOT / "src" / "logsymrate").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    ours = node.level > 0 or (node.module or "").split(".")[0] == "logsymrate"
                elif isinstance(node, ast.Import):
                    ours = any(alias.name.split(".")[0] == "logsymrate" for alias in node.names)
                else:
                    ours = False
                if ours:
                    found.append(f"{path.name}:{node.lineno} in {func.name}")
    assert found == []


def test_no_scipy_module_is_imported_at_import_time():
    # scipy is imported in the functions that call it, so a process loads
    # only what its work needs (tests/test_surface.py checks what loads);
    # an import in a module or class body runs when the package is imported
    found = []
    for path in sorted((ROOT / "src" / "logsymrate").glob("*.py")):
        body = list(ast.parse(path.read_text(encoding="utf-8"), str(path)).body)
        while body:
            node = body.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
            body.extend(ast.iter_child_nodes(node))
    assert found == []


def test_range_rules_are_written_only_in_errors_py():
    # a range rule written out at its site drifts from the others, in its
    # test and in its words; errors.py holds one of each
    found = []
    for path in sorted((ROOT / "src" / "logsymrate").glob("*.py")):
        if path.name == "errors.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for text in ("must be positive and finite", "must be >= ", "must be a finite number",
                         "must be true or false"):
                if text in line:
                    found.append(f"{path.name}:{lineno}: {text}")
    assert found == []


def test_every_private_module_name_is_used_in_the_package():
    # a private helper that only tests call is a second copy of the code
    # the package runs; each module-level _name is read somewhere in src/
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted((ROOT / "src" / "logsymrate").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    # a name imported under another name is read as that name
    read |= {alias.name for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if alias.asname in read}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for target in targets for t in ast.walk(target)
                           if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}:{node.lineno} {d}" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in read]
    assert unused == []


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_without_a_runtime_warning(demo, tmp_path):
    # from a copy, since component_curves.py writes its CSV next to itself:
    # nothing in demos/ is written
    before = {path.name: path.stat().st_mtime_ns for path in (ROOT / "demos").iterdir()}
    copy = tmp_path / demo.name
    shutil.copyfile(demo, copy)
    python("-W", "error::RuntimeWarning", str(copy), cwd=tmp_path)
    assert {path.name: path.stat().st_mtime_ns for path in (ROOT / "demos").iterdir()} == before
    if demo.stem == "component_curves":
        lines = (tmp_path / "component_curves.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term,covariate,value"
        assert len(lines[-1].split(",")) == 3  # a data row, not a blank line
        terms = [line.split(",")[0] for line in lines[1:]]
        assert {term: terms.count(term) for term in terms} == {
            "location:ncs(age)": 200, "location:ncs(period)": 200, "dispersion:psp(age)": 200}
