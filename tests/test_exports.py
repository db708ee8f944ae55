"""The package re-exports nothing, so `import oql.<module>` binds that
module and `import oql` loads none of them; every name a package still
exports resolves; each pipeline stage has one error class; the parse and
check commands load no numpy (scipy is never loaded); the README's Layout
block names every module; and the README's Python API example runs as
written."""

import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import oql.syntax
from oql import errors

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _probe(code: str) -> str:
    """The stdout of code run in a fresh interpreter on src/."""
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True).stdout


def test_importing_a_module_binds_that_module():
    # a fresh interpreter, so each import is the first of its module
    modules = [f"{prefix}{info.name}"
               for prefix, path in (("oql.", SRC / "oql"),
                                    ("oql.syntax.", SRC / "oql" / "syntax"))
               for info in pkgutil.iter_modules([str(path)])]
    assert "oql.catalog" in modules and "oql.syntax.parser" in modules
    probe = "import sys\n" + "".join(
        f"import {name} as m\n"
        f"if m is not sys.modules[{name!r}]: print({name!r}, m)\n"
        for name in modules)
    assert _probe(probe) == ""


def test_importing_the_package_loads_no_module_and_no_numpy():
    # a fresh interpreter, since this one has imported every module
    probe = ("import sys, oql; print(sorted(m for m in sys.modules "
             "if m.startswith('oql.') or m.split('.')[0] == 'numpy'))")
    assert _probe(probe) == "[]\n"


def test_readme_layout_names_every_module():
    # the modules are the whole Python API, so the list must not drift
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Layout\n", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\S+)", block.split("src/oql/\n", 1)[1],
                        flags=re.MULTILINE)
    modules = [path.name for path in (SRC / "oql").glob("*.py")
               if not path.name.startswith("__")] + ["syntax/"]
    assert sorted(listed) == sorted(modules)


@pytest.mark.parametrize("package", [oql.syntax], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_one_error_class_per_stage():
    """No two error classes share a stage, so the stage a caller reads
    names the class. NoSolution is the one exception: chain.enrich
    catches it to exclude a record, so it stays a PricingError of its
    own."""
    classes, todo = [], [errors.OqlError]
    while todo:  # every subclass, at any depth
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    defined = {cls for cls in vars(errors).values() if isinstance(cls, type)}
    assert set(classes) == defined
    stages = {}
    for cls in classes[1:]:
        if cls is not errors.NoSolution:
            stages.setdefault(cls.stage, []).append(cls.__name__)
    assert {stage: names for stage, names in stages.items()
            if len(names) > 1} == {}
    assert errors.NoSolution.__bases__ == (errors.PricingError,)
    assert errors.NoSolution.stage == errors.PricingError.stage == "price"


def test_import_loads_no_scipy():
    # a fresh interpreter, since this one may have imported scipy for a test
    probe = ("import sys, oql, oql.cli, oql.chain, oql.pricing, oql.engine, "
             "oql.evalkit, oql.backtest; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _probe(probe) == "[]\n"


def test_backtester_module_loads_no_engine():
    # a fresh interpreter, since this one has imported the engine
    probe = ("import sys, oql.backtest; "
             "print('oql.engine' in sys.modules, 'oql.evalkit' in sys.modules)")
    assert _probe(probe) == "False False\n"


def test_package_and_front_end_commands_load_no_numpy():
    # a fresh interpreter, since this one has imported numpy
    probe = ("import io, sys, contextlib, oql; loaded = ['numpy' in sys.modules]\n"
             "from oql.cli import main\n"
             "for argv in (['parse', 'SELECT LONG_CALL FROM SPY'],\n"
             "             ['check', 'SELECT LONG_CALL FROM SPY'],\n"
             "             ['check', '--schemas']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = main(argv)\n"
             "    loaded.append((code, 'numpy' in sys.modules))\n"
             "print(loaded)")
    assert _probe(probe) == "[False, (0, False), (0, False), (0, False)]\n"


def test_readme_python_api_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    # one line per strategy: the ATM straddle's two legs and its debit
    lines = done.stdout.splitlines()
    assert lines and all(line.startswith("O:SPY") and len(line.split()) == 3
                         for line in lines)
