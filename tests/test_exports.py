"""Every exported name resolves, so removing an API cannot leave a
dangling entry in a package's __all__; importing the package, and the
parse and check commands, load no numpy (scipy is never loaded); and the
README's Python API example runs as written."""

import os
import pathlib
import subprocess
import sys

import pytest

import oql
import oql.syntax

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.mark.parametrize("package", [oql, oql.syntax],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # a fresh interpreter, since this one may have imported scipy for a test
    probe = ("import sys, oql, oql.cli, oql.chain, oql.pricing, oql.engine, "
             "oql.evalkit, oql.backtest; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_backtester_module_loads_no_engine():
    # a fresh interpreter, since this one has imported the engine
    probe = ("import sys, oql.backtest; "
             "print('oql.engine' in sys.modules, 'oql.evalkit' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False False\n"


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
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[False, (0, False), (0, False), (0, False)]\n"


def test_engine_names_load_on_first_use():
    probe = ("import sys, oql; before = 'oql.engine' in sys.modules; "
             "from oql import execute; "
             "print(before, execute is sys.modules['oql.engine'].execute)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False True\n"


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
