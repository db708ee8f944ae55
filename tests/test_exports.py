"""Every exported name resolves, so removing an API cannot leave a
dangling entry in a package's __all__; and importing the package pulls
in no runtime dependency beyond numpy."""

import os
import pathlib
import subprocess
import sys

import pytest

import oql
import oql.syntax

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("package", [oql, oql.syntax],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # a fresh interpreter, since this one may have imported scipy for a test
    probe = ("import sys, oql, oql.cli; "
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


def test_engine_names_load_on_first_use():
    probe = ("import sys, oql; before = 'oql.engine' in sys.modules; "
             "from oql import execute; "
             "print(before, execute is sys.modules['oql.engine'].execute)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False True\n"
