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
    # oql/__init__ imports the engine for the public API, so the probe
    # stands in a bare package for `oql` and sees what oql.backtest itself
    # pulls in
    probe = ("import sys, types; pkg = types.ModuleType('oql'); "
             f"pkg.__path__ = [{str(SRC / 'oql')!r}]; sys.modules['oql'] = pkg; "
             "import oql.backtest; print('oql.engine' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
