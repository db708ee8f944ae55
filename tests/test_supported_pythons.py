"""The query-text gates under every other CPython the package supports.

tests/test_query_corpus.py (the query-text byte gate) and
tests/lexer_oracle.py (the lexer-versus-oracle differential) need neither
pytest nor numpy, so they run on a bare interpreter. These tests find the
other CPythons on PATH or under pyenv that pyproject.toml's
requires-python admits, run each gate under each, and print which ran.
They skip when there is none.
"""

import glob
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_PROBE = ("import platform, sys; "
          "print(platform.python_implementation(), *sys.version_info[:3])")


def _minimum() -> tuple[int, ...]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    spec = re.search(r'^requires-python = ">=([0-9.]+)"$', text, re.M).group(1)
    return tuple(map(int, spec.split(".")))


def other_pythons() -> dict[tuple[int, ...], str]:
    """version -> path of each supported CPython other than this one."""
    least = _minimum()
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    paths = sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")))
    paths += filter(None, (shutil.which(f"python3.{minor}")
                           for minor in range(least[1], 20)))
    found = {}
    for path in paths:
        try:
            done = subprocess.run([path, "-c", _PROBE], capture_output=True,
                                  text=True, timeout=30)
        except OSError:  # not runnable
            continue
        if done.returncode != 0:  # e.g. a pyenv shim for an inactive version
            continue
        name, *version = done.stdout.split()
        version = tuple(map(int, version))
        if name == "CPython" and version >= least and version != sys.version_info[:3]:
            found.setdefault(version, path)
    return found


def _run_under_other_pythons(gate: str, capsys) -> None:
    """Run tests/<gate> under each other supported CPython; all must pass."""
    found = other_pythons()
    if not found:
        pytest.skip(f"no CPython >= {_minimum()} other than "
                    f"{platform.python_version()} found")
    failed = []
    for version, path in sorted(found.items()):
        done = subprocess.run([path, str(ROOT / "tests" / gate)], cwd=ROOT,
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        with capsys.disabled():
            print(f"\n{gate} under {path}: {done.stdout.strip() or 'failed'}")
        if done.returncode != 0:
            failed.append((path, done.stderr[-2000:]))
    assert failed == []


def test_query_corpus_holds_under_other_pythons(capsys):
    _run_under_other_pythons("test_query_corpus.py", capsys)


def test_lexer_matches_its_oracle_under_other_pythons(capsys):
    _run_under_other_pythons("lexer_oracle.py", capsys)
