"""The example scripts under scripts/: each runs with its defaults in a fresh
interpreter, on the same chenlie sources as this test run, exits 0 and
prints something.  This catches a script that imports a removed name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chenlie

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_the_scripts_directory_is_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_with_its_defaults(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(chenlie.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{script.name} printed nothing"
