"""The package metadata ``setup.py`` reads from ``pyproject.toml``."""

import subprocess
import sys
import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_reports_name_and_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == ["repro", repro.__version__]


def test_pyproject_declares_numpy_and_the_src_layout():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert project["project"]["dependencies"] == ["numpy"]
    setuptools = project["tool"]["setuptools"]
    assert setuptools["dynamic"]["version"] == {"attr": "repro.__version__"}
    assert setuptools["packages"]["find"]["where"] == ["src"]
