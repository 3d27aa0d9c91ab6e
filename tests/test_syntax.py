"""Every Python file of the project parses as the oldest Python that
pyproject.toml's requires-python admits, so the interpreters the CI matrix
runs and this one accept the same syntax."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_the_oldest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (minor,) = re.findall(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M)
    files = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, int(minor)))
