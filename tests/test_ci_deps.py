"""CI installs what the package declares: every ``pip install`` line of the
workflow names each ``[project].dependencies`` entry of ``pyproject.toml``
(``repro.data.synthetic`` imports ``scipy.ndimage`` at import time, and
``tests/conftest.py`` reaches it)."""

import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_ci_install_line_names_every_declared_dependency():
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    assert names
    lines = [ln.split("pip install", 1)[1] for ln in
             (ROOT / ".github/workflows/ci.yml").read_text().splitlines()
             if "pip install" in ln]
    assert lines
    for line in lines:
        missing = names - {w.lower() for w in line.split()}
        assert not missing, f"pip install{line} misses {sorted(missing)}"
