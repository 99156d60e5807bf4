"""The package version has one source: ``repro.version.__version__``.

``pyproject.toml`` must declare the version ``dynamic`` and read it from
that attribute, never pin a static copy that can drift.  Parsed with
plain string handling (no ``tomllib``: Python 3.10 lacks it).
"""

import re
from pathlib import Path

from repro.version import __version__

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _table(text: str, name: str) -> list[str]:
    """The non-blank lines of TOML table ``[name]`` (up to the next header)."""
    lines = []
    inside = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            inside = stripped == f"[{name}]"
            continue
        if inside and stripped and not stripped.startswith("#"):
            lines.append(stripped)
    return lines


def test_pyproject_has_no_static_version():
    project = _table(PYPROJECT.read_text(), "project")
    assert not [line for line in project if re.match(r"version\s*=", line)]
    dynamic = [line for line in project if re.match(r"dynamic\s*=", line)]
    assert dynamic and '"version"' in dynamic[0]


def test_pyproject_reads_version_from_the_package():
    dynamic = _table(PYPROJECT.read_text(), "tool.setuptools.dynamic")
    assert any(
        re.fullmatch(
            r'version\s*=\s*\{\s*attr\s*=\s*"repro\.version\.__version__"\s*\}',
            line,
        )
        for line in dynamic
    )


def test_version_string_is_semantic():
    assert re.fullmatch(r"\d+\.\d+\.\d+", __version__)
