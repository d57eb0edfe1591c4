"""Promises about the package: those pyproject.toml makes, and what its sources may not use."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_under_the_oldest_supported_python():
    # ast parses with the older grammar, so syntax newer than it (except*,
    # type-parameter lists, ...) fails here without that interpreter
    version = _oldest_python()
    sources = sorted((ROOT / "src" / "dpv").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_sources_have_no_assert_statement():
    # python -O strips assert statements, so none may guard a result
    for path in sorted((ROOT / "src" / "dpv").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"
