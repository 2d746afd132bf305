"""Package-wide structural checks on the source files."""

import ast
from pathlib import Path

import germtrace

SOURCES = sorted(Path(germtrace.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"mealy.py", "convalg.py", "cli.py"}


def test_no_global_statements():
    """Caps and settings are scoped (context variables, arguments), never
    process-global variables rebound through `global`."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []
