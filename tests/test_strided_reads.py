"""Analysis code reads file-table columns through the shared context.

A field of the structured file table is a strided view over 262-byte
rows, so indexing ``store.files`` directly walks the whole table on
every read. :meth:`AnalysisContext.column` copies each column once and
every entry point reads it from there (DESIGN.md §6). This check keeps
a new entry point from quietly going back to strided reads: only
``context.py`` (which owns the copies) and ``legacy.py`` (the frozen
seed oracle) may touch the table.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules that must read columns through ``store.analysis()``.
GUARDED = sorted(
    path
    for path in (SRC / "analysis").glob("*.py")
    if path.name not in ("context.py", "legacy.py")
) + [SRC / "optimize" / "staging.py", SRC / "optimize" / "aggregation.py"]


def _is_store_ref(node: ast.AST) -> bool:
    """``store`` or ``<anything>.store``."""
    return (isinstance(node, ast.Name) and node.id == "store") or (
        isinstance(node, ast.Attribute) and node.attr == "store"
    )


def direct_table_reads(source: str) -> list[int]:
    """Line numbers where ``source`` reads the file table directly.

    Flags any subscript of ``files`` or ``<x>.files``
    (``store.files["user_id"]``, ``files[idx]``) and any other use of
    ``store.files`` but its length (``f = store.files`` aliases the
    table for later reads).
    """
    tree = ast.parse(source)
    in_len = {
        id(call.args[0])
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "len"
        and call.args
    }
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            table = node.value
            if (isinstance(table, ast.Name) and table.id == "files") or (
                isinstance(table, ast.Attribute) and table.attr == "files"
            ):
                lines.add(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "files"
            and _is_store_ref(node.value)
            and id(node) not in in_len
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_guarded_modules_exist():
    assert len(GUARDED) > 10
    assert all(path.is_file() for path in GUARDED)


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: p.name)
def test_no_direct_file_table_reads(path):
    lines = direct_table_reads(path.read_text())
    assert not lines, (
        f"{path.name} reads store.files directly at lines {lines}; "
        "read columns through store.analysis().column/gather"
    )


def test_guard_catches_a_reintroduced_strided_read():
    source = (SRC / "analysis" / "users.py").read_text()
    assert 'ctx.column("user_id")' in source
    broken = source.replace('ctx.column("user_id")', 'store.files["user_id"]')
    assert direct_table_reads(broken)
    aliased = source.replace(
        'ctx.column("user_id")', 'files["user_id"]'
    ).replace("    jobs = store.jobs\n", "    jobs = store.jobs\n    files = store.files\n")
    assert len(direct_table_reads(aliased)) >= 2


def test_guard_allows_lengths_and_result_fields():
    assert direct_table_reads("n = len(store.files)\nk = self.files / 2\n") == []
