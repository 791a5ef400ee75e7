"""Layering: only ``neighbors.py`` knows how a ranking lays out its
prefixes.  Every other module reads a ``Ranking`` through ``len``,
``head``, ``places`` and ``take``, so the layout can change in one file."""

import ast
from pathlib import Path

import nbknn

LAYOUT_NAMES = {"head", "take_rows", "prefix_rows", "label_rows"}


def test_only_neighbors_reads_the_prefix_layout():
    sources = sorted(Path(nbknn.__file__).parent.glob("*.py"))
    assert sources
    leaks = []
    for path in sources:
        if path.name == "neighbors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in {"test", "take_rows", "prefix_rows", "label_rows"}:
                leaks.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                leaks += [f"{path.name}:{node.lineno} imports {alias.name}" for alias in node.names
                          if alias.name in LAYOUT_NAMES]
    assert not leaks, leaks
