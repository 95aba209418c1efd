"""Rules that every module of the library keeps."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pdml"


def test_library_has_no_assert():
    """assert is stripped under python -O; an internal invariant raises a
    library error instead."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
