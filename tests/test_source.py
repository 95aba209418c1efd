"""Rules that every module of the library keeps."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_library_has_no_global():
    """No module-level state is set at run time: every cap is a constant
    or derived from the input."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert found == []


def _loaded_after(module: str) -> list[str]:
    """The pdml modules that importing module loads, in a fresh process."""
    code = (f"import sys, {module}\n"
            "print(*sorted(m for m in sys.modules if m.startswith('pdml')))")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    return result.stdout.split()


def test_import_loads_only_what_a_module_uses():
    """pdml/__init__ imports nothing, so the p-set layer comes without the
    torus, construction and pexp layers; the CLI and the text forms import
    a layer only in the command or parser that runs it."""
    assert _loaded_after("pdml.psets") == [
        "pdml", "pdml.errors", "pdml.exact", "pdml.psets"]
    assert _loaded_after("pdml.cli") == [
        "pdml", "pdml.cli", "pdml.errors", "pdml.exact", "pdml.psets",
        "pdml.serial"]
