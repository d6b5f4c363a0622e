"""The public surface of the package and what its modules import."""

import ast
from pathlib import Path

import echtk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "echtk"
TEST_ONLY = {"pytest", "hypothesis", "tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}


def test_every_exported_name_resolves_once():
    assert len(echtk.__all__) == len(set(echtk.__all__))
    assert [name for name in echtk.__all__ if not hasattr(echtk, name)] == []


def test_the_library_imports_nothing_from_the_tests():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {m}" for m in modules if m.split(".")[0] in TEST_ONLY]
    assert found == []
