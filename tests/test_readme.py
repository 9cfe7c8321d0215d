"""The library entry points the README documents stay importable and public."""

import ast
import re
from pathlib import Path

import arthurcalc

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_points_block() -> str:
    section = README.read_text().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_documented_entry_points_are_exported():
    block = entry_points_block()
    exec(compile(block, "README.md", "exec"), {})
    (statement,) = ast.parse(block).body
    assert isinstance(statement, ast.ImportFrom) and statement.module == "arthurcalc"
    names = [alias.name for alias in statement.names]
    assert "StandardModuleDatum" in names
    assert sorted(set(names) - set(arthurcalc.__all__)) == []


def test_named_scripts_exist():
    named = set(re.findall(r"scripts/[\w.-]+\.py", README.read_text()))
    assert named
    assert sorted(name for name in named if not (README.parent / name).is_file()) == []
