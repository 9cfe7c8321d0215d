"""Every public name of the package has a caller outside the tests.

A public module-level name in `src/arthurcalc/*.py`, or a public method or
property of a package class, must be used by package code other than its
own definition and `__init__`'s re-export, or named in `bench/*.py`,
`scripts/*.py` or a code span of the README's `## Library entry points`
section, which documents the library API. Code that only the tests use
belongs in `tests/`. There is no allowlist.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arthurcalc"


def public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, defining node) for each public module-level def,
    class and assigned name, and each public method or property of a
    public class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and public(node.name):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and public(item.name)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name) and public(t.id)]
    return found


def references(tree: ast.AST, defined: set[ast.AST]) -> list[tuple[str, tuple[ast.AST, ...]]]:
    """(identifier, enclosing definitions) for each name or attribute the
    tree reads; the enclosing definitions are the nodes of `defined` that
    contain the read."""
    found = []
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if node in defined:
            enclosing = (*enclosing, node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, enclosing))
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return found


def script_names(tree: ast.Module) -> set[str]:
    """Identifiers a script reads or imports, and the last part of each
    dotted name in its string literals (how `bench/` names what it
    traces, e.g. "roots.dominantize")."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\.(\w+)", node.value))
    return names


def library_names(readme: str) -> set[str]:
    """Identifiers in the fenced blocks and inline code spans of the
    README's `## Library entry points` section, up to the next `## `
    heading. A mention anywhere else in the README (the Tests paragraph,
    say) names no caller, and prose is left out, so an English word does not
    pass for a method name."""
    section = readme.split("\n## Library entry points\n", 1)[1]
    section = re.split(r"^## ", section, maxsplit=1, flags=re.M)[0]
    fenced = re.findall(r"```.*?```", section, re.S)
    spans = re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", section, flags=re.S))
    return set(re.findall(r"\w+", "\n".join(fenced + spans)))


def unused_names(modules: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """Public names of the modules that no live code reads and that are not
    in `outside`. A read inside the name's own definition does not count,
    nor does a read inside a definition found unused, so a name that only
    dead code uses is dead too."""
    defs = [(module, *d) for module, tree in modules.items() for d in definitions(tree)]
    defined = {node for _, _, node in defs}
    reads: dict[str, list[tuple[ast.AST, ...]]] = {}
    for tree in modules.values():
        for name, enclosing in references(tree, defined):
            reads.setdefault(name, []).append(enclosing)
    candidates = [
        (f"{module}.{qualified}", reads.get(qualified.rsplit(".", 1)[-1], []), node)
        for module, qualified, node in defs
        if qualified.rsplit(".", 1)[-1] not in outside
    ]
    dead: set[ast.AST] = set()
    while True:
        grown = {
            node
            for _, name_reads, node in candidates
            if not any(node not in enclosing and dead.isdisjoint(enclosing) for enclosing in name_reads)
        }
        if grown == dead:
            return [name for name, _, node in candidates if node in dead]
        dead = grown


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = library_names((ROOT / "README.md").read_text())
    for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]:
        outside |= script_names(ast.parse(path.read_text()))
    assert unused_names(modules, outside) == []


def test_the_scan_skips_own_reads_and_reads_by_dead_code():
    tree = ast.parse(
        "X = 1\n"
        "Y = 2\n"
        "class K:\n"
        "    def m(self):\n"
        "        return self.m()\n"
        "    def n(self):\n"
        "        return Y\n"
        "def f():\n"
        "    return X\n"
        "def g():\n"
        "    return K().n()\n"
    )
    assert [name for name, _ in definitions(tree)] == ["X", "Y", "K", "K.m", "K.n", "f", "g"]
    assert unused_names({"mod": tree}, {"g"}) == ["mod.X", "mod.K.m", "mod.f"]
    assert unused_names({"mod": tree}, {"g", "f", "m"}) == []


def test_only_the_library_section_of_the_readme_names_a_caller():
    tree = ast.parse("def documented():\n    pass\n")
    readme = (
        "# pkg\n\n"
        "## Tests\n\nThe oracle checks `documented` against a slow route.\n\n"
        "## Library entry points\n\n```python\nfrom pkg import other\n```\n\n"
        "The documented API is listed above.\n\n"
        "## Later\n\n`documented(x)` again.\n"
    )
    assert unused_names({"mod": tree}, library_names(readme)) == ["mod.documented"]
    readme = readme.replace("is listed above", "includes `documented(x)`")
    assert unused_names({"mod": tree}, library_names(readme)) == []
