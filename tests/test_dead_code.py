"""Static checks on the package source with ``ast``: nothing imported or
defined at module level goes unused, and every name the package re-exports is
reached from the command line or named in the code of README's library sketch,
which runs."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ck_spectra"
TREES = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(SRC.glob("*.py"))}
SECTION = (ROOT / "README.md").read_text().split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
(SKETCH,) = re.findall(r"```python\n(.*?)```", SECTION, re.S)  # the code only, not the prose around it


def _referenced(node: ast.AST) -> list[str]:
    """Every name read inside ``node``: bare names, attributes and imported names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out += [alias.name for alias in sub.names]
    return out


@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])
def test_no_unused_module_level_import(name):
    tree = TREES[name]
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [bound for bound in imported if bound not in used] == []


def _defined(node: ast.AST) -> list[str]:
    """The names a module-level statement defines: a function, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_every_private_top_level_name_is_used():
    unused = []
    for name, tree in TREES.items():
        for node in tree.body:
            for private in (d for d in _defined(node) if d.startswith("_") and not d.startswith("__")):
                # uses anywhere in src/, less those inside its own definition
                uses = sum(_referenced(t).count(private) for t in TREES.values())
                if uses - _referenced(node).count(private) == 0:
                    unused.append(f"{name}: {private}")
    assert unused == []


def _reached_from_main() -> set[str]:
    """The module-level names of the package that ``cli.main`` reaches.

    A reached definition reaches every name read inside it, matched by name
    across all modules; the handlers of ``cli._COMMANDS``, which ``cli``
    looks up as strings, are reached with ``main``.
    """
    definitions = {}
    for tree in TREES.values():
        for node in tree.body:
            for name in _defined(node):
                definitions.setdefault(name, []).append(node)
    (table,) = definitions["_COMMANDS"]
    handlers = [row.elts[1].value for row in table.value.elts if row.elts[1].value]
    reached, todo = set(), ["main", *handlers]
    while todo:
        name = todo.pop()
        if name not in reached and name in definitions:
            reached.add(name)
            todo += [used for node in definitions[name] for used in _referenced(node)]
    return reached


def test_every_reexport_is_reached_from_the_cli_or_named_in_the_sketch():
    exported = [
        alias.asname or alias.name
        for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    named = set(re.findall(r"\w+", SKETCH))
    reached = _reached_from_main()
    assert [name for name in exported if name not in reached and name not in named] == []


def test_the_readme_sketch_runs():
    exec(compile(SKETCH, "README.md", "exec"), {})
