"""Static checks on the package source with ``ast``: nothing imported or
defined at module level goes unused."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ck_spectra"
TREES = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(SRC.glob("*.py"))}


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


def test_every_private_top_level_name_is_used():
    unused = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in (d for d in defined if d.startswith("_") and not d.startswith("__")):
                # uses anywhere in src/, less those inside its own definition
                uses = sum(_referenced(t).count(private) for t in TREES.values())
                if uses - _referenced(node).count(private) == 0:
                    unused.append(f"{name}: {private}")
    assert unused == []
