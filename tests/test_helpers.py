"""Every oracle and builder in `helpers.py` has a user: an oracle that no
test imports any longer is deleted, not kept beside the one that replaced it."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def public_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_public_helper_is_imported_by_a_test_module():
    imported = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "helpers":
                imported.update(alias.name for alias in node.names)
    defined = public_names(ast.parse((TESTS / "helpers.py").read_text(encoding="utf-8")))
    assert defined, "helpers.py defines no public name"
    assert sorted(defined - imported) == []
