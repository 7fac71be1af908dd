import ast
import pathlib

import aprfm


def test_every_export_resolves():
    missing = [name for name in aprfm.__all__ if not hasattr(aprfm, name)]
    assert not missing


def test_every_public_definition_is_used():
    """Each public module-level function and class of the package is
    referenced somewhere in it besides its own definition and the
    package's ``__init__.py``; an API that only tests call is dead code."""
    package = pathlib.Path(aprfm.__file__).parent
    defined, used = {}, set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used)
    assert not unused
