import ast
import os
import pathlib
import subprocess
import sys

import aprfm


def test_every_export_resolves():
    missing = [name for name in aprfm.__all__ if not hasattr(aprfm, name)]
    assert not missing


def test_every_public_definition_is_used():
    """Each public module-level function and class of the package is
    referenced somewhere in it besides its own definition and the
    package's ``__init__.py``, and each public upper-case module-level
    constant is read somewhere in it; an API that only tests call is dead
    code."""
    package = pathlib.Path(aprfm.__file__).parent
    defined, constants, used, read = {}, {}, set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined[node.name] = path.name
            elif isinstance(node, ast.Assign):  # ``A, B = ...`` too
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id.isupper() \
                                and not name.id.startswith("_"):
                            constants[name.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                used.add(name)
                if isinstance(node.ctx, ast.Load):
                    read.add(name)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used)
    unused += sorted(f"{module}:{name}" for name, module in constants.items()
                     if name not in read)
    assert constants and not unused


def test_cli_import_leaves_unused_scipy_out():
    """A fresh ``import aprfm.cli`` loads none of the scipy subpackages the
    package does not call: it uses only scipy.linalg and scipy.sparse."""
    src = str(pathlib.Path(aprfm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, aprfm.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    unused = {"scipy.interpolate", "scipy.optimize", "scipy.special",
              "scipy.spatial", "scipy.fft"}
    assert "aprfm.cli" in loaded
    assert not unused & set(loaded)
