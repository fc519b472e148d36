"""Source-level checks on the package."""

import ast
import pathlib

import mdsforge


def test_no_assert_statements():
    # value checks must survive `python -O`, which strips assert statements
    found = []
    for path in sorted(pathlib.Path(mdsforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _trees(directory):
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(pathlib.Path(directory).glob("*.py"))]


def test_every_definition_is_referenced():
    # no functions that nothing calls: every non-dunder function or class
    # defined in the package must be used by name, or as an attribute,
    # somewhere in the package or its tests
    src = _trees(pathlib.Path(mdsforge.__file__).parent)
    used = set()
    for _, tree in src + _trees(pathlib.Path(__file__).parent):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in src for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert not unused, unused
