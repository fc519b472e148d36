"""Source-level checks on the package."""

import ast
import pathlib

import mdsforge
from mdsforge import rings


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


def test_towers_do_no_fraction_arithmetic():
    # QuadValue and QuarticValue compute on integer numerators over one
    # denominator; a Fraction is built only where a coordinate is read
    tree = ast.parse(pathlib.Path(rings.__file__).read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name in ("QuadValue", "QuarticValue")]
    assert len(classes) == 2
    found = [f"{cls.name}.{fn.name}:{node.lineno}"
             for cls in classes for fn in cls.body
             if isinstance(fn, ast.FunctionDef) and fn.name not in ("a", "b", "coordinates")
             for node in ast.walk(fn)
             if isinstance(node, ast.Name) and node.id in ("Fraction", "_fr")]
    assert not found, found
