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
