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


def test_no_numpy_import():
    # the package depends on mpmath alone
    found = []
    for path in sorted(pathlib.Path(mdsforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert not found, found


def _trees(directory):
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(pathlib.Path(directory).glob("*.py"))]


# definitions in the package that only the tests call: independent
# re-derivations that the tests compare the package's routes against
ORACLES = ("explicit_center_t4_series", "square_decomposition", "kronecker_factored",
           "coeff_sums_direct", "eval_l", "check_weil", "per_prime_residue_identity",
           "eval_quad", "to_quad", "cg_average_symbolic")


def _names_used(trees):
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _definitions(trees):
    return [(f"{path.name}:{node.lineno}", node.name)
            for path, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_is_referenced():
    # no functions that nothing calls: every non-dunder function or class
    # defined in the package must be used by name, or as an attribute,
    # somewhere in the package, or be a named oracle of the tests
    src = _trees(pathlib.Path(mdsforge.__file__).parent)
    in_src = _names_used(src)
    in_tests = _names_used(_trees(pathlib.Path(__file__).parent))
    unused = [f"{where} {name}" for where, name in _definitions(src)
              if name not in in_src and name not in ORACLES]
    assert not unused, unused
    # every oracle is defined in the package, called by the tests, and by
    # nothing else in the package
    defined = {name for _, name in _definitions(src)}
    stale = [name for name in ORACLES
             if name not in defined or name in in_src or name not in in_tests]
    assert not stale, stale


def test_one_quadratic_symbol_path():
    # a symbol at a prime comes from lseries.prime_symbol alone; fq.kronecker
    # is otherwise used for composite moduli (mds.chi) and by the
    # enumeration oracle
    users = set()
    for path, tree in _trees(pathlib.Path(mdsforge.__file__).parent):
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = node.name if isinstance(node, ast.alias) else getattr(
                node, "attr", getattr(node, "id", None))
            if name != "kronecker":
                continue
            inner = max((fn for fn in functions if fn.lineno <= node.lineno <= fn.end_lineno),
                        key=lambda fn: fn.lineno, default=None)
            users.add(f"{path.stem}.{inner.name if inner else '<module>'}")
    assert users == {"lseries.prime_symbol", "mds.chi", "lseries.coeff_sums_direct"}, users


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
