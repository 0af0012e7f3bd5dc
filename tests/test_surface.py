"""Keep test-only code out of the library: every public top-level function
or class of kq2, and every public method or property of such a class, is
used somewhere in kq2 itself (called, read as an attribute, subclassed or
imported), apart from a few names kept on purpose as library entry points.
A re-export in ``__init__.py`` is not a use."""

import ast
from pathlib import Path

import kq2

SRC = Path(kq2.__file__).resolve().parent

# name -> why it stays without a caller in the package
ENTRY_POINTS = {
    "fault_injection": "the switch the verification suite's fault-injection tests drive",
    "fault_sites": "lists every row that fault_injection can perturb",
    "is_two_regular": "the 2-regularity criterion's library entry point; the benchmark's oracle sweep calls it",
    "parse_group": "reads the canonical group grammar; the round-trip tests use it, and rows stored as "
                   "formula text (ROADMAP item 6) build on it",
    "quadratic_data": "validated numtheory entry point; the README documents its bound",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    """module.name of each public top-level function and class, and
    module.Class.name of each public method and property of such a class."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{module}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    found.update((f"{module}.{node.name}.{sub.name}", sub.name) for sub in node.body
                                 if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))
    return found


def _referenced_names(trees):
    names = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_is_used_in_the_package():
    trees = _trees()
    used = _referenced_names(trees)
    unused = {qual for qual, name in _public_definitions(trees).items() if name not in used}
    assert unused == {qual for qual, name in _public_definitions(trees).items() if name in ENTRY_POINTS}


def test_every_entry_point_is_still_defined():
    defined = set(_public_definitions(_trees()).values())
    assert set(ENTRY_POINTS) <= defined
