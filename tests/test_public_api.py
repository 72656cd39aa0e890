"""Every public name and every definition is used: a name in a module's
``__all__``, and every top-level function and class, private ones
included, must be referenced somewhere in the package or the benchmark
outside its own definition, or be one of the references kept for the
tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vkrew"
BENCH = ROOT / "perfbench"

# Readable references that the fast paths are checked against.
KEPT = {"free_labels", "free_labels_bruteforce", "toggle", "bender_knuth",
        "promote_word_layerwise"}


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def definitions(tree):
    """The names of the top-level functions and classes."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def references(tree, with_strings):
    """(name of the enclosing top-level definition or None, name read)
    for every Name and Attribute in ``tree``, and with ``with_strings``
    every dotted part of a string constant."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif with_strings and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                for part in node.value.split("."):
                    yield owner, part


def unused_names(names_of=public_names):
    """``module.name`` for each name ``names_of`` finds in a package
    module that nothing outside the name's own definition reads."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    used = {}  # name read -> the (file, owner) pairs that read it
    for path, tree in trees.items():
        for owner, name in references(tree, path.parent == BENCH):
            used.setdefault(name, set()).add((path, owner))
    return sorted(
        f"{path.stem}.{name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for name in names_of(tree)
        if not used.get(name, set()) - {(path, name)})


def test_every_public_name_has_a_caller():
    assert [name for name in unused_names()
            if name.split(".")[1] not in KEPT] == []


def test_every_kept_reference_is_public_and_otherwise_unused():
    assert {name.split(".")[1] for name in unused_names()} == KEPT


def test_every_definition_has_a_reader():
    # private helpers too, so a helper left without a caller is found
    unread = {name.split(".")[1] for name in unused_names(definitions)}
    assert unread == KEPT


def test_no_module_state_is_rebound():
    # steps are pure: nothing in the package rebinds a module-level name
    # from inside a function
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []
