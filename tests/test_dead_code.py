"""A lint of the package: no top-level function or class is dead in production."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ebb"


def unreferenced_definitions(package):
    """module.name of each top-level function or class of the package's
    modules that no code of the package reads outside its own definition.
    A read is a bare name or an attribute of that name; an import, a
    docstring or a comment is not one, and neither are the tests. Reads
    are matched by name alone, so a dead definition that shares its name
    with one read elsewhere goes unseen."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    defs = {
        node: f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    owner = {inner: node for node in defs for inner in ast.walk(node)}
    # The top-level definitions that read each name; None for module code.
    readers = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                readers.setdefault(name, set()).add(owner.get(node))
    return sorted(qualified for node, qualified in defs.items() if readers.get(node.name, set()) <= {node})


def test_no_top_level_definition_is_dead_in_production(tmp_path):
    # The lint itself, on two files: read only from a docstring, from its
    # own body, or through an unused import, a definition is dead; read from
    # another definition, it is not.
    (tmp_path / "a.py").write_text(
        '"""dead() and live() are documented here."""\n'
        "def dead(n):\n"
        "    return dead(n - 1) if n else 0\n"
        "def live():\n"
        "    return 1\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import dead, live\n"
        "class Unused:\n"
        "    x = live()\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a.dead", "b.Unused"]
    assert unreferenced_definitions(PACKAGE) == []
