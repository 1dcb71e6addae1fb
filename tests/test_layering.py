"""The package's import graph is a fixed stack of layers.

A module may import only package modules of a lower layer, and only at
its top level: an import tucked inside a function hides a cycle that
the module graph would otherwise show.  The move-token text has one
writer, moves.Move.token: no other module holds a token format literal.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hurwitz"

# perms, words -> catalog, derive; systems -> moves -> orbits -> normalize -> cli
LAYER = {
    "__init__": 0, "perms": 0, "words": 0, "frobenius": 0,
    "catalog": 1, "derive": 1,
    "systems": 2,
    "moves": 3,
    "orbits": 4,
    "normalize": 5,
    "cli": 6,
    "__main__": 7,
}

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# the printf formats of braid, push, retype and rewrite tokens
TOKEN_FORMATS = ("B%d", "P%s%d", "R%d:", "W%d-%d:")


def package_imports(tree: ast.Module):
    """(node, imported package module) for every import of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.split(".")[0] == "hurwitz":
                    parts = node.module.split(".")[1:]
                    names = parts[:1] or [alias.name for alias in node.names]
                else:
                    continue
            elif node.module:
                names = [node.module.split(".")[0]]
            else:  # from . import x
                names = [alias.name for alias in node.names]
            for name in names:
                yield node, name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "hurwitz" and len(parts) > 1:
                    yield node, parts[1]


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_top_level_and_go_down(module):
    tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
    top_level = {id(node) for node in tree.body}
    for node, imported in package_imports(tree):
        assert id(node) in top_level, \
            "%s line %d imports %s below the top level" % (module, node.lineno, imported)
        assert LAYER[imported] < LAYER[module], \
            "%s (layer %d) imports %s (layer %d) at line %d" % (
                module, LAYER[module], imported, LAYER[imported], node.lineno)


def test_checker_sees_function_level_and_upward_imports():
    tree = ast.parse("from .perms import compose\n"
                     "def f():\n"
                     "    from .normalize import canonicalize\n")
    found = [(node.lineno, name) for node, name in package_imports(tree)]
    assert found == [(1, "perms"), (3, "normalize")]
    assert [node.lineno for node in tree.body if isinstance(node, ast.ImportFrom)] == [1]


def token_formats(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, format) for every token format inside a string constant."""
    return [(node.lineno, fmt) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for fmt in TOKEN_FORMATS if fmt in node.value]


def test_only_moves_writes_token_text():
    found = {module: token_formats(ast.parse((PACKAGE / (module + ".py")).read_text(
        encoding="utf-8"))) for module in MODULES}
    assert {module for module, hits in found.items() if hits} == {"moves"}, found
    assert {fmt for _, fmt in found["moves"]} == set(TOKEN_FORMATS)
