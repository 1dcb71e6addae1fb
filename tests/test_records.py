"""The package's records are typing.NamedTuple classes.

A system, a move, a certificate, a census result and the rest are
immutable named tuples: records with equal fields are equal and hash
equal, a field cannot be assigned, and the repr names every field.  The
two constructors that check their arguments, FreeContext and EndoMap,
raise the same ValueError as before, and EndoMap still computes its
hash once.  No package module imports dataclasses, so a fresh
interpreter importing hurwitz.cli loads neither it nor the
source-inspection modules it would pull in.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

from hurwitz.catalog import catalog_hash
from hurwitz.moves import Certificate, Move
from hurwitz.systems import HurwitzSystem, deserialize, serialize
from hurwitz.words import EndoMap, FreeContext, identity_endo

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hurwitz"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# dataclasses and the modules its import pulls in that nothing else needs
STARTUP_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize")

SYSTEM = HurwitzSystem(3, ((2, 3, 1), (3, 1, 2)), ((2, 1, 3), (2, 1, 3), (1, 3, 2), (1, 3, 2)))
LINE = serialize(SYSTEM)


# ---------------------------------------------------------------------------
# start-up

def test_importing_the_cli_loads_no_dataclasses_machinery():
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % str(PACKAGE.parent),
        "before = set(sys.modules)",
        "import hurwitz.cli",
        "print(' '.join(sorted(set(sys.modules) - before)))",
    ])
    added = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, timeout=60).stdout.split())
    assert "hurwitz.cli" in added
    assert added.isdisjoint(STARTUP_FREE), sorted(added.intersection(STARTUP_FREE))


def dataclasses_imports(tree: ast.Module, module: str) -> list[str]:
    """module.line for every import of dataclasses, plain or from."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append("%s.line %d" % (module, node.lineno))
    return found


def test_no_module_imports_dataclasses():
    found = [name for module in MODULES
             for name in dataclasses_imports(ast.parse((PACKAGE / (module + ".py")).read_text(
                 encoding="utf-8")), module)]
    assert found == []


def test_checker_sees_every_dataclasses_import():
    tree = ast.parse("import os\n"
                     "import dataclasses\n"
                     "from dataclasses import dataclass, replace\n"
                     "import json, dataclasses as dc\n"
                     "from typing import NamedTuple\n"
                     "from . import dataclasses_like\n")
    assert dataclasses_imports(tree, "m") == ["m.line 2", "m.line 3", "m.line 4"]


# ---------------------------------------------------------------------------
# the record contract

def test_free_context_rejects_a_negative_count():
    for h, w in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=r"^h and w must be nonnegative$"):
            FreeContext(h, w)


def test_endo_map_rejects_a_wrong_image_count():
    with pytest.raises(ValueError, match=r"^need 2 generator images, got 1$"):
        EndoMap(FreeContext(0, 2), ((2,),))


@pytest.mark.parametrize("record,field", [
    (SYSTEM, "d"),
    (Move("braid", 1), "j"),
    (Certificate(LINE, "", LINE, "0" * 64), "moves"),
])
def test_a_field_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_records_with_equal_fields_are_equal_and_hash_equal():
    pairs = [
        (deserialize(LINE), SYSTEM),
        (Move("push", 2, side="a", inverse=True), Move("push", 2, "a", True)),
        (Certificate(LINE, "B1", LINE, catalog_hash()),
         Certificate(LINE, "B1", LINE, catalog_hash())),
        (FreeContext(1, 2), FreeContext(h=1, w=2)),
        (identity_endo(FreeContext(1, 2)), identity_endo(FreeContext(1, 2))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), a


def test_endo_map_hashes_once():
    e = identity_endo(FreeContext(1, 2))
    assert "_hash" not in vars(e)
    first = hash(e)
    assert vars(e)["_hash"] == first == hash(e)


def test_reprs_name_every_field():
    assert repr(FreeContext(1, 2)) == "FreeContext(h=1, w=2)"
    assert repr(Move("braid", 3)) == ("Move(kind='braid', j=3, side='', inverse=False, "
                                      "perms=(), hi=0)")
    assert repr(HurwitzSystem(2, (), ((2, 1), (2, 1)))) == (
        "HurwitzSystem(d=2, handles=(), transpositions=((2, 1), (2, 1)))")
