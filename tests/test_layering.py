"""The matrix layout is known to `linalg` alone: every other module builds
k-level maps through the keyed assembler (`complexes.keyed_blocks`) and
reads them through `RationalMatrix.sparse_columns`, so a change of storage
stays inside `linalg.py`.  This keeps the layout behind `linalg` the way
test_traced_names keeps the traced names resolvable.  In the same way the
action layout of an explicit module (generators over one shared base table)
is known to `modules.py` alone: `ExplicitModule.act` is the one reader of
its table."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dgtrace"

# the dense grid of a RationalMatrix, and the boundary grid views of
# SemiFreeModule / ModuleMap built from the sparse columns
LAYOUT_ATTRIBUTES = {"entries", "twist"}


def _leaks(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES
                and isinstance(node.ctx, ast.Load)):
            yield f"{path.name}:{node.lineno}: reads .{node.attr}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "RationalMatrix":
                yield f"{path.name}:{node.lineno}: calls RationalMatrix(...)"


def test_only_linalg_knows_the_matrix_layout():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert modules
    leaks = [leak for path in modules for leak in _leaks(path)]
    assert not leaks, leaks


def _table_reads(path: Path):
    """(file, innermost enclosing function, line) of every load of `.table`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for fn in ast.walk(tree):  # breadth first: inner functions overwrite
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "table"
                and isinstance(node.ctx, ast.Load)):
            yield path.name, owner.get(node), node.lineno


def test_only_act_reads_an_action_table():
    reads = [read for path in sorted(SRC.glob("*.py")) for read in _table_reads(path)]
    assert reads
    leaks = [f"{name}:{line}: {fn} reads .table" for name, fn, line in reads
             if (name, fn) != ("modules.py", "act")]
    assert not leaks, leaks
