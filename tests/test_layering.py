"""The matrix layout is known to `linalg` alone: every other module builds
k-level maps through the keyed assembler (`complexes.column_blocks`, by way
of `keyed_blocks` or a realization's `carrier`) and reads them through
`RationalMatrix.sparse_columns`, and the one other entry
point, `solved_kernel(rows, ncols)`, takes plain {column: rational} rows,
puts them in stored form itself and returns the kernel in solved form (the
free columns, and each pivot as a combination of them), so a change of
storage stays inside `linalg.py`, and `_echelon`, the one elimination
routine, is called there alone.  This keeps the layout behind `linalg` the
way test_traced_names keeps the traced names resolvable.  In the same way the
action layout of an explicit module (generators over one shared base table)
is known to `modules.py` alone: `ExplicitModule.act` is the one reader of
its table.  And `complexes.is_quasi_iso` is the one caller of `cone`, so a
quasi-isomorphism is tested through a cone in one place.  Every error type
of the package is defined in `errors.py`.  No function takes a `check`
option: `PerfectModule` always validates its idempotent, and
`built_module`, the one builder constructor, is the only code in the
package that makes a `PerfectModule` without `validate`.  Only `opposite`
and `_tensor` make a `DgAlgebra` through `DgAlgebra.built`, which neither
normalises nor checks their tables.  `Complex` and `AlgebraElement` have
one constructor each, which every builder and the linear arithmetic go
through, so every complex is checked for d^2 = 0.  The mark
`drawn_from`, which lets `PerfectModule.endomorphism` and `hh_class` take a
sampler draw without a check, is set in `ModuleMap._init` (cleared) and in
`EndoSampler.draw` alone.
In `suites.py` only `_tally`, which counts every battery's verdicts, and
`rr_tally` hold an augmented assignment, so no battery keeps a counter by
hand.
`KernelTransfer` reads its kernel's diagonal and calls neither the factor
restriction nor the trace-table contraction behind `cup` and
`pair_scalar`, so the transfer stays independent of the other two
pairing constructions.  The trace formula's left side, `rr_left_side`,
forms no trace element, class or pairing: the element x it is handed is its
only input shared with the right side.  No module of the package has a
`global` statement, so no module-global state is rebound after import.
And the package holds only what its commands, benchmark, demos and tools
run: every module-level function and class is loaded by name somewhere in
them or is wrapped by the traced benchmark run; calculus that only tests
use lives in `tests/oracles.py`.  Nor does it store what they do not read:
every attribute the package stores is read by name somewhere in them."""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import dgtrace
from dgtrace.algebras import AlgebraElement
from dgtrace.complexes import Complex
from dgtrace.errors import DgError
from dgtrace.modules import PerfectModule

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dgtrace"

# the dense grid of a RationalMatrix, and the boundary grid views of
# SemiFreeModule / ModuleMap built from the sparse columns
LAYOUT_ATTRIBUTES = {"entries", "twist"}


def _called_name(node):
    """The name a call node calls (a plain or attribute name), else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _leaks(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES
                and isinstance(node.ctx, ast.Load)):
            yield f"{path.name}:{node.lineno}: reads .{node.attr}"
        if _called_name(node) == "RationalMatrix":
            yield f"{path.name}:{node.lineno}: calls RationalMatrix(...)"


def test_no_module_has_a_global_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert not found, found


def test_only_linalg_knows_the_matrix_layout():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert modules
    leaks = [leak for path in modules for leak in _leaks(path)]
    assert not leaks, leaks


def test_only_linalg_calls_the_elimination_routine():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _owned(
        path, lambda node: _called_name(node) == "_echelon")]
    assert found
    outside = [f"{name}:{line}: {fn}" for name, fn, line in found if name != "linalg.py"]
    assert not outside, outside


def _owned(path: Path, wanted):
    """(file, innermost enclosing function, line) of every node that
    wanted(node) accepts."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for fn in ast.walk(tree):  # breadth first: inner functions overwrite
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    for node in ast.walk(tree):
        if wanted(node):
            yield path.name, owner.get(node), node.lineno


def _reads_table(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "table"
            and isinstance(node.ctx, ast.Load))


def _calls_cone(node) -> bool:
    return _called_name(node) == "cone"


def _only_in(wanted, *allowed, files="*.py"):
    """The finds of wanted in the src/ files matching `files` outside the
    (file, function) pairs allowed; fails when there is no find at all."""
    found = [hit for path in sorted(SRC.glob(files)) for hit in _owned(path, wanted)]
    assert found
    return [f"{name}:{line}: {fn}" for name, fn, line in found
            if (name, fn) not in allowed]


def test_only_act_reads_an_action_table():
    leaks = _only_in(_reads_table, ("modules.py", "act"))
    assert not leaks, leaks


def test_only_is_quasi_iso_takes_a_cone():
    leaks = _only_in(_calls_cone, ("complexes.py", "is_quasi_iso"))
    assert not leaks, leaks


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_is_defined_in_errors():
    for info in pkgutil.iter_modules(dgtrace.__path__):
        importlib.import_module(f"dgtrace.{info.name}")
    found = {f"{cls.__module__}.{cls.__qualname__}" for cls in _subclasses(DgError)
             if cls.__module__.startswith("dgtrace.")}
    assert len(found) > 10
    strays = sorted(name for name in found if not name.startswith("dgtrace.errors."))
    assert not strays, strays


def _takes_check(path: Path):
    """The qualified names of the functions of a file that take a `check`
    parameter."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = [(node, "") for node in tree.body]
    while scopes:
        node, prefix = scopes.pop()
        if isinstance(node, ast.ClassDef):
            scopes += [(child, f"{prefix}{node.name}.") for child in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if any(a.arg == "check" for a in
                   args.posonlyargs + args.args + args.kwonlyargs):
                yield f"{prefix}{node.name}"
            scopes += [(child, f"{prefix}{node.name}.") for child in node.body]


def test_only_the_boundary_constructors_take_check():
    """The public constructors always check what callers hand in; a builder
    makes its output from checked pieces, so no function takes `check`."""
    for cls in (PerfectModule, Complex):
        assert "check" not in inspect.signature(cls.__init__).parameters
    found = sorted(name for path in SRC.glob("*.py") for name in _takes_check(path))
    assert not found, found


def _calls_on(cls_name: str, method: str):
    """The test for a call cls_name.method(...)."""
    def wanted(node) -> bool:
        return (_called_name(node) == method
                and getattr(getattr(node.func, "value", None), "id", None) == cls_name)
    return wanted


def test_only_opposite_and_tensor_build_an_unchecked_algebra():
    # DgAlgebra.built(...) takes its tables unmerged and unchecked
    leaks = _only_in(_calls_on("DgAlgebra", "built"), ("algebras.py", "opposite"),
                     ("algebras.py", "_tensor"))
    assert not leaks, leaks


def test_complexes_and_elements_have_one_constructor():
    assert not hasattr(Complex, "built") and not hasattr(AlgebraElement, "built")
    # and no algebra, element or complex is made around its constructors
    assert not [hit for cls_name in ("DgAlgebra", "AlgebraElement", "Complex")
                for path in sorted(SRC.glob("*.py"))
                for hit in _owned(path, _calls_on(cls_name, "__new__"))]


def test_only_the_builder_constructor_skips_the_perfect_check():
    # PerfectModule.__new__(...) makes a PerfectModule without running its
    # constructor's `validate`
    leaks = _only_in(_calls_on("PerfectModule", "__new__"), ("modules.py", "built_module"))
    assert not leaks, leaks


def _marks_drawn(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "drawn_from"
            and isinstance(node.ctx, ast.Store))


def test_only_init_and_draw_set_the_drawn_mark():
    leaks = _only_in(_marks_drawn, ("modules.py", "_init"),
                     ("sampling.py", "draw"))
    assert not leaks, leaks
    # the mark it replaces is gone
    assert not [hit for path in sorted(SRC.glob("*.py")) for hit in _owned(
        path, lambda node: getattr(node, "attr", None) == "compressed_by")]


def _counts(node) -> bool:
    return isinstance(node, ast.AugAssign)


def test_only_the_tallies_count_in_suites():
    leaks = _only_in(_counts, ("suites.py", "_tally"), ("suites.py", "rr_tally"),
                     files="suites.py")
    assert not leaks, leaks


# what the transfer table must not call: the factor restriction, and the
# trace-table contraction that the cup and the scalar pairing share
TRANSFER_AVOIDS = {"restrict_to_factor", "_pair_trace_table", "_contract",
                   "cup", "pair_scalar"}


def test_kernel_transfer_calls_no_other_pairing_construction():
    tree = ast.parse((SRC / "pairing.py").read_text(encoding="utf-8"))
    transfer = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                    and node.name == "KernelTransfer")
    called = {_called_name(node) for node in ast.walk(transfer)}
    assert "diagonal" in called
    assert not called & TRANSFER_AVOIDS, sorted(called & TRANSFER_AVOIDS)


# what the trace formula's left side must not call: the trace element x it
# is handed is its only input shared with the right side
LEFT_SIDE_AVOIDS = {"generalized_supertrace", "hh_class", "pair_scalar",
                    "_contract", "_pair_trace_table", "KernelTransfer"}


def test_left_side_forms_no_trace_element_or_pairing():
    tree = ast.parse((SRC / "pairing.py").read_text(encoding="utf-8"))
    left = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "rr_left_side")
    called = {_called_name(node) for node in ast.walk(left)}
    assert "diagonal" in called
    assert not called & LEFT_SIDE_AVOIDS, sorted(called & LEFT_SIDE_AVOIDS)


# the directories whose code runs the package, besides src/ itself
RUNNERS = ("perfbench", "demos", "tools")
# defined ahead of its first caller, the definition of hh(M, f) that a
# trace-formula verdict reading the modules will take
UNCALLED_ON_PURPOSE = {("duality.py", "EvaluationData")}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loaded_names(path: Path, skip_own_bodies: bool):
    """Every name a file loads, plainly or as an attribute, less (with
    skip_own_bodies) a top-level definition's loads of its own name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {node: top.name for top in tree.body
             if skip_own_bodies and isinstance(top, DEFINITIONS)
             for node in ast.walk(top)}
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and owner.get(node) != name:
            yield name


def test_every_definition_has_a_caller_outside_the_tests():
    """A module-level def or class of the package must be loaded outside
    its own body, in src/ (not by `__init__`'s re-export) or in the code
    under RUNNERS, or be wrapped by the traced run (perfbench/layers.json)."""
    package = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    runners = [p for d in RUNNERS for p in sorted((ROOT / d).glob("*.py"))]
    assert package and runners
    loaded = {name for path in package for name in _loaded_names(path, True)}
    loaded |= {name for path in runners for name in _loaded_names(path, False)}
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    wrapped = set()
    for target in (t for layer in layers["layers"] for t in layer["wraps"]):
        module, qualname = target.split(":")
        wrapped.add((f"{module.rsplit('.', 1)[1]}.py", qualname.split(".")[0]))
    found = [(path.name, node.name) for path in package
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, DEFINITIONS)]
    assert len(found) > 100
    unused = sorted(f"{name}:{fn}" for name, fn in found
                    if fn not in loaded and (name, fn) not in wrapped
                    and (name, fn) not in UNCALLED_ON_PURPOSE)
    assert not unused, unused
    # the exception still names a definition, so it cannot outlive it
    assert UNCALLED_ON_PURPOSE <= set(found)


def _attributes(path: Path, ctx):
    """(attribute name, line) of every attribute a file uses in ctx."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)]


def test_every_stored_attribute_is_read_outside_the_tests():
    """An attribute that the package stores (`obj.name = ...`) must be read
    as an attribute somewhere in src/ or in the code under RUNNERS; data
    that nothing reads is not kept.  The match is by name alone, so an
    unread attribute hides behind a read of the same name on another type:
    a module's generator `labels` hid behind `DgAlgebra.labels`, and a
    resolution's `name` behind `CatalogEntry.name`."""
    code = sorted(SRC.glob("*.py")) + [p for d in RUNNERS
                                       for p in sorted((ROOT / d).glob("*.py"))]
    read = {name for path in code for name, _ in _attributes(path, ast.Load)}
    stored = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
              for name, line in _attributes(path, ast.Store)]
    assert len(stored) > 50
    unread = sorted(f"{file}:{line}: .{name}" for file, line, name in stored
                    if name not in read)
    assert not unread, unread
