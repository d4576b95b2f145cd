"""Workspace files: named algebras, modules, maps and resolution references.

The format is JSON with `"format": 1`.  Rationals are exact strings
matching [+-]?[0-9]+(/[0-9]+)? in full, or plain integers: no exponent,
decimal point, underscore or space.  Structure constants are sparse
[i, j, k, value] quadruples; module twists, idempotents and map entries are
sparse [row, col, coords] triples with coords a full coordinate vector over
the algebra basis, and triples at one position add up.  Only a missing key
or JSON null marks a field absent.  A generator's `label` is checked (a
string, distinct in its module) and names nothing.  A name bound to both an
algebra and a resolution (by `use_catalog`, or in the `algebras` and
`resolutions` sections) must bind a resolution of that algebra.  Example:

    {
      "format": 1,
      "use_catalog": ["A2"],
      "algebras": {
        "K": {"basis": [{"label": "1", "degree": 0}],
               "mult": [[0, 0, 0, "1"]],
               "unit": ["1"]}
      },
      "modules": {
        "P2": {"algebra": "A2",
                "generators": [{"label": "g", "shift": 0}],
                "idempotent": [[0, 0, ["0", "1", "0"]]]}
      },
      "maps": {
        "f": {"source": "P2", "target": "P2", "degree": 0,
               "entries": [[0, 0, ["0", "3", "0"]]]}
      },
      "resolutions": {"rA2": "A2"}
    }
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List

from .algebras import DgAlgebra, validate_algebra
from .catalog import catalog, catalog_entry
from .errors import DgError, WorkspaceError
from .modules import Column, ModuleMap, PerfectModule, SemiFreeModule, _column
from .resolutions import DiagonalResolution

FORMAT_VERSION = 1
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

_KIND_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def _is_int(value) -> bool:
    """A JSON integer: booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(value, kind, what: str, where: str):
    """value when it is a JSON value of the given kind, else a located
    WorkspaceError."""
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise WorkspaceError(f"{what} must be {_KIND_NAMES[kind]}", where)
    return value


def _distinct(labels, what: str, where: str):
    """Refuse, located, a label that repeats: it would name its first use."""
    first: Dict[str, int] = {}
    for t, label in enumerate(labels):
        if first.setdefault(label, t) != t:
            raise WorkspaceError(f"{what}[{t}].label {label!r} repeats "
                                 f"{what}[{first[label]}].label", where)


def parse_rational(text, where: str) -> Fraction:
    try:
        if _is_int(text):
            return Fraction(text)
        if isinstance(text, str) and _RATIONAL.fullmatch(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise WorkspaceError(f"not an exact rational: {text!r}", where)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class Workspace:
    """Fully resolved workspace: algebras, modules, maps, resolutions."""

    def __init__(self):
        self.algebras: Dict[str, DgAlgebra] = {}
        self.modules: Dict[str, PerfectModule] = {}
        self.maps: Dict[str, ModuleMap] = {}
        self.resolutions: Dict[str, DiagonalResolution] = {}

    def algebra(self, name: str) -> DgAlgebra:
        if name not in self.algebras:
            raise WorkspaceError(f"unknown algebra {name!r}")
        return self.algebras[name]

    def module(self, name: str) -> PerfectModule:
        if name not in self.modules:
            raise WorkspaceError(f"unknown module {name!r}")
        return self.modules[name]

    def map(self, name: str) -> ModuleMap:
        if name not in self.maps:
            raise WorkspaceError(f"unknown map {name!r}")
        return self.maps[name]


def _parse_algebra(name: str, data: dict) -> DgAlgebra:
    where = f"algebras.{name}"
    _expect(data, dict, "algebra", where)
    basis = data.get("basis")
    if not isinstance(basis, list) or not basis:
        raise WorkspaceError("algebra needs a nonempty basis list", where)
    labels = []
    degrees = []
    for t, b in enumerate(basis):
        if not isinstance(b, dict) or "label" not in b:
            raise WorkspaceError(f"basis[{t}] needs a label", where)
        labels.append(_expect(b["label"], str, f"basis[{t}].label", where))
        degrees.append(_expect(b.get("degree", 0), int, f"basis[{t}].degree",
                               where))
    _distinct(labels, "basis", where)
    n = len(labels)
    mult: Dict = {}
    for t, trip in enumerate(_expect(data.get("mult", []), list, "mult", where)):
        if not (isinstance(trip, list) and len(trip) == 4):
            raise WorkspaceError(f"mult[{t}] must be [i, j, k, value]", where)
        i, j, k, val = trip
        for idx in (i, j, k):
            if not _is_int(idx) or not 0 <= idx < n:
                raise WorkspaceError(
                    f"mult[{t}] index {idx} out of range 0..{n - 1}", where)
        c = parse_rational(val, f"{where}.mult[{t}]")
        mult.setdefault((i, j), []).append((k, c))
    mult = {k: tuple(v) for k, v in mult.items()}
    unit_raw = data.get("unit")
    if not isinstance(unit_raw, list) or len(unit_raw) != n:
        raise WorkspaceError("unit must list one coordinate per basis element",
                             where)
    unit = [parse_rational(u, f"{where}.unit") for u in unit_raw]
    diff: Dict = {}
    for t, trip in enumerate(_expect(data.get("differential", []), list,
                                     "differential", where)):
        if not (isinstance(trip, list) and len(trip) == 3):
            raise WorkspaceError(f"differential[{t}] must be [i, j, value]", where)
        i, j, val = trip
        if not (_is_int(i) and 0 <= i < n and _is_int(j) and 0 <= j < n):
            raise WorkspaceError(f"differential[{t}] index out of range", where)
        diff.setdefault(i, []).append(
            (j, parse_rational(val, f"{where}.differential[{t}]")))
    diff = {k: tuple(v) for k, v in diff.items()}
    try:
        return validate_algebra(labels, degrees, mult, unit, diff)
    except DgError as exc:  # surface validator failures with location
        raise WorkspaceError(f"algebra invalid: {exc}", where)


def _parse_entry_matrix(data, rank_rows: int, rank_cols: int, alg: DgAlgebra,
                        where: str) -> List[Column]:
    """The sparse columns of a matrix over alg: each entry is built over
    alg at a position in range, and entries at one position add up."""
    acc: List[Dict[int, List]] = [{} for _ in range(rank_cols)]
    for t, trip in enumerate(_expect([] if data is None else data, list,
                                      "entries", where)):
        if not (isinstance(trip, list) and len(trip) == 3):
            raise WorkspaceError(f"entry[{t}] must be [row, col, coords]", where)
        j, i, coords = trip
        if not (_is_int(j) and 0 <= j < rank_rows
                and _is_int(i) and 0 <= i < rank_cols):
            raise WorkspaceError(f"entry[{t}] position out of range", where)
        if not isinstance(coords, list) or len(coords) != alg.dim:
            raise WorkspaceError(
                f"entry[{t}] needs {alg.dim} coordinates", where)
        entry = acc[i].setdefault(j, [0] * alg.dim)
        for k, c in enumerate(coords):
            entry[k] += parse_rational(c, where)
    return [_column(col) for col in acc]


def _parse_module(name: str, data: dict, ws: Workspace) -> PerfectModule:
    where = f"modules.{name}"
    _expect(data, dict, "module", where)
    alg_name = data.get("algebra")
    if not isinstance(alg_name, str) or alg_name not in ws.algebras:
        raise WorkspaceError(f"unresolved algebra reference {alg_name!r}", where)
    alg = ws.algebras[alg_name]
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        raise WorkspaceError("module needs a nonempty generator list", where)
    for t, g in enumerate(gens):
        _expect(g, dict, f"generators[{t}]", where)
    labels = [_expect(g.get("label", f"g{t}"), str, f"generators[{t}].label",
                      where) for t, g in enumerate(gens)]
    _distinct(labels, "generators", where)
    shifts = [_expect(g.get("shift", 0), int, f"generators[{t}].shift", where)
              for t, g in enumerate(gens)]
    rank = len(gens)
    twist = _parse_entry_matrix(data.get("twist"), rank, rank, alg,
                                f"{where}.twist")
    try:
        mod = SemiFreeModule.from_columns(alg, shifts, twist).validate()
    except DgError as exc:
        raise WorkspaceError(f"module invalid: {exc}", where)
    if data.get("idempotent") is not None:
        entries = _parse_entry_matrix(data["idempotent"], rank, rank, alg,
                                      f"{where}.idempotent")
        try:
            return PerfectModule(
                mod, ModuleMap.from_columns(mod, mod, 0, entries).validate())
        except DgError as exc:
            raise WorkspaceError(f"idempotent invalid: {exc}", where)
    return PerfectModule(mod)


def _parse_map(name: str, data: dict, ws: Workspace) -> ModuleMap:
    where = f"maps.{name}"
    _expect(data, dict, "map", where)
    src = data.get("source")
    tgt = data.get("target")
    for ref in (src, tgt):
        if not isinstance(ref, str) or ref not in ws.modules:
            raise WorkspaceError(f"unresolved module reference {ref!r}", where)
    source = ws.modules[src].module
    target = ws.modules[tgt].module
    if not source.algebra.same_structure(target.algebra):
        raise WorkspaceError("map endpoints live over different algebras", where)
    degree = _expect(data.get("degree", 0), int, "degree", where)
    entries = _parse_entry_matrix(data.get("entries"), target.rank, source.rank,
                                  source.algebra, f"{where}.entries")
    try:
        return ModuleMap.from_columns(source, target, degree, entries).validate()
    except DgError as exc:
        raise WorkspaceError(f"map invalid: {exc}", where)


def parse_workspace(text: str) -> Workspace:
    """Parse and fully validate a workspace; the first failure is reported
    with its location."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise WorkspaceError(f"syntax error: {exc}")
    if not isinstance(data, dict):
        raise WorkspaceError("workspace must be a JSON object")
    fmt = data.get("format", FORMAT_VERSION)
    if not _is_int(fmt) or fmt != FORMAT_VERSION:
        raise WorkspaceError(f"unsupported format {fmt!r}", "format")
    ws = Workspace()
    for t, name in enumerate(_expect(data.get("use_catalog", []), list,
                                     "use_catalog", "use_catalog")):
        _expect(name, str, f"use_catalog[{t}]", "use_catalog")
        try:
            ent = catalog_entry(name)
        except KeyError:
            raise WorkspaceError(f"no catalog algebra named {name!r}",
                                 "use_catalog")
        ws.algebras[name] = ent.algebra
        ws.resolutions[name] = ent.resolution
    sections = {key: _expect({} if data.get(key) is None else data[key],
                             dict, key, key)
                for key in ("algebras", "modules", "maps", "resolutions")}
    for name, adata in sections["algebras"].items():
        ws.algebras[name] = _parse_algebra(name, adata)
    for name, mdata in sections["modules"].items():
        ws.modules[name] = _parse_module(name, mdata, ws)
    for name, fdata in sections["maps"].items():
        ws.maps[name] = _parse_map(name, fdata, ws)
    for name, ref in sections["resolutions"].items():
        _expect(ref, str, f"resolution {name!r}", "resolutions")
        try:
            ent = catalog_entry(ref)
        except KeyError:
            raise WorkspaceError(
                f"resolution {name!r} references unknown catalog entry {ref!r}",
                "resolutions")
        ws.resolutions[name] = ent.resolution
    for name, alg in ws.algebras.items():
        r = ws.resolutions.get(name)
        if r is not None and not r.algebra.same_structure(alg):
            raise WorkspaceError(
                f"resolution {name!r} does not resolve algebra {name!r}",
                "resolutions")
    return ws


def default_workspace() -> Workspace:
    """Workspace with the whole catalog preloaded."""
    ws = Workspace()
    for name, ent in catalog().items():
        ws.algebras[name] = ent.algebra
        ws.resolutions[name] = ent.resolution
    return ws
