import json
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgtrace import suites
from dgtrace.cli import main
from dgtrace.errors import NotClosed, WorkspaceError
from dgtrace.pairing import verify_rr
from dgtrace.workspace import parse_rational, parse_workspace


A2_FULL = {
    "format": 1,
    "algebras": {
        "A2": {
            "basis": [{"label": "e1", "degree": 0},
                      {"label": "e2", "degree": 0},
                      {"label": "a", "degree": 0}],
            "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"],
                     [0, 2, 2, "1"], [2, 1, 2, "1"]],
            "unit": ["1", "1", "0"],
        }
    },
    "modules": {
        "P2": {
            "algebra": "A2",
            "generators": [{"label": "g", "shift": 0}],
            "idempotent": [[0, 0, ["0", "1", "0"]]],
        },
        "F": {
            "algebra": "A2",
            "generators": [{"label": "u", "shift": 0}],
        },
    },
    "maps": {
        "triple": {"source": "F", "target": "F", "degree": 0,
                   "entries": [[0, 0, ["3", "0", "0"]]]},
    },
    "resolutions": {"rA2": "A2"},
}


def test_catalog_stub_round_trip():
    ws = parse_workspace(json.dumps({"format": 1, "use_catalog": ["A2"]}))
    assert "A2" in ws.algebras
    assert ws.algebras["A2"].dim == 3


def test_full_description_round_trip():
    text = json.dumps(A2_FULL)
    ws = parse_workspace(text)
    assert ws.algebras["A2"].dim == 3
    assert ws.modules["P2"].idempotent is not None


@pytest.mark.parametrize("name", ["validate_algebra", "SemiFreeModule",
                                  "ModuleMap", "PerfectModule"])
def test_a_fault_in_a_validator_is_not_an_input_error(monkeypatch, name):
    """Only the package's own errors become located input errors: a fault
    in a constructor the parser calls propagates as it is.  Modules and
    maps are built by columns, so their fault goes into the `validate`
    that the parser runs on them."""
    import dgtrace.workspace

    def fault(*args, **kwargs):
        raise RuntimeError("fault in the validator")
    owner = dgtrace.workspace
    if name in ("SemiFreeModule", "ModuleMap"):
        owner, name = getattr(owner, name), "validate"
    monkeypatch.setattr(owner, name, fault)
    with pytest.raises(RuntimeError, match="fault in the validator"):
        parse_workspace(json.dumps(A2_FULL))


def test_malformed_mult_triple_reports_location():
    bad = {"format": 1,
           "algebras": {"X": {"basis": [{"label": "1", "degree": 0}],
                              "mult": [[0, 0, 5, "1"]],
                              "unit": ["1"]}}}
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(json.dumps(bad))
    assert "algebras.X" in str(err.value)
    assert "out of range" in str(err.value)


def test_unresolved_reference():
    bad = {"format": 1,
           "modules": {"m": {"algebra": "nope",
                             "generators": [{"label": "g", "shift": 0}]}}}
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(json.dumps(bad))
    assert "unresolved" in str(err.value)


def test_invalid_algebra_surfaces_validator():
    bad = {"format": 1,
           "algebras": {"X": {"basis": [{"label": "u", "degree": 0}],
                              "mult": [[0, 0, 0, "1"]],
                              "unit": ["0"]}}}
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(json.dumps(bad))
    assert "invalid" in str(err.value)


def test_syntax_error():
    with pytest.raises(WorkspaceError) as err:
        parse_workspace("{not json")
    assert "syntax" in str(err.value)


def test_deeply_nested_json_is_a_syntax_error():
    with pytest.raises(WorkspaceError) as err:
        parse_workspace("[" * 100000 + "]" * 100000)
    assert "syntax" in str(err.value)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_hh0(capsys):
    code, out = run_cli(["hh0", "A2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2


def test_cli_pair(capsys):
    code, out = run_cli(["pair", "A2", "[e1]", "[e2]"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "1"


@pytest.mark.parametrize("args, line", [
    (["pair", "A2", "1/2,0,3", "0,1,-1"], '"value": "1/2"'),
    (["--output", "text", "pair", "A2", "[e1]", "1,1,1"], "value: 2"),
])
def test_cli_pair_with_coordinates(args, line, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    assert line in [text.strip() for text in out.splitlines()]


# a dg algebra off degree 0: 1 (degree 0), x (degree -1), y (degree 0),
# all products of x and y zero, d(x) = y; H(D) = k in degree 0
DG_WORKSPACE = {
    "format": 1,
    "algebras": {"D": {
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": -1},
                  {"label": "y", "degree": 0}],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                 [0, 2, 2, "1"], [2, 0, 2, "1"]],
        "unit": ["1", "0", "0"],
        "differential": [[1, 2, "1"]]}},
    "modules": {"F": {"algebra": "D", "generators": [{"label": "u", "shift": 0}]}},
}


def test_cli_workspace_dg_algebra(tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(DG_WORKSPACE))
    code, out = run_cli(["--workspace", str(path), "validate"], capsys)
    assert code == 0
    entry = json.loads(out)["results"]["D"]
    assert entry["degree_zero"] is False
    assert entry["cohomology"] == {"0": 1}
    code, out = run_cli(["--workspace", str(path), "cohomology", "F"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["carrier_dims"] == {"-1": 1, "0": 2}
    assert data["cohomology_dims"] == {"0": 1}
    # HH_0 is computed for degree-0 algebras only: a refused input
    assert main(["--workspace", str(path), "hh0", "D"]) == 2


def test_cli_validate(capsys):
    code, out = run_cli(["validate", "A2", "M2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["results"]["A2"]["algebra"] == "valid"
    assert "acyclic" in data["results"]["A2"]["resolution"]
    assert all("proper" not in entry for entry in data["results"].values())


def test_cli_class_with_workspace(tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(A2_FULL))
    code, out = run_cli(["--workspace", str(path), "class", "F", "triple"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coords"] == ["3", "0"]


def test_cli_cohomology(tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(A2_FULL))
    code, out = run_cli(["--workspace", str(path), "cohomology", "P2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["cohomology_dims"] == {"0": 2}


def test_cli_verify_rr_small(capsys):
    code, out = run_cli(["--random", "6", "--seed", "7",
                         "verify-rr", "--algebra", "A2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["per_algebra"]["A2"]["passed"] == 6


@pytest.mark.parametrize("name", ["", "nope"])
def test_cli_verify_rr_refuses_a_name_outside_the_catalog(name, capsys):
    """Only a missing --algebra means every algebra: an empty name ran all
    seven and exited 0."""
    assert main(["--random", "1", "verify-rr", "--algebra", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --algebra: no catalog algebra named {name!r}\n"


def test_cli_unknown_input_exit_code(capsys, tmp_path):
    path = tmp_path / "nope.json"
    code = main(["--workspace", str(path), "hh0", "A2"])
    assert code == 2


def test_cli_bad_reference_exit_code(capsys):
    code = main(["hh0", "doesnotexist"])
    assert code == 2


def test_cli_component_error_embedded(tmp_path, capsys):
    # an endomorphism incompatible with the module's idempotent surfaces as
    # an error report with nonzero exit, not a bare traceback
    ws = dict(A2_FULL)
    ws["maps"] = {"bad": {"source": "P2", "target": "P2", "degree": 0,
                          "entries": [[0, 0, ["1", "0", "0"]]]}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code = main(["--workspace", str(path), "class", "P2", "bad"])
    out = capsys.readouterr().out
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False and "error" in data


def test_cli_verifier_fault_is_a_failed_check(monkeypatch, capsys):
    """Over the built-in catalog no input is at fault: a DgError raised
    inside a battery is a failed check (exit 1), reported with the same
    keys as an error from a workspace."""
    def faulty(count, seed):
        raise NotClosed("euler trace needs a closed map")
    monkeypatch.setattr(suites, "euler_formula_suite", faulty)
    code = main(["--random", "1", "verify-suite"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "verify-suite", "error": "euler trace needs a closed map",
        "ok": False}


def test_cli_verifier_fault_with_a_workspace_is_a_failed_check(
        tmp_path, monkeypatch, capsys):
    """The verify commands run over the built-in catalog whatever workspace
    is given, so a `--workspace` flag does not turn a fault inside their
    batteries into an input error."""
    def faulty(count, seed):
        raise NotClosed("euler trace needs a closed map")
    monkeypatch.setattr(suites, "euler_formula_suite", faulty)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(A2_FULL))
    code = main(["--workspace", str(path), "--random", "1", "verify-suite"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "verify-suite", "error": "euler trace needs a closed map",
        "ok": False}


def test_cli_reports_deterministic(capsys):
    code1, out1 = run_cli(["--random", "5", "--seed", "42",
                           "verify-rr", "--algebra", "Kronecker"], capsys)
    code2, out2 = run_cli(["--random", "5", "--seed", "42",
                           "verify-rr", "--algebra", "Kronecker"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dgtrace.cli", "--random", "3",
         "verify-rr", "--algebra", "k"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("output", ["json", "text"])
def test_closed_stdout_is_an_output_error(output):
    """stdout's reader is gone before the report is written: exit 1 with
    one `output error:` line on stderr, and no traceback."""
    with subprocess.Popen(
            [sys.executable, "-m", "dgtrace.cli", "--output", output,
             "--seed", "42", "verify-serre"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    assert "Traceback" not in err
    assert err.startswith("output error:") and err.count("\n") == 1


@pytest.mark.parametrize("bad, where", [
    ({"format": 1, "algebras": {"X": 5}}, "algebras.X"),
    ({"format": 1, "algebras": {"X": {"basis": [{"label": "u", "degree": 0.5}],
                                      "mult": [[0, 0, 0, "1"]],
                                      "unit": ["1"]}}}, "algebras.X"),
    ({"format": 1, "use_catalog": ["A2"],
      "modules": {"m": {"algebra": ["A2"], "generators": []}}}, "modules.m"),
    ({"format": 1, "resolutions": {"r": ["A2"]}}, "resolutions"),
])
def test_cli_malformed_node_exits_with_input_error(bad, where, tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(bad))
    code = main(["--workspace", str(path), "hh0", "A2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"input error: {where}")


ONE_DIM = {
    "format": 1,
    "algebras": {"K": {"basis": [{"label": "1", "degree": 0}],
                       "mult": [[0, 0, 0, "1"]], "unit": ["1"]}},
    "modules": {"M": {"algebra": "K", "generators": [{"label": "g", "shift": 0}]}},
    "maps": {"f": {"source": "M", "target": "M", "degree": 0,
                   "entries": [[0, 0, ["1"]]]}},
}


@pytest.mark.parametrize("path, value, message", [
    (("format",), True, "format: unsupported format True"),
    (("algebras", "K", "unit", 0), True,
     "algebras.K.unit: not an exact rational: True"),
    (("algebras", "K", "mult", 0, 0), False,
     "algebras.K: mult[0] index False out of range 0..0"),
    (("algebras", "K", "mult", 0, 3), True,
     "algebras.K.mult[0]: not an exact rational: True"),
    (("algebras", "K", "differential"), [[False, 0, "0"]],
     "algebras.K: differential[0] index out of range"),
    (("algebras", "K", "basis", 0, "label"), 7,
     "algebras.K: basis[0].label must be a string"),
    (("modules", "M", "generators", 0, "label"), 7,
     "modules.M: generators[0].label must be a string"),
    (("maps", "f", "entries", 0, 1), False,
     "maps.f.entries: entry[0] position out of range"),
    (("maps", "f", "entries", 0, 2, 0), True,
     "maps.f.entries: not an exact rational: True"),
    (("algebras", "K", "differential"), [[0, 0, "oops"]],
     "algebras.K.differential[0]: not an exact rational: 'oops'"),
    # a falsy value is not an absent field: only a missing key or null is
    (("modules", "M", "twist"), False, "modules.M.twist: entries must be a list"),
    (("modules", "M", "twist"), 0, "modules.M.twist: entries must be a list"),
    (("modules", "M", "idempotent"), 0,
     "modules.M.idempotent: entries must be a list"),
    (("modules", "M", "idempotent"), "",
     "modules.M.idempotent: entries must be a list"),
    (("maps", "f", "entries"), "", "maps.f.entries: entries must be a list"),
    (("maps", "f", "entries"), {}, "maps.f.entries: entries must be a list"),
    (("algebras",), False, "algebras: algebras must be an object"),
    (("modules",), "", "modules: modules must be an object"),
    (("maps",), 0, "maps: maps must be an object"),
    (("resolutions",), [], "resolutions: resolutions must be an object"),
])
def test_cli_refuses_json_booleans_and_numeric_labels(path, value, message,
                                                      tmp_path, capsys):
    """JSON true and false are not the integers 1 and 0, a label is a
    string, and false, 0, "" or a container of the wrong kind is not an
    absent field: each is refused where it stands, with exit 2."""
    doc = json.loads(json.dumps(ONE_DIM))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file = tmp_path / "ws.json"
    file.write_text(json.dumps(doc))
    assert main(["--workspace", str(file), "validate"]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    file.write_text(json.dumps(ONE_DIM))
    assert main(["--workspace", str(file), "validate"]) == 0


def test_cli_reads_null_as_an_absent_field(tmp_path, capsys):
    """JSON null, like a missing key, marks an optional field or a section
    absent: a null twist, idempotent or map entries, and null sections."""
    doc = json.loads(json.dumps(ONE_DIM))
    doc["modules"]["M"].update(twist=None, idempotent=None)
    doc["maps"]["f"]["entries"] = None
    doc["resolutions"] = None
    empty = dict.fromkeys(("algebras", "modules", "maps", "resolutions"))
    for ws in (doc, dict(empty, format=1)):
        file = tmp_path / "ws.json"
        file.write_text(json.dumps(ws))
        assert main(["--workspace", str(file), "validate"]) == 0
        assert capsys.readouterr().err == ""


def test_a_module_parses_in_memory_linear_in_its_rank():
    """Matrices are read into sparse columns, not a rank x rank grid, so a
    twist-free module of 400 generators parses under 2 MB."""
    doc = {"format": 1, "use_catalog": ["A2"],
           "modules": {"M": {"algebra": "A2", "generators": [{"shift": 0}] * 400,
                             "twist": []}}}
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        ws = parse_workspace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.modules["M"].rank == 400
    assert peak < 2_000_000


def test_entries_at_one_position_add_up():
    doc = json.loads(json.dumps(ONE_DIM))
    doc["maps"]["f"]["entries"] = [[0, 0, ["1/2"]], [0, 0, ["1/3"]],
                                   [0, 0, ["-5/6"]]]
    assert parse_workspace(json.dumps(doc)).maps["f"].columns == ((),)
    doc["maps"]["f"]["entries"] = [[0, 0, ["1/2"]], [0, 0, ["1/2"]]]
    assert parse_workspace(json.dumps(doc)).maps["f"].columns == (((0, ((0, 1),)),),)


def test_cli_over_long_json_integer_is_an_input_error(tmp_path, capsys):
    """json.loads raises a plain ValueError on an integer literal past the
    interpreter's digit limit; it is a syntax error, exit 2.  Without that
    limit the same file is an unsupported format, also exit 2."""
    file = tmp_path / "ws.json"
    file.write_text('{"format": ' + "1" * 5000 + "}")
    code, err = _exit_and_stderr(["--workspace", str(file), "validate"], capsys)
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["1e5", "0.5", "1_0", " 2"])
def test_only_the_documented_rational_grammar_is_read(text, tmp_path, capsys):
    """A rational is a string matching [+-]?[0-9]+(/[0-9]+)? or a JSON
    integer.  Fraction also reads exponents, decimals, underscores and
    spaces, and "1e10000000" takes seconds to build, so each is refused
    in a workspace entry and in `pair`."""
    doc = json.loads(json.dumps(ONE_DIM))
    doc["maps"]["f"]["entries"][0][2][0] = text
    file = tmp_path / "ws.json"
    file.write_text(json.dumps(doc))
    assert _exit_and_stderr(["--workspace", str(file), "validate"], capsys) == (
        2, f"input error: maps.f.entries: not an exact rational: {text!r}\n")
    assert _exit_and_stderr(["pair", "A2", f"{text},0,0", "[e1]"], capsys) == (
        2, f"input error: pair.left: not an exact rational: {text!r}\n")


def test_signed_and_fraction_strings_are_rationals():
    assert [parse_rational(t, "x") for t in ("+3/4", "-0", "007", "-2/6")] == [
        Fraction(3, 4), 0, 7, Fraction(-1, 3)]


def test_cli_refuses_a_name_whose_algebra_and_resolution_differ(tmp_path, capsys):
    """`use_catalog` binds A2 to its algebra and resolution; rebinding
    either to something else leaves the name on a resolution of another
    algebra, which `validate` would report as valid."""
    k = {"basis": [{"label": "1"}], "mult": [[0, 0, 0, "1"]], "unit": ["1"]}
    full = json.loads(json.dumps(A2_FULL))
    file = tmp_path / "ws.json"
    for bad in ({"algebras": {"A2": k}}, {"resolutions": {"A2": "A3"}}):
        file.write_text(json.dumps(dict(bad, format=1, use_catalog=["A2"])))
        assert _exit_and_stderr(["--workspace", str(file), "validate"], capsys) == (
            2, "input error: resolutions: resolution 'A2' does not resolve "
               "algebra 'A2'\n")
    for good in ({"format": 1, "use_catalog": ["A2"]}, A2_FULL,
                 dict(full, use_catalog=["A2"])):
        file.write_text(json.dumps(good))
        assert _exit_and_stderr(["--workspace", str(file), "validate"],
                                capsys) == (0, "")


def test_cli_refuses_repeated_basis_and_generator_labels(tmp_path, capsys):
    """A repeated label would name only the first element it labels (`pair
    K2 [x] [x]` read basis element 0), so a repeated basis label and a
    repeated generator label are each refused where they stand, with exit
    2."""
    dup_basis = {"format": 1, "algebras": {"K2": {
        "basis": [{"label": "x"}, {"label": "x"}],
        "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "unit": ["1", "1"]}}}
    dup_generators = json.loads(json.dumps(ONE_DIM))
    dup_generators["modules"]["M"]["generators"].append({"label": "g"})
    file = tmp_path / "ws.json"
    for doc, command, message in (
            (dup_basis, ["pair", "K2", "[x]", "[x]"],
             "algebras.K2: basis[1].label 'x' repeats basis[0].label"),
            (dup_generators, ["validate"],
             "modules.M: generators[1].label 'g' repeats generators[0].label")):
        file.write_text(json.dumps(doc))
        assert main(["--workspace", str(file)] + command) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_cli_twist_not_squaring_to_zero_exits_with_input_error(tmp_path, capsys):
    """Over A2 with shifts [2, 1, 0], delta_10 = e1 and delta_21 = a give
    D^2(g_0) = a g_2."""
    ws = {"format": 1, "use_catalog": ["A2"],
          "modules": {"M": {"algebra": "A2",
                            "generators": [{"shift": 2}, {"shift": 1}, {"shift": 0}],
                            "twist": [[1, 0, ["1", "0", "0"]],
                                      [2, 1, ["0", "0", "1"]]]}}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code = main(["--workspace", str(path), "validate"])
    assert code == 2
    assert capsys.readouterr().err == (
        "input error: modules.M: module invalid: differential does not square "
        "to zero in the module twist\n")


def _node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _node_paths(val, path + (key,))
    elif isinstance(node, list):
        for t, val in enumerate(node):
            yield from _node_paths(val, path + (t,))


FUZZ_BASE = dict(A2_FULL, use_catalog=["k"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(_node_paths(FUZZ_BASE))), value=JSON_VALUES)
def test_parse_workspace_raises_only_workspace_errors(path, value):
    doc = json.loads(json.dumps(FUZZ_BASE))
    if path:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        doc = value
    try:
        parse_workspace(json.dumps(doc))
    except WorkspaceError:
        pass


def _exit_and_stderr(args, capsys):
    """Exit status and stderr of one CLI run, argument-parsing exits included."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("args, where", [
    (["pair", "A2", "x", "[e1]"], "input error: pair.left: not an exact rational"),
    (["pair", "A2", "1/0,1,1", "[e1]"], "input error: pair.left: not an exact rational"),
    (["pair", "A2", "[e1]", "1,y,1"], "input error: pair.right: not an exact rational"),
    (["pair", "A2", "[zz]", "[e1]"], "input error: pair.left: no basis element"),
    (["pair", "A2", "[e1]", "1,2"], "input error: pair.right: expected 3 coordinates"),
    (["verify-rr", "--algebra", "NOPE"], "input error: --algebra: no catalog algebra"),
    (["--random", "-3", "verify-rr"], "argument --random"),
    (["--random", "0", "verify-rr"], "argument --random"),
    (["--random", "0", "verify-suite"], "argument --random"),
    (["verify-rr", "--random", "0", "--algebra", "k"], "argument --random"),
    (["--seed", "-1", "hh0", "A2"], "argument --seed"),
    (["--seed", str(2 ** 64), "hh0", "A2"], "argument --seed"),
    (["--random", str(10 ** 23), "verify-rr"], "argument --random"),
    (["--random", "1000001", "verify-rr"], "argument --random"),
])
def test_cli_malformed_argument_exits_with_input_error(args, where, capsys):
    code, err = _exit_and_stderr(args, capsys)
    assert code == 2
    assert where in err
    assert "Traceback" not in err


def test_cli_seed_takes_the_whole_u64_range(capsys):
    code, out = run_cli(["--seed", str(2 ** 64 - 1), "--random", "1",
                         "verify-rr", "--algebra", "k"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 2 ** 64 - 1


def test_verify_rr_holds_one_report_at_a_time(monkeypatch, capsys):
    """verify-rr counts each report as it is made and keeps only the failing
    ones, so the reports alive at once stay at one or two however large
    --random is: the batch's memory does not grow with its count."""
    made = []
    alive = []

    def tracked(*args, **kwargs):
        report = verify_rr(*args, **kwargs)
        made.append(weakref.ref(report))
        alive.append(sum(ref() is not None for ref in made))
        return report
    monkeypatch.setattr(suites, "verify_rr", tracked)
    for count in (16, 200):
        made.clear()
        alive.clear()
        code, out = run_cli(["--random", str(count), "verify-rr", "--algebra", "k"],
                            capsys)
        assert code == 0 and json.loads(out)["per_algebra"]["k"]["passed"] == count
        assert len(alive) == count and max(alive) <= 2


FREE_A2 = {"algebra": "A2", "generators": [{"shift": 0}]}


@pytest.mark.parametrize("section, name, node, message", [
    # strict triangularity: the entry [0][1] sits above the diagonal
    ("modules", "T", {"algebra": "A2", "generators": [{"shift": 0}, {"shift": 0}],
                      "twist": [[0, 1, ["0", "0", "1"]]]},
     "module invalid: twist entry at (0,1) breaks the generator filtration"),
    # a degree-1 map over A2, concentrated in degree 0
    ("maps", "up", {"source": "F", "target": "F", "degree": 1,
                    "entries": [[0, 0, ["1", "0", "0"]]]},
     "map invalid: map entry (0,0) must have degree 1"),
    # e = diag(e1, 0) against the twist delta_10 = a: d(e)_10 = e1 a = a
    ("modules", "C", {"algebra": "A2", "generators": [{"shift": 1}, {"shift": 0}],
                      "twist": [[1, 0, ["0", "0", "1"]]],
                      "idempotent": [[0, 0, ["1", "0", "0"]]]},
     "idempotent invalid: idempotent must be closed"),
    ("modules", "P", dict(FREE_A2, idempotent=[[0, 0, ["2", "0", "0"]]]),
     "idempotent invalid: idempotent is not exact (e.e != e)"),
])
def test_cli_refuses_each_module_invariant_with_its_location(section, name, node,
                                                             message, tmp_path, capsys):
    """Builders' outputs go unchecked, so every invariant of caller data is
    refused where it enters: exit 2 and the workspace node in the message."""
    ws = {"format": 1, "use_catalog": ["A2"], "modules": {"F": FREE_A2}}
    ws.setdefault(section, {})[name] = node
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code = main(["--workspace", str(path), "validate"])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {section}.{name}: {message}\n"
