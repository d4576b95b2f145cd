"""Every parameter of a function in the package is read by the function's
body, and every defaulted one is set by some call in the package, its
tests, the benchmark or the demos, so a parameter whose every caller takes
the default is replaced by that value.  Calls are matched to functions by
name alone (a class call counts for its `__init__`), so a call of a
namesake can hide a dead parameter; a function only ever called through a
reference would be reported.  No module-level function only hands its own
parameters on to another callable."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dgtrace"
CALLERS = ("src", "tests", "perfbench", "demos")


def _defaulted(fn: ast.FunctionDef, offset: int):
    """(name, positional index after the bound first argument or None) of
    every parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _functions(tree: ast.Module):
    """(call name, offset of the bound first argument, function) of every
    function; a method goes by the name it is called by, `__init__` by its
    class's."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    methods[item] = (node.name if item.name == "__init__"
                                     else item.name, 0 if static else 1)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield methods.get(node, (node.name, 0)) + (node,)


def _calls():
    """Call name -> list of (positional count, keyword names, unpacks)."""
    out = {}
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                out.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, unpacks))
    return out


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = _calls()
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, offset, fn in _functions(tree):
            for param, index in _defaulted(fn, offset):
                if not any(unpacks or param in keywords
                           or (index is not None and count > index)
                           for count, keywords, unpacks in calls.get(name, ())):
                    dead.append(f"{path.name}: {name}({param})")
    assert not dead, dead


def _unread(fn):
    """The parameters of a function or lambda that its body never loads; a
    zero-argument super() call reads the first one."""
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    nodes = [n for stmt in (fn.body if isinstance(fn.body, list) else [fn.body])
             for n in ast.walk(stmt)]
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    if params and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                      and n.func.id == "super" and not n.args for n in nodes):
        read.add(params[0])
    return [p for p in params if p not in read]


def test_every_parameter_is_read_by_its_body():
    """The `cli.cmd_*` handlers share the one call signature of `COMMANDS`
    and are exempt."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if path.name == "cli.py" and name.startswith("cmd_"):
                continue
            unread += [f"{path.name}:{node.lineno}: {name}({param})"
                       for param in _unread(node)]
    assert not unread, unread


def _forwards(fn: ast.FunctionDef) -> bool:
    """Whether the body is a docstring at most and `return f(p1, ..., pn)`
    passing the function's own parameters, in order, as they came."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args]
    return (isinstance(call, ast.Call) and not call.keywords
            and not (args.vararg or args.kwarg or args.kwonlyargs)
            and [getattr(a, "id", None) for a in call.args] == params)


def test_no_module_function_only_forwards_its_parameters():
    """A module-level function that only hands its parameters on to another
    callable is a second name for it: callers should call it directly."""
    wrappers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        wrappers += [f"{path.name}:{node.lineno}: {node.name}" for node in tree.body
                     if isinstance(node, ast.FunctionDef) and _forwards(node)]
    assert not wrappers, wrappers
