"""The package keeps no dead code: every public module-level function and
class, and every public method, is referenced by name somewhere in `src/`
or `perfbench/` outside its own definition, or it is a test oracle listed
below with its reason (the name rule).  And every defaulted or keyword-only
parameter of such a function is passed by some call of its name there
(the parameter rule), so no option exists that only the tests use.

A reference is a `Name` or an `Attribute` node of the name, so a method
counts as called when any attribute of its name is read.  An import or an
`__all__` entry alone is not a reference, and neither is a use inside the
name's own body.  A function registered with `@main.command` is called
through click.  A call passes a parameter by its keyword, by a positional
argument at its place (after `self` or `cls` for a method called as an
attribute), or through a `*` or `**` argument that can reach it.  A call
whose arguments cannot bind to the function's parameters (too many
positional ones, or a keyword it does not take) is a call of another
function of the name.  The parameter rule exempts the oracles, and a
function handed on as a value to one of HANDED_ON, whose arguments this
walk cannot follow.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hybridstream"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")

# what only the tests call, because the tests check other code against it;
# a module or a class covers everything defined in it
ORACLES = {
    "checks": "the verification suites (enumeration, finite differences, "
              "SAP chain fidelity) that the models are checked against",
    "evaluation.prequential_direct": "the weighted-sum definition that "
                                     "PrequentialState's recursion is checked against",
    "dhbm.BruteForceJoint": "exact enumeration of p(x, h, y) that the "
                            "conditionals are checked against",
    "streams.led_bayes_error": "the exact Bayes error that the LED generator "
                               "is checked against, and the reference a "
                               "learning measurement compares with",
}


# the callees that call the function in their first argument with arguments
# of their own: cli._run(experiment, measure, config, *args, **kwargs) and
# perfbench's Recorder.call(fn, *args, **kwargs)
HANDED_ON = ("_run", "call")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    """(qualified name, name, file, first line, last line, node) of every
    public module-level function and class, and every public method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            nodes = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                nodes += [(f"{module}.{node.name}.{item.name}", item)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            for qualname, item in nodes:
                if item.name.startswith("_") or _is_command(item):
                    continue
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                found.append((qualname, item.name, path, first,
                              item.end_lineno, item))
    return found


def _is_command(node):
    """Whether `node` is registered with a @main.command(...) decorator."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command" and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "main" for d in node.decorator_list)


def _nodes():
    """(file, node) of every node under the caller directories."""
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                yield path, node


def _name(node):
    """The name a Name or an Attribute node reads; None for other nodes."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def references():
    """{name: [(file, line)]} of every Name and Attribute node under the
    caller directories."""
    refs = {}
    for path, node in _nodes():
        if _name(node) is not None:
            refs.setdefault(_name(node), []).append((path, node.lineno))
    return refs


def _is_oracle(qualname):
    parts = qualname.split(".")
    return any(".".join(parts[:i]) in ORACLES for i in range(1, len(parts) + 1))


def uncalled():
    refs = references()
    return sorted(
        qualname for qualname, name, path, first, last, _ in public_definitions()
        if not _is_oracle(qualname)
        and not any(p != path or not first <= line <= last
                    for p, line in refs.get(name, [])))


def calls():
    """{callee name: [(file, line, call node)]} of every call of a name
    under the caller directories."""
    found = {}
    for path, node in _nodes():
        if isinstance(node, ast.Call) and _name(node.func) is not None:
            found.setdefault(_name(node.func), []).append((path, node.lineno, node))
    return found


def _handed_on(found):
    """Names of the functions passed as the first argument to HANDED_ON."""
    return {_name(call.args[0]) for name in HANDED_ON
            for _, _, call in found.get(name, []) if call.args} - {None}


def _positional(node, method):
    """The parameters of the function `node` that an attribute call fills
    by position: past `self` or `cls` for a `method`."""
    positional = node.args.posonlyargs + node.args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in node.decorator_list):
        positional = positional[1:]
    return positional


def optional_parameters(node, method):
    """[(name, position or None)] of the function `node`'s defaulted and
    keyword-only parameters, a position counted as in _positional."""
    positional = _positional(node, method)
    first = len(positional) - len(node.args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a in node.args.kwonlyargs])


def binds(call, node, method):
    """Whether `call`'s arguments can bind to the function `node`'s
    parameters."""
    args = node.args
    positional = _positional(node, method)
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    if not starred and len(call.args) > len(positional) and args.vararg is None:
        return False
    rest = positional if starred else positional[len(call.args):]
    names = {a.arg for a in rest + args.kwonlyargs}
    return args.kwarg is not None or all(
        k.arg is None or k.arg in names for k in call.keywords)


def _passes(call, name, position):
    """Whether `call` passes the parameter `name`, by keyword or, when it
    has a position, at it."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or position is not None and any(
                i == position or isinstance(a, ast.Starred)
                for i, a in enumerate(call.args)))


def unpassed():
    """`qualname(parameter)` of every optional parameter that no call of
    its function's name outside its own definition passes."""
    found = calls()
    handed_on = _handed_on(found)
    missing = []
    for qualname, name, path, first, last, node in public_definitions():
        if (not isinstance(node, ast.FunctionDef) or _is_oracle(qualname)
                or name in handed_on):
            continue
        method = qualname.count(".") == 2    # module.Class.method
        sites = [call for p, line, call in found.get(name, [])
                 if (p != path or not first <= line <= last)
                 and binds(call, node, method)]
        missing += [f"{qualname}({param})"
                    for param, position in optional_parameters(node, method)
                    if not any(_passes(c, param, position) for c in sites)]
    return sorted(missing)


def test_every_public_name_has_a_caller_or_is_an_oracle():
    assert uncalled() == []


def test_every_oracle_entry_is_defined():
    # an oracle entry names a module or a definition that exists, so a
    # rename cannot leave a stale exemption behind
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    defined = {qualname for qualname, *_ in public_definitions()}
    for entry in ORACLES:
        assert entry in modules or entry in defined, entry


def test_every_optional_parameter_is_passed_by_a_caller():
    assert unpassed() == []


def test_the_parameter_rule_reads_each_way_of_passing():
    # a keyword, a position past self, a * or ** argument, and none of them
    source = """
class A:
    def m(self, a, b=1, *, c=2):
        pass

def f(x, y=0):
    pass
"""
    defs = ast.parse(source).body
    assert optional_parameters(defs[0].body[0], method=True) == [("b", 1),
                                                                ("c", None)]
    assert optional_parameters(defs[1], method=False) == [("y", 1)]

    def passes(text, name, position):
        return _passes(ast.parse(text).body[0].value, name, position)

    assert passes("a.m(0, c=3)", "c", None)
    assert passes("a.m(0, 5)", "b", 1)
    assert not passes("a.m(0)", "b", 1)
    assert passes("a.m(*args)", "b", 1)
    assert passes("a.m(0, **kw)", "c", None)
    assert not passes("a.m(0, 5)", "c", None)

    def bound(text, node, method):
        return binds(ast.parse(text).body[0].value, node, method)

    assert bound("a.m(0, 5, c=3)", defs[0].body[0], method=True)
    assert not bound("a.m(0, 5, 6)", defs[0].body[0], method=True)
    assert not bound("a.m(0, d=3)", defs[0].body[0], method=True)
    assert not bound("f(0, x=1)", defs[1], method=False)
    assert bound("f(*args, y=1)", defs[1], method=False)
    assert not bound("f(*args, z=1)", defs[1], method=False)
