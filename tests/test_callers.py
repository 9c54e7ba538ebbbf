"""The package keeps no dead code: every public module-level function and
class, and every public method, is referenced by name somewhere in `src/`
or `perfbench/` outside its own definition, or it is a test oracle listed
below with its reason.

A reference is a `Name` or an `Attribute` node of the name, so a method
counts as called when any attribute of its name is read.  An import or an
`__all__` entry alone is not a reference, and neither is a use inside the
name's own body.  A function registered with `@main.command` is called
through click.
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


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    """(qualified name, name, file, first line, last line) of every public
    module-level function and class, and every public method."""
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
                found.append((qualname, item.name, path, first, item.end_lineno))
    return found


def _is_command(node):
    """Whether `node` is registered with a @main.command(...) decorator."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command" and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "main" for d in node.decorator_list)


def references():
    """{name: [(file, line)]} of every Name and Attribute node under the
    caller directories."""
    refs = {}
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _is_oracle(qualname):
    parts = qualname.split(".")
    return any(".".join(parts[:i]) in ORACLES for i in range(1, len(parts) + 1))


def uncalled():
    refs = references()
    return sorted(
        qualname for qualname, name, path, first, last in public_definitions()
        if not _is_oracle(qualname)
        and not any(p != path or not first <= line <= last
                    for p, line in refs.get(name, [])))


def test_every_public_name_has_a_caller_or_is_an_oracle():
    assert uncalled() == []


def test_every_oracle_entry_is_defined():
    # an oracle entry names a module or a definition that exists, so a
    # rename cannot leave a stale exemption behind
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    defined = {qualname for qualname, *_ in public_definitions()}
    for entry in ORACLES:
        assert entry in modules or entry in defined, entry
