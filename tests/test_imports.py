"""Static checks on the package's sources: every name a module imports is
used in that module (the tests and demos are checked too), every error
the package defines exits 2 through the command line, and the test
oracles import nothing from the package."""
import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fcmc"
# the package's modules (its __init__ imports to re-export), the tests and
# the demos
MODULES = sorted([p for p in SRC.glob("*.py") if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that nothing else references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    src = "from x import a, b as c\nimport os.path\nprint(c)\n"
    assert unused_imports(src) == ["a (line 1)", "os (line 2)"]


def _builtin_error(name: str) -> bool:
    base = getattr(builtins, name, None)
    return isinstance(base, type) and issubclass(base, BaseException)


def exception_classes(sources: list[str]) -> set[str]:
    """The classes the sources define that derive, directly or through
    one another, from a builtin exception class."""
    bases: dict[str, set[str]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases
                                    if isinstance(b, ast.Name)}
    found: set[str] = set()
    while True:
        new = {name for name, names in bases.items() if name not in found
               and any(b in found or _builtin_error(b) for b in names)}
        if not new:
            return found
        found |= new


def main_handled_errors(source: str) -> set[str]:
    """The exception names that ``main``'s except clauses list."""
    tree = ast.parse(source)
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    names: set[str] = set()
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            names |= {k.attr if isinstance(k, ast.Attribute) else k.id
                      for k in kinds}
    return names


def test_every_package_error_exits_2():
    # the exit-code contract: an error the package raises on unusable
    # input is reported with exit 2, never a traceback with exit 1
    errors = exception_classes([p.read_text(encoding="utf-8")
                                for p in SRC.glob("*.py")])
    assert {"ChainError", "CompositionError", "SerdeError"} <= errors
    handled = main_handled_errors((SRC / "cli.py").read_text(
        encoding="utf-8"))
    assert errors - handled == set()


def test_exception_classes_follow_bases():
    src = ("class A(ValueError): pass\nclass B(A): pass\n"
           "class C: pass\nclass D(C): pass\n")
    assert exception_classes([src]) == {"A", "B"}
    main = ("def main():\n    try:\n        f()\n"
            "    except (A, m.B) as exc:\n        pass\n")
    assert main_handled_errors(main) == {"A", "B"}


def test_oracles_import_nothing_from_the_package():
    # the oracles are independent of both routes they check
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(
        encoding="utf-8"))
    modules = [a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "fcmc"]
    assert all(node.level == 0 for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom))
