"""Every module-level import in the package is used by its module, the
function-level imports are the listed ones, every module-level private
function or class is used by the package, the public definitions that only
tests call are the listed ones, one function builds the hypersimplicial
complex and one builds generator lists."""

import ast
from pathlib import Path

import pytest

import hilbfold

MODULES = sorted(p for p in Path(hilbfold.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
PERFBENCH = sorted(p for p in (Path(__file__).parents[1] / "perfbench")
                   .glob("*.py") if not p.name.startswith("test_"))


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def function_imports(source: str):
    """(function, module) for each import inside a function body, in source
    order; a relative module keeps its leading dots."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if owner and isinstance(child, ast.Import):
                found.extend((owner, a.name) for a in child.names)
            elif owner and isinstance(child, ast.ImportFrom):
                found.append((owner, "." * child.level + (child.module or "")))
            visit(child, owner)
    visit(ast.parse(source), None)
    return found


# (module file, function, imported module) -> why the import is local
FUNCTION_IMPORTS = {
    ("foldring.py", "is_singular_point", ".moment"):
        "import cycle: moment imports foldring",
    ("foldring.py", "is_smoothable", ".hypercomplex"):
        "import cycle: hypercomplex imports foldring",
    ("foldring.py", "is_smoothable", ".moment"):
        "import cycle: moment imports foldring",
}


def _referenced(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def private_definitions(sources):
    """Names of the module-level private functions and classes (a leading
    underscore, not a dunder) defined in the sources."""
    return [stmt.name for source in sources for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and stmt.name.startswith("_")
            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]


def used_names(sources):
    """Names that the module-level statements of the sources read, access
    as an attribute or import, each statement apart from its own name."""
    used = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            used |= {_referenced(node) for node in ast.walk(stmt)} - {own}
    return used


def orphaned_privates(sources):
    """Private definitions that no other module-level statement of the
    sources reads, accesses as an attribute or imports."""
    used = used_names(sources)
    return [name for name in private_definitions(sources) if name not in used]


def public_definitions(source: str):
    """The public module-level functions and classes of a source, and the
    public methods of those classes as 'Class.method'."""
    found = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        found.append(stmt.name)
        if isinstance(stmt, ast.ClassDef):
            found += [f"{stmt.name}.{f.name}" for f in stmt.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not f.name.startswith("_")]
    return found


def uncalled_publics(sources, callers):
    """Public definitions of the sources whose name neither the sources
    (apart from the definition itself) nor the callers use.

    The check works by name: a method counts as used when any name or
    attribute anywhere has its name, so members whose names are used for
    other things, such as `dimension`, `point` or `zeros`, stay hidden."""
    used = used_names(list(sources) + list(callers))
    return [name for source in sources for name in public_definitions(source)
            if name.split(".")[-1] not in used]


# public definition -> why it stays although only tests call it
TEST_ONLY_PUBLICS = {
    "intersect_components":
        "paper claim waiting for a verify row (ROADMAP item 4): how two "
        "punctual components meet; tests compare it with K.meetings()",
    "intersect_cells":
        "test reference: the pairwise cell intersection that K.meetings() "
        "is compared against",
    "ComplexKnm.all_faces":
        "test reference: every face of K(n, m), for checking the face "
        "criteria over a whole complex",
    "is_singular_face":
        "paper claim waiting for a verify row (ROADMAP item 4): which faces "
        "of K(n, m) are singular",
    "cells_at_vertex":
        "paper claim waiting for a verify row (ROADMAP item 4): the cells "
        "at a vertex, counted and compared with 2^k - 1 or 2^k - 2",
    "volume_check":
        "paper claim waiting for a verify row (ROADMAP item 4): the cell "
        "volumes fill the dilated simplex",
    "pairwise_incomparable":
        "paper claim waiting for a verify row (ROADMAP item 4): no local "
        "prime contains another",
    "unimodular_triangulation":
        "paper claim waiting for a verify row (ROADMAP item 4): the chain "
        "polytope triangulates unimodularly",
    "expected_intersection_labels":
        "paper claim waiting for a verify row (ROADMAP item 4): the "
        "predicted shared faces that build_sing_complex is compared with",
    "plucker_of":
        "moment API: the only public way to get the PluckerVector that "
        "moment_grass takes",
    "GaussRational.conjugate": "scalar API",
    "ExactMatrix.identity": "matrix API",
}


def callers_of(source: str, name: str):
    """Names of the functions that call `name`(...) in their own body
    (nested functions count for themselves), '<module>' for calls outside
    any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call) and _referenced(child.func) == name:
                found.append(owner)
            visit(child, owner)
    visit(ast.parse(source), "<module>")
    return found


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom math import comb, gcd as g\n"
                          "print(comb, os.sep)\n") == ["g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_function_import_is_found():
    source = ("import os\ndef f():\n    import random, math as m\n"
              "    from .exact import rank\n"
              "class C:\n    def g(self):\n        from . import moment\n")
    assert function_imports(source) == [("f", "random"), ("f", "math"),
                                        ("f", ".exact"), ("g", ".")]


def test_function_level_imports_are_listed():
    found = [(path.name, owner, module) for path in MODULES
             for owner, module in function_imports(path.read_text())]
    assert sorted(found) == sorted(FUNCTION_IMPORTS)


def test_orphaned_private_is_found():
    sources = ["def _kept(): pass\ndef _gone(): return _gone()\n"
               "class _Spare: pass\ndef __getattr__(name): pass\n",
               "from m import _kept\n"]
    assert orphaned_privates(sources) == ["_gone", "_Spare"]


def test_no_orphaned_private_definitions():
    package = Path(hilbfold.__file__).parent.glob("*.py")
    sources = [p.read_text() for p in package]
    assert len(private_definitions(sources)) > 40
    assert orphaned_privates(sources) == []


def test_uncalled_public_is_found():
    sources = ["def kept(): pass\ndef gone(): return gone()\n"
               "class Spare:\n    def used(self): pass\n"
               "    def unused(self): pass\n    def __len__(self): pass\n"
               "def _private(): pass\n",
               "from m import kept\n"]
    callers = ["Spare().used()\n"]
    assert uncalled_publics(sources, callers) == ["gone", "Spare.unused"]


def test_only_listed_publics_are_called_by_tests_alone():
    sources = [p.read_text() for p in MODULES]
    callers = [p.read_text() for p in PERFBENCH]
    assert len(callers) >= 3
    assert sorted(uncalled_publics(sources, callers)) == \
        sorted(TEST_ONLY_PUBLICS)


def test_callers_are_found():
    source = ("K = m.ComplexKnm(1, 1)\n"
              "def build():\n    return ComplexKnm(2, 2)\n"
              "def outer():\n    def inner():\n        ComplexKnm(3, 3)\n"
              "    return inner\n"
              "def other():\n    return ComplexKnmX(2, 2)\n")
    assert callers_of(source, "ComplexKnm") == ["<module>", "build", "inner"]


def test_only_build_complex_constructs_a_complex():
    callers = [caller for path in MODULES
               for caller in callers_of(path.read_text(), "ComplexKnm")]
    assert callers == ["build_complex"]


def test_only_ideal_constructs_generator_lists():
    callers = [caller for path in MODULES
               for caller in callers_of(path.read_text(), "PolyIdealGens")]
    assert callers == ["_ideal"]
