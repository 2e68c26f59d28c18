"""The package's public names: importable, resolvable, sorted and unique, the
demos' imports exactly, and no dead code."""
import ast
from pathlib import Path

import fedelim

REPO = Path(__file__).resolve().parents[1]


def test_star_import_succeeds():
    namespace = {}
    exec("from fedelim import *", namespace)
    assert set(fedelim.__all__) <= set(namespace)


def test_every_exported_name_resolves():
    missing = [name for name in fedelim.__all__ if not hasattr(fedelim, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    assert fedelim.__all__ == sorted(set(fedelim.__all__))


def test_exports_are_what_the_demos_import():
    # every other name is imported from its own module
    imported = {alias.name for path in sorted((REPO / "demos").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "fedelim"
                for alias in node.names}
    assert set(fedelim.__all__) == imported


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never references.

    A name listed in the module's ``__all__`` counts as referenced.
    """
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_import_detector():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["os"]
    assert unused_imports("from a import b, c\n__all__ = ['b']\n") == ["c"]


def test_no_module_imports_an_unused_name():
    package = Path(fedelim.__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Module-level functions, classes and constants that no module references.

    A reference is a loaded name or an attribute of that name anywhere in
    the given sources; a name listed in some module's ``__all__`` counts as
    referenced, and dunder names are exempt.
    """
    defined, used, exported = set(), set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if "__all__" in names:
                    exported |= set(ast.literal_eval(node.value))
                defined |= names
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return sorted(name for name in defined - used - exported
                  if not (name.startswith("__") and name.endswith("__")))


def test_unreferenced_definition_detector():
    assert unreferenced_definitions(["def f(): pass\ndef g(): f()\n"]) == ["g"]
    assert unreferenced_definitions(["LIMIT = 3\nclass C: pass\n__all__ = ['C']\n",
                                     "import m\nm.LIMIT\n"]) == []
    assert unreferenced_definitions(["X = 1\nX = 2\n__version__ = '0'\n"]) == ["X"]


def test_every_module_level_definition_is_referenced():
    package = Path(fedelim.__file__).parent
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    assert unreferenced_definitions(sources) == []


def unreferenced_methods(sources: list[str], references: list[str]) -> list[str]:
    """``Class.name`` of each method or property of a module-level class in
    ``sources`` whose name nothing in ``references`` uses.

    A use is a loaded name, an attribute, or a string constant, which covers
    patching by name (``setattr(owner, "name", ...)``); dunder names are exempt.
    """
    defined = set()
    for source in sources:
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef):
                defined |= {(cls.name, f.name) for f in cls.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    used = set()
    for source in references:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
    return sorted(f"{cls}.{name}" for cls, name in defined if name not in used
                  and not (name.startswith("__") and name.endswith("__")))


def test_unreferenced_method_detector():
    source = ("class C:\n    def f(self): pass\n    def g(self): pass\n"
              "    @property\n    def p(self): return 0\n    def __len__(self): return 0\n")
    assert unreferenced_methods([source], [source]) == ["C.f", "C.g", "C.p"]
    assert unreferenced_methods([source], ["C().f()\nsetattr(C, 'g', None)\n"]) == ["C.p"]
    assert unreferenced_methods(["def f(): pass\n"], []) == []  # module level: not a method


# overrides that the standard library calls: argparse calls _Parser.error
OVERRIDES = {"_Parser.error"}


def test_every_method_is_referenced():
    # a method that only tests call is unused: tests are not references
    package = Path(fedelim.__file__).parent
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    references = [path.read_text() for tree in ("src/fedelim", "demos", "perfbench")
                  for path in sorted((REPO / tree).rglob("*.py"))]
    assert [m for m in unreferenced_methods(sources, references) if m not in OVERRIDES] == []
