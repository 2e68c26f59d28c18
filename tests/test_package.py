"""The package's public names: importable, resolvable, sorted and unique."""
import ast
from pathlib import Path

import fedelim


def test_star_import_succeeds():
    namespace = {}
    exec("from fedelim import *", namespace)
    assert set(fedelim.__all__) <= set(namespace)


def test_every_exported_name_resolves():
    missing = [name for name in fedelim.__all__ if not hasattr(fedelim, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    assert fedelim.__all__ == sorted(set(fedelim.__all__))


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
