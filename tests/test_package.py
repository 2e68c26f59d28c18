"""The package's public names: importable, resolvable, sorted and unique."""
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
