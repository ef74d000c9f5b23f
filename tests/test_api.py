"""The package namespace: ``__all__`` is exactly what a star import binds."""

import cobweb


def test_all_has_no_duplicates():
    assert len(cobweb.__all__) == len(set(cobweb.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in cobweb.__all__ if not hasattr(cobweb, name)]
    assert not missing


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cobweb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cobweb.__all__)
