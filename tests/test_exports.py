"""Every exported name resolves: a name left in an ``__all__`` after its
definition is gone fails here, not in a user's ``from ... import *``."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import archive_recommender

MODULES = [
    archive_recommender.__name__,
    *(f"{archive_recommender.__name__}.{info.name}" for info in pkgutil.iter_modules(archive_recommender.__path__)),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # the CLI module exports nothing
    assert len(exported) == len(set(exported)), "a name is exported twice"
    assert [export for export in exported if not hasattr(module, export)] == []
