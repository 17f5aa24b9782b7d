"""The package namespace: every submodule is reachable as an attribute."""

import importlib
import pkgutil

import pytest

import gradiseg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(gradiseg.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    # a name re-exported from a submodule must not shadow the submodule
    module = importlib.import_module(f"gradiseg.{name}")
    assert getattr(gradiseg, name) is module


def test_every_exported_name_resolves():
    missing = [name for name in gradiseg.__all__ if not hasattr(gradiseg, name)]
    assert missing == []
