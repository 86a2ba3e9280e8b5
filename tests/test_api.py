import importlib
import inspect

import pytest

import cliquecav


def test_all_lists_exactly_the_public_names_the_root_exposes():
    public = {
        name
        for name in dir(cliquecav)
        if not name.startswith("_") and not inspect.ismodule(getattr(cliquecav, name))
    }
    assert len(cliquecav.__all__) == len(set(cliquecav.__all__))
    assert set(cliquecav.__all__) == public == set(cliquecav._HOME)
    assert "__version__" in dir(cliquecav)


def test_each_root_name_is_the_object_its_home_module_defines():
    for name, module in cliquecav._HOME.items():
        home = importlib.import_module(f"cliquecav.{module}")
        value = getattr(cliquecav, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'cliquecav' has no attribute 'no_such_name'$"):
        cliquecav.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cliquecav import *", namespace)
    assert set(cliquecav.__all__) <= set(namespace)
    for name in cliquecav.__all__:
        assert namespace[name] is getattr(cliquecav, name)

