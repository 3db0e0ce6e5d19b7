"""The lazy package namespace."""

import sys

import pytest

import mixedhurwitz


def test_every_public_name_resolves_to_its_home_object():
    for name in mixedhurwitz.__all__:
        obj = getattr(mixedhurwitz, name)
        assert obj.__module__.startswith("mixedhurwitz."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from mixedhurwitz import *", ns)
    assert {name: ns[name] for name in mixedhurwitz.__all__} == \
        {name: getattr(mixedhurwitz, name) for name in mixedhurwitz.__all__}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        mixedhurwitz.no_such_name
    assert not hasattr(mixedhurwitz, "no_such_name")
