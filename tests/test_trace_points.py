"""The benchmark wraps layer functions from outside the program
(`bench/spans.py`); every traced name must still exist where it says, or a
benchmark run fails on it."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "spans.py")


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize("prefix,module_name,attr", TRACED,
                         ids=[prefix for prefix, _, _ in TRACED])
def test_traced_entry_resolves(prefix, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:  # a method, wrapped on its class
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth)), prefix
    else:
        assert callable(getattr(owner, attr, None)), prefix
