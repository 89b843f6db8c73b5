import importlib
import warnings

import numpy as np
import pytest
from hypothesis import settings

# No deadline (the first example of a property may compile or warm caches),
# no example database written into the checkout, and a failure prints the
# blob that reproduces it.  Each test keeps its own max_examples.
settings.register_profile("mpcadapter", deadline=None, database=None, print_blob=True)
settings.load_profile("mpcadapter")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    """When a property fails, hypothesis' pytest plugin imports its patch
    writer, and libcst's import there warns DeprecationWarning, which this
    suite's warning filter turns into an error that aborts the whole run.
    Import it first with that warning ignored, so the failure is reported."""
    if call.excinfo is not None and hasattr(getattr(item, "obj", None), "hypothesis"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            importlib.import_module("hypothesis.extra._patching")
    return (yield)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
