import contextlib
import sys
import warnings

import pytest
from hypothesis import settings

# Hypothesis's pytest plugin imports this module to report a failing example.
# Where libcst is installed, that import warns (a DeprecationWarning from
# mypy_extensions), and the "error" warning filter would turn the report into
# an INTERNALERROR that hides the example and ends the session.  Importing it
# once here, with the warning ignored, keeps the report.  Without libcst the
# import fails, and the plugin reports without it.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# Every run draws the same examples, and a slow first example is no failure;
# each test keeps its own example count.
settings.register_profile("permpat", derandomize=True, deadline=None)
settings.load_profile("permpat")


@pytest.fixture
def int_max_str_digits():
    """sys.set_int_max_str_digits for one test; the old limit comes back after it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
