import sys

import pytest


@pytest.fixture
def int_max_str_digits():
    """sys.set_int_max_str_digits for one test; the old limit comes back after it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
