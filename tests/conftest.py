import sys

import pytest


@pytest.fixture
def int_digits():
    """sys.set_int_max_str_digits for one test; the limit in force before comes back after it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)
