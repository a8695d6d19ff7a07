"""Each test starts and ends with an empty `quadratic_field` memo.

Counting tests then see a cold memo whatever ran before them, and a field
whose unit or class number came from a monkeypatched function cannot
reach a later test.
"""

import pytest

from cmquartic import quadratic


@pytest.fixture(autouse=True)
def cold_field_memo():
    quadratic._field_memo.cache_clear()
    yield
    quadratic._field_memo.cache_clear()
