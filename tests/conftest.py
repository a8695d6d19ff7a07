"""Each test starts and ends with an empty `quadratic_field` memo and an
empty memo of per-prime-power code tables.

Counting tests then see cold memos whatever ran before them, and a field
whose unit or class number came from a monkeypatched function cannot
reach a later test.
"""

import pytest

from cmquartic import dirichlet, quadratic


@pytest.fixture(autouse=True)
def cold_field_memo():
    quadratic._field_memo.cache_clear()
    dirichlet._local_table.cache_clear()
    yield
    quadratic._field_memo.cache_clear()
    dirichlet._local_table.cache_clear()
