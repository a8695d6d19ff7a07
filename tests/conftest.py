"""Each test starts and ends with an empty `quadratic_field` memo, an empty
per-modulus `unit_group` memo and an empty memo of per-prime-power local
groups.

Counting tests then see cold memos whatever ran before them, and a field
whose unit or class number came from a monkeypatched function cannot
reach a later test.
"""

import pytest

from cmquartic import dirichlet, quadratic


def _clear_memos():
    quadratic._field_memo.cache_clear()
    dirichlet.unit_group.cache_clear()
    dirichlet._local_table.cache_clear()


@pytest.fixture(autouse=True)
def cold_field_memo():
    _clear_memos()
    yield
    _clear_memos()
