"""Each test starts and ends with every memo of the package empty: every
module-level name of a loaded `cmquartic` module that has a
`cache_clear`, such as the `quadratic_field` memo, the per-modulus
`unit_group` memo, the per-prime-power local groups, the B1 kernel's
one-block lambda columns and the cyclic character check's square roots.
A memo added later is found the same way, with no edit here.

Counting tests then see cold memos whatever ran before them, and a field
whose unit or class number came from a monkeypatched function cannot
reach a later test.
"""

import sys

import pytest

import cmquartic  # noqa: F401  (no submodule: `_clear_memos` reads those loaded)


def _clear_memos():
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "cmquartic":
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def cold_field_memo():
    _clear_memos()
    yield
    _clear_memos()
