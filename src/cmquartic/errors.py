"""Exception hierarchy shared by every module.

Exit-code contract of the CLI: DomainError family -> 2,
ConsistencyError and any unexpected exception -> 3, verification
mismatch -> 1.  A stdout closed before the output is written also exits
3, with nothing more written.  No search takes a budget: a search that
fails to settle its answer (such as the character selection of a cyclic
quartic field) is a ConsistencyError.
"""

from __future__ import annotations


class CMQuarticError(Exception):
    """Base class for all package errors."""


class DomainError(CMQuarticError, ValueError):
    """An input violates a documented precondition."""

    def __init__(self, message: str, code: str = "E_DOMAIN", precondition: str | None = None):
        super().__init__(message)
        self.code = code
        self.precondition = precondition


class ConsistencyError(CMQuarticError, AssertionError):
    """An internal identity failed; indicates a bug, never bad input."""

    code = "E_INTERNAL"
