"""Exception hierarchy shared by every module.

Exit-code contract of the CLI: DomainError family -> 2,
ConsistencyError and any unexpected exception -> 3, verification
mismatch -> 1.  A stdout closed before the output is written also exits
3, with nothing more written.  Nothing is searched under a budget: the
character of a cyclic quartic field is written down and then checked, and
a failed check, like any failed internal identity, is a ConsistencyError.
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
