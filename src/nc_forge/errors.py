"""Exception types shared across the package, and how messages show numbers."""

import decimal


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


class ResourceError(RuntimeError):
    """A request would exceed a configured memory or size budget."""


def show_int(n: int) -> str:
    """n in decimal, or 'a k-digit number' when n has more than 30 digits."""
    digits = decimal.Decimal(abs(n)).adjusted() + 1
    return str(n) if digits <= 30 else f"a {digits}-digit number"
