"""Exact rational plumbing: Fractions in, ``a/b`` strings out.

All probabilities, bounds and gap widths in this library are
``fractions.Fraction`` values, which already guarantee lowest terms,
positive denominators and exact total order.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(q: Fraction) -> str:
    """Lowest-terms ``a/b``; whole numbers print bare (``1``, not ``1/1``)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``a/b`` or a bare integer into an exact Fraction.

    Malformed text and a zero denominator both raise ``ValueError``.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
