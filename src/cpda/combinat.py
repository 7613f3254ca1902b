"""Exact combinatorics over small ground sets of relay ids.

Relay sets are ascending tuples of 1-based integer ids. Enumeration order
everywhere is lexicographic on the ascending tuples; that single convention
fixes the row and column order of every array built on top of these
primitives. All arithmetic is exact (arbitrary precision integers).
"""

from __future__ import annotations

from decimal import Decimal
from itertools import combinations
from math import comb

RelaySet = tuple[int, ...]


def binomial(n: int, k: int) -> int:
    """Exact n-choose-k; zero when k is negative or exceeds n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def ksubsets(h: int, k: int) -> list[RelaySet]:
    """All k-subsets of {1, ..., h} as ascending tuples, in lexicographic order."""
    if not 0 <= k <= h:
        raise ValueError(f"subset size {k} out of range for ground set [1..{h}]")
    return list(combinations(range(1, h + 1), k))


def common_relays(labels) -> RelaySet:
    """Fold of intersections over a non-empty iterable of relay sets."""
    it = iter(labels)
    out = set(next(it))
    for lab in it:
        out &= set(lab)
    return tuple(sorted(out))


def format_int(n: int) -> str:
    """Decimal digits of an exact integer of any length.

    Since Python 3.11, str() refuses ints longer than
    sys.get_int_max_str_digits() (4,300 by default), and packet counts such
    as C(K1, t) pass that. The decimal module converts without the limit
    and leaves the process-wide setting alone. It is only the fallback
    because it leaves more memory resident than str().
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_relays(members: RelaySet) -> str:
    """Dash-joined text form, e.g. (1, 2, 3) -> "1-2-3"."""
    return "-".join(str(m) for m in members)


def parse_positive(text: str) -> int:
    """A positive integer in canonical form: ASCII digits, no sign, underscore or leading zero."""
    if not (text.isascii() and text.isdigit()) or text[0] == "0":
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def parse_relays(text: str) -> RelaySet:
    """Parse the dash-joined form back into an ascending tuple."""
    try:
        members = tuple(parse_positive(p) for p in text.split("-"))
    except ValueError:
        raise ValueError(f"bad relay set {text!r}") from None
    if list(members) != sorted(set(members)):
        raise ValueError(f"relay ids must be strictly ascending positive integers: {text!r}")
    return members
