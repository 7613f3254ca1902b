"""Brute-force reference for the axiom checks in cpda.validate.

Each axiom is checked straight from its definition over the raw cells: C1
by counting every column's stars, C2 over every pair of cells, C3 over
every symbol's covering labels. Nothing here uses the symbol index, so the
differential tests compare validate() against an independent reading.
"""

from __future__ import annotations

from cpda.model import STAR, PdaArray


def check_c1_bruteforce(array: PdaArray) -> bool:
    counts = {sum(1 for row in array.rows if row[j] is STAR) for j in range(array.k)}
    return len(counts) == 1


def check_c2_bruteforce(array: PdaArray) -> bool:
    """Quadratic all-cell-pairs check of C2."""
    cells = [
        (i, j, c)
        for i, row in enumerate(array.rows)
        for j, c in enumerate(row)
        if c is not STAR
    ]
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            i1, j1, s1 = cells[a]
            i2, j2, s2 = cells[b]
            if s1 != s2:
                continue
            if i1 == i2 or j1 == j2:
                return False
            if array.rows[i1][j2] is not STAR or array.rows[i2][j1] is not STAR:
                return False
    return True


def check_c3_bruteforce(array: PdaArray) -> bool:
    """Some relay lies in every column label that holds the symbol, for each symbol."""
    symbols = {c for row in array.rows for c in row if c is not STAR}
    for s in symbols:
        labels = [array.col_labels[j] for row in array.rows for j, c in enumerate(row) if c == s]
        if not any(all(h in lab for lab in labels) for h in range(1, array.h + 1)):
            return False
    return True
