"""Deterministic array generators.

Every family is one cell rule over relay sets, fed to a single builder:
rows are labelled objects, columns are relay sets A, and rule(A, row) gives
either a star (None) or a hashable key naming the cell's symbol. Four
families are buildable:

* mn_pda(k, t): the classic single-server array on t-subset rows and
  single-user columns. It satisfies C1 and C2 but never C3 (for t >= 1 the
  covering columns of a symbol are disjoint singletons), so it serves as the
  canonical negative fixture for the relay-routing check.
* c1p / c1pp(h, r, b, lam): rows are b-subsets B, columns are r-subsets A,
  and a cell is a symbol exactly when |A intersect B| = lam. The two variants
  name that symbol differently: c1p keys it by ((A|B)-I, I) and c1pp by
  ((A|B)-I, A-B), with I = A intersect B. Same star pattern, different
  grouping of cells into signals, hence different S and signal widths.
* c2(h, r, b, lam): rows are pairs (B, Gamma) with Gamma a lam-subset of the
  b-set B; a cell is a symbol exactly when A is disjoint from Gamma and
  B is contained in A|Gamma, keyed by (A|Gamma, A-B).

Symbol ids are ints assigned at first encounter in row-major order, so every
generator output is already canonically numbered.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from itertools import combinations
from typing import TypeVar

from .combinat import RelaySet, format_relays, ksubsets
from .model import STAR, Cell, PdaArray

Row = TypeVar("Row")
SymbolKey = tuple[frozenset[int], frozenset[int]]


def check_c1_params(h: int, r: int, b: int, lam: int) -> None:
    """Range checks shared by both naming variants; raises ValueError with a stable message."""
    if not 0 < r < h:
        raise ValueError(f"need 0 < r < H, got r={r}, H={h}")
    if not 0 < b < h:
        raise ValueError(f"need 0 < b < H, got b={b}, H={h}")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    if lam > min(r, b):
        raise ValueError(f"need lambda <= min(r, b) = {min(r, b)}, got {lam}")
    if r + b - 2 * lam >= h:
        raise ValueError(f"need r + b - 2*lambda < H, got {r + b - 2 * lam} >= {h}")


def check_c2_params(h: int, r: int, b: int, lam: int) -> None:
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    if lam >= b:
        raise ValueError(f"need lambda < b, got lambda={lam}, b={b}")
    if not b < r + lam:
        raise ValueError(f"need b < r + lambda, got b={b}, r+lambda={r + lam}")
    if not r + lam < h:
        raise ValueError(f"need r + lambda < H, got {r + lam} >= {h}")


def _build(h: int, r: int, cols: list[RelaySet], rows: Iterable[tuple[str, Row]],
           rule: Callable[[frozenset[int], Row], Hashable | None]) -> PdaArray:
    """The one array builder: cell (row, A) is a star when rule(A, row) is None,
    else the id of its symbol key, numbered at first encounter in row-major order."""
    col_sets = [frozenset(aa) for aa in cols]
    ids: dict[Hashable, int] = {}
    cells: list[tuple[Cell, ...]] = []
    labels: list[str] = []
    for label, obj in rows:
        keys = (rule(aa, obj) for aa in col_sets)
        cells.append(tuple(STAR if key is None else ids.setdefault(key, len(ids) + 1) for key in keys))
        labels.append(label)
    return PdaArray(h, r, tuple(cols), tuple(cells), tuple(labels))


def _subset_rows(h: int, k: int) -> Iterator[tuple[str, frozenset[int]]]:
    return ((format_relays(s), frozenset(s)) for s in ksubsets(h, k))


def _c1_array(h: int, r: int, b: int, lam: int, prime: bool) -> PdaArray:
    check_c1_params(h, r, b, lam)

    def rule(aa: frozenset[int], bb: frozenset[int]) -> SymbolKey | None:
        i = aa & bb
        if len(i) != lam:
            return None
        return aa ^ bb, aa - bb if prime else i

    return _build(h, r, ksubsets(h, r), _subset_rows(h, b), rule)


def c1p(h: int, r: int, b: int, lam: int) -> PdaArray:
    """Variant keyed by ((A|B)-I, I); symbols repeat across choose(r+b-2*lam, r-lam) columns."""
    return _c1_array(h, r, b, lam, prime=False)


def c1pp(h: int, r: int, b: int, lam: int) -> PdaArray:
    """Variant keyed by ((A|B)-I, A-B); symbols repeat across choose(H-(r+b-2*lam), lam) columns."""
    return _c1_array(h, r, b, lam, prime=True)


def c2(h: int, r: int, b: int, lam: int) -> PdaArray:
    check_c2_params(h, r, b, lam)
    rows = (
        (f"{format_relays(bb)}|{format_relays(gg)}", (frozenset(bb), frozenset(gg)))
        for bb in ksubsets(h, b)
        for gg in combinations(bb, lam)
    )

    def rule(aa: frozenset[int], row: tuple[frozenset[int], frozenset[int]]) -> SymbolKey | None:
        bb, gg = row
        ag = aa | gg
        if aa & gg or not bb <= ag:
            return None
        return ag, aa - bb

    return _build(h, r, ksubsets(h, r), rows, rule)


def mn_pda(k: int, t: int) -> PdaArray:
    """Single-server array: rows are t-subsets of [k], column j stars rows containing j.

    Keying each symbol by the (t+1)-set column | row numbers the symbols in
    lexicographic order of those sets, because that is their row-major
    first-encounter order.
    """
    if not 0 < t < k:
        raise ValueError(f"need 0 < t < k, got t={t}, k={k}")
    return _build(k, 1, ksubsets(k, 1), _subset_rows(k, t),
                  lambda u, tt: None if u <= tt else u | tt)


FAMILIES = ("c1p", "c1pp", "c2", "mn")


def build_family(family: str, *, h: int | None = None, r: int | None = None,
                 b: int | None = None, lam: int | None = None,
                 k: int | None = None, t: int | None = None) -> PdaArray:
    """Dispatch by family name; mn takes (k, t), the rest take (h, r, b, lam)."""
    if family == "mn":
        if k is None or t is None:
            raise ValueError("family mn needs k and t")
        return mn_pda(k, t)
    if family in ("c1p", "c1pp", "c2"):
        if h is None or r is None or b is None or lam is None:
            raise ValueError(f"family {family} needs H, r, b, lambda")
        fn = {"c1p": c1p, "c1pp": c1pp, "c2": c2}[family]
        return fn(h, r, b, lam)
    raise ValueError(f"unknown family {family!r}, expected one of {', '.join(FAMILIES)}")
