"""Array model: an F x K grid of stars and symbol ids over labelled columns.

Columns are labelled by the r-subsets of relays that the corresponding user
attaches to. Rows are packet indices. A cell is either STAR (the packet is
cached by that user) or a positive integer symbol id (the packet is delivered
to that user inside coded signal number s). Row labels are optional free-form
strings used by the generators to record which combinatorial object produced
each row; they carry no semantics here.

Symbol ids only matter up to renaming. canonical_relabel fixes the
first-occurrence row-major numbering, and the text format always stores that
canonical form, so two arrays that differ only in symbol names serialize
identically.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .combinat import RelaySet, common_relays, format_relays, parse_positive, parse_relays

STAR = None

Cell = int | None


class ArrayFormatError(ValueError):
    """Raised when array text does not conform to the v1 format."""


@dataclass(frozen=True)
class PdaArray:
    h: int
    r: int
    col_labels: tuple[RelaySet, ...]
    rows: tuple[tuple[Cell, ...], ...]
    row_labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.r <= self.h:
            raise ValueError(f"need 1 <= r <= H, got r={self.r}, H={self.h}")
        if not self.col_labels:
            raise ValueError("need at least one column")
        seen: set[RelaySet] = set()
        for lab in self.col_labels:
            if len(lab) != self.r or list(lab) != sorted(set(lab)):
                raise ValueError(f"column label {lab} is not an ascending {self.r}-set")
            if lab[0] < 1 or lab[-1] > self.h:
                raise ValueError(f"column label {lab} outside ground set [1..{self.h}]")
            if lab in seen:
                raise ValueError(f"duplicate column label {lab}")
            seen.add(lab)
        if not self.rows:
            raise ValueError("need at least one row")
        k = len(self.col_labels)
        for i, row in enumerate(self.rows):
            if len(row) != k:
                raise ValueError(f"row {i + 1} has {len(row)} cells, expected {k}")
            for cell in row:
                if cell is not STAR and (not isinstance(cell, int) or cell < 1):
                    raise ValueError(f"row {i + 1}: cells must be STAR or positive ints, got {cell!r}")
        if self.row_labels is not None and len(self.row_labels) != len(self.rows):
            raise ValueError("row_labels length does not match row count")

    @property
    def f(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.col_labels)

    def star_count(self, j: int) -> int:
        return sum(1 for row in self.rows if row[j] is STAR)

    @cached_property
    def symbol_index(self) -> Mapping[int, SymbolInfo]:
        """build_symbol_index, derived on first use and shared read-only after that.

        The array is immutable, so every consumer (validation, library sizing,
        placement, delivery planning, rates) can read the same index.
        """
        return MappingProxyType(build_symbol_index(self))

    def __getstate__(self) -> dict[str, object]:
        # a mappingproxy cannot be pickled; the copy derives its own index on first use
        return {k: v for k, v in self.__dict__.items() if k != "symbol_index"}


@dataclass(frozen=True)
class SymbolInfo:
    """Where one symbol occurs and which relays can serve all of its users."""

    occurrences: tuple[tuple[int, int], ...]  # (row, col) 0-based, row-major
    common: RelaySet  # intersection of the column labels at the occurrences

    @property
    def width(self) -> int:
        return len(self.common)


def build_symbol_index(array: PdaArray) -> dict[int, SymbolInfo]:
    """Map each symbol id to its occurrence cells, keyed in first-occurrence order."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(array.rows):
        for j, cell in enumerate(row):
            if cell is not STAR:
                occ.setdefault(cell, []).append((i, j))
    index: dict[int, SymbolInfo] = {}
    for s, cells in occ.items():
        index[s] = SymbolInfo(tuple(cells), common_relays(array.col_labels[j] for _, j in cells))
    return index


def canonical_relabel(array: PdaArray) -> PdaArray:
    """Rename symbols to 1..S in first-occurrence row-major order."""
    rename: dict[int, int] = {}
    new_rows: list[tuple[Cell, ...]] = []
    for row in array.rows:
        out: list[Cell] = []
        for cell in row:
            if cell is STAR:
                out.append(STAR)
            else:
                if cell not in rename:
                    rename[cell] = len(rename) + 1
                out.append(rename[cell])
        new_rows.append(tuple(out))
    return PdaArray(array.h, array.r, array.col_labels, tuple(new_rows), array.row_labels)


def equivalent_up_to_symbols(a: PdaArray, b: PdaArray) -> bool:
    """True when the arrays differ at most in how symbols are named."""
    if (a.h, a.r, a.col_labels) != (b.h, b.r, b.col_labels):
        return False
    return canonical_relabel(a).rows == canonical_relabel(b).rows


def format_array(array: PdaArray) -> str:
    """Serialize in the v1 text format; symbols come out canonically numbered."""
    arr = canonical_relabel(array)
    lines = [
        "#CPDA v1",
        f"H {arr.h}",
        f"r {arr.r}",
        f"F {arr.f}",
        f"K {arr.k}",
        "cols " + " ".join(format_relays(lab) for lab in arr.col_labels),
    ]
    for row in arr.rows:
        lines.append(" ".join("*" if c is STAR else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _header_int(lines: list[str], lineno: int, key: str) -> int:
    if lineno > len(lines):
        raise ArrayFormatError(f"line {lineno}: missing '{key}' line")
    parts = lines[lineno - 1].split(" ")
    if len(parts) != 2 or parts[0] != key:
        raise ArrayFormatError(f"line {lineno}: expected '{key} <int>', got {lines[lineno - 1]!r}")
    try:
        return parse_positive(parts[1])
    except ValueError as e:
        raise ArrayFormatError(f"line {lineno}: {key}: {e}") from None


def parse_array(text: str) -> PdaArray:
    """Parse the v1 text format, strictly: exact header, single spaces, trailing newline."""
    if not text.endswith("\n"):
        raise ArrayFormatError("missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != "#CPDA v1":
        raise ArrayFormatError("line 1: expected '#CPDA v1' header")
    h = _header_int(lines, 2, "H")
    r = _header_int(lines, 3, "r")
    f = _header_int(lines, 4, "F")
    k = _header_int(lines, 5, "K")
    if len(lines) < 6 or not lines[5].startswith("cols "):
        raise ArrayFormatError("line 6: expected 'cols <label> ...'")
    label_tokens = lines[5][len("cols "):].split(" ")
    if len(label_tokens) != k:
        raise ArrayFormatError(f"line 6: expected {k} column labels, got {len(label_tokens)}")
    try:
        col_labels = tuple(parse_relays(tok) for tok in label_tokens)
    except ValueError as e:
        raise ArrayFormatError(f"line 6: {e}") from None
    if len(lines) != 6 + f:
        raise ArrayFormatError(f"expected {6 + f} lines, got {len(lines)}")
    rows: list[tuple[Cell, ...]] = []
    for i in range(f):
        lineno = 7 + i
        tokens = lines[6 + i].split(" ")
        if len(tokens) != k:
            raise ArrayFormatError(f"line {lineno}: expected {k} cells, got {len(tokens)}")
        row: list[Cell] = []
        for tok in tokens:
            if tok == "*":
                row.append(STAR)
            else:
                try:
                    row.append(parse_positive(tok))
                except ValueError:
                    raise ArrayFormatError(f"line {lineno}: bad cell {tok!r}") from None
        rows.append(tuple(row))
    try:
        return PdaArray(h, r, col_labels, tuple(rows))
    except ValueError as e:
        raise ArrayFormatError(str(e)) from None


def write_array(array: PdaArray, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_array(array))


def read_array(path: str | os.PathLike[str]) -> PdaArray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_array(fh.read())
