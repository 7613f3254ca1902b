"""Checks for the three defining properties of these arrays.

C1: every column contains the same number Z of stars.
C2: each symbol id appears at most once per row and per column, and whenever
    it appears in two cells, each of the two cross cells (same row as one
    occurrence, same column as the other) is a star.
C3: for each symbol, the column labels where it occurs share at least one
    relay, so one relay can multicast that signal to all of its users.

C1 + C2 make the array a valid placement/delivery description for a shared
broadcast link; C3 is the extra routing property needed when the broadcast
is replaced by a layer of relays.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .combinat import common_relays, format_relays
from .model import STAR, PdaArray, SymbolInfo


class InvalidArrayError(ValueError):
    """Raised when an operation requires properties the array does not have."""


@dataclass(frozen=True)
class Violation:
    axiom: str  # "C1", "C2a", "C2b", "C3"
    symbol: int | None = None
    cells: tuple[tuple[int, int], ...] = ()  # 0-based (row, col) witnesses
    cols: tuple[int, ...] = ()  # 0-based column witnesses (C1, C3)
    note: str = ""

    def render(self, array: PdaArray) -> str:
        parts = [f"AXIOM={self.axiom} FAIL"]
        if self.symbol is not None:
            parts.append(f"symbol={self.symbol}")
        if self.cells:
            parts.append("rows=(" + ",".join(str(i + 1) for i, _ in self.cells) + ")")
            parts.append("cols=(" + ",".join(format_relays(array.col_labels[j]) for _, j in self.cells) + ")")
        elif self.cols:
            parts.append("cols=(" + ",".join(format_relays(array.col_labels[j]) for j in self.cols) + ")")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    is_pda: bool
    is_cpda: bool
    require_cpda: bool
    k: int
    f: int
    z: int | None  # common star count, None when C1 fails
    s: int  # distinct symbol count
    col_star_counts: tuple[int, ...]
    w_histogram: dict[int, int]  # width -> how many symbols have it
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.is_cpda if self.require_cpda else self.is_pda


def check_c1(counts: Sequence[int]) -> tuple[int | None, list[Violation]]:
    """C1 over the star count of every column, in column order."""
    lo, hi = min(counts), max(counts)
    if lo == hi:
        return lo, []
    return None, [
        Violation("C1", cols=(counts.index(lo), counts.index(hi)),
                  note=f"star counts {lo} != {hi}")
    ]


def check_c2(array: PdaArray, index: Mapping[int, SymbolInfo]) -> list[Violation]:
    out: list[Violation] = []
    for s, info in index.items():
        cells = info.occurrences
        rows_seen: dict[int, int] = {}
        cols_seen: dict[int, int] = {}
        dup = False
        for i, j in cells:
            if i in rows_seen:
                out.append(Violation("C2a", symbol=s, cells=((i, rows_seen[i]), (i, j)),
                                     note="repeats in a row"))
                dup = True
            if j in cols_seen:
                out.append(Violation("C2a", symbol=s, cells=((cols_seen[j], j), (i, j)),
                                     note="repeats in a column"))
                dup = True
            rows_seen[i] = j
            cols_seen[j] = i
        if dup:
            continue
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                (i1, j1), (i2, j2) = cells[a], cells[b]
                if array.rows[i1][j2] is not STAR:
                    out.append(Violation("C2b", symbol=s, cells=((i1, j2),),
                                         note=f"cross cell of ({i1 + 1},{i2 + 1}) not a star"))
                if array.rows[i2][j1] is not STAR:
                    out.append(Violation("C2b", symbol=s, cells=((i2, j1),),
                                         note=f"cross cell of ({i1 + 1},{i2 + 1}) not a star"))
    return out


def check_c3(array: PdaArray, index: Mapping[int, SymbolInfo]) -> list[Violation]:
    out: list[Violation] = []
    for s, info in index.items():
        if not info.common:
            out.append(Violation("C3", symbol=s,
                                 cols=tuple(j for _, j in info.occurrences),
                                 note="no relay serves every occurrence"))
    return out


def validate(array: PdaArray, require_cpda: bool = False) -> ValidationReport:
    """Run all checks and summarize; ok follows require_cpda."""
    index = array.symbol_index
    counts = tuple(array.star_count(j) for j in range(array.k))
    z, v1 = check_c1(counts)
    v2 = check_c2(array, index)
    v3 = check_c3(array, index)
    is_pda = not v1 and not v2
    hist: dict[int, int] = {}
    for info in index.values():
        hist[info.width] = hist.get(info.width, 0) + 1
    return ValidationReport(
        is_pda=is_pda,
        is_cpda=is_pda and not v3,
        require_cpda=require_cpda,
        k=array.k,
        f=array.f,
        z=z,
        s=len(index),
        col_star_counts=counts,
        w_histogram=hist,
        violations=tuple(v1 + v2 + v3),
    )


def reverify(array: PdaArray, violation: Violation) -> bool:
    """Confirm a reported violation by direct inspection of the named cells."""
    if violation.axiom == "C1":
        j1, j2 = violation.cols
        return array.star_count(j1) != array.star_count(j2)
    if violation.axiom == "C2a":
        (i1, j1), (i2, j2) = violation.cells
        same_line = i1 == i2 or j1 == j2
        return (
            same_line
            and (i1, j1) != (i2, j2)
            and array.rows[i1][j1] == array.rows[i2][j2]
            and array.rows[i1][j1] is not STAR
        )
    if violation.axiom == "C2b":
        ((i, j),) = violation.cells
        return array.rows[i][j] is not STAR
    if violation.axiom == "C3":
        return not common_relays(array.col_labels[j] for j in violation.cols)
    raise ValueError(f"unknown axiom {violation.axiom!r}")


def render_report(report: ValidationReport, array: PdaArray) -> str:
    """Human-facing summary plus one machine line per violation."""
    kind = "CPDA" if report.is_cpda else ("PDA" if report.is_pda else "not a PDA")
    z = "?" if report.z is None else str(report.z)
    hist = ", ".join(f"{w}:{n}" for w, n in sorted(report.w_histogram.items()))
    lines = [f"{kind} ({report.k},{report.f},{z},{report.s}), w: {{{hist}}}"]
    for v in report.violations:
        lines.append(v.render(array))
    return "\n".join(lines)
