"""Brute-force reference for the comparison scans in cpda.analysis.

Every grid point is answered by scanning every candidate, and every
dominance check filters the whole candidate list, all in exact Fraction
arithmetic. This is O(G * C) per call and far too slow above (24, 4), but
it states the tie-breaking and the usable-candidate rules directly, so the
differential tests compare the frontier-based code against it.
"""

from __future__ import annotations

from fractions import Fraction

from cpda.analysis import (
    ComparisonRow,
    DominanceReport,
    SchemeParams,
    params_scheme2,
    scheme1_candidates,
    scheme3_candidates,
)
from cpda.combinat import binomial


def _pick(cands: list[SchemeParams]) -> SchemeParams:
    return min(cands, key=lambda c: (c.rate, c.f_eff, c.family, c.params))


def best_at(cands: list[SchemeParams], point: Fraction, mode: str = "closest") -> SchemeParams | None:
    if mode == "exact":
        hits = [c for c in cands if c.memory_ratio == point]
        return _pick(hits) if hits else None
    if mode != "closest":
        raise ValueError(f"mode must be 'closest' or 'exact', got {mode!r}")
    if not cands:
        return None
    gap = min(abs(c.memory_ratio - point) for c in cands)
    return _pick([c for c in cands if abs(c.memory_ratio - point) == gap])


def compare_table(
    h: int, r: int, grid: list[Fraction] | None = None, mode: str = "closest"
) -> list[ComparisonRow]:
    cands1 = scheme1_candidates(h, r)
    cands3 = scheme3_candidates(h, r)
    k1 = binomial(h - 1, r - 1)
    grouped = h % r == 0
    if grid is None:
        if grouped:
            grid = [Fraction(t, k1) for t in range(1, k1)]
        else:
            grid = sorted({c.memory_ratio for c in cands1})
    rows: list[ComparisonRow] = []
    for point in sorted(grid):
        s2 = None
        if grouped:
            t = point * k1
            if t.denominator == 1 and 1 <= t.numerator < k1:
                s2 = params_scheme2(h, r, t.numerator)
        rows.append(
            ComparisonRow(
                point=point,
                scheme1=best_at(cands1, point, mode),
                scheme2=s2,
                scheme3=best_at(cands3, point, mode) if cands3 else None,
            )
        )
    return rows


def check_dominance(h: int, r: int) -> DominanceReport:
    cands = scheme1_candidates(h, r)
    s2_checked = s2_skipped = 0
    s2_viol: list[int] = []
    s2_curve: list[int] = []
    factor_max: Fraction | None = None
    factor_arg: int | None = None
    if h % r == 0:
        k1 = binomial(h - 1, r - 1)
        for t in range(1, k1):
            base = params_scheme2(h, r, t)
            usable = [c for c in cands if c.memory_ratio <= base.memory_ratio]
            if not usable:
                s2_skipped += 1
                continue
            s2_checked += 1
            if not any(c.f_eff < base.f_eff for c in usable):
                s2_viol.append(t)
            best_rate = min(c.rate for c in usable)
            pick = _pick([c for c in usable if c.rate == best_rate])
            if pick.f_eff >= base.f_eff:
                s2_curve.append(t)
            if base.rate > 0:
                factor = best_rate / base.rate
                if factor_max is None or factor > factor_max:
                    factor_max, factor_arg = factor, t
    s3 = scheme3_candidates(h, r)
    s3_viol: list[tuple[int, int]] = []
    for base in s3:
        beats = any(
            c.memory_ratio <= base.memory_ratio and c.rate < base.rate and c.f_eff < base.f_eff
            for c in cands
        )
        if not beats:
            s3_viol.append((dict(base.params)["b"], dict(base.params)["lam"]))
    return DominanceReport(
        h=h,
        r=r,
        scheme2_checked=s2_checked,
        scheme2_skipped=s2_skipped,
        scheme2_violations=tuple(s2_viol),
        scheme2_curve_notes=tuple(s2_curve),
        rate_factor_max=factor_max,
        rate_factor_argmax=factor_arg,
        scheme3_checked=len(s3),
        scheme3_violations=tuple(s3_viol),
    )
