"""Differential tests: the frontier scans in cpda.analysis against the brute-force oracle."""

from __future__ import annotations

from fractions import Fraction

import oracle_analysis as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpda.analysis import (
    check_dominance,
    compare_table,
    render_csv,
    scheme1_candidates,
    scheme3_candidates,
)

OUTSIDE = (Fraction(-1), Fraction(-1, 7), Fraction(8, 7), Fraction(2))


def probe_points(h: int, r: int) -> list[Fraction]:
    """Candidate memories and the exact midpoints between adjacent ones.

    A midpoint is equally far from the memory below and the memory above,
    so closest mode has to break a tie across both sides.
    """
    points: set[Fraction] = set()
    for cands in (scheme1_candidates(h, r), scheme3_candidates(h, r)):
        mems = sorted({c.memory_ratio for c in cands})
        points.update(mems)
        points.update((a + b) / 2 for a, b in zip(mems, mems[1:]))
    return sorted(points)


@st.composite
def shapes_and_grids(draw: st.DrawFn) -> tuple[int, int, list[Fraction]]:
    h = draw(st.integers(2, 14))
    r = draw(st.integers(1, h - 1))
    point = st.one_of(
        st.sampled_from(probe_points(h, r)),
        st.sampled_from(OUTSIDE),
        st.fractions(min_value=-1, max_value=2, max_denominator=100),
    )
    grid = draw(st.lists(point, max_size=20))
    if grid:
        grid += draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))
    return h, r, grid


def assert_same_table(h: int, r: int, grid: list[Fraction] | None, mode: str) -> None:
    want = oracle.compare_table(h, r, grid=grid, mode=mode)
    got = compare_table(h, r, grid=grid, mode=mode)
    assert got == want
    assert render_csv(got, h, r) == render_csv(want, h, r)


@settings(max_examples=150, deadline=None)
@given(shapes_and_grids())
def test_compare_table_matches_oracle_on_random_grids(case):
    h, r, grid = case
    for mode in ("closest", "exact"):
        assert_same_table(h, r, grid, mode)


def test_compare_table_grid_hits_every_tie_and_duplicate():
    # (12, 3): grouped, so scheme3 candidates exist and midpoints tie on both sides
    h, r = 12, 3
    grid = probe_points(h, r) + list(OUTSIDE)
    grid += grid[::3]
    for mode in ("closest", "exact"):
        assert_same_table(h, r, grid, mode)
    assert len(compare_table(h, r, grid=grid)) == len(grid)


@pytest.mark.parametrize("h", range(2, 11))
def test_compare_table_default_grid_matches_oracle(h):
    for r in range(1, h):
        for mode in ("closest", "exact"):
            assert_same_table(h, r, None, mode)


@pytest.mark.parametrize("h,r", [(h, r) for h in range(2, 17) for r in range(1, h) if h % r == 0])
def test_check_dominance_matches_oracle(h, r):
    assert check_dominance(h, r) == oracle.check_dominance(h, r)
