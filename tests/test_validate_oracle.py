"""Differential tests: validate() against the brute-force axiom checks."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_validate import check_c1_bruteforce, check_c2_bruteforce, check_c3_bruteforce

from cpda.combinat import ksubsets
from cpda.construct import c1p, c2, mn_pda
from cpda.model import STAR, PdaArray, canonical_relabel, format_array, parse_array
from cpda.validate import reverify, validate


@st.composite
def small_arrays(draw: st.DrawFn) -> PdaArray:
    """H, F <= 5, labels drawn from the r-subsets, cells a star or one of four symbols.

    Half the draws give every column the same number of stars, so that C1
    holds and C2 and C3 decide; the small alphabet makes repeated symbols,
    and so C2 and C3 failures, common.
    """
    h = draw(st.integers(1, 5))
    r = draw(st.integers(1, h))
    labels = draw(st.lists(st.sampled_from(ksubsets(h, r)), min_size=1, unique=True))
    f = draw(st.integers(1, 5))
    symbol = st.integers(1, 4)
    z = draw(st.one_of(st.none(), st.integers(0, f)))
    columns = []
    for _ in labels:
        if z is None:
            columns.append(draw(st.lists(st.one_of(st.just(STAR), symbol), min_size=f, max_size=f)))
        else:
            stars = draw(st.permutations(range(f)))[:z]
            columns.append([STAR if i in stars else draw(symbol) for i in range(f)])
    return PdaArray(h, r, tuple(labels), tuple(zip(*columns)))


@settings(max_examples=400, deadline=None)
@given(small_arrays())
def test_validate_matches_bruteforce(array):
    rep = validate(array)
    c1, c2, c3 = check_c1_bruteforce(array), check_c2_bruteforce(array), check_c3_bruteforce(array)
    assert rep.is_pda == (c1 and c2)
    assert rep.is_cpda == (c1 and c2 and c3)
    # each axiom on its own, since arrays that pass C1 and C2 but fail C3 are rare draws
    failed = {v.axiom[:2] for v in rep.violations}
    assert failed == {ax for ax, ok in (("C1", c1), ("C2", c2), ("C3", c3)) if not ok}
    assert all(reverify(array, v) for v in rep.violations)
    assert parse_array(format_array(array)) == canonical_relabel(array)


def test_every_single_cell_mutant_matches_bruteforce(worked_ex1):
    """Each cell of four small arrays set to a star, to every other symbol and to a new one."""
    mutants = 0
    for base in (worked_ex1, c1p(4, 2, 2, 1), c2(4, 2, 2, 1), mn_pda(4, 2)):
        values = [STAR, *base.symbol_index, max(base.symbol_index) + 1]
        for i, row in enumerate(base.rows):
            for j, cur in enumerate(row):
                for value in values:
                    if value == cur:
                        continue
                    rows = list(base.rows)
                    rows[i] = row[:j] + (value,) + row[j + 1:]
                    array = PdaArray(base.h, base.r, base.col_labels, tuple(rows))
                    rep = validate(array)
                    c1, c2_ok, c3 = (check_c1_bruteforce(array), check_c2_bruteforce(array),
                                     check_c3_bruteforce(array))
                    assert rep.is_pda == (c1 and c2_ok), (base, i, j, value)
                    assert rep.is_cpda == (c1 and c2_ok and c3), (base, i, j, value)
                    assert all(reverify(array, v) for v in rep.violations), (base, i, j, value)
                    mutants += 1
    assert mutants == 2074
