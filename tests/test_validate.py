from __future__ import annotations

import random

import pytest

from cpda.construct import c1p, c1pp, c2, mn_pda
from oracle_validate import check_c2_bruteforce

from cpda.model import STAR, PdaArray, build_symbol_index
from cpda.validate import (
    render_report,
    reverify,
    validate,
)

_ = STAR


def test_golden_array_is_cpda(worked_ex1):
    rep = validate(worked_ex1, require_cpda=True)
    assert rep.ok and rep.is_pda and rep.is_cpda
    assert (rep.k, rep.f, rep.z, rep.s) == (10, 5, 2, 10)
    assert rep.col_star_counts == (2,) * 10
    assert rep.w_histogram == {2: 10}
    assert rep.violations == ()


def test_render_report_summary_line(worked_ex1):
    rep = validate(worked_ex1, require_cpda=True)
    assert render_report(rep, worked_ex1) == "CPDA (10,5,2,10), w: {2:10}"


def with_cell(a: PdaArray, i: int, j: int, value) -> PdaArray:
    rows = [list(r) for r in a.rows]
    rows[i][j] = value
    return PdaArray(a.h, a.r, a.col_labels, tuple(tuple(r) for r in rows))


def test_duplicate_in_column_is_caught(worked_ex1):
    # second row of the first column changed 2 -> 1: symbol 1 twice in a column
    rep = validate(with_cell(worked_ex1, 1, 0, 1))
    assert not rep.is_pda
    axioms = {v.axiom for v in rep.violations}
    assert "C2a" in axioms


def test_cross_cell_violation_pure():
    # symbol 1 repeats with a shared relay but non-star cross cells
    bad = PdaArray(3, 2, ((1, 2), (1, 3)), ((1, 2), (3, 1)))
    rep = validate(bad)
    assert not rep.is_pda
    assert {v.axiom for v in rep.violations} == {"C2b"}
    assert all(reverify(bad, v) for v in rep.violations)


def test_star_count_violation():
    bad = PdaArray(2, 1, ((1,), (2,)), ((_, 1), (1, _), (_, 2)))
    rep = validate(bad)
    assert rep.z is None and not rep.is_pda
    v = [v for v in rep.violations if v.axiom == "C1"]
    assert len(v) == 1 and reverify(bad, v[0])
    assert "2 != 1" in v[0].note or "1 != 2" in v[0].note


def test_routing_violation_detected():
    arr = mn_pda(2, 1)
    assert arr.rows == ((_, 1), (1, _))
    rep = validate(arr)
    assert rep.is_pda and not rep.is_cpda
    assert rep.ok  # pda-level check passes
    assert not validate(arr, require_cpda=True).ok
    v = [v for v in rep.violations if v.axiom == "C3"]
    assert len(v) == 1 and v[0].symbol == 1
    assert reverify(arr, v[0])


def test_mn_family_never_routable():
    for k, t in [(4, 1), (4, 2), (5, 3)]:
        rep = validate(mn_pda(k, t), require_cpda=True)
        assert rep.is_pda and not rep.is_cpda


def test_all_star_array_is_vacuously_valid():
    arr = PdaArray(2, 1, ((1,), (2,)), ((_, _), (_, _)))
    rep = validate(arr, require_cpda=True)
    assert rep.ok and rep.is_cpda
    assert rep.z == 2 and rep.s == 0 and rep.w_histogram == {}


def test_built_families_validate():
    assert validate(c1p(5, 3, 1, 1), require_cpda=True).ok
    assert validate(c1pp(6, 3, 2, 1), require_cpda=True).ok
    assert validate(c2(5, 2, 2, 1), require_cpda=True).ok


def test_machine_lines_shape(worked_ex1):
    bad = with_cell(worked_ex1, 1, 0, 1)
    rep = validate(bad)
    lines = render_report(rep, bad).splitlines()
    assert lines[0].startswith("not a PDA") or lines[0].startswith("PDA")
    assert any(line.startswith("AXIOM=C2a FAIL symbol=1") for line in lines[1:])
    # witnesses carry 1-based rows and dash-formatted column labels
    assert any("rows=(" in line and "cols=(1-2-3" in line for line in lines[1:])


def test_fast_check_matches_bruteforce_under_mutation(worked_ex1):
    pool = [worked_ex1, c1p(4, 2, 2, 1), c2(4, 2, 2, 1), mn_pda(4, 2)]
    rng = random.Random(11)
    for _trial in range(120):
        base = rng.choice(pool)
        i = rng.randrange(base.f)
        j = rng.randrange(base.k)
        cur = base.rows[i][j]
        if cur is STAR or rng.random() < 0.4:
            value = rng.randint(1, 12)
        else:
            value = STAR
        mutated = with_cell(base, i, j, value)
        rep = validate(mutated)
        fast_ok = not [v for v in rep.violations if v.axiom in ("C2a", "C2b")]
        assert fast_ok == check_c2_bruteforce(mutated)


def test_reverify_rejects_unknown_axiom(worked_ex1):
    from cpda.validate import Violation

    with pytest.raises(ValueError):
        reverify(worked_ex1, Violation("C9"))


def test_widths_match_symbol_index(worked_ex1):
    index = build_symbol_index(worked_ex1)
    rep = validate(worked_ex1)
    hist: dict[int, int] = {}
    for info in index.values():
        hist[info.width] = hist.get(info.width, 0) + 1
    assert hist == rep.w_histogram
