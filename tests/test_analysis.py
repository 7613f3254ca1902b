from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from cpda.analysis import (
    CSV_HEADER,
    NotApplicableError,
    best_at,
    check_dominance,
    compare_table,
    params_c1,
    params_c2,
    params_scheme2,
    params_scheme3,
    rate_from_array,
    render_csv,
    render_dominance,
    scheme1_candidates,
    scheme2_series,
    scheme3_candidates,
)
from cpda.combinat import binomial
from cpda.construct import c1p, c1pp, c2, mn_pda
from cpda.validate import InvalidArrayError


def test_c1pp_params_golden():
    p = params_c1(5, 3, 1, 1, "pp")
    assert (p.k, p.f_rows, p.s_count, p.w) == (10, 5, 10, 2)
    assert p.memory_ratio == Fraction(2, 5)
    assert p.rate == Fraction(2, 5)
    assert p.f_eff == 10 and p.f_eff_full_split == 25
    assert p.label == "c1pp(b=1;lam=1)"

    q = params_c1(5, 3, 2, 2, "pp")
    assert q.memory_ratio == Fraction(7, 10)
    assert (q.s_count, q.w, q.f_eff) == (5, 1, 10)
    assert q.rate == Fraction(1, 10)


def test_c1p_single_occurrence_widths():
    # b = lam pools nothing: 30 one-cell signals routed over whole labels
    p = params_c1(5, 3, 1, 1, "p")
    assert (p.s_count, p.w) == (30, 3)
    assert p.rate == Fraction(6, 5)
    assert p.f_eff == 15


def test_c1pp_boundary_window_widths():
    # H = r+b-lam also pools nothing, so w is r rather than r-lam
    p = params_c1(7, 4, 4, 1, "pp")
    assert (p.s_count, p.w, p.f_eff) == (140, 4, 140)
    assert p.memory_ratio == Fraction(31, 35)
    assert p.rate == Fraction(4, 7)


def test_c1_all_star_window():
    p = params_c1(5, 4, 4, 2, "p")
    assert p.memory_ratio == 1
    assert (p.s_count, p.w, p.rate) == (0, None, 0)
    assert p.f_eff == p.f_rows == 5


def test_c1pp_refuses_unroutable_setting():
    with pytest.raises(ValueError, match="cannot be routed"):
        params_c1(6, 2, 3, 2, "pp")
    with pytest.raises(ValueError, match="variant"):
        params_c1(5, 3, 1, 1, "x")


def test_c2_params_golden():
    p = params_c2(5, 2, 2, 1)
    assert (p.k, p.f_rows, p.s_count, p.w) == (10, 20, 30, 1)
    assert p.memory_ratio == Fraction(7, 10)
    assert p.rate == Fraction(3, 10)
    assert p.f_eff == 20 and p.f_eff_full_split == 100

    q = params_c2(6, 3, 2, 1)
    assert q.memory_ratio == Fraction(7, 10)
    assert q.rate == Fraction(1, 2)
    assert (q.w, q.f_eff) == (2, 60)

    assert params_c2(5, 3, 2, 1).f_eff == 40


def test_scheme2_params():
    p = params_scheme2(4, 2, 1)
    assert (p.k, p.f_rows, p.w) == (6, 3, 1)
    assert p.memory_ratio == Fraction(1, 3)
    assert p.rate == Fraction(1, 2)
    assert p.f_eff == 6 and p.f_eff_full_split == 12

    big = params_scheme2(20, 4, 968)
    assert big.memory_ratio == Fraction(968, 969)
    assert big.rate == Fraction(1, 3876)

    with pytest.raises(NotApplicableError):
        params_scheme2(5, 2, 1)
    with pytest.raises(ValueError):
        params_scheme2(4, 2, 0)
    with pytest.raises(ValueError):
        params_scheme2(4, 2, 3)


@pytest.mark.parametrize("h,r", [(4, 2), (12, 3), (20, 4), (24, 4)])
def test_scheme2_series_equals_closed_form(h, r):
    k1 = binomial(h - 1, r - 1)
    assert list(scheme2_series(h, r)) == [params_scheme2(h, r, t) for t in range(1, k1)]


def test_scheme2_series_needs_grouping():
    with pytest.raises(NotApplicableError):
        list(scheme2_series(5, 2))


def test_render_csv_prints_integers_past_the_str_limit():
    # at (30, 5) scheme2 has K1 = 23751, and F_eff = 5 * C(23751, 11875) has 7,149 digits
    rows = compare_table(30, 5, grid=[Fraction(11875, 23751)])
    lines = render_csv(rows, 30, 5).strip().split("\n")
    s2 = [line.split(",") for line in lines if ",scheme2," in line]
    assert len(s2) == 1 and s2[0][3] == "t=11875"
    digits = s2[0][8]
    assert digits.isdigit() and len(digits) == 7149
    assert int(Decimal(digits)) == 5 * comb(23751, 11875)


def test_scheme3_params():
    p = params_scheme3(4, 2, 1, 1)
    assert p.s_count == 1
    assert p.memory_ratio == Fraction(2, 3)
    assert p.rate == Fraction(1, 6)
    assert p.f_rows == 6 and p.f_eff == 24

    big = params_scheme3(20, 4, 3, 3)
    assert big.memory_ratio == Fraction(968, 969)
    assert big.rate == Fraction(1, 3876)
    assert big.f_eff == 77520

    with pytest.raises(NotApplicableError):
        params_scheme3(5, 2, 1, 1)
    with pytest.raises(NotApplicableError, match="base parameters invalid"):
        params_scheme3(4, 2, 3, 1)
    with pytest.raises(NotApplicableError):
        params_scheme3(4, 1, 1, 1)


def test_rate_from_array(worked_ex1):
    assert rate_from_array(worked_ex1) == {h: Fraction(2, 5) for h in range(1, 6)}
    assert rate_from_array(c2(5, 2, 2, 1)) == {h: Fraction(3, 10) for h in range(1, 6)}
    with pytest.raises(InvalidArrayError):
        rate_from_array(mn_pda(4, 2))


def test_calculators_match_built_arrays():
    cases = [
        (params_c1(5, 3, 1, 1, "pp"), c1pp(5, 3, 1, 1)),
        (params_c1(6, 3, 2, 1, "p"), c1p(6, 3, 2, 1)),
        (params_c2(6, 3, 2, 1), c2(6, 3, 2, 1)),
    ]
    for p, arr in cases:
        assert rate_from_array(arr) == {h: p.rate for h in range(1, p.h + 1)}
        assert arr.k == p.k and arr.f == p.f_rows
        assert len(list(arr.symbol_index)) == p.s_count


def test_memory_dips_before_rising_in_lambda():
    # memory is not monotone in lam: it can fall before it climbs
    ms = [params_c1(5, 3, 3, lam, "p").memory_ratio for lam in (1, 2, 3)]
    assert ms == [Fraction(7, 10), Fraction(2, 5), Fraction(9, 10)]
    assert not ms[0] <= ms[1] <= ms[2]


def test_memory_vs_lambda_is_valley_shaped():
    # After any leading all-full plateau the memory ratio strictly falls,
    # takes at most one flat step, then strictly rises.
    windows = 0
    for h in range(3, 9):
        for r in range(1, h):
            for b in range(1, h):
                lams = [l for l in range(1, min(r, b) + 1) if r + b - 2 * l < h]
                if len(lams) < 2:
                    continue
                ms = [params_c1(h, r, b, l, "p").memory_ratio for l in lams]
                while len(ms) > 1 and ms[0] == 1 and ms[1] == 1:
                    ms.pop(0)
                signs = "".join(
                    "d" if y < x else ("z" if y == x else "u") for x, y in zip(ms, ms[1:])
                )
                assert re.fullmatch(r"d*z?u*", signs), (h, r, b, signs)
                windows += 1
    assert windows == 91


def test_scheme1_candidate_enumeration():
    cands = scheme1_candidates(4, 2)
    got = sorted((c.family, dict(c.params)["b"], dict(c.params)["lam"]) for c in cands)
    assert got == [
        ("c1p", 1, 1),
        ("c1p", 2, 1),
        ("c1p", 2, 2),
        ("c1p", 3, 1),
        ("c1p", 3, 2),
        ("c1pp", 1, 1),
        ("c1pp", 2, 1),
        ("c1pp", 3, 1),
        ("c2", 2, 1),
    ]
    assert len(scheme3_candidates(4, 2)) == 2
    assert scheme3_candidates(5, 2) == []


def test_best_at_modes():
    cands = scheme1_candidates(4, 2)
    exact = best_at(cands, Fraction(1, 3), mode="exact")
    assert exact is not None and exact.label == "c1p(b=2;lam=1)"
    assert best_at(cands, Fraction(1, 4), mode="exact") is None
    near = best_at(cands, Fraction(1, 4), mode="closest")
    assert near is not None and near.memory_ratio == Fraction(1, 3)
    # ties at the same memory break toward lower rate: 2/3 hits c2 at rate 1/4
    assert best_at(cands, Fraction(2, 3)).rate == Fraction(1, 4)
    with pytest.raises(ValueError):
        best_at(cands, Fraction(1, 2), mode="weird")


def test_compare_table_ungrouped():
    rows = compare_table(5, 3)
    points = {c.memory_ratio for c in scheme1_candidates(5, 3)}
    assert [row.point for row in rows] == sorted(points)
    assert all(row.scheme2 is None and row.scheme3 is None for row in rows)
    assert all(row.scheme1 is not None for row in rows)


def test_compare_table_grouped():
    rows = compare_table(4, 2)
    assert [row.point for row in rows] == [Fraction(1, 3), Fraction(2, 3)]
    assert all(row.scheme2 is not None and row.scheme3 is not None for row in rows)
    assert rows[0].scheme2.params == (("t", 1),)
    assert rows[1].scheme1.family == "c2"


def test_render_csv_shape():
    rows = compare_table(4, 2)
    text = render_csv(rows, 4, 2)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * len(rows)
    n_fields = len(CSV_HEADER.split(","))
    assert all(len(line.split(",")) == n_fields for line in lines)
    # factor column is populated only on buildable-family rows with a baseline
    buildable = ("c1p", "c1pp", "c2")
    pairs = [(line.split(",")[2], line.split(",")[-1]) for line in lines[1:]]
    assert [f for name, f in pairs if name in buildable] == ["1/1", "3/2"]
    assert all(f == "" for name, f in pairs if name not in buildable)


def test_render_csv_inapplicable_rows():
    text = render_csv(compare_table(5, 3), 5, 3)
    for line in text.strip().split("\n")[1:]:
        fields = line.split(",")
        if fields[2] in ("scheme2", "scheme3"):
            assert fields[9] == "false" and fields[8] == ""
        else:
            assert fields[9] == "true" and fields[8] != ""


def test_dominance_small_grouped_network():
    rep = check_dominance(4, 2)
    assert (rep.scheme2_checked, rep.scheme2_skipped) == (2, 0)
    assert rep.scheme2_violations == (1,)
    assert rep.scheme2_curve_notes == (1,)
    assert rep.rate_factor_max == Fraction(3, 2) and rep.rate_factor_argmax == 2
    assert rep.scheme3_checked == 2
    assert rep.scheme3_violations == ((1, 1), (2, 1))
    assert not rep.ok
    text = render_dominance(rep)
    assert "VIOLATIONS FOUND" in text
    assert "violating t: 1" in text
    assert "violating (b,lam): (1,1), (2,1)" in text


def test_dominance_ungrouped_skips_baselines():
    rep = check_dominance(5, 3)
    assert rep.scheme2_checked == 0 and rep.scheme3_checked == 0
    assert rep.ok
    assert "result: ok" in render_dominance(rep)


@pytest.mark.parametrize("h, r", [(4, 0), (3, -1), (2, 5), (-4, 2), (3, 3)])
def test_every_entry_point_refuses_a_shape_outside_zero_r_h(h, r):
    calls = [
        lambda: compare_table(h, r),
        lambda: compare_table(h, r, grid=[Fraction(1, 2)]),
        lambda: check_dominance(h, r),
        lambda: scheme1_candidates(h, r),
        lambda: scheme3_candidates(h, r),
        lambda: list(scheme2_series(h, r)),
        lambda: params_scheme2(h, r, 1),
        lambda: params_scheme3(h, r, 1, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"need 0 < r < H"):
            call()
