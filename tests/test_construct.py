from __future__ import annotations

import hashlib

import pytest

from cpda.combinat import binomial, ksubsets
from cpda.construct import build_family, c1p, c1pp, c2, mn_pda
from cpda.model import STAR, build_symbol_index, equivalent_up_to_symbols, format_array
from cpda.validate import validate

from conftest import EX1_ROWS_CANONICAL

_ = STAR


def measured(arr):
    rep = validate(arr)
    return rep.k, rep.f, rep.z, rep.s


def test_c1pp_reproduces_golden_array(worked_ex1):
    arr = c1pp(5, 3, 1, 1)
    assert measured(arr) == (10, 5, 2, 10)
    assert arr.rows == EX1_ROWS_CANONICAL
    assert equivalent_up_to_symbols(arr, worked_ex1)
    assert arr.row_labels == ("1", "2", "3", "4", "5")


def test_c1p_parameters_and_single_occurrence():
    arr = c1p(5, 3, 1, 1)
    assert measured(arr) == (10, 5, 2, 30)
    index = build_symbol_index(arr)
    assert all(len(i.occurrences) == 1 for i in index.values())
    # lone occurrences route through the whole column label
    assert all(i.width == 3 for i in index.values())


def test_c1_cell_rules():
    arr = c1p(5, 3, 1, 1)
    cols = {lab: j for j, lab in enumerate(arr.col_labels)}
    # row order is the b-subsets, here singletons 1..5
    assert arr.rows[0][cols[(1, 2, 3)]] is not STAR  # |{1} & {1,2,3}| = 1
    assert arr.rows[3][cols[(1, 2, 3)]] is STAR  # |{4} & {1,2,3}| = 0
    assert arr.rows[4][cols[(2, 4, 5)]] is not STAR


def test_c1_variants_share_star_pattern():
    for h, r, b, lam in [(5, 3, 1, 1), (6, 3, 2, 1), (6, 2, 3, 2)]:
        a, b_ = c1p(h, r, b, lam), c1pp(h, r, b, lam)
        stars_a = [[c is STAR for c in row] for row in a.rows]
        stars_b = [[c is STAR for c in row] for row in b_.rows]
        assert stars_a == stars_b


def test_c1pp_remark_case():
    assert measured(c1pp(5, 3, 2, 2)) == (10, 10, 7, 5)


def test_c1_symbol_multiplicity_structure():
    # p variant: each symbol in choose(s, r-lam) columns, common part of size lam
    arr = c1p(6, 3, 2, 1)
    index = build_symbol_index(arr)
    assert all(len(i.occurrences) == 3 for i in index.values())  # C(3,2)
    assert all(i.width == 1 for i in index.values())
    # pp variant: choose(H-s, lam) columns, common part of size r-lam
    arr = c1pp(6, 3, 2, 1)
    index = build_symbol_index(arr)
    assert all(len(i.occurrences) == 3 for i in index.values())  # C(3,1)
    assert all(i.width == 2 for i in index.values())


def test_c1pp_with_lam_equal_r_is_unroutable_pda():
    arr = c1pp(6, 2, 3, 2)
    rep = validate(arr)
    assert rep.is_pda and not rep.is_cpda
    assert all(i.width == 0 for i in build_symbol_index(arr).values())
    # the p naming of the same star pattern stays routable
    assert validate(c1p(6, 2, 3, 2), require_cpda=True).ok


def test_c1_all_star_corner():
    arr = c1p(5, 4, 4, 2)  # no cell can satisfy the intersection rule
    rep = validate(arr, require_cpda=True)
    assert rep.ok and rep.s == 0 and rep.z == rep.f


def test_c2_parameters():
    arr = c2(5, 2, 2, 1)
    assert measured(arr) == (10, 20, 14, 30)
    assert arr.f == binomial(5, 2) * binomial(2, 1)
    index = build_symbol_index(arr)
    assert all(i.width == 1 for i in index.values())
    assert all(len(i.occurrences) == 2 for i in index.values())  # C(b, lam)


def test_c2_row_order_and_labels():
    arr = c2(5, 2, 2, 1)
    assert arr.row_labels[:4] == ("1-2|1", "1-2|2", "1-3|1", "1-3|3")


def test_c2_cell_rule():
    arr = c2(5, 2, 2, 1)
    cols = {lab: j for j, lab in enumerate(arr.col_labels)}
    # row (B={1,2}, Gamma={1}): A={2,3} works, A={3,4} misses 2
    assert arr.rows[0][cols[(2, 3)]] is not STAR
    assert arr.rows[0][cols[(3, 4)]] is STAR
    # A={2,3} and A={2,4} share the symbol ((1,2,*),(*)) only if unions match
    s1 = arr.rows[0][cols[(2, 3)]]
    occ = build_symbol_index(arr)[s1].occurrences
    assert (0, cols[(2, 3)]) in occ


def test_c2_grid_is_routable():
    for h, r, b, lam in [(5, 2, 2, 1), (5, 3, 2, 1), (6, 3, 2, 1), (7, 4, 3, 2)]:
        rep = validate(c2(h, r, b, lam), require_cpda=True)
        assert rep.ok


def test_mn_shape_and_values():
    arr = mn_pda(4, 2)
    assert measured(arr) == (4, 6, 3, 4)
    assert arr.rows[0] == (_, _, 1, 2)  # T = {1,2}
    assert mn_pda(2, 1).rows == ((_, 1), (1, _))


def test_generators_are_deterministic():
    assert c1pp(5, 3, 1, 1) == c1pp(5, 3, 1, 1)
    assert c2(5, 2, 2, 1) == c2(5, 2, 2, 1)


@pytest.mark.parametrize(
    "args,msg",
    [
        ((3, 2, 2, 0), "lambda must be >= 1"),
        ((5, 5, 1, 1), "0 < r < H"),
        ((5, 3, 5, 1), "0 < b < H"),
        ((5, 3, 2, 3), "lambda <= min"),
        ((8, 7, 7, 1), "r + b - 2*lambda < H"),
    ],
)
def test_c1_parameter_errors(args, msg):
    with pytest.raises(ValueError) as e:
        c1p(*args)
    assert msg in str(e.value)
    with pytest.raises(ValueError):
        c1pp(*args)


@pytest.mark.parametrize(
    "args,msg",
    [
        ((6, 2, 3, 0), "lambda must be >= 1"),
        ((5, 2, 2, 2), "lambda < b"),
        ((5, 2, 4, 1), "b < r + lambda"),
        ((5, 4, 2, 1), "r + lambda < H"),
    ],
)
def test_c2_parameter_errors(args, msg):
    with pytest.raises(ValueError) as e:
        c2(*args)
    assert msg in str(e.value)


def test_mn_parameter_errors():
    for k, t in [(4, 0), (4, 4), (3, 5)]:
        with pytest.raises(ValueError):
            mn_pda(k, t)


def test_build_family_dispatch():
    assert build_family("c1pp", h=5, r=3, b=1, lam=1) == c1pp(5, 3, 1, 1)
    assert build_family("mn", k=4, t=2) == mn_pda(4, 2)
    with pytest.raises(ValueError):
        build_family("nope", h=5, r=3, b=1, lam=1)
    with pytest.raises(ValueError):
        build_family("c2", h=5, r=2)
    with pytest.raises(ValueError):
        build_family("mn", k=4)


def test_columns_are_lex_subsets():
    arr = c1p(5, 3, 1, 1)
    assert list(arr.col_labels) == ksubsets(5, 3)


def _every_small_array():
    """Every buildable c1p, c1pp and c2 tuple with 3 <= H <= 8, then mn_pda(k, t) for k <= 9."""
    for h in range(3, 9):
        for r in range(1, h):
            for b in range(1, h):
                for lam in range(1, min(r, b) + 1):
                    if r + b - 2 * lam < h:
                        yield c1p, (h, r, b, lam)
                        yield c1pp, (h, r, b, lam)
            for lam in range(1, h - r):
                for b in range(lam + 1, r + lam):
                    yield c2, (h, r, b, lam)
    for k in range(2, 10):
        for t in range(1, k):
            yield mn_pda, (k, t)


# sha256 over the 684 arrays of _every_small_array, recorded from the
# generators as they were before they shared one builder
SMALL_ARRAYS_SHA256 = "42202e8beb25bba8db4634ddd0b98b00805e72e787d7e79c86cd440ef30476b9"


def test_generator_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    for fn, args in _every_small_array():
        arr = fn(*args)
        digest.update(f"{fn.__name__}{args}\n".encode())
        digest.update(format_array(arr).encode())
        digest.update(repr(arr.rows).encode())
        digest.update(("|".join(arr.row_labels) + "\n").encode())
    assert digest.hexdigest() == SMALL_ARRAYS_SHA256
