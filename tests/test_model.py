from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpda.construct import c1pp, c2, mn_pda
from cpda.model import (
    STAR,
    ArrayFormatError,
    PdaArray,
    build_symbol_index,
    canonical_relabel,
    equivalent_up_to_symbols,
    format_array,
    parse_array,
    read_array,
    write_array,
)
from conftest import EX1_ROWS_CANONICAL

_ = STAR


def small() -> PdaArray:
    return PdaArray(2, 1, ((1,), (2,)), ((1, _), (_, 1)), ("a", "b"))


def test_shape_accessors():
    a = small()
    assert a.f == 2 and a.k == 2
    assert a.rows[0][0] == 1 and a.rows[0][1] is STAR
    assert a.star_count(0) == 1 and a.star_count(1) == 1


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PdaArray(2, 3, ((1, 2),), ((1,),))  # r > h
    with pytest.raises(ValueError):
        PdaArray(3, 2, ((1, 2), (1, 2)), ((1, 2),))  # duplicate column
    with pytest.raises(ValueError):
        PdaArray(3, 2, ((2, 1),), ((1,),))  # label not ascending
    with pytest.raises(ValueError):
        PdaArray(3, 2, ((1, 4),), ((1,),))  # relay id out of range
    with pytest.raises(ValueError):
        PdaArray(3, 2, ((1, 2),), ((1, 2),))  # row too long
    with pytest.raises(ValueError):
        PdaArray(3, 2, ((1, 2),), ((0,),))  # symbols are positive
    with pytest.raises(ValueError):
        PdaArray(3, 2, ((1, 2),), ((1,),), ("x", "y"))  # label count off


def test_symbols_first_occurrence_order(worked_ex1):
    assert list(worked_ex1.symbol_index) == [5, 6, 7, 8, 9, 10, 2, 3, 4, 1]


def test_symbol_index_golden(worked_ex1):
    index = build_symbol_index(worked_ex1)
    assert len(index) == 10
    s1 = index[1]
    assert s1.occurrences == ((2, 0), (3, 1), (4, 2))
    assert [worked_ex1.col_labels[j] for _, j in s1.occurrences] == [(1, 2, 3), (1, 2, 4), (1, 2, 5)]
    assert s1.common == (1, 2) and s1.width == 2
    s5 = index[5]
    assert s5.occurrences == ((0, 0), (3, 6), (4, 7))
    assert s5.common == (2, 3)
    assert all(info.width == 2 for info in index.values())


def test_array_with_derived_index_pickles_and_copies(worked_ex1):
    index = worked_ex1.symbol_index
    for twin in (pickle.loads(pickle.dumps(worked_ex1)), copy.deepcopy(worked_ex1)):
        assert twin == worked_ex1 and twin.row_labels == worked_ex1.row_labels
        assert twin.symbol_index == index


def test_canonical_relabel_golden(worked_ex1):
    assert canonical_relabel(worked_ex1).rows == EX1_ROWS_CANONICAL


def test_canonical_relabel_idempotent(worked_ex1):
    once = canonical_relabel(worked_ex1)
    assert canonical_relabel(once) == once
    b = canonical_relabel(small())
    assert b.row_labels == ("a", "b")


def test_equivalence_up_to_symbols(worked_ex1, canonical_ex1):
    assert equivalent_up_to_symbols(worked_ex1, canonical_ex1)
    assert equivalent_up_to_symbols(worked_ex1, worked_ex1)
    # renaming 1 <-> 2 changes nothing
    renamed = PdaArray(2, 1, ((1,), (2,)), ((2, _), (_, 2)))
    assert equivalent_up_to_symbols(small(), renamed)
    # moving a star does
    moved = PdaArray(2, 1, ((1,), (2,)), ((_, 1), (1, _)))
    assert not equivalent_up_to_symbols(small(), moved)
    other_cols = PdaArray(3, 1, ((1,), (3,)), ((1, _), (_, 1)))
    assert not equivalent_up_to_symbols(small(), other_cols)


def test_format_is_canonical(worked_ex1, canonical_ex1):
    # serialization renames symbols, so both numberings give identical text
    assert format_array(worked_ex1) == format_array(canonical_ex1)
    text = format_array(canonical_ex1)
    assert text.splitlines()[0] == "#CPDA v1"
    assert text.endswith("\n")
    assert parse_array(text) == canonical_ex1


def test_parse_format_roundtrip(worked_ex1):
    # parse(format(x)) is x up to canonical renaming; row labels are not stored
    back = parse_array(format_array(worked_ex1))
    assert back == canonical_relabel(worked_ex1)
    assert back.row_labels is None


def test_file_roundtrip(tmp_path, canonical_ex1):
    p = tmp_path / "ex1.cpda"
    write_array(canonical_ex1, p)
    assert read_array(p) == canonical_ex1


GOOD = "#CPDA v1\nH 2\nr 1\nF 2\nK 2\ncols 1 2\n1 *\n* 1\n"


def test_parse_good_text():
    a = parse_array(GOOD)
    assert (a.h, a.r, a.f, a.k) == (2, 1, 2, 2)
    assert a.rows == ((1, _), (_, 1))


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda t: t[:-1], "trailing newline"),
        (lambda t: t.replace("#CPDA v1", "#CPDA v2"), "line 1"),
        (lambda t: t.replace("H 2", "H two"), "line 2"),
        (lambda t: t.replace("H 2", "H 0"), "line 2"),
        (lambda t: t.replace("r 1", "q 1"), "line 3"),
        (lambda t: t.replace("cols 1 2", "cols 1"), "line 6"),
        (lambda t: t.replace("cols 1 2", "cols 1 x"), "line 6"),
        (lambda t: t.replace("1 *\n", "1 * *\n", 1), "line 7"),
        (lambda t: t.replace("* 1", "* 0"), "line 8"),
        (lambda t: t.replace("* 1", "*  1"), "line 8"),
        (lambda t: t + "9 9\n", "expected 8 lines"),
        (lambda t: t.replace("cols 1 2", "cols 1 1"), "duplicate"),
        # every integer is canonical ASCII decimal: no sign, underscore, leading
        # zero or non-ASCII digit, in headers, column labels and cells alike
        pytest.param(lambda t: t.replace("H 2", "H +2"), "line 2", id="header-sign"),
        pytest.param(lambda t: t.replace("F 2", "F 0_2"), "line 4", id="header-underscore"),
        pytest.param(lambda t: t.replace("H 2", "H \u0662"), "line 2", id="header-arabic-indic"),
        pytest.param(lambda t: t.replace("cols 1 2", "cols +1 2"), "line 6", id="label-sign"),
        pytest.param(lambda t: t.replace("cols 1 2", "cols \u0661 2"), "line 6", id="label-arabic-indic"),
        pytest.param(lambda t: t.replace("\n1 *\n", "\n01 *\n"), "line 7", id="cell-leading-zero"),
        pytest.param(lambda t: t.replace("\n1 *\n", "\n\u0661 *\n"), "line 7", id="cell-arabic-indic"),
        pytest.param(lambda t: t.replace("\n1 *\n", "\n\u00b9 *\n"), "line 7", id="cell-superscript"),
    ],
)
def test_parse_rejects_mangled_text(mangle, fragment):
    with pytest.raises(ArrayFormatError) as e:
        parse_array(mangle(GOOD))
    assert fragment in str(e.value)


def test_parse_reports_missing_rows():
    with pytest.raises(ArrayFormatError):
        parse_array("#CPDA v1\nH 2\nr 1\nF 2\nK 2\ncols 1 2\n1 *\n")


FUZZ_SEEDS = tuple(
    format_array(a) for a in (c1pp(5, 3, 1, 1), c2(4, 2, 2, 1), mn_pda(3, 1))
) + (GOOD,)
FUZZ_ALPHABET = "+_0*-\u00b9\u0665 \n123456789"

_edit = st.tuples(st.sampled_from("idr"), st.integers(0, 10**6), st.sampled_from(FUZZ_ALPHABET))


def _apply(text: str, edits: list[tuple[str, int, str]]) -> str:
    for op, pos, ch in edits:
        i = pos % (len(text) + 1)
        if op == "i":
            text = text[:i] + ch + text[i:]
        elif op == "d":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.sampled_from(FUZZ_SEEDS), st.lists(_edit, min_size=1, max_size=3))
def test_parse_fuzzed_text_is_refused_or_round_trips(seed, edits):
    text = _apply(seed, edits)
    try:
        a = parse_array(text)
    except ArrayFormatError:
        return
    if canonical_relabel(a) == a:
        assert format_array(a) == text
