from __future__ import annotations

import pytest

from cpda.combinat import binomial, common_relays, format_relays, ksubsets, parse_relays


def test_binomial_values():
    assert binomial(5, 3) == 10
    assert binomial(20, 4) == 4845
    assert binomial(19, 3) == 969
    assert binomial(0, 0) == 1
    assert binomial(7, 9) == 0
    assert binomial(5, -1) == 0


def test_binomial_against_pascal_triangle():
    # independent oracle: build the triangle by addition only
    row = [1]
    for n in range(26):
        for k, v in enumerate(row):
            assert binomial(n, k) == v
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


def test_ksubsets_counts_and_order():
    for h in range(0, 8):
        for k in range(0, h + 1):
            subs = ksubsets(h, k)
            assert len(subs) == binomial(h, k)
            assert subs == sorted(subs)  # lex order
            assert len(set(subs)) == len(subs)
            for s in subs:
                assert len(s) == k and all(1 <= x <= h for x in s)
                assert list(s) == sorted(s)


def test_ksubsets_examples():
    assert ksubsets(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert ksubsets(3, 0) == [()]
    assert ksubsets(3, 3) == [(1, 2, 3)]


def test_ksubsets_range_errors():
    with pytest.raises(ValueError):
        ksubsets(3, 4)
    with pytest.raises(ValueError):
        ksubsets(3, -1)


def test_common_relays():
    assert common_relays([(1, 2, 3), (1, 2, 4), (1, 2, 5)]) == (1, 2)
    assert common_relays([(1, 2)]) == (1, 2)
    assert common_relays([(1,), (2,)]) == ()


def test_format_parse_roundtrip():
    assert format_relays((1, 2, 3)) == "1-2-3"
    assert format_relays((7,)) == "7"
    for s in [(1,), (2, 5), (1, 2, 3, 4)]:
        assert parse_relays(format_relays(s)) == s


def test_parse_relays_rejects_garbage():
    # ids are canonical ASCII decimals: no sign, underscore, leading zero or other digits
    for bad in ["", "2-1", "1-1", "a-b", "0-2", "-3", "1--2", "1-2-",
                "+1-2-3", "\u0661-2-3", "01-2", "1_0-11", "\u00b9-2", " 1-2"]:
        with pytest.raises(ValueError):
            parse_relays(bad)
