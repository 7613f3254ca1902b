from __future__ import annotations

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from cpda import model
from cpda import simulate as sim
from cpda.analysis import rate_from_array
from cpda.construct import c1p, c1pp, c2, mn_pda
from cpda.model import STAR, build_symbol_index
from cpda.simulate import (
    Library,
    decode_all,
    default_demands,
    execute,
    make_library,
    measure_rates,
    min_file_bytes,
    place,
    plan_delivery,
    simulate,
    split_lcm,
)
from cpda.validate import InvalidArrayError

from conftest import EX1_DELIVERY


def test_min_file_bytes(worked_ex1):
    assert split_lcm(worked_ex1) == 2
    assert min_file_bytes(worked_ex1) == 10
    assert min_file_bytes(c2(5, 2, 2, 1)) == 20  # w = 1 everywhere


def test_make_library_seeded(worked_ex1):
    a = make_library(worked_ex1, 3, seed=1, unit=1)
    b = make_library(worked_ex1, 3, seed=1, unit=1)
    c = make_library(worked_ex1, 3, seed=2, unit=1)
    assert a == b and a != c
    assert a.n == 3 and a.e_bytes == 10
    assert make_library(worked_ex1, 1, unit=64).e_bytes == 640


def test_library_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        Library((b"abc", b"de"))
    with pytest.raises(ValueError):
        Library(())


def test_place_golden_cache_contents(worked_ex1):
    lib = make_library(worked_ex1, 10, unit=1)
    caches = place(worked_ex1, lib)
    got = caches[(1, 2, 3)]
    assert set(got) == {(n, j) for n in range(1, 11) for j in (4, 5)}
    assert all(len(v) == 2 for v in got.values())  # packet = E/F = 2 bytes
    # every user caches Z*N packets
    assert all(len(c) == 2 * 10 for c in caches.values())


def test_place_rejects_indivisible_file_size(worked_ex1):
    with pytest.raises(ValueError):
        place(worked_ex1, Library((bytes(7),) * 2))


def test_plan_matches_delivery_table(worked_ex1):
    plan = plan_delivery(worked_ex1, tuple(range(1, 11)))
    assert len(plan.signals) == 10
    for sig in plan.signals:
        terms, relays = EX1_DELIVERY[sig.symbol]
        assert tuple((fid, pid) for _, _, fid, pid in sig.terms) == terms
        assert sig.relays == relays


def test_plan_rejects_unroutable_and_bad_demands(worked_ex1):
    with pytest.raises(InvalidArrayError):
        plan_delivery(mn_pda(4, 2), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        plan_delivery(worked_ex1, (1, 2))
    with pytest.raises(ValueError):
        plan_delivery(worked_ex1, (0,) * 10)


def test_execute_golden_loads(worked_ex1):
    lib = make_library(worked_ex1, 10, unit=1)
    plan = plan_delivery(worked_ex1, tuple(range(1, 11)))
    log, received = execute(worked_ex1, plan, lib)
    # each relay carries 4 half-packet pieces of 1 byte
    assert all(n == 4 for n in log.relay_bytes.values())
    assert all(len(parts) == 4 for parts in log.relay_parts.values())
    assert sum(log.relay_bytes.values()) == 10 * 2  # S * packet
    assert measure_rates(log) == {h: Fraction(2, 5) for h in range(1, 6)}
    # user 1-2-3 sees both halves of 3 signals and one half of 6
    assert log.user_bytes[(1, 2, 3)] == 3 * 2 + 6 * 1
    assert len(received[(1, 2, 3)]) == 12


def test_decode_golden(worked_ex1):
    lib = make_library(worked_ex1, 10, seed=3, unit=1)
    caches = place(worked_ex1, lib)
    demands = tuple(range(1, 11))
    plan = plan_delivery(worked_ex1, demands)
    _, received = execute(worked_ex1, plan, lib)
    result = decode_all(worked_ex1, plan, caches, received, lib)
    assert result.ok and result.failures == ()
    for j, label in enumerate(worked_ex1.col_labels):
        assert result.files[label] == lib.files[demands[j] - 1]


def test_decode_detects_corruption(worked_ex1):
    lib = make_library(worked_ex1, 2, seed=4, unit=1)
    caches = place(worked_ex1, lib)
    plan = plan_delivery(worked_ex1, default_demands(10, 2))
    _, received = execute(worked_ex1, plan, lib)
    # flip a byte one user received for one sub-signal
    key = next(iter(received[(1, 2, 3)]))
    chunk = received[(1, 2, 3)][key]
    received[(1, 2, 3)][key] = bytes(b ^ 0xFF for b in chunk)
    result = decode_all(worked_ex1, plan, caches, received, lib)
    assert not result.ok
    assert all(label == (1, 2, 3) for label, _pid in result.failures)


def test_execute_checks_divisibility(worked_ex1):
    plan = plan_delivery(worked_ex1, (1,) * 10)
    with pytest.raises(ValueError):
        execute(worked_ex1, plan, Library((bytes(7),)))
    # divisible by F=5 but packet of 1 byte cannot split into w=2 parts
    with pytest.raises(ValueError):
        execute(worked_ex1, plan, Library((bytes(5),)))
    greedy = plan_delivery(worked_ex1, tuple(range(1, 11)))
    with pytest.raises(ValueError):
        execute(worked_ex1, greedy, Library((bytes(10),)))  # demand 10 > N = 1


def test_zero_library_decodes_structurally(worked_ex1):
    lib = Library((bytes(10),))
    caches = place(worked_ex1, lib)
    plan = plan_delivery(worked_ex1, (1,) * 10)
    _, received = execute(worked_ex1, plan, lib)
    assert all(set(v) == {0} or v == b"" for user in received.values() for v in user.values())
    assert decode_all(worked_ex1, plan, caches, received, lib).ok


def test_single_occurrence_signals_are_uncoded():
    arr = c1p(5, 3, 1, 1)
    plan = plan_delivery(arr, (1,) * arr.k)
    for sig in plan.signals:
        assert len(sig.terms) == 1
        assert sig.relays == sig.terms[0][1]  # routed via all of the user's relays


def test_unsplit_signals():
    arr = c2(5, 2, 2, 1)
    rep = simulate(arr, n_files=1, demands=(1,) * arr.k, unit=1)
    assert rep.ok
    assert all(len(sig.relays) == 1 for sig in rep.plan.signals)
    assert rep.f_eff == rep.f_rows == 20


def test_simulate_report_golden(worked_ex1):
    rep = simulate(worked_ex1, unit=1)
    assert rep.ok
    assert rep.demands == tuple(range(1, 11))
    assert rep.e_bytes == 10 and rep.f_rows == 5 and rep.f_eff == 10
    assert rep.w_histogram == {2: 10}
    assert set(rep.rates.values()) == {Fraction(2, 5)}


def test_simulate_refuses_unroutable():
    with pytest.raises(InvalidArrayError):
        simulate(mn_pda(4, 2))


def test_seeded_random_rounds_decode():
    arrays = [c1pp(6, 3, 2, 1), c2(5, 2, 2, 1), c1p(5, 3, 1, 1), c1pp(5, 3, 2, 2)]
    rng = random.Random(99)
    for arr in arrays:
        expected = rate_from_array(arr)
        for seed in range(10):
            n = rng.randint(1, 4)
            demands = tuple(rng.randint(1, n) for _ in range(arr.k))
            rep = simulate(arr, n_files=n, demands=demands, seed=seed, unit=1)
            assert rep.ok, (arr.h, arr.r, seed)
            assert rep.rates == expected


def test_rates_independent_of_demands(worked_ex1):
    a = simulate(worked_ex1, demands=(1,) * 10, n_files=1, unit=1)
    b = simulate(worked_ex1, demands=tuple(range(1, 11)), unit=1)
    assert a.rates == b.rates


def count_index_builds(monkeypatch) -> list[int]:
    """Count build_symbol_index calls from every cpda module that binds the name."""
    original = model.build_symbol_index
    calls = [0]

    def counted(array):
        calls[0] += 1
        return original(array)

    for name, module in list(sys.modules.items()):
        if (name == "cpda" or name.startswith("cpda.")) and getattr(module, "build_symbol_index", None) is original:
            monkeypatch.setattr(module, "build_symbol_index", counted)
    return calls


def test_symbol_index_is_derived_once_per_array(monkeypatch):
    calls = count_index_builds(monkeypatch)
    array = c2(6, 3, 2, 1)
    assert simulate(array, n_files=2, seed=3, unit=1).ok
    assert calls[0] == 1
    array = c1pp(6, 3, 2, 1)
    rate_from_array(array)
    assert calls[0] == 2
    assert array.symbol_index == build_symbol_index(array)
    with pytest.raises(TypeError):
        array.symbol_index[1] = array.symbol_index[2]  # type: ignore[index]


def test_cache_view_refuses_what_is_not_cached(worked_ex1):
    lib = make_library(worked_ex1, 10, unit=1)
    caches = place(worked_ex1, lib)
    cache = caches[(1, 2, 3)]  # stars in rows 4 and 5 only
    for key in [(1, 1), (1, 2), (1, 3), (10, 1), (0, 4), (11, 4), (-1, 5), (1, 0), (1, 6),
                (1, -1), (1, -5)]:
        assert key not in cache
        with pytest.raises(KeyError):
            cache[key]
    assert len(cache) == 20 and len(list(cache)) == 20
    assert set(cache) == {(n, j) for n in range(1, 11) for j in (4, 5)}
    assert list(cache)[:3] == [(1, 4), (2, 4), (3, 4)]  # rows outer, files inner
    assert all(cache[(n, j)] == lib.files[n - 1][2 * j - 2: 2 * j] for n, j in cache)
    with pytest.raises(TypeError):
        cache[(1, 4)] = b"xx"  # type: ignore[index]


def test_flipped_byte_in_a_relay_buffer_fails_exactly_the_symbol_users():
    array = c2(6, 3, 2, 1)
    lib = make_library(array, 2, seed=5, unit=4)
    caches = place(array, lib)
    plan = plan_delivery(array, default_demands(array.k, 2))
    log, received = execute(array, plan, lib)
    assert decode_all(array, plan, caches, received, lib).ok
    for h, parts in log.relay_parts.items():
        for symbol, part in (parts[0], parts[-1]):
            behind = [label for label in array.col_labels if h in label]
            # a user's view chains its own writes, then its relays' buffers in label order
            buffer = received[behind[0]].maps[1 + behind[0].index(h)]
            clean = buffer[(symbol, part)]
            buffer[(symbol, part)] = bytes([clean[0] ^ 0x01]) + clean[1:]
            assert all(received[label][(symbol, part)] != clean for label in behind)
            result = decode_all(array, plan, caches, received, lib)
            want = {(array.col_labels[j], i + 1) for i, j in array.symbol_index[symbol].occurrences}
            assert want and set(result.failures) == want and len(result.failures) == len(want)
            buffer[(symbol, part)] = clean


def test_simulate_refuses_past_the_byte_limit(monkeypatch, worked_ex1):
    # 3 files, 10 users, E = 4 * 10 bytes, 10 signals of E/F = 8 bytes
    need = (3 + 10) * 40 + 10 * 8
    monkeypatch.setattr(sim, "MAX_SIM_BYTES", need)
    assert simulate(worked_ex1, n_files=3, unit=4).ok
    monkeypatch.setattr(sim, "MAX_SIM_BYTES", need - 1)
    with pytest.raises(ValueError, match="--files or --unit"):
        simulate(worked_ex1, n_files=3, unit=4)


def test_simulate_peak_memory_stays_below_twice_library_plus_files():
    # the CLI's fanout shape: N = K = 84 files, every user a different one
    array = c2(9, 3, 2, 1)
    array.symbol_index  # derived before tracing, as every later run shares it
    n, e = array.k, 64 * min_file_bytes(array)
    tracemalloc.start()
    try:
        rep = simulate(array, n_files=n, unit=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 2 * (n + array.k) * e, peak


def test_place_keeps_no_per_user_copy():
    array = c2(10, 4, 3, 2)
    array.symbol_index  # derived before tracing, as every later run shares it
    lib = make_library(array, 2, unit=1)
    tracemalloc.start()
    try:
        caches = place(array, lib)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(caches) == array.k == 210
    assert peak < 1024 * array.k, peak


@pytest.mark.parametrize("edit", [
    lambda piece: piece + b"\x00",  # the little-endian value is unchanged
    lambda piece: piece + b"\x01",
    lambda piece: piece[:-1],
], ids=["zero-byte-longer", "one-byte-longer", "one-byte-shorter"])
def test_piece_of_the_wrong_length_fails_only_its_packet(edit):
    array = c2(5, 2, 2, 1)
    lib = make_library(array, 2, seed=6, unit=2)
    caches = place(array, lib)
    plan = plan_delivery(array, default_demands(array.k, 2))
    _, received = execute(array, plan, lib)
    i, j = array.symbol_index[3].occurrences[1]
    label = array.col_labels[j]
    received[label][(3, 0)] = edit(received[label][(3, 0)])  # into the user's own first map
    result = decode_all(array, plan, caches, received, lib)
    assert result.failures == ((label, i + 1),)
