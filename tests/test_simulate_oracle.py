"""Differential test: the shared-buffer simulator against the copying reference."""

from __future__ import annotations

import oracle_simulate as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from cpda.construct import c1p, c1pp, c2
from cpda.simulate import decode_all, execute, make_library, place, plan_delivery
from cpda.validate import validate


def _routable_small_arrays() -> list:
    """Every buildable c1p, c1pp and c2 array with H <= 6 whose symbols can all be routed."""
    out = []
    for h in range(3, 7):
        for r in range(1, h):
            for b in range(1, h):
                for lam in range(1, min(r, b) + 1):
                    if r + b - 2 * lam < h:
                        out += [c1p(h, r, b, lam), c1pp(h, r, b, lam)]
            for lam in range(1, h - r):
                for b in range(lam + 1, r + lam):
                    out.append(c2(h, r, b, lam))
    return [a for a in out if validate(a, require_cpda=True).ok]


ARRAYS = _routable_small_arrays()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_simulator_matches_copying_oracle(data):
    array = data.draw(st.sampled_from(ARRAYS), label="array")
    n = data.draw(st.integers(1, 4), label="n")
    demands = tuple(data.draw(st.lists(st.integers(1, n), min_size=array.k, max_size=array.k),
                              label="demands"))
    unit = data.draw(st.integers(1, 3), label="unit")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    library = make_library(array, n, seed=seed, unit=unit)
    plan = plan_delivery(array, demands)

    caches, old_caches = place(array, library), oracle.place(array, library)
    assert {label: list(c.items()) for label, c in caches.items()} == \
        {label: list(c.items()) for label, c in old_caches.items()}
    log, received = execute(array, plan, library)
    old_log, old_received = oracle.execute(array, plan, library)
    assert log == old_log
    assert {label: dict(v) for label, v in received.items()} == old_received
    result = decode_all(array, plan, caches, received, library)
    old_result = oracle.decode_all(array, plan, old_caches, old_received, library)
    assert result.ok and old_result.ok
    assert result.files == old_result.files and result.failures == old_result.failures

    # one user's copy of one piece gets one byte flipped on both sides
    label = data.draw(st.sampled_from(array.col_labels), label="user")
    if not old_received[label]:
        return
    key = data.draw(st.sampled_from(sorted(old_received[label])), label="piece")
    piece = bytearray(old_received[label][key])
    piece[data.draw(st.integers(0, len(piece) - 1), label="byte")] ^= 1 << data.draw(st.integers(0, 7))
    received[label][key] = old_received[label][key] = bytes(piece)
    result = decode_all(array, plan, caches, received, library)
    old_result = oracle.decode_all(array, plan, old_caches, old_received, library)
    assert result.failures == old_result.failures
    assert all(user == label for user, _ in result.failures)
