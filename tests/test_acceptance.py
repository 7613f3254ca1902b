"""End-to-end acceptance checks.

One test per claim the package stands behind, each printing a single
ACCEPTANCE line (always visible, even under capture) and enforcing a
wall-clock budget. The checks compare built arrays, closed-form
calculators, the simulator and the CLI against each other and against
hand-derived goldens; nothing here is tuned to pass, so a failing line
means the underlying claim is false for this code.

Known honest failure: criterion 7b. At (H, r) = (20, 4) the grouped relay
baseline is NOT beaten simultaneously on memory, rate and packet count at
every parameter tuple; 21 tuples survive. See that test's output for the
list and a worked counterexample.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from cpda.analysis import (
    check_dominance,
    compare_table,
    params_c1,
    params_c2,
    rate_from_array,
    render_csv,
)
from cpda.cli import main
from cpda.combinat import binomial
from cpda.construct import c1p, c1pp, c2
from cpda.model import STAR, PdaArray, equivalent_up_to_symbols, read_array
from cpda.simulate import plan_delivery, simulate
from cpda.validate import InvalidArrayError, reverify, validate

from conftest import EX1_DELIVERY


def report(capsys, n: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@lru_cache(maxsize=None)
def _dominance(h: int, r: int):
    return check_dominance(h, r)


def c1_grid():
    for h in range(3, 9):
        for r in range(1, h):
            for b in range(1, h):
                for lam in range(1, min(r, b) + 1):
                    if r + b - 2 * lam < h:
                        yield h, r, b, lam


def c2_grid():
    for h in range(3, 9):
        for r in range(1, h):
            for lam in range(1, h - r):
                for b in range(lam + 1, r + lam):
                    yield h, r, b, lam


def test_criterion_1_golden_array_round_trip(capsys, tmp_path, worked_ex1):
    t0 = time.monotonic()
    path = tmp_path / "golden.cpda"
    rc_build = main(["build", "--family", "c1pp", "--H", "5", "--r", "3",
                     "--b", "1", "--lambda", "1", "--out", str(path)])
    build_line = capsys.readouterr().out.strip()
    rc_val = main(["validate", str(path), "--cpda"])
    val_line = capsys.readouterr().out.strip()
    array = read_array(str(path))
    same = equivalent_up_to_symbols(array, worked_ex1)
    elapsed = time.monotonic() - t0
    ok = (rc_build == 0 and rc_val == 0 and same
          and build_line == val_line == "CPDA (10,5,2,10), w: {2:10}"
          and elapsed < 1.0)
    report(capsys, "1", ok,
           f"built (10,5,2,10) array equals the hand-derived one, {elapsed:.2f}s")
    assert rc_build == 0 and rc_val == 0
    assert build_line == "CPDA (10,5,2,10), w: {2:10}" == val_line
    assert same
    assert elapsed < 1.0


def test_criterion_2_worked_delivery_example(capsys, worked_ex1):
    t0 = time.monotonic()
    demands = tuple(range(1, 11))
    plan = plan_delivery(worked_ex1, demands)
    by_symbol = {sig.symbol: sig for sig in plan.signals}
    for s in range(1, 11):
        terms, relays = EX1_DELIVERY[s]
        sig = by_symbol[s]
        assert tuple((fid, pid) for _, _, fid, pid in sig.terms) == terms, s
        assert sig.relays == relays, s
    # the generated array carries the same ten signals under its own numbering
    built = plan_delivery(c1pp(5, 3, 1, 1), demands)
    as_set = {(frozenset((f, p) for _, _, f, p in sig.terms), sig.relays)
              for sig in built.signals}
    want = {(frozenset(terms), relays) for terms, relays in EX1_DELIVERY.values()}
    assert as_set == want
    rep = simulate(worked_ex1, unit=1)
    assert rep.ok
    assert rep.rates == {h: Fraction(2, 5) for h in range(1, 6)}
    elapsed = time.monotonic() - t0
    ok = elapsed < 1.0
    report(capsys, "2", ok,
           f"all ten signals, routings and the 2/5 per-relay load reproduced, {elapsed:.2f}s")
    assert ok


def test_criterion_3_intersection_family_exact_everywhere(capsys):
    t0 = time.monotonic()
    tuples = list(c1_grid())
    assert len(tuples) == 289
    simulated = 0
    for h, r, b, lam in tuples:
        s = r + b - 2 * lam
        all_star = h < r + b - lam
        for variant, build in (("p", c1p), ("pp", c1pp)):
            arr = build(h, r, b, lam)
            rep = validate(arr, require_cpda=True)
            if variant == "pp" and lam == r:
                # pooled cells share no relay: a plain PDA, not routable
                assert rep.is_pda and not rep.is_cpda, (h, r, b, lam)
                with pytest.raises(ValueError):
                    params_c1(h, r, b, lam, variant)
                with pytest.raises(InvalidArrayError):
                    simulate(arr, n_files=1, demands=(1,) * arr.k, unit=1)
                continue
            p = params_c1(h, r, b, lam, variant)
            assert rep.is_cpda, (variant, h, r, b, lam)
            assert (arr.k, arr.f) == (p.k, p.f_rows)
            assert rep.z == arr.f - binomial(r, lam) * binomial(h - r, b - lam)
            assert p.memory_ratio == Fraction(rep.z, arr.f)
            assert rep.s == p.s_count
            widths = set(rep.w_histogram)
            assert widths == ({p.w} if p.s_count else set()), (variant, h, r, b, lam)
            assert rate_from_array(arr) == {x: p.rate for x in range(1, h + 1)}
            # the uncorrected closed forms drift exactly on the degenerate windows
            lit_p = binomial(h, s) * binomial(h - s, lam)
            lit_pp = binomial(h, s) * binomial(s, r - lam)
            if variant == "p":
                assert p.s_count == lit_p
                if p.s_count:
                    assert (p.w != lam) == (b == lam and r != lam)
            else:
                assert (p.s_count != lit_pp) == all_star
                if p.s_count:
                    assert (p.w != r - lam) == (h == r + b - lam)
            sim = simulate(arr, n_files=1, demands=(1,) * arr.k, unit=1)
            assert sim.ok and set(sim.rates.values()) == {p.rate}
            simulated += 1
    elapsed = time.monotonic() - t0
    ok = simulated == 495 and elapsed < 120
    report(capsys, "3", ok,
           f"289 parameter tuples x 2 variants: measured = closed form, "
           f"{simulated} routable arrays simulated and decoded, {elapsed:.1f}s")
    assert simulated == 495
    assert elapsed < 120


def test_criterion_4_disjointness_family_exact_everywhere(capsys):
    t0 = time.monotonic()
    tuples = list(c2_grid())
    assert len(tuples) == 70
    for h, r, b, lam in tuples:
        arr = c2(h, r, b, lam)
        p = params_c2(h, r, b, lam)
        rep = validate(arr, require_cpda=True)
        assert rep.is_cpda, (h, r, b, lam)
        assert (arr.k, arr.f) == (p.k, p.f_rows)
        assert p.memory_ratio == Fraction(rep.z, arr.f)
        assert rep.s == p.s_count
        assert set(rep.w_histogram) == {r + lam - b}, (h, r, b, lam)
        assert p.w == r + lam - b
        assert rate_from_array(arr) == {x: p.rate for x in range(1, h + 1)}
        sim = simulate(arr, n_files=1, demands=(1,) * arr.k, unit=1)
        assert sim.ok and set(sim.rates.values()) == {p.rate}
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    report(capsys, "4", ok,
           f"70 parameter tuples: measured = closed form, uniform widths, "
           f"all decoded, {elapsed:.1f}s")
    assert ok


def test_criterion_5_random_demand_decoding(capsys):
    t0 = time.monotonic()
    rng = random.Random(2026)
    pool = [c1pp(5, 3, 1, 1), c1p(6, 3, 2, 1), c1pp(6, 4, 3, 3), c1pp(7, 3, 2, 1),
            c2(5, 2, 2, 1), c2(6, 3, 2, 1), c2(7, 4, 3, 2), c1p(6, 2, 4, 2)]
    runs = 0
    for arr in pool:
        expected = rate_from_array(arr)
        for _ in range(10):
            n = rng.randint(1, 4)
            demands = tuple(rng.randint(1, n) for _ in range(arr.k))
            rep = simulate(arr, n_files=n, demands=demands,
                           seed=rng.randint(0, 10**6), unit=1)
            assert rep.ok, (arr.h, arr.r, demands)
            assert rep.rates == expected
            runs += 1
    elapsed = time.monotonic() - t0
    ok = runs == 80 and elapsed < 120
    report(capsys, "5", ok,
           f"{runs} random-demand rounds across 8 arrays all decoded with "
           f"demand-independent rates, {elapsed:.1f}s")
    assert ok


def test_criterion_6_single_extra_row_window(capsys):
    t0 = time.monotonic()
    checked = 0
    for h in range(3, 9):
        for r in range(2, h):
            arr = c1pp(h, r, r - 1, r - 1)
            rep = validate(arr, require_cpda=True)
            k1 = binomial(h, r - 1)
            assert rep.is_cpda
            assert (rep.k, rep.f, rep.z, rep.s) == (binomial(h, r), k1, k1 - r, h)
            assert set(rep.w_histogram) == {1}
            assert rate_from_array(arr) == {x: Fraction(1, k1) for x in range(1, h + 1)}
            checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 21 and elapsed < 10
    report(capsys, "6", ok,
           f"b = lam = r-1 window gives (C(H,r), C(H,r-1), C(H,r-1)-r, H) "
           f"with rate 1/C(H,r-1) at all {checked} shapes, {elapsed:.1f}s")
    assert ok


def test_criterion_7a_packet_count_vs_single_server_baseline(capsys):
    t0 = time.monotonic()
    rep = _dominance(20, 4)
    csv = render_csv(compare_table(20, 4, grid=[Fraction(484, 969)]), 20, 4)
    s1_line = next(line for line in csv.splitlines()
                   if line.split(",")[2] in ("c1p", "c1pp", "c2"))
    factor = s1_line.split(",")[-1]
    elapsed = time.monotonic() - t0
    ok = (rep.scheme2_violations == () and rep.scheme2_checked == 775
          and rep.scheme2_skipped == 193 and rep.scheme2_curve_notes == (968,)
          and rep.rate_factor_max == Fraction(33524, 53)
          and rep.rate_factor_argmax == 492
          and "/" in factor and elapsed < 60)
    report(capsys, "7a", ok,
           f"at (20,4) every reachable memory point admits a strictly smaller "
           f"packet count than the grouped single-server baseline "
           f"({rep.scheme2_checked} checked, {rep.scheme2_skipped} unreachable); "
           f"rate sits up to {rep.rate_factor_max} times higher (t={rep.rate_factor_argmax}), "
           f"{elapsed:.1f}s")
    assert rep.scheme2_violations == ()
    assert (rep.scheme2_checked, rep.scheme2_skipped) == (775, 193)
    assert rep.scheme2_curve_notes == (968,)
    assert rep.rate_factor_max == Fraction(33524, 53)
    assert rep.rate_factor_argmax == 492
    assert factor != ""
    assert elapsed < 60


def test_criterion_7b_full_dominance_vs_relay_baseline(capsys):
    t0 = time.monotonic()
    rep = _dominance(20, 4)
    elapsed = time.monotonic() - t0
    ok = rep.scheme3_violations == () and elapsed < 60
    detail = (
        f"at (20,4) {len(rep.scheme3_violations)} of {rep.scheme3_checked} grouped "
        f"relay-baseline tuples are NOT simultaneously beaten on memory, rate and "
        f"packets: {rep.scheme3_violations}; e.g. its (b,lam)=(3,3) point has rate "
        f"1/3876 at memory 968/969 while the best buildable rate there is 1/1820, "
        f"{elapsed:.1f}s"
    )
    report(capsys, "7b", ok, detail)
    assert rep.scheme3_violations == (), detail
    assert elapsed < 60


def test_criterion_8_mutation_robustness(capsys):
    t0 = time.monotonic()
    rng = random.Random(404)
    pool = [c1pp(5, 3, 1, 1), c1p(6, 3, 2, 1), c2(5, 2, 2, 1), c1pp(6, 4, 3, 3)]
    for base in pool:
        assert validate(base, require_cpda=True).ok
    caught = 0
    for trial in range(200):
        base = pool[trial % len(pool)]
        i = rng.randrange(base.f)
        j = rng.randrange(base.k)
        fresh = max((c for row in base.rows for c in row if c is not None), default=0) + 1
        cell = base.rows[i][j]
        new = fresh if cell is STAR else STAR
        rows = tuple(
            tuple(new if (x, y) == (i, j) else base.rows[x][y] for y in range(base.k))
            for x in range(base.f)
        )
        mutant = PdaArray(base.h, base.r, base.col_labels, rows)
        rep = validate(mutant, require_cpda=True)
        assert not rep.ok, (base.h, base.r, i, j)
        assert any(v.axiom == "C1" for v in rep.violations)
        for v in rep.violations:
            assert reverify(mutant, v), v
        caught += 1
    elapsed = time.monotonic() - t0
    ok = caught == 200 and elapsed < 60
    report(capsys, "8", ok,
           f"all {caught} single-cell status flips detected and every reported "
           f"violation re-verified against the raw array, {elapsed:.1f}s")
    assert ok
