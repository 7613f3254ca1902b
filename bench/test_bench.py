"""Self-tests of the benchmark: output schema, and every output check firing.

    python3 -m pytest -q bench/test_bench.py

These are not part of the package's own test suite; they check that the
benchmark reports what it claims and that each of its correctness checks
rejects a deliberately corrupted output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from cpda import analysis, construct, model  # noqa: E402
from cpda import simulate as sim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_schema(trace: str) -> None:
    proc = _run(ROOT, "--workload", "fanout", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    record = json.loads((ROOT / ".bench_out" / f"fanout-seed3-trace{trace}.json").read_text())
    for key in ("git_sha", "src_sha256", "python", "nproc", "seed", "sizes"):
        assert key in record["stamps"]
    assert {"K", "F", "Z", "S", "N", "E", "grid_points"} <= set(record["stamps"]["sizes"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_exception_in_an_operation_is_a_failed_operation(trace: str) -> None:
    # table's operation made to raise, as the package does on an invalid array
    code = ("import sys; sys.path[:0] = ['bench', 'src']; import run, workloads; "
            "workloads.Table.run = lambda self, item: 1 / 0; "
            f"sys.exit(run.main(['--workload', 'table', '--seed', '1', '--seconds', '1', "
            f"'--trace', '{trace}']))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 1, proc.stderr
    assert "ZeroDivisionError" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    if trace == "0":
        assert result["metrics"]["ok_ratio"]["value"] < 1


def test_refuses_checkout_without_package(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _delivery(array: model.PdaArray, demands: tuple[int, ...]):
    library = sim.make_library(array, 2, seed=5, unit=4)
    caches = sim.place(array, library)
    plan = sim.plan_delivery(array, demands)
    log, received = sim.execute(array, plan, library)
    return library, caches, plan, log, received


def test_flipped_relay_byte_fails_exactly_the_users_that_need_it() -> None:
    array = construct.c2(6, 3, 2, 1)
    demands = tuple(j % 2 + 1 for j in range(array.k))
    library, caches, plan, log, received = _delivery(array, demands)
    relay = 2
    symbol, part = log.relay_parts[relay][0]
    behind = [lab for lab in array.col_labels if relay in lab]
    for lab in behind:
        piece = bytearray(received[lab][(symbol, part)])
        piece[0] ^= 0xFF
        received[lab][(symbol, part)] = bytes(piece)
    result = sim.decode_all(array, plan, caches, received, library)
    index = model.build_symbol_index(array)
    want = {(array.col_labels[j], i + 1) for i, j in index[symbol].occurrences
            if relay in array.col_labels[j]}
    assert want and len(want) < len(behind)  # some users behind the relay only overhear it
    assert set(result.failures) == want
    report = SimpleNamespace(result=result, rates=sim.measure_rates(log))
    assert workloads.check_delivery(report, analysis.rate_from_array(array))


def test_delivery_check_passes_clean_round_and_fires_on_wrong_rates() -> None:
    array = construct.c1pp(5, 3, 1, 1)
    rep = sim.simulate(array, n_files=2, seed=1, unit=2)
    rates = analysis.rate_from_array(array)
    assert workloads.check_delivery(rep, rates) == []
    assert workloads.check_delivery(rep, {h: r * 2 for h, r in rates.items()})


def test_byte_counters_are_exact_and_fire_on_a_tampered_log() -> None:
    array = construct.c2(6, 3, 2, 1)
    one = sim.simulate(array, n_files=2, demands=(1,) * array.k, seed=1, unit=3)
    two = sim.simulate(array, n_files=2, demands=(2,) * array.k, seed=9, unit=3)
    counters, problems = workloads.byte_counters(one)
    assert problems == []
    assert counters == workloads.byte_counters(two)[0]
    s = len(one.plan.signals)
    assert counters["simulate.server_relay_bytes"] * array.f == s * one.e_bytes
    assert (counters["simulate.useful_user_bytes"] + counters["simulate.overheard_user_bytes"]
            == counters["simulate.relay_user_bytes"])
    relay_bytes = dict(one.log.relay_bytes)
    relay_bytes[1] += 1
    tampered = dataclasses.replace(one, log=dataclasses.replace(one.log, relay_bytes=relay_bytes))
    assert workloads.byte_counters(tampered)[1]


def test_sweep_check_fires_on_wrong_closed_form_and_round_trip() -> None:
    spec = ("c1p", 6, 3, 2, 1)
    built = construct.c1p(*spec[1:])
    parsed = model.parse_array(model.format_array(built))
    vrep = workloads.val.validate(parsed, require_cpda=True)
    params = analysis.params_c1(*spec[1:], "p")
    rfa = analysis.rate_from_array(parsed)
    srep = sim.simulate(parsed, n_files=2, seed=1, unit=1)
    args = (spec, built, parsed, vrep, params, rfa, srep)
    assert workloads.check_sweep_array(*args) == []
    wrong = dataclasses.replace(params, s_count=params.s_count + 1)
    assert workloads.check_sweep_array(spec, built, parsed, vrep, wrong, rfa, srep)
    other = construct.c1pp(*spec[1:])
    assert workloads.check_sweep_array(spec, other, parsed, vrep, params, rfa, srep)


def test_cli_check_fires_on_wrong_output() -> None:
    rates = {1: Fraction(1, 4), 2: Fraction(1, 4)}
    good = "users=3 files=3 E=8 bytes F_rows=2 F_eff=2\nw: {1:2}\n" \
           "relay 1: 2 bytes, R = 1/4\nrelay 2: 2 bytes, R = 1/4\nDECODE OK\n"
    assert workloads.check_cli_output(0, good, 3, 3, 8, rates) == []
    assert workloads.check_cli_output(1, good, 3, 3, 8, rates)
    assert workloads.check_cli_output(0, good.replace("R = 1/4\nD", "R = 1/2\nD"), 3, 3, 8, rates)
    assert workloads.check_cli_output(0, good.replace("DECODE OK", "DECODE FAILED: x"), 3, 3, 8, rates)


def test_table_check_fires_on_wrong_digest_and_report() -> None:
    h, r = 8, 4
    csv = analysis.render_csv(analysis.compare_table(h, r), h, r)
    rep = analysis.check_dominance(h, r)
    expected = {"csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
                "dominance": workloads.dominance_fields(rep)}
    assert workloads.check_table(csv, rep, expected) == []
    assert workloads.check_table(csv, rep, {**expected, "csv_sha256": "0" * 64})
    assert workloads.check_table(csv.replace("c2", "c3", 1), rep, expected)
    changed = {**expected["dominance"], "scheme3_checked": rep.scheme3_checked + 1}
    assert workloads.check_table(csv, rep, {**expected, "dominance": changed})


def test_recorded_table_expectations_match_the_declared_shape() -> None:
    expected = json.loads(workloads.EXPECTED_PATH.read_text())["table"]
    dom = expected["dominance"]
    assert (dom["h"], dom["r"]) == workloads.TABLE_SHAPE
    assert dom["ok"] is False and len(dom["scheme3_violations"]) == 22 and dom["scheme3_checked"] == 62


def test_sweep_inputs() -> None:
    specs = workloads.sweep_specs()
    assert len(specs) == 565 and len(set(specs)) == 565
    assert sum(1 for s in specs if s[0] == "c2") == 70
    for n in (1, 2, 5, 565):
        assert sorted(workloads.spread_order(n)) == list(range(n))


def test_span_self_times_and_instrumentation_restore() -> None:
    tracer = spans.Tracer()
    with tracer.span("a.outer"):
        time.sleep(0.01)
        with tracer.span("b.inner"):
            time.sleep(0.02)
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    self_outer, self_inner = tracer.self_times()
    assert self_outer == pytest.approx(outer.duration - inner.duration)
    assert self_inner == pytest.approx(inner.duration)
    assert spans.outermost_total(tracer, frozenset({"a.outer", "b.inner"}), 0) == outer.duration

    original = sim.place
    array = construct.c1pp(5, 3, 1, 1)
    tracer = spans.Tracer(keep=("simulate.simulate",))
    with spans.instrument(tracer):
        assert sim.place is not original
        sim.simulate(array, n_files=1, unit=1)
    assert sim.place is original
    names = [s.name for s in tracer.spans]
    top = names[0]
    assert top == "simulate.simulate" and tracer.spans[0].parent == -1
    order = [n for n in names if n in ("validate.validate", "simulate.make_library", "simulate.place",
                                       "simulate.plan_delivery", "simulate.execute",
                                       "simulate.decode_all", "simulate.measure_rates")]
    assert order == ["validate.validate", "simulate.make_library", "simulate.place",
                     "simulate.plan_delivery", "simulate.execute", "simulate.decode_all",
                     "simulate.measure_rates"]
    assert [name for name, _ in tracer.kept] == ["simulate.simulate"]
