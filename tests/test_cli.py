from __future__ import annotations

import time
from decimal import Decimal
from math import comb

import pytest

from cpda.cli import main
from cpda.model import equivalent_up_to_symbols, parse_array

C2B_BAD = "#CPDA v1\nH 3\nr 2\nF 2\nK 2\ncols 1-2 1-3\n1 2\n3 1\n"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    capsys.readouterr()  # drop anything emitted during fixture setup
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.cpda"
    rc = main(["build", "--family", "c1pp", "--H", "5", "--r", "3",
               "--b", "1", "--lambda", "1", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture
def mn_path(tmp_path):
    path = tmp_path / "mn.cpda"
    assert main(["build", "--family", "mn", "--k", "4", "--t", "2",
                 "--out", str(path)]) == 0
    return path


def test_build_to_file(capsys, tmp_path, worked_ex1):
    path = tmp_path / "a.cpda"
    rc, out, err = run(capsys, "build", "--family", "c1pp", "--H", "5", "--r", "3",
                       "--b", "1", "--lambda", "1", "--out", str(path))
    assert rc == 0
    assert out.strip() == "CPDA (10,5,2,10), w: {2:10}"
    array = parse_array(path.read_text(encoding="ascii"))
    assert equivalent_up_to_symbols(array, worked_ex1)


def test_build_to_stdout(capsys, worked_ex1):
    rc, out, err = run(capsys, "build", "--family", "c1pp", "--H", "5", "--r", "3",
                       "--b", "1", "--lambda", "1")
    assert rc == 0
    assert out.startswith("#CPDA v1\n")
    assert equivalent_up_to_symbols(parse_array(out), worked_ex1)
    assert "CPDA (10,5,2,10)" in err


def test_build_other_families(capsys, tmp_path):
    rc, out, _ = run(capsys, "build", "--family", "c2", "--H", "5", "--r", "2",
                     "--b", "2", "--lambda", "1", "--out", str(tmp_path / "c2.cpda"))
    assert rc == 0 and out.strip() == "CPDA (10,20,14,30), w: {1:30}"
    rc, out, _ = run(capsys, "build", "--family", "mn", "--k", "4", "--t", "2",
                     "--out", str(tmp_path / "mn.cpda"))
    assert rc == 0 and out.strip() == "PDA (4,6,3,4), w: {0:4}"


def test_build_rejects_bad_parameters(capsys):
    rc, _, err = run(capsys, "build", "--family", "c1p", "--H", "3", "--r", "2",
                     "--b", "2", "--lambda", "0")
    assert rc == 2 and "lambda must be >= 1" in err
    rc, _, err = run(capsys, "build", "--family", "c1pp", "--H", "5", "--r", "3", "--b", "1")
    assert rc == 2 and "--lambda is required" in err


def test_validate_golden(capsys, golden_path):
    rc, out, _ = run(capsys, "validate", str(golden_path))
    assert rc == 0
    assert out.strip() == "CPDA (10,5,2,10), w: {2:10}"


def test_validate_mn_needs_no_common_relay(capsys, mn_path):
    rc, out, _ = run(capsys, "validate", str(mn_path))
    assert rc == 0 and out.startswith("PDA (4,6,3,4)")
    rc, out, _ = run(capsys, "validate", str(mn_path), "--cpda")
    assert rc == 1
    assert "AXIOM=C3 FAIL" in out
    assert "no relay serves every occurrence" in out


def test_validate_reports_broken_array(capsys, tmp_path):
    bad = tmp_path / "bad.cpda"
    bad.write_text(C2B_BAD, encoding="ascii")
    rc, out, _ = run(capsys, "validate", str(bad))
    assert rc == 1
    assert "AXIOM=C2b FAIL" in out


def test_validate_corrupt_file(capsys, tmp_path):
    path = tmp_path / "corrupt.cpda"
    path.write_text("#CPDA v1\nH 2\nr 1\n", encoding="ascii")
    rc, _, err = run(capsys, "validate", str(path))
    assert rc == 2 and "bad array file" in err
    rc, _, err = run(capsys, "validate", str(tmp_path / "missing.cpda"))
    assert rc == 2


def test_simulate_golden(capsys, golden_path):
    rc, out, _ = run(capsys, "simulate", str(golden_path), "--unit", "1")
    assert rc == 0
    assert "users=10 files=10 E=10 bytes F_rows=5 F_eff=10" in out
    assert "w: {2:10}" in out
    assert out.count("R = 2/5") == 5
    assert "relay 1: 4 bytes, R = 2/5" in out
    assert "DECODE OK" in out


def test_simulate_table(capsys, golden_path):
    rc, out, _ = run(capsys, "simulate", str(golden_path), "--demands", "1..10", "--table")
    assert rc == 0
    assert "signal | composition | relays" in out
    assert "X_10 | W[1,3] + W[2,4] + W[3,5] | 1-2" in out
    assert out.count("X_") == 10


def test_simulate_demand_forms(capsys, golden_path):
    rc, out, _ = run(capsys, "simulate", str(golden_path), "--files", "2",
                     "--demands", "1,2,1,2,1,2,1,2,1,2")
    assert rc == 0 and "DECODE OK" in out
    rc, out, _ = run(capsys, "simulate", str(golden_path), "--files", "3",
                     "--demands", "random", "--seed", "7")
    assert rc == 0 and "DECODE OK" in out


def test_simulate_rejects_bad_demands(capsys, golden_path):
    rc, _, err = run(capsys, "simulate", str(golden_path), "--demands", "0,1,1,1,1,1,1,1,1,1")
    assert rc == 2 and "demands must lie in" in err
    rc, _, err = run(capsys, "simulate", str(golden_path), "--demands", "1,2")
    assert rc == 2 and "need 10" in err
    rc, _, err = run(capsys, "simulate", str(golden_path), "--files", "2", "--demands", "1..10")
    assert rc == 2


def test_simulate_refuses_unroutable(capsys, mn_path):
    rc, _, err = run(capsys, "simulate", str(mn_path))
    assert rc == 1
    assert "not simulatable" in err and "C3" in err


def test_simulate_deterministic(capsys, golden_path):
    rc1, out1, _ = run(capsys, "simulate", str(golden_path), "--seed", "5", "--demands", "random")
    rc2, out2, _ = run(capsys, "simulate", str(golden_path), "--seed", "5", "--demands", "random")
    assert rc1 == rc2 == 0 and out1 == out2



def test_simulate_refuses_a_run_past_the_memory_limit(capsys, tmp_path):
    path = tmp_path / "big.cpda"
    assert main(["build", "--family", "c2", "--H", "10", "--r", "4", "--b", "3",
                 "--lambda", "2", "--out", str(path)]) == 0
    # N = K = 210 files of 1.08 GB each: hundreds of GB if it were drawn
    start = time.perf_counter()
    rc, out, err = run(capsys, "simulate", str(path), "--unit", "1000000")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "--files" in err and "--unit" in err

def test_params_command(capsys):
    rc, out, _ = run(capsys, "params", "--family", "scheme2", "--H", "4", "--r", "2", "--t", "1")
    assert rc == 0
    assert "family scheme2 H=4 r=2 t=1" in out
    assert "K = 6" in out
    assert "M/N = 1/3" in out
    assert "R_h = 1/2" in out
    assert "F_eff = 6" in out
    assert "F_eff_full_split = 12" in out

    rc, out, _ = run(capsys, "params", "--family", "c1pp", "--H", "5", "--r", "3",
                     "--b", "1", "--lambda", "1")
    assert rc == 0
    assert "M/N = 2/5" in out and "R_h = 2/5" in out and "S = 10" in out and "w = 2" in out


def test_params_and_compare_print_long_integers(capsys):
    # F_rows = C(23751, 11875) has 7,148 digits, past str()'s default limit of 4,300
    rc, out, _ = run(capsys, "params", "--family", "scheme2", "--H", "30", "--r", "5",
                     "--t", "11875")
    assert rc == 0
    fields = dict(line.split(" = ", 1) for line in out.strip().split("\n")[1:])
    f_rows = comb(23751, 11875)
    assert int(Decimal(fields["F_rows"])) == f_rows and len(fields["F_rows"]) == 7148
    assert int(Decimal(fields["F_eff"])) == 5 * f_rows
    assert int(Decimal(fields["F_eff_full_split"])) == 30 * f_rows

    rc, out, _ = run(capsys, "compare", "--H", "30", "--r", "5", "--grid", "11875/23751")
    assert rc == 0
    assert out.count("\n") == 4  # header + scheme1, scheme2, scheme3 rows


def test_params_inapplicable(capsys):
    rc, _, err = run(capsys, "params", "--family", "scheme2", "--H", "5", "--r", "2", "--t", "1")
    assert rc == 2 and "needs r | H" in err
    rc, _, err = run(capsys, "params", "--family", "scheme3", "--H", "4", "--r", "2",
                     "--b", "3", "--lambda", "1")
    assert rc == 2 and "base parameters invalid" in err


@pytest.mark.parametrize("argv", [
    ("compare", "--H", "4", "--r", "0"),
    ("compare", "--H", "3", "--r", "-1"),
    ("compare", "--H", "2", "--r", "5"),
    ("compare", "--H", "-4", "--r", "2"),
    ("compare", "--H", "4", "--r", "0", "--grid", "1/2"),
    ("params", "--family", "scheme2", "--H", "4", "--r", "0", "--t", "1"),
    ("params", "--family", "scheme3", "--H", "4", "--r", "0", "--b", "1", "--lambda", "1"),
])
def test_network_shape_outside_zero_r_h_is_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: need 0 < r < H")


@pytest.mark.parametrize("extra", [(), ("--grid", "1/2", "--check-dominance")])
def test_compare_refuses_a_series_past_the_limit(capsys, extra):
    # (60, 6) has C(59, 5) - 1 = 5,006,385 grouped-baseline points
    start = time.perf_counter()
    rc, out, err = run(capsys, "compare", "--H", "60", "--r", "6", *extra)
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "5006385" in err and "--grid" in err


@pytest.mark.parametrize("argv", [
    ("compare", "--H", "60", "--r", "6", "--grid", "1/2"),
    ("params", "--family", "scheme2", "--H", "60", "--r", "6", "--t", "2503193"),
])
def test_scheme2_point_past_the_digit_limit_is_refused(capsys, argv):
    # C(5006386, 2503193) has about 1.5 million digits
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert err.startswith("error: t=2503193:")


def test_compare_stdout_and_file(capsys, tmp_path):
    rc, out, _ = run(capsys, "compare", "--H", "5", "--r", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("H,r,family,params,")
    assert all(",scheme2,," in line or ",scheme2," not in line for line in lines)
    assert any(",false," in line for line in lines)

    path = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "compare", "--H", "4", "--r", "2", "--out", str(path))
    assert rc == 0 and out == ""
    assert path.read_text(encoding="ascii").count("\n") == 7  # header + 2 points x 3


def test_compare_grid(capsys):
    rc, out, _ = run(capsys, "compare", "--H", "4", "--r", "2", "--grid", "1/3", "--mode", "exact")
    assert rc == 0
    assert len(out.strip().split("\n")) == 4
    rc, _, err = run(capsys, "compare", "--H", "4", "--r", "2", "--grid", "nope")
    assert rc == 2 and "bad grid entry" in err
    rc, _, err = run(capsys, "compare", "--H", "4", "--r", "2", "--grid", "3/2")
    assert rc == 2 and "outside [0, 1]" in err


def test_compare_dominance_flag(capsys):
    rc, out, err = run(capsys, "compare", "--H", "4", "--r", "2", "--check-dominance")
    assert rc == 1
    assert out.startswith("H,r,family")
    assert "VIOLATIONS FOUND" in err
    assert "violating t: 1" in err


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "build", "--family", "nope")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
