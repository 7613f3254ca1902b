"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup``, hands out one
input per operation from ``items``, and runs one operation with ``run``,
which returns the problems found in the outputs (empty when correct) and the
number of verified output bytes. Why each workload exists, and which
end-to-end metric each layer should move on it, is written down in
``bench/README.md``.

The checks are plain functions so the self-tests can feed them corrupted
outputs and see them fire.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import re
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path
from typing import Any

from cpda import analysis, cli, construct, model
from cpda import simulate as sim
from cpda.combinat import binomial

# the package re-exports the function validate(), which hides the submodule
val = importlib.import_module("cpda.validate")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SWEEP_FILES = 2
SWEEP_UNIT = 1
# the traced sweep pass covers this prefix of the bit-reversal order, a
# representative mix of small and large arrays, so that an untraced and a
# traced pass together fit in one run
SWEEP_TRACE_ARRAYS = 100
BULK_SHAPE = (10, 4, 3, 2)
BULK_FILES = 2
BULK_UNIT = 256
FANOUT_SHAPE = (9, 3, 2, 1)
TABLE_SHAPE = (24, 4)

Problems = list[str]


# ---------------------------------------------------------------- checks


def check_rates(measured: dict[int, Fraction], expected: dict[int, Fraction], what: str) -> Problems:
    if measured != expected:
        bad = sorted(h for h in set(measured) | set(expected) if measured.get(h) != expected.get(h))
        return [f"{what}: per-relay rate differs from the expected value at relays {bad}"]
    return []


def check_delivery(report: Any, expected_rates: dict[int, Fraction]) -> Problems:
    """A simulate() round decoded every user and metered the expected rates."""
    out: Problems = []
    if not report.result.ok:
        out.append(f"decode failed for (user, packet) {list(report.result.failures)[:5]}")
    out += check_rates(report.rates, expected_rates, "simulate")
    return out


def check_sweep_array(spec: tuple[str, int, int, int, int], built: Any, parsed: Any,
                      vrep: Any, params: Any, rfa: dict[int, Fraction], srep: Any) -> Problems:
    """Measured K, F, Z, S, widths, F_eff and rates equal the closed forms."""
    family, h, r, b, lam = spec
    tag = f"{family}({h},{r},{b},{lam})"
    out: Problems = []
    if parsed != built:
        out.append(f"{tag}: parse(format(array)) differs from the built array")
    if not vrep.is_cpda or vrep.violations:
        out.append(f"{tag}: validate reports {len(vrep.violations)} violations")
    if (parsed.k, parsed.f) != (params.k, params.f_rows):
        out.append(f"{tag}: (K, F) = {(parsed.k, parsed.f)}, closed form {(params.k, params.f_rows)}")
    if vrep.z is None or Fraction(vrep.z, parsed.f) != params.memory_ratio:
        out.append(f"{tag}: Z = {vrep.z} does not give M/N = {params.memory_ratio}")
    if vrep.s != params.s_count:
        out.append(f"{tag}: S = {vrep.s}, closed form {params.s_count}")
    want_w = {params.w} if params.s_count else set()
    if set(vrep.w_histogram) != want_w:
        out.append(f"{tag}: widths {sorted(vrep.w_histogram)}, closed form {sorted(want_w)}")
    closed = {x: params.rate for x in range(1, h + 1)}
    out += check_rates(rfa, closed, f"{tag} rate_from_array")
    if srep.f_eff != params.f_eff:
        out.append(f"{tag}: F_eff = {srep.f_eff}, closed form {params.f_eff}")
    out += [f"{tag}: {p}" for p in check_delivery(srep, closed)]
    return out


_RELAY_LINE = re.compile(r"^relay (\d+): (\d+) bytes, R = (\d+)/(\d+)$")


def check_cli_output(rc: int, text: str, k: int, n: int, e_bytes: int,
                     expected_rates: dict[int, Fraction]) -> Problems:
    """``cpda simulate`` exited 0, decoded, and printed the expected rates and sizes."""
    out: Problems = []
    lines = text.splitlines()
    if rc != 0:
        out.append(f"cli exit code {rc}")
    if not lines or not lines[0].startswith(f"users={k} files={n} E={e_bytes} bytes "):
        out.append(f"cli header {lines[:1]} does not match K={k}, N={n}, E={e_bytes}")
    if not lines or lines[-1] != "DECODE OK":
        out.append(f"cli did not report DECODE OK: {lines[-1:]}")
    rates: dict[int, Fraction] = {}
    for line in lines:
        m = _RELAY_LINE.match(line)
        if m:
            h, nbytes, num, den = map(int, m.groups())
            rates[h] = Fraction(num, den)
            if Fraction(nbytes, e_bytes) != rates[h]:
                out.append(f"cli relay {h}: {nbytes} bytes disagree with R = {num}/{den}")
    return out + check_rates(rates, expected_rates, "cli")


def dominance_fields(rep: Any) -> dict[str, Any]:
    """DominanceReport as JSON-comparable values (fractions as 'p/q')."""
    f = rep.rate_factor_max
    return {
        "h": rep.h,
        "r": rep.r,
        "scheme2_checked": rep.scheme2_checked,
        "scheme2_skipped": rep.scheme2_skipped,
        "scheme2_violations": list(rep.scheme2_violations),
        "scheme2_curve_notes": list(rep.scheme2_curve_notes),
        "rate_factor_max": None if f is None else f"{f.numerator}/{f.denominator}",
        "rate_factor_argmax": rep.rate_factor_argmax,
        "scheme3_checked": rep.scheme3_checked,
        "scheme3_violations": [list(v) for v in rep.scheme3_violations],
        "ok": rep.ok,
    }


def check_table(csv: str, rep: Any, expected: dict[str, Any]) -> Problems:
    """CSV digest and dominance report equal the values recorded from the seed commit."""
    out: Problems = []
    digest = hashlib.sha256(csv.encode("ascii")).hexdigest()
    if digest != expected["csv_sha256"]:
        out.append(f"compare CSV sha256 {digest} != recorded {expected['csv_sha256']}")
    got = dominance_fields(rep)
    for key, want in expected["dominance"].items():
        if got.get(key) != want:
            out.append(f"dominance field {key} = {got.get(key)!r}, recorded {want!r}")
    return out


def byte_counters(report: Any) -> tuple[dict[str, float], Problems]:
    """Computed link and XOR byte counts of one simulate() round.

    Derived from the round's TransmissionLog and DeliveryPlan. Server->relay
    bytes must equal S * E / F. Relay->user bytes are split into pieces the
    user needs (its column holds the symbol) and pieces it only overhears.
    """
    log, plan = report.log, report.plan
    packet = log.e_bytes // log.f_rows
    labels = list(log.user_bytes)
    out: Problems = []
    server_relay = sum(log.relay_bytes.values())
    if server_relay * log.f_rows != len(plan.signals) * log.e_bytes:
        out.append(f"server->relay bytes {server_relay} != S*E/F with S={len(plan.signals)}")
    behind = {h: sum(1 for lab in labels if h in lab) for h in log.relay_parts}
    sig = {s.symbol: s for s in plan.signals}
    forwarded = useful = 0
    for h, parts in log.relay_parts.items():
        for symbol, _ in parts:
            s = sig[symbol]
            piece = packet // len(s.relays)
            forwarded += piece * behind[h]
            useful += piece * sum(1 for _, lab, _, _ in s.terms if h in lab)
    relay_user = sum(log.user_bytes.values())
    if forwarded != relay_user:
        out.append(f"relay->user bytes {relay_user} != pieces x attached users {forwarded}")
    non_star = sum(len(s.terms) for s in plan.signals)
    cache = (len(labels) * log.f_rows - non_star) * report.n_files * packet
    counters = {
        "simulate.server_relay_bytes": server_relay,
        "simulate.relay_user_bytes": relay_user,
        "simulate.useful_user_bytes": useful,
        "simulate.overheard_user_bytes": relay_user - useful,
        "simulate.cache_bytes": cache,
        # encode XORs every term once; each receiver XORs out the other terms
        "simulate.xor_bytes": sum(len(s.terms) ** 2 for s in plan.signals) * packet,
    }
    return counters, out


# ---------------------------------------------------------------- workloads


def sweep_specs() -> list[tuple[str, int, int, int, int]]:
    """Every buildable, routable tuple with 3 <= H <= 8: 495 c1p/c1pp plus 70 c2."""
    out = []
    for h in range(3, 9):
        for r in range(1, h):
            for b in range(1, h):
                for lam in range(1, min(r, b) + 1):
                    if r + b - 2 * lam < h:
                        out.append(("c1p", h, r, b, lam))
                        if lam < r:
                            out.append(("c1pp", h, r, b, lam))
            for lam in range(1, h - r):
                for b in range(lam + 1, r + lam):
                    out.append(("c2", h, r, b, lam))
    return out


def spread_order(n: int) -> list[int]:
    """Bit-reversal permutation of range(n): every prefix samples the whole range evenly."""
    bits = max(1, (n - 1).bit_length())
    rev = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [j for j in rev if j < n]


def _cells(spec: tuple[str, int, int, int, int]) -> int:
    family, h, r, b, lam = spec
    rows = binomial(h, b) * (binomial(b, lam) if family == "c2" else 1)
    return rows * binomial(h, r)


class Sweep:
    """Many small arrays through build -> format -> parse -> validate -> closed form -> simulate."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.items_list: list[tuple[tuple[str, int, int, int, int], tuple[int, ...], int]] = []

    def setup(self) -> None:
        specs = sorted(sweep_specs(), key=lambda s: (_cells(s), s))
        ordered = [specs[i] for i in spread_order(len(specs))]
        rng = random.Random(self.seed)
        self.items_list = []
        for spec in ordered:
            k = binomial(spec[1], spec[2])
            demands = tuple(rng.randint(1, SWEEP_FILES) for _ in range(k))
            self.items_list.append((spec, demands, rng.randrange(1 << 32)))

    def prepare(self) -> None:
        pass

    def items(self) -> Iterator[Any]:
        return itertools.cycle(self.items_list)

    def trace_items(self) -> list[Any]:
        return self.items_list[:SWEEP_TRACE_ARRAYS]

    def peak_item(self) -> Any:
        return max(self.items_list, key=lambda it: (_cells(it[0]), it[0]))

    def run(self, item: Any) -> tuple[Problems, int]:
        spec, demands, lib_seed = item
        family, h, r, b, lam = spec
        built = construct.build_family(family, h=h, r=r, b=b, lam=lam)
        parsed = model.parse_array(model.format_array(built))
        vrep = val.validate(parsed, require_cpda=True)
        if family == "c2":
            params = analysis.params_c2(h, r, b, lam)
        else:
            params = analysis.params_c1(h, r, b, lam, family[2:])
        rfa = analysis.rate_from_array(parsed)
        srep = sim.simulate(parsed, n_files=SWEEP_FILES, demands=demands, seed=lib_seed, unit=SWEEP_UNIT)
        problems = check_sweep_array(spec, built, parsed, vrep, params, rfa, srep)
        return problems, parsed.k * srep.e_bytes

    def sizes(self) -> dict[str, Any]:
        spec = self.peak_item()[0]
        arr = construct.build_family(spec[0], h=spec[1], r=spec[2], b=spec[3], lam=spec[4])
        rep = val.validate(arr, require_cpda=True)
        return {"arrays": len(self.items_list), "largest": "{}({},{},{},{})".format(*spec),
                "K": arr.k, "F": arr.f, "Z": rep.z, "S": rep.s, "N": SWEEP_FILES,
                "E": SWEEP_UNIT * sim.min_file_bytes(arr), "grid_points": 0}


class _Rounds:
    """Shared shape of bulk and fanout: one fixed array, one seeded input per round."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.array: Any = None
        self.expected_rates: dict[int, Fraction] = {}

    def prepare(self) -> None:
        self.expected_rates = analysis.rate_from_array(self.array)

    def trace_items(self) -> list[Any]:
        return [next(self.items())]

    def peak_item(self) -> Any:
        return next(self.items())

    def _sizes(self, n: int, e: int) -> dict[str, Any]:
        rep = val.validate(self.array, require_cpda=True)
        return {"K": self.array.k, "F": self.array.f, "Z": rep.z, "S": rep.s, "N": n, "E": e,
                "grid_points": 0}


class Bulk(_Rounds):
    """One large array, few files, big packets: the byte data path."""

    name = "bulk"

    def setup(self) -> None:
        self.array = construct.c2(*BULK_SHAPE)

    def items(self) -> Iterator[Any]:
        rng = random.Random(self.seed)
        while True:
            demands = tuple(rng.randint(1, BULK_FILES) for _ in range(self.array.k))
            yield demands, rng.randrange(1 << 32)

    def run(self, item: Any) -> tuple[Problems, int]:
        demands, lib_seed = item
        rep = sim.simulate(self.array, n_files=BULK_FILES, demands=demands, seed=lib_seed, unit=BULK_UNIT)
        return check_delivery(rep, self.expected_rates), self.array.k * rep.e_bytes

    def sizes(self) -> dict[str, Any]:
        return self._sizes(BULK_FILES, BULK_UNIT * sim.min_file_bytes(self.array))


class Fanout(_Rounds):
    """``cpda simulate`` on a file with CLI defaults: N = K files, every user a different file."""

    name = "fanout"
    unit = 64  # the CLI's default --unit

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.path = self.workdir / "fanout-c2-{}-{}-{}-{}.cpda".format(*FANOUT_SHAPE)
        self.array = construct.c2(*FANOUT_SHAPE)
        model.write_array(self.array, self.path)

    def items(self) -> Iterator[Any]:
        rng = random.Random(self.seed)
        while True:
            yield rng.randrange(1 << 32)

    def run(self, item: Any) -> tuple[Problems, int]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["simulate", str(self.path), "--seed", str(item)])
        k = self.array.k
        e = self.unit * sim.min_file_bytes(self.array)
        return check_cli_output(rc, buf.getvalue(), k, k, e, self.expected_rates), k * e

    def sizes(self) -> dict[str, Any]:
        return self._sizes(self.array.k, self.unit * sim.min_file_bytes(self.array))


class Table:
    """compare_table + render_csv + check_dominance: exact Fraction work, no arrays."""

    name = "table"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed  # the table has no random input
        self.expected: dict[str, Any] = {}

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        self.expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["table"]

    def items(self) -> Iterator[Any]:
        return itertools.repeat(TABLE_SHAPE)

    def trace_items(self) -> list[Any]:
        return [TABLE_SHAPE]

    def peak_item(self) -> Any:
        return TABLE_SHAPE

    def run(self, item: Any) -> tuple[Problems, int]:
        h, r = item
        rows = analysis.compare_table(h, r)
        csv = analysis.render_csv(rows, h, r)
        rep = analysis.check_dominance(h, r)
        return check_table(csv, rep, self.expected), len(csv)

    def sizes(self) -> dict[str, Any]:
        h, r = TABLE_SHAPE
        cands = len(analysis.scheme1_candidates(h, r)) + len(analysis.scheme3_candidates(h, r))
        grid = binomial(h - 1, r - 1) - 1
        return {"H": h, "r": r, "candidates": cands, "grid_points": grid}


WORKLOADS = {w.name: w for w in (Sweep, Bulk, Fanout, Table)}
