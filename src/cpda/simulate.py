"""Byte-exact delivery simulation.

The server holds N files of E bytes each. Every file is split into F packets
(one per array row). A user caches packet j of every file exactly when its
column has a star in row j. For each symbol s the server XORs the packets
named by the cells equal to s, splits the result into w_s equal contiguous
sub-signals, and hands sub-signal l to the l-th relay of I_s (the common
relays of the covering columns, ascending). Each relay forwards its
sub-signals to every attached user. A user rebuilds X_s from the w_s pieces,
XORs out the terms it has cached (the cross cells are stars, so it has them),
and is left with its own missing packet.

Everything is exact: E must be divisible by F * lcm(w_s) so packets and
sub-signals are whole byte ranges, and rates come out as Fractions of E.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .combinat import RelaySet
from .model import STAR, PdaArray
from .validate import InvalidArrayError, validate

PacketId = tuple[int, int]  # (file id, packet id), both 1-based


@dataclass(frozen=True)
class Library:
    files: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.files:
            raise ValueError("library needs at least one file")
        e = len(self.files[0])
        if e == 0 or any(len(f) != e for f in self.files):
            raise ValueError("all files must have the same positive byte length")

    @property
    def n(self) -> int:
        return len(self.files)

    @property
    def e_bytes(self) -> int:
        return len(self.files[0])

    def packet(self, file_id: int, packet_id: int, f_rows: int) -> bytes:
        size = self.e_bytes // f_rows
        return self.files[file_id - 1][(packet_id - 1) * size: packet_id * size]


def split_lcm(array: PdaArray) -> int:
    """lcm of all symbol widths; 1 for an all-star array."""
    return lcm(*(info.width for info in array.symbol_index.values()))


def min_file_bytes(array: PdaArray) -> int:
    """Smallest E for which every packet and sub-signal is a whole byte count."""
    return array.f * split_lcm(array)


def make_library(array: PdaArray, n: int, seed: int = 0, unit: int = 64) -> Library:
    """n files of unit * min_file_bytes(array) uniformly random bytes."""
    if n < 1 or unit < 1:
        raise ValueError("need n >= 1 and unit >= 1")
    e = unit * min_file_bytes(array)
    rng = random.Random(seed)
    return Library(tuple(rng.randbytes(e) for _ in range(n)))


def place(array: PdaArray, library: Library) -> dict[RelaySet, dict[PacketId, bytes]]:
    """Fill each user's cache with the packets starred in its column."""
    need = min_file_bytes(array)
    if library.e_bytes % need:
        raise ValueError(f"file size {library.e_bytes} not divisible by F*lcm(w) = {need}")
    caches: dict[RelaySet, dict[PacketId, bytes]] = {}
    for j, label in enumerate(array.col_labels):
        cache: dict[PacketId, bytes] = {}
        for i in range(array.f):
            if array.rows[i][j] is STAR:
                for fid in range(1, library.n + 1):
                    cache[(fid, i + 1)] = library.packet(fid, i + 1, array.f)
        caches[label] = cache
    return caches


@dataclass(frozen=True)
class SignalPlan:
    symbol: int
    # (column index, user label, demanded file id, packet id) per occurrence, row-major
    terms: tuple[tuple[int, RelaySet, int, int], ...]
    relays: RelaySet  # I_s ascending; sub-signal l goes to relays[l]


@dataclass(frozen=True)
class DeliveryPlan:
    signals: tuple[SignalPlan, ...]
    demands: tuple[int, ...]

    def by_symbol(self, s: int) -> SignalPlan:
        for sig in self.signals:
            if sig.symbol == s:
                return sig
        raise KeyError(s)


def plan_delivery(array: PdaArray, demands: tuple[int, ...]) -> DeliveryPlan:
    """One signal per symbol, terms in row-major cell order; refuses unroutable symbols."""
    if len(demands) != array.k:
        raise ValueError(f"need one demand per user, got {len(demands)} for {array.k}")
    if any(d < 1 for d in demands):
        raise ValueError("file ids are 1-based")
    signals: list[SignalPlan] = []
    for s, info in array.symbol_index.items():
        if not info.common:
            raise InvalidArrayError(f"symbol {s} has no common relay and cannot be routed")
        terms = tuple(
            (j, array.col_labels[j], demands[j], i + 1)
            for i, j in info.occurrences
        )
        signals.append(SignalPlan(s, terms, info.common))
    return DeliveryPlan(tuple(signals), tuple(demands))


@dataclass(frozen=True)
class TransmissionLog:
    e_bytes: int
    f_rows: int
    relay_bytes: dict[int, int]  # server -> relay link totals
    relay_parts: dict[int, tuple[tuple[int, int], ...]]  # relay -> (symbol, part index)
    user_bytes: dict[RelaySet, int]  # forwarded to each user by its relays


def _xor(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("xor of unequal lengths")
    return bytes(x ^ y for x, y in zip(a, b))


def execute(
    array: PdaArray, plan: DeliveryPlan, library: Library
) -> tuple[TransmissionLog, dict[RelaySet, dict[tuple[int, int], bytes]]]:
    """Form, split and forward every signal; returns the log and per-user pieces."""
    e = library.e_bytes
    if e % array.f:
        raise ValueError(f"file size {e} not divisible by row count {array.f}")
    packet_bytes = e // array.f
    if any(d > library.n for d in plan.demands):
        raise ValueError("demand outside library")
    relay_bytes = {h: 0 for h in range(1, array.h + 1)}
    relay_parts: dict[int, list[tuple[int, int]]] = {h: [] for h in relay_bytes}
    user_bytes = {label: 0 for label in array.col_labels}
    received: dict[RelaySet, dict[tuple[int, int], bytes]] = {label: {} for label in array.col_labels}
    for sig in plan.signals:
        x = bytes(packet_bytes)
        for _, _, fid, pid in sig.terms:
            x = _xor(x, library.packet(fid, pid, array.f))
        w = len(sig.relays)
        if packet_bytes % w:
            raise ValueError(f"packet size {packet_bytes} not divisible by width {w}")
        part = packet_bytes // w
        for l, h in enumerate(sig.relays):
            chunk = x[l * part: (l + 1) * part]
            relay_bytes[h] += part
            relay_parts[h].append((sig.symbol, l))
            for label in array.col_labels:
                if h in label:
                    received[label][(sig.symbol, l)] = chunk
                    user_bytes[label] += part
    log = TransmissionLog(
        e_bytes=e,
        f_rows=array.f,
        relay_bytes=relay_bytes,
        relay_parts={h: tuple(parts) for h, parts in relay_parts.items()},
        user_bytes=user_bytes,
    )
    return log, received


@dataclass(frozen=True)
class DecodeResult:
    files: dict[RelaySet, bytes]  # what each user reconstructed
    failures: tuple[tuple[RelaySet, int], ...]  # (user, packet id) mismatches

    @property
    def ok(self) -> bool:
        return not self.failures


def decode_all(
    array: PdaArray,
    plan: DeliveryPlan,
    caches: dict[RelaySet, dict[PacketId, bytes]],
    received: dict[RelaySet, dict[tuple[int, int], bytes]],
    library: Library,
) -> DecodeResult:
    """Each user rebuilds its demanded file from cache plus received pieces."""
    by_symbol = {sig.symbol: sig for sig in plan.signals}
    files: dict[RelaySet, bytes] = {}
    failures: list[tuple[RelaySet, int]] = []
    for j, label in enumerate(array.col_labels):
        want = plan.demands[j]
        parts: list[bytes] = []
        for i in range(array.f):
            cell = array.rows[i][j]
            if cell is STAR:
                parts.append(caches[label][(want, i + 1)])
                continue
            sig = by_symbol[cell]
            x = b"".join(received[label][(cell, l)] for l in range(len(sig.relays)))
            for col, _, fid, pid in sig.terms:
                if col != j:
                    # cross cells are stars, so this term sits in the cache
                    x = _xor(x, caches[label][(fid, pid)])
            parts.append(x)
        got = b"".join(parts)
        files[label] = got
        expect = library.files[want - 1]
        if got != expect:
            size = library.e_bytes // array.f
            for i in range(array.f):
                if got[i * size: (i + 1) * size] != expect[i * size: (i + 1) * size]:
                    failures.append((label, i + 1))
    return DecodeResult(files, tuple(failures))


def measure_rates(log: TransmissionLog) -> dict[int, Fraction]:
    """Per-relay load as an exact fraction of one file size."""
    return {h: Fraction(n, log.e_bytes) for h, n in log.relay_bytes.items()}


@dataclass(frozen=True)
class SimulationReport:
    demands: tuple[int, ...]
    n_files: int
    e_bytes: int
    f_rows: int
    f_eff: int
    w_histogram: dict[int, int]
    rates: dict[int, Fraction]
    log: TransmissionLog
    plan: DeliveryPlan
    result: DecodeResult

    @property
    def ok(self) -> bool:
        return self.result.ok


def default_demands(k: int, n: int) -> tuple[int, ...]:
    """Users 1..K demand files 1..N cyclically."""
    return tuple(i % n + 1 for i in range(k))


def simulate(
    array: PdaArray,
    n_files: int | None = None,
    demands: tuple[int, ...] | None = None,
    seed: int = 0,
    unit: int = 64,
) -> SimulationReport:
    """End-to-end run: validate, build a random library, deliver, decode, meter."""
    report = validate(array, require_cpda=True)
    if not report.ok:
        axioms = sorted({v.axiom for v in report.violations})
        raise InvalidArrayError("array is not simulatable, failing: " + ", ".join(axioms))
    n = array.k if n_files is None else n_files
    library = make_library(array, n, seed=seed, unit=unit)
    if demands is None:
        demands = default_demands(array.k, n)
    caches = place(array, library)
    plan = plan_delivery(array, demands)
    log, received = execute(array, plan, library)
    result = decode_all(array, plan, caches, received, library)
    return SimulationReport(
        demands=demands,
        n_files=n,
        e_bytes=library.e_bytes,
        f_rows=array.f,
        f_eff=array.f * split_lcm(array),
        w_histogram=report.w_histogram,
        rates=measure_rates(log),
        log=log,
        plan=plan,
        result=result,
    )
