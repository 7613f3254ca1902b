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

Every byte exists once. A cache is a read-only view over the shared library
that serves only the starred rows of its user's column, so a decode that
reaches for a packet the user never cached raises KeyError. Each relay keeps
one buffer holding each of its pieces once, and a user reads the buffers of
its own relays through one view. XORs run on whole packets as Python ints.
`simulate` refuses, before drawing any bytes, a run whose library, decoded
files and relay buffers would need more than `MAX_SIM_BYTES`.

Everything is exact: E must be divisible by F * lcm(w_s) so packets and
sub-signals are whole byte ranges, and rates come out as Fractions of E.
"""

from __future__ import annotations

import random
from collections import ChainMap
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .combinat import RelaySet
from .model import STAR, PdaArray
from .validate import InvalidArrayError, validate

PacketId = tuple[int, int]  # (file id, packet id), both 1-based
PieceId = tuple[int, int]  # (symbol, sub-signal index)

# library + decoded files + relay buffers of one run; 1 GiB
MAX_SIM_BYTES = 1 << 30


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


class CacheView(Mapping[PacketId, bytes]):
    """One user's cache: every file's packets at the starred rows of its column.

    The star test reads the array's own rows, so no cache copies them. Reads
    go to the shared library; a packet outside those rows, or of a file
    outside 1..N, is not in the cache and raises KeyError.
    """

    def __init__(self, library: Library, array: PdaArray, col: int) -> None:
        self._files = library.files
        self._size = library.e_bytes // array.f
        self._array = array
        self._rows = array.rows
        self._col = col

    def __getitem__(self, key: PacketId) -> bytes:
        fid, pid = key
        # the range test comes first: pid 0 or below would wrap to the last rows
        if not (1 <= pid <= len(self._rows) and 1 <= fid <= len(self._files)) \
                or self._rows[pid - 1][self._col] is not STAR:
            raise KeyError(key)
        return self._files[fid - 1][(pid - 1) * self._size: pid * self._size]

    def __iter__(self) -> Iterator[PacketId]:
        n, col = len(self._files), self._col
        return ((fid, i + 1) for i, row in enumerate(self._rows) if row[col] is STAR
                for fid in range(1, n + 1))

    def __len__(self) -> int:
        return self._array.star_count(self._col) * len(self._files)


def place(array: PdaArray, library: Library) -> dict[RelaySet, CacheView]:
    """Give each user a view of the packets starred in its column."""
    need = min_file_bytes(array)
    if library.e_bytes % need:
        raise ValueError(f"file size {library.e_bytes} not divisible by F*lcm(w) = {need}")
    return {label: CacheView(library, array, j) for j, label in enumerate(array.col_labels)}


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


def execute(
    array: PdaArray, plan: DeliveryPlan, library: Library
) -> tuple[TransmissionLog, dict[RelaySet, ChainMap[PieceId, bytes]]]:
    """Form, split and forward every signal; returns the log and per-user pieces.

    Each piece is stored once, in its relay's buffer. A user's pieces are a
    ChainMap over the buffers of its relays, with a first map of its own, so
    a write through one user's view reaches no other user.
    """
    e = library.e_bytes
    if e % array.f:
        raise ValueError(f"file size {e} not divisible by row count {array.f}")
    packet_bytes = e // array.f
    if any(d > library.n for d in plan.demands):
        raise ValueError("demand outside library")
    relay_bytes = {h: 0 for h in range(1, array.h + 1)}
    buffers: dict[int, dict[PieceId, bytes]] = {h: {} for h in relay_bytes}
    for sig in plan.signals:
        w = len(sig.relays)
        if packet_bytes % w:
            raise ValueError(f"packet size {packet_bytes} not divisible by width {w}")
        x = 0
        for _, _, fid, pid in sig.terms:
            x ^= int.from_bytes(library.packet(fid, pid, array.f), "little")
        signal = x.to_bytes(packet_bytes, "little")
        part = packet_bytes // w
        for l, h in enumerate(sig.relays):
            buffers[h][(sig.symbol, l)] = signal[l * part: (l + 1) * part]
            relay_bytes[h] += part
    log = TransmissionLog(
        e_bytes=e,
        f_rows=array.f,
        relay_bytes=relay_bytes,
        relay_parts={h: tuple(buf) for h, buf in buffers.items()},
        user_bytes={label: sum(relay_bytes[h] for h in label) for label in array.col_labels},
    )
    received = {label: ChainMap({}, *(buffers[h] for h in label)) for label in array.col_labels}
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
    caches: Mapping[RelaySet, Mapping[PacketId, bytes]],
    received: Mapping[RelaySet, Mapping[PieceId, bytes]],
    library: Library,
) -> DecodeResult:
    """Each user rebuilds its demanded file from cache plus received pieces."""
    by_symbol = {sig.symbol: sig for sig in plan.signals}
    size = library.e_bytes // array.f
    files: dict[RelaySet, bytes] = {}
    failures: list[tuple[RelaySet, int]] = []
    for j, label in enumerate(array.col_labels):
        want = plan.demands[j]
        cache, pieces = caches[label], received[label]
        parts: list[bytes] = []
        for i, row in enumerate(array.rows):
            cell = row[j]
            if cell is STAR:
                parts.append(cache[(want, i + 1)])
                continue
            sig = by_symbol[cell]
            signal = b"".join(pieces[(cell, l)] for l in range(len(sig.relays)))
            if len(signal) != size:
                # not one packet's worth of bytes: nothing decodes, so the packet fails below
                parts.append(b"")
                continue
            x = int.from_bytes(signal, "little")
            for col, _, fid, pid in sig.terms:
                if col != j:
                    # cross cells are stars, so this term sits in the cache
                    x ^= int.from_bytes(cache[(fid, pid)], "little")
            parts.append(x.to_bytes(size, "little"))
        got = b"".join(parts)
        files[label] = got
        expect = library.files[want - 1]
        if got != expect:
            for i, part in enumerate(parts):
                if part != expect[i * size: (i + 1) * size]:
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
    e = unit * min_file_bytes(array)
    need = (n + array.k) * e + len(array.symbol_index) * e // array.f
    if need > MAX_SIM_BYTES:
        raise ValueError(f"{n} files of {e} bytes need about {need} bytes, above the "
                         f"{MAX_SIM_BYTES}-byte limit; lower --files or --unit")
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
