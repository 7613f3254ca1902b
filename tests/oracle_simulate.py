"""Reference simulator: the byte path as it was before caches became views.

`place` copies every starred packet into each user's own dict, `execute`
copies each relay piece into every attached user's dict, and `_xor` works
byte by byte. Slow and memory-hungry, but each step is plain to read, so
tests compare the shared-buffer simulator in `cpda.simulate` against it.
"""

from __future__ import annotations

from cpda.combinat import RelaySet
from cpda.model import STAR, PdaArray
from cpda.simulate import (
    DecodeResult,
    DeliveryPlan,
    Library,
    PacketId,
    TransmissionLog,
    min_file_bytes,
)


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
