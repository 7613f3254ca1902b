"""Benchmark entry point.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing. With ``--trace 0`` the
workload's largest operation first runs once in a child forked before the
package is imported, for peak memory; then its operations run untraced for
``--seconds`` seconds, with a set-up repeat (a fresh import of the package
and the workload's input building) every half second between them, and the
end-to-end metrics are printed. With
``--trace 1`` the workload's fixed trace pass (set-up plus its trace
operations) runs untraced and then with every public layer function wrapped
in a span, in pairs for as long as another pair fits in ``--seconds``, and the
per-layer metrics are printed (medians over the passes).

An exception raised by the package during an operation fails that operation;
it is reported as a problem and the run goes on.

Human-readable lines come first. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record, stamped with the source revision, Python version, CPU count,
seed and input sizes, is written to ``.bench_out/`` together with the spans.
Exit code: 0 when every output check passed, 1 when one failed, 2 when the
checkout has no package to benchmark or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from spans import LAYERS, Tracer, instrument, outermost_total

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# seconds of timed loop between two set-up repeats; the repeats are spread
# over the run so that their median sees the same slow and fast spells of the
# machine as the operations do
SETUP_INTERVAL = 0.5

# per-layer time metric -> the spans it sums (inclusive, outermost only)
LAYER_SPANS = {
    "construct.build_s": ("construct.c1p", "construct.c1pp", "construct.c2",
                          "construct.mn_pda", "construct.build_family"),
    "model.format_s": ("model.format_array",),
    "model.parse_s": ("model.parse_array",),
    "model.index_s": ("model.build_symbol_index",),
    "validate.validate_s": ("validate.validate",),
    "simulate.library_s": ("simulate.make_library",),
    "simulate.place_s": ("simulate.place",),
    "simulate.plan_s": ("simulate.plan_delivery",),
    "simulate.execute_s": ("simulate.execute",),
    "simulate.decode_s": ("simulate.decode_all",),
    "simulate.meter_s": ("simulate.measure_rates",),
    "analysis.candidates_s": ("analysis.scheme1_candidates", "analysis.scheme3_candidates"),
    "analysis.compare_s": ("analysis.compare_table",),
    "analysis.csv_s": ("analysis.render_csv",),
    "analysis.dominance_s": ("analysis.check_dominance",),
    "analysis.rate_from_array_s": ("analysis.rate_from_array",),
    "cli.main_s": ("cli.main",),
}
BYTE_COUNTERS = ("simulate.server_relay_bytes", "simulate.relay_user_bytes",
                 "simulate.useful_user_bytes", "simulate.overheard_user_bytes",
                 "simulate.cache_bytes", "simulate.xor_bytes")
# counts that must repeat exactly from one traced pass to the next
COUNTERS = ("model.index_calls", "validate.symbols", "validate.violations", "trace.spans",
            "simulate.useful_ratio", "simulate.cache_amplification", "analysis.candidates",
            "analysis.grid_points", "analysis.scan_pairs", *BYTE_COUNTERS)


def import_layers() -> None:
    """Import the layer modules afresh, running their module bodies again."""
    for name in [m for m in sys.modules if m == "cpda" or m.startswith("cpda.")]:
        del sys.modules[name]
    for layer in LAYERS:
        importlib.import_module(f"cpda.{layer}")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stamps(root: Path, args: argparse.Namespace, sizes: dict[str, Any]) -> dict[str, Any]:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "cpda").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def guarded_run(ws: Any, item: Any) -> tuple[list[str], int]:
    """One operation; an exception from the package fails the operation instead of the run."""
    try:
        return ws.run(item)
    except Exception as e:  # noqa: BLE001 - any exception is a failed operation
        return [f"{ws.name} operation raised {type(e).__name__}: {e}"], 0


def setup_repeat(ws: Any) -> float:
    """Seconds to import the package afresh and build the workload's inputs once."""
    gc.collect()
    t0 = time.perf_counter()
    import_layers()
    ws.setup()
    return time.perf_counter() - t0


def timed_loop(ws: Any, seconds: float) -> dict[str, Any]:
    samples: list[float] = []
    setup_times: list[float] = []
    problems: list[str] = []
    failed = out_bytes = 0
    items = ws.items()
    start = next_setup = time.perf_counter()
    while True:
        # the workload keeps the modules it imported first, so a re-import
        # here does not change what the operations run
        if time.perf_counter() >= next_setup:
            setup_times.append(setup_repeat(ws))
            next_setup = time.perf_counter() + SETUP_INTERVAL
        item = next(items)
        # every operation starts from a collected heap, so garbage left by the
        # previous one is not charged to it
        gc.collect()
        t0 = time.perf_counter()
        found, nbytes = guarded_run(ws, item)
        samples.append(time.perf_counter() - t0)
        out_bytes += nbytes
        if found:
            failed += 1
            problems += found
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return {"samples": samples, "setup_times": setup_times, "wall": wall,
            "out_bytes": out_bytes, "failed": failed, "problems": problems}


def peak_memory(args: argparse.Namespace) -> tuple[int, list[str]]:
    """Peak resident-memory growth, in bytes, of one operation on the workload's largest input.

    Called before the package is imported. The operation runs in a forked
    child that imports the package once and sets the workload up once, so the
    baseline holds no memory left over from set-up repeats or other
    operations; it repeats to within a few pages from run to run.
    tracemalloc would give a traced-heap figure instead, but slows these
    workloads about fourfold.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: measure, report through the pipe, exit without cleanup
        status = 1
        try:
            os.close(read_end)
            from workloads import WORKLOADS

            ws = WORKLOADS[args.workload](args.seed, OUT_DIR / "work")
            ws.setup()
            ws.prepare()
            item = ws.peak_item()
            gc.collect()
            base = resident_bytes()
            found, _ = guarded_run(ws, item)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            os.write(write_end, json.dumps({"peak": peak - base, "problems": found}).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"peak-memory child exited with status {status}")
    report = json.loads(data)
    return report["peak"], report["problems"]


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def end_to_end(ws: Any, args: argparse.Namespace, peak: int,
               peak_problems: list[str]) -> tuple[dict[str, float], int, int, list[str], dict[str, Any]]:
    loop = timed_loop(ws, args.seconds)
    s = loop["samples"]
    n = len(s)
    busy = sum(s)
    metrics = {
        "setup_s": statistics.median(loop["setup_times"]),
        "ops_per_s": n / busy,
        "op_p50_s": statistics.median(s),
        "op_p90_s": nearest_rank(s, 0.9),
        "goodput_mb_s": loop["out_bytes"] / busy / 1e6,
        "peak_mem_mb": peak / 1e6,
        "ok_ratio": (n - loop["failed"]) / n,
    }
    extra = {"samples": n, "setup_repeats_s": loop["setup_times"], "loop_wall_s": loop["wall"],
             "out_bytes": loop["out_bytes"]}
    return metrics, n, loop["failed"], loop["problems"] + peak_problems, extra


def run_pass(ws: Any) -> tuple[int, int, list[str]]:
    ws.setup()
    attempted = failed = 0
    problems: list[str] = []
    for item in ws.trace_items():
        found, _ = guarded_run(ws, item)
        attempted += 1
        if found:
            failed += 1
            problems += found
    return attempted, failed, problems


def pass_metrics(tracer: Tracer, run_id: int, sizes: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    """Per-layer times, self times and counts of one traced pass."""
    from workloads import byte_counters

    spans = [s for s in tracer.spans if s.run_id == run_id]
    out: dict[str, float] = {
        name: outermost_total(tracer, frozenset(names), run_id) for name, names in LAYER_SPANS.items()
    }
    self_times = tracer.self_times()
    for layer in LAYERS:
        out[f"self.{layer}_s"] = sum(
            t for s, t in zip(tracer.spans, self_times) if s.run_id == run_id and s.name.startswith(layer + ".")
        )
    problems: list[str] = []
    bytes_total = dict.fromkeys(BYTE_COUNTERS, 0)
    file_bytes = symbols = violations = 0
    for name, result in tracer.kept:
        if name == "simulate.simulate":
            counters, found = byte_counters(result)
            problems += found
            for key, value in counters.items():
                bytes_total[key] += value
            file_bytes += result.n_files * result.e_bytes
        elif name == "validate.validate":
            symbols += result.s
            violations += len(result.violations)
    out.update(bytes_total)
    relay_user = bytes_total["simulate.relay_user_bytes"]
    out["simulate.useful_ratio"] = bytes_total["simulate.useful_user_bytes"] / relay_user if relay_user else 0.0
    out["simulate.cache_amplification"] = bytes_total["simulate.cache_bytes"] / file_bytes if file_bytes else 0.0
    out["model.index_calls"] = sum(1 for s in spans if s.name == "model.build_symbol_index")
    out["validate.symbols"] = symbols
    out["validate.violations"] = violations
    if violations:
        problems.append(f"validate reported {violations} violations in the traced pass")
    cands, grid = sizes.get("candidates", 0), sizes.get("grid_points", 0)
    out["analysis.candidates"] = cands
    out["analysis.grid_points"] = grid
    out["analysis.scan_pairs"] = cands * grid
    out["trace.spans"] = len(spans)
    return out, problems


def per_layer(ws: Any, args: argparse.Namespace, sizes: dict[str, Any]) -> tuple[dict[str, float], int, int, list[str], dict[str, Any]]:
    tracer = Tracer(keep=("simulate.simulate", "validate.validate"))
    reps: list[dict[str, float]] = []
    attempted = failed = 0
    problems: list[str] = []
    agree: list[bool] = []
    start = time.perf_counter()
    while True:
        pair_start = t0 = time.perf_counter()
        a, f, found = run_pass(ws)
        untraced = time.perf_counter() - t0
        tracer.run_id += 1
        tracer.kept.clear()
        with instrument(tracer):
            t0 = time.perf_counter()
            b, g, found2 = run_pass(ws)
            traced = time.perf_counter() - t0
        metrics, found3 = pass_metrics(tracer, tracer.run_id, sizes)
        tracer.kept.clear()
        attempted, failed = attempted + a + b, failed + f + g
        problems += found + found2 + found3
        overhead = traced - untraced
        metrics["trace.overhead_s"] = overhead
        spanned = sum(s.duration for s in tracer.spans if s.run_id == tracer.run_id and s.parent < 0)
        # the spans must account for the untraced pass, up to the tracing overhead
        agree.append(abs(spanned - untraced) <= abs(overhead) + 0.05 * untraced)
        reps.append(metrics)
        # stop when another pair would end after --seconds; one pair always runs
        now = time.perf_counter()
        if now - start + (now - pair_start) > args.seconds:
            break
    merged = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
    for name in COUNTERS:
        if len({r[name] for r in reps}) != 1:
            problems.append(f"counter {name} differs between traced passes")
        merged[name] = reps[0][name]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write_jsonl(str(spans_path))
    extra = {"passes": len(reps), "spans_file": str(spans_path.relative_to(ROOT)),
             "spans_agree_with_untraced": agree}
    return merged, attempted, failed, problems, extra


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "cpda" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cpda'}; run from a cpda checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if not args.trace:
        peak, peak_problems = peak_memory(args)
    import_layers()
    cpda_file = Path(sys.modules["cpda"].__file__ or "").resolve()
    if (ROOT / "src") not in cpda_file.parents:
        print(f"error: cpda imported from {cpda_file}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    ws = WORKLOADS[args.workload](args.seed, OUT_DIR / "work")
    ws.setup()
    ws.prepare()
    sizes = ws.sizes()
    if args.trace:
        declared = spec["per_layer"]
        metrics, attempted, failed, problems, extra = per_layer(ws, args, sizes)
    else:
        declared = spec["end_to_end"]
        metrics, attempted, failed, problems, extra = end_to_end(ws, args, peak, peak_problems)
    if set(metrics) != {m["name"] for m in declared}:
        missing = {m["name"] for m in declared} ^ set(metrics)
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {"stamps": stamps(ROOT, args, sizes), **extra, "problems": problems[:50], "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("stamp " + json.dumps(record["stamps"]))
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
