"""Command line surface.

Subcommands: build, validate, simulate, params, compare. Exit codes follow
one rule everywhere: 0 success, 1 semantic failure (invalid array, failed
decode, violated comparison claim), 2 usage or parse errors. All randomness
flows from --seed (default 0), so identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from .analysis import (
    NotApplicableError,
    check_dominance,
    check_shape,
    compare_table,
    params_c1,
    params_c2,
    params_scheme2,
    params_scheme3,
    render_csv,
    render_dominance,
)
from .combinat import binomial, format_int, format_relays
from .construct import FAMILIES, build_family
from .model import ArrayFormatError, PdaArray, format_array, read_array, write_array
from .simulate import SimulationReport, simulate
from .validate import InvalidArrayError, render_report, validate

# compare refuses to walk a grouped-baseline series longer than this: (30,5)
# has 23,750 points and takes about 20 s, (60,6) would have 5,006,385
MAX_SERIES_POINTS = 25_000


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cpda", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def family_args(p: argparse.ArgumentParser, families: tuple[str, ...]) -> None:
        p.add_argument("--family", required=True, choices=families)
        p.add_argument("--H", dest="h", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--b", type=int)
        p.add_argument("--lambda", dest="lam", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--t", type=int)

    b = sub.add_parser("build", help="generate an array and write it in the v1 text format")
    family_args(b, FAMILIES)
    b.add_argument("--out", help="output path; omit to print the array to stdout")

    v = sub.add_parser("validate", help="check an array file and print measured parameters")
    v.add_argument("path")
    v.add_argument("--cpda", action="store_true", help="also require the common-relay property")

    s = sub.add_parser("simulate", help="run placement, delivery and decoding on an array file")
    s.add_argument("path")
    s.add_argument("--files", type=int, default=None, help="library size N (default: one per user)")
    s.add_argument("--demands", default=None,
                   help="comma list, 'a..b' range, or 'random' (default: 1..N cyclic)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--unit", type=int, default=64, help="bytes per minimal packet unit")
    s.add_argument("--table", action="store_true", help="print the per-signal composition table")

    p = sub.add_parser("params", help="closed-form scheme parameters for one tuple")
    family_args(p, ("c1p", "c1pp", "c2", "scheme2", "scheme3"))

    c = sub.add_parser("compare", help="CSV of scheme parameters across a memory grid")
    c.add_argument("--H", dest="h", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--grid", default=None,
                   help="comma list of memory ratios as p/q (default: grouped-baseline points)")
    c.add_argument("--mode", choices=("closest", "exact"), default="closest")
    c.add_argument("--out", help="CSV path; omit for stdout")
    c.add_argument("--check-dominance", action="store_true",
                   help="verify the cross-family claims; exit 1 on violations")
    return top


def _need(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = {"h": "--H", "lam": "--lambda"}.get(name, f"--{name}")
            raise ValueError(f"{flag} is required for family {args.family}")


def _cmd_build(args: argparse.Namespace) -> int:
    if args.family == "mn":
        _need(args, "k", "t")
    else:
        _need(args, "h", "r", "b", "lam")
    array = build_family(args.family, h=args.h, r=args.r, b=args.b, lam=args.lam,
                         k=args.k, t=args.t)
    report = validate(array)
    summary = render_report(report, array).splitlines()[0]
    if args.out:
        write_array(array, args.out)
        print(summary)
    else:
        sys.stdout.write(format_array(array))
        print(summary, file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    array = read_array(args.path)
    report = validate(array, require_cpda=args.cpda)
    print(render_report(report, array))
    return 0 if report.ok else 1


def _parse_demands(text: str, k: int, n: int, seed: int) -> tuple[int, ...]:
    if text == "random":
        rng = random.Random(seed)
        return tuple(rng.randint(1, n) for _ in range(k))
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi - lo + 1 != k:
            raise ValueError(f"range {text} has {hi - lo + 1} entries, need {k}")
        return tuple(range(lo, hi + 1))
    out = tuple(int(x) for x in text.split(","))
    if len(out) != k:
        raise ValueError(f"got {len(out)} demands, need {k}")
    return out


def _print_simulation(array: PdaArray, rep: SimulationReport, table: bool) -> None:
    print(f"users={array.k} files={rep.n_files} E={rep.e_bytes} bytes "
          f"F_rows={rep.f_rows} F_eff={rep.f_eff}")
    hist = ", ".join(f"{w}:{n}" for w, n in sorted(rep.w_histogram.items()))
    print(f"w: {{{hist}}}")
    if table:
        print("signal | composition | relays")
        for sig in rep.plan.signals:
            comp = " + ".join(f"W[{fid},{pid}]" for _, _, fid, pid in sig.terms)
            print(f"X_{sig.symbol} | {comp} | {format_relays(sig.relays)}")
    for h in sorted(rep.rates):
        rate = rep.rates[h]
        print(f"relay {h}: {rep.log.relay_bytes[h]} bytes, R = {rate.numerator}/{rate.denominator}")
    if rep.ok:
        print("DECODE OK")
    else:
        bad = ", ".join(f"(user {format_relays(u)}, packet {p})" for u, p in rep.result.failures)
        print(f"DECODE FAILED: {bad}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    array = read_array(args.path)
    n = args.files if args.files is not None else array.k
    demands = None
    if args.demands is not None:
        demands = _parse_demands(args.demands, array.k, n, args.seed)
        if any(not 1 <= d <= n for d in demands):
            raise ValueError(f"demands must lie in 1..{n}")
    rep = simulate(array, n_files=n, demands=demands, seed=args.seed, unit=args.unit)
    _print_simulation(array, rep, args.table)
    return 0 if rep.ok else 1


def _cmd_params(args: argparse.Namespace) -> int:
    if args.family in ("c1p", "c1pp"):
        _need(args, "h", "r", "b", "lam")
        p = params_c1(args.h, args.r, args.b, args.lam, args.family[2:])
    elif args.family == "c2":
        _need(args, "h", "r", "b", "lam")
        p = params_c2(args.h, args.r, args.b, args.lam)
    elif args.family == "scheme2":
        _need(args, "h", "r", "t")
        p = params_scheme2(args.h, args.r, args.t)
    else:
        _need(args, "h", "r", "b", "lam")
        p = params_scheme3(args.h, args.r, args.b, args.lam)
    print(f"family {p.family} H={p.h} r={p.r} {p.param_str}")
    print(f"K = {format_int(p.k)}")
    m = p.memory_ratio
    print(f"M/N = {format_int(m.numerator)}/{format_int(m.denominator)} (~{float(m):.6f})")
    print(f"R_h = {format_int(p.rate.numerator)}/{format_int(p.rate.denominator)} (~{float(p.rate):.6f})")
    if p.s_count is not None:
        print(f"S = {format_int(p.s_count)}")
    print(f"F_rows = {format_int(p.f_rows)}")
    print(f"w = {'?' if p.w is None else p.w}")
    print(f"F_eff = {format_int(p.f_eff)}")
    print(f"F_eff_full_split = {format_int(p.f_eff_full_split)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    grid = None
    if args.grid is not None:
        grid = []
        for tok in args.grid.split(","):
            try:
                grid.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad grid entry {tok!r}, expected p/q") from None
            if not 0 <= grid[-1] <= 1:
                raise ValueError(f"grid entry {tok} outside [0, 1]")
    check_shape(args.h, args.r)
    if args.h % args.r == 0 and (grid is None or args.check_dominance):
        points = binomial(args.h - 1, args.r - 1) - 1
        if points > MAX_SERIES_POINTS:
            raise ValueError(
                f"H={args.h}, r={args.r} has {points} grouped-baseline memory points, more than "
                f"{MAX_SERIES_POINTS}; name the points with --grid, without --check-dominance"
            )
    rows = compare_table(args.h, args.r, grid=grid, mode=args.mode)
    csv = render_csv(rows, args.h, args.r)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    if args.check_dominance:
        report = check_dominance(args.h, args.r)
        print(render_dominance(report), file=sys.stderr)
        return 0 if report.ok else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    commands = {
        "build": _cmd_build,
        "validate": _cmd_validate,
        "simulate": _cmd_simulate,
        "params": _cmd_params,
        "compare": _cmd_compare,
    }
    try:
        return commands[args.command](args)
    except ArrayFormatError as e:
        print(f"error: bad array file: {e}", file=sys.stderr)
        return 2
    except InvalidArrayError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NotApplicableError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
