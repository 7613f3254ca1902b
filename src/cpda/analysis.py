"""Closed-form scheme parameters and cross-family comparisons.

Every scheme family is summarized by the same few numbers: user count K,
memory ratio M/N, per-relay rate R, and the effective subpacketization F_eff
(how many equal pieces a file must be cut into so all packets and sub-signals
are integral). Two packet accountings circulate for relay-routed schemes:
the delivery-driven one, F_rows * lcm(w_s), and the coarse full-split one,
H * F_rows. SchemeParams carries both; f_eff holds the accounting each
family is conventionally quoted with, and the calculators here agree exactly
with validator and simulator measurements on everything this package builds.

The buildable families (c1p, c1pp, c2) have a handful of degenerate settings
where the naive closed forms drift from the built arrays:

* c1p with b = lam: every symbol occurs once, so its routing set is the
  whole column label and w = r, not lam.
* c1pp with H = r+b-lam: again single-occurrence symbols, w = r, not r-lam.
* any c1 variant with H < r+b-lam: no cell satisfies |A & B| = lam, the
  array is all stars, S = 0 and nothing is transmitted.
* c1pp with lam = r: symbols pool cells whose covering columns share no
  relay; the array is a plain PDA but cannot be routed, so it has no
  scheme parameters at all.

The functions below return the measured truth in all four situations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lgamma, log

from .combinat import binomial, format_int
from .construct import check_c1_params, check_c2_params
from .model import PdaArray
from .validate import InvalidArrayError, validate


class NotApplicableError(ValueError):
    """A scheme family has no instance at the requested network shape."""


@dataclass(frozen=True)
class SchemeParams:
    family: str
    h: int
    r: int
    params: tuple[tuple[str, int], ...]
    memory_ratio: Fraction
    rate: Fraction
    s_count: int | None  # signal count; None when the family's form hides it
    f_rows: int  # packets per file before signal splitting
    w: int | None  # uniform signal width; None if unknown or no signals
    f_eff: int  # conventional effective subpacketization

    def __post_init__(self) -> None:
        if not 0 <= self.memory_ratio <= 1:
            raise ValueError(f"memory ratio {self.memory_ratio} outside [0, 1]")
        if self.rate < 0 or self.f_eff < 1:
            raise ValueError("rate must be >= 0 and f_eff >= 1")

    @property
    def k(self) -> int:
        return binomial(self.h, self.r)

    @property
    def f_eff_full_split(self) -> int:
        """The coarse H * f_rows accounting."""
        return self.h * self.f_rows

    @property
    def param_str(self) -> str:
        # semicolon-joined so the string can sit inside one CSV field unquoted
        return ";".join(f"{k}={v}" for k, v in self.params)

    @property
    def label(self) -> str:
        return f"{self.family}({self.param_str})"


def params_c1(h: int, r: int, b: int, lam: int, variant: str) -> SchemeParams:
    """Exact scheme numbers for c1p / c1pp, faithful at the degenerate settings."""
    if variant not in ("p", "pp"):
        raise ValueError(f"variant must be 'p' or 'pp', got {variant!r}")
    check_c1_params(h, r, b, lam)
    if variant == "pp" and lam == r:
        raise ValueError("c1pp with lambda = r cannot be routed (symbols share no relay)")
    f_rows = binomial(h, b)
    s = r + b - 2 * lam
    non_stars = binomial(r, lam) * binomial(h - r, b - lam)
    memory = 1 - Fraction(non_stars, f_rows)
    w: int | None
    if non_stars == 0:
        # all-star array: caches hold everything, nothing is sent
        s_count, w = 0, None
    elif variant == "p":
        s_count = binomial(h, s) * binomial(h - s, lam)
        w = r if b == lam else lam
    else:
        s_count = binomial(h, s) * binomial(s, r - lam)
        w = r if h == r + b - lam else r - lam
    return SchemeParams(
        family="c1" + variant,
        h=h,
        r=r,
        params=(("b", b), ("lam", lam)),
        memory_ratio=memory,
        rate=Fraction(s_count, h * f_rows),
        s_count=s_count,
        f_rows=f_rows,
        w=w,
        f_eff=f_rows * (w or 1),
    )


def params_c2(h: int, r: int, b: int, lam: int) -> SchemeParams:
    check_c2_params(h, r, b, lam)
    f_rows = binomial(h, b) * binomial(b, lam)
    non_stars = binomial(h - r, lam) * binomial(r, b - lam)
    w = r + lam - b
    s_count = binomial(h, r + lam) * binomial(r + lam, w)
    return SchemeParams(
        family="c2",
        h=h,
        r=r,
        params=(("b", b), ("lam", lam)),
        memory_ratio=1 - Fraction(non_stars, f_rows),
        rate=Fraction(s_count, h * f_rows),
        s_count=s_count,
        f_rows=f_rows,
        w=w,
        f_eff=w * f_rows,
    )


def check_shape(h: int, r: int) -> None:
    """Every comparison needs a network whose users attach to 0 < r < H relays."""
    if not 0 < r < h:
        raise ValueError(f"need 0 < r < H, got r={r}, H={h}")


def _grouped_k1(h: int, r: int) -> int:
    """Users per group K1 = C(H-1, r-1) of the grouped baselines."""
    check_shape(h, r)
    if h % r != 0:
        raise NotApplicableError(f"grouped baseline needs r | H, got H={h}, r={r}")
    return binomial(h - 1, r - 1)


def _scheme2(h: int, r: int, k1: int, t: int, f_rows: int) -> SchemeParams:
    """Grouped single-server numbers at t, given K1 and f_rows = C(K1, t)."""
    k = binomial(h, r)
    return SchemeParams(
        family="scheme2",
        h=h,
        r=r,
        params=(("t", t),),
        memory_ratio=Fraction(t, k1),
        # K(1 - M/N) / (H(1 + K1*M/N)) with K = H*K1/r reduces to (K1-t)/(r(1+t))
        rate=Fraction(k * (k1 - t), h * k1 * (1 + t)),
        s_count=None,
        f_rows=f_rows,
        w=1,
        f_eff=r * f_rows,
    )


# params_scheme2 refuses a point whose C(K1, t) has more decimal digits than
# this; computing C(K1, t) exactly takes about 0.1 s at 21,000 digits and
# 1.5 s at 90,000. The largest point of (30,5) has 7,149 digits.
MAX_F_ROWS_DIGITS = 20_000


def params_scheme2(h: int, r: int, t: int) -> SchemeParams:
    """Grouped single-server baseline; exists only when r divides H."""
    k1 = _grouped_k1(h, r)
    if not 1 <= t < k1:
        raise ValueError(f"need 1 <= t < {k1}, got t={t}")
    digits = (lgamma(k1 + 1) - lgamma(t + 1) - lgamma(k1 - t + 1)) / log(10) + 1
    if digits > MAX_F_ROWS_DIGITS:
        raise ValueError(f"t={t}: C({k1}, {t}) has about {digits:,.0f} digits, "
                         f"more than {MAX_F_ROWS_DIGITS:,}")
    return _scheme2(h, r, k1, t, binomial(k1, t))


def scheme2_series(h: int, r: int) -> Iterator[SchemeParams]:
    """params_scheme2(h, r, t) for t = 1..K1-1, in order, one at a time.

    C(K1, t) is stepped from C(K1, t-1) in exact integers rather than
    recomputed, so the whole series costs about as much as its last term.
    """
    k1 = _grouped_k1(h, r)
    f_rows = 1
    for t in range(1, k1):
        f_rows = f_rows * (k1 - t + 1) // t
        yield _scheme2(h, r, k1, t, f_rows)


def params_scheme3(h: int, r: int, b: int, lam: int) -> SchemeParams:
    """Grouped relay baseline built on a smaller (H-1, r-1) array; full-split packets."""
    _grouped_k1(h, r)  # the shape and r | H checks
    if r < 2:
        raise NotApplicableError("base array needs r >= 2")
    try:
        check_c1_params(h - 1, r - 1, b, lam)
    except ValueError as e:
        raise NotApplicableError(f"base parameters invalid: {e}") from None
    s_base = r - 1 + b - 2 * lam
    s_count = binomial(h - 1, s_base) * min(
        binomial(h - (r + b - 2 * lam), lam), binomial(s_base, r - 1 - lam)
    )
    f_base = binomial(h - 1, b)
    memory = 1 - Fraction(binomial(r - 1, lam) * binomial(h - r, b - lam), f_base)
    return SchemeParams(
        family="scheme3",
        h=h,
        r=r,
        params=(("b", b), ("lam", lam)),
        memory_ratio=memory,
        rate=Fraction(s_count, r * f_base),
        s_count=s_count,
        f_rows=r * f_base,
        w=None,
        f_eff=h * r * f_base,
    )


def rate_from_array(array: PdaArray) -> dict[int, Fraction]:
    """Per-relay rate folded directly from the symbol index, no simulation.

    Each symbol contributes 1/(F * w_s) to each relay in its routing set.
    """
    report = validate(array, require_cpda=True)
    if not report.ok:
        raise InvalidArrayError("rates are defined only for routable arrays")
    rates = {h: Fraction(0) for h in range(1, array.h + 1)}
    for info in array.symbol_index.values():
        share = Fraction(1, array.f * info.width)
        for h in info.common:
            rates[h] += share
    return rates


def scheme1_candidates(h: int, r: int) -> list[SchemeParams]:
    """Every buildable parameter tuple at (H, r), both c1 variants plus c2."""
    check_shape(h, r)
    out: list[SchemeParams] = []
    for b in range(1, h):
        for lam in range(1, min(r, b) + 1):
            if r + b - 2 * lam >= h:
                continue
            out.append(params_c1(h, r, b, lam, "p"))
            if lam < r:
                out.append(params_c1(h, r, b, lam, "pp"))
    for lam in range(1, h - r):
        for b in range(lam + 1, r + lam):
            out.append(params_c2(h, r, b, lam))
    return out


def scheme3_candidates(h: int, r: int) -> list[SchemeParams]:
    check_shape(h, r)
    out: list[SchemeParams] = []
    if h % r != 0 or r < 2:
        return out
    for b in range(1, h - 1):
        for lam in range(1, min(r - 1, b) + 1):
            try:
                out.append(params_scheme3(h, r, b, lam))
            except NotApplicableError:
                continue
    return out


def _key(c: SchemeParams) -> tuple:
    """Tie-break among candidates: lowest rate, then fewest packets, then name."""
    return (c.rate, c.f_eff, c.family, c.params)


class _Frontier:
    """Distinct candidate memories in ascending order, each with its _key-least candidate.

    Built once per candidate list, then every memory point is answered by
    one bisection, so G points over C candidates cost O((G + C) log C).
    """

    def __init__(self, cands: list[SchemeParams]) -> None:
        self.mems: list[Fraction] = []
        self.best: list[SchemeParams] = []
        for c in sorted(cands, key=lambda c: (c.memory_ratio, _key(c))):
            if not self.mems or self.mems[-1] != c.memory_ratio:
                self.mems.append(c.memory_ratio)
                self.best.append(c)

    def at(self, point: Fraction, mode: str) -> SchemeParams | None:
        if mode not in ("closest", "exact"):
            raise ValueError(f"mode must be 'closest' or 'exact', got {mode!r}")
        i = bisect_left(self.mems, point)
        if i < len(self.mems) and self.mems[i] == point:
            return self.best[i]
        if mode == "exact" or not self.mems:
            return None
        # the nearest memories are the neighbours just below and just above
        if i == 0:
            return self.best[0]
        if i == len(self.mems):
            return self.best[-1]
        below, above = point - self.mems[i - 1], self.mems[i] - point
        if below < above:
            return self.best[i - 1]
        if above < below:
            return self.best[i]
        return min(self.best[i - 1], self.best[i], key=_key)


def best_at(cands: list[SchemeParams], point: Fraction, mode: str = "closest") -> SchemeParams | None:
    """Lowest-rate candidate at a memory point; closest mode relaxes to nearest M/N."""
    return _Frontier(cands).at(point, mode)


@dataclass(frozen=True)
class ComparisonRow:
    point: Fraction
    scheme1: SchemeParams | None
    scheme2: SchemeParams | None
    scheme3: SchemeParams | None


def compare_table(
    h: int, r: int, grid: list[Fraction] | None = None, mode: str = "closest"
) -> list[ComparisonRow]:
    """One row per memory point; grid defaults to scheme2's points, else scheme1's."""
    front1 = _Frontier(scheme1_candidates(h, r))
    front3 = _Frontier(scheme3_candidates(h, r))
    grouped = h % r == 0
    points: Iterable[tuple[Fraction, SchemeParams | None]]
    if grid is not None:
        k1 = binomial(h - 1, r - 1)

        def baseline(point: Fraction) -> SchemeParams | None:
            t = point * k1
            if grouped and t.denominator == 1 and 1 <= t.numerator < k1:
                return params_scheme2(h, r, t.numerator)
            return None

        points = ((p, baseline(p)) for p in sorted(grid))
    elif grouped:
        points = ((s.memory_ratio, s) for s in scheme2_series(h, r))
    else:
        points = ((m, None) for m in front1.mems)
    return [
        ComparisonRow(point=p, scheme1=front1.at(p, mode), scheme2=s2, scheme3=front3.at(p, mode))
        for p, s2 in points
    ]


CSV_HEADER = (
    "H,r,family,params,memory_ratio_num,memory_ratio_den,"
    "rate_num,rate_den,F_eff,applicable,memory_ratio,rate,rate_factor_vs_scheme2"
)


def render_csv(rows: list[ComparisonRow], h: int, r: int) -> str:
    """One line per (memory point, comparison slot).

    Applicable rows carry the concrete family (c1p, c1pp, c2, scheme2,
    scheme3); a slot with no instance keeps the slot name and applicable =
    false. Decimal and factor columns are report-only conveniences.
    """
    lines = [CSV_HEADER]
    for row in rows:
        entries = (("scheme1", row.scheme1), ("scheme2", row.scheme2), ("scheme3", row.scheme3))
        for name, p in entries:
            if p is None:
                lines.append(
                    f"{h},{r},{name},,{row.point.numerator},{row.point.denominator},,,,false,,,"
                )
                continue
            factor = ""
            if name == "scheme1" and row.scheme2 is not None and row.scheme2.rate > 0:
                f = p.rate / row.scheme2.rate
                factor = f"{f.numerator}/{f.denominator}"
            m, rt = p.memory_ratio, p.rate
            lines.append(
                f"{h},{r},{p.family},{p.param_str},{m.numerator},{m.denominator},"
                f"{rt.numerator},{rt.denominator},{format_int(p.f_eff)},true,"
                f"{float(m):.6f},{float(rt):.6f},{factor}"
            )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DominanceReport:
    """Machine check of the cross-family claims at one network shape.

    Asserted claims: at every memory point where the grouped single-server
    baseline exists and some buildable candidate uses no more memory, a
    candidate also needs strictly fewer packets; and for every grouped relay
    baseline tuple, some candidate simultaneously uses no more memory, a
    strictly smaller rate and strictly fewer packets. Violations list the
    points where no such candidate exists. rate_factor_max reports how far
    the buildable families' best rate sits above the single-server baseline
    (informational, not part of ok).
    """

    h: int
    r: int
    scheme2_checked: int
    scheme2_skipped: int
    scheme2_violations: tuple[int, ...]  # t values
    scheme2_curve_notes: tuple[int, ...]  # t where the min-rate pick alone has F >= F2
    rate_factor_max: Fraction | None
    rate_factor_argmax: int | None
    scheme3_checked: int
    scheme3_violations: tuple[tuple[int, int], ...]  # (b, lam)

    @property
    def ok(self) -> bool:
        return not self.scheme2_violations and not self.scheme3_violations


def check_dominance(h: int, r: int) -> DominanceReport:
    # Sorted by memory, the candidates usable under a memory budget form a
    # prefix, so running minima along that order answer every budget.
    cands = sorted(scheme1_candidates(h, r), key=lambda c: c.memory_ratio)
    mems = [c.memory_ratio for c in cands]
    least_f = list(accumulate((c.f_eff for c in cands), min))
    best = list(accumulate(cands, lambda a, c: min(a, c, key=_key)))
    s2_checked = s2_skipped = 0
    s2_viol: list[int] = []
    s2_curve: list[int] = []
    factor_max: Fraction | None = None
    factor_arg: int | None = None
    if h % r == 0:
        for t, base in enumerate(scheme2_series(h, r), start=1):
            n = bisect_right(mems, base.memory_ratio)
            if n == 0:
                s2_skipped += 1
                continue
            s2_checked += 1
            if least_f[n - 1] >= base.f_eff:
                s2_viol.append(t)
            pick = best[n - 1]  # min rate, ties broken like best_at
            if pick.f_eff >= base.f_eff:
                s2_curve.append(t)
            factor = pick.rate / base.rate  # scheme2's rate is positive for t < K1
            if factor_max is None or factor > factor_max:
                factor_max, factor_arg = factor, t
    s3 = scheme3_candidates(h, r)
    s3_viol: list[tuple[int, int]] = []
    for base in s3:
        usable = cands[: bisect_right(mems, base.memory_ratio)]
        if not any(c.rate < base.rate and c.f_eff < base.f_eff for c in usable):
            s3_viol.append((dict(base.params)["b"], dict(base.params)["lam"]))
    return DominanceReport(
        h=h,
        r=r,
        scheme2_checked=s2_checked,
        scheme2_skipped=s2_skipped,
        scheme2_violations=tuple(s2_viol),
        scheme2_curve_notes=tuple(s2_curve),
        rate_factor_max=factor_max,
        rate_factor_argmax=factor_arg,
        scheme3_checked=len(s3),
        scheme3_violations=tuple(s3_viol),
    )


def render_dominance(report: DominanceReport) -> str:
    lines = [f"dominance check at H={report.h}, r={report.r}"]
    lines.append(
        f"packet-count vs grouped single-server: {report.scheme2_checked} points checked, "
        f"{report.scheme2_skipped} skipped (no candidate at that memory), "
        f"{len(report.scheme2_violations)} violations"
    )
    if report.scheme2_violations:
        lines.append("  violating t: " + ", ".join(map(str, report.scheme2_violations)))
    if report.scheme2_curve_notes:
        lines.append(
            "  note: min-rate pick alone needs >= packets at t = "
            + ", ".join(map(str, report.scheme2_curve_notes))
        )
    if report.rate_factor_max is not None:
        f = report.rate_factor_max
        lines.append(
            f"rate vs grouped single-server: best-candidate rate is at most "
            f"{f.numerator}/{f.denominator} (~{float(f):.2f}x) of baseline, worst at t={report.rate_factor_argmax}"
        )
    lines.append(
        f"rate+packets vs grouped relay baseline: {report.scheme3_checked} tuples checked, "
        f"{len(report.scheme3_violations)} violations"
    )
    if report.scheme3_violations:
        lines.append(
            "  violating (b,lam): " + ", ".join(f"({b},{lam})" for b, lam in report.scheme3_violations)
        )
    lines.append("result: " + ("ok" if report.ok else "VIOLATIONS FOUND"))
    return "\n".join(lines)
