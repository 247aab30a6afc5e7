"""Command line front end.

Subcommands: decide, sweep, verify-corpus, series, render.  Exact
quantities are printed as rationals.  Exit status is 0 exactly when every
requested verdict or verification passes, 1 when some verdict is negative,
and 2 for usage or validation errors.

A command refuses an input by raising ValueError or OSError; main() alone
turns that into one "error: ..." line on stderr and exit 2, and it writes a
command's stdout only after the command returns, so a refusal prints nothing
there.  A value starting with "-" and a digit (-5..5, -1,0, -.1) parses as a
value; one starting with "-" and a letter needs the --flag=value form.

Each command runs in a fresh process, so startup is part of its cost: the
render and sweep modules, and the json module sweep needs, are imported
only by the subcommands that use them.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import re
import sys
from bisect import bisect_left
from itertools import combinations

from .expansions import Witness, eval_expansion, expansion_catalog, verify_witness
from .lattice import CharPoly, DigitSystem, LatticeVec, is_expanding, standard_digits
from .membership import decide_membership, edge_graph
from .series import _MAX_TERMS, alpha_beta, series_sums


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        l, k = map(int, text.split(","))  # a wrong count fails to unpack
    except ValueError:
        raise ValueError(f"{what} must be two comma-separated integers, got {text!r}") from None
    return l, k


def _parse_poly(text: str) -> CharPoly:
    p, q = _parse_pair(text, "--poly")
    poly = CharPoly(p, q)
    if not is_expanding(poly):
        try:
            sq = cmath.sqrt(complex(poly.discriminant))
            culprit, other = sorted(((-p + sq) / 2, (-p - sq) / 2), key=abs)
            if abs(culprit) < abs(other):
                culprit = q / other  # Vieta; the formula cancels in the smaller root
            shown = f"{culprit.real:.6g}" if abs(culprit.imag) < 1e-12 else f"{culprit:.6g}"
            detail = f"root {shown} has modulus {abs(culprit):.6g}"
        except OverflowError:  # coefficients beyond float range
            detail = "a root has modulus"
        raise ValueError(f"{poly} is not expanding: {detail}, not above 1")
    return poly


def _parse_digits(text: str) -> tuple[LatticeVec, ...]:
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise ValueError("--digits must list at least one l,k pair")
    return tuple(LatticeVec(*_parse_pair(c.strip(), "--digits entry")) for c in chunks)


def _parse_k_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise ValueError(f"--k-range must look like -5..5, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError("--k-range must be nondecreasing")
    if lo == hi == 0:
        raise ValueError("--k-range must include a nonzero k")
    return lo, hi


def _parse_size(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not m:
        raise ValueError(f"--size must look like 512x512, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _word_str(word) -> str:
    return ",".join(str(d) for d in word) if word else "-"


def _witness_str(w: Witness) -> str:
    return f"pre={_word_str(w.preperiod)} per={_word_str(w.period)}"


def _cmd_decide(args) -> int:
    ds = DigitSystem(_parse_poly(args.poly), _parse_digits(args.digits))
    print(f"poly: {ds.poly}")
    print("digits: " + " ".join(str(d) for d in ds.digits))
    if args.delta is not None:
        delta = LatticeVec(*_parse_pair(args.delta, "--delta"))
        outcome = decide_membership(ds, delta)
        print(f"delta: {delta}")
        print(f"member: {'yes' if outcome.member else 'no'}")
        if outcome.member:
            print(f"witness: {_witness_str(outcome.witness)}")
            ok = verify_witness(ds, delta, outcome.witness)
            print(f"verified: {'exact' if ok else 'FAILED'}")
            return 0 if ok else 1
        return 1
    graph = edge_graph(ds)
    for (i, j), witness in graph.witnesses.items():
        print(f"edge {i}-{j}: delta={ds.digits[i] - ds.digits[j]} {_witness_str(witness)}")
    missing = [e for e in combinations(range(len(ds.digits)), 2) if e not in graph.edges]
    if missing:
        print("missing: " + " ".join(f"{i}-{j}" for i, j in missing))
    print(f"connected: {'yes' if graph.connected else 'no'}")
    return 0 if graph.connected else 1


def _cmd_sweep(args) -> int:
    from .sweep import corollary_check, mirror_holds, report_json, sweep_theorem

    lo, hi = _parse_k_range(args.k_range)
    report = sweep_theorem(lo, hi, include_witnesses=args.witnesses)
    mirror_ok = mirror_holds(report)
    print(f"k: {lo}..{hi}  entries: {len(report.entries)}")
    print(f"connected: {report.connected_count}")
    print(f"theorem (connected iff |k|=1): {'PASS' if report.theorem_verdict else 'FAIL'}")
    print(f"mirror (p,k vs -p,-k): {'PASS' if mirror_ok else 'FAIL'}")
    corollary_ok = corollary_check()
    print(f"companion digit sets connected: {'PASS' if corollary_ok else 'FAIL'}")
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(report_json(report))
        print(f"report: {args.report}")
    return 0 if (report.theorem_verdict and mirror_ok and corollary_ok) else 1


def _cmd_verify_corpus(args) -> int:
    all_ok = True
    items = expansion_catalog()
    for item in items:
        ds = DigitSystem(item.poly, standard_digits(item.k))
        value = eval_expansion(item.poly, item.witness.preperiod, item.witness.period)
        eval_ok = (value.l, value.k) == (item.delta.l, item.delta.k)
        member_ok = decide_membership(ds, item.delta).member
        word_ok = (not item.word_in_dd) or verify_witness(ds, item.delta, item.witness)
        ok = eval_ok and member_ok and word_ok
        all_ok = all_ok and ok
        status = "ok" if ok else "FAIL"
        print(
            f"[{status}] {item.label}: poly={item.poly} k={item.k} delta={item.delta} "
            f"eval={'exact' if eval_ok else 'WRONG'} member={'yes' if member_ok else 'NO'} "
            f"word-in-dd={'yes' if item.word_in_dd else 'no'}"
        )
    print(f"corpus: {len(items)} items, {'all verified' if all_ok else 'FAILURES'}")
    return 0 if all_ok else 1


def _max_printable_terms(poly: CharPoly) -> int:
    # Term n has a denominator dividing |q|^n; printing it needs |q|^n below
    # 10**limit, the interpreter's cap on digits in int-to-str conversion
    # (0 means no cap).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return _MAX_TERMS
    # |q| has d digits, so |q| >= 10**(d - 1) and, for d >= 2, the power
    # reaches the ceiling by n = limit // (d - 1) + 1: the search stays short
    ceiling, d = 10**limit, len(str(abs(poly.q)))
    last = _MAX_TERMS if d < 2 else min(_MAX_TERMS, limit // (d - 1) + 1)
    first_too_long = bisect_left(range(last + 1), True, key=lambda n: abs(poly.q) ** n >= ceiling)
    return first_too_long - 1


def _cmd_series(args) -> int:
    poly = _parse_poly(args.poly)
    max_terms = _max_printable_terms(poly)
    if not 1 <= args.terms <= max_terms:
        raise ValueError(f"--terms must lie in 1..{max_terms} for {poly}, got {args.terms}")
    bounds = series_sums(poly)
    if bounds.terms_used > max_terms:
        raise ValueError(f"the bounds of {poly} take {bounds.terms_used} terms, "
                         f"over the {max_terms} printable")
    print(f"poly: {poly}")
    print("i alpha beta")
    for term in alpha_beta(poly, args.terms):
        print(f"{term.index} {term.alpha} {term.beta}")
    print(f"alpha_upper: {bounds.alpha_upper}")
    print(f"beta_upper: {bounds.beta_upper}")
    print(f"terms_used: {bounds.terms_used}")
    print(f"tail_bound: {bounds.tail_bound}")
    return 0


def _cmd_render(args) -> int:
    from .render import RenderConfig, default_filename, rasterize, write_image

    poly = _parse_poly(args.poly)
    if args.digits is not None:
        digits = _parse_digits(args.digits)
    elif args.k is None:
        raise ValueError("render needs --k or --digits")
    else:
        digits = standard_digits(args.k)
    width, height = _parse_size(args.size)
    out = args.out
    if out is None:
        if args.digits is not None:
            raise ValueError("--out is required when --digits is given")
        out = default_filename(poly, args.k, args.depth)
    cfg = RenderConfig(poly, digits, depth=args.depth, width=width, height=height,
                       margin=args.margin)
    grid = rasterize(cfg)
    write_image(grid, out)
    n_points = len(cfg.digits) ** cfg.depth
    print(f"wrote {out} ({width}x{height}, depth {args.depth}, {n_points} points)")
    return 0


class _Parser(argparse.ArgumentParser):
    # reads "-5..5", "-1,0;0,0" and "-.1" as values, where argparse would
    # take them for options; subparsers inherit it through add_subparsers
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tileconn",
        description="Exact connectedness decisions for planar self-affine digit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide connectedness or one membership query")
    p_decide.add_argument("--poly", required=True, help="p,q for x^2+p*x+q")
    p_decide.add_argument("--digits", required=True, help="semicolon-separated l,k pairs")
    p_decide.add_argument("--delta", help="optional l,k membership query in T-T")
    p_decide.set_defaults(func=_cmd_decide)

    p_sweep = sub.add_parser("sweep", help="verify the criterion over all |q|=3 instances")
    p_sweep.add_argument("--k-range", required=True, help="inclusive range like -5..5 (k=0 skipped)")
    p_sweep.add_argument("--report", help="write the JSON report to this path")
    p_sweep.add_argument("--witnesses", action="store_true",
                         help="attach verified witnesses for spanning edges to the report")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_corpus = sub.add_parser("verify-corpus", help="re-verify the built-in expansion catalog")
    p_corpus.set_defaults(func=_cmd_verify_corpus)

    p_series = sub.add_parser("series", help="print exact series terms and certified bounds")
    p_series.add_argument("--poly", required=True, help="p,q for x^2+p*x+q")
    p_series.add_argument("--terms", type=int, default=10, help="terms to print (default 10)")
    p_series.set_defaults(func=_cmd_series)

    p_render = sub.add_parser("render", help="render an attractor image (binary PPM)")
    p_render.add_argument("--poly", required=True, help="p,q for x^2+p*x+q")
    p_render.add_argument("--k", type=int, help="use the digit set {0, v, k*Av}")
    p_render.add_argument("--digits", help="explicit digit list, overrides --k")
    p_render.add_argument("--depth", type=int, default=9, help="word length (default 9)")
    p_render.add_argument("--size", default="512x512", help="WxH in pixels (default 512x512)")
    p_render.add_argument("--margin", type=float, default=0.05,
                          help="whitespace fraction per side (default 0.05)")
    p_render.add_argument("--out", help="output path (default tile_p*_q*_k*_d*.ppm)")
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
