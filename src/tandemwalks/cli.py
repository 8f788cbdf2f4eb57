"""Command-line front end: enumeration, exponents, tables, fits, guessing.

Every subcommand is a thin adapter over the library and writes CSV or JSON
to stdout (or a file); identical inputs produce byte-identical output.
Exit codes: 0 success, 1 validation or usage error (also a model whose alpha
is below the float range), 2 resource-budget abort, 3 internal error (an
unexpected exception, reported in one line on stderr), 4 failed check
(``bijection-check`` found a count or walk-level mismatch).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import inf

from .bijection import bijection_failure, generate_ballot_walks, map_walk_3to2
from .classify import search_triples
from .enumeration import (
    DEFAULT_CELL_BUDGET,
    count_ballot_3d,
    count_endpoint,
    count_excursions,
    count_grid_excursions,
    count_walks_total,
)
from .errors import BudgetExceededError, ValidationError
from .exponent import RATIONAL_ALPHA, exponent_report
from .fit import MAX_RICHARDSON_LEVELS, estimate_alpha
from .guess import guess_recurrence, searched_grid
from .models import (
    BallotModel,
    TandemModel,
    ballot_to_tandem,
    parse_ints,
    parse_model,
    tandem_step_set,
    tandem_to_ballot,
)

SCHEMA_VERSION = 1

# ballot models of the 15-row exponent table, in row order
TABLE1_BALLOT_TRIPLES = (
    (1, 1, 1), (1, 2, 2), (1, 1, 2), (1, 3, 3), (2, 3, 6),
    (2, 3, 3), (1, 1, 3), (2, 2, 3), (1, 4, 4), (1, 2, 4),
    (3, 4, 12), (3, 4, 6), (3, 4, 4), (1, 1, 4), (3, 3, 4),
)


class _CheckFailed(Exception):
    """A cross-check found a mismatch: a wrong result, not a bad input."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _int_at_least(lo: int):
    """An argparse type for integers >= lo."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return value

    return convert


def _validated(parse):
    """An argparse type from a library parser that raises ValidationError."""

    def convert(text: str):
        try:
            return parse(text)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _rational(text: str) -> int | Fraction:
    """An integer, num/den or plain decimal in ASCII digits; an integer is
    read as an int.  Fraction alone also reads exponents, and would build
    10^999999999 for 1e-999999999."""
    match = _RATIONAL.fullmatch(text.strip())
    if match:
        try:
            return Fraction(text) if match[1] else int(text)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise ValidationError(f"expected a fraction like 1/4, got {text!r}")


_fraction = _validated(_rational)
_model = _validated(parse_model)
_ballot = _validated(lambda text: BallotModel(*parse_ints(text, 3)))
_pair = _validated(lambda text: parse_ints(text, 2))


def _write(path: str | None, payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _emit(args, result: list[str] | dict) -> None:
    """Write a subcommand's result: its lines, or its payload as a JSON document."""
    if isinstance(result, dict):
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **result}
        result = [json.dumps(doc, indent=2, allow_nan=False)]
    _write(args.output, "\n".join(result) + "\n")


def _model_meta(m: TandemModel) -> dict:
    b = tandem_to_ballot(m)
    return {"A": m.A, "B": m.B, "C": m.C, "a": b.a, "b": b.b, "c": b.c, "period": m.period}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tandemwalks", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, model: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        if model:
            p.add_argument("--model", type=_model, required=True,
                           help="tandem triple A,B,C or ballot:a,b,c")
        return p

    p = command("enumerate", "count walks of one model, exactly or in log-floats", model=True)
    p.add_argument("--what", choices=("excursions", "total", "endpoint"), default="excursions",
                   help="which counting sequence to produce")
    p.add_argument("--n-max", type=_int_at_least(0), required=True, help="largest walk length")
    p.add_argument("--mode", choices=("exact", "logfloat"), default="exact",
                   help="exact big integers or rescaled float64 logs")
    p.add_argument("--target", type=_pair, default=None, help="endpoint i,j (endpoint only)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p = command("exponent", "growth constant and critical exponent of one model", model=True)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    command("table1", "the 15-model exponent table as CSV")

    p = command("table2", "models with rational exponent, by exceptional class")
    p.add_argument("--bound", type=_int_at_least(1), default=50, help="search bound on A, B, C")

    p = command("classify", "search triples with a prescribed gamma^2")
    p.add_argument("--gamma-sq", type=_fraction, required=True, help="target gamma^2 as num/den")
    p.add_argument("--bound", type=_int_at_least(1), required=True, help="search bound on A, B, C")

    p = command("fit", "estimate alpha and mu from enumerated excursions", model=True)
    p.add_argument("--m-max", type=_int_at_least(1), required=True,
                   help="largest subsequence index m (walk length p*m)")
    p.add_argument("--richardson", type=_int_at_least(0), default=MAX_RICHARDSON_LEVELS,
                   help="extrapolation levels")
    p.add_argument("--mode", choices=("logfloat", "exact"), default="logfloat",
                   help="enumeration mode feeding the fit")
    p.add_argument("--plot", default=None, help="write an SVG convergence chart here")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="csv: m,alpha_hat table; json: summary")

    p = command("guess", "guess a P-recursive recurrence from a series file")
    p.add_argument("--series", required=True,
                   help="CSV file: one integer or num/den rational per line")
    p.add_argument("--max-order", type=_int_at_least(1), required=True, help="largest order tried")
    p.add_argument("--max-degree", type=_int_at_least(0), required=True, help="largest degree tried")

    p = command("bijection-check", "compare 3D ballot counts with 2D excursions")
    p.add_argument("--ballot", type=_ballot, required=True, help="ballot triple a,b,c")
    p.add_argument("--rounds", type=_int_at_least(1), required=True, help="rounds to check")
    p.add_argument("--walk-cap", type=_int_at_least(1), default=2000,
                   help="walk-level bijection check only when counts are at most this")

    # the options every subcommand, or every counting one, ends with
    for name, p in sub.choices.items():
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if name in ("enumerate", "fit"):
            p.add_argument("--cell-budget", type=_int_at_least(1), default=DEFAULT_CELL_BUDGET,
                           help="abort if the sweep would exceed this many cells")
            p.add_argument("--threads", type=_int_at_least(1), default=1,
                           help="accepted and ignored: counting runs on one thread")

    return parser


def _cmd_enumerate(args) -> list[str] | dict:
    s = tandem_step_set(args.model)
    if args.what == "endpoint":
        if args.target is None:
            raise ValidationError("--what endpoint requires --target i,j")
        seq = count_endpoint(s, args.n_max, args.target, args.mode, args.cell_budget)
    else:
        if args.target is not None:
            raise ValidationError("--target is only valid with --what endpoint")
        counter = count_excursions if args.what == "excursions" else count_walks_total
        seq = counter(s, args.n_max, args.mode, args.cell_budget)

    if args.format == "csv" and args.mode == "exact":
        return ["n,count"] + [f"{n},{v}" for n, v in enumerate(seq.values)]
    if args.format == "csv":
        return ["n,log_count"] + [f"{n},{_fmt(v)}" for n, v in enumerate(seq.values)]
    return {
        "model": _model_meta(args.model),
        "what": args.what,
        "mode": args.mode,
        "n_max": args.n_max,
        "target": list(args.target) if args.target else None,
        "metadata": {"cell_budget": args.cell_budget, "threads": args.threads},
        # a log-float zero count (-inf) has no JSON number: write null
        "terms": [None if v == -inf else v for v in seq.values],
    }


def _report_dict(m: TandemModel) -> dict:
    rep = exponent_report(m)
    return {
        "model": _model_meta(m),
        "x": rep.x,
        "y": rep.y,
        "mu": rep.mu,
        "gamma": rep.gamma,
        "gamma_sq": f"{rep.gamma_sq.numerator}/{rep.gamma_sq.denominator}",
        "alpha": rep.alpha,
        "alpha_exact": None if rep.alpha_exact is None else int(rep.alpha_exact),
        "alpha_closed_form": rep.alpha_closed_form,
        "rationality": rep.rationality,
        "verdict": rep.dfiniteness,
    }


def _cmd_exponent(args) -> list[str] | dict:
    info = _report_dict(args.model)
    if args.json:
        return info
    m = args.model
    return [
        f"model: ({m.A},{m.B},{m.C})  ballot ({info['model']['a']},{info['model']['b']},{info['model']['c']})  period {info['model']['period']}",
        f"critical point: X = {_fmt(info['x'])}, Y = {_fmt(info['y'])}",
        f"mu = {_fmt(info['mu'])}",
        f"gamma^2 = {info['gamma_sq']}  (gamma = {_fmt(info['gamma'])})",
        f"alpha = {_fmt(info['alpha'])}  [{info['alpha_closed_form']}]",
        f"rationality: {info['rationality']}",
        f"verdict: {info['verdict']}",
    ]


def _cmd_table1(args) -> list[str]:
    lines = ["a,b,c,A,B,C,gamma_sq,alpha,alpha_closed_form,verdict"]
    for triple in TABLE1_BALLOT_TRIPLES:
        ballot = BallotModel(*triple)
        m = ballot_to_tandem(ballot)
        info = _report_dict(m)
        lines.append(
            f"{ballot.a},{ballot.b},{ballot.c},{m.A},{m.B},{m.C},"
            f"{info['gamma_sq']},{_fmt(info['alpha'])},{info['alpha_closed_form']},{info['verdict']}"
        )
    return lines


def _cmd_table2(args) -> list[str]:
    return ["gamma_sq,A,B,C,alpha"] + [
        f"{target.numerator}/{target.denominator},{m.A},{m.B},{m.C},{_fmt(float(alpha))}"
        for target, alpha in RATIONAL_ALPHA.items()
        for m in search_triples(target, args.bound)
    ]


def _cmd_classify(args) -> list[str]:
    return ["A,B,C,alpha"] + [
        f"{m.A},{m.B},{m.C},{_fmt(exponent_report(m).alpha)}"
        for m in search_triples(args.gamma_sq, args.bound)
    ]


def _svg_chart(result, reference: float) -> str:
    """Minimal line chart: level-0 estimates vs m, plus a rule at the reference
    alpha.  A fit reads at least 5 contiguous terms, so ms spans >= 2 values."""
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 20, 40
    xs = list(result.ms)
    ys = list(result.alpha_estimates)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [reference]), max(ys + [reference])
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    ry = py(reference)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        f'<line x1="{ml}" y1="{ry:.2f}" x2="{width - mr}" y2="{ry:.2f}" '
        f'stroke="crimson" stroke-dasharray="6 4"/>',
        f'<text x="{width - mr - 4}" y="{ry - 6:.2f}" text-anchor="end" '
        f'font-size="12" fill="crimson">alpha = {reference:.6g}</text>',
        f'<text x="{(ml + width - mr) / 2}" y="{height - 8}" text-anchor="middle" font-size="12">m</text>',
        f'<text x="16" y="{(mt + height - mb) / 2}" font-size="12" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2})">alpha_hat</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _cmd_fit(args) -> list[str] | dict:
    m = args.model
    p = m.period
    s = tandem_step_set(m)
    n_max = p * (args.m_max + 1)
    seq = count_excursions(s, n_max, args.mode, args.cell_budget)
    rep = exponent_report(m)
    result = estimate_alpha(seq, p, max_levels=args.richardson)
    if args.plot is not None:
        _write(args.plot, _svg_chart(result, rep.alpha))
    if args.format == "csv":
        return ["m,alpha_hat"] + [f"{mm},{_fmt(v)}" for mm, v in zip(result.ms, result.alpha_estimates)]
    return {
        "model": _model_meta(m),
        "mode": args.mode,
        "m_range": list(result.m_range),
        "metadata": {
            "m_max": args.m_max,
            "n_max": n_max,
            "richardson": args.richardson,
            "cell_budget": args.cell_budget,
            "threads": args.threads,
        },
        "level_used": result.level_used,
        "alpha_final": result.alpha_final,
        "mu_final": result.mu_final,
        "alpha_reference": rep.alpha,
        "mu_reference": rep.mu,
        "deviation": abs(result.alpha_final - rep.alpha),
    }


def _read_series(path: str) -> list[int | Fraction]:
    try:
        with open(path) as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    terms = []
    for k, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            terms.append(_rational(line))
        except ValidationError:
            raise ValidationError(f"{path}:{k}: not an integer or num/den rational: {line!r}") from None
    return terms


def _cmd_guess(args) -> dict:
    terms = _read_series(args.series)
    rec = guess_recurrence(terms, args.max_order, args.max_degree)
    return {
        "n_terms": len(terms),
        "found": rec is not None,
        "order": None if rec is None else rec.order,
        "degree": None if rec is None else rec.degree,
        "coefficients": None if rec is None else [[str(c) for c in poly] for poly in rec.coefficients],
        "searched_grid": [list(cell) for cell in searched_grid(args.max_order, args.max_degree)],
    }


def _cmd_bijection_check(args) -> list[str]:
    ballot = args.ballot
    tandem = ballot_to_tandem(ballot)
    p = ballot.period
    # (x, y) excursions on the quadrant plan against cone walks on the pinned
    # ballot plan; both meter the same terms before their plans, so too many
    # rounds abort at once, before either sweep
    seq2 = count_grid_excursions(tandem_step_set(tandem), p * args.rounds)
    seq3 = count_ballot_3d(ballot, args.rounds)
    lines = []
    for n in range(1, args.rounds + 1):
        c3 = seq3.values[n]
        c2 = seq2.values[p * n]
        if c3 != c2:
            raise _CheckFailed(
                f"count mismatch at round {n}: 3d gives {c3}, 2d gives {c2}"
            )
        note = ""
        if c3 <= args.walk_cap:
            words = generate_ballot_walks(ballot, n)
            failure = bijection_failure(ballot, words, map_walk_3to2(words), c3)
            if failure:
                raise _CheckFailed(f"walk-level bijection failed at round {n}: {failure}")
            note = ",mapped"
        lines.append(f"round {n}: count {c3} ok{note}")
    return lines


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "exponent": _cmd_exponent,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "classify": _cmd_classify,
    "fit": _cmd_fit,
    "guess": _cmd_guess,
    "bijection-check": _cmd_bijection_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing does not change it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _emit(args, _COMMANDS[args.command](args))
    except ValidationError as exc:
        print(f"tandemwalks: error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"tandemwalks: aborted: {exc}", file=sys.stderr)
        return 2
    except _CheckFailed as exc:
        print(f"tandemwalks: check failed: {exc}", file=sys.stderr)
        return 4
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a bug, not a bad input: report it without a traceback
        print(f"tandemwalks: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())
